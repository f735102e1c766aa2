//! The job table: what each rank of a job is doing, and the deadlock
//! detector that reads it.
//!
//! A thread waits on another thread in exactly three places: a collective
//! rendezvous, the lock manager's admission wait and the wait for a server
//! another client is recovering. Each parks its rank through
//! [`Clock::park`], which marks the rank's slot `Parked` at the wait's
//! [`Wait`] site and sleeps until a notifier wakes it. Every notifier wakes
//! the ranks it may release through the resource's [`Waiters`], which marks
//! each one `Running` under the resource's mutex, and unparks the threads
//! through a [`Wakeup`] once that mutex is released. So a rank woken but
//! not yet rescheduled never reads as parked.
//!
//! **The detector** (Chandy–Misra's quiescence rule). When a rank parks, or
//! when its [`Seat`] marks it `Exited`, the table checks whether any rank
//! is still `Running`. If none is and one is parked, no rank of the job can
//! move again: every waker is a rank of the job. The rank that sees this
//! freezes a [`Deadlock`] report and unparks every parked rank, and each one
//! panics: the lowest with the report, the others naming it. The report
//! gives each rank's virtual clock and its wait site or exit.
//!
//! A thread that is not a rank of the job must not wake one of its ranks:
//! the table cannot see it, and would report its ranks deadlocked while it
//! still meant to wake them. A test whose own thread wakes a rank gives
//! that thread a slot, which stays `Running` while the thread works.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

use crate::clock::{Clock, VNanos};

/// One job's table: a slot per rank (its clock and what it is doing).
///
/// ```
/// use atomio_vtime::Job;
/// let job = Job::new(2);
/// let seat = job.seat(1);
/// seat.clock().advance(30);
/// assert_eq!(job.parked_at(1), None, "a running rank is parked nowhere");
/// drop(seat); // rank 1 exits; rank 0 never parked, so nothing is reported
/// assert!(job.deadlock().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Job(Arc<Table>);

impl Job {
    /// A table of `ranks` slots, every rank `Running` at virtual time 0.
    pub fn new(ranks: usize) -> Job {
        Job(Table::new(ranks))
    }

    /// Rank `rank`'s seat: its clock, and a guard that marks the rank
    /// `Exited` when dropped — when the rank's thread returns or unwinds.
    pub fn seat(&self, rank: usize) -> Seat {
        assert!(rank < self.0.ranks.len(), "rank {rank} has no slot");
        Seat(Clock {
            table: Arc::clone(&self.0),
            rank,
        })
    }

    /// The site `rank` is parked at, if it is parked.
    pub fn parked_at(&self, rank: usize) -> Option<&'static str> {
        match &self.0.slots.lock().state[rank] {
            State::Parked(wait, _) => Some(wait.site),
            State::Running | State::Exited => None,
        }
    }

    /// The report, once the detector has found the job deadlocked.
    pub fn deadlock(&self) -> Option<Arc<Deadlock>> {
        self.0.slots.lock().verdict.clone()
    }
}

/// A rank's place in its [`Job`]: marks the rank `Exited` when dropped.
#[derive(Debug)]
pub struct Seat(Clock);

impl Seat {
    /// The rank's clock, parked and woken through this table.
    pub fn clock(&self) -> &Clock {
        &self.0
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        self.0.table.exit(self.0.rank);
    }
}

/// Why a rank is parked: the wait's site and, at a lock, the file whose
/// lock manager it waits in, the lock ids the rank holds there and those
/// it waits behind (with their holders). Up to four of each are kept, and
/// the file's name is a shared `Arc<str>`, so parking allocates nothing.
#[derive(Debug, Clone)]
pub struct Wait {
    site: &'static str,
    file: Option<Arc<str>>,
    holds: Few<u64>,
    behind: Few<(u64, usize)>,
}

impl Wait {
    /// A wait at `site`.
    pub fn at(site: &'static str) -> Wait {
        Wait {
            site,
            file: None,
            holds: Few::default(),
            behind: Few::default(),
        }
    }

    /// A wait at `site` in `file`'s lock manager: the locks it lists are
    /// that file's.
    pub fn on(site: &'static str, file: &Arc<str>) -> Wait {
        Wait {
            file: Some(Arc::clone(file)),
            ..Wait::at(site)
        }
    }

    /// The parked rank holds lock `id`.
    pub fn holds(&mut self, id: u64) {
        self.holds.push(id);
    }

    /// The parked rank waits behind lock `id`, which `holder` holds.
    pub fn behind(&mut self, id: u64, holder: usize) {
        self.behind.push((id, holder));
    }
}

impl fmt::Display for Wait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.site)?;
        if let Some(file) = &self.file {
            write!(f, " on {file}")?;
        }
        if self.holds.len > 0 {
            f.write_str("; holds ")?;
            self.holds.list(f, |f, id| write!(f, "lock {id}"))?;
        }
        if self.behind.len > 0 {
            f.write_str("; behind ")?;
            self.behind
                .list(f, |f, (id, holder)| write!(f, "lock {id} (rank {holder})"))?;
        }
        Ok(())
    }
}

/// The first four items of a list, and its length.
#[derive(Debug, Clone, Copy, Default)]
struct Few<T> {
    items: [T; 4],
    len: usize,
}

impl<T: Copy> Few<T> {
    fn push(&mut self, item: T) {
        if let Some(slot) = self.items.get_mut(self.len) {
            *slot = item;
        }
        self.len += 1;
    }

    fn list(
        &self,
        f: &mut fmt::Formatter<'_>,
        item: impl Fn(&mut fmt::Formatter<'_>, T) -> fmt::Result,
    ) -> fmt::Result {
        let kept = self.len.min(self.items.len());
        for (i, &it) in self.items[..kept].iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            item(f, it)?;
        }
        if self.len > kept {
            write!(f, " and {} more", self.len - kept)?;
        }
        Ok(())
    }
}

/// A job no rank of which can move: none is running and at least one is
/// parked. Frozen when the detector fires: each rank's virtual clock and
/// its wait, or `None` for a rank that had exited.
#[derive(Debug)]
pub struct Deadlock {
    ranks: Vec<(VNanos, Option<Wait>)>,
}

impl Deadlock {
    /// Whether `rank` was parked when the job deadlocked (its panic then
    /// reports the deadlock; it did not cause it).
    pub fn parked(&self, rank: usize) -> bool {
        self.ranks.get(rank).is_some_and(|(_, w)| w.is_some())
    }
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("deadlock: no rank of the job can move")?;
        for (rank, (clock, wait)) in self.ranks.iter().enumerate() {
            write!(f, "\n  rank {rank} at {clock} vns: ")?;
            match wait {
                Some(wait) => write!(f, "parked in {wait}")?,
                None => f.write_str("exited")?,
            }
        }
        Ok(())
    }
}

/// The clocks of the ranks parked on one shared resource, kept under the
/// resource's own mutex: the ranks its notifier wakes.
#[derive(Debug, Default)]
pub struct Waiters(Vec<Clock>);

impl Waiters {
    /// Wake every rank parked here. Call it under the resource's mutex,
    /// after the change that may release them: each rank is marked
    /// `Running` now, under one lock of its job's table, and its thread
    /// joins `woken`, which unparks it when it drops. Declare `woken`
    /// before the guard, so the guard is released first and a woken rank
    /// does not preempt its waker only to block on the mutex again. A
    /// woken rank that is still blocked parks again.
    pub fn wake_all(&mut self, woken: &mut Wakeup) {
        let mut clocks = self.0.drain(..).peekable();
        while let Some(first) = clocks.next() {
            let table = first.table;
            let mut slots = table.slots.lock();
            table.wake(&mut slots, first.rank, woken);
            while let Some(next) = clocks.next_if(|c| Arc::ptr_eq(&c.table, &table)) {
                table.wake(&mut slots, next.rank, woken);
            }
        }
    }
}

/// Threads [`Waiters::wake_all`] marked `Running`, unparked when this
/// drops. The first eight are kept inline, so a wake allocates nothing.
#[derive(Debug, Default)]
pub struct Wakeup {
    threads: [Option<Thread>; 8],
    more: Vec<Thread>,
}

impl Wakeup {
    fn push(&mut self, thread: Thread) {
        match self.threads.iter_mut().find(|t| t.is_none()) {
            Some(slot) => *slot = Some(thread),
            None => self.more.push(thread),
        }
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        for thread in self.threads.iter().flatten().chain(&self.more) {
            thread.unpark();
        }
    }
}

impl Clock {
    /// Park this clock's rank at `wait` until a notifier wakes it: join
    /// the resource's `waiters` (reached through the guarded state), mark
    /// the slot `Parked`, and sleep with `guard` released. Returns with
    /// `guard` held again; the caller re-checks its condition.
    ///
    /// If the job deadlocks meanwhile — or this park completes the
    /// deadlock — it panics instead: the lowest parked rank with the
    /// report, every other parked rank with a line naming its site.
    pub fn park<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        waiters: impl FnOnce(&mut T) -> &mut Waiters,
        wait: Wait,
    ) {
        waiters(&mut **guard).0.push(self.clone());
        let site = wait.site;
        self.table.park(self.rank, wait);
        let Some(report) = MutexGuard::unlocked(guard, || self.table.sleep(self.rank)) else {
            return;
        };
        let first = report.ranks.iter().position(|(_, w)| w.is_some());
        if first == Some(self.rank) {
            panic!("{report}");
        }
        panic!(
            "rank {}: parked in {} when the job deadlocked; rank {} reports it",
            self.rank,
            site,
            first.unwrap_or(self.rank)
        );
    }
}

/// A job's slots. What each rank is doing lives under one mutex, so the
/// detector reads every slot at one instant; each rank's clock and a
/// mirror of its `Parked` flag are atomics, read without the lock (the
/// flag by the parked thread itself, so a wake costs it no lock).
#[derive(Debug)]
pub(crate) struct Table {
    ranks: Box<[Rank]>,
    slots: Mutex<Slots>,
    /// Set, under `slots`, with the verdict.
    deadlocked: AtomicBool,
}

#[derive(Debug)]
struct Rank {
    clock: AtomicU64,
    /// Whether the rank's state is `Parked`; cleared when it is woken.
    parked: AtomicBool,
}

#[derive(Debug)]
struct Slots {
    state: Box<[State]>,
    verdict: Option<Arc<Deadlock>>,
}

#[derive(Debug)]
enum State {
    Running,
    /// Parked at a wait; the thread is what a wake unparks.
    Parked(Wait, Thread),
    Exited,
}

impl Table {
    pub(crate) fn new(ranks: usize) -> Arc<Table> {
        Arc::new(Table {
            ranks: (0..ranks)
                .map(|_| Rank {
                    clock: AtomicU64::new(0),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            slots: Mutex::new(Slots {
                state: (0..ranks).map(|_| State::Running).collect(),
                verdict: None,
            }),
            deadlocked: AtomicBool::new(false),
        })
    }

    pub(crate) fn clock(&self, rank: usize) -> &AtomicU64 {
        &self.ranks[rank].clock
    }

    fn park(&self, rank: usize, wait: Wait) {
        let mut slots = self.slots.lock();
        slots.state[rank] = State::Parked(wait, std::thread::current());
        self.ranks[rank].parked.store(true, Ordering::Release);
        self.detect(&mut slots);
    }

    /// Mark `rank` `Running` if it is parked, and hand its thread to
    /// `woken` to unpark.
    fn wake(&self, slots: &mut Slots, rank: usize, woken: &mut Wakeup) {
        let State::Parked(_, thread) = std::mem::replace(&mut slots.state[rank], State::Running)
        else {
            // Running already, or exited since it parked here.
            return;
        };
        self.ranks[rank].parked.store(false, Ordering::Release);
        woken.push(thread);
    }

    fn exit(&self, rank: usize) {
        let mut slots = self.slots.lock();
        slots.state[rank] = State::Exited;
        self.detect(&mut slots);
    }

    /// The detector, run on every park and exit: with no rank running and
    /// one parked, freeze the report. Once there is one, every parked rank
    /// is unparked to panic with it.
    fn detect(&self, slots: &mut Slots) {
        if slots.verdict.is_none() {
            let running = slots.state.iter().any(|s| matches!(s, State::Running));
            let parked = slots.state.iter().any(|s| matches!(s, State::Parked(..)));
            if running || !parked {
                return;
            }
            let ranks = (slots.state.iter().zip(self.ranks.iter()))
                .map(|(state, rank)| {
                    let wait = match state {
                        State::Parked(wait, _) => Some(wait.clone()),
                        State::Running | State::Exited => None,
                    };
                    (rank.clock.load(Ordering::Acquire), wait)
                })
                .collect();
            slots.verdict = Some(Arc::new(Deadlock { ranks }));
            self.deadlocked.store(true, Ordering::Release);
        }
        for (state, rank) in slots.state.iter().zip(self.ranks.iter()) {
            if let State::Parked(_, thread) = state {
                if rank.parked.swap(false, Ordering::AcqRel) {
                    thread.unpark();
                }
            }
        }
    }

    /// Sleep until `rank` is woken (`None`) or the job deadlocks.
    fn sleep(&self, rank: usize) -> Option<Arc<Deadlock>> {
        // A spurious return, or an unpark token left by an earlier wake,
        // just goes round the loop again.
        while self.ranks[rank].parked.load(Ordering::Acquire) {
            std::thread::park();
        }
        if self.deadlocked.load(Ordering::Acquire) {
            return self.slots.lock().verdict.clone();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A resource for the tests: a flag and its waiters.
    #[derive(Default)]
    struct Gate {
        open: bool,
        waiters: Waiters,
    }

    fn wait_open(clock: &Clock, gate: &Mutex<Gate>, site: &'static str) {
        let mut g = gate.lock();
        while !g.open {
            clock.park(&mut g, |g| &mut g.waiters, Wait::at(site));
        }
    }

    fn message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast::<String>().map(|s| *s).unwrap_or_default()
    }

    #[test]
    fn a_woken_rank_returns_and_nothing_is_reported() {
        let job = Job::new(2);
        let gate = Mutex::new(Gate::default());
        std::thread::scope(|s| {
            let waiter = job.seat(1);
            s.spawn(|| {
                let seat = waiter;
                wait_open(seat.clock(), &gate, "gate");
            });
            let _opener = job.seat(0);
            while job.parked_at(1).is_none() {
                std::thread::yield_now();
            }
            assert_eq!(job.parked_at(1), Some("gate"));
            let mut woken = Wakeup::default();
            let mut g = gate.lock();
            g.open = true;
            g.waiters.wake_all(&mut woken);
        });
        assert!(job.deadlock().is_none());
    }

    #[test]
    fn a_lone_clock_that_parks_reports_at_once() {
        let clock = Clock::new();
        clock.advance(7);
        let gate = Mutex::new(Gate::default());
        let err = catch_unwind(AssertUnwindSafe(|| wait_open(&clock, &gate, "gate")))
            .expect_err("nobody can open the gate");
        assert_eq!(
            message(err),
            "deadlock: no rank of the job can move\n  rank 0 at 7 vns: parked in gate"
        );
    }

    #[test]
    fn an_exit_while_a_partner_waits_reports_both() {
        let job = Job::new(2);
        let gate = Mutex::new(Gate::default());
        let err = std::thread::scope(|s| {
            let waiter = job.seat(0);
            let h = s.spawn(|| {
                let seat = waiter;
                wait_open(seat.clock(), &gate, "gate");
            });
            let leaver = job.seat(1);
            leaver.clock().advance(5);
            while job.parked_at(0).is_none() {
                std::thread::yield_now();
            }
            drop(leaver);
            h.join().expect_err("rank 0 is woken by the report")
        });
        let report = job.deadlock().expect("detected");
        assert!(report.parked(0) && !report.parked(1));
        assert_eq!(message(err), report.to_string());
        assert_eq!(
            report.to_string(),
            "deadlock: no rank of the job can move\n  rank 0 at 0 vns: parked in gate\n  \
             rank 1 at 5 vns: exited"
        );
    }

    #[test]
    fn a_lock_wait_lists_its_locks_and_caps_them() {
        let mut wait = Wait::on("lock admission wait", &Arc::from("a"));
        wait.holds(3);
        for id in 0..6 {
            wait.behind(id, 1);
        }
        assert_eq!(
            wait.to_string(),
            "lock admission wait on a; holds lock 3; behind lock 0 (rank 1), lock 1 (rank 1), \
             lock 2 (rank 1), lock 3 (rank 1) and 2 more"
        );
    }
}
