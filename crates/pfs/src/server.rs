// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use atomio_check::{assert_may_wait, OrderedMutex};
use atomio_interval::ByteRange;
use atomio_trace::{Category, Tracer, Track};
use atomio_vtime::{Clock, Horizon, ServeCost, VNanos, Wait, Waiters, Wakeup};
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::FsError;
use crate::fault::{FaultAction, FaultInjector, FaultPlan, FaultSite, RestartPolicy};
use crate::lockclass;
use crate::stats::FsLatency;

/// What a server request does with the bytes — the label on its trace span
/// ("read service" vs "write service"). The cost model is symmetric, so
/// this only matters to observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOp {
    Read,
    Write,
}

impl ServerOp {
    fn span_name(self) -> &'static str {
        match self {
            ServerOp::Read => "read service",
            ServerOp::Write => "write service",
        }
    }
}

/// One server's availability. Fault-free servers never leave `Up` (and the
/// health lock is skipped entirely when no fault plan is active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Up,
    /// Crashed; each rejected request decrements a `Rejections` restart
    /// countdown (a `Manual` policy waits for an explicit restart).
    Down {
        restart: RestartPolicy,
        seen: u32,
    },
    /// Restart triggered: exactly one client (whoever is handed the server
    /// by [`ServerSet::take_recovery_due`]) runs journal replay and then
    /// marks the server up. Requests addressed to it meanwhile wait for
    /// that (`ServerSet::try_access`), so no reader can slip in between
    /// restart and replay.
    Recovering,
}

/// Every server's availability, and the ranks waiting for one to recover.
#[derive(Debug)]
struct Availability {
    health: Vec<Health>,
    /// Ranks parked on a `Recovering` server; [`ServerSet::mark_up`] wakes
    /// them.
    parked: Waiters,
}

/// The recovering-server wait's site, in lock-order panics and deadlock
/// reports.
pub(crate) const RECOVERING: &str = "recovering-server wait";

/// The file system's I/O servers in virtual time.
///
/// A file is striped round-robin over `n` servers in `stripe_unit` blocks.
/// Each server is a serially-shared resource ([`Horizon`]): a request that
/// arrives at `t` starts at `max(t, busy_until)` and costs
/// `per_op + bytes/bandwidth`. One client access spanning several stripe
/// units becomes one request per touched server, and completes when the
/// slowest of them does — which is what makes aggregate bandwidth scale
/// with the number of servers until they saturate.
///
/// Two scheduling interfaces:
/// * [`ServerSet::access`] — immediate (closed-loop): schedules on the
///   horizons right away, in real-thread arrival order. Used for
///   synchronous RPC-style I/O where the caller blocks per request (the
///   locking strategy, independent I/O, cache fills).
/// * `ServerSet::submit` / `ServerSet::settle_through` — deferred
///   (open-loop): concurrent writers deposit requests with *virtual*
///   arrival stamps and an **epoch**; `settle_through(e)` sorts the pending
///   requests of epochs `<= e` by `(arrival, client, seq)` and replays them
///   through the horizons, leaving later epochs where they are. The epoch
///   contract: a caller may settle through `e` once it knows every
///   submitter has deposited all of its epochs `<= e` — a barrier proves
///   that, and so does any collective the submitters enter *after*
///   submitting (the two-phase round loop uses the next round's exchange).
///   Submitters that have already moved on to epoch `e + 1` cannot disturb
///   the replay: their requests are filtered out, so the replayed set, and
///   with it every horizon and completion time, is a function of the
///   program and not of real thread scheduling — this is what keeps the
///   Figure 8 reproduction deterministic. A
///   deferred request is one row of an **extent** and carries where that
///   extent starts; the extent is priced as the one request an immediate
///   access of it would be: each server pays the extent's `per_op` on the
///   first row that reaches it and only the bytes of every later row. Batch
///   writers ([`PosixFile::submit_writes`](crate::PosixFile::submit_writes))
///   cut their extents at stripe-row boundaries (`stripe_unit × n`), so a
///   long extent reaches the servers row by row as it is injected instead
///   of all at once when its last byte has left the client.
#[derive(Debug)]
pub struct ServerSet {
    horizons: Vec<Horizon>,
    serve: ServeCost,
    stripe_unit: u64,
    /// Per-server availability; all `Up` (and never locked) without an
    /// active fault plan.
    health: OrderedMutex<Availability>,
    /// Servers whose restart countdown just completed, awaiting recovery
    /// by the client that observed it.
    recovery_due: OrderedMutex<Vec<usize>>,
    /// Fault schedule consulted on every request; inert by default.
    faults: Arc<FaultInjector>,
    pending: OrderedMutex<Pending>,
    /// Per-(request, server) sojourn times land in
    /// [`FsLatency::server_service`]; the owning
    /// [`FileSystem`](crate::FileSystem) holds a clone of the same `Arc`.
    latency: Arc<FsLatency>,
    /// Emits one `Category::Server` span per (request, server) piece on the
    /// server's own track; bound by
    /// [`FileSystem::bind_tracer`](crate::FileSystem::bind_tracer).
    tracer: Tracer,
}

#[derive(Debug, Default)]
struct Pending {
    reqs: Vec<PendingReq>,
    done: HashMap<u64, VNanos>,
    next_ticket: u64,
}

#[derive(Debug)]
struct PendingReq {
    epoch: u64,
    ticket: u64,
    client: usize,
    seq: u64,
    arrival: VNanos,
    range: ByteRange,
    /// Where the extent this request is a row of starts: the servers that
    /// `extent_start..range.start` touches have had the extent's `per_op`.
    extent_start: u64,
}

impl ServerSet {
    pub fn new(n: usize, serve: ServeCost, stripe_unit: u64) -> Self {
        assert!(n > 0, "need at least one I/O server");
        assert!(stripe_unit > 0, "stripe unit must be positive");
        ServerSet {
            horizons: (0..n).map(|_| Horizon::new()).collect(),
            serve,
            stripe_unit,
            health: lockclass::server_health(Availability {
                health: vec![Health::Up; n],
                parked: Waiters::default(),
            }),
            recovery_due: lockclass::server_recovery(Vec::new()),
            faults: Arc::new(FaultInjector::new(FaultPlan::none())),
            pending: lockclass::server_pending(Pending::default()),
            latency: Arc::new(FsLatency::default()),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach the file system's fault injector (called once at
    /// construction, before the set is shared).
    pub(crate) fn bind_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = faults;
    }

    /// The latency histograms this server set records into.
    pub fn latency(&self) -> &Arc<FsLatency> {
        &self.latency
    }

    /// The tracer server-service spans are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Serve one `(server, bytes)` piece of a request whose extent already
    /// put `prior` bytes on this server (0 for a request of its own):
    /// schedule it on the server's horizon, record its sojourn (queueing +
    /// service) in the service-time histogram, and emit its span on the
    /// server's track. The extent pays `per_op` with its first piece here;
    /// a later piece pays what its bytes add to the extent's service time.
    fn serve_piece(
        &self,
        server: usize,
        prior: u64,
        bytes: u64,
        arrival: VNanos,
        op: ServerOp,
    ) -> VNanos {
        let dur = match prior {
            0 => self.serve.service_ns(bytes),
            _ => self.serve.service_ns(prior + bytes) - self.serve.service_ns(prior),
        };
        let (start, end) = self.horizons[server].serve(arrival, dur);
        self.latency
            .server_service
            .record(end.saturating_sub(arrival));
        self.tracer.span_on(
            Track::Server(server),
            Category::Server,
            op.span_name(),
            start,
            end,
            &[("bytes", bytes)],
        );
        end
    }

    /// Deposit a batch of requests with virtual arrival stamps under
    /// `epoch`; returns a ticket to redeem once a
    /// `ServerSet::settle_through` has covered that epoch. A request is
    /// `(arrival, range, extent_start)`: the row `range` of the extent that
    /// starts at `extent_start` (`range.start` for a request of its own; see
    /// the type docs). An empty batch's completion is time zero.
    pub(crate) fn submit(
        &self,
        client: usize,
        epoch: u64,
        reqs: Vec<(VNanos, ByteRange, u64)>,
    ) -> u64 {
        let mut p = self.pending.lock();
        let ticket = p.next_ticket;
        p.next_ticket += 1;
        if reqs.is_empty() {
            p.done.insert(ticket, 0);
        } else {
            for (seq, (arrival, range, extent_start)) in reqs.into_iter().enumerate() {
                p.reqs.push(PendingReq {
                    epoch,
                    ticket,
                    client,
                    seq: seq as u64,
                    arrival,
                    range,
                    extent_start,
                });
            }
        }
        ticket
    }

    /// Replay the pending requests of epochs `<= epoch` in `(arrival,
    /// client, seq)` order; later epochs stay pending and their tickets
    /// unsettled. Callers must know that every submitter has deposited all
    /// of its epochs `<= epoch` (see the type docs); the call is idempotent
    /// and thread-safe — of several concurrent callers the first replays,
    /// the rest find nothing left at or below `epoch`.
    pub(crate) fn settle_through(&self, epoch: u64) {
        let mut p = self.pending.lock();
        // Due requests first, in replay order; what is left stays pending.
        let mut due = std::mem::take(&mut p.reqs);
        due.sort_by_key(|r| (r.epoch > epoch, r.arrival, r.client, r.seq));
        p.reqs = due.split_off(due.partition_point(|r| r.epoch <= epoch));
        for r in due {
            let mut done = r.arrival;
            let opened = ByteRange::new(r.extent_start, r.range.start);
            for (server, bytes) in self.split(r.range) {
                let prior = self.bytes_on(opened, server);
                // Deferred requests are the two-phase write path's: writes.
                let end = self.serve_piece(server, prior, bytes, r.arrival, ServerOp::Write);
                done = done.max(end);
            }
            let slot = p.done.entry(r.ticket).or_insert(0);
            *slot = (*slot).max(done);
        }
    }

    /// Completion time of a settled ticket (consumes it).
    #[expect(
        clippy::expect_used,
        reason = "API-contract assertion: redeeming a ticket before a `settle_through` \
                  covered its epoch is a caller bug. `settle_through` has no fault site \
                  and fault-injected runs never deposit a batch (the two-phase write goes \
                  synchronous), so no injected fault can reach it; a should_panic test \
                  pins the message"
    )]
    pub(crate) fn take_completion(&self, ticket: u64) -> VNanos {
        self.pending
            .lock()
            .done
            .remove(&ticket)
            .expect("ticket not settled — settle through its epoch after all submissions")
    }

    pub fn server_count(&self) -> usize {
        self.horizons.len()
    }

    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Which server owns the stripe unit containing `offset`.
    pub(crate) fn server_of(&self, offset: u64) -> usize {
        ((offset / self.stripe_unit) % self.horizons.len() as u64) as usize
    }

    /// How many per-server requests one contiguous access over `range`
    /// generates (after same-server stripe-unit merging) — the unit the
    /// `server_*_requests` client counters are charged in.
    pub(crate) fn requests_for(&self, range: ByteRange) -> u64 {
        self.split(range).count() as u64
    }

    /// Schedule one contiguous access arriving at `arrival`; returns its
    /// completion time (max over the per-server pieces). This is the *raw*
    /// path: it ignores server health. Its callers are the fault-free RPC
    /// path (and `ServerSet::try_access` without an active fault plan),
    /// the revocation flush, which must not hold an acquirer's grant
    /// behind a retry loop, and write-behind flushes on a fault-free file
    /// system. Fault-aware request paths use `ServerSet::try_access`.
    pub fn access(&self, arrival: VNanos, range: ByteRange, op: ServerOp) -> VNanos {
        if range.is_empty() {
            return arrival;
        }
        let mut done = arrival;
        for (server, bytes) in self.split(range) {
            done = done.max(self.serve_piece(server, 0, bytes, arrival, op));
        }
        done
    }

    /// [`ServerSet::access`] with the fault model in the loop: consults the
    /// injector (a scheduled [`FaultAction::CrashServer`] fires here) and
    /// rejects the whole request if any touched server is down — no
    /// partial service; the request either lands on every server or pays a
    /// retry. Without an active fault plan this is exactly `access` plus
    /// one branch. `clock` is the caller's: it parks the rank while a
    /// server it addresses is being recovered.
    pub(crate) fn try_access(
        &self,
        clock: &Clock,
        arrival: VNanos,
        range: ByteRange,
        op: ServerOp,
    ) -> Result<VNanos, FsError> {
        if range.is_empty() {
            return Ok(arrival);
        }
        if self.faults.active() {
            let pieces: Vec<(usize, u64)> = self.split(range).collect();
            let mut avail = self.health.lock();
            // A server someone else is recovering comes back as soon as
            // that thread finishes its replay — in *host* time, while
            // retry backoff is virtual. Rejecting here would let this
            // client spin its whole retry budget away in the microseconds
            // the recovering thread happens to be descheduled, so wait
            // for `mark_up` instead. (The recovering thread never comes
            // through here for a server it owns: it goes from
            // `take_recovery_due` straight to replay and `mark_up`.)
            assert_may_wait(RECOVERING, lockclass::RECOVERY_WAIT);
            while pieces
                .iter()
                .any(|&(server, _)| avail.health[server] == Health::Recovering)
            {
                clock.park(avail.raw(), |a| &mut a.parked, Wait::at(RECOVERING));
            }
            for &(server, _) in &pieces {
                if let Some(FaultAction::CrashServer { restart }) =
                    self.faults.check(FaultSite::ServerRequest { server })
                {
                    if avail.health[server] == Health::Up {
                        avail.health[server] = Health::Down { restart, seen: 0 };
                        self.faults
                            .stats()
                            .add(&self.faults.stats().server_crashes, 1);
                    }
                }
            }
            // A rejected request is *seen by every down server it
            // addressed*: each one's restart countdown advances, so a
            // request straddling two crashed servers recovers them in
            // parallel instead of serially burning one retry budget per
            // server. The error names the first unavailable server.
            let mut unavailable = None;
            for &(server, _) in &pieces {
                match avail.health[server] {
                    Health::Up => {}
                    Health::Down { restart, seen } => {
                        self.faults.stats().add(&self.faults.stats().rejections, 1);
                        if let RestartPolicy::Rejections(n) = restart {
                            if seen + 1 >= n {
                                // Countdown complete: this client owns the
                                // recovery (it will find the server in
                                // `take_recovery_due`).
                                avail.health[server] = Health::Recovering;
                                self.recovery_due.lock().push(server);
                            } else {
                                avail.health[server] = Health::Down {
                                    restart,
                                    seen: seen + 1,
                                };
                            }
                        }
                        unavailable.get_or_insert(server);
                    }
                    Health::Recovering => {
                        unreachable!("waited out above, and `pieces` names each server once")
                    }
                }
            }
            if let Some(server) = unavailable {
                return Err(FsError::ServerUnavailable { server });
            }
            drop(avail);
            let mut done = arrival;
            for (server, bytes) in pieces {
                done = done.max(self.serve_piece(server, 0, bytes, arrival, op));
            }
            return Ok(done);
        }
        Ok(self.access(arrival, range, op))
    }

    /// Crash `server` by fiat (benches and tests; plan-driven crashes fire
    /// inside `ServerSet::try_access`).
    pub(crate) fn crash(&self, server: usize, restart: RestartPolicy) {
        let mut avail = self.health.lock();
        if avail.health[server] == Health::Up {
            avail.health[server] = Health::Down { restart, seen: 0 };
            self.faults
                .stats()
                .add(&self.faults.stats().server_crashes, 1);
        }
    }

    /// Whether `server` currently rejects requests.
    pub(crate) fn is_down(&self, server: usize) -> bool {
        self.health.lock().health[server] != Health::Up
    }

    /// Servers whose restart countdown completed on this caller's last
    /// rejection; the caller must replay the journals and `mark_up` each.
    pub(crate) fn take_recovery_due(&self) -> Vec<usize> {
        std::mem::take(&mut *self.recovery_due.lock())
    }

    /// Recovery finished: the server serves again.
    pub(crate) fn mark_up(&self, server: usize) {
        let mut woken = Wakeup::default();
        let mut avail = self.health.lock();
        avail.health[server] = Health::Up;
        avail.parked.wake_all(&mut woken);
    }

    /// Decompose a contiguous range into `(server, bytes)` pieces, ascending
    /// by server, merging the stripe units that land on the same server.
    fn split(&self, range: ByteRange) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.horizons.len()).filter_map(move |server| {
            let bytes = self.bytes_on(range, server);
            (bytes > 0).then_some((server, bytes))
        })
    }

    /// The bytes of `range` that land on `server`, from the range's first
    /// and last stripe unit: the server's whole units in between, less the
    /// head of the first unit and the tail of the last when it owns them.
    fn bytes_on(&self, range: ByteRange, server: usize) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let (n, su, server) = (self.horizons.len() as u64, self.stripe_unit, server as u64);
        let (first, last) = (range.start / su, (range.end - 1) / su);
        // `server` owns every `n`th unit of `first..=last`, from the
        // `(server - first) mod n`th on.
        let owned = (last + 1 - first)
            .saturating_sub((server + n - first % n) % n)
            .div_ceil(n);
        if owned == 0 {
            return 0;
        }
        let head = if first % n == server {
            range.start - first * su
        } else {
            0
        };
        let tail = if last % n == server {
            (last + 1) * su - range.end
        } else {
            0
        };
        owned * su - head - tail
    }

    /// Reset all horizons to idle (between benchmark repetitions). Health
    /// is restored too — repetitions start with every server up.
    pub fn reset(&self) {
        for h in &self.horizons {
            h.reset();
        }
        let mut woken = Wakeup::default();
        let mut avail = self.health.lock();
        avail.health.fill(Health::Up);
        avail.parked.wake_all(&mut woken);
        drop(avail);
        drop(woken);
        self.recovery_due.lock().clear();
        let mut p = self.pending.lock();
        assert!(p.reqs.is_empty(), "reset with unsettled requests");
        p.done.clear();
    }

    /// Deferred requests deposited and not yet replayed (diagnostics): zero
    /// between collective writes.
    pub fn pending_requests(&self) -> usize {
        self.pending.lock().reqs.len()
    }

    /// Sum of all servers' busy-until times (diagnostics).
    pub fn total_busy(&self) -> VNanos {
        self.horizons.iter().map(Horizon::busy_until).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ServerSet {
        /// Move a manually-crashed (or recovering) server toward recovery:
        /// marks it `Recovering` and returns `true` if the caller now owns the
        /// recovery (journal replay + [`ServerSet::mark_up`]).
        pub(crate) fn begin_recovery(&self, server: usize) -> bool {
            let mut avail = self.health.lock();
            match avail.health[server] {
                Health::Up | Health::Recovering => false,
                Health::Down { .. } => {
                    avail.health[server] = Health::Recovering;
                    true
                }
            }
        }
    }

    fn set() -> ServerSet {
        // 4 servers, 1 KiB stripes, 1 us/op + 1 GB/s.
        ServerSet::new(4, ServeCost::new(1_000, 1.0e9), 1024)
    }

    /// A class the recovering-server wait does not allow, held into a
    /// request for a server another client is recovering, panics before
    /// the wait, naming the class, where it was locked and the wait.
    #[test]
    #[cfg(debug_assertions)]
    fn guard_held_across_a_recovering_server_wait_panics() {
        let mut s = set();
        let never = FaultAction::CrashServer {
            restart: RestartPolicy::Manual,
        };
        let plan = FaultPlan::none().with(FaultSite::ServerRequest { server: 3 }, 1_000, never);
        s.bind_faults(Arc::new(FaultInjector::new(plan)));
        s.crash(0, RestartPolicy::Manual);
        assert!(s.begin_recovery(0));
        let err = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let pending = lockclass::server_pending(());
                    let _g = pending.lock();
                    s.try_access(&Clock::new(), 0, ByteRange::at(0, 64), ServerOp::Read)
                })
                .join()
                .expect_err("must panic instead of waiting under another mutex")
        });
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("pfs.server_pending (locked at crates/pfs/src/server.rs"),
            "{msg}"
        );
        assert!(msg.contains("recovering-server wait"), "{msg}");
        s.mark_up(0);
    }

    /// The stripe-unit walk `split` replaces: one step per touched unit,
    /// its bytes added to the unit's server.
    fn split_by_walk(s: &ServerSet, range: ByteRange) -> Vec<(usize, u64)> {
        let mut per_server = vec![0u64; s.server_count()];
        let mut off = range.start;
        while off < range.end {
            let unit_end = (off / s.stripe_unit() + 1) * s.stripe_unit();
            let take = unit_end.min(range.end) - off;
            per_server[s.server_of(off)] += take;
            off += take;
        }
        per_server
            .into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn split_matches_the_stripe_unit_walk(
            su in 1u64..5_000,
            n in 1usize..=16,
            shape in 0u8..4,
            unit in 0u64..1_000,
            x in 0u64..1 << 20,
            y in 0u64..1 << 20,
        ) {
            let s = ServerSet::new(n, ServeCost::new(1_000, 1.0e9), su);
            let start = unit * su + x % su;
            let end = match shape {
                // Empty.
                0 => start,
                // Inside the start's unit.
                1 => start + 1 + y % ((unit + 1) * su - start),
                // On a unit boundary, up to three rows on.
                2 => (unit + 1 + y % (3 * n as u64)) * su,
                // Many rows, ending anywhere in a unit.
                _ => start + su * n as u64 * (2 + y % 8) + y % su,
            };
            let range = ByteRange::new(start, end);
            let pieces: Vec<(usize, u64)> = s.split(range).collect();
            proptest::prop_assert_eq!(&pieces, &split_by_walk(&s, range), "{:?}", range);
            proptest::prop_assert_eq!(s.requests_for(range), pieces.len() as u64);
        }
    }

    #[test]
    fn round_robin_striping() {
        let s = set();
        assert_eq!(s.server_of(0), 0);
        assert_eq!(s.server_of(1023), 0);
        assert_eq!(s.server_of(1024), 1);
        assert_eq!(s.server_of(4096), 0);
    }

    #[test]
    fn small_access_hits_one_server() {
        let s = set();
        let t = s.access(0, ByteRange::at(100, 512), ServerOp::Read);
        // 1 us op + 512 ns transfer.
        assert_eq!(t, 1_000 + 512);
        // Other servers untouched.
        assert_eq!(s.total_busy(), t);
    }

    #[test]
    fn striped_access_parallelizes() {
        let s = set();
        // 4 KiB spanning all 4 servers: each does 1 KiB in parallel, so the
        // access completes in one server's service time, not four.
        let t = s.access(0, ByteRange::at(0, 4096), ServerOp::Write);
        assert_eq!(t, 1_000 + 1024);

        // The same 4 KiB repeatedly hitting one stripe unit serializes.
        let s2 = set();
        let mut done = 0;
        for _ in 0..4 {
            done = s2.access(done, ByteRange::at(0, 1024), ServerOp::Write);
        }
        assert_eq!(done, 4 * (1_000 + 1024));
        assert!(t < done);
    }

    #[test]
    fn same_server_queueing_accumulates() {
        let s = set();
        // Two simultaneous 1 KiB accesses to the same stripe unit.
        let t1 = s.access(0, ByteRange::at(0, 1024), ServerOp::Write);
        let t2 = s.access(0, ByteRange::at(0, 1024), ServerOp::Write);
        assert_eq!(t1, 1_000 + 1024);
        assert_eq!(t2, 2 * (1_000 + 1024));
    }

    #[test]
    fn wrap_around_merges_per_server() {
        let s = set();
        // 8 KiB = two full rounds: each server gets 2 KiB as ONE request
        // (per-op overhead charged once).
        let t = s.access(0, ByteRange::at(0, 8192), ServerOp::Write);
        assert_eq!(t, 1_000 + 2048);
    }

    #[test]
    fn empty_access_is_free() {
        let s = set();
        assert_eq!(s.access(77, ByteRange::at(10, 0), ServerOp::Read), 77);
        assert_eq!(s.total_busy(), 0);
    }

    #[test]
    fn reset_clears_horizons() {
        let s = set();
        s.access(0, ByteRange::at(0, 4096), ServerOp::Write);
        s.reset();
        assert_eq!(s.total_busy(), 0);
    }

    /// A deferred request that is an extent of its own.
    fn own(arrival: VNanos, range: ByteRange) -> (VNanos, ByteRange, u64) {
        (arrival, range, range.start)
    }

    #[test]
    fn deferred_requests_replay_in_arrival_order() {
        // Submit out of order in real time; settle sorts by virtual arrival.
        let s = set();
        let late = s.submit(1, 0, vec![own(1_000, ByteRange::at(0, 512))]);
        let early = s.submit(0, 0, vec![own(0, ByteRange::at(0, 512))]);
        s.settle_through(u64::MAX);
        let t_early = s.take_completion(early);
        let t_late = s.take_completion(late);
        // Early request served first: 1us op + 512ns.
        assert_eq!(t_early, 1_000 + 512);
        // Late request arrives at 1000 < horizon 1512 -> queues behind.
        assert_eq!(t_late, 1_512 + 1_000 + 512);
    }

    #[test]
    fn deferred_outcome_independent_of_submit_order() {
        let batch_a = vec![
            own(0u64, ByteRange::at(0, 512)),
            own(100, ByteRange::at(0, 512)),
        ];
        let batch_b = vec![
            own(0u64, ByteRange::at(0, 512)),
            own(150, ByteRange::at(0, 512)),
        ];

        let s1 = set();
        let a1 = s1.submit(0, 0, batch_a.clone());
        let b1 = s1.submit(1, 0, batch_b.clone());
        s1.settle_through(u64::MAX);
        let (ca1, cb1) = (s1.take_completion(a1), s1.take_completion(b1));

        let s2 = set();
        let b2 = s2.submit(1, 0, batch_b);
        let a2 = s2.submit(0, 0, batch_a);
        s2.settle_through(u64::MAX);
        let (ca2, cb2) = (s2.take_completion(a2), s2.take_completion(b2));

        assert_eq!(
            (ca1, cb1),
            (ca2, cb2),
            "settle must erase real submission order"
        );
    }

    #[test]
    fn equal_arrivals_tiebreak_by_client_then_seq() {
        let s = set();
        let a = s.submit(1, 0, vec![own(0, ByteRange::at(0, 1024))]);
        let b = s.submit(0, 0, vec![own(0, ByteRange::at(0, 1024))]);
        s.settle_through(u64::MAX);
        // Client 0 wins the tiebreak even though it submitted second.
        assert_eq!(s.take_completion(b), 1_000 + 1024);
        assert_eq!(s.take_completion(a), 2 * (1_000 + 1024));
    }

    #[test]
    fn rows_of_one_extent_pay_each_server_one_per_op() {
        // Two rows of one extent: every server pays the extent's `per_op`
        // with the first row and only the bytes of the second.
        let s = set();
        let rows = vec![
            (0, ByteRange::at(0, 4096), 0),
            (5_000, ByteRange::at(4096, 4096), 0),
        ];
        let t = s.submit(0, 0, rows);
        s.settle_through(u64::MAX);
        assert_eq!(s.take_completion(t), 5_000 + 1024);
        // The same ranges as two extents, adjacent or not in one batch: the
        // second pays again.
        let s = set();
        let first = s.submit(0, 0, vec![own(0, ByteRange::at(0, 4096))]);
        let second = s.submit(0, 0, vec![own(5_000, ByteRange::at(4096, 4096))]);
        s.settle_through(u64::MAX);
        assert_eq!(s.take_completion(first), 1_000 + 1024);
        assert_eq!(s.take_completion(second), 5_000 + 1_000 + 1024);
        let s = set();
        let both = vec![
            own(0, ByteRange::at(0, 4096)),
            own(5_000, ByteRange::at(4096, 4096)),
        ];
        let t = s.submit(0, 0, both);
        s.settle_through(u64::MAX);
        assert_eq!(s.take_completion(t), 5_000 + 1_000 + 1024);
        // Streamed by row or sent whole, an extent costs each server what
        // one immediate access of it does, rounding included (a third of a
        // nanosecond per byte).
        let odd = || ServerSet::new(4, ServeCost::new(1_000, 3.0e9), 1024);
        let streamed = odd();
        let rows = (0..3)
            .map(|r| (0, ByteRange::at(r * 4096, 4096), 0))
            .collect();
        let t = streamed.submit(0, 0, rows);
        streamed.settle_through(u64::MAX);
        let whole = odd();
        let done = whole.access(0, ByteRange::at(0, 3 * 4096), ServerOp::Write);
        assert_eq!(streamed.take_completion(t), done);
        assert_eq!(streamed.total_busy(), whole.total_busy());
    }

    #[test]
    fn empty_batch_settles_to_zero() {
        let s = set();
        let t = s.submit(0, 0, vec![]);
        s.settle_through(u64::MAX);
        assert_eq!(s.take_completion(t), 0);
    }

    #[test]
    fn settle_is_idempotent() {
        let s = set();
        let t = s.submit(0, 0, vec![own(5, ByteRange::at(0, 100))]);
        s.settle_through(u64::MAX);
        s.settle_through(u64::MAX);
        assert_eq!(s.take_completion(t), 5 + 1_000 + 100);
    }

    #[test]
    #[should_panic(expected = "not settled")]
    fn unsettled_ticket_panics() {
        let s = set();
        let t = s.submit(0, 0, vec![own(0, ByteRange::at(0, 10))]);
        let _ = s.take_completion(t);
    }
    #[test]
    fn settle_through_leaves_later_epochs_pending() {
        let s = set();
        let first = s.submit(0, 0, vec![own(0, ByteRange::at(0, 512))]);
        let second = s.submit(1, 1, vec![own(10, ByteRange::at(0, 512))]);
        s.settle_through(0);
        assert_eq!(s.pending_requests(), 1, "epoch 1 must stay deposited");
        assert_eq!(s.take_completion(first), 1_000 + 512);
        assert_eq!(s.total_busy(), 1_512, "epoch 1 must not be on a horizon");
        // The later ticket is unsettled: redeeming it is the contract
        // violation `unsettled_ticket_panics` pins.
        let early =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.take_completion(second)));
        assert!(early.is_err(), "epoch 1's ticket must not be settled yet");
        s.settle_through(1);
        assert_eq!(s.pending_requests(), 0);
        assert_eq!(s.take_completion(second), 1_512 + 1_000 + 512);
    }

    /// One `submit` call: `(client, epoch, requests)`.
    type Batch = (usize, u64, Vec<(VNanos, ByteRange, u64)>);

    /// Four clients, three epochs each, all on one server so that every
    /// ordering mistake shows in a completion time. An earlier epoch may
    /// carry a *later* arrival than the next one (client 3's NIC runs
    /// behind): replay is epoch-major, arrival-ordered inside the call.
    fn epoch_batches() -> Vec<Batch> {
        let mut out = Vec::new();
        for client in 0..4usize {
            for epoch in 0..3u64 {
                let lag = if client == 3 { 2_500 } else { 0 };
                let at = epoch * 2_000 + client as u64 * 100 + lag;
                out.push((
                    client,
                    epoch,
                    vec![
                        own(at, ByteRange::at(0, 256)),
                        own(at + 50, ByteRange::at(4096, 256)),
                    ],
                ));
            }
        }
        out
    }

    /// Deposit the batches in `order`, let `settle` replay them all;
    /// returns every ticket's completion (in `epoch_batches` order) and the
    /// summed horizons.
    fn replay(order: &[usize], settle: impl Fn(&ServerSet)) -> (Vec<VNanos>, VNanos) {
        let s = set();
        let batches = epoch_batches();
        let mut tickets = vec![0u64; batches.len()];
        for &i in order {
            let (client, epoch, reqs) = batches[i].clone();
            tickets[i] = s.submit(client, epoch, reqs);
        }
        settle(&s);
        assert_eq!(s.pending_requests(), 0);
        let done = tickets.iter().map(|&t| s.take_completion(t)).collect();
        (done, s.total_busy())
    }

    /// Settle epoch by epoch, `threads` concurrent callers each.
    fn by_epoch(threads: usize) -> impl Fn(&ServerSet) {
        move |s| {
            for epoch in 0..3u64 {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| s.settle_through(epoch));
                    }
                });
            }
        }
    }

    #[test]
    fn epoch_replay_is_independent_of_submit_order_and_settling_threads() {
        let n = epoch_batches().len();
        let forward: Vec<usize> = (0..n).collect();
        let reference = replay(&forward, by_epoch(1));
        let backward: Vec<usize> = (0..n).rev().collect();
        // Later epochs first, clients interleaved.
        let mut strided: Vec<usize> = (0..n).collect();
        strided.sort_by_key(|&i| (std::cmp::Reverse(i % 3), i % 5, i));
        for order in [&forward, &backward, &strided] {
            for threads in [1, 2, 4] {
                assert_eq!(
                    replay(order, by_epoch(threads)),
                    reference,
                    "order {order:?}, {threads} settling thread(s)"
                );
            }
        }
    }
}
