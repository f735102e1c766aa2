use atomio_check::OrderedMutex;
use atomio_interval::ByteRange;
use atomio_trace::{Category, Tracer, Track};
use atomio_vtime::{Horizon, ServeCost, VNanos};
use parking_lot::Condvar;
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
    /// that ([`ServerSet::try_access`]), so no reader can slip in between
    /// restart and replay.
    Recovering,
}

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
/// * [`ServerSet::submit`] / [`ServerSet::settle_through`] — deferred
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
///   Figure 8 reproduction deterministic. [`ServerSet::settle`] is
///   "through everything", for callers that fence with a barrier. A
///   deferred request is whatever range the submitter stamps: batch writers
///   ([`PosixFile::submit_writes`](crate::PosixFile::submit_writes)) cut
///   their extents at stripe-row boundaries (`stripe_unit × n`), so each
///   request touches every server at most once, pays each its `per_op`,
///   and a long extent reaches the servers row by row as it is injected
///   instead of all at once when its last byte has left the client.
#[derive(Debug)]
pub struct ServerSet {
    horizons: Vec<Horizon>,
    serve: ServeCost,
    stripe_unit: u64,
    /// Per-server availability; all `Up` (and never locked) without an
    /// active fault plan.
    health: OrderedMutex<Vec<Health>>,
    /// Signalled by [`ServerSet::mark_up`]; requests addressed to a
    /// `Recovering` server wait on it.
    recovered: Condvar,
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
}

impl ServerSet {
    pub fn new(n: usize, serve: ServeCost, stripe_unit: u64) -> Self {
        assert!(n > 0, "need at least one I/O server");
        assert!(stripe_unit > 0, "stripe unit must be positive");
        ServerSet {
            horizons: (0..n).map(|_| Horizon::new()).collect(),
            serve,
            stripe_unit,
            health: lockclass::server_health(vec![Health::Up; n]),
            recovered: Condvar::new(),
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

    /// Serve one `(server, bytes)` piece: schedule it on the server's
    /// horizon, record its sojourn (queueing + service) in the
    /// service-time histogram, and emit its span on the server's track.
    fn serve_piece(&self, server: usize, bytes: u64, arrival: VNanos, op: ServerOp) -> VNanos {
        let dur = self.serve.service_ns(bytes);
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
    /// [`ServerSet::settle_through`] has covered that epoch. An empty
    /// batch's completion is time zero.
    pub fn submit(&self, client: usize, epoch: u64, reqs: Vec<(VNanos, ByteRange)>) -> u64 {
        let mut p = self.pending.lock();
        let ticket = p.next_ticket;
        p.next_ticket += 1;
        if reqs.is_empty() {
            p.done.insert(ticket, 0);
        } else {
            for (seq, (arrival, range)) in reqs.into_iter().enumerate() {
                p.reqs.push(PendingReq {
                    epoch,
                    ticket,
                    client,
                    seq: seq as u64,
                    arrival,
                    range,
                });
            }
        }
        ticket
    }

    /// Replay every pending request in `(arrival, client, seq)` order:
    /// [`ServerSet::settle_through`] with no epoch left out.
    pub fn settle(&self) {
        self.settle_through(u64::MAX);
    }

    /// Replay the pending requests of epochs `<= epoch` in `(arrival,
    /// client, seq)` order; later epochs stay pending and their tickets
    /// unsettled. Callers must know that every submitter has deposited all
    /// of its epochs `<= epoch` (see the type docs); the call is idempotent
    /// and thread-safe — of several concurrent callers the first replays,
    /// the rest find nothing left at or below `epoch`.
    pub fn settle_through(&self, epoch: u64) {
        let mut p = self.pending.lock();
        // Due requests first, in replay order; what is left stays pending.
        let mut due = std::mem::take(&mut p.reqs);
        due.sort_by_key(|r| (r.epoch > epoch, r.arrival, r.client, r.seq));
        p.reqs = due.split_off(due.partition_point(|r| r.epoch <= epoch));
        for r in due {
            let mut done = r.arrival;
            for (server, bytes) in self.split(r.range) {
                // Deferred requests are the two-phase write path's: writes.
                done = done.max(self.serve_piece(server, bytes, r.arrival, ServerOp::Write));
            }
            let slot = p.done.entry(r.ticket).or_insert(0);
            *slot = (*slot).max(done);
        }
    }

    /// Completion time of a settled ticket (consumes it).
    pub fn take_completion(&self, ticket: u64) -> VNanos {
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
    pub fn server_of(&self, offset: u64) -> usize {
        ((offset / self.stripe_unit) % self.horizons.len() as u64) as usize
    }

    /// How many per-server requests one contiguous access over `range`
    /// generates (after same-server stripe-unit merging) — the unit the
    /// `server_*_requests` client counters are charged in.
    pub fn requests_for(&self, range: ByteRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        self.split(range).len() as u64
    }

    /// Schedule one contiguous access arriving at `arrival`; returns its
    /// completion time (max over the per-server pieces). This is the *raw*
    /// path: it ignores server health (recovery replay itself, and legacy
    /// callers on fault-free file systems, go through here). Fault-aware
    /// request paths use [`ServerSet::try_access`].
    pub fn access(&self, arrival: VNanos, range: ByteRange, op: ServerOp) -> VNanos {
        if range.is_empty() {
            return arrival;
        }
        let mut done = arrival;
        for (server, bytes) in self.split(range) {
            done = done.max(self.serve_piece(server, bytes, arrival, op));
        }
        done
    }

    /// [`ServerSet::access`] with the fault model in the loop: consults the
    /// injector (a scheduled [`FaultAction::CrashServer`] fires here) and
    /// rejects the whole request if any touched server is down — no
    /// partial service; the request either lands on every server or pays a
    /// retry. Without an active fault plan this is exactly `access` plus
    /// one branch.
    pub fn try_access(
        &self,
        arrival: VNanos,
        range: ByteRange,
        op: ServerOp,
    ) -> Result<VNanos, FsError> {
        if range.is_empty() {
            return Ok(arrival);
        }
        if self.faults.active() {
            let pieces = self.split(range);
            let mut health = self.health.lock();
            // A server someone else is recovering comes back as soon as
            // that thread finishes its replay — in *host* time, while
            // retry backoff is virtual. Rejecting here would let this
            // client spin its whole retry budget away in the microseconds
            // the recovering thread happens to be descheduled, so wait
            // for `mark_up` instead. (The recovering thread never comes
            // through here for a server it owns: it goes from
            // `take_recovery_due` straight to replay and `mark_up`.)
            while pieces
                .iter()
                .any(|&(server, _)| health[server] == Health::Recovering)
            {
                self.recovered.wait(health.raw());
            }
            for &(server, _) in &pieces {
                if let Some(FaultAction::CrashServer { restart }) =
                    self.faults.check(FaultSite::ServerRequest { server })
                {
                    if health[server] == Health::Up {
                        health[server] = Health::Down { restart, seen: 0 };
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
                match health[server] {
                    Health::Up => {}
                    Health::Down { restart, seen } => {
                        self.faults.stats().add(&self.faults.stats().rejections, 1);
                        if let RestartPolicy::Rejections(n) = restart {
                            if seen + 1 >= n {
                                // Countdown complete: this client owns the
                                // recovery (it will find the server in
                                // `take_recovery_due`).
                                health[server] = Health::Recovering;
                                self.recovery_due.lock().push(server);
                            } else {
                                health[server] = Health::Down {
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
            drop(health);
            let mut done = arrival;
            for (server, bytes) in pieces {
                done = done.max(self.serve_piece(server, bytes, arrival, op));
            }
            return Ok(done);
        }
        Ok(self.access(arrival, range, op))
    }

    /// Crash `server` by fiat (benches and tests; plan-driven crashes fire
    /// inside [`ServerSet::try_access`]).
    pub fn crash(&self, server: usize, restart: RestartPolicy) {
        let mut health = self.health.lock();
        if health[server] == Health::Up {
            health[server] = Health::Down { restart, seen: 0 };
            self.faults
                .stats()
                .add(&self.faults.stats().server_crashes, 1);
        }
    }

    /// Whether `server` currently rejects requests.
    pub fn is_down(&self, server: usize) -> bool {
        self.health.lock()[server] != Health::Up
    }

    /// Move a manually-crashed (or recovering) server toward recovery:
    /// marks it `Recovering` and returns `true` if the caller now owns the
    /// recovery (journal replay + [`ServerSet::mark_up`]).
    pub(crate) fn begin_recovery(&self, server: usize) -> bool {
        let mut health = self.health.lock();
        match health[server] {
            Health::Up | Health::Recovering => false,
            Health::Down { .. } => {
                health[server] = Health::Recovering;
                true
            }
        }
    }

    /// Servers whose restart countdown completed on this caller's last
    /// rejection; the caller must replay the journals and `mark_up` each.
    pub(crate) fn take_recovery_due(&self) -> Vec<usize> {
        std::mem::take(&mut *self.recovery_due.lock())
    }

    /// Recovery finished: the server serves again.
    pub(crate) fn mark_up(&self, server: usize) {
        self.health.lock()[server] = Health::Up;
        self.recovered.notify_all();
    }

    /// Decompose a contiguous range into `(server, bytes)` pieces, merging
    /// consecutive stripe units that land on the same server.
    fn split(&self, range: ByteRange) -> Vec<(usize, u64)> {
        let n = self.horizons.len();
        let mut per_server = vec![0u64; n];
        let mut off = range.start;
        while off < range.end {
            let unit_end = (off / self.stripe_unit + 1) * self.stripe_unit;
            let take = unit_end.min(range.end) - off;
            per_server[self.server_of(off)] += take;
            off += take;
        }
        per_server
            .into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .collect()
    }

    /// Reset all horizons to idle (between benchmark repetitions). Health
    /// is restored too — repetitions start with every server up.
    pub fn reset(&self) {
        for h in &self.horizons {
            h.reset();
        }
        self.health.lock().fill(Health::Up);
        self.recovered.notify_all();
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

    fn set() -> ServerSet {
        // 4 servers, 1 KiB stripes, 1 us/op + 1 GB/s.
        ServerSet::new(4, ServeCost::new(1_000, 1.0e9), 1024)
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

    #[test]
    fn deferred_requests_replay_in_arrival_order() {
        // Submit out of order in real time; settle sorts by virtual arrival.
        let s = set();
        let late = s.submit(1, 0, vec![(1_000, ByteRange::at(0, 512))]);
        let early = s.submit(0, 0, vec![(0, ByteRange::at(0, 512))]);
        s.settle();
        let t_early = s.take_completion(early);
        let t_late = s.take_completion(late);
        // Early request served first: 1us op + 512ns.
        assert_eq!(t_early, 1_000 + 512);
        // Late request arrives at 1000 < horizon 1512 -> queues behind.
        assert_eq!(t_late, 1_512 + 1_000 + 512);
    }

    #[test]
    fn deferred_outcome_independent_of_submit_order() {
        let batch_a = vec![(0u64, ByteRange::at(0, 512)), (100, ByteRange::at(0, 512))];
        let batch_b = vec![(0u64, ByteRange::at(0, 512)), (150, ByteRange::at(0, 512))];

        let s1 = set();
        let a1 = s1.submit(0, 0, batch_a.clone());
        let b1 = s1.submit(1, 0, batch_b.clone());
        s1.settle();
        let (ca1, cb1) = (s1.take_completion(a1), s1.take_completion(b1));

        let s2 = set();
        let b2 = s2.submit(1, 0, batch_b);
        let a2 = s2.submit(0, 0, batch_a);
        s2.settle();
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
        let a = s.submit(1, 0, vec![(0, ByteRange::at(0, 1024))]);
        let b = s.submit(0, 0, vec![(0, ByteRange::at(0, 1024))]);
        s.settle();
        // Client 0 wins the tiebreak even though it submitted second.
        assert_eq!(s.take_completion(b), 1_000 + 1024);
        assert_eq!(s.take_completion(a), 2 * (1_000 + 1024));
    }

    #[test]
    fn empty_batch_settles_to_zero() {
        let s = set();
        let t = s.submit(0, 0, vec![]);
        s.settle();
        assert_eq!(s.take_completion(t), 0);
    }

    #[test]
    fn settle_is_idempotent() {
        let s = set();
        let t = s.submit(0, 0, vec![(5, ByteRange::at(0, 100))]);
        s.settle();
        s.settle();
        assert_eq!(s.take_completion(t), 5 + 1_000 + 100);
    }

    #[test]
    #[should_panic(expected = "not settled")]
    fn unsettled_ticket_panics() {
        let s = set();
        let t = s.submit(0, 0, vec![(0, ByteRange::at(0, 10))]);
        let _ = s.take_completion(t);
    }
    #[test]
    fn settle_through_leaves_later_epochs_pending() {
        let s = set();
        let first = s.submit(0, 0, vec![(0, ByteRange::at(0, 512))]);
        let second = s.submit(1, 1, vec![(10, ByteRange::at(0, 512))]);
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
    type Batch = (usize, u64, Vec<(VNanos, ByteRange)>);

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
                        (at, ByteRange::at(0, 256)),
                        (at + 50, ByteRange::at(4096, 256)),
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

    #[test]
    fn settle_is_settle_through_everything() {
        let forward: Vec<usize> = (0..epoch_batches().len()).collect();
        assert_eq!(
            replay(&forward, ServerSet::settle),
            replay(&forward, |s| s.settle_through(u64::MAX))
        );
    }
}
