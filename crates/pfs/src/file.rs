use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use atomio_check::OrderedMutex;
use atomio_interval::{ByteRange, IntervalSet, StridedSet};
use atomio_trace::{Category, TraceSink, Tracer, Track};
use atomio_vtime::{Clock, Horizon, VNanos};

use crate::cache::ClientCache;
use crate::coherence::{CoherenceHub, RevocationHandler};
use crate::error::FsError;
use crate::fault::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, FaultSnapshot, RestartPolicy,
};
use crate::journal::{ReplayReport, RevocationJournal};
use crate::lock::{LockManager, LockMode, SetGrant};
use crate::lockclass;
use crate::profile::PlatformProfile;
use crate::server::{ServerOp, ServerSet};
use crate::stats::{ClientStats, FsLatency, LatencySnapshot};
use crate::storage::Storage;

pub(crate) struct FileObj {
    pub storage: Storage,
    /// The file's lock manager, in the platform's preset (paper §3.2 /
    /// Table 1); `None` on a lockless platform (ENFS).
    locks: Option<LockManager>,
    /// Per-file revocation fan-out: the token-caching lock presets push
    /// every revocation through here; clients of a lock-driven-coherence
    /// platform register their cache-side handler at open.
    coherence: Arc<CoherenceHub>,
    /// Write-ahead revocation journal: revocation flushes and writer syncs
    /// append intent records here *before* mutating the block store, so a
    /// server killed mid-flush recovers by replay. Permanently empty (one
    /// relaxed load per gate) without an active fault plan.
    journal: RevocationJournal,
}

struct FsInner {
    profile: PlatformProfile,
    servers: ServerSet,
    /// The same histograms the [`ServerSet`] records service times into;
    /// client handles add grant-wait and revocation-flush samples.
    latency: Arc<FsLatency>,
    /// The fault schedule every instrumented site consults; inert (one
    /// branch per site) when built via [`FileSystem::new`].
    faults: Arc<FaultInjector>,
    files: OrderedMutex<HashMap<String, Arc<FileObj>>>,
}

impl FsInner {
    /// One recovery replay pass over every file's journal: land committed
    /// intent records on the block stores in epoch order, discard torn
    /// ones, and count the work in the fault stats.
    fn replay_journals(&self) -> ReplayReport {
        let files: Vec<Arc<FileObj>> = self.files.lock().values().cloned().collect();
        let mut total = ReplayReport::default();
        for f in files {
            if f.journal.pending() == 0 {
                continue;
            }
            let rep = f.journal.replay(&f.storage);
            total.applied_records += rep.applied_records;
            total.applied_bytes += rep.applied_bytes;
            total.torn_discarded += rep.torn_discarded;
        }
        let fstats = self.faults.stats();
        fstats.add(&fstats.journal_replays, 1);
        fstats.add(&fstats.replayed_records, total.applied_records);
        fstats.add(&fstats.replayed_bytes, total.applied_bytes);
        fstats.add(&fstats.torn_records_discarded, total.torn_discarded);
        total
    }
}

/// The simulated parallel file system: shared storage servers plus a
/// namespace of files. Cloning the handle shares the instance.
///
/// ```
/// use atomio_pfs::{FileSystem, PlatformProfile};
/// use atomio_vtime::Clock;
///
/// let fs = FileSystem::new(PlatformProfile::fast_test());
/// let f = fs.open(0, Clock::new(), "data");
/// f.pwrite_direct(0, b"hello");
/// assert_eq!(fs.snapshot("data").unwrap(), b"hello");
/// ```
#[derive(Clone)]
pub struct FileSystem {
    inner: Arc<FsInner>,
}

impl FileSystem {
    pub fn new(profile: PlatformProfile) -> Self {
        FileSystem::with_faults(profile, FaultPlan::none())
    }

    /// [`FileSystem::new`] with a fault schedule armed: the plan's events
    /// fire at their sites as the workload drives the protocol, always at
    /// the same protocol step for the same `(workload, plan)` pair. A run
    /// under [`FaultPlan::none`] is byte- and vtime-identical to
    /// [`FileSystem::new`] — every site checks one branch and moves on.
    pub fn with_faults(profile: PlatformProfile, plan: FaultPlan) -> Self {
        let faults = Arc::new(FaultInjector::new(plan));
        let mut servers = ServerSet::new(
            profile.sim_servers,
            profile.serve.clone(),
            profile.stripe_unit,
        );
        servers.bind_faults(Arc::clone(&faults));
        let latency = Arc::clone(servers.latency());
        FileSystem {
            inner: Arc::new(FsInner {
                profile,
                servers,
                latency,
                faults,
                files: lockclass::files(HashMap::new()),
            }),
        }
    }

    /// File-system-wide fault/recovery counters (all zero without an
    /// active plan and no admin-driven crashes).
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.inner.faults.stats().snapshot()
    }

    /// Crash an I/O server by fiat (tests, benches, chaos drivers); every
    /// request touching it is rejected until the policy restarts it.
    /// Plan-driven crashes fire inside the request path instead.
    pub fn crash_server(&self, server: usize, restart: RestartPolicy) {
        self.inner.servers.crash(server, restart);
    }

    /// Whether `server` currently rejects requests.
    pub fn server_down(&self, server: usize) -> bool {
        self.inner.servers.is_down(server)
    }

    /// Restart a crashed server by fiat: run recovery (journal replay
    /// across every file) and mark it up. Returns `false` if the server
    /// was not down — or if another caller already owns its recovery.
    /// This is the only way back up from [`RestartPolicy::Manual`].
    pub fn restart_server(&self, server: usize) -> bool {
        if !self.inner.servers.begin_recovery(server) {
            return false;
        }
        self.inner.replay_journals();
        self.inner.servers.mark_up(server);
        true
    }

    /// Kill `client`'s handle on `name` by fiat: its token coverage, cache
    /// and dirty write-behind data die with it (the register-supersede
    /// path generalized to crash — see [`RevocationHandler::crashed`]),
    /// and revocations aimed at the corpse become no-ops so rivals
    /// proceed unharmed. Returns whether a live registration was killed.
    /// Plan-driven deaths ([`FaultAction::KillClient`]) fire at the
    /// client's own flush site instead.
    pub fn crash_client(&self, client: usize, name: &str) -> bool {
        let file = self.inner.files.lock().get(name).cloned();
        match file {
            Some(f) if f.coherence.crash(client) => {
                let fstats = self.inner.faults.stats();
                fstats.add(&fstats.client_deaths, 1);
                true
            }
            _ => false,
        }
    }

    pub fn profile(&self) -> &PlatformProfile {
        &self.inner.profile
    }

    pub fn servers(&self) -> &ServerSet {
        &self.inner.servers
    }

    /// Snapshot of the file-system-wide latency histograms (grant wait,
    /// revocation-flush cost, per-server service time) — where the benches
    /// read p50/p99 tail latencies from.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.inner.latency.snapshot()
    }

    /// Attach `sink` to the server-side tracer: one `Category::Server`
    /// span per (request, server) piece lands there, each on its server's
    /// own track (the bound home track is never used — every server span
    /// names its track explicitly). Client-side events are bound per
    /// handle via [`PosixFile::tracer`].
    pub fn bind_tracer(&self, sink: Arc<dyn TraceSink>) {
        self.inner.servers.tracer().bind(Track::Server(0), sink);
    }

    /// Open (creating if needed) `name` on behalf of `client`; `clock` is
    /// the client's virtual clock, charged by every operation.
    pub fn open(&self, client: usize, clock: Clock, name: &str) -> PosixFile {
        let file = {
            let mut files = self.inner.files.lock();
            Arc::clone(files.entry(name.to_string()).or_insert_with(|| {
                let coherence = Arc::new(CoherenceHub::new());
                coherence.bind_faults(Arc::clone(&self.inner.faults));
                Arc::new(FileObj {
                    storage: Storage::new(),
                    locks: LockManager::new(&self.inner.profile, Some(Arc::clone(&coherence))),
                    coherence,
                    journal: RevocationJournal::new(),
                })
            }))
        };
        let cache = Arc::new(lockclass::cache(ClientCache::new(
            self.inner.profile.cache.clone(),
        )));
        let stats = Arc::new(ClientStats::default());
        let coverage = Arc::new(lockclass::coverage(IntervalSet::new()));
        let tracer = Tracer::disabled();
        let handler = if self.inner.profile.lock_driven_coherence() {
            // Wire this client into the revocation fan-out: a conflicting
            // acquisition elsewhere flushes this cache's dirty bytes and
            // invalidates exactly the revoked ranges. One live handle per
            // (client, file): re-opening replaces the registration — and
            // *neutralizes* the superseded handle (coverage cleared, cache
            // discarded), which otherwise would keep serving cached reads
            // it no longer receives revocations for. Dropping the handle
            // removes the registration (see `impl Drop`).
            let h: Arc<dyn RevocationHandler> = Arc::new(CacheCoherence {
                cache: Arc::clone(&cache),
                coverage: Arc::clone(&coverage),
                stats: Arc::clone(&stats),
                tracer: tracer.clone(),
                file: Arc::downgrade(&file),
                fs: Arc::downgrade(&self.inner),
            });
            if let Some(old) = file.coherence.register(client, Arc::clone(&h)) {
                old.superseded();
            }
            Some(h)
        } else {
            None
        };
        PosixFile {
            client,
            clock,
            fs: Arc::clone(&self.inner),
            file,
            cache,
            coverage,
            handler,
            nic: Horizon::new(),
            dead: AtomicBool::new(false),
            stats,
            tracer,
        }
    }

    /// Consistent copy of a file's *durable* bytes, or `None` if it was
    /// never opened. Committed-but-unapplied journal records are overlaid
    /// in epoch order (they are durable — recovery replay will land them);
    /// torn records are not. The journal itself is left untouched, so the
    /// observer never races recovery.
    pub fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        let file = self.inner.files.lock().get(name).cloned()?;
        let mut bytes = file.storage.snapshot();
        for r in file.journal.pending_records() {
            if !r.committed {
                continue;
            }
            let end = r.offset as usize + r.data.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[r.offset as usize..end].copy_from_slice(&r.data);
        }
        Some(bytes)
    }

    /// Length of a file, or `None` if absent.
    pub fn file_len(&self, name: &str) -> Option<u64> {
        let files = self.inner.files.lock();
        files.get(name).map(|f| f.storage.len())
    }

    /// Remove a file from the namespace.
    pub fn delete(&self, name: &str) -> bool {
        self.inner.files.lock().remove(name).is_some()
    }

    /// Reset all server timing horizons (between benchmark repetitions).
    pub fn reset_timing(&self) {
        self.inner.servers.reset();
    }

    /// The stripe unit in bytes: file byte `b` lives on server
    /// `(b / stripe_unit) % servers`. Collective-I/O layers align their
    /// aggregator file domains to this boundary so one aggregator's domain
    /// never shares a stripe unit with another's.
    pub fn stripe_unit(&self) -> u64 {
        self.inner.servers.stripe_unit()
    }

    /// Number of simulated I/O servers (the natural aggregator count).
    pub fn server_count(&self) -> usize {
        self.inner.servers.server_count()
    }
}

/// A client-side POSIX-style file handle on the simulated file system.
///
/// Two I/O paths, selected per call:
/// * `pwrite`/`pread` go through the client page cache (when the platform
///   enables it) with read-ahead and write-behind — the behaviour the
///   paper's §3 warns makes handshaking strategies require an explicit
///   `sync` + `invalidate`;
/// * `pwrite_direct`/`pread_direct` bypass the cache, the way locked I/O
///   does in ROMIO's atomic mode ("while a file region is locked, all
///   read/write requests to it will directly go to the file server").
///
/// On a lock-driven-coherence platform
/// ([`CoherenceMode::LockDriven`](crate::CoherenceMode)) the cached path
/// obeys the token protocol: cache admission requires token *coverage*
/// (the union of this client's granted byte sets, minus what later
/// revocations took back), bytes outside coverage fall through to direct
/// I/O, and a served revocation flushes + invalidates exactly the revoked
/// ranges — so locked I/O can run through the cache with no blanket
/// `sync`/`invalidate` and no stale reads. Covered writes follow GPFS
/// visibility semantics: they may stay write-behind past the lock
/// release, reaching the servers only when a conflicting acquisition
/// revokes the token or this client syncs — an accessor that neither
/// locks nor waits for a sync reads the servers and can legitimately miss
/// them. The coverage set and the cache share one coherence point, this
/// handle's cache mutex: revocations shrink coverage and invalidate under
/// it, and every cached access snapshots coverage and completes under it,
/// so a revocation can never land in the middle of an access.
pub struct PosixFile {
    client: usize,
    clock: Clock,
    fs: Arc<FsInner>,
    file: Arc<FileObj>,
    cache: Arc<OrderedMutex<ClientCache>>,
    /// Token-validity rights under lock-driven coherence: the byte set a
    /// held (or retained) token entitles this client to cache. Grown by
    /// every grant, shrunk by served revocations. Unused (empty) on
    /// close-to-open platforms.
    coverage: Arc<OrderedMutex<IntervalSet>>,
    /// This handle's registration in the file's [`CoherenceHub`], removed
    /// on drop; `None` on close-to-open platforms.
    handler: Option<Arc<dyn RevocationHandler>>,
    /// Client NIC: serializes this client's injected payloads.
    nic: Horizon,
    /// Set when a [`FaultAction::KillClient`] event killed this handle:
    /// every later operation returns [`FsError::Closed`].
    dead: AtomicBool,
    stats: Arc<ClientStats>,
    /// This handle's event recorder; disabled (free) until a sink is
    /// bound via [`PosixFile::tracer`]. The revocation handler shares it.
    tracer: Tracer,
}

impl Drop for PosixFile {
    fn drop(&mut self) {
        // Tear down the revocation registration so the hub stops keeping
        // the dead handle's cache alive — and so later revocations cannot
        // resurrect write-behind data the program discarded by dropping
        // the handle without `sync` (like closing a POSIX fd without
        // fsync). A registration already replaced by a re-open is left to
        // its successor.
        if let Some(h) = self.handler.take() {
            self.file.coherence.unregister_if(self.client, &h);
        }
    }
}

/// The cache side of the revocation protocol for one (client, file): see
/// [`CoherenceHub`]. Holds only weak references toward the file system so
/// the registration (which lives inside the file's lock backend) cannot
/// keep the file alive.
#[derive(Debug)]
struct CacheCoherence {
    cache: Arc<OrderedMutex<ClientCache>>,
    coverage: Arc<OrderedMutex<IntervalSet>>,
    stats: Arc<ClientStats>,
    tracer: Tracer,
    file: Weak<FileObj>,
    fs: Weak<FsInner>,
}

impl RevocationHandler for CacheCoherence {
    fn revoke(&self, ranges: &IntervalSet, now: VNanos) -> u64 {
        let Some(file) = self.file.upgrade() else {
            return 0; // file deleted: nothing to keep coherent
        };
        let fs = self.fs.upgrade();
        self.tracer.instant(
            Category::Coherence,
            "revoke dispatch",
            now,
            &[("ranges", ranges.runs().len() as u64)],
        );
        // The holder's cache mutex is the coherence point: its cached I/O
        // paths snapshot coverage and run the whole access under it, and
        // we shrink coverage under the same mutex — so a revocation can
        // never land *mid-access*, between an access's coverage snapshot
        // and its cache admission/dirtying. (Without this, a lock design
        // that revokes without conflict-waiting — sharded shared-mode
        // grants, or any access under retained-but-not-in-use coverage —
        // could invalidate first and then watch the stale snapshot admit
        // or dirty bytes outside coverage, bytes no revocation would ever
        // visit again.) Lock order: cache, then coverage — everywhere.
        let mut cache = self.cache.lock();
        {
            // The revoked bytes are no longer ours to cache.
            let mut cov = self.coverage.lock();
            *cov = cov.subtract(ranges);
        }
        let mut flushed = 0u64;
        let mut server_reqs = 0u64;
        let mut invalidated = 0u64;
        for r in ranges.iter() {
            // Flush the holder's write-behind data for the revoked range —
            // the real-bytes half of the revocation. Since PR 7 the flush
            // is a first-class write: its bytes *occupy the server
            // horizons* at the acquirer's grant time (delaying whoever
            // queues behind them), and the per-byte
            // `token_revoke_byte_ns` fee the dispatching lock manager
            // bills the acquirer is the protocol-side wait for that flush
            // RPC. Only the holder's own clock stays uncharged — it may
            // be anywhere and is racy to read from the dispatcher's
            // thread.
            for (off, data) in cache.take_dirty_runs_in(*r) {
                let len = data.len() as u64;
                flushed += len;
                if let Some(fs) = &fs {
                    server_reqs += fs.servers.requests_for(ByteRange::at(off, len));
                    // Raw (health-ignoring) path: the revocation flush
                    // must not dead-lock the acquirer's grant behind a
                    // retry loop; crash windows are modeled at the
                    // journal steps below instead.
                    fs.servers
                        .access(now, ByteRange::at(off, len), ServerOp::Write);
                }
                // A revocation flush is one clean writer: apply atomically
                // — through the write-ahead journal when a fault plan is
                // armed, so a server crashed between commit and apply
                // leaves a durable record for recovery replay instead of
                // losing the flush.
                let journaled = fs.as_ref().is_some_and(|fs| {
                    if !fs.faults.active() {
                        return false;
                    }
                    let home = fs.servers.server_of(off);
                    let epoch = file.journal.append_committed(off, &data);
                    match fs.faults.check(FaultSite::JournalApply { server: home }) {
                        Some(FaultAction::CrashServer { restart })
                        | Some(FaultAction::TearRecord { restart }) => {
                            fs.servers.crash(home, restart);
                            self.tracer.instant(
                                Category::Fault,
                                "crash before revoke apply",
                                now,
                                &[("server", home as u64), ("epoch", epoch)],
                            );
                        }
                        _ => {
                            file.storage.write_atomic(off, &data);
                            file.journal.mark_applied(epoch);
                        }
                    }
                    true
                });
                if !journaled {
                    file.storage.write_atomic(off, &data);
                }
            }
            let dropped = cache.invalidate_range(*r);
            invalidated += dropped;
            self.stats
                .add(&self.stats.coherence_invalidated_bytes, dropped);
        }
        drop(cache);
        if let Some(fs) = &fs {
            // The revocation's virtual-time cost as billed to the revoking
            // acquirer: the flat per-holder fee plus the per-byte flush
            // charge. Drawn on the holder's row at the *acquirer's* grant
            // time (the holder's clock is not advanced by serving and is
            // racy to read here), so the span marks *whose cache* did the
            // work, not a wait on this rank.
            let cost = fs.profile.token_revoke_ns
                + (flushed as f64 * fs.profile.token_revoke_byte_ns).round() as u64;
            fs.latency.revoke_flush.record(cost);
            if self.tracer.is_enabled() {
                let mut args = vec![
                    ("flushed_bytes", flushed),
                    ("invalidated_bytes", invalidated),
                ];
                push_footprint(&mut args, ranges.iter().copied());
                self.tracer
                    .span(Category::Coherence, "revoke flush", now, now + cost, &args);
            }
        }
        self.tracer.instant(
            Category::Coherence,
            "invalidate",
            now,
            &[("bytes", invalidated)],
        );
        self.stats.add(&self.stats.revocations_served, 1);
        self.stats.add(&self.stats.revoke_flushed_bytes, flushed);
        if flushed > 0 {
            self.stats.add(&self.stats.flushes, 1);
            self.stats.add(&self.stats.flushed_bytes, flushed);
            self.stats
                .add(&self.stats.server_write_requests, server_reqs);
        }
        flushed
    }

    fn granted(&self, ranges: &IntervalSet) {
        // Record the validity rights the token confers. Runs under the
        // lock manager's state mutex (see the trait doc), so the rights
        // are in place before any rival acquisition can revoke the token
        // — a revocation arriving later always finds something to
        // subtract. Lock order: cache, then coverage, as everywhere.
        let _cache = self.cache.lock();
        let mut cov = self.coverage.lock();
        *cov = cov.union(ranges);
    }

    fn superseded(&self) {
        // A re-open by the same client replaced this handle's registration:
        // revocations now go to the successor, so this handle's coverage
        // and cached pages could go silently stale — and its write-behind
        // data would never be revocation-flushed. Strip both: with empty
        // coverage every later access through the old handle falls through
        // to direct I/O, and the unsynced dirty bytes are discarded, the
        // same close-without-fsync contract the `Drop` impl documents.
        let mut cache = self.cache.lock();
        *self.coverage.lock() = IntervalSet::new();
        cache.discard_all();
    }
}

/// A held byte-range lock; releases on drop at the holder's current clock.
pub struct LockGuard<'f> {
    file: &'f PosixFile,
    locks: &'f LockManager,
    id: u64,
    released: bool,
    /// Footprint + mode args replayed on the release event, so the
    /// happens-before checker can pair the release with later conflicting
    /// grants. Empty when the handle's tracer is disabled.
    release_args: Vec<(&'static str, u64)>,
}

/// What one [`PosixFile::inject_writes`] call moved: its start time and
/// the totals over the requests that landed.
#[derive(Default)]
struct Injected {
    t0: VNanos,
    landed: usize,
    bytes: u64,
    server_reqs: u64,
}

/// Cap on footprint runs carried in one *sync* event's args (lock grants
/// and releases, revocation flushes). Beyond it the args degrade to the
/// bounding box plus `("elided", 1)` — conservative for the
/// happens-before checker: a *larger* sync footprint can only add edges
/// (masking, never inventing, a race). Access events never degrade (a
/// larger access footprint *would* invent races): see [`write_args`].
const FOOTPRINT_RUN_CAP: usize = 32;

/// Append a sync event's byte footprint to trace args as repeated
/// `("lo", x), ("len", y)` pairs, capped at [`FOOTPRINT_RUN_CAP`] runs.
fn push_footprint(args: &mut Vec<(&'static str, u64)>, runs: impl IntoIterator<Item = ByteRange>) {
    let runs: Vec<ByteRange> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() > FOOTPRINT_RUN_CAP {
        let lo = runs.iter().map(|r| r.start).min().unwrap_or(0);
        let hi = runs.iter().map(|r| r.end).max().unwrap_or(0);
        args.push(("lo", lo));
        args.push(("len", hi - lo));
        args.push(("elided", 1));
    } else {
        for r in runs {
            args.push(("lo", r.start));
            args.push(("len", r.len()));
        }
    }
}

/// Trace args of a multi-segment write access: the byte total and the
/// **exact** footprint, one `("lo", x), ("len", y)` pair per segment.
fn write_args(bytes: u64, segments: &[(u64, &[u8])]) -> Vec<(&'static str, u64)> {
    let mut args = vec![("bytes", bytes)];
    for (off, data) in segments.iter().filter(|(_, d)| !d.is_empty()) {
        args.push(("lo", *off));
        args.push(("len", data.len() as u64));
    }
    args
}

impl PosixFile {
    pub fn client(&self) -> usize {
        self.client
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// This handle's event tracer. Bind a sink (with this rank's track) to
    /// start recording lock, cache, coherence and I/O events; unbound it
    /// costs one relaxed atomic load per emission site.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot of the owning file system's latency histograms (file-system
    /// wide, not per client — see [`FileSystem::latency_snapshot`]).
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.fs.latency.snapshot()
    }

    pub fn profile(&self) -> &PlatformProfile {
        &self.fs.profile
    }

    pub fn len(&self) -> u64 {
        self.file.storage.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stripe unit of the underlying file system (see
    /// [`FileSystem::stripe_unit`]).
    pub fn stripe_unit(&self) -> u64 {
        self.fs.servers.stripe_unit()
    }

    /// Number of I/O servers backing this file.
    pub fn server_count(&self) -> usize {
        self.fs.servers.server_count()
    }

    /// Whether a fault plan is armed on the owning file system
    /// ([`PosixFile::submit_writes`] is what acts on it).
    pub fn faults_active(&self) -> bool {
        self.fs.faults.active()
    }

    // ------------------------------------------------------- fault plumbing

    /// [`FsError::Closed`] once a [`FaultAction::KillClient`] event killed
    /// this handle.
    fn check_alive(&self) -> Result<(), FsError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(FsError::Closed);
        }
        Ok(())
    }

    /// After a flush: if a `KillClient` event fired mid-call, tear down
    /// this handle's coherence registration — outside the cache mutex,
    /// because the crash notification re-takes it.
    fn settle_fate(&self, res: Result<(), FsError>) -> Result<(), FsError> {
        if self.dead.load(Ordering::Acquire) {
            self.file.coherence.crash(self.client);
        }
        res
    }

    /// One fault-aware server trip: a down server rejects the whole
    /// request and this client retries with exponential vtime backoff
    /// (`retry_backoff_ns`, doubling per attempt, capped at 64× base) —
    /// the degraded-mode latency of the fault model. If this client's
    /// rejection is the one that completes a server's restart countdown,
    /// it owns the recovery: journal replay runs here, on this client's
    /// time. A server some *other* client is recovering does not reject:
    /// the request waits (in host time) for that replay to finish, so the
    /// retry budget only ever counts rejections by a server that is down.
    /// Without an active plan this is exactly [`ServerSet::access`] plus
    /// one branch.
    fn server_rpc(
        &self,
        mut arrival: VNanos,
        range: ByteRange,
        op: ServerOp,
    ) -> Result<VNanos, FsError> {
        if !self.fs.faults.active() {
            return Ok(self.fs.servers.access(arrival, range, op));
        }
        let mut attempt: u32 = 0;
        loop {
            match self.fs.servers.try_access(arrival, range, op) {
                Ok(done) => return Ok(done),
                Err(FsError::ServerUnavailable { server }) => {
                    if attempt == 0 {
                        self.stats.add(&self.stats.faults_injected, 1);
                    }
                    for s in self.fs.servers.take_recovery_due() {
                        arrival = self.recover_server(s, arrival);
                    }
                    if attempt >= self.fs.profile.max_retries {
                        return Err(FsError::RetriesExhausted {
                            server,
                            attempts: attempt + 1,
                        });
                    }
                    let backoff = self.fs.profile.retry_backoff_ns << attempt.min(6);
                    self.tracer.instant(
                        Category::Fault,
                        "server rejected",
                        arrival,
                        &[
                            ("server", server as u64),
                            ("attempt", u64::from(attempt) + 1),
                            ("backoff_ns", backoff),
                        ],
                    );
                    arrival += backoff;
                    attempt += 1;
                    self.stats.add(&self.stats.retries, 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// This client's rejection completed `server`'s restart countdown, so
    /// it runs the recovery: replay every file's journal (committed
    /// records land, torn ones are discarded), charge the replayed bytes
    /// as server work, and put the server back in service.
    fn recover_server(&self, server: usize, at: VNanos) -> VNanos {
        let rep = self.fs.replay_journals();
        self.stats.add(&self.stats.journal_replays, 1);
        self.stats
            .add(&self.stats.torn_records_discarded, rep.torn_discarded);
        let cost = self.fs.profile.serve.service_ns(rep.applied_bytes);
        self.tracer.span(
            Category::Fault,
            "journal replay",
            at,
            at + cost,
            &[
                ("server", server as u64),
                ("records", rep.applied_records),
                ("bytes", rep.applied_bytes),
                ("torn_discarded", rep.torn_discarded),
            ],
        );
        self.fs.servers.mark_up(server);
        at + cost
    }

    /// Access gate: a pending intent record overlapping `range` must land
    /// (or be discarded, if torn) before the bytes are read or written —
    /// a committed record is durable, so reading around it would be a
    /// stale read, and writing under it would be buried by a later
    /// recovery replay. One relaxed load when the journal is empty.
    fn drain_journal_overlap(&self, range: ByteRange) {
        if !self.file.journal.overlaps(range) {
            return;
        }
        let rep = self.fs.replay_journals();
        self.stats.add(&self.stats.journal_replays, 1);
        self.stats
            .add(&self.stats.torn_records_discarded, rep.torn_discarded);
        self.tracer.instant(
            Category::Fault,
            "read-through replay",
            self.clock.now(),
            &[
                ("records", rep.applied_records),
                ("torn_discarded", rep.torn_discarded),
            ],
        );
    }

    // ------------------------------------------------------------ direct I/O

    /// Synchronous uncached write: request → servers → ack, charged in
    /// virtual time; bytes really applied to storage (POSIX-atomically when
    /// the platform says so). Panics if a fault plan left the request
    /// unservable — fault-injected runs use
    /// [`PosixFile::try_pwrite_direct`].
    pub fn pwrite_direct(&self, offset: u64, data: &[u8]) {
        self.try_pwrite_direct(offset, data)
            .expect("pwrite_direct on a fault-injected file system: use try_pwrite_direct");
    }

    /// [`PosixFile::pwrite_direct`] with the fault model surfaced: a down
    /// server is retried with vtime backoff, and the typed error comes
    /// back once the retry budget is spent or this handle is dead.
    pub fn try_pwrite_direct(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.try_pwritev_direct(&[(offset, data)])
    }

    /// Closed-loop vectored uncached write — what a lock holder issues for
    /// a noncontiguous request: the segments are pipelined through the NIC
    /// and the servers ([`PosixFile::inject_writes`]) and the call returns
    /// once the slowest is acknowledged, so the client link and the
    /// servers are busy at the same time instead of alternately. Each
    /// segment is its own POSIX write (applied as it lands, atomically
    /// when the platform says so); nothing is atomic *across* segments —
    /// that is [`PosixFile::try_listio_direct_atomic`]. On a fault the
    /// segments before the failing one are applied and counted, none
    /// after.
    pub fn try_pwritev_direct(&self, segments: &[(u64, &[u8])]) -> Result<(), FsError> {
        self.check_alive()?;
        let (inj, res) = self.inject_writes(segments.iter().copied(), |arrival, range, data| {
            self.drain_journal_overlap(range);
            let done = self.server_rpc(arrival, range, ServerOp::Write)?;
            self.apply_write(range.start, data);
            Ok(done)
        });
        if inj.landed > 0 {
            self.trace_write("direct write", &inj, &segments[..inj.landed]);
            self.stats.add(&self.stats.writes, inj.landed as u64);
            self.stats.add(&self.stats.bytes_written, inj.bytes);
            self.stats
                .add(&self.stats.server_write_requests, inj.server_reqs);
        }
        res
    }

    /// The one injection formula of every closed-loop multi-request write
    /// (locked vectors, list I/O, cache flushes): requests leave back to
    /// back through this client's NIC from the call's start — occupancy
    /// `payload_ns(len)`, plus `client_op_ns` to issue each request after
    /// the first — `land` puts each on the servers at `injection end +
    /// latency` and returns its completion, and the caller's clock
    /// advances once, to the slowest completion plus the ack. Stops at
    /// the first request `land` fails; the time of those that landed is
    /// still charged.
    fn inject_writes<'a>(
        &self,
        mut requests: impl Iterator<Item = (u64, &'a [u8])>,
        mut land: impl FnMut(VNanos, ByteRange, &'a [u8]) -> Result<VNanos, FsError>,
    ) -> (Injected, Result<(), FsError>) {
        let link = &self.fs.profile.client_link;
        let mut inj = Injected {
            t0: self.clock.now(),
            ..Injected::default()
        };
        let (mut done, mut issue) = (inj.t0, 0);
        let res = requests.try_for_each(|(off, data)| {
            let range = ByteRange::at(off, data.len() as u64);
            let (_, inj_end) = self.nic.serve(inj.t0, issue + link.payload_ns(range.len()));
            issue = self.fs.profile.client_op_ns;
            done = done.max(land(inj_end + link.latency_ns, range, data)?);
            inj.landed += 1;
            inj.bytes += range.len();
            inj.server_reqs += self.fs.servers.requests_for(range);
            Ok(())
        });
        if inj.landed > 0 {
            self.clock.advance_to(done + link.latency_ns);
        }
        (inj, res)
    }

    /// One `Category::Io` span for a finished [`PosixFile::inject_writes`]
    /// call, carrying the written footprint for the happens-before checker.
    fn trace_write(&self, name: &'static str, inj: &Injected, segments: &[(u64, &[u8])]) {
        if self.tracer.is_enabled() {
            let args = write_args(inj.bytes, segments);
            self.tracer
                .span(Category::Io, name, inj.t0, self.clock.now(), &args);
        }
    }

    /// Synchronous uncached read. Panics if a fault plan left the request
    /// unservable — fault-injected runs use
    /// [`PosixFile::try_pread_direct`].
    pub fn pread_direct(&self, offset: u64, buf: &mut [u8]) {
        self.try_pread_direct(offset, buf)
            .expect("pread_direct on a fault-injected file system: use try_pread_direct");
    }

    /// [`PosixFile::pread_direct`] with the fault model surfaced.
    pub fn try_pread_direct(&self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.check_alive()?;
        let len = buf.len() as u64;
        let range = ByteRange::at(offset, len);
        self.drain_journal_overlap(range);
        let link = &self.fs.profile.client_link;
        let t0 = self.clock.now();
        let done = self.server_rpc(t0 + link.latency_ns, range, ServerOp::Read)?;
        self.clock
            .advance_to(done + link.latency_ns + link.payload_ns(len));
        self.tracer.span(
            Category::Io,
            "direct read",
            t0,
            self.clock.now(),
            &[("off", offset), ("bytes", len)],
        );
        self.file.storage.read_atomic(offset, buf);
        self.stats.add(&self.stats.reads, 1);
        self.stats.add(&self.stats.bytes_read, len);
        self.stats.add(
            &self.stats.server_read_requests,
            self.fs.servers.requests_for(range),
        );
        Ok(())
    }

    /// Open-loop (pipelined) batched write — a `writev`: every entry's data
    /// is applied to storage now, straight from the caller's slices, while
    /// its *timing* is deposited with the servers as virtually-stamped
    /// requests. The client paces injections through its NIC without
    /// waiting for per-request acks — the asynchronous-I/O counterpart of
    /// [`PosixFile::pwrite_direct`].
    ///
    /// For timing, entries that follow each other in the file (each starts
    /// where the one before it ended) are **one extent**, however many
    /// slices hold its bytes, and every extent leaves as one wire request
    /// per *stripe row* it touches: it is cut at the absolute multiples of
    /// `stripe_unit × server_count`. Each request pays `client_op_ns +
    /// payload_ns(len)` on the NIC and reaches the servers one link latency
    /// after *its own* injection ends, so the servers work on the first rows
    /// of a large extent while the rest is still being injected. An extent
    /// inside one stripe row is a single request.
    ///
    /// The requests are deposited under `epoch`. Redeem the returned ticket
    /// with [`PosixFile::complete_writes`], settling through an epoch at or
    /// above this one, once every concurrent writer has deposited its
    /// batches up to that epoch — a barrier proves it, or any collective the
    /// writers enter after submitting. Callers that fence every batch with a
    /// barrier use epoch 0 throughout. The deferred settlement is what makes
    /// concurrent write timing deterministic (see
    /// [`ServerSet`](crate::ServerSet)).
    pub fn pwrite_batch(&self, writes: &[(u64, &[u8])], epoch: u64) -> u64 {
        self.pwrite_batch_inner(writes, epoch, false)
    }

    /// What every collective open-loop writer submits through: on a healthy
    /// file system a [`PosixFile::pwrite_batch`] under `epoch`, whose ticket
    /// comes back to be redeemed. Under a fault plan nothing may stay in
    /// flight across a crash/replay cycle and no byte may land on a server
    /// that is down — faults fire against individual server RPCs, not
    /// deferred tickets — so the writes go through the synchronous,
    /// retrying [`PosixFile::try_pwritev_direct`] instead: there is no
    /// ticket, and a dead server is a typed error.
    ///
    /// `racing` is for *deliberately racing* writers (non-atomic mode): the
    /// batch yields the scheduler between entries so concurrently
    /// submitting ranks interleave — and the undefined outcomes the paper's
    /// Figure 2 demonstrates stay observable — even on a single-CPU host.
    /// Writers whose batches are disjoint by construction skip the yields.
    pub fn submit_writes(
        &self,
        writes: &[(u64, &[u8])],
        epoch: u64,
        racing: bool,
    ) -> Result<Option<u64>, FsError> {
        if self.faults_active() {
            self.try_pwritev_direct(writes)?;
            return Ok(None);
        }
        Ok(Some(self.pwrite_batch_inner(writes, epoch, racing)))
    }

    fn pwrite_batch_inner(&self, writes: &[(u64, &[u8])], epoch: u64, racing: bool) -> u64 {
        let link = &self.fs.profile.client_link;
        let servers = &self.fs.servers;
        let row = servers.stripe_unit() * servers.server_count() as u64;
        let t0 = self.clock.now();
        // Apply every entry; for timing, coalesce file-adjacent entries.
        let mut extents: Vec<ByteRange> = Vec::with_capacity(writes.len());
        for &(off, data) in writes.iter().filter(|(_, d)| !d.is_empty()) {
            let len = data.len() as u64;
            match extents.last_mut() {
                Some(e) if e.end == off => e.end += len,
                _ => extents.push(ByteRange::at(off, len)),
            }
            self.apply_write(off, data);
            if racing {
                std::thread::yield_now();
            }
        }
        // One wire request per stripe row an extent touches.
        let mut reqs = Vec::with_capacity(extents.len());
        let (mut total, mut server_reqs) = (0u64, 0u64);
        for e in &extents {
            total += e.len();
            let mut cur = e.start;
            while cur < e.end {
                let range = ByteRange::new(cur, e.end.min((cur / row + 1) * row));
                let occupancy = self.fs.profile.client_op_ns + link.payload_ns(range.len());
                let (_, inj_end) = self.nic.serve(t0, occupancy);
                reqs.push((inj_end + link.latency_ns, range));
                server_reqs += servers.requests_for(range);
                cur = range.end;
            }
        }
        self.stats.add(&self.stats.writes, extents.len() as u64);
        self.stats.add(&self.stats.bytes_written, total);
        self.stats
            .add(&self.stats.server_write_requests, server_reqs);
        if self.tracer.is_enabled() {
            let args = write_args(total, writes);
            self.tracer.instant(Category::Io, "batch write", t0, &args);
        }
        self.fs.servers.submit(self.client, epoch, reqs)
    }

    /// Settle the deposited batches of epochs `<= through` (which must
    /// cover `ticket`'s) and advance this rank's clock to its batch's
    /// completion (plus the ack latency).
    pub fn complete_writes(&self, ticket: u64, through: u64) {
        self.fs.servers.settle_through(through);
        let done = self.fs.servers.take_completion(ticket);
        let link = &self.fs.profile.client_link;
        if done > 0 {
            self.clock.advance_to(done + link.latency_ns);
        }
    }

    /// Atomic list I/O: apply several segments as *one* atomic operation —
    /// the `lio_listio` extension discussed in paper §3.2. Segments are
    /// injected back-to-back (pipelined) and applied under one storage gate,
    /// so no other write can interleave anywhere between them.
    pub fn listio_direct_atomic(&self, segments: &[(u64, &[u8])]) {
        self.try_listio_direct_atomic(segments)
            .expect("listio on a fault-injected file system: use try_listio_direct_atomic");
    }

    /// [`PosixFile::listio_direct_atomic`] with the fault model surfaced.
    pub fn try_listio_direct_atomic(&self, segments: &[(u64, &[u8])]) -> Result<(), FsError> {
        self.check_alive()?;
        let (inj, res) = self.inject_writes(segments.iter().copied(), |arrival, range, _| {
            self.drain_journal_overlap(range);
            self.server_rpc(arrival, range, ServerOp::Write)
        });
        res?;
        self.trace_write("listio write", &inj, segments);
        self.file.storage.write_listio_atomic(segments);
        if self.fs.profile.cache.enabled {
            // The atomic write bypassed the cache: drop this client's own
            // (now stale) copies of exactly the written segments. Dirty
            // bytes there were logically superseded by this write, so they
            // are discarded, not flushed.
            let mut cache = self.cache.lock();
            for (off, data) in segments {
                cache.discard_range(ByteRange::at(*off, data.len() as u64));
            }
        }
        self.stats.add(&self.stats.writes, segments.len() as u64);
        self.stats.add(&self.stats.bytes_written, inj.bytes);
        self.stats
            .add(&self.stats.server_write_requests, inj.server_reqs);
        Ok(())
    }

    /// Data-sieving read-modify-write of one contiguous `window`: read the
    /// window whole, patch the given ascending `(offset, bytes)` pieces
    /// into it, and write it back as **one** contiguous request — two
    /// server round trips however many pieces there are, instead of one
    /// per piece. When the pieces already cover the window exactly, the
    /// read is skipped and only the write is issued.
    ///
    /// This is *not* atomic by itself: between the read and the write-back
    /// another client can update a hole byte, and the write-back then
    /// buries it under stale data — the §2.1 hazard. `racing` yields the
    /// scheduler at that point so the hazard stays observable on
    /// single-CPU hosts; atomic callers wrap the RMW in an exclusive lock
    /// ([`PosixFile::rmw_locked`] or a span lock held by the MPI layer).
    pub fn rmw_direct(&self, window: ByteRange, patches: &[(u64, &[u8])], racing: bool) {
        self.rmw_direct_with(window, patches, racing, &mut Vec::new());
    }

    /// [`PosixFile::rmw_direct`] with a caller-provided staging buffer, so
    /// a multi-window sieve pays one allocation per request instead of one
    /// per window.
    pub fn rmw_direct_with(
        &self,
        window: ByteRange,
        patches: &[(u64, &[u8])],
        racing: bool,
        staging: &mut Vec<u8>,
    ) {
        self.try_rmw_direct_with(window, patches, racing, staging)
            .expect("rmw on a fault-injected file system: use try_rmw_direct_with");
    }

    /// [`PosixFile::rmw_direct_with`] with the fault model surfaced.
    pub fn try_rmw_direct_with(
        &self,
        window: ByteRange,
        patches: &[(u64, &[u8])],
        racing: bool,
        staging: &mut Vec<u8>,
    ) -> Result<(), FsError> {
        if window.is_empty() {
            return Ok(());
        }
        debug_assert!(
            patches
                .windows(2)
                .all(|w| w[0].0 + w[0].1.len() as u64 <= w[1].0),
            "patches must be ascending and disjoint"
        );
        let covered: u64 = patches.iter().map(|(_, d)| d.len() as u64).sum();
        debug_assert!(
            patches
                .iter()
                .all(|(off, d)| { *off >= window.start && off + d.len() as u64 <= window.end }),
            "patches must lie inside the window"
        );
        staging.clear();
        staging.resize(window.len() as usize, 0);
        if covered < window.len() {
            // Holes: fill them with the servers' current contents.
            self.try_pread_direct(window.start, staging)?;
            if racing {
                std::thread::yield_now();
            }
        }
        for (off, data) in patches {
            let rel = (off - window.start) as usize;
            staging[rel..rel + data.len()].copy_from_slice(data);
        }
        self.try_pwrite_direct(window.start, staging)
    }

    /// [`PosixFile::rmw_direct`] under its own exclusive byte-range lock
    /// spanning the read-modify-write: a standalone atomic-RMW primitive
    /// for callers whose whole request is one window. (The MPI layer's
    /// atomic sieving does *not* build on this — it holds one lock
    /// spanning **all** windows of a request and calls
    /// [`PosixFile::rmw_direct`] per window inside it, because per-window
    /// locking without whole-request holding is not serializable; see
    /// `Strategy::DataSieving` in `atomio-core`.) Fails on lockless
    /// platforms (ENFS).
    pub fn rmw_locked(&self, window: ByteRange, patches: &[(u64, &[u8])]) -> Result<(), FsError> {
        if window.is_empty() {
            return Ok(());
        }
        let guard = self.lock(window, LockMode::Exclusive)?;
        self.try_rmw_direct_with(window, patches, false, &mut Vec::new())?;
        guard.release();
        Ok(())
    }

    // ------------------------------------------------------------ cached I/O

    /// Write through the client cache (write-behind). Falls back to direct
    /// I/O when the platform disables caching.
    ///
    /// Under lock-driven coherence the cache may only buffer bytes the
    /// client holds token coverage for: covered sub-ranges are buffered
    /// (and may stay dirty past the lock release — a conflicting
    /// acquisition will revoke the token and flush them), uncovered
    /// sub-ranges write through directly, dropping any stale clean copy.
    /// The coverage snapshot and the buffered writes happen under one hold
    /// of the cache mutex — the coherence point a concurrent revocation
    /// also takes before shrinking coverage — so a revocation can never
    /// land mid-call and leave dirty bytes outside coverage.
    pub fn pwrite(&self, offset: u64, data: &[u8]) {
        self.try_pwrite(offset, data)
            .expect("pwrite on a fault-injected file system: use try_pwrite");
    }

    /// [`PosixFile::pwrite`] with the fault model surfaced.
    pub fn try_pwrite(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_alive()?;
        if !self.fs.profile.cache.enabled {
            return self.try_pwrite_direct(offset, data);
        }
        if self.lock_driven() {
            let mut cache = self.cache.lock();
            let cov = self.coverage.lock().clone();
            if cov.is_empty() {
                // No validity rights at all (the common case for
                // strategies that never lock): pure write-through, and
                // coverage-empty implies the cache holds nothing to
                // invalidate. (Coverage only *grows* on this client's own
                // thread, so releasing the mutex here cannot race a grant.)
                drop(cache);
                return self.try_pwrite_direct(offset, data);
            }
            let req = ByteRange::at(offset, data.len() as u64);
            let reqset = IntervalSet::from_range(req);
            let mut needs_flush = false;
            for r in reqset.subtract(&cov).iter() {
                let s = (r.start - offset) as usize;
                self.try_pwrite_direct(r.start, &data[s..s + r.len() as usize])?;
                // The cache has no validity rights here: drop any stale
                // clean copy of what was just overwritten. (Dirty bytes
                // cannot exist outside coverage: buffering requires it,
                // and revocation flushes before shrinking it.)
                cache.invalidate_range(*r);
            }
            for r in reqset.intersect(&cov).iter() {
                let s = (r.start - offset) as usize;
                needs_flush |= self.pwrite_buffered_locked(
                    &mut cache,
                    r.start,
                    &data[s..s + r.len() as usize],
                );
            }
            drop(cache);
            if needs_flush {
                self.try_sync()?;
            }
            return Ok(());
        }
        self.pwrite_buffered(offset, data)
    }

    /// The write-behind body of [`PosixFile::pwrite`] (close-to-open path).
    fn pwrite_buffered(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let needs_flush = {
            let mut cache = self.cache.lock();
            self.pwrite_buffered_locked(&mut cache, offset, data)
        };
        if needs_flush {
            self.try_sync()?;
        }
        Ok(())
    }

    /// Buffer one write into an already-locked cache; returns whether the
    /// write-behind threshold was crossed (the caller flushes *after*
    /// releasing the cache mutex — `sync` re-takes it).
    fn pwrite_buffered_locked(&self, cache: &mut ClientCache, offset: u64, data: &[u8]) -> bool {
        self.clock
            .advance(cache.params().mem.copy_ns(data.len() as u64));
        let needs_flush = cache.write(offset, data);
        self.tracer.instant(
            Category::Cache,
            "cached write",
            self.clock.now(),
            &[("off", offset), ("bytes", data.len() as u64)],
        );
        self.stats.add(&self.stats.writes, 1);
        self.stats.add(&self.stats.bytes_written, data.len() as u64);
        needs_flush
    }

    /// Read through the client cache (with read-ahead on misses).
    ///
    /// Under lock-driven coherence only token-covered sub-ranges go
    /// through the cache (their validity is guaranteed: any conflicting
    /// write must first revoke the token, which invalidates exactly those
    /// ranges); uncovered sub-ranges are read directly and *not* cached,
    /// so no stale byte can ever be admitted. As in [`PosixFile::pwrite`],
    /// the coverage snapshot and the cached accesses share one hold of the
    /// cache mutex, so a concurrent revocation cannot slip between the
    /// snapshot and a fill and let stale bytes in under a coverage the
    /// client no longer holds.
    pub fn pread(&self, offset: u64, buf: &mut [u8]) {
        self.try_pread(offset, buf)
            .expect("pread on a fault-injected file system: use try_pread");
    }

    /// [`PosixFile::pread`] with the fault model surfaced.
    pub fn try_pread(&self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.check_alive()?;
        if !self.fs.profile.cache.enabled {
            return self.try_pread_direct(offset, buf);
        }
        if self.lock_driven() {
            let mut cache = self.cache.lock();
            let cov = self.coverage.lock().clone();
            if cov.is_empty() {
                // No validity rights: pure read-through, nothing cached.
                drop(cache);
                return self.try_pread_direct(offset, buf);
            }
            let req = ByteRange::at(offset, buf.len() as u64);
            let reqset = IntervalSet::from_range(req);
            for r in reqset.subtract(&cov).iter() {
                let s = (r.start - offset) as usize;
                self.try_pread_direct(r.start, &mut buf[s..s + r.len() as usize])?;
            }
            for r in reqset.intersect(&cov).iter() {
                // Each run of the intersection lies inside one coverage
                // run; clamp read-ahead to it so the cache never admits
                // bytes the token does not protect.
                let s = (r.start - offset) as usize;
                let Some(clamp) = cov.runs().iter().find(|c| c.contains_range(r)).copied() else {
                    // A normalized coverage set always has a containing
                    // run; if the invariant ever breaks, fall back to an
                    // uncached direct read rather than admitting bytes
                    // under a clamp we cannot establish.
                    self.try_pread_direct(r.start, &mut buf[s..s + r.len() as usize])?;
                    continue;
                };
                let hit = self.pread_cached_locked(
                    &mut cache,
                    r.start,
                    &mut buf[s..s + r.len() as usize],
                    Some(clamp),
                )?;
                self.stats.add(&self.stats.coherent_hit_bytes, hit);
            }
            return Ok(());
        }
        self.pread_cached(offset, buf, None).map(|_| ())
    }

    /// The cached-read body of [`PosixFile::pread`] (close-to-open path).
    fn pread_cached(
        &self,
        offset: u64,
        buf: &mut [u8],
        clamp: Option<ByteRange>,
    ) -> Result<u64, FsError> {
        let mut cache = self.cache.lock();
        self.pread_cached_locked(&mut cache, offset, buf, clamp)
    }

    /// Serve one read from an already-locked cache: hits from resident
    /// pages, misses fetched with page alignment and read-ahead (`clamp`
    /// bounds the fetch window to a token-coverage run under lock-driven
    /// coherence). Returns the bytes served from cache.
    fn pread_cached_locked(
        &self,
        cache: &mut ClientCache,
        offset: u64,
        buf: &mut [u8],
        clamp: Option<ByteRange>,
    ) -> Result<u64, FsError> {
        let len = buf.len() as u64;
        let link = &self.fs.profile.client_link;

        let missing = cache.missing(offset, len);
        let hit = len - missing.total_len();
        self.stats.add(&self.stats.cache_hit_bytes, hit);
        self.stats
            .add(&self.stats.cache_miss_bytes, missing.total_len());
        if hit > 0 {
            self.tracer.instant(
                Category::Cache,
                "cache hit",
                self.clock.now(),
                &[("bytes", hit)],
            );
        }
        if !missing.is_empty() {
            self.tracer.instant(
                Category::Cache,
                "cache miss",
                self.clock.now(),
                &[("bytes", missing.total_len())],
            );
        }

        if !missing.is_empty() {
            let mut done = self.clock.now();
            for miss in missing.iter() {
                // The fetch window is clamped at the server file size: a
                // real client's EOF-adjacent miss gets a short read, not
                // read-ahead pages of bytes that don't exist.
                let mut window = cache.fetch_window(*miss, self.file.storage.len());
                if let (false, Some(c)) = (window.is_empty(), clamp) {
                    // The EOF-clamped window can fall entirely *before*
                    // the coverage run (covered miss past a short file):
                    // nothing on the servers to fetch, so the whole miss
                    // is a zero hole, handled below.
                    window = window
                        .intersect(&c)
                        .unwrap_or(ByteRange::new(window.start, window.start));
                }
                if !window.is_empty() {
                    self.drain_journal_overlap(window);
                    let mut data = vec![0u8; window.len() as usize];
                    let d = self.server_rpc(
                        self.clock.now() + link.latency_ns,
                        window,
                        ServerOp::Read,
                    )?;
                    done = done.max(d + link.latency_ns + link.payload_ns(window.len()));
                    self.tracer.span(
                        Category::Cache,
                        "cache fill",
                        self.clock.now(),
                        d + link.latency_ns + link.payload_ns(window.len()),
                        &[("bytes", window.len())],
                    );
                    self.file.storage.read_atomic(window.start, &mut data);
                    self.stats.add(
                        &self.stats.server_read_requests,
                        self.fs.servers.requests_for(window),
                    );
                    // Deferred eviction: the pass runs once after the
                    // closing copy-out, so this fill can never drop a page
                    // an earlier part of the *same* read already hit.
                    cache.fill_deferred(window.start, &data);
                }
                // Any part of the miss past EOF is a hole: the short read
                // proves it empty, so it caches as zeros at no transfer
                // cost (and no virtual time).
                let hole_start = miss.start.max(window.end);
                if hole_start < miss.end {
                    cache.fill_deferred(hole_start, &vec![0u8; (miss.end - hole_start) as usize]);
                }
            }
            self.clock.advance_to(done);
        }
        self.clock.advance(cache.params().mem.copy_ns(len));
        cache.read(offset, buf);
        self.tracer.instant(
            Category::Cache,
            "cached read",
            self.clock.now(),
            &[("off", offset), ("bytes", len)],
        );
        // The request's pages were pinned (by eviction deferral) for the
        // copy-out above; settle back under the residency cap now.
        let evicted = cache.enforce_cap();
        if evicted > 0 {
            self.tracer.instant(
                Category::Cache,
                "cache evict",
                self.clock.now(),
                &[("bytes", evicted)],
            );
        }
        self.stats.add(&self.stats.reads, 1);
        self.stats.add(&self.stats.bytes_read, len);
        Ok(hit)
    }

    /// Flush write-behind data to the servers (like `fsync`). The paper's
    /// handshaking strategies must call this after writing (§3, strategy 2).
    ///
    /// The cache mutex is held across drain *and* write-back: a concurrent
    /// revocation serializes against the whole flush instead of slipping in
    /// after the drain marked bytes clean — where it would invalidate,
    /// let its acquirer write, and then watch this flush bury the newer
    /// data under the drained copy.
    pub fn sync(&self) {
        self.try_sync()
            .expect("sync on a fault-injected file system: use try_sync");
    }

    /// [`PosixFile::sync`] with the fault model surfaced: the client may
    /// die at its own flush site ([`FaultAction::KillClient`] →
    /// [`FsError::Closed`], dirty bytes die with it), and a flush whose
    /// retry budget is spent reports the down server.
    pub fn try_sync(&self) -> Result<(), FsError> {
        self.check_alive()?;
        let res = {
            let mut cache = self.cache.lock();
            let runs = cache.take_dirty_runs();
            self.flush_runs(runs)
        };
        self.settle_fate(res)
    }

    /// Flush only the write-behind data overlapping `range` — the
    /// range-accurate `sync` of the coherence protocol. Dirty data outside
    /// `range` stays buffered. Holds the cache mutex across drain and
    /// write-back, like [`PosixFile::sync`].
    pub fn flush_range(&self, range: ByteRange) {
        self.try_flush_range(range)
            .expect("flush_range on a fault-injected file system: use try_flush_range");
    }

    /// [`PosixFile::flush_range`] with the fault model surfaced.
    pub fn try_flush_range(&self, range: ByteRange) -> Result<(), FsError> {
        self.check_alive()?;
        let res = {
            let mut cache = self.cache.lock();
            let runs = cache.take_dirty_runs_in(range);
            self.flush_runs(runs)
        };
        self.settle_fate(res)
    }

    /// Push drained dirty runs to the servers, charging virtual time.
    /// Under an active fault plan every run goes through the write-ahead
    /// journal ([`PosixFile::flush_run_journaled`]); a scheduled
    /// [`FaultAction::KillClient`] kills the client *before* any byte
    /// moves — the drained runs die with it, per the close-without-fsync
    /// contract. Callers holding the cache mutex must route the result
    /// through [`PosixFile::settle_fate`] after releasing it.
    fn flush_runs(&self, runs: Vec<(u64, Vec<u8>)>) -> Result<(), FsError> {
        if runs.is_empty() {
            return Ok(());
        }
        let faulty = self.fs.faults.active();
        if faulty {
            if let Some(FaultAction::KillClient) = self.fs.faults.check(FaultSite::ClientFlush {
                client: self.client,
            }) {
                let fstats = self.fs.faults.stats();
                fstats.add(&fstats.client_deaths, 1);
                self.stats.add(&self.stats.faults_injected, 1);
                self.dead.store(true, Ordering::Release);
                self.tracer.instant(
                    Category::Fault,
                    "client killed",
                    self.clock.now(),
                    &[("dirty_runs", runs.len() as u64)],
                );
                return Err(FsError::Closed);
            }
        }
        let (inj, res) = self.inject_writes(
            runs.iter().map(|(off, data)| (*off, data.as_slice())),
            |arrival, range, data| {
                if faulty {
                    return self.flush_run_journaled(arrival, range.start, data);
                }
                let done = self.fs.servers.access(arrival, range, ServerOp::Write);
                self.apply_write(range.start, data);
                Ok(done)
            },
        );
        res?;
        self.tracer.span(
            Category::Cache,
            "flush",
            inj.t0,
            self.clock.now(),
            &[("bytes", inj.bytes)],
        );
        self.stats.add(&self.stats.flushes, 1);
        self.stats.add(&self.stats.flushed_bytes, inj.bytes);
        self.stats
            .add(&self.stats.server_write_requests, inj.server_reqs);
        Ok(())
    }

    /// One write-behind run under the write-ahead protocol (fault plan
    /// active): ship the bytes (retrying through crashes), append the
    /// committed intent record, apply it, mark it applied. A
    /// [`FaultAction::TearRecord`] at the append tears the record and
    /// crashes the home server — the bytes are still in this flusher's
    /// hand, so the run restarts: the retry loop drives the restart
    /// countdown, recovery replay discards the torn record, and the
    /// re-append lands. A crash at the *apply* step instead leaves a
    /// committed-but-unapplied record and still returns success — the
    /// flush became durable the moment the commit did; recovery replay
    /// (or a reader's journal gate) lands it.
    fn flush_run_journaled(
        &self,
        arrival: VNanos,
        off: u64,
        data: &[u8],
    ) -> Result<VNanos, FsError> {
        let range = ByteRange::at(off, data.len() as u64);
        let home = self.fs.servers.server_of(off);
        let inj = &self.fs.faults;
        let mut arrival = arrival;
        loop {
            arrival = self.server_rpc(arrival, range, ServerOp::Write)?;
            match inj.check(FaultSite::JournalAppend { server: home }) {
                Some(FaultAction::TearRecord { restart }) => {
                    self.file.journal.append_torn(off, range.len());
                    let fstats = inj.stats();
                    fstats.add(&fstats.records_torn, 1);
                    self.stats.add(&self.stats.faults_injected, 1);
                    self.fs.servers.crash(home, restart);
                    self.tracer.instant(
                        Category::Fault,
                        "torn journal append",
                        arrival,
                        &[("server", home as u64), ("bytes", range.len())],
                    );
                    continue;
                }
                Some(FaultAction::CrashServer { restart }) => {
                    // Crash *before* the record went down at all: nothing
                    // journaled, nothing torn; the run restarts whole.
                    self.fs.servers.crash(home, restart);
                    continue;
                }
                _ => {}
            }
            let epoch = self.file.journal.append_committed(off, data);
            match inj.check(FaultSite::JournalApply { server: home }) {
                Some(FaultAction::CrashServer { restart })
                | Some(FaultAction::TearRecord { restart }) => {
                    self.fs.servers.crash(home, restart);
                    self.tracer.instant(
                        Category::Fault,
                        "crash before apply",
                        arrival,
                        &[("server", home as u64), ("epoch", epoch)],
                    );
                }
                _ => {
                    self.apply_write(off, data);
                    self.file.journal.mark_applied(epoch);
                }
            }
            return Ok(arrival);
        }
    }

    /// Flush, then drop all cached pages, so the next read fetches fresh
    /// data from the servers (close-to-open consistency; the "cache
    /// invalidation shall also be performed in each process before reading
    /// from the overlapped regions" requirement of §3). Lock-driven
    /// platforms rarely need this blanket form — see
    /// [`PosixFile::invalidate_range`].
    pub fn invalidate(&self) {
        self.try_invalidate()
            .expect("invalidate on a fault-injected file system: use try_invalidate");
    }

    /// [`PosixFile::invalidate`] with the fault model surfaced.
    pub fn try_invalidate(&self) -> Result<(), FsError> {
        self.try_sync()?;
        self.cache.lock().invalidate();
        Ok(())
    }

    /// Byte-accurate invalidation: flush the dirty data overlapping
    /// `range`, then drop cache validity for exactly `range` — the rest of
    /// the cache stays warm. This is what a served token revocation does,
    /// exposed for callers that know precisely which bytes went stale.
    pub fn invalidate_range(&self, range: ByteRange) {
        self.try_invalidate_range(range)
            .expect("invalidate_range on a fault-injected file system: use try_invalidate_range");
    }

    /// [`PosixFile::invalidate_range`] with the fault model surfaced.
    pub fn try_invalidate_range(&self, range: ByteRange) -> Result<(), FsError> {
        self.try_flush_range(range)?;
        self.cache.lock().invalidate_range(range);
        Ok(())
    }

    /// Whether this handle runs lock-driven cache coherence (the platform
    /// selects it and the lock design keeps revocable tokens).
    pub fn lock_driven(&self) -> bool {
        self.fs.profile.lock_driven_coherence()
    }

    /// The byte set this client currently holds token-validity rights
    /// over (lock-driven coherence; empty on close-to-open platforms).
    pub fn coherence_coverage(&self) -> IntervalSet {
        self.coverage.lock().clone()
    }

    // ------------------------------------------------------------------ locks

    /// Acquire a byte-range lock. Fails on platforms without lock support
    /// (ENFS/Cplant), exactly as the paper had to skip the file-locking
    /// experiments there.
    pub fn lock(&self, range: ByteRange, mode: LockMode) -> Result<LockGuard<'_>, FsError> {
        self.lock_set(&StridedSet::from_range(range), mode)
    }

    /// Acquire an **atomic multi-range list lock** over every range of
    /// `set` — granted all-or-nothing under the backend's fair vtime
    /// queue, so disjoint footprints never serialize and partial grants
    /// (the 2PL deadlock shape) cannot exist. One `LockGuard` releases the
    /// whole set.
    pub fn lock_set(&self, set: &StridedSet, mode: LockMode) -> Result<LockGuard<'_>, FsError> {
        let locks = self.lock_manager()?;
        let grant = locks.acquire_set(self.client, set, mode, self.clock.now());
        Ok(self.granted(locks, set, mode, grant))
    }

    /// Two-phase byte-range lock: register the request, run `sync` (the MPI
    /// layer passes a barrier), then block for the grant. When every
    /// contender registers before any waits, grants follow the fair
    /// `(vtime, client)` order, which makes collective atomic-mode locking
    /// deterministic — including GPFS token-revocation counts.
    pub fn lock_two_phase(
        &self,
        range: ByteRange,
        mode: LockMode,
        sync: impl FnOnce(),
    ) -> Result<LockGuard<'_>, FsError> {
        self.lock_set_two_phase(&StridedSet::from_range(range), mode, sync)
    }

    /// [`PosixFile::lock_set`] with the two-phase register/`sync`/wait
    /// handshake of [`PosixFile::lock_two_phase`].
    pub fn lock_set_two_phase(
        &self,
        set: &StridedSet,
        mode: LockMode,
        sync: impl FnOnce(),
    ) -> Result<LockGuard<'_>, FsError> {
        let locks = self.lock_manager()?;
        let now = self.clock.now();
        let ticket = locks.register_set(self.client, set, mode, now);
        sync();
        let grant = locks.wait_granted_set(ticket, self.client, set, mode, now);
        Ok(self.granted(locks, set, mode, grant))
    }

    fn lock_manager(&self) -> Result<&LockManager, FsError> {
        self.file.locks.as_ref().ok_or(FsError::LocksUnsupported {
            file_system: self.fs.profile.file_system,
        })
    }

    /// Book a grant: charge stats, advance the clock, wrap in a guard.
    fn granted<'f>(
        &'f self,
        locks: &'f LockManager,
        set: &StridedSet,
        mode: LockMode,
        grant: SetGrant,
    ) -> LockGuard<'f> {
        self.stats.add(&self.stats.lock_acquires, 1);
        self.stats.add(&self.stats.lock_ranges, set.run_count());
        // A token hit is a grant served entirely from cached tokens — no
        // lock-server round trip anywhere.
        self.stats.add(
            &self.stats.lock_token_hits,
            (grant.token_hits > 0 && grant.shard_trips == 0) as u64,
        );
        self.stats
            .add(&self.stats.lock_shard_trips, grant.shard_trips);
        self.stats
            .add(&self.stats.lock_serialized_grants, grant.serialized as u64);
        let now = self.clock.now();
        let wait = grant.granted_at.saturating_sub(now);
        self.stats.add(&self.stats.lock_wait_ns, wait);
        self.fs.latency.grant_wait.record(wait);
        // Footprint + mode ride on both the grant span and (via the
        // guard) the release instant: they are the conflict test of the
        // happens-before checker's release→acquire edges. Skipped when
        // tracing is off — the args are pure observability.
        let mut release_args = Vec::new();
        if self.tracer.is_enabled() {
            let mut args = vec![
                ("ranges", set.run_count()),
                ("serialized", grant.serialized as u64),
                ("token_hits", grant.token_hits),
                ("excl", (mode == LockMode::Exclusive) as u64),
            ];
            push_footprint(&mut args, set.iter_runs());
            self.tracer
                .span(Category::Lock, "lock wait", now, grant.granted_at, &args);
            release_args.push(("excl", (mode == LockMode::Exclusive) as u64));
            push_footprint(&mut release_args, set.iter_runs());
        }
        self.clock.advance_to(grant.granted_at);
        // The grant's token confers cache-validity rights over the set
        // (kept after release, until a conflicting acquisition revokes it)
        // — recorded NOT here but by the lock manager's grant-coverage
        // dispatch to this handle's `CacheCoherence::granted`, under the
        // manager's state mutex: growing coverage after the acquisition
        // returned would race a revocation landing in between and
        // resurrect already-revoked rights.
        LockGuard {
            file: self,
            locks,
            id: grant.id,
            released: false,
            release_args,
        }
    }

    /// Release-history entries retained by this file's lock manager
    /// (diagnostics: the boundedness the history pruner guarantees for
    /// long-running handles). 0 on lockless platforms.
    pub fn lock_history_len(&self) -> usize {
        self.file.locks.as_ref().map_or(0, LockManager::history_len)
    }

    fn apply_write(&self, offset: u64, data: &[u8]) {
        if self.fs.profile.posix_atomic_calls {
            self.file.storage.write_atomic(offset, data);
        } else {
            self.file
                .storage
                .write_nonatomic(offset, data, self.fs.profile.nonatomic_chunk);
        }
    }
}

impl<'f> LockGuard<'f> {
    /// Release explicitly at the holder's current virtual time.
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            self.released = true;
            let now = self.file.clock.now();
            self.file
                .tracer
                .instant(Category::Lock, "lock release", now, &self.release_args);
            self.locks.release(self.id, now);
        }
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.do_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LockKind;
    use crate::stats::StatsSnapshot;

    fn test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile::fast_test())
    }

    #[test]
    fn direct_write_read_roundtrip_and_time() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.pwrite_direct(0, &[7u8; 2048]);
        assert!(f.clock().now() > 0, "direct I/O must cost virtual time");
        let mut buf = [0u8; 2048];
        f.pread_direct(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 7));
        let s = f.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 2048);
        assert_eq!(s.bytes_read, 2048);
    }

    // Batch timing on `fast_test`: NIC 1 byte/ns + 500 ns per request, link
    // latency 1 us, servers 1 us per request + 1 byte/ns, four servers with
    // 4 KiB stripes — a stripe row is 16 KiB.
    const ROW: usize = 4 * 4096;

    /// Submit `writes` as one batch on a fresh file system, retire it, and
    /// return the completion time and the client's counters.
    fn batch_completion(writes: &[(u64, &[u8])]) -> (VNanos, StatsSnapshot) {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.pwrite_batch(writes, 0);
        f.complete_writes(ticket, 0);
        let image = fs.snapshot("batch").unwrap();
        for (off, data) in writes {
            assert_eq!(&image[*off as usize..][..data.len()], *data);
        }
        (f.clock().now(), f.stats().snapshot())
    }

    #[test]
    fn batch_extent_streams_to_the_servers_by_stripe_row() {
        // One extent of eight stripe rows leaves as eight requests. Request
        // i is injected by (i+1)·(500 + 16384) and lands 1 us later, where
        // every server takes 1000 + 4096 ns for its stripe — less than one
        // injection, so no request queues behind the one before it.
        let data = vec![3u8; 8 * ROW];
        let (done, stats) = batch_completion(&[(0, &data)]);
        let nic = 8 * (500 + ROW as u64);
        let row_service = 1_000 + 4_096;
        assert_eq!(done, nic + 1_000 + row_service + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (1, 8 * 4));
        // Stored whole in the NIC first, the servers would start only after
        // the last byte: NIC time + the whole extent's service.
        assert!(done < nic + 1_000 + 8 * 4_096);
    }

    #[test]
    fn adjacent_batch_entries_time_as_one_extent() {
        // An extent crossing a stripe-row boundary, in one slice and in
        // three: same requests, same completion.
        let data: Vec<u8> = (0..6000u32).map(|i| i as u8).collect();
        let off = ROW as u64 - 2_500;
        let whole = batch_completion(&[(off, &data)]);
        let pieces = batch_completion(&[
            (off, &data[..1000]),
            (off + 1000, &data[1000..4000]),
            (off + 4000, &data[4000..]),
        ]);
        assert_eq!(whole.0, pieces.0);
        assert_eq!(pieces.1.writes, 1, "three slices, one extent");
        assert_eq!(
            whole.1.server_write_requests,
            pieces.1.server_write_requests
        );
        // Two requests: [off, ROW) on server 3 and [ROW, off + 6000) on
        // server 0. The second is injected by 2·500 + 6000, lands 1 us
        // later and is served in 1000 + 3500.
        assert_eq!(whole.1.server_write_requests, 2);
        assert_eq!(whole.0, 7_000 + 1_000 + 4_500 + 1_000);

        // Entries with a gap between them stay separate extents.
        let apart = batch_completion(&[(0, &data[..1000]), (1001, &data[1000..2000])]);
        assert_eq!(apart.1.writes, 2);
    }

    #[test]
    fn batch_extent_inside_one_row_is_a_single_request() {
        // What a batch entry has always cost: `client_op_ns + payload_ns`
        // on the NIC, one latency to the servers, the slowest per-server
        // piece, one latency back. [4196, 10196) puts 3996 bytes on server 1
        // and 2004 on server 2.
        let data = vec![9u8; 6000];
        let (done, stats) = batch_completion(&[(4196, &data)]);
        assert_eq!(done, (500 + 6_000) + 1_000 + (1_000 + 3_996) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (1, 2));

        // Separate extents queue on the NIC one after the other.
        let (done, stats) = batch_completion(&[(0, &data[..100]), (8192, &data[..200])]);
        assert_eq!(done, (600 + 700) + 1_000 + (1_000 + 200) + 1_000);
        assert_eq!((stats.writes, stats.server_write_requests), (2, 2));
    }

    #[test]
    fn cached_write_is_invisible_until_sync() {
        let fs = test_fs();
        let writer = fs.open(0, Clock::new(), "a");
        let reader = fs.open(1, Clock::new(), "a");

        writer.pwrite(0, b"fresh!");
        // Write-behind: nothing on the servers yet.
        let mut buf = [0u8; 6];
        reader.pread_direct(0, &mut buf);
        assert_eq!(
            &buf, &[0u8; 6],
            "write-behind data must not be visible before sync"
        );

        writer.sync();
        reader.pread_direct(0, &mut buf);
        assert_eq!(&buf, b"fresh!");
    }

    #[test]
    fn stale_cached_read_until_invalidate() {
        let fs = test_fs();
        let a = fs.open(0, Clock::new(), "a");
        let b = fs.open(1, Clock::new(), "a");

        a.pwrite_direct(0, b"old");
        let mut buf = [0u8; 3];
        b.pread(0, &mut buf); // b now caches "old"
        assert_eq!(&buf, b"old");

        a.pwrite_direct(0, b"new");
        b.pread(0, &mut buf);
        assert_eq!(&buf, b"old", "cached page must serve stale data");

        b.invalidate();
        b.pread(0, &mut buf);
        assert_eq!(&buf, b"new", "invalidate must force a fresh fetch");
    }

    #[test]
    fn write_behind_flushes_on_threshold() {
        let fs = test_fs(); // write_behind_limit = 4 KiB in test params
        let f = fs.open(0, Clock::new(), "a");
        f.pwrite(0, &vec![1u8; 8 * 1024]);
        // Threshold exceeded -> auto flush -> visible to others.
        let g = fs.open(1, Clock::new(), "a");
        let mut buf = vec![0u8; 8 * 1024];
        g.pread_direct(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 1));
        assert!(f.stats().snapshot().flushes >= 1);
    }

    #[test]
    fn lock_unsupported_on_enfs() {
        let fs = FileSystem::new(PlatformProfile::cplant());
        let f = fs.open(0, Clock::new(), "a");
        let err = match f.lock(ByteRange::new(0, 10), LockMode::Exclusive) {
            Ok(_) => panic!("ENFS must reject lock requests"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            FsError::LocksUnsupported {
                file_system: "ENFS"
            }
        );
    }

    #[test]
    fn exclusive_lock_serializes_writers_in_vtime() {
        let fs = test_fs();
        let hold_write = 64 * 1024u64;
        let mut ends = Vec::new();
        for client in 0..3 {
            let f = fs.open(client, Clock::new(), "a");
            let guard = f
                .lock(ByteRange::new(0, 1 << 30), LockMode::Exclusive)
                .unwrap();
            f.pwrite_direct(0, &vec![client as u8; hold_write as usize]);
            guard.release();
            ends.push(f.clock().now());
        }
        // Each client's completion is ordered after the previous release.
        assert!(ends[1] > ends[0]);
        assert!(ends[2] > ends[1]);
    }

    #[test]
    fn gpfs_token_hits_recorded() {
        let fs = FileSystem::new(PlatformProfile {
            lock_kind: LockKind::Distributed,
            ..PlatformProfile::fast_test()
        });
        let f = fs.open(0, Clock::new(), "a");
        f.lock(ByteRange::new(0, 100), LockMode::Exclusive)
            .unwrap()
            .release();
        f.lock(ByteRange::new(0, 50), LockMode::Exclusive)
            .unwrap()
            .release();
        let s = f.stats().snapshot();
        assert_eq!(s.lock_acquires, 2);
        assert_eq!(s.lock_token_hits, 1);
    }

    #[test]
    fn listio_is_atomic_and_cheaper_than_sequential() {
        let fs = test_fs();
        let rows: Vec<(u64, Vec<u8>)> =
            (0..64u64).map(|r| (r * 4096, vec![r as u8; 512])).collect();

        let f1 = fs.open(0, Clock::new(), "listio");
        let segs: Vec<(u64, &[u8])> = rows.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        f1.listio_direct_atomic(&segs);
        let t_listio = f1.clock().now();

        let fs2 = test_fs();
        let f2 = fs2.open(0, Clock::new(), "seq");
        for (o, d) in &rows {
            f2.pwrite_direct(*o, d);
        }
        let t_seq = f2.clock().now();
        assert!(
            t_listio < t_seq,
            "pipelined listio ({t_listio}) should beat sequential pwrites ({t_seq})"
        );
        assert_eq!(
            fs.snapshot("listio").unwrap().len(),
            fs2.snapshot("seq").unwrap().len()
        );
    }

    // fast_test costs, spelled out for the closed forms below: 1 ns per
    // payload byte, 1 µs link latency, 500 ns per extra request, and a
    // server piece costs 1 µs + 1 ns per byte; 4 servers × 4 KiB stripes.
    const SEG: u64 = 512;
    const LAT: u64 = 1_000;
    const OP: u64 = 500;
    const SERVICE: u64 = 1_000 + SEG;

    /// `n` 512-byte segments `stride` bytes apart, segment `i` filled
    /// with `i + 1`.
    fn strided_rows(n: u64, stride: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| (i * stride, vec![i as u8 + 1; SEG as usize]))
            .collect()
    }

    fn as_segments(rows: &[(u64, Vec<u8>)]) -> Vec<(u64, &[u8])> {
        rows.iter().map(|(o, d)| (*o, d.as_slice())).collect()
    }

    fn assert_rows_landed(image: &[u8], rows: &[(u64, Vec<u8>)]) {
        for (off, data) in rows {
            assert_eq!(&image[*off as usize..][..data.len()], data.as_slice());
        }
    }

    #[test]
    fn one_segment_vector_costs_exactly_one_synchronous_write() {
        let data = [9u8; SEG as usize];
        let f = test_fs().open(0, Clock::new(), "one");
        f.pwrite_direct(4096, &data);
        let g = test_fs().open(0, Clock::new(), "one");
        g.try_pwritev_direct(&[(4096, &data)]).unwrap();
        // payload, request latency, service, ack latency — in turn.
        assert_eq!(f.clock().now(), SEG + LAT + SERVICE + LAT);
        assert_eq!(g.clock().now(), f.clock().now());
        assert_eq!(g.stats().snapshot(), f.stats().snapshot());
        assert_eq!(f.stats().snapshot().server_write_requests, 1);
    }

    #[test]
    fn vector_over_distinct_servers_is_bound_by_the_nic() {
        // One segment per server: each is served the moment it arrives, so
        // the last injected one finishes last.
        let n = 4;
        let rows = strided_rows(n, 4096);
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "spread");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        assert_eq!(
            f.clock().now(),
            n * SEG + (n - 1) * OP + LAT + SERVICE + LAT
        );
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (n, n * SEG));
        assert_eq!(s.server_write_requests, n);
        assert_rows_landed(&fs.snapshot("spread").unwrap(), &rows);
    }

    #[test]
    fn vector_on_one_server_is_bound_by_that_servers_horizon() {
        // Every segment homes on server 0 and arrives faster (SEG + OP
        // apart) than it is served, so they queue: the end time is the
        // first arrival plus n services, whatever the NIC could inject.
        let n = 4;
        let rows = strided_rows(n, 4 * 4096);
        let f = test_fs().open(0, Clock::new(), "queue");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        assert_eq!(f.clock().now(), SEG + LAT + n * SERVICE + LAT);
        assert!(f.clock().now() > n * SEG + (n - 1) * OP + LAT + SERVICE + LAT);
    }

    /// A plan crashing server 0 on its `k`-th request.
    fn crash_server0_at(k: u64, restart: RestartPolicy) -> FileSystem {
        FileSystem::with_faults(
            PlatformProfile::fast_test(),
            FaultPlan::none().with(
                FaultSite::ServerRequest { server: 0 },
                k,
                FaultAction::CrashServer { restart },
            ),
        )
    }

    #[test]
    fn vector_retries_through_a_crash_and_completes() {
        let rows = strided_rows(4, 4 * 4096);
        let fs = crash_server0_at(3, RestartPolicy::Rejections(2));
        let f = fs.open(0, Clock::new(), "retry");
        f.try_pwritev_direct(&as_segments(&rows)).unwrap();
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (4, 4 * SEG));
        assert_eq!((s.retries, s.faults_injected), (2, 1));
        assert_eq!(s.journal_replays, 1, "the second rejection owns recovery");
        assert!(!fs.server_down(0));
        assert_rows_landed(&fs.snapshot("retry").unwrap(), &rows);
    }

    #[test]
    fn submitted_batch_is_deferred_when_healthy_and_synchronous_under_a_plan() {
        let rows = strided_rows(4, 4 * 4096);
        // Healthy: a ticket, redeemed after the submitters' fence.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "batch");
        let ticket = f.submit_writes(&as_segments(&rows), 0, false).unwrap();
        f.complete_writes(ticket.expect("deferred batch"), 0);
        assert_rows_landed(&fs.snapshot("batch").unwrap(), &rows);
        // Armed: no ticket, and a server that is down takes no byte — the
        // batch stops at the request that finds it so.
        let fs = crash_server0_at(1, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "batch");
        let err = f.submit_writes(&as_segments(&rows), 0, false).unwrap_err();
        assert!(matches!(err, FsError::RetriesExhausted { server: 0, .. }));
        assert_eq!(f.stats().snapshot().bytes_written, 0);
        assert_eq!(fs.servers().pending_requests(), 0);
    }

    #[test]
    fn vector_stops_at_the_failing_segment_with_the_earlier_ones_applied() {
        let k = 3;
        let rows = strided_rows(4, 4 * 4096);
        let fs = crash_server0_at(k, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "stop");
        let err = f.try_pwritev_direct(&as_segments(&rows)).unwrap_err();
        assert_eq!(
            err,
            FsError::RetriesExhausted {
                server: 0,
                attempts: fs.profile().max_retries + 1
            }
        );
        // Exactly the first k − 1 segments landed: applied, counted, and
        // their time charged; the failing one and those after it are not.
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written), (k - 1, (k - 1) * SEG));
        assert_eq!(s.server_write_requests, k - 1);
        assert_eq!(f.clock().now(), SEG + LAT + (k - 1) * SERVICE + LAT);
        let (last_off, last) = &rows[k as usize - 2];
        let image = fs.snapshot("stop").unwrap();
        assert_eq!(
            image.len() as u64,
            last_off + SEG,
            "nothing past segment k−1"
        );
        assert_eq!(&image[*last_off as usize..], last.as_slice());
    }

    #[test]
    fn listio_and_flush_share_the_vector_formula() {
        let n = 4;
        let rows = strided_rows(n, 4096);
        let nic_bound = n * SEG + (n - 1) * OP + LAT + SERVICE + LAT;
        let f = test_fs().open(0, Clock::new(), "lio");
        f.listio_direct_atomic(&as_segments(&rows));
        assert_eq!(f.clock().now(), nic_bound);

        // Two dirty runs on two servers, flushed by one sync.
        let g = test_fs().open(0, Clock::new(), "flush");
        g.pwrite(0, &rows[0].1);
        g.pwrite(4096, &rows[1].1);
        let t0 = g.clock().now();
        g.sync();
        assert_eq!(g.clock().now() - t0, 2 * SEG + OP + LAT + SERVICE + LAT);
        let s = g.stats().snapshot();
        assert_eq!((s.flushes, s.flushed_bytes), (1, 2 * SEG));
        assert_eq!(s.server_write_requests, 2);
    }

    #[test]
    fn snapshot_and_len_of_missing_file() {
        let fs = test_fs();
        assert!(fs.snapshot("nope").is_none());
        assert!(fs.file_len("nope").is_none());
        assert!(!fs.delete("nope"));
    }

    #[test]
    fn eof_adjacent_cached_read_fetches_only_existing_bytes() {
        // Regression: the fetch window used to page-align and read ahead
        // past EOF, charging virtual time (and marking pages resident) for
        // bytes that don't exist. 1 KiB pages, 2 pages read-ahead.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "short");
        f.pwrite_direct(0, &[7u8; 100]); // file is 100 bytes long
        let t0 = f.clock().now();

        let mut buf = [0u8; 100];
        f.pread(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 7));
        let clamped_cost = f.clock().now() - t0;

        // The same read against a file long enough for the full 3 KiB
        // window must cost strictly more — the unclamped fetch volume.
        let g = fs.open(1, Clock::new(), "long");
        g.pwrite_direct(0, &vec![7u8; 4096]);
        let t0 = g.clock().now();
        g.pread(0, &mut buf);
        let full_cost = g.clock().now() - t0;
        assert!(
            clamped_cost < full_cost,
            "EOF-clamped fetch ({clamped_cost}) must cost less than a full \
             window ({full_cost})"
        );

        // Read-ahead past EOF must not have marked pages resident: a later
        // read behind EOF is a miss, not a phantom hit.
        let mut tail = [0u8; 50];
        f.pread(2000, &mut tail);
        assert_eq!(tail, [0u8; 50]);
        let s = f.stats().snapshot();
        assert_eq!(
            s.cache_miss_bytes, 150,
            "both reads must miss; beyond-EOF read-ahead must not fabricate hits"
        );
    }

    #[test]
    fn cached_read_entirely_past_eof_is_free_zeros() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.pwrite_direct(0, b"x");
        let t0 = f.clock().now();
        let mut buf = [9u8; 16];
        f.pread(5000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        let s = f.stats().snapshot();
        assert_eq!(
            s.server_read_requests, 0,
            "no server fetch for a hole past EOF"
        );
        // Only local memory-copy time may pass, no server/link round trips.
        let mem_only = fs.profile().cache.mem.copy_ns(16);
        assert!(f.clock().now() - t0 <= mem_only);
    }

    #[test]
    fn rmw_patches_holes_with_server_contents() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "rmw");
        f.pwrite_direct(0, &[1u8; 64]);
        // Patch bytes 8..16 and 32..40 in one window RMW.
        let p1 = [2u8; 8];
        let p2 = [3u8; 8];
        f.rmw_direct(ByteRange::new(0, 64), &[(8, &p1), (32, &p2)], false);
        let snap = fs.snapshot("rmw").unwrap();
        assert_eq!(&snap[0..8], &[1u8; 8]);
        assert_eq!(&snap[8..16], &[2u8; 8]);
        assert_eq!(&snap[16..32], &[1u8; 16]);
        assert_eq!(&snap[32..40], &[3u8; 8]);
        assert_eq!(&snap[40..64], &[1u8; 24]);
        let s = f.stats().snapshot();
        // One read + one write regardless of patch count.
        assert_eq!((s.reads, s.writes), (1, 2)); // +1 write for the seed
    }

    #[test]
    fn rmw_skips_read_when_fully_covered() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "rmwfull");
        let data = [5u8; 32];
        f.rmw_direct(ByteRange::new(0, 32), &[(0, &data)], false);
        let s = f.stats().snapshot();
        assert_eq!(s.reads, 0, "fully covered window needs no hole fill");
        assert_eq!(s.writes, 1);
        assert_eq!(fs.snapshot("rmwfull").unwrap(), vec![5u8; 32]);
    }

    #[test]
    fn rmw_locked_excludes_concurrent_writers() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "rmwlock");
        f.pwrite_direct(0, &[0u8; 128]);
        let patch = [9u8; 8];
        f.rmw_locked(ByteRange::new(0, 128), &[(64, &patch)])
            .unwrap();
        let snap = fs.snapshot("rmwlock").unwrap();
        assert_eq!(&snap[64..72], &[9u8; 8]);
        assert_eq!(f.stats().snapshot().lock_acquires, 1);
        // Lockless platform: the locked RMW path must refuse.
        let enfs = FileSystem::new(PlatformProfile::cplant());
        let g = enfs.open(0, Clock::new(), "x");
        assert!(g.rmw_locked(ByteRange::new(0, 8), &[]).is_err());
    }

    #[test]
    fn server_request_accounting_merges_stripes() {
        // fast_test: 4 servers, 4 KiB stripes. A 32 KiB access touches all
        // 4 servers twice, merged to 4 requests; a 1 KiB access touches 1.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "acct");
        f.pwrite_direct(0, &vec![1u8; 32 * 1024]);
        f.pwrite_direct(0, &[1u8; 1024]);
        let mut buf = vec![0u8; 8 * 1024];
        f.pread_direct(0, &mut buf);
        let s = f.stats().snapshot();
        assert_eq!(s.server_write_requests, 4 + 1);
        assert_eq!(s.server_read_requests, 2);
    }

    #[test]
    fn read_of_hole_returns_zeros() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.pwrite_direct(100, b"x");
        let mut buf = [9u8; 4];
        f.pread(0, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    /// fast_test timing with GPFS-style tokens and lock-driven coherence.
    fn gpfs_test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile {
            lock_kind: LockKind::Distributed,
            coherence: crate::profile::CoherenceMode::LockDriven,
            ..PlatformProfile::fast_test()
        })
    }

    #[test]
    fn lock_driven_reread_is_served_from_cache() {
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "coh");
        let r = ByteRange::new(0, 2048);
        let g = f.lock(r, LockMode::Exclusive).unwrap();
        f.pwrite(0, &[7u8; 2048]);
        g.release();
        assert_eq!(f.coherence_coverage().total_len(), 2048);
        // Re-read under a (cheap, token-cached) shared lock: the write
        // left the bytes valid in cache and the token still covers them —
        // zero server read requests, no blanket invalidation anywhere.
        let g = f.lock(r, LockMode::Shared).unwrap();
        let mut buf = [0u8; 2048];
        f.pread(0, &mut buf);
        g.release();
        assert_eq!(buf, [7u8; 2048]);
        let s = f.stats().snapshot();
        assert_eq!(s.server_read_requests, 0, "re-read must hit the cache");
        assert_eq!(s.coherent_hit_bytes, 2048);
    }

    #[test]
    fn revocation_flushes_dirty_and_invalidates_exactly_the_ranges() {
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "coh");
        let b = fs.open(1, Clock::new(), "coh");

        let g = a
            .lock(ByteRange::new(0, 4096), LockMode::Exclusive)
            .unwrap();
        a.pwrite(0, &[0xA0u8; 4096]); // write-behind: stays dirty
        g.release();
        assert!(
            fs.snapshot("coh").unwrap().iter().all(|&x| x == 0),
            "write-behind data must not have reached the servers yet"
        );

        // B's conflicting acquisition revokes exactly [1024, 2048): A's
        // dirty bytes there are flushed (visible to B), the rest of A's
        // cache stays warm and dirty.
        let g = b
            .lock(ByteRange::new(1024, 2048), LockMode::Exclusive)
            .unwrap();
        let mut seen = [0u8; 1024];
        b.pread_direct(1024, &mut seen);
        assert_eq!(seen, [0xA0u8; 1024], "revocation must flush A's data");
        b.pwrite_direct(1024, &[0xB1u8; 1024]);
        g.release();

        let s = a.stats().snapshot();
        assert_eq!(s.revocations_served, 1);
        assert_eq!(s.revoke_flushed_bytes, 1024);
        assert_eq!(s.coherence_invalidated_bytes, 1024);
        assert_eq!(
            a.coherence_coverage().total_len(),
            4096 - 1024,
            "only the revoked ranges lose validity rights"
        );

        // A re-reads everything under a lock: the revoked range is fetched
        // fresh (B's bytes), the untouched ranges come from A's warm cache.
        let g = a.lock(ByteRange::new(0, 4096), LockMode::Shared).unwrap();
        let mut buf = [0u8; 4096];
        a.pread(0, &mut buf);
        g.release();
        assert_eq!(&buf[0..1024], &[0xA0u8; 1024][..]);
        assert_eq!(&buf[1024..2048], &[0xB1u8; 1024][..], "no stale read");
        assert_eq!(&buf[2048..4096], &[0xA0u8; 2048][..]);
    }

    #[test]
    fn dropped_handle_unregisters_and_cannot_resurrect_discarded_data() {
        // Regression: the hub used to keep a dropped handle's cache alive
        // forever, and a later revocation would flush its abandoned
        // write-behind data into the file — resurrecting bytes the program
        // discarded by dropping the handle without sync (like closing a
        // POSIX fd without fsync).
        let fs = gpfs_test_fs();
        {
            let a = fs.open(0, Clock::new(), "drop");
            let g = a
                .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
                .unwrap();
            a.pwrite(0, &[0xDDu8; 1024]); // write-behind, never synced
            g.release();
        } // dropped without sync: the data is gone, and so is the handler

        let b = fs.open(1, Clock::new(), "drop");
        let g = b
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 16];
        b.pread_direct(0, &mut buf);
        g.release();
        assert_eq!(buf, [0u8; 16], "discarded write-behind data resurrected");

        // A re-opened handle registers afresh and coherence works again.
        let a2 = fs.open(0, Clock::new(), "drop");
        let g = a2
            .lock(ByteRange::new(0, 512), LockMode::Exclusive)
            .unwrap();
        a2.pwrite(0, &[0xEEu8; 512]);
        g.release();
        let g = b.lock(ByteRange::new(0, 512), LockMode::Exclusive).unwrap();
        b.pread_direct(0, &mut buf);
        g.release();
        assert_eq!(buf, [0xEEu8; 16], "live handle must still be revocable");
        assert_eq!(a2.stats().snapshot().revocations_served, 1);
    }

    #[test]
    fn reopened_handle_supersedes_and_neutralizes_the_old_one() {
        // Regression: re-opening the same (client, file) replaced the
        // CoherenceHub registration but left the superseded handle fully
        // armed — warm coverage, cached pages, possibly dirty write-behind
        // — while it no longer received revocations, so its cached reads
        // could go silently stale and its dirty bytes would never be
        // revocation-flushed. Superseding now clears its coverage and
        // discards its cache.
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "dup");
        let g = a
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        a.pwrite(0, &[0x11u8; 1024]); // dirty write-behind under coverage
        g.release();
        assert_eq!(a.coherence_coverage().total_len(), 1024);

        let a2 = fs.open(0, Clock::new(), "dup");
        assert_eq!(
            a.coherence_coverage().total_len(),
            0,
            "superseded handle must lose its validity rights"
        );
        // The old handle's cached+dirty data was discarded (the same
        // close-without-fsync contract as dropping the handle): its reads
        // fall through to the servers, and its sync flushes nothing.
        let mut buf = [9u8; 16];
        a.pread(0, &mut buf);
        assert_eq!(buf, [0u8; 16], "old handle must not serve discarded data");
        a.sync();
        let b = fs.open(1, Clock::new(), "dup");
        let mut seen = [9u8; 16];
        b.pread_direct(0, &mut seen);
        assert_eq!(seen, [0u8; 16], "discarded write-behind data resurrected");

        // The successor participates in coherence normally.
        let g = a2
            .lock(ByteRange::new(0, 512), LockMode::Exclusive)
            .unwrap();
        a2.pwrite(0, &[0x22u8; 512]);
        g.release();
        let g = b.lock(ByteRange::new(0, 512), LockMode::Exclusive).unwrap();
        b.pread_direct(0, &mut seen);
        g.release();
        assert_eq!(seen, [0x22u8; 16], "successor must still be revocable");
        assert_eq!(a2.stats().snapshot().revoke_flushed_bytes, 512);
    }

    /// fast_test timing with Lustre-style sharded **token** domains and
    /// lock-driven coherence.
    fn sharded_gpfs_test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile {
            lock_kind: LockKind::ShardedTokens,
            coherence: crate::profile::CoherenceMode::LockDriven,
            ..PlatformProfile::fast_test()
        })
    }

    #[test]
    fn sharded_tokens_shared_grant_revocation_keeps_reads_fresh() {
        // LockKind::ShardedTokens revokes overlapping tokens on ANY
        // non-cached grant — including a *shared* grant that
        // conflict-waits on nobody — so a holder can lose coverage with
        // no lock-queue serialization anywhere. The revocation must still
        // flush + invalidate coherently (the cache mutex excludes the
        // mid-access TOCTOU), and the holder's next access must fetch
        // fresh bytes.
        let fs = sharded_gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "scoh");
        let b = fs.open(1, Clock::new(), "scoh");

        let g = a
            .lock(ByteRange::new(0, 2048), LockMode::Exclusive)
            .unwrap();
        a.pwrite(0, &[0xAAu8; 2048]); // write-behind: stays dirty
        g.release();
        assert!(
            fs.snapshot("scoh").unwrap().iter().all(|&x| x == 0),
            "write-behind data must not have reached the servers yet"
        );

        // B's overlapping SHARED grant revokes A's token over [1024, 1536):
        // A's dirty bytes there are flushed so B reads them through its
        // own freshly covered cache.
        let g = b
            .lock(ByteRange::new(1024, 1536), LockMode::Shared)
            .unwrap();
        let mut seen = [0u8; 512];
        b.pread(1024, &mut seen);
        g.release();
        assert_eq!(seen, [0xAAu8; 512], "revocation must flush A's data");

        let s = a.stats().snapshot();
        assert_eq!(s.revocations_served, 1);
        assert_eq!(s.revoke_flushed_bytes, 512);
        assert_eq!(
            a.coherence_coverage().total_len(),
            2048 - 512,
            "only the revoked ranges lose validity rights"
        );

        // A re-reads everything under a shared lock: the revoked range is
        // re-fetched, the rest comes from A's warm (still dirty) cache.
        let g = a.lock(ByteRange::new(0, 2048), LockMode::Shared).unwrap();
        let mut buf = [0u8; 2048];
        a.pread(0, &mut buf);
        g.release();
        assert_eq!(buf, [0xAAu8; 2048], "no stale or lost bytes anywhere");
    }

    #[test]
    fn covered_read_past_eof_is_zeros_not_a_panic() {
        // Regression: with token coverage entirely past the (shorter)
        // file, the EOF-clamped fetch window fell *before* the coverage
        // run, and clamping it to the run hit the "miss lies inside its
        // coverage run" expect. The window is now treated as empty and
        // the covered miss caches as a zero hole.
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "eof");
        f.pwrite_direct(0, &[7u8; 1200]); // file length 1200, unaligned
        let g = f
            .lock(ByteRange::new(1500, 2000), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 500];
        f.pread(1500, &mut buf); // covered, wholly past EOF
        g.release();
        assert_eq!(buf, [0u8; 500], "past-EOF covered bytes read as zeros");
        assert_eq!(
            f.stats().snapshot().server_read_requests,
            0,
            "no server fetch for a hole past EOF"
        );
    }

    #[test]
    fn large_read_does_not_evict_its_own_pages_mid_flight() {
        // Regression: one read filling several misses protected only the
        // page range of the *current* fill from eviction, so under cache
        // pressure a later fill could evict pages an earlier part of the
        // same read had already hit — and the closing copy-out panicked
        // with "cache read of non-resident range". Eviction is now
        // deferred until after the copy-out.
        let fs = test_fs(); // cap 64 KiB, 1 KiB pages
        let f = fs.open(0, Clock::new(), "big");
        f.pwrite_direct(0, &vec![7u8; 80 * 1024]);
        let mut warm = vec![0u8; 64 * 1024];
        f.pread(0, &mut warm); // warm the cache to its cap
        let mut big = vec![0u8; 72 * 1024];
        f.pread(0, &mut big); // head hits + tail fills: must not panic
        assert!(big.iter().all(|&b| b == 7));
        // The cache settled back under its cap after the read.
        assert!(f.cache.lock().resident_bytes() <= 64 * 1024);
    }

    #[test]
    fn lock_driven_uncovered_access_bypasses_the_cache() {
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "coh");
        let g = fs.open(1, Clock::new(), "coh");
        // No token coverage: reads fall through to direct I/O and admit
        // nothing into the cache, so a later write by another client can
        // never be shadowed by a stale page.
        g.pwrite_direct(0, &[1u8; 512]);
        let mut buf = [0u8; 512];
        f.pread(0, &mut buf);
        assert_eq!(buf, [1u8; 512]);
        g.pwrite_direct(0, &[2u8; 512]);
        f.pread(0, &mut buf);
        assert_eq!(buf, [2u8; 512], "uncovered bytes must never be cached");
        let s = f.stats().snapshot();
        assert_eq!(s.cache_hit_bytes, 0);
        // Uncovered cached writes also write through.
        f.pwrite(0, &[3u8; 512]);
        assert_eq!(&fs.snapshot("coh").unwrap()[..512], &[3u8; 512][..]);
    }

    // ------------------------------------------------- fault injection (PR 7)

    use crate::fault::{FaultAction, FaultPlan, FaultSite, RestartPolicy};

    #[test]
    fn no_fault_plan_is_byte_and_vtime_identical() {
        // The acceptance bar: a FaultPlan::none() run must be
        // indistinguishable — bytes AND virtual time — from a run on a
        // file system that never heard of faults.
        let run = |fs: FileSystem| {
            let a = fs.open(0, Clock::new(), "id");
            let b = fs.open(1, Clock::new(), "id");
            a.pwrite_direct(0, &[1u8; 4096]);
            a.pwrite(4096, &[2u8; 2048]);
            a.sync();
            let mut buf = vec![0u8; 6144];
            b.pread(0, &mut buf);
            b.pwrite_direct(1024, &[3u8; 512]);
            (fs.snapshot("id").unwrap(), a.clock().now(), b.clock().now())
        };
        let plain = run(FileSystem::new(PlatformProfile::fast_test()));
        let armed = run(FileSystem::with_faults(
            PlatformProfile::fast_test(),
            FaultPlan::none(),
        ));
        assert_eq!(plain, armed);
    }

    #[test]
    fn server_crash_rejects_then_recovers_on_countdown() {
        // Crash server 0 on its 2nd request; it restarts after 2
        // rejections. The client retries with vtime backoff and ends with
        // the same bytes a fault-free run would produce — just later.
        let plan = FaultPlan::none().with(
            FaultSite::ServerRequest { server: 0 },
            2,
            FaultAction::CrashServer {
                restart: RestartPolicy::Rejections(2),
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let f = fs.open(0, Clock::new(), "crash");
        f.try_pwrite_direct(0, &[1u8; 512]).unwrap(); // hit 1: served
        f.try_pwrite_direct(0, &[2u8; 512]).unwrap(); // hit 2: crash + retries
        let mut buf = [0u8; 512];
        f.try_pread_direct(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 512], "no write lost to the crash");
        let s = f.stats().snapshot();
        assert!(s.retries >= 2, "two rejections before the restart");
        assert_eq!(s.faults_injected, 1, "one retry loop entered");
        let fstats = fs.fault_stats();
        assert_eq!(fstats.server_crashes, 1);
        assert!(fstats.rejections >= 2);
        assert!(!fs.server_down(0), "countdown restart must bring it back");

        // The degraded run must cost more vtime than a fault-free one.
        let clean = FileSystem::new(PlatformProfile::fast_test());
        let g = clean.open(0, Clock::new(), "crash");
        g.pwrite_direct(0, &[1u8; 512]);
        g.pwrite_direct(0, &[2u8; 512]);
        g.pread_direct(0, &mut buf);
        assert!(f.clock().now() > g.clock().now(), "backoff must cost vtime");
    }

    #[test]
    fn manual_crash_exhausts_retries_with_typed_error() {
        let fs = FileSystem::with_faults(
            PlatformProfile::fast_test(),
            FaultPlan::none().with(
                FaultSite::ServerRequest { server: 1 },
                1,
                FaultAction::CrashServer {
                    restart: RestartPolicy::Manual,
                },
            ),
        );
        let f = fs.open(0, Clock::new(), "manual");
        // Stripe unit 4 KiB: offset 4096 homes on server 1.
        let err = f.try_pwrite_direct(4096, &[1u8; 128]).unwrap_err();
        let max = fs.profile().max_retries;
        assert_eq!(
            err,
            FsError::RetriesExhausted {
                server: 1,
                attempts: max + 1
            }
        );
        assert!(fs.server_down(1));
        assert!(fs.restart_server(1), "manual restart");
        assert!(!fs.restart_server(1), "already up");
        f.try_pwrite_direct(4096, &[1u8; 128]).unwrap();
    }

    #[test]
    fn request_to_a_recovering_server_waits_instead_of_burning_retries() {
        // Server 0 crashes on its first request and needs a manual restart;
        // the first write exhausts its budget against the *down* server.
        let fs = crash_server0_at(1, RestartPolicy::Manual);
        let f = fs.open(0, Clock::new(), "wait");
        assert!(f.try_pwrite_direct(0, &[1u8; 64]).is_err());
        // This thread now owns the recovery, and takes its time over it.
        assert!(fs.inner.servers.begin_recovery(0));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let g = fs.open(1, Clock::new(), "wait");
                tx.send(()).unwrap();
                let res = g.try_pwrite_direct(0, &[2u8; 64]);
                (res, g.stats().snapshot().retries)
            });
            rx.recv().unwrap();
            for _ in 0..1_000 {
                std::thread::yield_now();
            }
            fs.inner.replay_journals();
            fs.inner.servers.mark_up(0);
            // However long the replay took in host time, the request was
            // neither rejected nor charged a retry.
            assert_eq!(writer.join().unwrap(), (Ok(()), 0));
        });
        assert_eq!(&fs.snapshot("wait").unwrap()[..64], &[2u8; 64]);
    }

    #[test]
    fn torn_journal_append_recovers_without_data_loss() {
        // The power-cut-mid-flush scenario: the first journal append on
        // server 0 tears and crashes it. The flusher still holds the
        // bytes: its retry drives the restart countdown, recovery replay
        // discards the torn record, and the re-appended record lands.
        let plan = FaultPlan::none().with(
            FaultSite::JournalAppend { server: 0 },
            1,
            FaultAction::TearRecord {
                restart: RestartPolicy::Rejections(1),
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let f = fs.open(0, Clock::new(), "torn");
        f.try_pwrite(0, &[7u8; 1024]).unwrap(); // write-behind
        f.try_sync().unwrap();
        assert_eq!(&fs.snapshot("torn").unwrap()[..], &[7u8; 1024][..]);
        let fstats = fs.fault_stats();
        assert_eq!(fstats.records_torn, 1);
        assert_eq!(fstats.torn_records_discarded, 1, "replay discarded it");
        assert!(fstats.journal_replays >= 1);
        assert_eq!(fstats.server_crashes, 1);
        let s = f.stats().snapshot();
        assert!(s.retries >= 1);
        assert_eq!(s.torn_records_discarded, 1);
        assert!(s.journal_replays >= 1);
    }

    #[test]
    fn crash_between_commit_and_apply_leaves_durable_record() {
        // The server dies *after* the intent record committed but before
        // the blocks were mutated: the flush still succeeded — the
        // record is durable, the snapshot shows it, and recovery replay
        // lands it on the block store.
        let plan = FaultPlan::none().with(
            FaultSite::JournalApply { server: 0 },
            1,
            FaultAction::CrashServer {
                restart: RestartPolicy::Manual,
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let f = fs.open(0, Clock::new(), "pend");
        f.try_pwrite(0, &[9u8; 256]).unwrap();
        f.try_sync().unwrap(); // commit lands, apply is skipped by the crash
        assert!(fs.server_down(0));
        assert_eq!(
            &fs.snapshot("pend").unwrap()[..],
            &[9u8; 256][..],
            "snapshot overlays the committed-but-unapplied record"
        );
        assert!(fs.restart_server(0));
        let fstats = fs.fault_stats();
        assert_eq!(fstats.replayed_records, 1);
        assert_eq!(fstats.replayed_bytes, 256);
        let mut buf = [0u8; 256];
        f.try_pread_direct(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 256], "replay landed the record");
    }

    #[test]
    fn reader_journal_gate_replays_pending_records() {
        // A committed-but-unapplied record must be visible to a reader
        // even *before* any recovery ran: the read-path gate replays it.
        let plan = FaultPlan::none().with(
            FaultSite::JournalApply { server: 0 },
            1,
            FaultAction::CrashServer {
                restart: RestartPolicy::Rejections(1),
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let a = fs.open(0, Clock::new(), "gate");
        let b = fs.open(1, Clock::new(), "gate");
        a.try_pwrite(0, &[5u8; 128]).unwrap();
        a.try_sync().unwrap(); // record pending, server 0 down
        let mut buf = [0u8; 128];
        b.try_pread_direct(0, &mut buf).unwrap(); // retry drives recovery
        assert_eq!(buf, [5u8; 128], "no stale read around the journal");
        assert!(fs.fault_stats().replayed_records >= 1);
    }

    #[test]
    fn kill_client_discards_dirty_bytes_and_closes_the_handle() {
        let plan = FaultPlan::none().with(
            FaultSite::ClientFlush { client: 0 },
            1,
            FaultAction::KillClient,
        );
        let fs = FileSystem::with_faults(
            PlatformProfile {
                lock_kind: LockKind::Distributed,
                coherence: crate::profile::CoherenceMode::LockDriven,
                ..PlatformProfile::fast_test()
            },
            plan,
        );
        let a = fs.open(0, Clock::new(), "kill");
        let b = fs.open(1, Clock::new(), "kill");
        let g = a
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        a.pwrite(0, &[0xDDu8; 1024]); // dirty under coverage
        g.release();
        assert_eq!(a.try_sync().unwrap_err(), FsError::Closed, "killed");
        assert_eq!(
            a.try_pwrite_direct(0, &[1u8; 8]).unwrap_err(),
            FsError::Closed,
            "a dead handle stays dead"
        );
        // The corpse's dirty write-behind data died with it; revocations
        // aimed at its still-held token ranges are no-ops, so a rival
        // proceeds and reads zeros, never torn or stale bytes.
        let g = b
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 16];
        b.try_pread_direct(0, &mut buf).unwrap();
        g.release();
        assert_eq!(buf, [0u8; 16], "dirty bytes must die with the client");
        assert_eq!(fs.fault_stats().client_deaths, 1);
        assert_eq!(a.stats().snapshot().faults_injected, 1);
    }

    #[test]
    fn crash_client_by_fiat_generalizes_supersede() {
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "fiat");
        let g = a.lock(ByteRange::new(0, 512), LockMode::Exclusive).unwrap();
        a.pwrite(0, &[0xCCu8; 512]);
        g.release();
        assert!(fs.crash_client(0, "fiat"));
        assert!(!fs.crash_client(0, "fiat"), "already dead");
        assert_eq!(a.coherence_coverage().total_len(), 0, "coverage cleared");
        let b = fs.open(1, Clock::new(), "fiat");
        let mut buf = [9u8; 16];
        b.pread_direct(0, &mut buf);
        assert_eq!(buf, [0u8; 16], "corpse's write-behind data discarded");
        assert_eq!(fs.fault_stats().client_deaths, 1);
    }
}
