//! The file layer: [`FileSystem`], the [`PosixFile`] handle and its fault
//! plumbing. The direct and cached paths, byte-range locks and the
//! revocation handler each live in a submodule.

// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use atomio_check::OrderedMutex;
use atomio_interval::ByteRange;
use atomio_trace::{Category, TraceSink, Tracer, Track};
use atomio_vtime::{Clock, Horizon, VNanos};

use crate::cache::ClientCache;
use crate::coherence::{CoherenceHub, RevocationHandler};
use crate::error::FsError;
use crate::fault::{FaultInjector, FaultPlan, FaultSnapshot};
use crate::journal::{ReplayReport, RevocationJournal};
use crate::lock::LockManager;
use crate::lockclass;
use crate::profile::PlatformProfile;
use crate::server::{ServerOp, ServerSet};
use crate::stats::{ClientStats, FsLatency, LatencySnapshot};
use crate::storage::{Snapshot, Storage};

mod cached;
mod direct;
mod locks;
mod revoke;

pub use locks::LockGuard;
use revoke::CacheCoherence;

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
/// use atomio_pfs::{FileSystem, IoPath, PlatformProfile};
/// use atomio_vtime::Clock;
///
/// let fs = FileSystem::new(PlatformProfile::fast_test());
/// let f = fs.open(0, Clock::new(), "data");
/// f.write(IoPath::Direct, [(0, b"hello")]).unwrap();
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

    /// Whether `server` currently rejects requests.
    pub fn server_down(&self, server: usize) -> bool {
        self.inner.servers.is_down(server)
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
        let profile = &self.inner.profile;
        let file = {
            let mut files = self.inner.files.lock();
            Arc::clone(files.entry(name.to_string()).or_insert_with(|| {
                let mut hub = CoherenceHub::default();
                hub.bind_faults(Arc::clone(&self.inner.faults));
                let coherence = Arc::new(hub);
                Arc::new(FileObj {
                    storage: Storage::new(),
                    locks: LockManager::new(name, profile, Some(Arc::clone(&coherence))),
                    coherence,
                    journal: RevocationJournal::new(),
                })
            }))
        };
        let cache = Arc::new(lockclass::cache(ClientCache::new(profile.cache.clone())));
        let stats = Arc::new(ClientStats::default());
        let tracer = Tracer::disabled();
        let handler = if profile.lock_driven_coherence() {
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
            handler,
            nic: Horizon::new(),
            dead: AtomicBool::new(false),
            stats,
            tracer,
        }
    }

    /// A consistent [`Snapshot`] of a file's *durable* bytes, or `None` if
    /// it was never opened. It shares the file's blocks: no byte is copied
    /// until the file (or the snapshot) writes a shared block again.
    /// Committed-but-unapplied journal records are overlaid in epoch order
    /// (they are durable — recovery replay will land them) onto the
    /// snapshot's own blocks, so storage is untouched; torn records are
    /// not. The journal itself is left untouched, so the observer never
    /// races recovery.
    pub fn snapshot(&self, name: &str) -> Option<Snapshot> {
        let file = self.inner.files.lock().get(name).cloned()?;
        let mut snap = file.storage.snapshot();
        for r in file.journal.pending_records() {
            if r.committed {
                snap.overlay(r.offset, &r.data);
            }
        }
        Some(snap)
    }

    /// Length of a file, or `None` if absent.
    pub fn file_len(&self, name: &str) -> Option<u64> {
        let files = self.inner.files.lock();
        files.get(name).map(|f| f.storage.len())
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

/// Whether data I/O goes through the client cache or directly to servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPath {
    /// Bypass the client cache: one closed-loop vector to the servers.
    Direct,
    /// Use the client page cache, one segment at a time. On close-to-open
    /// platforms another client sees a write only after this one syncs and
    /// it invalidates (§3); under lock-driven coherence
    /// ([`CoherenceMode::LockDriven`](crate::CoherenceMode)) the token
    /// protocol keeps the cache coherent, and bytes outside this client's
    /// token coverage go to the servers.
    Cached,
}

/// A client-side POSIX-style file handle on the simulated file system.
///
/// Two I/O paths, selected per call by [`IoPath`]:
/// * [`IoPath::Cached`] goes through the client page cache (when the
///   platform enables it) with read-ahead and write-behind — the behaviour
///   the paper's §3 warns makes handshaking strategies require an explicit
///   `try_sync` + `try_invalidate`;
/// * [`IoPath::Direct`] bypasses the cache, the way locked I/O does in
///   ROMIO's atomic mode ("while a file region is locked, all read/write
///   requests to it will directly go to the file server"); each call is one
///   closed-loop vector, priced like a cache fill or flush by one rule in
///   both directions (DESIGN.md "One injection formula").
///
/// Every operation reports failure as a typed [`FsError`]. Without a fault
/// plan the I/O calls never fail, so fault-free callers may `unwrap` them.
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
/// them. The coverage set lives in the cache, under one coherence point,
/// this handle's cache mutex: revocations shrink coverage and invalidate
/// under it, and every cached access reads coverage and completes under
/// it, so a revocation can never land in the middle of an access.
pub struct PosixFile {
    client: usize,
    clock: Clock,
    fs: Arc<FsInner>,
    file: Arc<FileObj>,
    /// Pages plus, under lock-driven coherence, the token coverage that
    /// admits bytes to them.
    cache: Arc<OrderedMutex<ClientCache>>,
    /// This handle's registration in the file's [`CoherenceHub`], removed
    /// on drop; `None` on close-to-open platforms.
    handler: Option<Arc<dyn RevocationHandler>>,
    /// Client NIC: serializes this client's injected payloads.
    nic: Horizon,
    /// Set when a [`FaultAction::KillClient`](crate::FaultAction::KillClient)
    /// event killed this handle: every later operation returns
    /// [`FsError::Closed`].
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

/// What one [`PosixFile::round_trips`] call moved: its start time, the
/// totals over the requests that landed and, while tracing, their footprint.
#[derive(Default)]
struct Injected {
    t0: VNanos,
    landed: usize,
    bytes: u64,
    server_reqs: u64,
    footprint: Vec<(u64, u64)>,
}

/// Cap on footprint runs carried in one *sync* event's args (lock grants
/// and releases, revocation flushes). Beyond it the args degrade to the
/// bounding box plus `("elided", 1)` — conservative for the
/// happens-before checker: a *larger* sync footprint can only add edges
/// (masking, never inventing, a race). Access events never degrade (a
/// larger access footprint *would* invent races): see [`access_args`].
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

/// Trace args of an access: the byte total and the **exact** footprint,
/// one `("lo", x), ("len", y)` pair per non-empty `(offset, len)` segment.
fn access_args(bytes: u64, segments: impl Iterator<Item = (u64, u64)>) -> Vec<(&'static str, u64)> {
    let mut args = vec![("bytes", bytes)];
    for (off, len) in segments.filter(|&(_, len)| len > 0) {
        args.push(("lo", off));
        args.push(("len", len));
    }
    args
}

/// `buf`, whose first byte is at offset `base`, cut at the ascending,
/// disjoint `ranges` in it: the segments of a [`PosixFile::read`].
pub fn carve(
    mut buf: &mut [u8],
    mut base: u64,
    ranges: impl IntoIterator<Item = ByteRange>,
) -> impl Iterator<Item = (u64, &mut [u8])> {
    ranges.into_iter().map(move |r| {
        let rest = &mut std::mem::take(&mut buf)[(r.start - base) as usize..];
        let (piece, rest) = rest.split_at_mut(r.len() as usize);
        (buf, base) = (rest, r.end);
        (r.start, piece)
    })
}

/// Run a vectored call over `n` entries to the end: `call(i)` issues
/// entries `i..`, and after a failure the run resumes past the failing
/// entry, whose index and error `failed` hears.
fn resume_past_failures(
    n: usize,
    mut call: impl FnMut(usize) -> (Injected, Result<(), FsError>),
    mut failed: impl FnMut(usize, FsError),
) {
    let mut i = 0;
    while i < n {
        let (inj, res) = call(i);
        let Err(e) = res else { break };
        failed(i + inj.landed, e);
        i += inj.landed + 1;
    }
}

/// Rejected-request retries [`PosixFile::server_rpc`] pays before giving
/// up with [`FsError::RetriesExhausted`].
const MAX_RETRIES: u32 = 8;

impl PosixFile {
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

    /// Write the `(offset, bytes)` segments along `path`. A direct write
    /// is one closed-loop vector: the segments are pipelined through the
    /// NIC and the servers, and the call returns with the last ack. Each
    /// segment is its own POSIX write (applied as it lands, atomically when
    /// the platform says so); nothing is atomic *across* segments — that is
    /// [`PosixFile::try_listio_direct_atomic`]. A down server is retried
    /// with vtime backoff; once the retry budget is spent, or this handle is
    /// dead, the typed error comes back, with the segments before the
    /// failing one applied and counted and none after. A cached write
    /// buffers the segments one after another.
    pub fn write<T: AsRef<[u8]>>(
        &self,
        path: IoPath,
        segments: impl IntoIterator<Item = (u64, T)>,
    ) -> Result<(), FsError> {
        match path {
            IoPath::Direct => self.pwritev_landed(segments.into_iter()).1,
            IoPath::Cached => segments
                .into_iter()
                .try_for_each(|(off, data)| self.pwrite_cached(off, data.as_ref())),
        }
    }

    /// Read the `(offset, buffer)` segments along `path`, the twin of
    /// [`PosixFile::write`]: a direct read pipelines the requests to the
    /// servers and returns with the last reply, and on a fault the segments
    /// before the failing one are read and counted, none after. A cached
    /// read serves the segments one after another.
    pub fn read<B: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        path: IoPath,
        segments: impl IntoIterator<Item = (u64, B)>,
    ) -> Result<(), FsError> {
        match path {
            IoPath::Direct => self.preadv_landed(segments.into_iter(), true).1,
            IoPath::Cached => segments
                .into_iter()
                .try_for_each(|(off, mut buf)| self.pread_cached(off, buf.as_mut())),
        }
    }

    /// One cached segment of [`PosixFile::write`], under the name the
    /// frozen benchmark calls.
    pub fn try_pwrite(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.write(IoPath::Cached, [(offset, data)])
    }

    /// One direct segment of [`PosixFile::write`], under the name the
    /// frozen benchmark calls.
    pub fn try_pwrite_direct(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.write(IoPath::Direct, [(offset, data)])
    }

    // ------------------------------------------------------- fault plumbing

    /// [`FsError::Closed`] once a
    /// [`FaultAction::KillClient`](crate::FaultAction::KillClient) event
    /// killed this handle.
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
            match self.fs.servers.try_access(&self.clock, arrival, range, op) {
                Ok(done) => return Ok(done),
                Err(FsError::ServerUnavailable { server }) => {
                    if attempt == 0 {
                        self.stats.add(&self.stats.faults_injected, 1);
                    }
                    for s in self.fs.servers.take_recovery_due() {
                        arrival = self.recover_server(s, arrival);
                    }
                    if attempt >= MAX_RETRIES {
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

    /// The NIC half of the one request rule, shared by the closed-loop and
    /// the batch path: a request leaves the NIC behind what the call has
    /// injected since `t0`, paying `client_op_ns` unless it is the call's
    /// `first`, then `payload_ns(len)` of the bytes it carries out. Returns
    /// when its payload starts.
    fn inject_extent(&self, t0: VNanos, first: bool, len: u64) -> VNanos {
        let issue = if first {
            0
        } else {
            self.fs.profile.client_op_ns
        };
        let link = &self.fs.profile.client_link;
        let (start, _) = self.nic.serve(t0, issue + link.payload_ns(len));
        start + issue
    }

    /// Every closed-loop call, both directions (DESIGN.md "One injection
    /// formula"): each request is one extent on the NIC
    /// ([`PosixFile::inject_extent`]) carrying a write's bytes out; `land`
    /// puts it on the servers a latency later and returns its completion.
    /// The replies, ready a latency after that, are received one after
    /// another in ready order, each taking `payload_ns` of a read's bytes,
    /// and the clock advances once, to the last. Stops at the first request
    /// `land` fails; the time of those that landed is still charged.
    fn round_trips<T: AsRef<[u8]>>(
        &self,
        op: ServerOp,
        mut requests: impl Iterator<Item = (u64, T)>,
        mut land: impl FnMut(VNanos, ByteRange, T) -> Result<VNanos, FsError>,
    ) -> (Injected, Result<(), FsError>) {
        let link = &self.fs.profile.client_link;
        let mut inj = Injected {
            t0: self.clock.now(),
            ..Injected::default()
        };
        if let Err(e) = self.check_alive() {
            return (inj, Err(e));
        }
        // The replies, (ready, bytes back): the latest kept aside, so a
        // one-segment call allocates nothing.
        let (mut latest, mut replies) = (None, Vec::new());
        let res = requests.try_for_each(|(off, item)| {
            let range = ByteRange::at(off, item.as_ref().len() as u64);
            let (out, back) = match op {
                ServerOp::Write => (range.len(), 0),
                _ => (0, range.len()),
            };
            let start = self.inject_extent(inj.t0, inj.landed == 0, out);
            let arrival = start + link.payload_ns(out) + link.latency_ns;
            let ready = land(arrival, range, item)? + link.latency_ns;
            replies.extend(latest.replace((ready, back)));
            inj.landed += 1;
            inj.bytes += range.len();
            inj.server_reqs += self.fs.servers.requests_for(range);
            if self.tracer.is_enabled() {
                inj.footprint.push((off, range.len()));
            }
            Ok(())
        });
        if !replies.is_empty() {
            replies.extend(latest.take());
        }
        replies.sort_unstable();
        let order = latest.iter().chain(&replies);
        let last = order.fold(inj.t0, |t, &(ready, n)| t.max(ready) + link.payload_ns(n));
        if inj.landed > 0 {
            self.clock.advance_to(last);
        }
        (inj, res)
    }

    /// One `Category::Io` span for a finished [`PosixFile::round_trips`]
    /// call, carrying the accessed footprint for the happens-before checker.
    fn trace_access(&self, name: &'static str, inj: &Injected) {
        if self.tracer.is_enabled() {
            let args = access_args(inj.bytes, inj.footprint.iter().copied());
            self.tracer
                .span(Category::Io, name, inj.t0, self.clock.now(), &args);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultSite, RestartPolicy};
    use crate::lock::LockMode;
    use crate::profile::LockKind;
    use crate::server::RECOVERING;
    use atomio_interval::StridedSet;
    use atomio_vtime::Job;

    impl FileSystem {
        /// Restart a crashed server by fiat: run recovery (journal replay
        /// across every file) and mark it up. Returns `false` if the
        /// server was not down, or if another caller owns its recovery.
        pub(crate) fn restart_server(&self, server: usize) -> bool {
            if !self.inner.servers.begin_recovery(server) {
                return false;
            }
            self.inner.replay_journals();
            self.inner.servers.mark_up(server);
            true
        }
    }

    pub(super) fn test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile::fast_test())
    }

    /// A plan crashing server 0 on its `k`-th request.
    pub(super) fn crash_server0_at(k: u64, restart: RestartPolicy) -> FileSystem {
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
    fn snapshot_and_len_of_missing_file() {
        let fs = test_fs();
        assert!(fs.snapshot("nope").is_none());
        assert!(fs.file_len("nope").is_none());
    }

    /// fast_test timing with GPFS-style tokens and lock-driven coherence.
    pub(super) fn gpfs_test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile {
            lock_kind: LockKind::Distributed,
            coherence: crate::profile::CoherenceMode::LockDriven,
            ..PlatformProfile::fast_test()
        })
    }

    #[test]
    fn no_fault_plan_is_byte_and_vtime_identical() {
        // The acceptance bar: a FaultPlan::none() run must be
        // indistinguishable — bytes AND virtual time — from a run on a
        // file system that never heard of faults.
        let run = |fs: FileSystem| {
            let a = fs.open(0, Clock::new(), "id");
            let b = fs.open(1, Clock::new(), "id");
            a.write(IoPath::Direct, [(0, &[1u8; 4096])]).unwrap();
            a.write(IoPath::Cached, [(4096, &[2u8; 2048])]).unwrap();
            a.try_sync().unwrap();
            let mut buf = vec![0u8; 6144];
            b.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
            b.write(IoPath::Direct, [(1024, &[3u8; 512])]).unwrap();
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
        f.write(IoPath::Direct, [(0, &[1u8; 512])]).unwrap(); // hit 1: served
        f.write(IoPath::Direct, [(0, &[2u8; 512])]).unwrap(); // hit 2: crash + retries
        let mut buf = [0u8; 512];
        f.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
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
        g.write(IoPath::Direct, [(0, &[1u8; 512])]).unwrap();
        g.write(IoPath::Direct, [(0, &[2u8; 512])]).unwrap();
        g.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
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
        let err = f.write(IoPath::Direct, [(4096, &[1u8; 128])]).unwrap_err();
        assert_eq!(
            err,
            FsError::RetriesExhausted {
                server: 1,
                attempts: MAX_RETRIES + 1
            }
        );
        assert!(fs.server_down(1));
        assert!(fs.restart_server(1), "manual restart");
        assert!(!fs.restart_server(1), "already up");
        f.write(IoPath::Direct, [(4096, &[1u8; 128])]).unwrap();
    }

    #[test]
    fn request_to_a_recovering_server_waits_instead_of_burning_retries() {
        // Server 0 crashes on its first request and needs a manual restart;
        // the first write exhausts its budget against the *down* server.
        let fs = crash_server0_at(1, RestartPolicy::Manual);
        // Rank 0 is this thread, rank 1 a writer that it wakes.
        let job = Job::new(2);
        let me = job.seat(0);
        let f = fs.open(0, me.clock().clone(), "wait");
        assert!(f.write(IoPath::Direct, [(0, &[1u8; 64])]).is_err());
        // This thread now owns the recovery, and takes its time over it.
        assert!(fs.inner.servers.begin_recovery(0));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let seat = job.seat(1);
                let g = fs.open(1, seat.clock().clone(), "wait");
                let res = g.write(IoPath::Direct, [(0, &[2u8; 64])]);
                (res, g.stats().snapshot().retries)
            });
            // The writer is parked on the recovering server before the
            // replay starts: it waits rather than retrying.
            while job.parked_at(1) != Some(RECOVERING) {
                std::thread::yield_now();
            }
            fs.inner.replay_journals();
            fs.inner.servers.mark_up(0);
            // However long the replay took in host time, the request was
            // neither rejected nor charged a retry.
            assert_eq!(writer.join().unwrap(), (Ok(()), 0));
        });
        assert_eq!(&fs.snapshot("wait").unwrap().to_vec()[..64], &[2u8; 64]);
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
        a.write(IoPath::Cached, [(0, &[5u8; 128])]).unwrap();
        a.try_sync().unwrap(); // record pending, server 0 down
        let mut buf = [0u8; 128];
        b.read(IoPath::Direct, [(0, &mut buf)]).unwrap(); // retry drives recovery
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
        a.write(IoPath::Cached, [(0, &[0xDDu8; 1024])]).unwrap(); // dirty under coverage
        g.release();
        assert_eq!(a.try_sync().unwrap_err(), FsError::Closed, "killed");
        assert_eq!(a.coherence_coverage().total_len(), 0, "coverage cleared");
        assert_eq!(
            a.write(IoPath::Direct, [(0, &[1u8; 8])]).unwrap_err(),
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
        b.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        b.write(IoPath::Cached, [(0, &[0xBBu8; 16])]).unwrap(); // the rival's own dirty bytes
        g.release();
        assert_eq!(buf, [0u8; 16], "dirty bytes must die with the client");
        assert_eq!(fs.fault_stats().client_deaths, 1);
        assert_eq!(a.stats().snapshot().faults_injected, 1);

        // A dead handle takes no lock either: it neither advances its clock
        // nor revokes the rival's token, which would flush the rival's
        // cache. The two-phase form still attends its handshake.
        let t = a.clock().now();
        let whole = ByteRange::new(0, 4096);
        let refused = a.lock(whole, LockMode::Exclusive).err();
        assert_eq!(refused, Some(FsError::Closed));
        let mut synced = false;
        let set = StridedSet::from_range(whole);
        let refused = a
            .lock_set_two_phase(&set, LockMode::Exclusive, || synced = true)
            .err();
        assert_eq!(refused, Some(FsError::Closed));
        assert!(synced, "a refused two-phase lock must still run `sync`");
        assert_eq!(a.clock().now(), t);
        assert_eq!(a.stats().snapshot().lock_acquires, 1);
        assert_eq!(b.stats().snapshot().revocations_served, 0);
        let image = fs.snapshot("kill").unwrap().to_vec();
        assert!(image.iter().all(|&x| x == 0), "the rival's cache stays put");
    }
}
