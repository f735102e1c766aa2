//! The four workloads. Each is a closed loop: one iteration runs every
//! case once, each on a fresh `FileSystem`, and checks the bytes of every
//! case before the next starts. Inputs are built once, from the seed.
//!
//! Why these four (the measured shares are in `benchmark/README.md`):
//!
//! * `colwise_fig8` is the paper's own Figure 8 experiment; the
//!   server/storage layer does the work, lock, cache and collective layers
//!   are idle.
//! * `lock_storm` is P threads on one lock manager with almost no I/O.
//! * `rw_cached` is the cached, lock-driven-coherence path, once fitting
//!   the cache and once spilling it; it uses the lock layer through token
//!   hits and revocations instead of list grants.
//! * `header_two_phase` is message passing plus the collective exchange,
//!   with zero locks and no cache.

use std::sync::Arc;
use std::time::Instant;

use atomio_collective::{two_phase_write, ExchangeSchedule, TwoPhaseConfig, TwoPhaseReport};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, IoPath, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_dtype::ViewSegment;
use atomio_interval::IntervalSet;
use atomio_msg::{run, Comm};
use atomio_pfs::{
    CacheParams, CoherenceMode, FileSystem, LatencySnapshot, LockKind, PlatformProfile,
    StatsSnapshot,
};
use atomio_trace::{MemorySink, TraceSink, Track};
use atomio_vtime::{LinkCost, MemCost, VNanos};
use atomio_workloads::{pattern, ColWise, Partition, ReaderWriter, RwPreset};

use crate::host::Usage;
use crate::spans::{SpanClock, SpanLog};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColwiseFig8,
    LockStorm,
    RwCached,
    HeaderTwoPhase,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColwiseFig8,
        Workload::LockStorm,
        Workload::RwCached,
        Workload::HeaderTwoPhase,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColwiseFig8 => "colwise_fig8",
            Workload::LockStorm => "lock_storm",
            Workload::RwCached => "rw_cached",
            Workload::HeaderTwoPhase => "header_two_phase",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn cases(self) -> &'static [&'static str] {
        match self {
            Workload::ColwiseFig8 => &["file_locking", "graph_coloring", "rank_ordering"],
            Workload::LockStorm => &["central", "token", "sharded"],
            Workload::RwCached => &["checkpoint_reread", "producer_consumer", "reread_spill"],
            Workload::HeaderTwoPhase => &["flat", "pipelined"],
        }
    }

    /// Whether a case's virtual makespan is decided by the cost model
    /// alone. `producer_consumer` is the exception: every rank reads its
    /// neighbour's block right after a barrier, four revocations reach the
    /// token manager at the same virtual instant, and the tie resolves in
    /// host arrival order (63 to 83 virtual ms over 41 iterations, and the
    /// run median follows the host's mood), so it is kept out of
    /// `vtime_mibps` and reported per layer.
    pub fn vtime_is_exact(self, case: usize) -> bool {
        !(self == Workload::RwCached && case == 1)
    }
}

/// Ranks of `lock_storm` and `rw_cached`, and of the Figure 8 panel.
const P4: usize = 4;
/// Ranks of `header_two_phase`, two to a node.
const P8: usize = 8;
const STORM_WRITE: u64 = 512;
/// Writes per rank and case of `lock_storm`.
pub const STORM_WRITES: u64 = 2000;

/// Inputs of one workload, built from the seed before anything is timed.
/// `scale` divides the geometry (1 = the benchmark, 8 = the smoke test).
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    data: Data,
}

#[derive(Debug)]
enum Data {
    Colwise {
        parts: Vec<Partition>,
        bufs: Vec<Vec<u8>>,
        views: Vec<IntervalSet>,
        stamps: Vec<u8>,
    },
    Storm {
        /// Per rank, the order it visits its slots in.
        order: Vec<Vec<u32>>,
        expected: Vec<u8>,
    },
    Rw {
        block: u64,
        /// Per case, the bytes the file must hold at the end.
        expected: Vec<Vec<u8>>,
    },
    Header {
        header: u64,
        block: u64,
        /// Block slot each rank writes.
        slot_of: Vec<usize>,
        bufs: Vec<Vec<u8>>,
        expected: Vec<u8>,
    },
}

/// splitmix64: all the randomness the inputs need.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// `lock_storm`: the seeded order each of the four ranks visits its
/// `writes` slots in. The order matters to the host clock: on the central
/// and token managers a shuffled order costs about three times an
/// ascending one (release histories stop being append-only), so the lock
/// probes use the same orders.
pub fn storm_order(seed: u64, writes: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng(seed);
    (0..P4)
        .map(|_| {
            let mut order: Vec<u32> = (0..writes as u32).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

fn storm_stamp(slot: u64, rank: usize) -> u8 {
    ((slot * P4 as u64 + rank as u64) % 251 + 1) as u8
}

impl Inputs {
    pub fn build(workload: Workload, seed: u64, scale: u64) -> Inputs {
        let mut rng = Rng(seed);
        let data = match workload {
            Workload::ColwiseFig8 => {
                // The `figure8 --quick` "1 GB" panel at P = 4; the seed picks
                // the stamps, which the cost model never looks at.
                let spec = ColWise::new(512 / scale, 262_144, P4, 16).expect("valid geometry");
                let base = rng.next() % 200;
                let stamps: Vec<u8> = (0..P4).map(|r| (base + r as u64 + 1) as u8).collect();
                let parts: Vec<Partition> = (0..P4).map(|r| spec.partition(r)).collect();
                // What `Partition::fill` gives for a constant pattern.
                let bufs = parts
                    .iter()
                    .zip(&stamps)
                    .map(|(p, &s)| vec![s; p.data_bytes() as usize])
                    .collect();
                Data::Colwise {
                    views: spec.all_views(),
                    parts,
                    bufs,
                    stamps,
                }
            }
            Workload::LockStorm => {
                let writes = STORM_WRITES / scale;
                let order = storm_order(seed, writes);
                let mut expected = vec![0u8; (writes * P4 as u64 * STORM_WRITE) as usize];
                for (i, cell) in expected.chunks_mut(STORM_WRITE as usize).enumerate() {
                    cell.fill(storm_stamp(i as u64 / P4 as u64, i % P4));
                }
                Data::Storm { order, expected }
            }
            // Fully specified by `ReaderWriter`; the seed changes nothing.
            Workload::RwCached => {
                let block = 256 * 1024 / scale;
                let expected = (0..workload.cases().len())
                    .map(|case| rw_spec(block, case).expected_final())
                    .collect();
                Data::Rw { block, expected }
            }
            Workload::HeaderTwoPhase => {
                let (header, block) = (4 * 1024 * 1024 / scale, 1024 * 1024 / scale);
                let mut slot_of: Vec<usize> = (0..P8).collect();
                rng.shuffle(&mut slot_of);
                let bufs = (0..P8)
                    .map(|r| vec![pattern::stamp_byte(r); (header + block) as usize])
                    .collect();
                // Highest rank wins the header; every block is its owner's.
                let mut expected = vec![pattern::stamp_byte(P8 - 1); header as usize];
                expected.resize((header + P8 as u64 * block) as usize, 0);
                for (r, &slot) in slot_of.iter().enumerate() {
                    let at = (header + slot as u64 * block) as usize;
                    expected[at..at + block as usize].fill(pattern::stamp_byte(r));
                }
                Data::Header {
                    header,
                    block,
                    slot_of,
                    bufs,
                    expected,
                }
            }
        };
        Inputs { workload, data }
    }

    /// `lock_storm`: the order each rank visits its slots in.
    pub fn storm_order(&self) -> Option<&[Vec<u32>]> {
        match &self.data {
            Data::Storm { order, .. } => Some(order),
            _ => None,
        }
    }

    /// The exact file contents a case must leave, where only one outcome
    /// is correct (every workload but `colwise_fig8`, whose overlaps may
    /// resolve to any serialization).
    pub fn expected_bytes(&self, case: usize) -> Option<Vec<u8>> {
        match &self.data {
            Data::Colwise { .. } => None,
            Data::Storm { expected, .. } | Data::Header { expected, .. } => Some(expected.clone()),
            Data::Rw { expected, .. } => Some(expected[case].clone()),
        }
    }
}

fn rw_spec(block: u64, case: usize) -> ReaderWriter {
    let preset = match case {
        1 => RwPreset::ProducerConsumer,
        _ => RwPreset::CheckpointReread,
    };
    ReaderWriter::new(P4, block, 16, 4, preset).expect("valid geometry")
}

/// Rank-level calls into the library: how many were made and how many
/// returned `Err` (or reported an error, or read stale bytes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
}

impl Calls {
    fn ok<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r.ok()
    }

    pub fn add(&mut self, o: Calls) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// What the layers counted in one case (or, merged, in one iteration).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Every rank's client counters.
    pub ranks: Vec<StatsSnapshot>,
    /// Every rank's two-phase report (`header_two_phase` only).
    pub two_phase: Vec<TwoPhaseReport>,
    pub latency: LatencySnapshot,
    /// Release-history entries the file's lock service still held when the
    /// ranks closed.
    pub lock_history_len: u64,
    pub server_busy_vns: u64,
    /// Write phases of the collective (colours, for graph colouring).
    pub phases: u64,
}

impl Counts {
    /// One client counter, summed over the ranks.
    pub fn stat(&self, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.ranks.iter().map(field).sum()
    }

    pub fn merge(&mut self, o: &Counts) {
        self.ranks.extend_from_slice(&o.ranks);
        self.two_phase.extend_from_slice(&o.two_phase);
        self.latency.merge(&o.latency);
        self.lock_history_len += o.lock_history_len;
        self.server_busy_vns += o.server_busy_vns;
        self.phases = self.phases.max(o.phases);
    }
}

/// What one case of one iteration did.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Virtual makespan: max rank end − min rank start.
    pub vtime_ns: u64,
    /// Host wall time of `FileSystem::new` plus the job (spawn to join);
    /// snapshot and verification are outside it.
    pub wall_ns: u64,
    /// Host resources used over the same interval.
    pub usage: Usage,
    pub calls: Calls,
    /// Whether the file held the right bytes afterwards.
    pub bytes_ok: bool,
    pub counts: Counts,
}

/// What a case runs with besides its inputs.
pub struct Ctx<'a> {
    pub log: &'a mut SpanLog,
    /// Where the program's own virtual-time events go, when tracing.
    pub sink: Option<Arc<MemorySink>>,
    /// Flip one byte of the snapshot before checking it, to prove the
    /// check can fail. Never set from the command line.
    pub corrupt: bool,
}

/// What a rank hands back when joined.
struct RankOut {
    start: VNanos,
    end: VNanos,
    calls: Calls,
    stats: StatsSnapshot,
    lock_history_len: u64,
    phases: u64,
    two_phase: Option<TwoPhaseReport>,
    log: SpanLog,
}

/// A rank's recording state while it runs.
struct Rank {
    out: RankOut,
    root: usize,
}

impl Rank {
    fn enter(
        comm: &Comm,
        clock: SpanClock,
        case: &'static str,
        sink: &Option<Arc<MemorySink>>,
    ) -> Rank {
        let mut log = SpanLog::new(clock, 1 + comm.rank() as u32, case);
        let root = log.open("rank");
        if let Some(s) = sink {
            comm.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
        }
        Rank {
            out: RankOut {
                start: 0,
                end: 0,
                calls: Calls::default(),
                stats: StatsSnapshot::default(),
                lock_history_len: 0,
                phases: 0,
                two_phase: None,
                log,
            },
            root,
        }
    }

    /// Time one fallible library call under a span and count it.
    fn call<T, E>(&mut self, span: &'static str, f: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let r = self.out.log.span(span, f);
        self.out.calls.ok(r)
    }

    fn barrier(&mut self, comm: &Comm) {
        self.out.log.span("barrier", || comm.barrier());
    }

    /// Close the handle (a counted call) and keep its counters.
    fn close(&mut self, file: MpiFile<'_>) {
        self.out.lock_history_len = file.posix().lock_history_len() as u64;
        if let Some(rep) = self.call("close", || file.close()) {
            self.out.stats = rep.stats;
        }
    }

    fn leave(mut self) -> RankOut {
        self.out.log.close(self.root);
        self.out
    }
}

/// Open the shared file and put the handle in the given mode: the `open`
/// span covers `MPI_File_open` and the `set_*` calls that follow it.
fn open_file<'c>(
    rank: &mut Rank,
    comm: &'c Comm,
    fs: &FileSystem,
    view: Option<&Partition>,
    atomicity: Atomicity,
    io_path: IoPath,
) -> Option<MpiFile<'c>> {
    let id = rank.out.log.open("open");
    let calls = &mut rank.out.calls;
    let mut file = calls.ok(MpiFile::open(comm, fs, "bench", OpenMode::ReadWrite));
    if let Some(f) = file.as_mut() {
        if let Some(part) = view {
            calls.ok(f.set_view(0, part.filetype.clone()));
        }
        f.set_io_path(io_path);
        calls.ok(f.set_atomicity(atomicity));
    }
    rank.out.log.close(id);
    file
}

/// Run one case of `inputs.workload`.
pub fn run_case(inputs: &Inputs, case: usize, ctx: &mut Ctx<'_>) -> CaseOutcome {
    let name = inputs.workload.cases()[case];
    ctx.log.set_case(name);
    let case_span = ctx.log.open("case");
    let usage0 = Usage::now();
    let t0 = Instant::now();
    let profile = profile_of(inputs, case);
    let fs = ctx.log.span("fs_new", || FileSystem::new(profile));
    if let Some(s) = &ctx.sink {
        fs.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
    }
    let job = ctx.log.open("spawn_join");
    let clock = ctx.log.clock();
    let sink = ctx.sink.clone();
    let net = fs.profile().net.clone();
    let ranks: Vec<RankOut> = match &inputs.data {
        Data::Colwise { parts, bufs, .. } => {
            let atomicity = Atomicity::Atomic(match case {
                0 => Strategy::FileLocking(LockGranularity::Span),
                1 => Strategy::GraphColoring,
                _ => Strategy::RankOrdering,
            });
            run(P4, net, |comm| {
                let mut rank = Rank::enter(&comm, clock, name, &sink);
                let me = comm.rank();
                let file = open_file(
                    &mut rank,
                    &comm,
                    &fs,
                    Some(&parts[me]),
                    atomicity,
                    IoPath::Direct,
                );
                if let Some(mut file) = file {
                    rank.barrier(&comm); // align request arrival, as collective I/O does
                    if let Some(rep) = rank.call("write", || file.write_at_all(0, &bufs[me])) {
                        (rank.out.start, rank.out.end) = (rep.start, rep.end);
                        rank.out.phases = rep.phases as u64;
                    }
                    rank.close(file);
                }
                rank.leave()
            })
        }
        Data::Storm { order, .. } => {
            let atomicity = Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Exact));
            run(P4, net, |comm| {
                let mut rank = Rank::enter(&comm, clock, name, &sink);
                let me = comm.rank();
                let file = open_file(&mut rank, &comm, &fs, None, atomicity, IoPath::Direct);
                if let Some(mut file) = file {
                    rank.barrier(&comm);
                    rank.out.start = comm.clock().now();
                    let mut buf = [0u8; STORM_WRITE as usize];
                    for &slot in &order[me] {
                        let slot = u64::from(slot);
                        buf.fill(storm_stamp(slot, me));
                        let at = (slot * P4 as u64 + me as u64) * STORM_WRITE;
                        rank.call("write", || file.write_at(at, &buf));
                    }
                    rank.out.end = comm.clock().now();
                    rank.close(file);
                }
                rank.leave()
            })
        }
        Data::Rw { block, .. } => {
            let spec = rw_spec(*block, case);
            let atomicity = Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Exact));
            run(P4, net, |comm| {
                let mut rank = Rank::enter(&comm, clock, name, &sink);
                let me = comm.rank();
                let (own, read, target) = (
                    spec.owner_range(me),
                    spec.read_range(me),
                    spec.read_target(me),
                );
                let file = open_file(&mut rank, &comm, &fs, None, atomicity, IoPath::Cached);
                if let Some(mut file) = file {
                    rank.barrier(&comm);
                    rank.out.start = comm.clock().now();
                    let mut data = vec![0u8; spec.block as usize];
                    let mut buf = vec![0u8; spec.block as usize];
                    for round in 0..spec.rounds {
                        data.fill(spec.stamp(me, round));
                        rank.call("write", || file.write_at(own.start, &data));
                        // The barrier publishes "this round is written
                        // everywhere": an older stamp read now is stale.
                        rank.barrier(&comm);
                        let want = spec.stamp(target, round);
                        for _ in 0..spec.rereads {
                            rank.call("read", || match file.read_at(read.start, &mut buf) {
                                Ok(_) if buf.iter().all(|&b| b == want) => Ok(()),
                                Ok(_) => Err("stale read".to_string()),
                                Err(e) => Err(e.to_string()),
                            });
                        }
                        rank.barrier(&comm);
                    }
                    rank.out.end = comm.clock().now();
                    rank.close(file);
                }
                rank.leave()
            })
        }
        Data::Header {
            header,
            block,
            slot_of,
            bufs,
            ..
        } => {
            let cfg = TwoPhaseConfig {
                aggregators: None,
                ranks_per_node: 2,
                schedule: match case {
                    0 => ExchangeSchedule::Flat,
                    _ => ExchangeSchedule::Pipelined {
                        round_stripes: 4,
                        depth: 2,
                    },
                },
            };
            let (header, block) = (*header, *block);
            run(P8, net, |comm| {
                let mut rank = Rank::enter(&comm, clock, name, &sink);
                let me = comm.rank();
                let file = rank
                    .out
                    .log
                    .span("open", || fs.open(me, comm.clock().clone(), "bench"));
                if let Some(s) = &sink {
                    file.tracer()
                        .bind(Track::Rank(me), Arc::clone(s) as Arc<dyn TraceSink>);
                }
                let segs = [
                    ViewSegment {
                        file_off: 0,
                        logical_off: 0,
                        len: header,
                    },
                    ViewSegment {
                        file_off: header + slot_of[me] as u64 * block,
                        logical_off: header,
                        len: block,
                    },
                ];
                rank.barrier(&comm);
                rank.out.start = comm.clock().now();
                let rep = rank.call("write", || {
                    let rep = two_phase_write(&comm, &file, &segs, &bufs[me], 0, &cfg);
                    match rep.write_errors {
                        0 => Ok(rep),
                        n => Err(n),
                    }
                });
                rank.out.end = comm.clock().now();
                rank.out.two_phase = rep;
                rank.out.stats = file.stats().snapshot();
                rank.out.lock_history_len = file.lock_history_len() as u64;
                rank.leave()
            })
        }
    };
    ctx.log.close(job);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let usage = Usage::now().since(&usage0);

    let mut out = CaseOutcome {
        wall_ns,
        usage,
        ..CaseOutcome::default()
    };
    let start = ranks.iter().map(|r| r.start).min().unwrap_or(0);
    let end = ranks.iter().map(|r| r.end).max().unwrap_or(0);
    out.vtime_ns = end.saturating_sub(start);
    for r in ranks {
        out.calls.add(r.calls);
        out.counts.ranks.push(r.stats);
        out.counts.two_phase.extend(r.two_phase);
        out.counts.lock_history_len = out.counts.lock_history_len.max(r.lock_history_len);
        out.counts.phases = out.counts.phases.max(r.phases);
        ctx.log.adopt(job, r.log);
    }
    out.counts.latency = fs.latency_snapshot();
    out.counts.server_busy_vns = fs.servers().total_busy();

    let mut snapshot = ctx
        .log
        .span("snapshot", || fs.snapshot("bench"))
        .unwrap_or_default();
    if ctx.corrupt {
        if let Some(b) = snapshot.first_mut() {
            *b ^= 0xFF;
        }
    }
    out.bytes_ok = ctx.log.span("verify", || match &inputs.data {
        Data::Colwise { views, stamps, .. } => {
            let patterns: Vec<_> = stamps.iter().map(|&s| move |_: u64| s).collect();
            check_mpi_atomicity(&snapshot, views, &patterns).is_atomic()
        }
        Data::Storm { expected, .. } | Data::Header { expected, .. } => snapshot == *expected,
        Data::Rw { expected, .. } => snapshot == expected[case],
    });
    if !out.bytes_ok {
        // Wrong bytes: nothing this case did counts as done.
        out.calls.failed = out.calls.attempted;
    }
    ctx.log.close(case_span);
    out
}

/// `lock_storm`'s platform for a case: `central`, `token` or `sharded`
/// lock manager. One server per rank keeps every rank's requests on its
/// own horizon, so the virtual makespan does not depend on host thread
/// interleaving.
pub fn storm_profile(case: usize) -> PlatformProfile {
    let p = PlatformProfile {
        sim_servers: P4,
        stripe_unit: STORM_WRITE,
        ..PlatformProfile::fast_test()
    };
    match case {
        0 => p,
        1 => PlatformProfile {
            lock_kind: LockKind::Distributed,
            ..p
        },
        _ => p.with_sharded_locks(),
    }
}

fn profile_of(inputs: &Inputs, case: usize) -> PlatformProfile {
    match &inputs.data {
        Data::Colwise { .. } => PlatformProfile::ibm_sp(),
        Data::Storm { .. } => storm_profile(case),
        Data::Rw { block, .. } => PlatformProfile {
            lock_kind: LockKind::Distributed,
            coherence: CoherenceMode::LockDriven,
            cache: CacheParams {
                enabled: true,
                page_size: 4 * 1024,
                read_ahead_pages: 2,
                write_behind_limit: 1024 * 1024,
                // `reread_spill` holds half a block: the eviction path.
                max_bytes: if case == 2 {
                    block / 2
                } else {
                    4 * 1024 * 1024
                },
                mem: MemCost::new(1.0e9),
            },
            ..PlatformProfile::fast_test()
        },
        Data::Header { .. } => {
            // Inter-node fabric and file writes cost the same order of
            // virtual time, intra-node links are shared-memory class: the
            // regime the pipelined schedule is built for.
            let mut p = PlatformProfile::fast_test();
            p.net.link = LinkCost::new(5_000, 2.0e9);
            p.net.intra_link = LinkCost::new(100, 32.0e9);
            p
        }
    }
}
