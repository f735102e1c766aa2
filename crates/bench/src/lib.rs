//! Experiment harness shared by the `figure8`/`table1` binaries, the
//! artifact benches and the bandwidth-shape tests.
//!
//! One *experiment point* = one concurrent column-wise write (the paper's
//! §4 workload) on one platform profile with one atomicity strategy,
//! measured in **virtual time** and reported as aggregate MiB/s — the unit
//! of Figure 8's y-axes.
//!
//! The benches that emit a `BENCH_<name>.json` build on [`Args`] and
//! [`Artifact`] (`artifact.rs`): flags, makespan arithmetic, the `--trace`
//! recorder and the artifact's frame are written there once, so a bench
//! file is its scenario and its acceptance thresholds.

use std::sync::Arc;

use atomio_core::{
    Atomicity, IoPath, LockGranularity, MpiFile, OpenMode, Strategy, TwoPhaseConfig,
};
use atomio_msg::run;
use atomio_pfs::{FileSystem, PlatformProfile};
use atomio_trace::{MemorySink, TraceSink};
use atomio_vtime::{bandwidth_mibps, VNanos};
use atomio_workloads::{pattern, ColWise};

/// The three array sizes of Figure 8 (M = 4096 rows; element = 1 byte).
pub const PAPER_SIZES: [(u64, u64, &str); 3] = [
    (4096, 8192, "32 MB"),
    (4096, 32768, "128 MB"),
    (4096, 262144, "1 GB"),
];

/// The process counts of Figure 8.
pub const PAPER_PROCS: [usize; 3] = [4, 8, 16];

/// Overlapped columns used by the harness (ghost width; the paper keeps R
/// fixed and small relative to N/P).
pub const DEFAULT_R: u64 = 16;

/// One measured point of a Figure 8 panel.
#[derive(Debug, Clone)]
pub struct Point {
    pub platform: &'static str,
    pub m: u64,
    pub n: u64,
    pub size_label: &'static str,
    pub p: usize,
    pub strategy: Option<Strategy>,
    /// Virtual makespan of the collective write (max end − min start).
    pub makespan: VNanos,
    /// Bytes that reached the file system.
    pub bytes: u64,
    /// Aggregate bandwidth in MiB/s (the Figure 8 metric).
    pub mibps: f64,
}

impl Point {
    pub fn strategy_label(&self) -> &'static str {
        self.strategy.map_or("non-atomic", |s| s.label())
    }

    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{:.3}",
            self.platform,
            self.m,
            self.n,
            self.size_label.replace(' ', ""),
            self.p,
            self.strategy_label().replace(' ', "-"),
            self.makespan,
            self.bytes,
            self.mibps
        )
    }
}

pub const CSV_HEADER: &str = "platform,m,n,size,procs,strategy,makespan_ns,bytes,mibps";

/// Run one experiment point: a concurrent column-wise collective write.
///
/// A fresh [`FileSystem`] is created per point so server horizons and file
/// contents start clean; determinism then follows from the virtual-time
/// model (barrier-aligned arrivals, work-conserving horizons).
pub fn measure_colwise(
    profile: &PlatformProfile,
    m: u64,
    n: u64,
    p: usize,
    r: u64,
    strategy: Option<Strategy>,
    io_path: IoPath,
) -> Point {
    measure_colwise_two_phase(
        profile,
        m,
        n,
        p,
        r,
        strategy,
        io_path,
        TwoPhaseConfig::default(),
        None,
    )
}

/// [`measure_colwise`] with an explicit two-phase configuration, for
/// aggregator-count sweeps, and an optional trace sink. The configuration
/// only matters when `strategy` is [`Strategy::TwoPhase`]. With a `sink`,
/// every rank's comm/lock/cache events and every server's service spans
/// land in it, ready for [`MemorySink::export_chrome`]. Successive traced
/// runs share the sink, so their timelines overlay (each run restarts
/// virtual time at zero).
#[allow(clippy::too_many_arguments)] // an experiment point is wide
pub fn measure_colwise_two_phase(
    profile: &PlatformProfile,
    m: u64,
    n: u64,
    p: usize,
    r: u64,
    strategy: Option<Strategy>,
    io_path: IoPath,
    two_phase: TwoPhaseConfig,
    sink: Option<&Arc<MemorySink>>,
) -> Point {
    let spec = ColWise::new(m, n, p, r).expect("valid experiment geometry");
    let fs = FileSystem::new(profile.clone());
    if let Some(s) = sink {
        fs.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
    }
    let atomicity = strategy.map_or(Atomicity::NonAtomic, Atomicity::Atomic);
    let sink = sink.cloned();

    let reports = run(p, profile.net.clone(), move |comm| {
        if let Some(s) = &sink {
            comm.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
        }
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "bench", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_io_path(io_path);
        file.set_two_phase_config(two_phase);
        file.set_atomicity(atomicity).unwrap();
        comm.barrier(); // align request arrival, as collective I/O does
        let rep = file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
        rep
    });

    let makespan = makespan(reports.iter().map(|r| (r.start, r.end)));
    let bytes: u64 = reports.iter().map(|r| r.bytes_written).sum();
    Point {
        platform: profile.name,
        m,
        n,
        size_label: size_label(m * n),
        p,
        strategy,
        makespan,
        bytes,
        mibps: bandwidth_mibps(bytes, makespan),
    }
}

fn size_label(bytes: u64) -> &'static str {
    match bytes {
        b if b == 32 << 20 => "32 MB",
        b if b == 128 << 20 => "128 MB",
        b if b == 1 << 30 => "1 GB",
        _ => "custom",
    }
}

/// Which strategies run on a platform: the paper's three plus two-phase
/// collective I/O, minus file locking where it does not exist (paper §4:
/// "our performance results on Cplant do not include the experiments that
/// use file locking"). Two-phase runs everywhere — needing no locks on
/// lockless ENFS is precisely its selling point.
pub fn strategies_for(profile: &PlatformProfile) -> Vec<Strategy> {
    Strategy::compared()
        .into_iter()
        .filter(|s| !matches!(s, Strategy::FileLocking(_)) || profile.supports_locking())
        .collect()
}

/// Render a horizontal ASCII bar for a bandwidth value.
pub fn bar(mibps: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((mibps / max) * width as f64).round() as usize
    } else {
        0
    };
    let mut s = String::with_capacity(width);
    for _ in 0..filled.min(width) {
        s.push('█');
    }
    s
}

/// Shape claims of the paper, checked per panel:
/// 1. file locking is the worst strategy wherever it exists;
/// 2. process-rank ordering is at least as good as graph coloring
///    ("in most cases" in the paper — we allow a small tolerance);
/// 3. rank ordering does not *lose* bandwidth as P grows;
/// 4. two-phase collective I/O, when measured, also beats file locking —
///    its serialization-free writes must never degenerate to lock-like
///    behaviour, whatever the aggregator count.
pub fn check_shape(points: &[Point]) -> Vec<String> {
    let mut failures = Vec::new();
    let get = |p: usize, s: Strategy| {
        points
            .iter()
            .find(|pt| pt.p == p && pt.strategy == Some(s))
            .map(|pt| pt.mibps)
    };
    let procs: Vec<usize> = {
        let mut v: Vec<usize> = points.iter().map(|pt| pt.p).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &p in &procs {
        let lock = get(p, Strategy::FileLocking(LockGranularity::Span));
        let color = get(p, Strategy::GraphColoring);
        let rank = get(p, Strategy::RankOrdering);
        let two_phase = get(p, Strategy::TwoPhase);
        if let (Some(l), Some(c)) = (lock, color) {
            if l >= c {
                failures.push(format!("P={p}: locking {l:.2} >= coloring {c:.2}"));
            }
        }
        if let (Some(l), Some(r)) = (lock, rank) {
            if l >= r {
                failures.push(format!("P={p}: locking {l:.2} >= rank-ordering {r:.2}"));
            }
        }
        if let (Some(c), Some(r)) = (color, rank) {
            if c > r * 1.02 {
                failures.push(format!("P={p}: coloring {c:.2} > rank-ordering {r:.2}"));
            }
        }
        if let (Some(l), Some(t)) = (lock, two_phase) {
            if l >= t {
                failures.push(format!("P={p}: locking {l:.2} >= two-phase {t:.2}"));
            }
        }
    }
    // Rank ordering monotone (with 5% tolerance) over P.
    let ro: Vec<f64> = procs
        .iter()
        .filter_map(|&p| get(p, Strategy::RankOrdering))
        .collect();
    for w in ro.windows(2) {
        if w[1] < w[0] * 0.95 {
            failures.push(format!(
                "rank-ordering bandwidth fell from {:.2} to {:.2} as P grew",
                w[0], w[1]
            ));
        }
    }
    failures
}

mod artifact;

pub use artifact::{makespan, ratio, reduction, Args, Artifact, TraceFile};
pub use atomio_trace::{json::Value, object};

#[cfg(test)]
mod tests {
    use atomio_core::ExchangeSchedule;

    use super::*;

    #[test]
    fn point_csv_row_format() {
        let p = Point {
            platform: "TestFS",
            m: 64,
            n: 512,
            size_label: "custom",
            p: 4,
            strategy: Some(Strategy::RankOrdering),
            makespan: 1_000,
            bytes: 32768,
            mibps: 12.5,
        };
        assert_eq!(
            p.csv_row(),
            "TestFS,64,512,custom,4,process-rank-ordering,1000,32768,12.500"
        );
    }

    #[test]
    fn enfs_drops_locking_but_keeps_two_phase() {
        let s = strategies_for(&PlatformProfile::cplant());
        assert_eq!(
            s,
            vec![
                Strategy::GraphColoring,
                Strategy::RankOrdering,
                Strategy::TwoPhase
            ]
        );
        let s = strategies_for(&PlatformProfile::ibm_sp());
        assert_eq!(s.len(), 4);
        assert!(s.contains(&Strategy::TwoPhase));
    }

    #[test]
    fn measure_point_runs_and_is_deterministic() {
        let prof = PlatformProfile::fast_test();
        let a = measure_colwise(
            &prof,
            32,
            512,
            4,
            8,
            Some(Strategy::RankOrdering),
            IoPath::Direct,
        );
        let b = measure_colwise(
            &prof,
            32,
            512,
            4,
            8,
            Some(Strategy::RankOrdering),
            IoPath::Direct,
        );
        assert_eq!(
            a.makespan, b.makespan,
            "virtual makespan must be reproducible"
        );
        assert_eq!(a.bytes, 32 * 512);
        assert!(a.mibps > 0.0);
    }

    #[test]
    fn two_phase_point_deterministic_and_writes_whole_file() {
        let prof = PlatformProfile::fast_test();
        let a = measure_colwise(
            &prof,
            32,
            512,
            4,
            8,
            Some(Strategy::TwoPhase),
            IoPath::Direct,
        );
        let b = measure_colwise(
            &prof,
            32,
            512,
            4,
            8,
            Some(Strategy::TwoPhase),
            IoPath::Direct,
        );
        assert_eq!(
            a.makespan, b.makespan,
            "virtual makespan must be reproducible"
        );
        // Aggregators write the union coverage: exactly the file, once.
        assert_eq!(a.bytes, 32 * 512);
        assert!(a.mibps > 0.0);
    }

    #[test]
    fn aggregator_count_sweep_changes_the_point() {
        // 2 MiB over 256 KiB stripes: enough stripe units for 8 domains.
        let prof = PlatformProfile::ibm_sp();
        let one = measure_colwise_two_phase(
            &prof,
            256,
            8192,
            8,
            8,
            Some(Strategy::TwoPhase),
            IoPath::Direct,
            TwoPhaseConfig {
                aggregators: Some(1),
                ranks_per_node: 1,
                schedule: ExchangeSchedule::Flat,
            },
            None,
        );
        let eight = measure_colwise_two_phase(
            &prof,
            256,
            8192,
            8,
            8,
            Some(Strategy::TwoPhase),
            IoPath::Direct,
            TwoPhaseConfig {
                aggregators: Some(8),
                ranks_per_node: 1,
                schedule: ExchangeSchedule::Flat,
            },
            None,
        );
        assert!(
            eight.mibps > one.mibps,
            "8 aggregators ({:.2}) should outrun 1 ({:.2})",
            eight.mibps,
            one.mibps
        );
    }

    #[test]
    fn shape_checker_flags_inversions() {
        let mk = |p: usize, s: Strategy, mibps: f64| Point {
            platform: "X",
            m: 1,
            n: 1,
            size_label: "custom",
            p,
            strategy: Some(s),
            makespan: 1,
            bytes: 1,
            mibps,
        };
        let good = vec![
            mk(4, Strategy::FileLocking(LockGranularity::Span), 2.0),
            mk(4, Strategy::GraphColoring, 6.0),
            mk(4, Strategy::RankOrdering, 8.0),
            mk(8, Strategy::FileLocking(LockGranularity::Span), 2.0),
            mk(8, Strategy::GraphColoring, 9.0),
            mk(8, Strategy::RankOrdering, 12.0),
        ];
        assert!(check_shape(&good).is_empty());
        let bad = vec![
            mk(4, Strategy::FileLocking(LockGranularity::Span), 9.0),
            mk(4, Strategy::GraphColoring, 6.0),
            mk(4, Strategy::RankOrdering, 8.0),
        ];
        assert_eq!(check_shape(&bad).len(), 2);
        let slow_two_phase = vec![
            mk(4, Strategy::FileLocking(LockGranularity::Span), 2.0),
            mk(4, Strategy::GraphColoring, 6.0),
            mk(4, Strategy::RankOrdering, 8.0),
            mk(4, Strategy::TwoPhase, 1.5),
        ];
        assert_eq!(check_shape(&slow_two_phase).len(), 1);
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
    }
}
