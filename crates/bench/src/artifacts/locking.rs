//! List-locking bench: bounding-span vs exact-footprint vs sharded-exact
//! byte-range locking on **disjoint interleaved** strided writers — the
//! 4096×4096 column-wise geometry with zero overlapped columns, expressed
//! as [`IndependentStrided::disjoint_interleaved`]: rank `r` owns the
//! `r`-th slot of every row, so every pair of bounding spans overlaps
//! (span locking serializes all P writers) while no two footprints share
//! a byte (exact list locking admits full parallelism).
//!
//! Three granularity/architecture points per P ∈ {4, 16, 64}:
//!
//! * **span** — `Strategy::FileLocking(Span)` on the central manager: the
//!   paper's §3.2 baseline, one conservative range each;
//! * **exact** — `Strategy::FileLocking(Exact)` on the central manager:
//!   one atomic multi-range list grant of the compressed footprint;
//! * **sharded** — exact grants on the sharded preset of the lock manager
//!   (per-server extent-lock domains, parallel max-over-shards trips). Each
//!   rank's column lives on one server here, so every grant rides its
//!   data request: no trip, no grant wait.
//!
//! The platform stripes **column-aligned** (stripe unit = run length,
//! one I/O server per writer column) and is costed **latency-dominated**
//! (RPC latency ≫ per-request server occupancy), so exact-footprint grants
//! run all P streams concurrently while span locking runs them end to
//! end: the granularity win shows in the makespan itself, and because no
//! two ranks share a server horizon the timing is deterministic.
//!
//! Run with `cargo run --release -p atomio-bench --bin artifacts --
//! --write locking locking_smoke` (`BENCH_locking.json` and its smoke
//! golden, both compared by `--check`); a reduction over a zero base is
//! `null`. Acceptance (full geometry, P = 16): exact
//! and sharded-exact locking must each serialize **at most a fifth of
//! span's grants** (counts, so zero passes) *and* show **≥ 3× lower
//! makespan** than bounding-span locking, with byte-identical file
//! contents across all three modes.

use crate::{counters, makespan, object, ratio, reduction, Artifact, Scale, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_msg::run;
use atomio_pfs::{FileSystem, LatencySnapshot, PlatformProfile, Snapshot};
use atomio_vtime::{LinkCost, ServeCost, VNanos};
use atomio_workloads::{pattern, IndependentStrided};

/// One granularity/architecture point of the comparison.
#[derive(Debug, Clone, Copy)]
struct Mode {
    key: &'static str,
    granularity: LockGranularity,
    sharded: bool,
}

#[rustfmt::skip]
const MODES: [Mode; 3] = [
    Mode { key: "span", granularity: LockGranularity::Span, sharded: false },
    Mode { key: "exact", granularity: LockGranularity::Exact, sharded: false },
    Mode { key: "sharded", granularity: LockGranularity::Exact, sharded: true },
];

counters! {
    /// Aggregate counters of one whole run (all ranks).
    struct Totals {
        makespan_ns: VNanos,
        lock_acquires: u64,
        lock_ranges: u64,
        serialized_grants: u64,
        shard_trips: u64,
        /// Total virtual time all ranks spent waiting for their grants — the
        /// pure lock-serialization time, independent of the (server-bound,
        /// identical across modes) data movement.
        grant_wait_ns: u64,
    }
}

/// The comparison platform: the test profile striped one server per
/// writer column, with one request dominated by the client-paid link
/// latency rather than by its server occupancy.
fn bench_profile(spec: &IndependentStrided, sharded: bool) -> PlatformProfile {
    let mut p = PlatformProfile::fast_test();
    if sharded {
        p = p.with_sharded_locks();
    }
    p.sim_servers = spec.p;
    p.stripe_unit = spec.run_len;
    p.client_link = LinkCost::new(40_000, 4.0e9);
    p.serve = ServeCost::new(500, 4.0e9);
    p
}

/// Run the disjoint interleaved collective write under one mode; returns
/// the totals, the latency histograms, and the final file bytes.
fn run_mode(
    spec: IndependentStrided,
    mode: Mode,
    name: &str,
) -> (Totals, LatencySnapshot, Snapshot) {
    let fs = FileSystem::new(bench_profile(&spec, mode.sharded));
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        let buf = spec.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(spec.disp(comm.rank()), spec.filetype())
            .unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(mode.granularity)))
            .unwrap();
        comm.barrier();
        let start = comm.clock().now();
        file.write_at_all(0, &buf).unwrap();
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats)
    });
    let mut t = Totals {
        makespan_ns: makespan(out.iter().map(|(s, e, _)| (*s, *e))),
        ..Totals::default()
    };
    for (_, _, s) in &out {
        t.lock_acquires += s.lock_acquires;
        t.lock_ranges += s.lock_ranges;
        t.serialized_grants += s.lock_serialized_grants;
        t.shard_trips += s.lock_shard_trips;
        t.grant_wait_ns += s.lock_wait_ns;
    }
    let latency = fs.latency_snapshot();
    let snap = fs.snapshot(name).expect("file written");
    let views = spec.all_views();
    let rep = check_mpi_atomicity(&snap, &views, &pattern::rank_stamps(spec.p));
    assert!(rep.is_atomic(), "{name}: not MPI-atomic: {rep:?}");
    (t, latency, snap)
}

/// The totals `key`'s mode produced in one panel.
fn totals_of(row: &[(Mode, Totals, LatencySnapshot)], key: &str) -> Totals {
    let mode = row.iter().find(|(m, _, _)| m.key == key);
    mode.expect("every mode runs in every panel").1
}

/// The locking scenario at `scale`.
pub(crate) fn locking(scale: Scale) -> Artifact {
    let smoke = scale == Scale::Smoke;
    let (rows, row_bytes, procs) = if smoke {
        (128, 256, vec![4, 16])
    } else {
        (4096, 4096, vec![4, 16, 64])
    };

    type Panel = (usize, Vec<(Mode, Totals, LatencySnapshot)>);
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &procs {
        let spec = IndependentStrided::disjoint_interleaved(p, rows, row_bytes / p as u64)
            .expect("valid geometry");
        let mut row = Vec::new();
        let mut reference: Option<Snapshot> = None;
        for mode in MODES {
            let name = format!("lk-{p}-{}", mode.key);
            let (t, lat, snap) = run_mode(spec, mode, &name);
            // Disjoint writers: all three granularities must produce the
            // same bytes — the scenario doubles as an equivalence check.
            let first = reference.get_or_insert_with(|| snap.clone());
            assert_eq!(
                first, &snap,
                "P={p}: {} differs from span locking",
                mode.key
            );
            row.push((mode, t, lat));
        }
        panels.push((p, row));
    }

    let mut artifact = Artifact::new("locking");
    artifact
        .field(
            "workload",
            "disjoint interleaved strided writers (colwise 4096x4096 with zero overlapped \
             columns): rank r owns slot r of every row; collective atomic \
             MPI_File_write_at_all under Strategy::FileLocking",
        )
        .field(
            "geometry",
            object! {"rows": rows, "row_bytes": row_bytes, "smoke": smoke},
        )
        .field(
            "modes",
            object! {
                "span": "bounding-span lock, central manager",
                "exact": "exact-footprint atomic list grant, central manager",
                "sharded": "exact list grant over per-server sharded lock domains",
            },
        )
        .field(
            "note",
            "striping is column-aligned (stripe unit = run length, one I/O server per writer \
             column) and the costing latency-dominated (RPC latency >> per-request server \
             occupancy), so each rank's request stream is independently overlappable: \
             exact-footprint grants run all P streams concurrently (overlapped I/O) while span \
             locking runs them end to end, and the serialization the granularity axis removes \
             shows up in the makespan as well as in serialized_grants and grant_wait_ns",
        );
    for (p, row) in &panels {
        let span = totals_of(row, "span");
        let modes = row.iter().map(|(mode, t, lat)| {
            let vs_span = |of: fn(&Totals) -> u64| reduction(of(&span), of(t));
            let point = object! {
                "totals": t,
                "serialized_grant_reduction": vs_span(|t| t.serialized_grants),
                "grant_wait_reduction": vs_span(|t| t.grant_wait_ns),
                "makespan_speedup": vs_span(|t| t.makespan_ns),
                "latency": object! {
                    "grant_wait": &lat.grant_wait,
                    "server_service": &lat.server_service,
                },
            };
            (mode.key, point)
        });
        artifact.panel(object! {"p": *p}, modes);
    }

    // Acceptance: P = 16 at full geometry — exact and sharded must each
    // serialize at most a fifth of span's grants (compared as counts, so a
    // mode that serializes none passes without a quotient) AND beat its
    // makespan >= 3x (the overlapped-I/O win itself).
    let acceptance = panels.iter().find(|(p, _)| *p == 16 && !smoke);
    let acceptance = acceptance.map(|(_, row)| {
        let span = totals_of(row, "span");
        let fine = row.iter().filter(|(m, _, _)| m.key != "span");
        let fine =
            fine.map(|(_, t, _)| (t.serialized_grants, ratio(span.makespan_ns, t.makespan_ns)));
        let serialized = fine
            .clone()
            .map(|(s, _)| s)
            .max()
            .expect("exact and sharded run");
        let speedup = fine.map(|(_, x)| x).fold(f64::INFINITY, f64::min);
        let span = span.serialized_grants;
        object! {
            "p": 16usize,
            "metric": "serialized grants of span vs the worst of exact and sharded (pass: \
                       fine x 5 <= span), and span / exact makespan (min over exact and \
                       sharded)",
            "span_serialized_grants": span,
            "fine_serialized_grants": serialized,
            "reduction": reduction(span, serialized),
            "threshold": Value::fixed(5.0, 1),
            "makespan_speedup": Value::fixed(speedup, 2),
            "speedup_threshold": Value::fixed(3.0, 1),
            "byte_identical": true,
            "pass": serialized * 5 <= span && speedup >= 3.0,
        }
    });
    artifact.acceptance("P=16", acceptance);
    artifact
}
