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
//!   (per-server extent-lock domains, parallel max-over-shards trips).
//!
//! The platform stripes **column-aligned** (stripe unit = run length,
//! one I/O server per writer column) and is costed **latency-dominated**
//! (RPC latency ≫ per-request server occupancy), so each rank's request
//! stream is independently overlappable. Under the earlier shared-stripe
//! bandwidth-bound costing the makespan was server-capacity-bound —
//! total bytes over aggregate server bandwidth floored every mode
//! equally, and span's serialization surfaced only in `grant_wait_ns`.
//! Now exact-footprint grants run all P streams concurrently (overlapped
//! I/O) while span locking still runs them end to end, so the
//! granularity win shows up in the makespan itself — and because no two
//! ranks share a server horizon, the timing stays deterministic under
//! real-thread racing.
//!
//! Emits `BENCH_locking.json`. Acceptance (full geometry, P = 16): exact
//! and sharded-exact locking must show **≥ 5× fewer serialized grant
//! round trips** *and* **≥ 3× lower makespan** than bounding-span
//! locking, with byte-identical file contents across all three modes.
//!
//! Run with `cargo bench -p atomio-bench --bench locking` (flags:
//! [`atomio_bench::Args`]). Both scales are deterministic and `cmp`-gated
//! in CI against `BENCH_locking.json` and `tests/golden/locking_smoke.json`.

use atomio_bench::{counters, makespan, object, ratio, Args, Artifact, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_msg::run;
use atomio_pfs::{FileSystem, LatencySnapshot, PlatformProfile};
use atomio_vtime::{LinkCost, ServeCost, VNanos};
use atomio_workloads::{pattern, IndependentStrided};

/// One granularity/architecture point of the comparison.
#[derive(Debug, Clone, Copy)]
struct Mode {
    key: &'static str,
    granularity: LockGranularity,
    sharded: bool,
}

const MODES: [Mode; 3] = [
    Mode {
        key: "span",
        granularity: LockGranularity::Span,
        sharded: false,
    },
    Mode {
        key: "exact",
        granularity: LockGranularity::Exact,
        sharded: false,
    },
    Mode {
        key: "sharded",
        granularity: LockGranularity::Exact,
        sharded: true,
    },
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

/// Run the disjoint interleaved collective write under one mode; returns
/// the totals, the latency histograms, and the final file bytes.
/// The comparison platform: the test profile with **column-aligned
/// declustered striping** (stripe unit = run length, one I/O server per
/// writer column) and RPC costs re-balanced so one request is dominated
/// by the client-paid link latency, not by the occupancy it deposits on
/// the server horizon. Each rank's locked write is one pipelined vector
/// (`PosixFile::try_pwritev_direct`) that lives on its own server and is
/// independently overlappable: P vectors granted exactly run concurrently,
/// while span locking still runs them end to end — and because no two
/// ranks ever share a server horizon, the simulated timing is independent
/// of real thread scheduling.
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

fn run_mode(
    spec: IndependentStrided,
    mode: Mode,
    name: &str,
) -> (Totals, LatencySnapshot, Vec<u8>) {
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

fn main() {
    let args = Args::parse("locking");
    let (rows, row_bytes, procs) = if args.smoke {
        (128, 256, vec![4, 16])
    } else {
        (4096, 4096, vec![4, 16, 64])
    };
    println!(
        "locking bench: disjoint interleaved writers, {rows} runs x {row_bytes} B rows{}",
        if args.smoke { " [smoke]" } else { "" }
    );

    type Panel = (usize, Vec<(Mode, Totals, LatencySnapshot)>);
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &procs {
        let spec = IndependentStrided::disjoint_interleaved(p, rows, row_bytes / p as u64)
            .expect("valid geometry");
        let mut row = Vec::new();
        let mut reference: Option<Vec<u8>> = None;
        for mode in MODES {
            let name = format!("lk-{p}-{}", mode.key);
            let (t, lat, snap) = run_mode(spec, mode, &name);
            // Disjoint writers: all three granularities must produce the
            // same bytes — the bench doubles as an equivalence check.
            match &reference {
                Some(r) => assert_eq!(
                    r, &snap,
                    "P={p}: {} contents differ from span locking",
                    mode.key
                ),
                None => reference = Some(snap),
            }
            println!("P={p:<4} {:>8}  {}", mode.key, Value::from(&t));
            row.push((mode, t, lat));
        }
        panels.push((p, row));
    }

    let mut artifact = Artifact::new(&args);
    artifact
        .field(
            "workload",
            "disjoint interleaved strided writers (colwise 4096x4096 with zero overlapped \
             columns): rank r owns slot r of every row; collective atomic \
             MPI_File_write_at_all under Strategy::FileLocking",
        )
        .field(
            "geometry",
            object! {"rows": rows, "row_bytes": row_bytes, "smoke": args.smoke},
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
            let vs_span = |of: fn(&Totals) -> u64| Value::fixed(ratio(of(&span), of(t)), 2);
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
    // cut serialized grant round trips >= 5x vs bounding-span locking
    // AND beat its makespan >= 3x (the overlapped-I/O win itself).
    let acceptance = panels.iter().find(|(p, _)| *p == 16 && !args.smoke);
    let acceptance = acceptance.map(|(_, row)| {
        let span = totals_of(row, "span");
        let worst = |of: fn(&Totals) -> u64| {
            let fine = row.iter().filter(|(m, _, _)| m.key != "span");
            fine.map(|(_, t, _)| ratio(of(&span), of(t)))
                .fold(f64::INFINITY, f64::min)
        };
        (worst(|t| t.serialized_grants), worst(|t| t.makespan_ns))
    });
    artifact.acceptance(
        "P=16",
        acceptance.map(|(reduction, speedup)| {
            object! {
                "p": 16usize,
                "metric": "span / exact serialized grant round trips and span / exact makespan \
                           (each min over exact and sharded)",
                "reduction": Value::fixed(reduction, 2),
                "threshold": Value::fixed(5.0, 1),
                "makespan_speedup": Value::fixed(speedup, 2),
                "speedup_threshold": Value::fixed(3.0, 1),
                "byte_identical": true,
                "pass": reduction >= 5.0 && speedup >= 3.0,
            }
        }),
    );
    artifact.write();
    if let Some((reduction, speedup)) = acceptance {
        assert!(
            reduction >= 5.0,
            "acceptance: exact/sharded locking must cut serialized grant round trips \
             >= 5x vs span locking at P=16, got {reduction:.2}x"
        );
        assert!(
            speedup >= 3.0,
            "acceptance: exact/sharded locking must beat span locking's makespan >= 3x \
             at P=16 on the latency-dominated platform, got {speedup:.2}x"
        );
    }
}
