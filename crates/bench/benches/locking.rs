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
//! Run with `cargo bench -p atomio-bench --bench locking`; pass
//! `-- --smoke` for the quick CI geometry and `-- --out <path>` to choose
//! where the JSON lands (default: the workspace root).

use std::fmt::Write as _;
use std::path::PathBuf;

use atomio_bench::json_latency;
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_msg::run;
use atomio_pfs::{FileSystem, LatencySnapshot, PlatformProfile};
use atomio_vtime::{LinkCost, ServeCost, VNanos};
use atomio_workloads::{pattern, IndependentStrided};

struct Config {
    rows: u64,
    row_bytes: u64,
    procs: Vec<usize>,
    out: PathBuf,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().map(PathBuf::from),
            // `cargo bench` forwards harness flags; ignore the rest.
            _ => {}
        }
    }
    let out = out.unwrap_or_else(|| {
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.pop();
        p.pop();
        p.push("BENCH_locking.json");
        p
    });
    if smoke {
        Config {
            rows: 128,
            row_bytes: 256,
            procs: vec![4, 16],
            out,
            smoke,
        }
    } else {
        Config {
            rows: 4096,
            row_bytes: 4096,
            procs: vec![4, 16, 64],
            out,
            smoke,
        }
    }
}

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

/// Aggregate counters of one whole run (all ranks).
#[derive(Debug, Clone, Copy, Default)]
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

fn json_totals(t: &Totals) -> String {
    format!(
        "{{\"makespan_ns\": {}, \"lock_acquires\": {}, \"lock_ranges\": {}, \
         \"serialized_grants\": {}, \"shard_trips\": {}, \"grant_wait_ns\": {}}}",
        t.makespan_ns,
        t.lock_acquires,
        t.lock_ranges,
        t.serialized_grants,
        t.shard_trips,
        t.grant_wait_ns
    )
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
    let start = out.iter().map(|(s, _, _)| *s).min().unwrap_or(0);
    let end = out.iter().map(|(_, e, _)| *e).max().unwrap_or(0);
    let mut t = Totals {
        makespan_ns: end - start,
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

fn main() {
    let cfg = parse_args();
    println!(
        "locking bench: disjoint interleaved writers, {} runs x {} B rows{}",
        cfg.rows,
        cfg.row_bytes,
        if cfg.smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>4} {:>8}  {:>14} {:>8} {:>10} {:>12} {:>12} {:>16} {:>10} {:>10}",
        "P",
        "mode",
        "makespan_ns",
        "locks",
        "ranges",
        "serialized",
        "shard_trips",
        "grant_wait_ns",
        "g_p50_ns",
        "g_p99_ns"
    );

    type Panel = (usize, Vec<(Mode, Totals, LatencySnapshot)>);
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &cfg.procs {
        let run_len = cfg.row_bytes / p as u64;
        let spec =
            IndependentStrided::disjoint_interleaved(p, cfg.rows, run_len).expect("valid geometry");
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
            println!(
                "{:>4} {:>8}  {:>14} {:>8} {:>10} {:>12} {:>12} {:>16} {:>10} {:>10}",
                p,
                mode.key,
                t.makespan_ns,
                t.lock_acquires,
                t.lock_ranges,
                t.serialized_grants,
                t.shard_trips,
                t.grant_wait_ns,
                lat.grant_wait.p50(),
                lat.grant_wait.p99()
            );
            row.push((mode, t, lat));
        }
        panels.push((p, row));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"locking\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"disjoint interleaved strided writers (colwise 4096x4096 with zero \
         overlapped columns): rank r owns slot r of every row; collective atomic \
         MPI_File_write_at_all under Strategy::FileLocking\","
    );
    let _ = writeln!(
        json,
        "  \"geometry\": {{\"rows\": {}, \"row_bytes\": {}, \"smoke\": {}}},",
        cfg.rows, cfg.row_bytes, cfg.smoke
    );
    let _ = writeln!(
        json,
        "  \"modes\": {{\"span\": \"bounding-span lock, central manager\", \"exact\": \
         \"exact-footprint atomic list grant, central manager\", \"sharded\": \
         \"exact list grant over per-server sharded lock domains\"}},",
    );
    let _ = writeln!(
        json,
        "  \"note\": \"striping is column-aligned (stripe unit = run length, one I/O server \
         per writer column) and the costing latency-dominated (RPC latency >> per-request \
         server occupancy), so each rank's request stream is independently overlappable: \
         exact-footprint grants run all P streams concurrently (overlapped I/O) while span \
         locking runs them end to end, and the serialization the granularity axis removes \
         shows up in the makespan as well as in serialized_grants and grant_wait_ns\","
    );
    let _ = writeln!(json, "  \"points\": [");
    for (i, (p, row)) in panels.iter().enumerate() {
        let span = row.iter().find(|(m, _, _)| m.key == "span").unwrap().1;
        let _ = writeln!(json, "    {{\"p\": {p},");
        for (mode, t, lat) in row {
            let reduction = span.serialized_grants as f64 / t.serialized_grants.max(1) as f64;
            let wait_reduction = span.grant_wait_ns as f64 / t.grant_wait_ns.max(1) as f64;
            let speedup = span.makespan_ns as f64 / t.makespan_ns.max(1) as f64;
            let _ = writeln!(
                json,
                "     \"{}\": {{\"totals\": {}, \"serialized_grant_reduction\": {:.2}, \
                 \"grant_wait_reduction\": {:.2}, \"makespan_speedup\": {:.2}, \
                 \"latency\": {{\"grant_wait\": {}, \"server_service\": {}}}}}{}",
                mode.key,
                json_totals(t),
                reduction,
                wait_reduction,
                speedup,
                json_latency(&lat.grant_wait),
                json_latency(&lat.server_service),
                if mode.key == "sharded" { "" } else { "," }
            );
        }
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < panels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // Acceptance: P = 16 at full geometry — exact and sharded must each
    // cut serialized grant round trips >= 5x vs bounding-span locking
    // AND beat its makespan >= 3x (the overlapped-I/O win itself).
    let acceptance = panels.iter().find(|(p, _)| *p == 16 && !cfg.smoke);
    match acceptance {
        Some((p, row)) => {
            let span = row.iter().find(|(m, _, _)| m.key == "span").unwrap().1;
            let fine = row.iter().filter(|(m, _, _)| m.key != "span");
            let worst = fine
                .clone()
                .map(|(_, t, _)| span.serialized_grants as f64 / t.serialized_grants.max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            let worst_speedup = fine
                .map(|(_, t, _)| span.makespan_ns as f64 / t.makespan_ns.max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                json,
                "  \"acceptance\": {{\"p\": {p}, \"metric\": \"span / exact serialized grant \
                 round trips and span / exact makespan (each min over exact and sharded)\", \
                 \"reduction\": {:.2}, \"threshold\": 5.0, \"makespan_speedup\": {:.2}, \
                 \"speedup_threshold\": 3.0, \"byte_identical\": true, \"pass\": {}}}",
                worst,
                worst_speedup,
                worst >= 5.0 && worst_speedup >= 3.0
            );
            let _ = writeln!(json, "}}");
            std::fs::write(&cfg.out, &json).expect("write BENCH_locking.json");
            println!("wrote {}", cfg.out.display());
            assert!(
                worst >= 5.0,
                "acceptance: exact/sharded locking must cut serialized grant round trips \
                 >= 5x vs span locking at P=16, got {worst:.2}x"
            );
            assert!(
                worst_speedup >= 3.0,
                "acceptance: exact/sharded locking must beat span locking's makespan >= 3x \
                 at P=16 on the latency-dominated platform, got {worst_speedup:.2}x"
            );
        }
        None => {
            let _ = writeln!(
                json,
                "  \"acceptance\": {{\"note\": \"smoke geometry; run without --smoke for the \
                 P=16 acceptance point\"}}"
            );
            let _ = writeln!(json, "}}");
            std::fs::write(&cfg.out, &json).expect("write BENCH_locking.json");
            println!("wrote {}", cfg.out.display());
        }
    }
}
