//! Data-sieving bench: the paper's column-wise geometry (M = N = 4096,
//! P = 4, R = 16) issued as *independent* atomic writes, sweeping the
//! sieve buffer size against two references:
//!
//! * **per-run locking** — one exclusive lock + one server write per
//!   noncontiguous run, the naive independent-atomicity baseline;
//! * **span file locking** — `Strategy::FileLocking` via `write_at`: one
//!   lock, still one server write per run.
//!
//! Emits a machine-readable `BENCH_sieving.json` recording server
//! write/read requests, lock acquisitions, sieve windows and virtual-time
//! makespan per buffer size. Acceptance: at the default 512 KiB window the
//! sieved write path must issue **≥ 5× fewer server write requests** than
//! per-run locking (it lands around 30×; locks drop ~4000×).
//!
//! Run with `cargo bench -p atomio-bench --bench sieving` (flags:
//! [`atomio_bench::Args`]).

use atomio_bench::{counters, makespan, object, ratio, Args, Artifact, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, LockGranularity, MpiFile, OpenMode, SieveConfig, Strategy};
use atomio_msg::run;
use atomio_pfs::{FileSystem, LockMode, PlatformProfile};
use atomio_vtime::VNanos;
use atomio_workloads::{pattern, ColWise};

counters! {
    /// Aggregate counters of one whole run (all ranks).
    struct Totals {
        server_write_requests: u64,
        server_read_requests: u64,
        lock_acquires: u64,
        windows: u64,
        makespan_ns: VNanos,
    }
}

/// Per-run locking: one exclusive lock and one synchronous write per
/// noncontiguous run — the naive strawman (not even MPI-atomic: winners
/// can flip between rows, which is the §2.2 hazard).
fn run_per_run_locking(spec: ColWise, name: &str) -> Totals {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let posix = fs.open(comm.rank(), comm.clock().clone(), name);
        comm.barrier();
        let start = comm.clock().now();
        for seg in part.view.segments(0, buf.len() as u64) {
            let guard = posix
                .lock(
                    atomio_interval::ByteRange::at(seg.file_off, seg.len),
                    LockMode::Exclusive,
                )
                .expect("fast_test supports locking");
            posix.pwrite_direct(
                seg.file_off,
                &buf[seg.logical_off as usize..][..seg.len as usize],
            );
            guard.release();
        }
        (start, comm.clock().now(), posix.stats().snapshot())
    });
    collect(out, 0)
}

/// `Strategy::FileLocking` through the MPI layer: one span lock, one
/// synchronous server write per run.
fn run_span_locking(spec: ColWise, name: &str) -> Totals {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        comm.barrier();
        let start = comm.clock().now();
        file.write_at(0, &buf).unwrap();
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats)
    });
    collect(out, 0)
}

/// Atomic data sieving with the given window size; returns the totals and
/// the file system for post-hoc verification.
fn run_sieving(spec: ColWise, name: &str, buffer: u64) -> (Totals, FileSystem) {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(SieveConfig::default().with_buffer_size(buffer));
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        comm.barrier();
        let start = comm.clock().now();
        let rep = file.write_at(0, &buf).unwrap();
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats, rep.segments as u64)
    });
    let windows: u64 = out.iter().map(|(_, _, _, w)| *w).sum();
    let totals = collect(
        out.into_iter().map(|(s, e, st, _)| (s, e, st)).collect(),
        windows,
    );
    (totals, fs)
}

fn collect(out: Vec<(VNanos, VNanos, atomio_pfs::StatsSnapshot)>, windows: u64) -> Totals {
    let mut t = Totals {
        windows,
        makespan_ns: makespan(out.iter().map(|(s, e, _)| (*s, *e))),
        ..Totals::default()
    };
    for (_, _, s) in &out {
        t.server_write_requests += s.server_write_requests;
        t.server_read_requests += s.server_read_requests;
        t.lock_acquires += s.lock_acquires;
    }
    t
}

fn verify_atomic(fs: &FileSystem, name: &str, spec: ColWise) {
    let snap = fs.snapshot(name).expect("file written");
    let rep = check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(spec.p));
    assert!(rep.is_atomic(), "{name}: not MPI-atomic: {rep:?}");
}

fn main() {
    let args = Args::parse("sieving");
    let (m, n, p, r, buffers) = if args.smoke {
        (256, 256, 4, 16, vec![4 << 10, 16 << 10])
    } else {
        let buffers = vec![64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20];
        (4096, 4096, 4, 16, buffers)
    };
    let spec = ColWise::new(m, n, p, r).expect("valid geometry");
    println!(
        "sieving bench: column-wise M={m} N={n} P={p} R={r} independent atomic writes{}",
        if args.smoke { " [smoke]" } else { "" }
    );

    let per_run = run_per_run_locking(spec, "per-run");
    println!("{:>16}  {}", "per-run locking", Value::from(&per_run));
    let span = run_span_locking(spec, "span");
    println!("{:>16}  {}", "span locking", Value::from(&span));

    let mut points: Vec<(u64, Totals)> = Vec::new();
    for &buffer in &buffers {
        let name = format!("sieve-{buffer}");
        let (t, fs) = run_sieving(spec, &name, buffer);
        // Every sieved outcome must be serializable — the bench doubles as
        // an end-to-end correctness check.
        verify_atomic(&fs, &name, spec);
        let label = format!("sieve {}K", buffer >> 10);
        println!("{label:>16}  {}", Value::from(&t));
        points.push((buffer, t));
    }

    let mut artifact = Artifact::new(&args);
    artifact
        .field(
            "workload",
            "column-wise M×N byte array, R overlapped columns, independent MPI_File_write_at \
             per rank in atomic mode",
        )
        .field(
            "geometry",
            object! {"m": m, "n": n, "p": p, "r": r, "smoke": args.smoke},
        )
        .field(
            "platform",
            "TestFS (4 servers, 4 KiB stripes, central lock manager)",
        )
        .field("per_run_locking", &per_run)
        .field("span_file_locking", &span);
    let write_reduction =
        |t: &Totals| ratio(per_run.server_write_requests, t.server_write_requests);
    for (buffer, t) in &points {
        artifact.row(object! {
            "buffer_size": *buffer,
            "totals": t,
            "write_request_reduction": Value::fixed(write_reduction(t), 2),
            "lock_reduction": Value::fixed(ratio(per_run.lock_acquires, t.lock_acquires), 2),
        });
    }

    // Acceptance point: the default 512 KiB window at full geometry.
    let acceptance = points
        .iter()
        .find(|(b, _)| *b == SieveConfig::default().buffer_size && !args.smoke)
        .map(|(buffer, t)| (*buffer, write_reduction(t)));
    artifact.acceptance(
        "512 KiB",
        acceptance.map(|(buffer, reduction)| {
            object! {
                "buffer_size": buffer,
                "metric": "per-run / sieved server write requests",
                "reduction": Value::fixed(reduction, 2),
                "threshold": Value::fixed(5.0, 1),
                "pass": reduction >= 5.0,
            }
        }),
    );
    artifact.write();
    if let Some((_, reduction)) = acceptance {
        assert!(
            reduction >= 5.0,
            "acceptance: sieving must cut server write requests >= 5x vs per-run locking, \
             got {reduction:.2}x"
        );
    }
}
