//! Data-sieving bench: the paper's column-wise geometry (M = N = 4096,
//! P = 4, R = 16) issued as *independent* atomic writes, sweeping the
//! sieve buffer size against two references:
//!
//! * **per-run locking** — one exclusive lock + one server write per
//!   noncontiguous run, the naive independent-atomicity baseline;
//! * **span file locking** — `Strategy::FileLocking` via `write_at`: one
//!   lock, still one server write per run.
//!
//! The artifact records server write/read requests, lock acquisitions,
//! sieve windows and virtual-time makespan per buffer size. Acceptance: at
//! the default 512 KiB window the sieved write path must issue **≥ 5×
//! fewer server write requests** than per-run locking (it lands around
//! 30×; locks drop ~4000×).
//!
//! Run with `cargo run --release -p atomio-bench --bin artifacts --
//! --write sieving` (`BENCH_sieving.json`); `--check` runs `sieving_smoke`.

use crate::{counters, makespan, object, ratio, Artifact, Scale, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, LockGranularity, MpiFile, OpenMode, SieveConfig, Strategy};
use atomio_msg::run;
use atomio_pfs::{FileSystem, IoPath, LockMode, PlatformProfile};
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
            let data = &buf[seg.logical_off as usize..][..seg.len as usize];
            posix.write(IoPath::Direct, [(seg.file_off, data)]).unwrap();
            guard.release();
        }
        (start, comm.clock().now(), posix.stats().snapshot())
    });
    collect(out, 0)
}

/// An independent atomic `write_at` per rank through the MPI layer under
/// `strategy` (data sieving windows `sieve` bytes); returns the totals
/// and the file system for post-hoc verification. Span file locking takes
/// one lock and still issues one synchronous server write per run.
fn run_mpi(spec: ColWise, name: &str, strategy: Strategy, sieve: u64) -> (Totals, FileSystem) {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(SieveConfig::default().with_buffer_size(sieve));
        file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
        comm.barrier();
        let start = comm.clock().now();
        let rep = file.write_at(0, &buf).unwrap();
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats, rep.segments as u64)
    });
    let windows = match strategy {
        Strategy::DataSieving => out.iter().map(|(_, _, _, w)| *w).sum(),
        _ => 0,
    };
    let out = out.into_iter().map(|(s, e, st, _)| (s, e, st)).collect();
    (collect(out, windows), fs)
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

/// The sieving scenario at `scale`.
pub(crate) fn sieving(scale: Scale) -> Artifact {
    let smoke = scale == Scale::Smoke;
    let (m, n, p, r, buffers) = if smoke {
        (256, 256, 4, 16, vec![4 << 10, 16 << 10])
    } else {
        let buffers = vec![64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20];
        (4096, 4096, 4, 16, buffers)
    };
    let spec = ColWise::new(m, n, p, r).expect("valid geometry");
    let per_run = run_per_run_locking(spec, "per-run");
    let default_buffer = SieveConfig::default().buffer_size;
    let span_locking = Strategy::FileLocking(LockGranularity::Span);
    let (span, _) = run_mpi(spec, "span", span_locking, default_buffer);

    let mut artifact = Artifact::new("sieving");
    artifact
        .field(
            "workload",
            "column-wise M×N byte array, R overlapped columns, independent MPI_File_write_at \
             per rank in atomic mode",
        )
        .field(
            "geometry",
            object! {"m": m, "n": n, "p": p, "r": r, "smoke": smoke},
        )
        .field(
            "platform",
            "TestFS (4 servers, 4 KiB stripes, central lock manager)",
        )
        .field("per_run_locking", &per_run)
        .field("span_file_locking", &span);
    let mut acceptance = None;
    for buffer in buffers {
        let name = format!("sieve-{buffer}");
        let (t, fs) = run_mpi(spec, &name, Strategy::DataSieving, buffer);
        // Every sieved outcome must be serializable — the scenario doubles
        // as an end-to-end correctness check.
        let snap = fs.snapshot(&name).expect("file written");
        let rep = check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(p));
        assert!(rep.is_atomic(), "{name}: not MPI-atomic: {rep:?}");
        let reduction = ratio(per_run.server_write_requests, t.server_write_requests);
        artifact.row(object! {
            "buffer_size": buffer,
            "totals": &t,
            "write_request_reduction": Value::fixed(reduction, 2),
            "lock_reduction": Value::fixed(ratio(per_run.lock_acquires, t.lock_acquires), 2),
        });
        // Acceptance point: the default 512 KiB window at full geometry.
        if buffer == default_buffer && !smoke {
            acceptance = Some(object! {
                "buffer_size": buffer,
                "metric": "per-run / sieved server write requests",
                "reduction": Value::fixed(reduction, 2),
                "threshold": Value::fixed(5.0, 1),
                "pass": reduction >= 5.0,
            });
        }
    }
    artifact.acceptance("512 KiB", acceptance);
    artifact
}
