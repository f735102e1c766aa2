//! Data-sieving end-to-end: atomic sieving must be MPI-atomic on every
//! workload and platform that has byte-range locks, must refuse atomic
//! mode where locks don't exist (ENFS), must slash server requests versus
//! per-run I/O, and — run *without* the lock — must observably exhibit the
//! §2.1 read-modify-write hazard the lock exists to prevent.

mod common;

use atomio::prelude::*;
use common::check_colwise;

/// A sieve configuration small enough that the test geometries produce
/// several windows (the default 512 KiB window would swallow them whole).
fn test_sieve() -> SieveConfig {
    SieveConfig {
        buffer_size: 4 * 1024,
        ..SieveConfig::default()
    }
}

/// The three platforms of Table 1: ENFS (no locks), XFS-like (central
/// lock manager), GPFS-like (distributed tokens).
fn paper_platforms() -> Vec<PlatformProfile> {
    PlatformProfile::paper_platforms()
}

/// Run every rank of `spec`-like geometry through an *independent*
/// `write_at` (no collective, no view exchange) with the given atomicity.
fn run_independent_subarray(
    fs: &FileSystem,
    name: &str,
    parts: Vec<Partition>,
    atomicity: Atomicity,
) {
    let p = parts.len();
    run(p, fs.profile().net.clone(), |comm| {
        let part = &parts[comm.rank()];
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(test_sieve());
        file.set_atomicity(atomicity).unwrap();
        comm.barrier();
        file.write_at(0, &buf).unwrap();
        file.close().unwrap();
    });
}

#[test]
fn sieving_matrix_workloads_by_platforms() {
    // All three standard workloads under all three PFS profiles. Where
    // byte-range locks exist (XFS, GPFS) atomic data sieving must yield an
    // MPI-atomic file through purely independent calls; on ENFS atomic
    // mode must be refused exactly like plain file locking (paper §5: no
    // locks, no independent atomicity).
    let colwise = ColWise::new(64, 512, 4, 8).unwrap();
    let rowwise = RowWise::new(64, 256, 4, 4).unwrap();
    let ghost = BlockBlock::new(48, 48, 3, 3, 2).unwrap();

    for profile in paper_platforms() {
        let lockful = profile.supports_locking();
        let workloads: Vec<(&str, Vec<Partition>, Vec<StridedSet>)> = vec![
            (
                "colwise",
                (0..colwise.p).map(|r| colwise.partition(r)).collect(),
                colwise.all_views(),
            ),
            (
                "rowwise",
                (0..rowwise.p).map(|r| rowwise.partition(r)).collect(),
                rowwise.all_views(),
            ),
            (
                "ghost",
                (0..ghost.nprocs()).map(|r| ghost.partition(r)).collect(),
                ghost.all_views(),
            ),
        ];
        for (wname, parts, views) in workloads {
            let fs = FileSystem::new(profile.clone());
            let name = format!("{}-{}", profile.file_system, wname);
            let p = parts.len();

            if !lockful {
                // ENFS: atomic sieving needs locks it doesn't have.
                run(p, fs.profile().net.clone(), |comm| {
                    let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
                    let err = file
                        .set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
                        .unwrap_err();
                    assert!(
                        matches!(err, atomio::core::Error::AtomicityUnsupported { .. }),
                        "{err:?}"
                    );
                    file.close().unwrap();
                });
                continue;
            }

            run_independent_subarray(&fs, &name, parts, Atomicity::Atomic(Strategy::DataSieving));
            let snap = fs.snapshot(&name).unwrap();
            let rep = verify::check_mpi_atomicity(&snap, &views, &pattern::rank_stamps(p));
            assert!(
                rep.is_atomic(),
                "{} / {wname}: {rep:?}",
                profile.file_system
            );
        }
    }
}

#[test]
fn collective_sieving_is_atomic_and_reports_windows() {
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let reports: Vec<WriteReport> = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "coll", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(test_sieve());
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        comm.barrier();
        let rep = file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
        rep
    });
    let rep = check_colwise(&fs, "coll", spec);
    assert!(rep.is_atomic(), "{rep:?}");
    for r in &reports {
        // 64 rows of 512 bytes stride with a 4 KiB window: several windows,
        // far fewer than the 64 per-row runs.
        assert!(
            r.segments > 1 && r.segments < 64,
            "windows = {}",
            r.segments
        );
        let fp = r.lock_footprint.as_ref().expect("atomic sieving locks");
        assert_eq!(fp.granularity, LockGranularity::Exact);
        assert_eq!(
            fp.ranges(),
            r.segments as u64,
            "exact sieving locks one range per window"
        );
    }
}

#[test]
fn sieved_read_returns_written_data_with_few_requests() {
    let spec = ColWise::new(64, 512, 4, 0).unwrap(); // disjoint columns
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let ok = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::offset_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "rdback", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(test_sieve());
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        let mut back = vec![0u8; buf.len()];
        let rrep = file.read_at_all(0, &mut back).unwrap();
        let close = file.close().unwrap();
        back == buf && rrep.segments < 64 && close.stats.server_read_requests > 0
    });
    assert!(ok.into_iter().all(|c| c), "sieved read-back mismatch");
}

#[test]
fn sieving_slashes_server_requests_vs_per_run_locking() {
    // The reduction claim at test scale: the same column-wise request
    // issued as one-lock-one-write *per run* versus sieved windows.
    let spec = ColWise::new(64, 512, 4, 8).unwrap();

    // Baseline: per-run locking, straight POSIX (what a naive atomic
    // implementation would do) — one exclusive lock and one server write
    // per noncontiguous run.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let baseline: Vec<_> = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let posix = fs.open(comm.rank(), comm.clock().clone(), "perrun");
        for seg in part.view.segments(0, buf.len() as u64) {
            let guard = posix
                .lock(ByteRange::at(seg.file_off, seg.len), LockMode::Exclusive)
                .unwrap();
            let data = &buf[seg.logical_off as usize..][..seg.len as usize];
            posix.try_pwrite_direct(seg.file_off, data).unwrap();
            guard.release();
        }
        posix.stats().snapshot()
    });

    let fs2 = FileSystem::new(PlatformProfile::fast_test());
    let sieved: Vec<_> = run(spec.p, fs2.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs2, "sieve", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(SieveConfig::default()); // one big window here
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        file.write_at(0, &buf).unwrap();
        file.close().unwrap().stats
    });

    let base_writes: u64 = baseline.iter().map(|s| s.server_write_requests).sum();
    let base_locks: u64 = baseline.iter().map(|s| s.lock_acquires).sum();
    let sieve_writes: u64 = sieved.iter().map(|s| s.server_write_requests).sum();
    let sieve_locks: u64 = sieved.iter().map(|s| s.lock_acquires).sum();
    assert!(
        sieve_writes * 5 <= base_writes,
        "sieving {sieve_writes} write requests vs per-run {base_writes}"
    );
    assert!(
        sieve_locks * 5 <= base_locks,
        "sieving {sieve_locks} locks vs per-run {base_locks}"
    );
    // The files agree byte-for-byte where a single serialization exists.
    assert!(check_colwise(&fs2, "sieve", spec).is_atomic());
}

#[test]
fn rmw_disabled_sieving_never_reads() {
    let spec = ColWise::new(32, 256, 2, 0).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let stats: Vec<_> = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "norm", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(SieveConfig {
            read_modify_write: false,
            ..SieveConfig::default()
        });
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        file.write_at(0, &buf).unwrap();
        file.close().unwrap().stats
    });
    assert!(
        stats.iter().all(|s| s.server_read_requests == 0),
        "RMW off must never issue hole-fill reads"
    );
    assert!(check_colwise(&fs, "norm", spec).is_atomic());
}

/// One rank's atomic sieved `write_at` of `buf` through a byte vector view
/// of `blocks` × 8-byte blocks `stride` bytes apart from offset `disp`, on
/// a file seeded with `seed`. Returns the file image and the
/// (reads, writes) the call issued.
fn sieve_one_window(
    seed: &[u8],
    disp: u64,
    blocks: u64,
    stride: i64,
    buf: &[u8],
) -> (Vec<u8>, (u64, u64)) {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let ops = run(1, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "rmw", OpenMode::ReadWrite).unwrap();
        if !seed.is_empty() {
            file.posix().try_pwrite_direct(0, seed).unwrap();
        }
        let filetype = Datatype::vector(blocks, 8, stride, Datatype::byte()).unwrap();
        file.set_view(disp, filetype).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        let before = file.posix().stats().snapshot();
        let rep = file.write_at(0, buf).unwrap();
        assert_eq!(rep.segments, 1, "one window");
        let d = file.posix().stats().snapshot().delta(&before);
        (d.reads, d.writes)
    });
    (fs.snapshot("rmw").unwrap().to_vec(), ops[0])
}

#[test]
fn rmw_patches_holes_with_server_contents() {
    // Four 8-byte pieces at 8, 24, 40 and 56 make one window [8, 64) with
    // three holes; the holes keep the seed, and the window costs one read
    // plus one write-back whatever its piece count.
    let buf: Vec<u8> = (2..6u8).flat_map(|v| [v; 8]).collect();
    let (image, ops) = sieve_one_window(&[1u8; 64], 8, 4, 16, &buf);
    let mut want = vec![1u8; 64];
    for (i, v) in (2..6u8).enumerate() {
        want[8 + 16 * i..][..8].fill(v);
    }
    assert_eq!(image, want);
    assert_eq!(ops, (1, 1), "(reads, writes) of one window");
}

#[test]
fn rmw_skips_read_when_fully_covered() {
    // Touching blocks: the pieces cover the window, so there is no hole to
    // fill and no read.
    let (image, ops) = sieve_one_window(&[], 0, 4, 8, &[5u8; 32]);
    assert_eq!(image, vec![5u8; 32]);
    assert_eq!(ops, (0, 1), "a covered window needs no hole fill");
}

#[test]
fn unlocked_rmw_sieving_exhibits_the_torn_read_hazard() {
    // §2.1 made observable: two *independent* writers with disjoint runs in
    // the same periods. Unlocked RMW reads a window (holes included),
    // yields, and writes the window back — burying the neighbour's
    // concurrent update under the stale hole bytes. Runs on ENFS: this is
    // exactly the lockless platform where ROMIO refuses to sieve writes.
    let w = IndependentStrided::new(2, 64, 64, 256, 0).unwrap();
    let mut violated = false;
    for attempt in 0..40 {
        let fs = FileSystem::new(PlatformProfile::cplant());
        let name = format!("torn{attempt}");
        run(w.p, fs.profile().net.clone(), |comm| {
            let buf = w.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            file.set_view(w.disp(comm.rank()), w.filetype()).unwrap();
            file.set_sieve_config(SieveConfig {
                buffer_size: 2 * 1024,
                ..SieveConfig::default()
            });
            comm.barrier();
            file.write_at_sieved(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot(&name).unwrap();
        // Views must be re-based: the view displacement carried the rank
        // offset, so footprint(rank) already includes it.
        let rep = verify::check_mpi_atomicity(&snap, &w.all_views(), &pattern::rank_stamps(w.p));
        if !rep.is_atomic() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "unlocked RMW sieving never tore a neighbour's write in 40 attempts"
    );
}

#[test]
fn locked_sieving_on_the_same_racy_pattern_stays_atomic() {
    // The control for the hazard test: identical geometry and windowing,
    // but atomic mode (span lock) — must be serializable every time.
    let w = IndependentStrided::new(2, 64, 64, 256, 16).unwrap();
    for attempt in 0..5 {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("lk{attempt}");
        run(w.p, fs.profile().net.clone(), |comm| {
            let buf = w.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            file.set_view(w.disp(comm.rank()), w.filetype()).unwrap();
            file.set_sieve_config(SieveConfig {
                buffer_size: 2 * 1024,
                ..SieveConfig::default()
            });
            file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
                .unwrap();
            comm.barrier();
            file.write_at(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot(&name).unwrap();
        let rep = verify::check_mpi_atomicity(&snap, &w.all_views(), &pattern::rank_stamps(w.p));
        assert!(rep.is_atomic(), "attempt {attempt}: {rep:?}");
    }
}

#[test]
fn sieving_respects_offset_dependent_patterns() {
    // Position-dependent data catches wrong-offset patching bugs the
    // constant stamp would miss (window-relative arithmetic).
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::offset_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "off", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_sieve_config(test_sieve());
        file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
            .unwrap();
        comm.barrier();
        file.write_at(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("off").unwrap();
    let rep =
        verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::offset_stamps(spec.p));
    assert!(rep.is_atomic(), "{rep:?}");
}
