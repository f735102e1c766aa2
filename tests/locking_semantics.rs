//! Lock-manager semantics across platforms: ENFS's missing locks, the
//! central manager's serialization, the GPFS token manager's caching, and
//! the collective-only restriction on handshaking strategies (paper §5).

mod common;

use atomio::prelude::*;

#[test]
fn enfs_rejects_file_locking_strategy() {
    // Cplant: "the most notable is the absence of file locking" (§4).
    let fs = FileSystem::new(PlatformProfile::cplant());
    let errs = run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "x", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
    });
    for e in errs {
        assert!(matches!(
            e,
            Err(atomio::core::Error::AtomicityUnsupported {
                file_system: "ENFS"
            })
        ));
    }
}

#[test]
fn enfs_still_supports_handshaking_strategies() {
    let fs = FileSystem::new(PlatformProfile::cplant());
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    for strategy in [Strategy::GraphColoring, Strategy::RankOrdering] {
        common::run_colwise(&fs, "ok", spec, Atomicity::Atomic(strategy), IoPath::Direct);
        let rep = common::check_colwise(&fs, "ok", spec);
        assert!(rep.is_atomic(), "{strategy} on ENFS: {rep:?}");
    }
}

#[test]
fn handshaking_requires_collective_calls() {
    // Independent writes can only use locking: "file locking seems to be
    // the only way to ensure atomic results in non-collective I/O" (§5).
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "ind", OpenMode::ReadWrite).unwrap();
        for s in [Strategy::GraphColoring, Strategy::RankOrdering] {
            file.set_atomicity(Atomicity::Atomic(s)).unwrap();
            let e = file.write_at(0, b"data").unwrap_err();
            assert!(matches!(e, atomio::core::Error::RequiresCollective(_)));
            let mut buf = [0u8; 4];
            let e = file.read_at(0, &mut buf).unwrap_err();
            assert!(matches!(e, atomio::core::Error::RequiresCollective(_)));
        }
        // Locking works independently.
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        file.write_at(0, b"data").unwrap();
    });
}

#[test]
fn independent_locked_writes_are_atomic() {
    // Two ranks doing *independent* (non-collective) overlapping writes
    // under the locking strategy.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "ind2", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        let buf = vec![pattern::stamp_byte(comm.rank()); 64 * 1024];
        file.write_at(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("ind2").unwrap();
    let views = vec![
        StridedSet::from_range(ByteRange::at(0, 64 * 1024)),
        StridedSet::from_range(ByteRange::at(0, 64 * 1024)),
    ];
    let rep = verify::check_mpi_atomicity(&snap, &views, &pattern::rank_stamps(2));
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn locking_vtime_serializes_overlapping_writers() {
    // §3.4: once a process is granted its span lock, no other process can
    // access the file — virtual makespan grows ~linearly with P.
    let spec2 = ColWise::new(32, 512, 2, 4).unwrap();
    let spec4 = ColWise::new(32, 512, 4, 4).unwrap();
    let band = |spec: ColWise| {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let reports = common::run_colwise(
            &fs,
            "l",
            spec,
            Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
            IoPath::Direct,
        );
        common::bandwidth(&reports)
    };
    let b2 = band(spec2);
    let b4 = band(spec4);
    assert!(
        b4 < b2 * 1.3,
        "locking must not scale with P (P=2: {b2:.1} MiB/s, P=4: {b4:.1} MiB/s)"
    );
}

#[test]
fn token_manager_rewards_reuse_across_writes() {
    // GPFS flavour: repeated locked writes over *non-conflicting* ranges
    // (disjoint row-wise blocks) reuse cached tokens from the second round
    // on. (Overlapping spans, by contrast, revoke each other every time —
    // "concurrent writes to overlapped data must still be sequential".)
    let fs = FileSystem::new(PlatformProfile {
        lock_kind: LockKind::Distributed,
        ..PlatformProfile::fast_test()
    });
    let spec = RowWise::new(16, 256, 4, 0).unwrap(); // no overlap
    let hits = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "gpfs", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        let hits = file.posix().stats().snapshot().lock_token_hits;
        file.close().unwrap();
        hits
    });
    for (rank, h) in hits.iter().enumerate() {
        assert!(
            *h >= 1,
            "rank {rank}: second round must hit its cached token"
        );
    }

    // Counter-case: overlapping column-wise spans ping-pong tokens, so no
    // rank can accumulate hits on every round.
    let fs2 = FileSystem::new(PlatformProfile {
        lock_kind: LockKind::Distributed,
        ..PlatformProfile::fast_test()
    });
    let cspec = ColWise::new(16, 256, 4, 4).unwrap();
    let chits = run(cspec.p, fs2.profile().net.clone(), |comm| {
        let part = cspec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs2, "gpfs2", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        for _ in 0..3 {
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
        }
        file.posix().stats().snapshot().lock_token_hits
    });
    let total: u64 = chits.iter().sum();
    assert!(
        total < 3 * cspec.p as u64,
        "overlapping spans must keep revoking tokens (got {total} hits)"
    );
}

#[test]
fn shared_read_locks_do_not_serialize() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    // Seed the file.
    run(1, fs.profile().net.clone(), |comm| {
        let f = fs.open(0, comm.clock().clone(), "shared");
        f.write(IoPath::Direct, [(0, &vec![3u8; 4096])]).unwrap();
    });
    fs.reset_timing();
    let clocks = run(4, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "shared", OpenMode::ReadOnly).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Span,
        )))
        .unwrap();
        comm.barrier();
        let t0 = comm.clock().now();
        let mut buf = vec![0u8; 4096];
        file.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
        comm.clock().now() - t0
    });
    // All four readers proceed concurrently: no reader's elapsed time
    // should be ~4x another's.
    let min = clocks.iter().min().unwrap();
    let max = clocks.iter().max().unwrap();
    assert!(
        max < &(min * 3),
        "shared locks must not serialize reads: {clocks:?}"
    );
}

/// Collective locking grants follow the handshake's fair rank order, not
/// the order the ranks reach the call. On the IBM SP the token manager
/// folds shared grants to exclusive, so readers queue like writers: each
/// rank's lock wait and acquire count must not depend on which rank
/// enters first while the others sleep.
#[test]
fn collective_lock_grants_do_not_depend_on_entry_order() {
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    let strategies = [
        Strategy::FileLocking(LockGranularity::Span),
        Strategy::FileLocking(LockGranularity::Exact),
        Strategy::DataSieving,
    ];
    for read in [false, true] {
        for strategy in strategies {
            let locks_by_first = [0, 3].map(|first| {
                let fs = FileSystem::new(PlatformProfile::ibm_sp());
                run(spec.p, fs.profile().net.clone(), |comm| {
                    let part = spec.partition(comm.rank());
                    let mut buf = part.fill(pattern::rank_stamp(comm.rank()));
                    let mut file = MpiFile::open(&comm, &fs, "order", OpenMode::ReadWrite).unwrap();
                    file.set_view(0, part.filetype.clone()).unwrap();
                    file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
                    comm.barrier();
                    if comm.rank() != first {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    if read {
                        file.read_at_all(0, &mut buf).unwrap();
                    } else {
                        file.write_at_all(0, &buf).unwrap();
                    }
                    let s = file.posix().stats().snapshot();
                    (s.lock_wait_ns, s.lock_acquires)
                })
            });
            assert_eq!(
                locks_by_first[0],
                locks_by_first[1],
                "{strategy} {}: (lock_wait_ns, lock_acquires) per rank, rank 0 vs rank 3 first",
                if read { "read_at_all" } else { "write_at_all" }
            );
        }
    }
}

#[test]
fn read_only_handle_rejects_writes() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "ro", OpenMode::ReadOnly).unwrap();
        assert!(matches!(
            file.write_at(0, b"x"),
            Err(atomio::core::Error::ReadOnly)
        ));
        assert!(matches!(
            file.write_at_all(0, b"x"),
            Err(atomio::core::Error::ReadOnly)
        ));
    });
}
