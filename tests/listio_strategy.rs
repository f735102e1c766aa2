//! The §3.2 what-if: MPI atomicity on top of an atomicity-extended
//! `lio_listio()`. One atomic multi-segment submission per rank — no locks,
//! no handshake, works for independent I/O too — but only on a file system
//! that provides the extension (`fast_test` does; the paper's platforms do
//! not).

mod common;

use atomio::prelude::*;
use common::{check_colwise, run_colwise};

#[test]
fn listio_strategy_is_atomic_on_colwise() {
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    for attempt in 0..5 {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("li{attempt}");
        run_colwise(
            &fs,
            &name,
            spec,
            Atomicity::Atomic(Strategy::ListIo),
            IoPath::Direct,
        );
        let rep = check_colwise(&fs, &name, spec);
        assert!(rep.is_atomic(), "attempt {attempt}: {rep:?}");
    }
}

#[test]
fn listio_supports_independent_writes() {
    // Unlike the handshaking strategies, list I/O needs no collective call.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(2, fs.profile().net.clone(), |comm| {
        let spec = ColWise::new(32, 256, 2, 8).unwrap();
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "ind", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::ListIo))
            .unwrap();
        // Independent call: no barrier coordination at all.
        file.write_at(0, &buf).unwrap();
        file.close().unwrap();
    });
    let spec = ColWise::new(32, 256, 2, 8).unwrap();
    let rep = check_colwise(&fs, "ind", spec);
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn listio_rejected_without_the_extension() {
    // The paper's platforms don't advertise lio_listio atomicity, so the
    // strategy must be refused there (like locking on ENFS).
    for profile in PlatformProfile::paper_platforms() {
        let fs = FileSystem::new(profile.clone());
        let errs = run(2, profile.net.clone(), |comm| {
            let mut file = MpiFile::open(&comm, &fs, "no", OpenMode::ReadWrite).unwrap();
            file.set_atomicity(Atomicity::Atomic(Strategy::ListIo))
        });
        for e in errs {
            assert!(
                matches!(e, Err(atomio::core::Error::AtomicityUnsupported { .. })),
                "{} must reject list I/O atomicity",
                profile.name
            );
        }
    }
}

#[test]
fn listio_on_ghost_cells() {
    let spec = BlockBlock::new(48, 48, 3, 3, 2).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.nprocs(), fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "ghost", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::ListIo))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("ghost").unwrap();
    let rep = verify::check_mpi_atomicity(
        &snap,
        &spec.all_views(),
        &pattern::rank_stamps(spec.nprocs()),
    );
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn listio_report_counts_all_segments() {
    let spec = ColWise::new(32, 512, 4, 8).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let reports = run_colwise(
        &fs,
        "rep",
        spec,
        Atomicity::Atomic(Strategy::ListIo),
        IoPath::Direct,
    );
    for r in &reports {
        assert_eq!(r.segments, 32, "one listio entry per row");
        assert_eq!(r.phases, 1);
        assert!(r.lock_footprint.is_none(), "no locks involved");
    }
}
