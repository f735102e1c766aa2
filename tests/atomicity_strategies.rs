//! End-to-end atomicity: each strategy must make concurrent overlapping
//! writes MPI-atomic on every workload; non-atomic mode must be observably
//! broken (the paper's Figure 2).

mod common;

use atomio::prelude::*;
use common::{check_colwise, run_colwise};

fn colwise_spec() -> ColWise {
    ColWise::new(64, 512, 4, 8).unwrap()
}

#[test]
fn file_locking_is_atomic_on_colwise() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = colwise_spec();
    let reports = run_colwise(
        &fs,
        "lk",
        spec,
        Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
        IoPath::Direct,
    );
    let rep = check_colwise(&fs, "lk", spec);
    assert!(rep.is_atomic(), "{rep:?}");
    assert!(reports.iter().all(|r| r.lock_footprint.is_some()));
    // Lock span is "virtually the entire file" (§3.2): from row 0 of the
    // rank's columns to row M−1, (M−1)·N + width bytes.
    for (rank, report) in reports.iter().enumerate() {
        let span = report.lock_footprint.as_ref().unwrap().span().unwrap();
        assert_eq!(span.len(), (spec.m - 1) * spec.n + spec.width(rank));
    }
    let footprint = reports[1].lock_footprint.clone().unwrap();
    assert_eq!(footprint.granularity, LockGranularity::Span);
    let span = footprint.span().unwrap();
    assert!(span.len() as f64 > 0.9 * spec.file_bytes() as f64);
    // At span granularity, the locked set IS the span.
    assert_eq!(footprint.locked_bytes(), span.len());
}

#[test]
fn graph_coloring_is_atomic_on_colwise() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = colwise_spec();
    let reports = run_colwise(
        &fs,
        "gc",
        spec,
        Atomicity::Atomic(Strategy::GraphColoring),
        IoPath::Direct,
    );
    let rep = check_colwise(&fs, "gc", spec);
    assert!(rep.is_atomic(), "{rep:?}");
    // Figure 6: the chain overlap graph of column-wise needs exactly two
    // phases, even ranks then odd ranks.
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(r.phases, 2, "rank {rank}");
        assert_eq!(r.color, rank % 2, "rank {rank}");
    }
}

#[test]
fn rank_ordering_is_atomic_and_writes_less() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = colwise_spec();
    let reports = run_colwise(
        &fs,
        "ro",
        spec,
        Atomicity::Atomic(Strategy::RankOrdering),
        IoPath::Direct,
    );
    let rep = check_colwise(&fs, "ro", spec);
    assert!(rep.is_atomic(), "{rep:?}");

    // Total bytes written shrink to exactly the file size (§3.4).
    let total: u64 = reports.iter().map(|r| r.bytes_written).sum();
    assert_eq!(total, spec.file_bytes());
    // Figure 7 widths: rank 0 loses R/2 columns net, interior ranks R,
    // the top rank keeps everything.
    let m = spec.m;
    assert_eq!(reports[0].bytes_written, m * (spec.n / 4 - spec.r / 2));
    assert_eq!(reports[1].bytes_written, m * (spec.n / 4));
    assert_eq!(reports[2].bytes_written, m * (spec.n / 4));
    assert_eq!(reports[3].bytes_written, m * (spec.n / 4 + spec.r / 2));
    // The overlap winner is always the higher rank.
    let order = rep.serialization.unwrap();
    let pos: Vec<usize> = (0..4)
        .map(|r| order.iter().position(|&x| x == r).unwrap())
        .collect();
    assert!(
        pos.windows(2).all(|w| w[0] < w[1]),
        "serialization {order:?} must be ascending"
    );
}

#[test]
fn non_atomic_colwise_eventually_violates_mpi_atomicity() {
    // §2.2 / Figure 2: per-row POSIX atomicity holds, but across the M rows
    // of the overlapped columns, winners flip between neighbours and no
    // global serialization exists. One attempt has ~2^-M chance of being
    // clean; repeated attempts of 128 rows make a false pass astronomically
    // rare. The attempt budget is generous because a single-CPU host only
    // interleaves the racing rank threads at yield points.
    let spec = ColWise::new(128, 512, 4, 8).unwrap();
    let mut violated = false;
    for attempt in 0..40 {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("na{attempt}");
        run_colwise(&fs, &name, spec, Atomicity::NonAtomic, IoPath::Direct);
        let rep = check_colwise(&fs, &name, spec);
        // Per-call POSIX atomicity still holds: no byte-mixed regions.
        assert!(
            rep.interleaved_regions.is_empty(),
            "POSIX-atomic platform must not mix bytes within a row"
        );
        if !rep.is_atomic() {
            assert_eq!(rep.outcome(), verify::Outcome::PosixAtomicOnly);
            assert!(!rep.conflicting_edges.is_empty());
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "non-atomic mode never violated MPI atomicity in 40 attempts"
    );
}

#[test]
fn non_posix_platform_interleaves_within_a_call() {
    // With POSIX per-call atomicity disabled, two ranks writing the same
    // large contiguous region interleave at chunk granularity (§2.1).
    let mut profile = PlatformProfile::fast_test();
    profile.posix_atomic_calls = false;
    let len = 1 << 20; // 1 MiB overlap, 4 KiB non-atomic chunks

    // Two writers of the same chunks in the same order only mix bytes when
    // one overtakes the other mid-call, which takes a scheduling accident:
    // on a 2-core host 40 attempts all missed it in 17 of 100 runs. The
    // loop stops at the first hit, so a large budget costs nothing.
    let mut interleaved = false;
    for attempt in 0..400 {
        let fs = FileSystem::new(profile.clone());
        let name = format!("raw{attempt}");
        run(2, profile.net.clone(), |comm| {
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            let buf = vec![pattern::stamp_byte(comm.rank()); len];
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot(&name).unwrap();
        let views = vec![
            IntervalSet::from_range(ByteRange::at(0, len as u64)),
            IntervalSet::from_range(ByteRange::at(0, len as u64)),
        ];
        let rep = verify::check_mpi_atomicity(&snap, &views, &pattern::rank_stamps(2));
        if rep.outcome() == verify::Outcome::Interleaved {
            interleaved = true;
            break;
        }
    }
    assert!(
        interleaved,
        "non-POSIX writes never interleaved in 400 attempts"
    );
}

#[test]
fn row_wise_is_atomic_even_without_a_strategy() {
    // §3.2: row-wise views are contiguous, one POSIX-atomic write() per
    // rank, so MPI atomicity comes free on a POSIX-compliant file system.
    let spec = RowWise::new(64, 256, 4, 4).unwrap();
    for attempt in 0..5 {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("row{attempt}");
        run(spec.p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot(&name).unwrap();
        let rep =
            verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(spec.p));
        assert!(rep.is_atomic(), "attempt {attempt}: {rep:?}");
    }
}

#[test]
fn ghost_cell_checkpoint_atomic_under_all_strategies() {
    // Figure 1: 3x3 process grid with ghost cells overlapping 8 neighbours.
    let spec = BlockBlock::new(48, 48, 3, 3, 2).unwrap();
    for strategy in Strategy::all() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        run(spec.nprocs(), fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "ckpt", OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot("ckpt").unwrap();
        let rep = verify::check_mpi_atomicity(
            &snap,
            &spec.all_views(),
            &pattern::rank_stamps(spec.nprocs()),
        );
        assert!(rep.is_atomic(), "{strategy}: {rep:?}");
    }
}

#[test]
fn strategies_atomic_with_offset_dependent_patterns() {
    // Position-dependent data catches wrong-offset bugs the constant stamp
    // would miss.
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    for strategy in [Strategy::GraphColoring, Strategy::RankOrdering] {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        run(spec.p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::offset_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "off", OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot("off").unwrap();
        let pats = pattern::offset_stamps(spec.p);
        let rep = verify::check_mpi_atomicity(&snap, &spec.all_views(), &pats);
        assert!(rep.is_atomic(), "{strategy}: {rep:?}");
    }
}

#[test]
fn distributed_token_platform_also_atomic_with_locking() {
    // GPFS-style token manager under the file-locking strategy.
    let fs = FileSystem::new(PlatformProfile {
        lock_kind: LockKind::Distributed,
        ..PlatformProfile::fast_test()
    });
    let spec = colwise_spec();
    run_colwise(
        &fs,
        "tok",
        spec,
        Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
        IoPath::Direct,
    );
    let rep = check_colwise(&fs, "tok", spec);
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn repeated_checkpoints_stay_atomic() {
    // Periodic checkpointing (the paper's motivating use): several rounds
    // into the same file keep the invariant.
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let mut file = MpiFile::open(&comm, &fs, "period", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::RankOrdering))
            .unwrap();
        for _round in 0..5 {
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            file.write_at_all(0, &buf).unwrap();
        }
        file.close().unwrap();
    });
    let rep = check_colwise(&fs, "period", spec);
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn two_phase_is_atomic_on_colwise_with_zero_lock_requests() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = colwise_spec();
    let (reports, stats): (Vec<WriteReport>, Vec<_>) =
        run(spec.p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "tp", OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
                .unwrap();
            comm.barrier();
            let rep = file.write_at_all(0, &buf).unwrap();
            let close = file.close().unwrap();
            (rep, close.stats)
        })
        .into_iter()
        .unzip();

    let rep = check_colwise(&fs, "tp", spec);
    assert!(rep.is_atomic(), "{rep:?}");
    // Overlap resolved like rank ordering: ascending rank is a valid order.
    let order = rep.serialization.unwrap();
    let pos: Vec<usize> = (0..spec.p)
        .map(|r| order.iter().position(|&x| x == r).unwrap())
        .collect();
    assert!(
        pos.windows(2).all(|w| w[0] < w[1]),
        "serialization {order:?} must be ascending"
    );

    // Overlap eliminated by construction: each byte written exactly once...
    let total: u64 = reports.iter().map(|r| r.bytes_written).sum();
    assert_eq!(total, spec.file_bytes());
    // ...with zero lock traffic anywhere.
    assert!(
        stats.iter().all(|s| s.lock_acquires == 0),
        "two-phase must not lock"
    );
    // Aggregator accounting is visible in the report.
    assert!(reports.iter().all(|r| r.aggregators > 0 && r.phases == 2));
    // The writers are the aggregators, issuing few large runs each.
    let writers = reports.iter().filter(|r| r.bytes_written > 0).count();
    assert_eq!(writers, reports[0].aggregators.min(spec.p));
}

#[test]
fn two_phase_is_atomic_on_rowwise() {
    let spec = RowWise::new(64, 256, 4, 4).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "tprow", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("tprow").unwrap();
    let rep = verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(spec.p));
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn two_phase_is_atomic_on_blockblock_ghost_cells() {
    let spec = BlockBlock::new(48, 48, 3, 3, 2).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.nprocs(), fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "tpghost", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("tpghost").unwrap();
    let rep = verify::check_mpi_atomicity(
        &snap,
        &spec.all_views(),
        &pattern::rank_stamps(spec.nprocs()),
    );
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn two_phase_aggregator_sweep_stays_atomic() {
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    for aggregators in 1..=spec.p {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("tpa{aggregators}");
        run(spec.p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::offset_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_two_phase_config(TwoPhaseConfig {
                aggregators: Some(aggregators),
                ranks_per_node: 1,
                schedule: ExchangeSchedule::Flat,
            });
            file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
                .unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        let snap = fs.snapshot(&name).unwrap();
        let rep =
            verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::offset_stamps(spec.p));
        assert!(rep.is_atomic(), "A={aggregators}: {rep:?}");
    }

    // On IBM SP's 12 servers, each doubling of the aggregators up to 8
    // shortens a flat two-phase write of 256 × 8192 at P = 8.
    let makespans = [1, 2, 4, 8].map(|a| {
        atomio_bench::measure_colwise_two_phase(
            &PlatformProfile::ibm_sp(),
            256,
            8192,
            8,
            atomio_bench::DEFAULT_R,
            Some(Strategy::TwoPhase),
            IoPath::Direct,
            TwoPhaseConfig {
                aggregators: Some(a),
                ranks_per_node: 1,
                schedule: ExchangeSchedule::Flat,
            },
            None,
        )
        .makespan
    });
    assert!(makespans.windows(2).all(|w| w[1] < w[0]), "{makespans:?}");
}

/// The pipelined multi-tier schedule through the full `MpiFile` stack:
/// views, `write_at_all`, the close report — atomic and byte-identical to
/// the flat exchange on the same ghost-cell workload.
#[test]
fn two_phase_pipelined_schedule_through_mpifile() {
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    let run_sched = |name: &str, schedule| {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        run(spec.p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::offset_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_two_phase_config(TwoPhaseConfig {
                aggregators: None,
                ranks_per_node: 2,
                schedule,
            });
            file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
                .unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap();
        });
        fs.snapshot(name).unwrap()
    };
    let flat = run_sched("mtflat", ExchangeSchedule::Flat);
    let piped = run_sched(
        "mtpipe",
        ExchangeSchedule::Pipelined {
            round_stripes: 1,
            depth: 2,
        },
    );
    assert_eq!(flat, piped, "schedules must produce identical files");
    let rep =
        verify::check_mpi_atomicity(&piped, &spec.all_views(), &pattern::offset_stamps(spec.p));
    assert!(rep.is_atomic(), "{rep:?}");
}

/// Epochs are round indices and restart with every collective write: a
/// pipelined write retires all of its rounds before it returns, so a second
/// write on the same file system starts with an empty deferred queue and
/// its rounds cannot meet a leftover epoch of the first.
#[test]
fn back_to_back_pipelined_writes_leave_no_epoch_pending() {
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let mut file = MpiFile::open(&comm, &fs, "twice", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_two_phase_config(TwoPhaseConfig {
            aggregators: None,
            ranks_per_node: 2,
            schedule: ExchangeSchedule::Pipelined {
                round_stripes: 1,
                depth: 2,
            },
        });
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        let first = part.fill(pattern::rank_stamp(comm.rank()));
        let second = part.fill(pattern::offset_stamp(comm.rank()));
        for buf in [first, second] {
            comm.barrier();
            assert_eq!(fs.servers().pending_requests(), 0);
            file.write_at_all(0, &buf).unwrap();
        }
        assert_eq!(fs.servers().pending_requests(), 0);
        file.close().unwrap();
    });
    let snap = fs.snapshot("twice").unwrap();
    let rep =
        verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::offset_stamps(spec.p));
    assert!(rep.is_atomic(), "the second write must win whole: {rep:?}");
}

#[test]
fn two_phase_works_on_lockless_enfs() {
    // File locking is impossible on Cplant/ENFS; two-phase must not care.
    let fs = FileSystem::new(PlatformProfile::cplant());
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "tpenfs", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let rep = check_colwise(&fs, "tpenfs", spec);
    assert!(rep.is_atomic(), "{rep:?}");
}

#[test]
fn two_phase_collective_read_returns_written_data() {
    let spec = ColWise::new(32, 256, 4, 4).unwrap();
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let ok = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::offset_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "tprd", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        let mut back = vec![0u8; buf.len()];
        file.read_at_all(0, &mut back).unwrap();
        file.close().unwrap();
        // Exclusive bytes read back exactly; overlapped bytes hold the
        // winning (higher) rank's pattern, so only compare where we won.
        let winner = spec
            .all_views()
            .iter()
            .enumerate()
            .filter(|(r, _)| *r > comm.rank())
            .fold(IntervalSet::new(), |acc, (_, v)| acc.union(v));
        let mut clean = true;
        for seg in part.view.segments(0, buf.len() as u64) {
            for i in 0..seg.len {
                if !winner.contains(seg.file_off + i) {
                    clean &=
                        back[(seg.logical_off + i) as usize] == buf[(seg.logical_off + i) as usize];
                }
            }
        }
        clean
    });
    assert!(
        ok.into_iter().all(|c| c),
        "read-back mismatch on surviving bytes"
    );
}

#[test]
fn two_phase_independent_write_is_rejected() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "tpind", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        let err = file.write_at(0, &[1, 2, 3]).unwrap_err();
        assert!(
            matches!(err, atomio::core::Error::RequiresCollective(_)),
            "{err:?}"
        );
        file.close().unwrap();
    });
}
