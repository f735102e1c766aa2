//! Property tests over the full stack: for *arbitrary* overlapping file
//! views (not just the paper's regular patterns), every atomicity strategy
//! must yield a serializable result, rank ordering must partition exactly,
//! and the checker itself must agree with a brute-force serial oracle.

mod common;

use atomio::core::{greedy_color, held_bytes, split_request, OverlapMatrix};
use atomio::prelude::*;
use proptest::prelude::{prop, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::{prop_assert, prop_assume, proptest};
use std::sync::Arc;

const FILE_SPAN: u64 = 4096;
const P: usize = 3;
/// One stripe row of the test profile: a `FILE_SPAN` stripe unit on each
/// of its four servers — the unit a pipelined round is counted in.
const STRIPE_ROW: u64 = 4 * FILE_SPAN;

/// Skew `fps` by `(holder, at, extra)`: rank `holder` also holds a block
/// that starts `at` stripe rows in and runs `at + extra` rows — over half
/// the extent, so at least a domain for two aggregators or more, and up to
/// twelve pipelined rounds of one row each, more than any depth drawn here
/// keeps in flight. `extra == 0` leaves the case unskewed.
fn skew_footprints(fps: &mut [StridedSet], (holder, at, extra): (usize, u64, u64)) {
    if extra > 0 {
        let block =
            StridedSet::from_range(ByteRange::at(at * STRIPE_ROW, (at + extra) * STRIPE_ROW));
        fps[holder] = fps[holder].union(&block);
    }
}

/// Random footprint within the file span, never empty.
fn arb_footprint() -> impl PropStrategy<Value = StridedSet> {
    prop::collection::vec((0u64..FILE_SPAN - 64, 1u64..128), 1..8).prop_map(|runs| {
        StridedSet::from_ranges(
            runs.into_iter()
                .map(|(o, l)| ByteRange::at(o, l.min(FILE_SPAN - o))),
        )
    })
}

fn filetype_of(fp: &StridedSet) -> Arc<Datatype> {
    let blocks: Vec<(u64, i64)> = fp.iter().map(|r| (r.len(), r.start as i64)).collect();
    Datatype::hindexed(blocks, Datatype::byte()).expect("non-empty")
}

/// Run a concurrent write of `footprints` under `atomicity`; return the
/// checker report.
fn run_and_check(footprints: &[StridedSet], atomicity: Atomicity) -> verify::AtomicityReport {
    let profile = PlatformProfile::fast_test();
    let fs = FileSystem::new(profile.clone());
    let fs2 = fs.clone();
    let fps = footprints.to_vec();
    run(footprints.len(), profile.net.clone(), move |comm| {
        let fp = &fps[comm.rank()];
        let ft = filetype_of(fp);
        let buf: Vec<u8> = {
            let pat = pattern::rank_stamp(comm.rank());
            let mut b = Vec::with_capacity(fp.total_len() as usize);
            for r in fp.iter() {
                for o in r.start..r.end {
                    b.push(pat(o));
                }
            }
            b
        };
        let mut file = MpiFile::open(&comm, &fs2, "prop", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        file.set_atomicity(atomicity).unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("prop").unwrap();
    verify::check_mpi_atomicity(&snap, footprints, &pattern::rank_stamps(footprints.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_serializes_random_views(
        fps in prop::collection::vec(arb_footprint(), P..=P)
    ) {
        for strategy in Strategy::extended() {
            let rep = run_and_check(&fps, Atomicity::Atomic(strategy));
            prop_assert!(
                rep.is_atomic(),
                "{strategy} failed on {fps:?}: {rep:?}"
            );
        }
    }

    #[test]
    fn rank_ordering_winner_is_always_highest(
        fps in prop::collection::vec(arb_footprint(), P..=P)
    ) {
        let rep = run_and_check(&fps, Atomicity::Atomic(Strategy::RankOrdering));
        prop_assert!(rep.is_atomic());
        // Ascending rank order must be one valid serialization: re-derive
        // winners per byte and compare to the file.
        let profile = PlatformProfile::fast_test();
        let _ = profile;
        let order = rep.serialization.expect("atomic implies order");
        // Every pair (i, j) with i < j and overlapping views must place i
        // before j in the serialization.
        for i in 0..P {
            for j in (i + 1)..P {
                if fps[i].overlaps(&fps[j]) {
                    let pi = order.iter().position(|&r| r == i).unwrap();
                    let pj = order.iter().position(|&r| r == j).unwrap();
                    prop_assert!(
                        pi < pj,
                        "ranks {i},{j} out of order in {order:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checker_accepts_any_serial_oracle(
        fps in prop::collection::vec(arb_footprint(), 2..5),
        seed in 0u64..1000,
    ) {
        // Apply the writes in a random (but total) order; the checker must
        // accept and produce a consistent serialization.
        let n = fps.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates with a toy LCG for determinism inside proptest.
        let mut state = seed.wrapping_mul(48271).wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut file = vec![0u8; FILE_SPAN as usize];
        for &r in &order {
            let pat = pattern::rank_stamp(r);
            for run in fps[r].iter() {
                for o in run.start..run.end {
                    file[o as usize] = pat(o);
                }
            }
        }
        let rep = verify::check_mpi_atomicity(&file, &fps, &pattern::rank_stamps(n));
        prop_assert!(rep.is_atomic(), "serial application rejected: {rep:?}");
    }

    #[test]
    fn checker_rejects_corrupted_overlaps(
        fp_a in arb_footprint(),
        fp_b in arb_footprint(),
    ) {
        prop_assume!(fp_a.overlaps(&fp_b));
        let overlap = fp_a.intersect(&fp_b);
        // Serial order: a then b — overlap holds b's bytes...
        let mut file = vec![0u8; FILE_SPAN as usize];
        for (r, fp) in [(0usize, &fp_a), (1, &fp_b)] {
            let pat = pattern::rank_stamp(r);
            for run in fp.iter() {
                for o in run.start..run.end {
                    file[o as usize] = pat(o);
                }
            }
        }
        // ...then corrupt one overlapped byte with garbage from neither.
        let victim = overlap.span().expect("overlapping footprints").start;
        file[victim as usize] = 0xFF;
        let rep = verify::check_mpi_atomicity(
            &file,
            &[fp_a.clone(), fp_b.clone()],
            &pattern::rank_stamps(2),
        );
        prop_assert!(!rep.is_atomic(), "corruption at {victim} not caught");
    }
}

/// Like `run_and_check`, but with an explicit two-phase configuration.
fn run_two_phase_and_check(
    footprints: &[StridedSet],
    cfg: TwoPhaseConfig,
) -> verify::AtomicityReport {
    let profile = PlatformProfile::fast_test();
    let fs = FileSystem::new(profile.clone());
    let fs2 = fs.clone();
    let fps = footprints.to_vec();
    run(footprints.len(), profile.net.clone(), move |comm| {
        let fp = &fps[comm.rank()];
        let ft = filetype_of(fp);
        let buf: Vec<u8> = {
            let pat = pattern::offset_stamp(comm.rank());
            let mut b = Vec::with_capacity(fp.total_len() as usize);
            for r in fp.iter() {
                for o in r.start..r.end {
                    b.push(pat(o));
                }
            }
            b
        };
        let mut file = MpiFile::open(&comm, &fs2, "tp", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        file.set_two_phase_config(cfg);
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("tp").unwrap();
    verify::check_mpi_atomicity(&snap, footprints, &pattern::offset_stamps(footprints.len()))
}

/// `fp` as the view segments of a buffer holding its runs back to back.
fn segments_of(fp: &StridedSet) -> Vec<atomio::dtype::ViewSegment> {
    let mut logical_off = 0;
    fp.iter()
        .map(|r| {
            let seg = atomio::dtype::ViewSegment {
                file_off: r.start,
                logical_off,
                len: r.len(),
            };
            logical_off += r.len();
            seg
        })
        .collect()
}

/// Every rank's read-back: the bytes it got and its read report.
type ReadBacks = Vec<(Vec<u8>, atomio::collective::TwoPhaseReadReport)>;

/// Run a two-phase collective write of `footprints` under `cfg`, then have
/// every rank read its footprint back through `two_phase_read` under the
/// same `cfg`; return the file image and every rank's read-back.
fn run_two_phase_round_trip(
    footprints: &[StridedSet],
    cfg: TwoPhaseConfig,
) -> (Vec<u8>, ReadBacks) {
    let profile = PlatformProfile::fast_test();
    let fs = FileSystem::new(profile.clone());
    let fs2 = fs.clone();
    let fps = footprints.to_vec();
    let reads = run(footprints.len(), profile.net.clone(), move |comm| {
        let fp = &fps[comm.rank()];
        let ft = filetype_of(fp);
        let buf: Vec<u8> = {
            let pat = pattern::offset_stamp(comm.rank());
            let mut b = Vec::with_capacity(fp.total_len() as usize);
            for r in fp.iter() {
                for o in r.start..r.end {
                    b.push(pat(o));
                }
            }
            b
        };
        let mut file = MpiFile::open(&comm, &fs2, "sched", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        file.set_two_phase_config(cfg);
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
        let posix = fs2.open(comm.rank(), comm.clock().clone(), "sched");
        let mut back = vec![0u8; buf.len()];
        let report =
            atomio::collective::two_phase_read(&comm, &posix, &segments_of(fp), &mut back, 0, &cfg);
        (back, report)
    });
    (fs.snapshot("sched").unwrap().to_vec(), reads)
}

/// Run `two_phase_write` itself on `footprints` under `cfg` and return
/// every rank's report.
fn run_two_phase_reports(footprints: &[StridedSet], cfg: TwoPhaseConfig) -> Vec<TwoPhaseReport> {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(footprints.len(), fs.profile().net.clone(), |comm| {
        let file = fs.open(comm.rank(), comm.clock().clone(), "reports");
        let segs = segments_of(&footprints[comm.rank()]);
        let len = footprints[comm.rank()].total_len();
        let buf = vec![comm.rank() as u8; len as usize];
        atomio::collective::two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_phase_serializes_random_views_for_any_aggregator_count(
        fps in prop::collection::vec(arb_footprint(), P..=P),
        aggregators in 1usize..=P,
        ranks_per_node in 1usize..=P,
    ) {
        let cfg = TwoPhaseConfig {
            aggregators: Some(aggregators),
            ranks_per_node,
            schedule: ExchangeSchedule::Flat,
        };
        let rep = run_two_phase_and_check(&fps, cfg);
        prop_assert!(
            rep.is_atomic(),
            "two-phase A={aggregators} rpn={ranks_per_node} failed on {fps:?}: {rep:?}"
        );
        // Highest rank must win every overlap: ascending rank order is a
        // valid serialization.
        let order = rep.serialization.expect("atomic implies order");
        for i in 0..P {
            for j in (i + 1)..P {
                if fps[i].overlaps(&fps[j]) {
                    let pi = order.iter().position(|&r| r == i).unwrap();
                    let pj = order.iter().position(|&r| r == j).unwrap();
                    prop_assert!(pi < pj, "ranks {i},{j} out of order in {order:?}");
                }
            }
        }
    }

    /// The multi-tier pipelined schedule is an execution-plan change only:
    /// for arbitrary overlapping footprints and any (aggregators, topology,
    /// round size, pipeline depth) combination, the file image must be
    /// byte-for-byte the one the flat exchange produces. Most cases are
    /// skewed — one rank also holds a contiguous block at least a domain
    /// long behind the random runs — so the two schedules place their file
    /// domains by holdings, each from its own view of them, not in rank
    /// order. Read back under the same schedule, every rank gets exactly
    /// the image's bytes over its footprint, with no error, and the
    /// aggregators of either schedule read the footprint union once.
    #[test]
    fn pipelined_schedule_is_byte_identical_to_flat(
        fps in prop::collection::vec(arb_footprint(), P..=P),
        skew in (0usize..P, 1u64..=2, 0u64..=4),
        aggregators in 1usize..=P,
        ranks_per_node in 1usize..=P,
        round_stripes in 0u32..=2,
        depth in 0u32..=3,
    ) {
        let mut fps = fps;
        skew_footprints(&mut fps, skew);
        let (flat, flat_reads) = run_two_phase_round_trip(&fps, TwoPhaseConfig {
            aggregators: Some(aggregators),
            ranks_per_node,
            schedule: ExchangeSchedule::Flat,
        });
        let (piped, piped_reads) = run_two_phase_round_trip(&fps, TwoPhaseConfig {
            aggregators: Some(aggregators),
            ranks_per_node,
            schedule: ExchangeSchedule::Pipelined { round_stripes, depth },
        });
        let what = format!(
            "A={aggregators} rpn={ranks_per_node} stripes={round_stripes} depth={depth} on {fps:?}"
        );
        prop_assert!(flat == piped, "schedules diverge: {what}");
        let rep = verify::check_mpi_atomicity(&piped, &fps, &pattern::offset_stamps(P));
        prop_assert!(rep.is_atomic(), "pipelined result not atomic: {rep:?}");

        let union: u64 = common::merged_runs(fps.iter().flat_map(StridedSet::iter))
            .iter()
            .map(ByteRange::len)
            .sum();
        for (name, reads) in [("flat", &flat_reads), ("pipelined", &piped_reads)] {
            for (rank, (back, report)) in reads.iter().enumerate() {
                let image = fps[rank].iter().flat_map(|r| &piped[r.start as usize..r.end as usize]);
                prop_assert!(back.iter().eq(image), "{name}: rank {rank} read other bytes: {what}");
                prop_assert!(report.read_errors == 0, "{name}: rank {rank}: {what}");
                prop_assert!(report.first_error.is_none(), "{name}: rank {rank}: {what}");
            }
            let read: u64 = reads.iter().map(|r| r.1.bytes_read_from_servers).sum();
            prop_assert!(read == union, "{name}: {read} bytes read for a union of {union}: {what}");
        }
    }

    /// Surrender before shipping: whatever the footprints, aggregators,
    /// topology, round size and depth, both schedules ship and write every
    /// byte of the union exactly once, and what the ranks gave up is exactly
    /// the overlap volume.
    #[test]
    fn both_schedules_ship_and_write_the_union_exactly_once(
        fps in prop::collection::vec(arb_footprint(), 4..=4),
        skew in (0usize..4, 1u64..=2, 0u64..=4),
        aggregators in 1usize..=4,
        ranks_per_node in 1usize..=4,
        round_stripes in 0u32..=2,
        depth in 0u32..=3,
    ) {
        let mut fps = fps;
        skew_footprints(&mut fps, skew);
        let union: u64 = common::merged_runs(fps.iter().flat_map(StridedSet::iter))
            .iter()
            .map(ByteRange::len)
            .sum();
        let asked: u64 = fps.iter().map(StridedSet::total_len).sum();
        for schedule in [
            ExchangeSchedule::Flat,
            ExchangeSchedule::Pipelined { round_stripes, depth },
        ] {
            let reports = run_two_phase_reports(&fps, TwoPhaseConfig {
                aggregators: Some(aggregators),
                ranks_per_node,
                schedule,
            });
            let sum = |field: fn(&TwoPhaseReport) -> u64| reports.iter().map(field).sum::<u64>();
            let what = format!(
                "{schedule:?} A={aggregators} rpn={ranks_per_node} on {fps:?}"
            );
            prop_assert!(sum(|r| r.bytes_shipped) == union, "shipped: {what}");
            prop_assert!(sum(|r| r.bytes_written) == union, "written: {what}");
            prop_assert!(sum(|r| r.conflict_bytes) == asked - union, "conflicts: {what}");
        }
    }
}

// ------------------------------------------------ graph coloring, both schedules

/// The array every coloring case partitions: 12 rows of 2 KiB, so a view
/// is 12 noncontiguous row pieces over all four servers of the profile.
const ROWS: u64 = 12;
const COLS: u64 = 2048;

/// A random sub-block of the array: `(first row, rows, first column,
/// columns)`. Four of them overlap in most draws.
fn arb_block() -> impl PropStrategy<Value = (u64, u64, u64, u64)> {
    (0..ROWS - 1, 1..=ROWS, 0..COLS - 1, 1..=COLS)
        .prop_map(|(r0, nr, c0, nc)| (r0, nr.min(ROWS - r0), c0, nc.min(COLS - c0)))
}

/// `fast_test` with clients slow enough that holding only the contested
/// bytes is the cheaper schedule on any overlapping pattern.
fn client_bound() -> PlatformProfile {
    PlatformProfile {
        client_link: atomio::vtime::LinkCost::new(1_000, 1.0e6),
        ..PlatformProfile::fast_test()
    }
}

/// One graph-coloring collective write of `parts` on `profile`, checked
/// against what the strategy promises whichever schedule `held_bytes`
/// picks: the file is the serialization of the requests in color order
/// byte for byte, every rank writes all it was asked to, and its free and
/// held pieces tile its request with the free ones touching no other rank.
/// Returns whether anything was left free.
fn check_color_order(
    parts: &[Partition],
    profile: &PlatformProfile,
    path: IoPath,
) -> Result<bool, String> {
    let fs = FileSystem::new(profile.clone());
    let reports = run(parts.len(), profile.net.clone(), |comm| {
        let part = &parts[comm.rank()];
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "colors", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_io_path(path);
        file.set_atomicity(Atomicity::Atomic(Strategy::GraphColoring))
            .unwrap();
        let report = file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
        report
    });

    let views: Vec<StridedSet> = parts.iter().map(Partition::footprint).collect();
    let colors = greedy_color(&OverlapMatrix::from_strided(&views));
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&r| colors[r]);
    let mut expected = vec![0u8; (ROWS * COLS) as usize];
    for &r in &order {
        for run in views[r].iter() {
            expected[run.start as usize..run.end as usize].fill(pattern::stamp_byte(r));
        }
    }
    let mut image = fs.snapshot("colors").unwrap_or_default().to_vec();
    image.resize(expected.len(), 0);
    if image != expected {
        return Err(format!(
            "file is not the color-order serialization {order:?}"
        ));
    }

    let held = held_bytes(&views, &colors, profile);
    for (r, (part, report)) in parts.iter().zip(&reports).enumerate() {
        if (report.color, report.bytes_written) != (colors[r], part.data_bytes()) {
            return Err(format!("rank {r}: {report:?}"));
        }
        let segments = part.view.segments(0, part.data_bytes());
        let (free, kept) = split_request(&segments, &held);
        // Pieces carry the buffer offset of their first byte, so file and
        // buffer positions must advance together inside every segment.
        let mut pieces: Vec<_> = free.iter().chain(&kept).collect();
        pieces.sort_by_key(|p| p.file_off);
        let mut pieces = pieces.into_iter().peekable();
        for seg in &segments {
            let mut at = seg.file_off;
            while let Some(p) = pieces.next_if(|p| p.file_off < seg.file_end()) {
                if (p.file_off, p.logical_off) != (at, seg.logical_off + (at - seg.file_off)) {
                    return Err(format!("rank {r}: piece {p:?} does not continue {seg:?}"));
                }
                at = p.file_end();
            }
            if at != seg.file_end() {
                return Err(format!("rank {r}: {seg:?} is covered up to {at}"));
            }
        }
        let free = StridedSet::from_ranges(free.iter().map(|p| ByteRange::at(p.file_off, p.len)));
        if let Some(o) = (0..parts.len()).find(|&o| o != r && free.overlaps(&views[o])) {
            return Err(format!("rank {r}: a free piece touches rank {o}'s request"));
        }
    }
    Ok(held.total_len()
        < views
            .iter()
            .fold(StridedSet::new(), |u, v| u.union(v))
            .total_len())
}

fn arb_io_path() -> impl PropStrategy<Value = IoPath> {
    prop::sample::select(vec![IoPath::Direct, IoPath::Cached])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn graph_coloring_writes_the_color_order_serialization(
        blocks in prop::collection::vec(arb_block(), 4..=4),
        path in arb_io_path(),
        slow_clients in proptest::arbitrary::any::<bool>(),
    ) {
        let parts: Vec<Partition> = blocks
            .iter()
            .enumerate()
            .map(|(rank, &(r0, nr, c0, nc))| {
                Partition::subarray(rank, vec![ROWS, COLS], vec![nr, nc], vec![r0, c0]).unwrap()
            })
            .collect();
        let profile = if slow_clients { client_bound() } else { PlatformProfile::fast_test() };
        let checked = check_color_order(&parts, &profile, path);
        prop_assert!(checked.is_ok(), "{path:?} on {blocks:?}: {checked:?}");
    }

    /// Block-block ghost cells: the corner where four blocks meet is
    /// written by all four ranks, so the overlap graph is complete and
    /// needs four colors — three phases of held pieces behind phase 0.
    #[test]
    fn ghost_corners_serialize_in_color_order_on_either_schedule(
        ghost in 1u64..=3,
        path in arb_io_path(),
    ) {
        let spec = BlockBlock::new(ROWS, COLS, 2, 2, ghost).unwrap();
        let parts: Vec<Partition> = (0..4).map(|r| spec.partition(r)).collect();
        let whole = check_color_order(&parts, &PlatformProfile::fast_test(), path);
        prop_assert!(whole.is_ok(), "{path:?} g={ghost}: {whole:?}");
        let split = check_color_order(&parts, &client_bound(), path);
        prop_assert!(split == Ok(true), "{path:?} g={ghost}, slow clients: {split:?}");
    }
}
