//! The compressed negotiation pipeline must be *byte-identical* to the
//! dense reference: same overlap matrix, same coloring, same recomputed
//! rank-ordering views, same final file contents — on the paper's regular
//! geometry and on irregular random soups. The reference is plain
//! `IntervalSet` algebra: one `overlaps` test per pair for W, and a rank's
//! segments minus the union of every higher rank's footprint.

use atomio::prelude::*;
use atomio_core::{greedy_color, higher_union_strided, surviving_pieces_strided, OverlapMatrix};
use atomio_dtype::ViewSegment;
use atomio_vtime::WireSize;
use proptest::prelude::{prop, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::{prop_assert, prop_assert_eq, proptest};

mod common;
use common::run_colwise;

/// W from dense footprints, one `IntervalSet::overlaps` test per pair.
fn dense_matrix(dense: &[IntervalSet]) -> OverlapMatrix {
    let mut edges = Vec::new();
    for i in 0..dense.len() {
        for j in i + 1..dense.len() {
            if dense[i].overlaps(&dense[j]) {
                edges.push((i, j));
            }
        }
    }
    OverlapMatrix::from_edges(dense.len(), &edges)
}

/// Rank `me`'s segments minus the union of every higher rank's dense
/// footprint, cut per segment with logical offsets kept.
fn dense_surviving(segments: &[ViewSegment], dense: &[IntervalSet], me: usize) -> Vec<ViewSegment> {
    let higher = dense[me + 1..]
        .iter()
        .fold(IntervalSet::new(), |acc, v| acc.union(v));
    let mut out = Vec::new();
    for s in segments {
        let own = IntervalSet::from_extents([(s.file_off, s.len)]);
        for piece in own.subtract(&higher).iter() {
            out.push(ViewSegment {
                file_off: piece.start,
                logical_off: s.logical_off + (piece.start - s.file_off),
                len: piece.len(),
            });
        }
    }
    out
}

/// The overlap graph and the rank-ordering recomputation over the paper's
/// column-wise geometry, across sizes and process counts.
#[test]
fn colwise_negotiation_matches_dense_reference() {
    for (m, n, p, r) in [
        (16u64, 64u64, 4usize, 4u64),
        (64, 256, 8, 16),
        (128, 512, 16, 8),
    ] {
        let spec = ColWise::new(m, n, p, r).unwrap();
        let parts: Vec<Partition> = (0..p).map(|k| spec.partition(k)).collect();
        let dense: Vec<IntervalSet> = parts.iter().map(Partition::footprint).collect();
        let strided: Vec<StridedSet> = parts
            .iter()
            .map(|pt| pt.view.strided_footprint(pt.data_bytes()))
            .collect();
        // Footprints agree extensionally and the strided form is O(1).
        for (d, s) in dense.iter().zip(&strided) {
            assert_eq!(&s.to_intervals(), d);
            assert!(s.train_count() <= 2, "colwise footprint: {s}");
        }
        // Identical overlap matrices and colorings.
        let wd = dense_matrix(&dense);
        let ws = OverlapMatrix::from_strided(&strided);
        assert_eq!(wd, ws, "M={m} N={n} P={p} R={r}");
        assert_eq!(greedy_color(&wd), greedy_color(&ws));
        // Identical recomputed views under rank ordering, which together
        // write every byte of the file exactly once.
        let mut written = 0;
        for (me, part) in parts.iter().enumerate() {
            let segs = part.view.segments(0, part.data_bytes());
            let pieces = surviving_pieces_strided(&segs, &higher_union_strided(&strided, me));
            assert_eq!(pieces, dense_surviving(&segs, &dense, me), "rank {me}");
            written += pieces.iter().map(|s| s.len).sum::<u64>();
        }
        assert_eq!(written, spec.file_bytes());
    }
}

/// The paper's 4096 × 4096 column-wise views at P = 16: the exchanged
/// description is one train per rank whatever the row count, against one
/// dense run per row, and more than a thousandfold smaller on the wire.
#[test]
fn colwise_description_is_one_train_per_rank() {
    let spec = ColWise::new(4096, 4096, 16, 16).unwrap();
    let parts: Vec<Partition> = (0..16).map(|k| spec.partition(k)).collect();
    let dense: Vec<IntervalSet> = parts.iter().map(Partition::footprint).collect();
    let strided: Vec<StridedSet> = parts
        .iter()
        .map(|pt| pt.view.strided_footprint(pt.data_bytes()))
        .collect();
    let trains: usize = strided.iter().map(StridedSet::train_count).sum();
    let runs: usize = dense.iter().map(IntervalSet::run_count).sum();
    assert_eq!((trains, runs), (16, 65_536));
    let dense_wire: usize = dense.iter().map(WireSize::wire_size).sum();
    let strided_wire: usize = strided.iter().map(WireSize::wire_size).sum();
    assert!(
        dense_wire >= 1_000 * strided_wire,
        "dense {dense_wire} B vs strided {strided_wire} B"
    );
}

/// End-to-end: the handshaking strategies and two-phase I/O, all running on
/// the compressed exchange, still produce exactly the rank-serialized file.
#[test]
fn strategies_produce_identical_files_after_compression() {
    let spec = ColWise::new(32, 256, 4, 8).unwrap();
    let mut snapshots = Vec::new();
    for strategy in [
        Strategy::GraphColoring,
        Strategy::RankOrdering,
        Strategy::TwoPhase,
    ] {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        run_colwise(&fs, "eq", spec, Atomicity::Atomic(strategy), IoPath::Direct);
        let snap = fs.snapshot("eq").unwrap();
        let rep =
            verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(spec.p));
        assert!(rep.is_atomic(), "{strategy}: {rep:?}");
        snapshots.push((strategy, snap));
    }
    // Rank ordering and two-phase both serialize highest-rank-wins, so
    // their bytes agree exactly.
    let ro = &snapshots[1].1;
    let tp = &snapshots[2].1;
    assert_eq!(ro, tp, "rank-ordering and two-phase bytes diverged");
}

fn arb_footprint() -> impl PropStrategy<Value = IntervalSet> {
    prop::collection::vec((0u64..4032, 1u64..128), 1..8).prop_map(|runs| {
        IntervalSet::from_extents(runs.into_iter().map(|(o, l)| (o, l.min(4096 - o))))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Irregular views (hindexed soups): the compressed pipeline agrees
    /// with the dense reference on the overlap graph, the coloring, and
    /// every rank's recomputed view.
    #[test]
    fn random_views_negotiate_identically(
        fps in prop::collection::vec(arb_footprint(), 2..6)
    ) {
        let views: Vec<FileView> = fps
            .iter()
            .map(|fp| {
                let blocks: Vec<(u64, i64)> =
                    fp.iter().map(|r| (r.len(), r.start as i64)).collect();
                FileView::new(0, Datatype::hindexed(blocks, Datatype::byte()).unwrap()).unwrap()
            })
            .collect();
        let strided: Vec<StridedSet> = views
            .iter()
            .zip(&fps)
            .map(|(v, fp)| v.strided_footprint(fp.total_len()))
            .collect();
        for (s, d) in strided.iter().zip(&fps) {
            prop_assert_eq!(&s.to_intervals(), d);
        }
        let wd = dense_matrix(&fps);
        let ws = OverlapMatrix::from_strided(&strided);
        prop_assert_eq!(&wd, &ws);
        prop_assert_eq!(greedy_color(&wd), greedy_color(&ws));
        for me in 0..fps.len() {
            let segs = views[me].segments(0, fps[me].total_len());
            prop_assert_eq!(
                dense_surviving(&segs, &fps, me),
                surviving_pieces_strided(&segs, &higher_union_strided(&strided, me))
            );
        }
        // The compressed description never costs more wire than the dense
        // one (the vtime allgather charge can only shrink).
        for (s, d) in strided.iter().zip(&fps) {
            prop_assert!(s.wire_size() <= d.wire_size());
        }
    }
}
