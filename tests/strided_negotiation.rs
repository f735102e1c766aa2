//! The compressed negotiation pipeline must be *byte-identical* to the
//! run-list reference: same overlap matrix, same coloring, same recomputed
//! rank-ordering views, same final file contents — on the paper's regular
//! geometry and on irregular random soups. The reference is written out
//! here over each footprint's sorted maximal runs: one merge walk per pair
//! for W, and a rank's segments cut by the merged runs of every higher
//! rank's footprint.

use atomio::prelude::*;
use atomio_core::{greedy_color, higher_union_strided, surviving_pieces_strided, OverlapMatrix};
use atomio_dtype::ViewSegment;
use atomio_vtime::WireSize;
use proptest::prelude::{prop, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::{prop_assert, prop_assert_eq, proptest};

mod common;
use common::{merged_runs, run_colwise};

/// A view's footprint as its sorted maximal runs, from its segments.
fn segment_runs(segments: &[ViewSegment]) -> Vec<ByteRange> {
    merged_runs(segments.iter().map(|s| ByteRange::at(s.file_off, s.len)))
}

/// Whether two ascending run lists share a byte: a two-pointer walk.
fn runs_meet(a: &[ByteRange], b: &[ByteRange]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].overlaps(&b[j]) {
            return true;
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// W from run lists, one merge walk per pair.
fn dense_matrix(dense: &[Vec<ByteRange>]) -> OverlapMatrix {
    let mut edges = Vec::new();
    for i in 0..dense.len() {
        for j in i + 1..dense.len() {
            if runs_meet(&dense[i], &dense[j]) {
                edges.push((i, j));
            }
        }
    }
    OverlapMatrix::from_edges(dense.len(), &edges)
}

/// Rank `me`'s segments minus the merged runs of every higher rank, cut
/// per segment with logical offsets kept.
fn dense_surviving(
    segments: &[ViewSegment],
    dense: &[Vec<ByteRange>],
    me: usize,
) -> Vec<ViewSegment> {
    let higher = merged_runs(dense[me + 1..].iter().flatten().copied());
    let mut out = Vec::new();
    for s in segments {
        let mut cursor = s.file_off;
        let first = higher.partition_point(|h| h.end <= s.file_off);
        let cuts = higher[first..]
            .iter()
            .take_while(|h| h.start < s.file_end());
        let ends = cuts
            .map(|h| (h.start, h.end))
            .chain([(s.file_end(), s.file_end())]);
        for (cut_start, cut_end) in ends {
            if cut_start > cursor {
                out.push(ViewSegment {
                    file_off: cursor,
                    logical_off: s.logical_off + (cursor - s.file_off),
                    len: cut_start - cursor,
                });
            }
            cursor = cursor.max(cut_end);
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
        let segments: Vec<Vec<ViewSegment>> = parts
            .iter()
            .map(|pt| pt.view.segments(0, pt.data_bytes()))
            .collect();
        let dense: Vec<Vec<ByteRange>> = segments.iter().map(|s| segment_runs(s)).collect();
        let strided: Vec<StridedSet> = parts.iter().map(Partition::footprint).collect();
        // Footprints agree extensionally and the strided form is O(1).
        for (d, s) in dense.iter().zip(&strided) {
            assert_eq!(&s.iter().collect::<Vec<_>>(), d);
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
        for (me, segs) in segments.iter().enumerate() {
            let pieces = surviving_pieces_strided(segs, &higher_union_strided(&strided, me));
            assert_eq!(pieces, dense_surviving(segs, &dense, me), "rank {me}");
            written += pieces.iter().map(|s| s.len).sum::<u64>();
        }
        assert_eq!(written, spec.file_bytes());
    }
}

/// The paper's 4096 × 4096 column-wise views at P = 16: the exchanged
/// description is one train per rank whatever the row count, against one
/// run per row in a plain run list, and more than a thousandfold smaller
/// on the wire.
#[test]
fn colwise_description_is_one_train_per_rank() {
    let spec = ColWise::new(4096, 4096, 16, 16).unwrap();
    let parts: Vec<Partition> = (0..16).map(|k| spec.partition(k)).collect();
    let dense: Vec<Vec<ByteRange>> = parts
        .iter()
        .map(|pt| segment_runs(&pt.view.segments(0, pt.data_bytes())))
        .collect();
    let strided: Vec<StridedSet> = parts.iter().map(Partition::footprint).collect();
    for (d, s) in dense.iter().zip(&strided) {
        assert_eq!(&s.iter().collect::<Vec<_>>(), d);
    }
    let trains: usize = strided.iter().map(StridedSet::train_count).sum();
    let runs: usize = dense.iter().map(Vec::len).sum();
    assert_eq!((trains, runs), (16, 65_536));
    // A run list ships a header and 16 bytes a run.
    let dense_wire: usize = dense.iter().map(|d| 8 + 16 * d.len()).sum();
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

/// A random soup's maximal runs, never empty.
fn arb_footprint() -> impl PropStrategy<Value = Vec<ByteRange>> {
    prop::collection::vec((0u64..4032, 1u64..128), 1..8).prop_map(|runs| {
        merged_runs(
            runs.into_iter()
                .map(|(o, l)| ByteRange::at(o, l.min(4096 - o))),
        )
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
        let total = |fp: &Vec<ByteRange>| fp.iter().map(ByteRange::len).sum::<u64>();
        let strided: Vec<StridedSet> = views
            .iter()
            .zip(&fps)
            .map(|(v, fp)| v.strided_footprint(total(fp)))
            .collect();
        for (s, d) in strided.iter().zip(&fps) {
            prop_assert_eq!(&s.iter().collect::<Vec<_>>(), d);
        }
        let wd = dense_matrix(&fps);
        let ws = OverlapMatrix::from_strided(&strided);
        prop_assert_eq!(&wd, &ws);
        prop_assert_eq!(greedy_color(&wd), greedy_color(&ws));
        for me in 0..fps.len() {
            let segs = views[me].segments(0, total(&fps[me]));
            prop_assert_eq!(
                dense_surviving(&segs, &fps, me),
                surviving_pieces_strided(&segs, &higher_union_strided(&strided, me))
            );
        }
        // The compressed description never costs more wire than a plain
        // run list (the vtime allgather charge can only shrink).
        for (s, d) in strided.iter().zip(&fps) {
            prop_assert!(s.wire_size() <= 8 + 16 * d.len());
        }
    }
}
