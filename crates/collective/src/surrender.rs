//! The paper's surrender rule (§3.3.2, Figure 7), implemented once: the
//! highest rank wins every overlap, so each rank subtracts the union of all
//! higher ranks' footprints from its request *before* any byte moves.
//! `Strategy::RankOrdering` writes the surviving pieces itself; the
//! two-phase round loop routes them, so no losing byte crosses a wire.

use atomio_dtype::ViewSegment;
use atomio_interval::{ByteRange, IntervalSet, StridedSet};

/// Union of the file-view footprints of every rank *higher* than `me` —
/// the region this process must surrender under process-rank ordering
/// (paper §3.3.2: "the higher ranked process wins the right to access the
/// overlapped regions while others surrender their writes"). Computed
/// train-by-train in compressed space, without expanding rows. For the
/// paper's column-wise pattern the result is O(1) trains — the higher
/// ranks' merged column window per row — whatever M is.
///
/// Footprints that compress well (a handful of trains per rank) are folded
/// in train space; poorly compressed ones (trains ≈ runs, e.g. irregular
/// hindexed soups) would make the fold quadratic in total trains, so they
/// fall back to one batch build of the runs — linear in runs — and
/// recompress the result.
pub fn higher_union_strided(all_footprints: &[StridedSet], me: usize) -> StridedSet {
    let higher = &all_footprints[me + 1..];
    let total_trains: usize = higher.iter().map(StridedSet::train_count).sum();
    let total_runs: u64 = higher.iter().map(StridedSet::run_count).sum();
    let well_compressed =
        total_trains <= 4 * higher.len() + 8 || total_runs >= 4 * total_trains as u64;
    if well_compressed {
        higher.iter().fold(StridedSet::new(), |acc, s| acc.union(s))
    } else {
        StridedSet::from_intervals(&IntervalSet::from_ranges(
            higher
                .iter()
                .flat_map(|s| s.trains().iter().flat_map(|t| t.runs())),
        ))
    }
}

/// Recompute a process's write set under rank ordering: keep only the
/// pieces of its view segments that do **not** fall in `surrendered`
/// (the higher-ranked union). Logical offsets are preserved so each piece
/// still knows which bytes of the user buffer it carries.
///
/// This is the "re-calculation of each process's file view by marking down
/// the overlapped regions with all higher-rank processes' file views"
/// (Figure 7). Each segment subtracts only the train cuts intersecting it:
/// O(trains + cuts) per segment, whatever the surrendered set's run count.
pub fn surviving_pieces_strided(
    my_segments: &[ViewSegment],
    surrendered: &StridedSet,
) -> Vec<ViewSegment> {
    let mut out = Vec::with_capacity(my_segments.len());
    for seg in my_segments {
        let range = ByteRange::at(seg.file_off, seg.len);
        for piece in surrendered.subtract_from_range(&range) {
            out.push(ViewSegment {
                file_off: piece.start,
                logical_off: seg.logical_off + (piece.start - seg.file_off),
                len: piece.len(),
            });
        }
    }
    out
}

/// What every rank still holds once all of them have surrendered:
/// `footprints[r]` minus the union of `footprints[r + 1..]`, for every `r`
/// in one descending pass — pairwise disjoint, and together the union.
pub(crate) fn surviving_footprints(footprints: &[StridedSet]) -> Vec<StridedSet> {
    let mut higher = StridedSet::new();
    let mut kept: Vec<StridedSet> = footprints
        .iter()
        .rev()
        .map(|f| {
            let mine = f.subtract(&higher);
            // Disjoint by construction: the union is the trains side by side.
            let both = higher.trains().iter().chain(mine.trains()).copied();
            higher = StridedSet::from_disjoint_trains(both.collect());
            mine
        })
        .collect();
    kept.reverse();
    kept
}

/// What rank `me` puts into a two-phase exchange: its segments minus
/// everything a higher rank will overwrite, and how many bytes that took
/// away. `footprints[me + 1..]` must cover every higher rank (one entry per
/// rank, or pre-merged unions — only their union matters).
pub(crate) fn surrender(
    segments: &[ViewSegment],
    footprints: &[StridedSet],
    me: usize,
) -> (Vec<ViewSegment>, u64) {
    let pieces = surviving_pieces_strided(segments, &higher_union_strided(footprints, me));
    let asked: u64 = segments.iter().map(|s| s.len).sum();
    let kept: u64 = pieces.iter().map(|s| s.len).sum();
    (pieces, asked - kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_interval::Train;

    fn seg(file_off: u64, logical_off: u64, len: u64) -> ViewSegment {
        ViewSegment {
            file_off,
            logical_off,
            len,
        }
    }

    fn range(start: u64, end: u64) -> StridedSet {
        StridedSet::from_sorted_extents([(start, end - start)])
    }

    /// The dense reference: each segment minus `surrendered` by
    /// `IntervalSet` algebra, pieces in file order.
    fn dense_pieces(segments: &[ViewSegment], surrendered: &IntervalSet) -> Vec<ViewSegment> {
        let mut out = Vec::new();
        for s in segments {
            let own = IntervalSet::from_extents([(s.file_off, s.len)]);
            for piece in own.subtract(surrendered).iter() {
                out.push(seg(
                    piece.start,
                    s.logical_off + (piece.start - s.file_off),
                    piece.len(),
                ));
            }
        }
        out
    }

    #[test]
    fn higher_union_is_suffix_union() {
        let views = vec![range(0, 10), range(8, 20), range(18, 30)];
        let dense = |me| higher_union_strided(&views, me).to_intervals();
        assert_eq!(dense(0), range(8, 30).to_intervals());
        assert_eq!(dense(1), range(18, 30).to_intervals());
        assert!(dense(2).is_empty());
    }

    #[test]
    fn pieces_keep_logical_alignment() {
        // One segment [100,120) carrying buffer bytes 40..60; the middle
        // [105,115) is surrendered.
        let got = surviving_pieces_strided(&[seg(100, 40, 20)], &range(105, 115));
        assert_eq!(got, vec![seg(100, 40, 5), seg(115, 55, 5)]);
    }

    #[test]
    fn untouched_segments_pass_through() {
        let segs = [seg(0, 0, 10), seg(20, 10, 10)];
        assert_eq!(
            surviving_pieces_strided(&segs, &range(500, 600)),
            segs.to_vec()
        );
    }

    #[test]
    fn fully_surrendered_segment_vanishes() {
        assert!(surviving_pieces_strided(&[seg(10, 0, 50)], &range(0, 100)).is_empty());
    }

    #[test]
    fn strided_recomputation_is_byte_identical() {
        // Column-wise miniature: 8 rows of width 6 starting at column 4,
        // surrendering ghost columns [8, 12) of every row.
        let segs: Vec<ViewSegment> = (0..8u64).map(|r| seg(r * 16 + 4, r * 6, 6)).collect();
        let surr = StridedSet::from_train(Train::new(8, 4, 16, 8));
        assert_eq!(
            surviving_pieces_strided(&segs, &surr),
            dense_pieces(&segs, &surr.to_intervals())
        );
        // And the union agrees with the dense fold over the higher ranks.
        let views_dense = [
            IntervalSet::from_extents((0..8u64).map(|r| (r * 16, 8u64))),
            IntervalSet::from_extents((0..8u64).map(|r| (r * 16 + 6, 8u64))),
            IntervalSet::from_extents((0..8u64).map(|r| (r * 16 + 12, 4u64))),
        ];
        let views_strided: Vec<StridedSet> =
            views_dense.iter().map(StridedSet::from_intervals).collect();
        for me in 0..3 {
            let higher = views_dense[me + 1..]
                .iter()
                .fold(IntervalSet::new(), |acc, v| acc.union(v));
            assert_eq!(
                higher_union_strided(&views_strided, me).to_intervals(),
                higher,
                "rank {me}"
            );
        }
    }

    #[test]
    fn survivors_total_matches_set_subtraction() {
        let segs = [seg(0, 0, 10), seg(20, 10, 10), seg(40, 20, 10)];
        let surr = StridedSet::from_sorted_extents([(5u64, 20u64), (45, 2)]);
        let got = surviving_pieces_strided(&segs, &surr);
        let got_set = IntervalSet::from_extents(got.iter().map(|s| (s.file_off, s.len)));
        let mine = IntervalSet::from_extents(segs.iter().map(|s| (s.file_off, s.len)));
        assert_eq!(got_set, mine.subtract(&surr.to_intervals()));
        // Logical offsets remain consistent with the file offsets.
        for s in &got {
            let parent = segs
                .iter()
                .find(|p| p.file_off <= s.file_off && s.file_off + s.len <= p.file_off + p.len)
                .expect("piece inside a parent segment");
            assert_eq!(
                s.logical_off - parent.logical_off,
                s.file_off - parent.file_off
            );
        }
    }
}
