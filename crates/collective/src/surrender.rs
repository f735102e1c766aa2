//! The paper's surrender rule (§3.3.2, Figure 7), implemented once: the
//! highest rank wins every overlap, so each rank subtracts the union of all
//! higher ranks' footprints from its request *before* any byte moves.
//! `Strategy::RankOrdering` writes the surviving pieces itself; the
//! two-phase round loop routes them, so no losing byte crosses a wire.

use atomio_dtype::ViewSegment;
use atomio_interval::{ByteRange, StridedSet};

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
        StridedSet::from_ranges(higher.iter().flat_map(StridedSet::iter))
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

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

    /// The set's bytes, one by one: the reference.
    fn points(s: &StridedSet) -> BTreeSet<u64> {
        s.iter().flat_map(|r| r.start..r.end).collect()
    }

    /// The byte-by-byte reference: each segment's bytes outside
    /// `surrendered`, joined into pieces in file order.
    fn dense_pieces(segments: &[ViewSegment], surrendered: &BTreeSet<u64>) -> Vec<ViewSegment> {
        let mut out: Vec<ViewSegment> = Vec::new();
        for s in segments {
            let mut open = false;
            for i in 0..s.len {
                let byte = s.file_off + i;
                if surrendered.contains(&byte) {
                    open = false;
                } else if open {
                    out.last_mut().expect("an open piece").len += 1;
                } else {
                    out.push(seg(byte, s.logical_off + i, 1));
                    open = true;
                }
            }
        }
        out
    }

    #[test]
    fn higher_union_is_suffix_union() {
        let views = vec![range(0, 10), range(8, 20), range(18, 30)];
        assert_eq!(higher_union_strided(&views, 0), range(8, 30));
        assert_eq!(higher_union_strided(&views, 1), range(18, 30));
        assert!(higher_union_strided(&views, 2).is_empty());
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
            dense_pieces(&segs, &points(&surr))
        );
        // And the union agrees with the byte-by-byte union over the higher
        // ranks.
        let rows =
            |col: u64, width: u64| (0..8u64).map(move |r| ByteRange::at(r * 16 + col, width));
        let views: Vec<StridedSet> = [(0, 8), (6, 8), (12, 4)]
            .map(|(col, width)| StridedSet::from_ranges(rows(col, width)))
            .to_vec();
        for me in 0..3 {
            let higher: BTreeSet<u64> = views[me + 1..].iter().flat_map(points).collect();
            assert_eq!(
                points(&higher_union_strided(&views, me)),
                higher,
                "rank {me}"
            );
        }
    }

    #[test]
    fn a_poorly_compressed_union_is_built_from_its_runs() {
        // Runs of ten different lengths a rank: trains ≈ runs, so the union
        // takes the batch build, not the train fold.
        let views: Vec<StridedSet> = (0..3u64)
            .map(|k| {
                let runs = (0..10u64).map(|i| ByteRange::at(i * 97 + k * 13, 1 + (i * 7 + k) % 23));
                StridedSet::from_ranges(runs)
            })
            .collect();
        let trains: usize = views[1..].iter().map(StridedSet::train_count).sum();
        assert!(trains > 4 * 2 + 8, "{trains} trains take the train fold");
        let higher: BTreeSet<u64> = views[1..].iter().flat_map(points).collect();
        assert_eq!(points(&higher_union_strided(&views, 0)), higher);
    }

    #[test]
    fn survivors_total_matches_set_subtraction() {
        let segs = [seg(0, 0, 10), seg(20, 10, 10), seg(40, 20, 10)];
        let surr = StridedSet::from_sorted_extents([(5u64, 20u64), (45, 2)]);
        let got = surviving_pieces_strided(&segs, &surr);
        let bytes = |pieces: &[ViewSegment]| -> BTreeSet<u64> {
            pieces
                .iter()
                .flat_map(|s| s.file_off..s.file_end())
                .collect()
        };
        assert_eq!(bytes(&got), &bytes(&segs) - &points(&surr));
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
