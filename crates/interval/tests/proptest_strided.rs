//! Property tests: `StridedSet` algebra must be extensionally equal to a
//! brute-force point-set model on random range soups, random train soups
//! and same-stride comb families, and every constructor and operation must
//! return the canonical form, checked against a run-by-run reference
//! written out here.

use std::collections::BTreeSet;

use atomio_interval::{ByteRange, StridedSet, Train};
use atomio_vtime::WireSize;
use proptest::prelude::*;

const UNIVERSE: u64 = 96;

fn arb_range() -> impl Strategy<Value = ByteRange> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ByteRange::new(lo, hi)
    })
}

/// A soup of unsorted, overlapping, touching and empty ranges, with the
/// set `from_ranges` builds of it.
fn arb_soup() -> impl Strategy<Value = (Vec<ByteRange>, StridedSet)> {
    prop::collection::vec(arb_range(), 0..12).prop_map(|rs| {
        let s = StridedSet::from_ranges(rs.iter().copied());
        (rs, s)
    })
}

/// An irregular soup: runs of many lengths, so its trains ≈ its runs —
/// the footprints `higher_union_strided` batch-builds through
/// `from_ranges` instead of folding unions.
fn arb_irregular_soup() -> impl Strategy<Value = Vec<ByteRange>> {
    prop::collection::vec((0u64..4096, 0u64..48), 8..64).prop_map(|rs| {
        rs.into_iter()
            .map(|(start, len)| ByteRange::at(start, len))
            .collect()
    })
}

/// Random train (small geometry): exercises the periodic fast paths,
/// including mixed strides and counts.
fn arb_train() -> impl Strategy<Value = Train> {
    (0u64..64, 1u64..8, 0u64..12, 1u64..10)
        .prop_map(|(start, len, gap, count)| Train::new(start, len, len + gap, count))
}

/// Random strided set built by unioning trains (keeps the disjointness
/// invariant through the public API).
fn arb_strided() -> impl Strategy<Value = StridedSet> {
    prop::collection::vec(arb_train(), 0..4).prop_map(|ts| {
        ts.into_iter().fold(StridedSet::new(), |acc, t| {
            acc.union(&StridedSet::from_train(t))
        })
    })
}

/// Same-stride comb family — the paper's column-wise geometry in miniature.
fn arb_comb_pair() -> impl Strategy<Value = (StridedSet, StridedSet)> {
    (
        4u64..24,
        1u64..8,
        1u64..8,
        0u64..16,
        0u64..16,
        2u64..12,
        2u64..12,
    )
        .prop_map(|(stride, la, lb, ca_off, cb_off, ca, cb)| {
            // Both combs share `stride`; run lengths stay strictly below it.
            let mk = |off: u64, l: u64, c: u64| {
                StridedSet::from_train(Train::new(off, 1 + l % (stride - 1), stride, c))
            };
            (mk(ca_off, la, ca), mk(cb_off, lb, cb))
        })
}

/// The set's bytes, read off its trains run by run (not through
/// `StridedSet::iter`, which is under test).
fn points(s: &StridedSet) -> BTreeSet<u64> {
    s.trains()
        .iter()
        .flat_map(Train::runs)
        .flat_map(|r| r.start..r.end)
        .collect()
}

/// The bytes of a range soup.
fn soup_points(rs: &[ByteRange]) -> BTreeSet<u64> {
    rs.iter().flat_map(|r| r.start..r.end).collect()
}

/// The maximal runs of a point set, ascending.
fn runs_of(points: &BTreeSet<u64>) -> Vec<ByteRange> {
    let mut runs: Vec<ByteRange> = Vec::new();
    for &p in points {
        match runs.last_mut() {
            Some(run) if run.end == p => run.end = p + 1,
            _ => runs.push(ByteRange::new(p, p + 1)),
        }
    }
    runs
}

/// The canonical form, written out run by run: the greedy takes the
/// maximal runs in order, a run joining the open progression when it has
/// the progression's length and continues its stride (the second run sets
/// the stride).
fn greedy_trains(runs: &[ByteRange]) -> Vec<Train> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < runs.len() {
        let len = runs[i].len();
        let mut j = i + 1;
        if j < runs.len() && runs[j].len() == len {
            let stride = runs[j].start - runs[i].start;
            while j + 1 < runs.len()
                && runs[j + 1].len() == len
                && runs[j + 1].start - runs[j].start == stride
            {
                j += 1;
            }
            j += 1;
        }
        let stride = if j - i > 1 {
            runs[i + 1].start - runs[i].start
        } else {
            len
        };
        out.push(Train::new(runs[i].start, len, stride, (j - i) as u64));
        i = j;
    }
    out
}

/// ... then, scanning left to right, the first `k ≤ 32` trains that repeat
/// at a fixed shift at least twice become one train per run, when that
/// saves trains.
fn folded(v: &[Train]) -> Vec<Train> {
    let mut out = Vec::new();
    let mut i = 0;
    'scan: while i < v.len() {
        for k in (1..=32).take_while(|k| i + 2 * k <= v.len()) {
            let shift = v[i + k].start() - v[i].start();
            let moved = |t: &Train| Train::new(t.start() + shift, t.len(), t.stride(), t.count());
            let mut reps = 1;
            while i + (reps + 1) * k <= v.len()
                && (0..k).all(|m| moved(&v[i + (reps - 1) * k + m]) == v[i + reps * k + m])
            {
                reps += 1;
            }
            let runs: u64 = v[i..i + k].iter().map(Train::count).sum();
            if reps >= 2 && runs < (k * reps) as u64 {
                for r in v[i..i + k].iter().flat_map(Train::runs) {
                    out.push(Train::new(r.start, r.len(), shift, reps as u64));
                }
                i += k * reps;
                continue 'scan;
            }
        }
        out.push(v[i]);
        i += 1;
    }
    out
}

/// The canonical form: exactly the trains the reference above makes of
/// the set's maximal runs, which `iter` yields ascending — no two touch,
/// so no train is contiguous in disguise (`len == stride`), and run
/// counts, WireSize and overlap sweeps agree between equal sets.
fn is_canonical(s: &StridedSet) -> bool {
    let want = runs_of(&points(s));
    let runs: Vec<ByteRange> = s.iter().collect();
    s.trains() == folded(&greedy_trains(&want))
        && runs == want
        && runs.windows(2).all(|w| w[0].end < w[1].start)
}

/// `from_ranges` of a soup against the model: the soup's bytes, in the
/// canonical form, and the same set (trains and `WireSize`) as
/// `from_sorted_extents` of the runs merged here.
fn check_from_ranges(rs: &[ByteRange], s: &StridedSet) {
    let want = soup_points(rs);
    prop_assert_eq!(points(s), want.clone());
    prop_assert!(is_canonical(s), "{}", s);
    let merged = StridedSet::from_sorted_extents(runs_of(&want).iter().map(|r| (r.start, r.len())));
    prop_assert_eq!(s.trains(), merged.trains());
    prop_assert_eq!(s.wire_size(), merged.wire_size());
    prop_assert_eq!(s.run_count() as usize, runs_of(&want).len());
}

proptest! {
    #[test]
    fn from_ranges_merges_any_soup((rs, s) in arb_soup()) {
        check_from_ranges(&rs, &s);
        prop_assert_eq!(s.total_len(), soup_points(&rs).len() as u64);
        prop_assert_eq!(s.is_empty(), soup_points(&rs).is_empty());
        // Compression never inflates the wire encoding beyond a plain run
        // list's 16 bytes a run.
        prop_assert!(s.wire_size() <= 8 + 16 * s.run_count() as usize);
    }

    #[test]
    fn from_ranges_merges_irregular_soups(rs in arb_irregular_soup()) {
        let s = StridedSet::from_ranges(rs.iter().copied());
        check_from_ranges(&rs, &s);
        // The same soup shuffled is the same set.
        let mut shuffled = rs.clone();
        shuffled.reverse();
        shuffled.rotate_left(rs.len() / 3);
        let t = StridedSet::from_ranges(shuffled);
        prop_assert_eq!(t.trains(), s.trains());
    }

    #[test]
    fn strided_matches_points_on_soups((_, sa) in arb_soup(), (_, sb) in arb_soup()) {
        let (pa, pb) = (points(&sa), points(&sb));
        prop_assert_eq!(points(&sa.union(&sb)), &pa | &pb);
        prop_assert_eq!(points(&sa.intersect(&sb)), &pa & &pb);
        prop_assert_eq!(points(&sa.subtract(&sb)), &pa - &pb);
        prop_assert_eq!(sa.overlaps(&sb), !pa.is_disjoint(&pb));
    }

    #[test]
    fn strided_matches_points_on_train_soups(sa in arb_strided(), sb in arb_strided()) {
        let (pa, pb) = (points(&sa), points(&sb));
        let u = sa.union(&sb);
        prop_assert!(is_canonical(&u));
        prop_assert_eq!(points(&u), &pa | &pb);
        let x = sa.intersect(&sb);
        prop_assert!(is_canonical(&x));
        prop_assert_eq!(points(&x), &pa & &pb);
        let m = sa.subtract(&sb);
        prop_assert!(is_canonical(&m));
        prop_assert_eq!(points(&m), &pa - &pb);
        prop_assert_eq!(sa.overlaps(&sb), !pa.is_disjoint(&pb));
    }

    #[test]
    fn same_stride_fast_paths_are_exact((sa, sb) in arb_comb_pair()) {
        let (pa, pb) = (points(&sa), points(&sb));
        prop_assert_eq!(sa.overlaps(&sb), !pa.is_disjoint(&pb));
        prop_assert_eq!(points(&sa.intersect(&sb)), &pa & &pb);
        prop_assert_eq!(points(&sa.subtract(&sb)), &pa - &pb);
        prop_assert_eq!(points(&sa.union(&sb)), &pa | &pb);
        // The same-stride paths stay compressed: results are O(1) trains.
        prop_assert!(sa.intersect(&sb).train_count() <= 4);
        prop_assert!(sa.subtract(&sb).train_count() <= 8);
    }

    #[test]
    fn touching_trains_normalize_to_runs(start in 0u64..64, len in 1u64..8, count in 1u64..10) {
        // A train whose runs touch (`stride == len`) is one contiguous run;
        // construction must normalize it so every derived quantity agrees
        // with the run it is.
        let t = Train::new(start, len, len, count);
        prop_assert!(t.is_run());
        let s = StridedSet::from_train(t);
        prop_assert!(is_canonical(&s));
        prop_assert_eq!(s.run_count(), 1);
        prop_assert_eq!(s.wire_size(), 8 + 16);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), vec![ByteRange::at(start, len * count)]);
    }

    #[test]
    fn iter_is_ascending_and_lossless(s in arb_strided()) {
        let runs: Vec<ByteRange> = s.iter().collect();
        prop_assert_eq!(runs.len() as u64, s.run_count());
        prop_assert_eq!(runs, runs_of(&points(&s)));
    }

    #[test]
    fn range_queries_match_points(s in arb_strided(), r in arb_range(), p in 0..UNIVERSE) {
        let ps = points(&s);
        let pr: BTreeSet<u64> = (r.start..r.end).collect();
        prop_assert_eq!(s.overlaps_range(&r), !ps.is_disjoint(&pr));
        prop_assert_eq!(s.overlaps_range(&ByteRange::at(p, 1)), ps.contains(&p));
        prop_assert_eq!(s.subtract_from_range(&r), runs_of(&(&pr - &ps)));
        // Whole maximal runs, unclipped: a run split at a train seam would
        // show as two.
        let meeting: Vec<ByteRange> = runs_of(&ps)
            .into_iter()
            .filter(|run| run.intersect(&r).is_some())
            .collect();
        prop_assert_eq!(s.runs_meeting(&r), meeting);
        match s.span() {
            Some(span) => {
                prop_assert_eq!(span.start, *ps.first().unwrap());
                prop_assert_eq!(span.end, *ps.last().unwrap() + 1);
            }
            None => prop_assert!(ps.is_empty()),
        }
    }

    #[test]
    fn algebra_laws_hold_on_points(sa in arb_strided(), sb in arb_strided(), sc in arb_strided()) {
        // Each side is canonical (checked above for every operation), so
        // equal points mean equal trains.
        prop_assert_eq!(points(&sa.union(&sb)), points(&sb.union(&sa)));
        prop_assert_eq!(
            points(&sa.union(&sb).union(&sc)),
            points(&sa.union(&sb.union(&sc)))
        );
        prop_assert_eq!(
            points(&sa.intersect(&sb.union(&sc))),
            points(&sa.intersect(&sb).union(&sa.intersect(&sc)))
        );
        // a = (a \ b) ∪ (a ∩ b), and the two parts are disjoint.
        let diff = sa.subtract(&sb);
        let both = sa.intersect(&sb);
        prop_assert_eq!(points(&diff.union(&both)), points(&sa));
        prop_assert!(!diff.overlaps(&both));
        prop_assert!(!diff.overlaps(&sb));
        // Complementing twice in a universe keeps the part inside it.
        let universe = StridedSet::from_range(ByteRange::new(0, UNIVERSE));
        let cc = universe.subtract(&universe.subtract(&sa));
        prop_assert_eq!(points(&cc), points(&sa.intersect(&universe)));
    }

    #[test]
    fn every_operation_returns_the_canonical_form(
        sa in arb_strided(),
        sb in arb_strided(),
        (soup, dsa) in arb_soup(),
        (_, dsb) in arb_soup(),
        (unit, shards, shard) in (1u64..12, 1u64..5, 0u64..5),
        cut in 0u64..8,
    ) {
        let shard = shard % shards;
        for (x, y) in [(&sa, &sb), (&dsa, &dsb), (&sa, &dsb)] {
            for s in [x.union(y), x.intersect(y), x.subtract(y), x.shard_slice(unit, shards, shard)] {
                prop_assert!(is_canonical(&s), "{}", s);
            }
            // Shard slices interleave: their trains in reverse shard order
            // are a disjoint soup whose set is `x`.
            let soup: Vec<Train> = (0..shards)
                .rev()
                .flat_map(|k| x.shard_slice(unit, shards, k).trains().to_vec())
                .collect();
            let rebuilt = StridedSet::from_disjoint_trains(soup);
            prop_assert!(is_canonical(&rebuilt));
            prop_assert_eq!(points(&rebuilt), points(x));
        }
        // Extents cut inside their runs, so neighbours touch.
        let extents = runs_of(&soup_points(&soup)).into_iter().flat_map(|r| {
            let mid = (r.start + cut).min(r.end);
            [(r.start, mid - r.start), (mid, r.end - mid)]
        });
        let s = StridedSet::from_sorted_extents(extents);
        prop_assert!(is_canonical(&s));
        prop_assert_eq!(points(&s), soup_points(&soup));
    }
}
