//! Property tests: `StridedSet` algebra must be extensionally equal to the
//! dense `IntervalSet` algebra on random range soups, random train soups,
//! and same-stride comb families, promotion/demotion must round-trip
//! losslessly, and every constructor and operation must return the
//! canonical form.

use atomio_interval::{ByteRange, IntervalSet, StridedSet, Train};
use atomio_vtime::WireSize;
use proptest::prelude::*;

const UNIVERSE: u64 = 96;

fn arb_range() -> impl Strategy<Value = ByteRange> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ByteRange::new(lo, hi)
    })
}

/// Random dense set, promoted — exercises the compressor on soups.
fn arb_dense_pair() -> impl Strategy<Value = (IntervalSet, StridedSet)> {
    prop::collection::vec(arb_range(), 0..12).prop_map(|rs| {
        let d = IntervalSet::from_ranges(rs);
        let s = StridedSet::from_intervals(&d);
        (d, s)
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
/// the dense set's runs, which `iter_runs` yields ascending and maximal —
/// no two touch, so no train is contiguous in disguise (`len == stride`),
/// and run counts, WireSize and overlap sweeps agree between equal sets.
fn is_canonical(s: &StridedSet) -> bool {
    let dense: Vec<ByteRange> = s.to_intervals().iter().copied().collect();
    let runs: Vec<ByteRange> = s.iter_runs().collect();
    s.trains() == folded(&greedy_trains(&dense))
        && *s == StridedSet::from_intervals(&s.to_intervals())
        && runs == dense
        && runs.windows(2).all(|w| w[0].end < w[1].start)
}

proptest! {
    #[test]
    fn promote_demote_roundtrips((d, s) in arb_dense_pair()) {
        prop_assert_eq!(s.to_intervals(), d.clone());
        prop_assert!(is_canonical(&s));
        prop_assert_eq!(s.total_len(), d.total_len());
        prop_assert_eq!(s.run_count() as usize, d.run_count());
        prop_assert_eq!(s.span(), d.span());
        // Compression never inflates the wire encoding beyond the dense one.
        prop_assert!(s.wire_size() <= d.wire_size());
    }

    #[test]
    fn strided_matches_dense_on_soups((da, sa) in arb_dense_pair(), (db, sb) in arb_dense_pair()) {
        prop_assert_eq!(sa.union(&sb).to_intervals(), da.union(&db));
        prop_assert_eq!(sa.intersect(&sb).to_intervals(), da.intersect(&db));
        prop_assert_eq!(sa.subtract(&sb).to_intervals(), da.subtract(&db));
        prop_assert_eq!(sa.overlaps(&sb), da.overlaps(&db));
    }

    #[test]
    fn strided_matches_dense_on_train_soups(sa in arb_strided(), sb in arb_strided()) {
        let (da, db) = (sa.to_intervals(), sb.to_intervals());
        let u = sa.union(&sb);
        prop_assert!(is_canonical(&u));
        prop_assert_eq!(u.to_intervals(), da.union(&db));
        let x = sa.intersect(&sb);
        prop_assert!(is_canonical(&x));
        prop_assert_eq!(x.to_intervals(), da.intersect(&db));
        let m = sa.subtract(&sb);
        prop_assert!(is_canonical(&m));
        prop_assert_eq!(m.to_intervals(), da.subtract(&db));
        prop_assert_eq!(sa.overlaps(&sb), da.overlaps(&db));
    }

    #[test]
    fn same_stride_fast_paths_are_exact((sa, sb) in arb_comb_pair()) {
        let (da, db) = (sa.to_intervals(), sb.to_intervals());
        prop_assert_eq!(sa.overlaps(&sb), da.overlaps(&db));
        prop_assert_eq!(sa.intersect(&sb).to_intervals(), da.intersect(&db));
        prop_assert_eq!(sa.subtract(&sb).to_intervals(), da.subtract(&db));
        prop_assert_eq!(sa.union(&sb).to_intervals(), da.union(&db));
        // The same-stride paths stay compressed: results are O(1) trains.
        prop_assert!(sa.intersect(&sb).train_count() <= 4);
        prop_assert!(sa.subtract(&sb).train_count() <= 8);
    }

    #[test]
    fn touching_trains_normalize_to_runs(start in 0u64..64, len in 1u64..8, count in 1u64..10) {
        // A train whose runs touch (`stride == len`) is one contiguous run;
        // construction must normalize it so every derived quantity agrees
        // with the dense form.
        let t = Train::new(start, len, len, count);
        prop_assert!(t.is_run());
        let s = StridedSet::from_train(t);
        prop_assert!(is_canonical(&s));
        prop_assert_eq!(s.run_count(), 1);
        prop_assert_eq!(s.wire_size(), 8 + 16);
        prop_assert_eq!(s.to_intervals(), IntervalSet::from_range(ByteRange::at(start, len * count)));
    }

    #[test]
    fn iter_runs_is_ascending_and_lossless(s in arb_strided()) {
        let runs: Vec<ByteRange> = s.iter_runs().collect();
        prop_assert!(runs.windows(2).all(|w| w[0].start <= w[1].start));
        prop_assert_eq!(runs.len() as u64, s.run_count());
        prop_assert_eq!(IntervalSet::from_ranges(runs), s.to_intervals());
    }

    #[test]
    fn range_queries_match_dense(s in arb_strided(), r in arb_range()) {
        let d = s.to_intervals();
        prop_assert_eq!(s.overlaps_range(&r), d.overlaps_range(&r));
        let kept = IntervalSet::from_ranges(s.subtract_from_range(&r));
        prop_assert_eq!(kept, IntervalSet::from_range(r).subtract(&d));
        // Compared raw, not through `from_ranges`: coalescing would hide a
        // maximal run split at a train seam.
        let meeting: Vec<ByteRange> =
            d.iter().filter(|run| run.intersect(&r).is_some()).copied().collect();
        prop_assert_eq!(s.runs_meeting(&r), meeting);
    }

    #[test]
    fn algebra_laws_in_compressed_space(sa in arb_strided(), sb in arb_strided(), sc in arb_strided()) {
        // Canonical form: the laws hold on the trains themselves.
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(
            sa.intersect(&sb.union(&sc)),
            sa.intersect(&sb).union(&sa.intersect(&sc))
        );
        let diff = sa.subtract(&sb);
        let both = sa.intersect(&sb);
        prop_assert_eq!(diff.union(&both), sa.clone());
        prop_assert!(!diff.overlaps(&both));
    }

    #[test]
    fn every_operation_returns_the_canonical_form(
        sa in arb_strided(),
        sb in arb_strided(),
        (da, dsa) in arb_dense_pair(),
        (_, dsb) in arb_dense_pair(),
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
            prop_assert_eq!(&StridedSet::from_disjoint_trains(soup), x);
        }
        // Extents cut inside their runs, so neighbours touch.
        let extents = da.iter().flat_map(|r| {
            let mid = (r.start + cut).min(r.end);
            [(r.start, mid - r.start), (mid, r.end - mid)]
        });
        prop_assert_eq!(StridedSet::from_sorted_extents(extents), dsa);
    }
}
