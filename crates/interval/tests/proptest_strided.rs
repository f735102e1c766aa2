//! Property tests: `StridedSet` algebra must be extensionally equal to the
//! dense `IntervalSet` algebra on random range soups, random train soups,
//! and same-stride comb families, and promotion/demotion must round-trip
//! losslessly.

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

fn trains_disjoint_and_sorted(s: &StridedSet) -> bool {
    let sorted = s.trains().windows(2).all(|w| w[0].start() <= w[1].start());
    let total: u64 = s.trains().iter().map(Train::nbytes).sum();
    // No train may be contiguous in disguise (`len == stride` with several
    // runs): those must have been coalesced to a single run, or WireSize,
    // run counts and overlap sweeps would disagree between representations.
    let no_disguised_runs = s
        .trains()
        .iter()
        .all(|t| t.is_run() || t.stride() > t.len());
    // Disjointness check via the dense expansion: covered bytes must equal
    // the sum of per-train bytes.
    sorted && no_disguised_runs && s.to_intervals().total_len() == total
}

proptest! {
    #[test]
    fn promote_demote_roundtrips((d, s) in arb_dense_pair()) {
        prop_assert_eq!(s.to_intervals(), d.clone());
        prop_assert!(trains_disjoint_and_sorted(&s));
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
        prop_assert!(trains_disjoint_and_sorted(&u));
        prop_assert_eq!(u.to_intervals(), da.union(&db));
        let x = sa.intersect(&sb);
        prop_assert!(trains_disjoint_and_sorted(&x));
        prop_assert_eq!(x.to_intervals(), da.intersect(&db));
        let m = sa.subtract(&sb);
        prop_assert!(trains_disjoint_and_sorted(&m));
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
        prop_assert!(trains_disjoint_and_sorted(&s));
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
        // Laws hold extensionally whatever the train decomposition.
        prop_assert_eq!(
            sa.union(&sb).to_intervals(),
            sb.union(&sa).to_intervals()
        );
        prop_assert_eq!(
            sa.intersect(&sb.union(&sc)).to_intervals(),
            sa.intersect(&sb).union(&sa.intersect(&sc)).to_intervals()
        );
        let diff = sa.subtract(&sb);
        let both = sa.intersect(&sb);
        prop_assert_eq!(diff.union(&both).to_intervals(), sa.to_intervals());
        prop_assert!(!diff.overlaps(&both));
    }
}
