//! Property tests for `IntervalSet` against a brute-force point-set model.

use std::collections::BTreeSet;

use atomio_interval::{ByteRange, IntervalSet};
use proptest::prelude::*;

const UNIVERSE: u64 = 96;

fn arb_range() -> impl Strategy<Value = ByteRange> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ByteRange::new(lo, hi)
    })
}

fn arb_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(arb_range(), 0..12).prop_map(IntervalSet::from_ranges)
}

fn points(s: &IntervalSet) -> BTreeSet<u64> {
    s.iter().flat_map(|r| r.start..r.end).collect()
}

fn canonical(s: &IntervalSet) -> bool {
    s.runs().windows(2).all(|w| w[0].end < w[1].start) && s.iter().all(|r| !r.is_empty())
}

proptest! {
    #[test]
    fn construction_is_canonical(s in arb_set()) {
        prop_assert!(canonical(&s));
        prop_assert_eq!(s.total_len(), points(&s).len() as u64);
    }

    #[test]
    fn union_matches_model(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        prop_assert!(canonical(&u));
        let model: BTreeSet<u64> = points(&a).union(&points(&b)).copied().collect();
        prop_assert_eq!(points(&u), model);
    }

    #[test]
    fn intersect_matches_model(a in arb_set(), b in arb_set()) {
        let x = a.intersect(&b);
        prop_assert!(canonical(&x));
        let model: BTreeSet<u64> = points(&a).intersection(&points(&b)).copied().collect();
        prop_assert_eq!(points(&x), model);
    }

    #[test]
    fn subtract_matches_model(a in arb_set(), b in arb_set()) {
        let d = a.subtract(&b);
        prop_assert!(canonical(&d));
        let model: BTreeSet<u64> = points(&a).difference(&points(&b)).copied().collect();
        prop_assert_eq!(points(&d), model);
    }

    #[test]
    fn insert_remove_match_model(s in arb_set(), r in arb_range()) {
        let mut ins = s.clone();
        ins.insert(r);
        prop_assert!(canonical(&ins));
        let mut model = points(&s);
        model.extend(r.start..r.end);
        prop_assert_eq!(points(&ins), model);

        let mut rem = s.clone();
        rem.remove(r);
        prop_assert!(canonical(&rem));
        let model: BTreeSet<u64> =
            points(&s).into_iter().filter(|p| !r.contains(*p)).collect();
        prop_assert_eq!(points(&rem), model);
    }

    #[test]
    fn union_is_commutative_and_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn intersection_distributes_over_union(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
    }

    #[test]
    fn subtraction_partitions(a in arb_set(), b in arb_set()) {
        // a = (a \ b) ∪ (a ∩ b), and the two parts are disjoint.
        let diff = a.subtract(&b);
        let both = a.intersect(&b);
        prop_assert_eq!(diff.union(&both), a);
        prop_assert!(!diff.overlaps(&both));
        prop_assert!(!diff.overlaps(&b));
    }

    #[test]
    fn complement_involution(a in arb_set()) {
        let universe = IntervalSet::from_range(ByteRange::new(0, UNIVERSE));
        let cc = universe.subtract(&universe.subtract(&a));
        // Complementing twice restores the part of `a` inside the universe.
        prop_assert_eq!(cc, a.intersect(&universe));
    }

    #[test]
    fn overlap_query_agrees_with_intersection(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
    }

    #[test]
    fn contains_agrees_with_points(s in arb_set(), p in 0..UNIVERSE) {
        prop_assert_eq!(s.contains(p), points(&s).contains(&p));
    }

    #[test]
    fn span_covers_set(s in arb_set()) {
        if let Some(span) = s.span() {
            prop_assert!(s.iter().all(|r| span.contains_range(r)));
            prop_assert_eq!(span.start, s.runs()[0].start);
            prop_assert_eq!(span.end, s.runs().last().unwrap().end);
        } else {
            prop_assert!(s.is_empty());
        }
    }

    #[test]
    fn gaps_complement_runs_within_span(s in arb_set()) {
        if let Some(span) = s.span() {
            let rebuilt = s.union(&s.gaps());
            prop_assert_eq!(rebuilt, IntervalSet::from_range(span));
        }
    }
}
