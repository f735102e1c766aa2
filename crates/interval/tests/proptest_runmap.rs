//! Property tests: `RunMap` must hold exactly what a per-byte array holds
//! after the same updates, in its three roles — latest release times
//! (`max` updates), token owners (assignment, with the hit test and the
//! runs each other owner loses) and cache coverage (`()` inserts and
//! removals) — and keep every run maximal for its value.

use atomio_interval::{ByteRange, RunMap, StridedSet, Train};
use proptest::prelude::*;

const UNIVERSE: u64 = 128;

fn arb_range() -> impl Strategy<Value = ByteRange> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| ByteRange::new(a.min(b), a.max(b)))
}

/// A request: a run or a small comb inside the universe.
fn arb_request() -> impl Strategy<Value = StridedSet> {
    (0u64..UNIVERSE, 1u64..16, 0u64..16, 1u64..6).prop_map(|(start, len, gap, count)| {
        StridedSet::from_train(Train::new(start, len, len + gap, count))
            .intersect(&StridedSet::from_range(ByteRange::new(0, UNIVERSE)))
    })
}

/// The maximal runs of ascending bytes.
fn runs_of(bytes: impl Iterator<Item = u64>) -> Vec<ByteRange> {
    let mut runs: Vec<ByteRange> = Vec::new();
    for b in bytes {
        match runs.last_mut() {
            Some(r) if r.end == b => r.end = b + 1,
            _ => runs.push(ByteRange::new(b, b + 1)),
        }
    }
    runs
}

/// The maximal runs of equal values in a per-byte array.
fn brute_runs<V: Clone + PartialEq>(bytes: &[Option<V>]) -> Vec<(ByteRange, V)> {
    let mut runs: Vec<(ByteRange, V)> = Vec::new();
    for (b, v) in bytes.iter().enumerate() {
        let Some(v) = v else { continue };
        let b = b as u64;
        match runs.last_mut() {
            Some((r, last)) if r.end == b && last == v => r.end = b + 1,
            _ => runs.push((ByteRange::new(b, b + 1), v.clone())),
        }
    }
    runs
}

/// `map` against the array it models: the same runs with the same values
/// (which also says every run is maximal), and the same answers to
/// `runs_meeting` and `gaps` over `query`.
fn check<V: Clone + PartialEq + std::fmt::Debug>(
    map: &RunMap<V>,
    bytes: &[Option<V>],
    query: ByteRange,
) {
    let want = brute_runs(bytes);
    let got: Vec<(ByteRange, V)> = map.iter().map(|(r, v)| (r, v.clone())).collect();
    assert_eq!(&got, &want);
    assert_eq!(map.len(), want.len());
    assert_eq!(map.is_empty(), want.is_empty());
    for pair in got.windows(2) {
        let ((a, va), (b, vb)) = (&pair[0], &pair[1]);
        assert!(
            a.end < b.start || va != vb,
            "{} and {} touch with equal values",
            a,
            b
        );
    }
    let meeting: Vec<(ByteRange, V)> = map
        .runs_meeting(query)
        .map(|(r, v)| (r, v.clone()))
        .collect();
    let want_meeting: Vec<(ByteRange, V)> = want
        .into_iter()
        .filter(|(r, _)| r.intersect(&query).is_some())
        .collect();
    assert_eq!(meeting, want_meeting, "runs meeting {}", query);
    let holes = (query.start..query.end).filter(|&b| bytes[b as usize].is_none());
    assert_eq!(map.gaps(query), runs_of(holes), "gaps in {}", query);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Release times: each byte keeps its latest time whatever order the
    /// releases arrive in, and the latest release over a query is the max
    /// over the runs meeting it.
    #[test]
    fn max_updates_match_per_byte_release_times(
        releases in prop::collection::vec((arb_range(), 0u64..8), 0..40),
        query in arb_range(),
    ) {
        let mut map = RunMap::default();
        let mut bytes = vec![None; UNIVERSE as usize];
        for (r, t) in &releases {
            map.update(*r, |old| Some(old.map_or(*t, |&old: &u64| old.max(*t))));
            for b in r.start..r.end {
                let old: &mut Option<u64> = &mut bytes[b as usize];
                *old = Some(old.map_or(*t, |old| old.max(*t)));
            }
        }
        check(&map, &bytes, query);
        let latest = map.runs_meeting(query).map(|(_, &t)| t).max();
        let want = (query.start..query.end).filter_map(|b| bytes[b as usize]).max();
        prop_assert_eq!(latest, want);
    }

    /// Token owners: a grant is a hit when the requester already holds
    /// every byte; otherwise each other owner loses exactly its bytes of
    /// the request, and the request passes to the requester.
    #[test]
    fn owner_assignment_matches_per_byte_owners(
        grants in prop::collection::vec((0usize..4, arb_request()), 0..30),
        query in arb_range(),
    ) {
        let mut map: RunMap<usize> = RunMap::default();
        let mut bytes: Vec<Option<usize>> = vec![None; UNIVERSE as usize];
        for (owner, set) in &grants {
            let in_set = |b: u64| set.overlaps_range(&ByteRange::new(b, b + 1));
            let hit = set.iter().all(|r| map.holds(r, owner));
            let want_hit = (0..UNIVERSE).filter(|&b| in_set(b)).all(|b| bytes[b as usize] == Some(*owner));
            prop_assert_eq!(hit, want_hit, "{} requests {}", owner, set);
            if hit {
                continue;
            }
            for holder in (0..4).filter(|h| h != owner) {
                let lost = set.iter().flat_map(|r| {
                    map.runs_meeting(r)
                        .filter(|&(_, &h)| h == holder)
                        .filter_map(move |(held, _)| held.intersect(&r))
                        .map(|run| (run.start, run.len()))
                        .collect::<Vec<_>>()
                });
                let lost = StridedSet::from_sorted_extents(lost);
                let want = (0..UNIVERSE).filter(|&b| in_set(b) && bytes[b as usize] == Some(holder));
                prop_assert_eq!(lost.iter().collect::<Vec<_>>(), runs_of(want), "{} loses to {}", holder, owner);
            }
            for r in set.iter() {
                map.insert(r, *owner);
                for b in r.start..r.end {
                    bytes[b as usize] = Some(*owner);
                }
            }
        }
        check(&map, &bytes, query);
    }

    /// Coverage: inserts and removals of `()`, in any interleaving.
    #[test]
    fn inserts_and_removals_match_per_byte_coverage(
        ops in prop::collection::vec((any::<bool>(), arb_range()), 0..40),
        query in arb_range(),
    ) {
        let mut map = RunMap::default();
        let mut bytes = vec![None; UNIVERSE as usize];
        for (insert, r) in &ops {
            if *insert {
                map.insert(*r, ());
            } else {
                map.remove(*r);
            }
            for b in r.start..r.end {
                bytes[b as usize] = insert.then_some(());
            }
        }
        check(&map, &bytes, query);
    }
}
