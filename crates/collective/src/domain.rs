//! Aggregator selection and file-domain partitioning.

use std::cmp::Reverse;

use atomio_interval::{ByteRange, StridedSet};
use atomio_vtime::NodeTopology;

/// One aggregator's slice of the aggregate file extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileDomain {
    /// Communicator rank of the owning aggregator.
    pub rank: usize,
    /// Contiguous file bytes this aggregator writes. Domains are disjoint
    /// and, except possibly at the extent's edges, stripe-aligned.
    pub range: ByteRange,
}

/// Pick `want` aggregator ranks out of `p`, node-aware.
///
/// `ranks_per_node` models how the job was launched (threads-as-ranks here,
/// but the placement logic is the real one): with `want < p` the aggregators
/// are spread one-per-node round-robin before a second rank of any node is
/// used, following Kang et al.'s observation that aggregator NICs, not
/// cores, are the bottleneck resource. `want` is clamped to `[1, p]`;
/// the result is sorted and duplicate-free.
///
/// Inside a two-phase call the pick fixes *how many* aggregators each node
/// seats and is the assignment uniform holdings fall back to; which rank
/// of a node serves, and which domain, follows what the ranks already hold
/// (`TwoPhaseConfig::aggregators`).
pub(crate) fn choose_aggregators(p: usize, want: usize, ranks_per_node: usize) -> Vec<usize> {
    assert!(p > 0, "need at least one rank");
    let want = want.clamp(1, p);
    let rpn = ranks_per_node.max(1);
    let nodes = p.div_ceil(rpn);
    let mut picked = Vec::with_capacity(want);
    // slot-major: slot 0 of every node first, then slot 1, ...
    'outer: for slot in 0..rpn {
        for node in 0..nodes {
            let rank = node * rpn + slot;
            if rank < p {
                picked.push(rank);
                if picked.len() == want {
                    break 'outer;
                }
            }
        }
    }
    picked.sort_unstable();
    picked
}

/// Partition `extent` into one contiguous domain per aggregator by
/// splitting the **absolute stripe-unit grid**, not raw bytes: stripe unit
/// `u` covers file bytes `[u*stripe, (u+1)*stripe)`, the extent spans some
/// `U` whole-or-partial units, and aggregator `i` owns units
/// `[⌈U·i/A⌉, ⌈U·(i+1)/A⌉)` clipped to the extent. Every interior boundary
/// is therefore a stripe multiple in absolute offsets — no stripe unit, and
/// hence no I/O server request, is ever shared by two aggregators — and the
/// byte imbalance is bounded by one stripe unit plus the edge partials,
/// however the extent is aligned.
///
/// (The previous byte-space split rounded `extent.start + share·(i+1)` up
/// to the next stripe multiple, which with a stripe-unaligned
/// `extent.start` silently inflated the first domain by up to a full
/// stripe and starved the last — splitting the unit *grid* keeps the
/// shares even relative to the stripe units that actually exist.)
///
/// Aggregators whose share rounds away (tiny extents, many aggregators)
/// simply get no domain; the returned list contains only non-empty domains,
/// in ascending file order.
pub fn partition_domains(extent: ByteRange, aggregators: &[usize], stripe: u64) -> Vec<FileDomain> {
    assert!(!aggregators.is_empty(), "need at least one aggregator");
    assert!(stripe > 0, "stripe unit must be positive");
    if extent.is_empty() {
        return Vec::new();
    }
    let a = aggregators.len() as u64;
    let unit_lo = extent.start / stripe;
    let units = extent.end.div_ceil(stripe) - unit_lo;
    let mut out = Vec::with_capacity(aggregators.len());
    let mut start = extent.start;
    for (i, &rank) in aggregators.iter().enumerate() {
        if start >= extent.end {
            break;
        }
        let end = if i + 1 == aggregators.len() {
            extent.end
        } else {
            // Cumulative unit share of aggregators 0..=i, remainder units
            // biased to the front so tiny extents land on aggregator 0.
            let cum = (units * (i as u64 + 1)).div_ceil(a);
            (unit_lo + cum).saturating_mul(stripe).min(extent.end)
        };
        if end > start {
            out.push(FileDomain {
                rank,
                range: ByteRange::new(start, end),
            });
            start = end;
        }
    }
    out
}

/// Re-own `domains` — cut by [`partition_domains`] for `aggregators`, whose
/// rank-order assignment they arrive with — so each goes to the candidate
/// that already holds the most of its bytes. Candidate `i` is rank
/// `i * stride` and holds `held[i]`; weight(candidate, domain) is
/// `|held ∩ domain|`, a byte the owner need not put on a wire.
///
/// Greedy by descending weight, one domain per rank, and never more owners
/// on a node than `aggregators` seats there: *which* rank of a node serves
/// may change, *how many* may not (the NIC-spreading argument of
/// [`choose_aggregators`]). Equal weights prefer the owner a domain arrived
/// with, then file order, then rank order, and the result is kept only if it
/// holds strictly more bytes locally than the assignment the domains arrived
/// with — so uniformly spread footprints keep rank order. A pure function of
/// its arguments: every rank that calls it with the same footprints gets the
/// same owners.
pub(crate) fn own_by_locality(
    domains: &mut [FileDomain],
    aggregators: &[usize],
    held: &[StridedSet],
    stride: usize,
    topo: &NodeTopology,
) {
    let mut seats = vec![0usize; topo.nodes()];
    for &a in aggregators {
        seats[topo.node_of(a)] += 1;
    }
    // (weight, leaves the arriving owner, domain, candidate) of every pair
    // with bytes in common.
    let ranges: Vec<StridedSet> = domains
        .iter()
        .map(|d| StridedSet::from_range(d.range))
        .collect();
    let mut pairs = Vec::new();
    for (c, set) in held.iter().enumerate() {
        if seats[topo.node_of(c * stride)] == 0 {
            continue;
        }
        for (d, dom) in domains.iter().enumerate() {
            let weight = set.intersect(&ranges[d]).total_len();
            if weight > 0 {
                pairs.push((weight, dom.rank != c * stride, d, c));
            }
        }
    }
    pairs.sort_unstable_by_key(|&(weight, moved, d, c)| (Reverse(weight), moved, d, c));

    let arrived: u64 = pairs.iter().filter(|p| !p.1).map(|p| p.0).sum();
    let mut owners: Vec<Option<usize>> = vec![None; domains.len()];
    let mut owns = vec![false; held.len()];
    let mut local = 0u64;
    for (weight, _, d, c) in pairs {
        let node = topo.node_of(c * stride);
        if owners[d].is_none() && !owns[c] && seats[node] > 0 {
            owners[d] = Some(c * stride);
            owns[c] = true;
            seats[node] -= 1;
            local += weight;
        }
    }
    if local <= arrived {
        return;
    }
    // A domain no seatable candidate holds a byte of costs the same
    // wherever it goes: in file order, to the seats still open, filled by
    // the arriving aggregators of each node in rank order.
    let mut spare = Vec::new();
    for &a in aggregators {
        let node = topo.node_of(a);
        if !owns[a / stride] && seats[node] > 0 {
            seats[node] -= 1;
            spare.push(a);
        }
    }
    let mut spare = spare.into_iter();
    for (dom, owner) in domains.iter_mut().zip(owners) {
        dom.rank = owner
            .or_else(|| spare.next())
            .expect("no more domains than aggregator seats");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_interval::Train;

    #[test]
    fn aggregators_default_prefix_when_one_rank_per_node() {
        assert_eq!(choose_aggregators(8, 3, 1), vec![0, 1, 2]);
        assert_eq!(choose_aggregators(4, 4, 1), vec![0, 1, 2, 3]);
        assert_eq!(choose_aggregators(4, 99, 1), vec![0, 1, 2, 3]);
        assert_eq!(choose_aggregators(4, 0, 1), vec![0]);
    }

    #[test]
    fn aggregators_spread_across_nodes_first() {
        // 8 ranks, 4 per node -> nodes {0..3}, {4..7}. Two aggregators must
        // land on different nodes, not both on node 0.
        assert_eq!(choose_aggregators(8, 2, 4), vec![0, 4]);
        // Four aggregators: two per node, slot-major.
        assert_eq!(choose_aggregators(8, 4, 4), vec![0, 1, 4, 5]);
        // More aggregators than nodes*1: wraps to second slot.
        assert_eq!(choose_aggregators(6, 3, 2), vec![0, 2, 4]);
    }

    #[test]
    fn domains_cover_extent_disjoint_and_aligned() {
        let extent = ByteRange::new(100, 100_000);
        let aggs = [0usize, 2, 5, 7];
        let stripe = 4096;
        let domains = partition_domains(extent, &aggs, stripe);
        assert_eq!(domains.len(), 4);
        // Coverage: first starts at extent start, last ends at extent end,
        // consecutive domains touch.
        assert_eq!(domains[0].range.start, 100);
        assert_eq!(domains.last().unwrap().range.end, 100_000);
        for w in domains.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start);
            // Interior boundaries stripe-aligned.
            assert_eq!(w[0].range.end % stripe, 0);
        }
        // Owners in order.
        let owners: Vec<usize> = domains.iter().map(|d| d.rank).collect();
        assert_eq!(owners, vec![0, 2, 5, 7]);
    }

    #[test]
    fn tiny_extent_collapses_to_fewer_domains() {
        // One stripe of data, four aggregators: only the first gets work.
        let domains = partition_domains(ByteRange::new(0, 1000), &[0, 1, 2, 3], 4096);
        assert_eq!(domains.len(), 1);
        assert_eq!(domains[0].rank, 0);
        assert_eq!(domains[0].range, ByteRange::new(0, 1000));
    }

    #[test]
    fn empty_extent_yields_no_domains() {
        assert!(partition_domains(ByteRange::new(5, 5), &[0, 1], 64).is_empty());
    }

    /// The stripe-ownership and coverage invariants every partition must
    /// satisfy, whatever the extent alignment.
    fn assert_domain_invariants(extent: ByteRange, domains: &[FileDomain], stripe: u64) {
        assert_eq!(domains.first().unwrap().range.start, extent.start);
        assert_eq!(domains.last().unwrap().range.end, extent.end);
        for w in domains.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start, "gap between domains");
            assert_eq!(
                w[0].range.end % stripe,
                0,
                "interior boundary {} not stripe-aligned",
                w[0].range.end
            );
        }
        // No stripe unit owned by two aggregators.
        for w in domains.windows(2) {
            assert_ne!(
                (w[0].range.end - 1) / stripe,
                w[1].range.start / stripe,
                "stripe unit split between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn unaligned_extent_start_keeps_domains_balanced() {
        // Regression: the old byte-space round-up inflated the first domain
        // by up to a full stripe when `extent.start` was unaligned (e.g.
        // start=100, stripe=64, 64 aggregators gave domains of 220 vs 52
        // bytes). Unit-grid splitting bounds the imbalance by ~2 stripes.
        let stripe = 64u64;
        let extent = ByteRange::new(100, 100 + 10_000);
        let aggs: Vec<usize> = (0..64).collect();
        let domains = partition_domains(extent, &aggs, stripe);
        assert_domain_invariants(extent, &domains, stripe);
        let max = domains.iter().map(|d| d.range.len()).max().unwrap();
        let min = domains.iter().map(|d| d.range.len()).min().unwrap();
        assert!(
            max - min <= 2 * stripe,
            "imbalance {max} vs {min} with unaligned start"
        );
        // Same at a realistic stripe with a mid-stripe start.
        let stripe = 65_536u64;
        let extent = ByteRange::new(12_345, 12_345 + (64 << 20));
        let domains = partition_domains(extent, &[0, 1, 2, 3], stripe);
        assert_domain_invariants(extent, &domains, stripe);
        let max = domains.iter().map(|d| d.range.len()).max().unwrap();
        let min = domains.iter().map(|d| d.range.len()).min().unwrap();
        assert!(max - min <= 2 * stripe, "imbalance {max} vs {min}");
    }

    #[test]
    fn extent_smaller_than_one_stripe_goes_to_first_aggregator() {
        for start in [0u64, 17, 4000] {
            let extent = ByteRange::new(start, start + 90);
            let domains = partition_domains(extent, &[3, 5, 8], 4096);
            assert_eq!(domains.len(), 1, "start {start}");
            assert_eq!(domains[0].rank, 3);
            assert_eq!(domains[0].range, extent);
        }
        // An unaligned sub-stripe extent *crossing* a unit boundary may use
        // two aggregators, but never split a unit.
        let extent = ByteRange::new(4000, 4300);
        let domains = partition_domains(extent, &[0, 1], 4096);
        assert_domain_invariants(extent, &domains, 4096);
    }

    #[test]
    fn more_aggregators_than_stripe_units() {
        // want > extent/stripe: exactly one domain per stripe unit, each a
        // whole unit (clipped at the extent edges), later aggregators idle.
        let stripe = 4096u64;
        let extent = ByteRange::new(100, 3 * stripe + 50);
        let aggs: Vec<usize> = (0..8).collect();
        let domains = partition_domains(extent, &aggs, stripe);
        assert_domain_invariants(extent, &domains, stripe);
        assert_eq!(domains.len(), 4, "one domain per touched stripe unit");
        for d in &domains {
            assert!(d.range.len() <= stripe);
            // Each domain covers exactly one stripe unit's worth of extent.
            assert_eq!(d.range.start / stripe, (d.range.end - 1) / stripe);
        }
    }

    const STRIPE: u64 = 4096;

    /// `choose_aggregators` + `partition_domains` + the ownership rule over
    /// `[0, stripes)` stripe units, every rank a candidate.
    fn owned(want: usize, rpn: usize, stripes: u64, held: &[StridedSet]) -> Vec<FileDomain> {
        let p = held.len();
        let aggregators = choose_aggregators(p, want, rpn);
        let extent = ByteRange::new(0, stripes * STRIPE);
        let mut domains = partition_domains(extent, &aggregators, STRIPE);
        let topo = NodeTopology::new(p, rpn);
        own_by_locality(&mut domains, &aggregators, held, 1, &topo);
        domains
    }

    /// The set of whole stripe units `[lo, hi)`.
    fn units(lo: u64, hi: u64) -> StridedSet {
        StridedSet::from_range(ByteRange::new(lo * STRIPE, hi * STRIPE))
    }

    fn owners(domains: &[FileDomain]) -> Vec<usize> {
        domains.iter().map(|d| d.rank).collect()
    }

    #[test]
    fn uniform_holdings_keep_rank_order() {
        // Eight ranks, two per node, each holding its own stripe unit: every
        // default aggregator already holds as much of its domain as anyone.
        let blocks: Vec<StridedSet> = (0..8).map(|r| units(r, r + 1)).collect();
        assert_eq!(owners(&owned(4, 2, 8, &blocks)), vec![0, 2, 4, 6]);
        // Column-wise: every rank holds the same share of every domain.
        let columns: Vec<StridedSet> = (0..8u64)
            .map(|r| StridedSet::from_train(Train::new(r * 512, 512, STRIPE, 8)))
            .collect();
        assert_eq!(owners(&owned(4, 2, 8, &columns)), vec![0, 2, 4, 6]);
        // Nobody holds anything (a read of nothing, say): nothing to weigh.
        let nothing = vec![StridedSet::new(); 8];
        assert_eq!(owners(&owned(4, 2, 8, &nothing)), vec![0, 2, 4, 6]);
    }

    #[test]
    fn the_holder_of_a_whole_domain_owns_it() {
        // Shared-header shape: rank 7 kept the 3-unit header (domain 0),
        // ranks 0..=5 one unit each behind it, rank 6 (whose node's seat
        // rank 7 takes) the last. 12 units, 4 aggregators, 3-unit domains.
        let mut held: Vec<StridedSet> = (0..7).map(|r| units(3 + r, 4 + r)).collect();
        held.push(units(0, 3).union(&units(10, 11)));
        let domains = owned(4, 2, 12, &held);
        // Rank 7 takes the header and with it node 3's only seat. Equal
        // weights prefer the arriving owner: ranks 2 and 4 hold a unit of
        // the domains they arrived with and keep them. Only node 3's ranks
        // hold any of the last domain, so it goes to the spare seat, rank 0.
        assert_eq!(owners(&domains), vec![7, 2, 4, 0]);
        let ranges: Vec<ByteRange> = domains.iter().map(|d| d.range).collect();
        let cut = partition_domains(ByteRange::new(0, 12 * STRIPE), &[0, 2, 4, 6], STRIPE);
        let arrived: Vec<ByteRange> = cut.iter().map(|d| d.range).collect();
        assert_eq!(ranges, arrived, "ownership never moves a boundary");
    }

    #[test]
    fn node_seats_and_one_domain_per_rank_bound_the_greedy_choice() {
        // Two nodes of four, aggregators (0, 1, 4, 5): two seats a node.
        // Every domain is held whole by a rank of node 0, and rank 2 holds
        // two of them.
        let mut held = vec![StridedSet::new(); 8];
        held[2] = units(0, 4);
        held[3] = units(4, 6);
        held[1] = units(6, 8);
        let domains = owned(4, 4, 8, &held);
        // Rank 2 gets one of its two domains, rank 3 its own; node 0 is then
        // full, so rank 1 stays out and node 1's aggregators take the rest.
        assert_eq!(owners(&domains), vec![2, 4, 3, 5]);
        for node in 0..2 {
            let seated = domains.iter().filter(|d| d.rank / 4 == node).count();
            assert_eq!(seated, 2, "node {node}");
        }
        // With fewer aggregators than nodes only the seated nodes' ranks
        // are candidates: rank 7 holds everything and still serves nothing.
        let mut held = vec![StridedSet::new(); 8];
        held[7] = units(0, 8);
        assert_eq!(owners(&owned(2, 2, 8, &held)), vec![0, 2]);
    }

    #[test]
    fn fewer_domains_than_aggregators_still_places_them() {
        // One stripe unit, four aggregators: a single domain, which the one
        // rank holding it serves; with nobody ahead of rank 0 it stays.
        let mut held = vec![StridedSet::new(); 4];
        held[3] = units(0, 1);
        assert_eq!(owners(&owned(4, 1, 1, &held)), vec![3]);
        held.swap(0, 3);
        assert_eq!(owners(&owned(4, 1, 1, &held)), vec![0]);
        // Two units cut for aggregators 0 and 2, rank 3 holding both: it
        // serves the first, and the second goes to the first spare seat.
        let mut held = vec![StridedSet::new(); 4];
        held[3] = units(0, 2);
        assert_eq!(owners(&owned(4, 1, 2, &held)), vec![3, 0]);
    }

    #[test]
    fn a_greedy_choice_that_holds_no_more_than_rank_order_is_dropped() {
        // weight   domain 0  domain 1
        // rank 0       5         6
        // rank 1       0         5
        // Greedy takes (rank 0, domain 1) = 6 and is left with (rank 1,
        // domain 0) = 0: 6 < 5 + 5, so rank order stays.
        let bytes = |off: u64, len: u64| StridedSet::from_range(ByteRange::at(off, len));
        let held = [bytes(0, 5).union(&bytes(STRIPE, 6)), bytes(STRIPE + 100, 5)];
        assert_eq!(owners(&owned(2, 1, 2, &held)), vec![0, 1]);
        // Hand rank 0's five bytes of domain 0 to rank 1 and the same
        // greedy start pays: 6 + 5 against the 5 rank order keeps local.
        let held = [bytes(STRIPE, 6), bytes(0, 5).union(&bytes(STRIPE + 100, 5))];
        assert_eq!(owners(&owned(2, 1, 2, &held)), vec![1, 0]);
    }

    #[test]
    fn domains_balance_large_extents() {
        let stripe = 64 * 1024;
        let total = 256 * 1024 * 1024u64;
        let domains = partition_domains(ByteRange::new(0, total), &[0, 1, 2, 3], stripe);
        assert_eq!(domains.len(), 4);
        let max = domains.iter().map(|d| d.range.len()).max().unwrap();
        let min = domains.iter().map(|d| d.range.len()).min().unwrap();
        assert!(max - min <= stripe, "imbalance {max} vs {min}");
    }
}
