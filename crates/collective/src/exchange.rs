//! Routing of a rank's view segments to the owning aggregators.

use atomio_dtype::ViewSegment;
use atomio_interval::{ByteRange, IntervalSet};

use crate::domain::{domain_of, FileDomain};

/// One redistributed piece: `(absolute file offset, bytes)`. The tuple form
/// is what travels through `Comm::alltoallv`.
pub type Piece = (u64, Vec<u8>);

/// Split this rank's `segments` (with their data from `buf`, whose first
/// byte is logical offset `base`) along the domain boundaries and bucket
/// the pieces by destination rank.
///
/// Returns one bucket per communicator rank (`nprocs` total); buckets of
/// non-aggregator ranks stay empty. Pieces are emitted in ascending file
/// order, so each aggregator receives each source's contribution sorted.
pub fn route_segments(
    nprocs: usize,
    segments: &[ViewSegment],
    buf: &[u8],
    base: u64,
    domains: &[FileDomain],
) -> Vec<Vec<Piece>> {
    let mut out: Vec<Vec<Piece>> = vec![Vec::new(); nprocs];
    for seg in segments {
        let mut off = seg.file_off;
        let end = seg.file_end();
        while off < end {
            let Some(di) = domain_of(domains, off) else {
                // Outside every domain — cannot happen when domains cover
                // the allgathered extent, but stay robust for arbitrary
                // caller-supplied domains: hop straight to the next domain
                // boundary instead of scanning byte-by-byte.
                let idx = domains.partition_point(|d| d.range.start <= off);
                match domains.get(idx) {
                    Some(d) if d.range.start < end => {
                        off = d.range.start;
                        continue;
                    }
                    _ => break,
                }
            };
            let dom = &domains[di];
            let take = end.min(dom.range.end) - off;
            let logical = (seg.logical_off + (off - seg.file_off) - base) as usize;
            out[dom.rank].push((off, buf[logical..logical + take as usize].to_vec()));
            off += take;
        }
    }
    out
}

/// Assemble the pieces an aggregator received into one buffer per covered
/// *run* — never the domain extent: a sparse request over a huge file must
/// not allocate the whole domain. Every sender surrendered what a higher
/// rank overwrites before routing, so no two pieces may overlap; the order
/// they arrive in is therefore irrelevant, and that is checked here.
pub(crate) fn assemble<'a>(
    pieces: impl Iterator<Item = &'a Piece> + Clone,
) -> Vec<(ByteRange, Vec<u8>)> {
    let coverage = IntervalSet::from_extents(pieces.clone().map(|(o, d)| (*o, d.len() as u64)));
    let mut staged: Vec<(ByteRange, Vec<u8>)> = coverage
        .iter()
        .map(|r| (*r, vec![0u8; r.len() as usize]))
        .collect();
    let mut received = 0u64;
    for (off, data) in pieces {
        // Each piece is contiguous, so it lies inside exactly one run.
        let ri = coverage.runs().partition_point(|r| r.end <= *off);
        let (run, dst) = &mut staged[ri];
        let rel = (*off - run.start) as usize;
        dst[rel..rel + data.len()].copy_from_slice(data);
        received += data.len() as u64;
    }
    assert_eq!(
        received,
        coverage.total_len(),
        "overlapping pieces reached an aggregator: a sender skipped the surrender rule"
    );
    staged
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_interval::ByteRange;

    fn seg(file_off: u64, logical_off: u64, len: u64) -> ViewSegment {
        ViewSegment {
            file_off,
            logical_off,
            len,
        }
    }

    fn dom(rank: usize, start: u64, end: u64) -> FileDomain {
        FileDomain {
            rank,
            range: ByteRange::new(start, end),
        }
    }

    #[test]
    fn segments_split_at_domain_boundaries() {
        let domains = [dom(0, 0, 100), dom(3, 100, 200)];
        let buf: Vec<u8> = (0..40u8).collect();
        // One segment straddling the boundary: file [80, 120), logical 0..40.
        let out = route_segments(4, &[seg(80, 0, 40)], &buf, 0, &domains);
        assert_eq!(out[0], vec![(80u64, (0..20u8).collect::<Vec<_>>())]);
        assert_eq!(out[3], vec![(100u64, (20..40u8).collect::<Vec<_>>())]);
        assert!(out[1].is_empty() && out[2].is_empty());
    }

    #[test]
    fn base_offset_shifts_buffer_indexing() {
        let domains = [dom(1, 0, 1000)];
        let buf = vec![9u8; 10];
        // Logical stream offset 50 maps to buf[0] when base = 50.
        let out = route_segments(2, &[seg(500, 50, 10)], &buf, 50, &domains);
        assert_eq!(out[1], vec![(500u64, vec![9u8; 10])]);
    }

    #[test]
    fn multiple_segments_stay_sorted_per_destination() {
        let domains = [dom(0, 0, 1000)];
        let buf: Vec<u8> = (0..30u8).collect();
        let segs = [seg(10, 0, 10), seg(200, 10, 10), seg(900, 20, 10)];
        let out = route_segments(1, &segs, &buf, 0, &domains);
        let offs: Vec<u64> = out[0].iter().map(|p| p.0).collect();
        assert_eq!(offs, vec![10, 200, 900]);
        let total: usize = out[0].iter().map(|p| p.1.len()).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn uncovered_gaps_are_hopped_not_scanned() {
        // Domains cover only [0, 100); the segment extends a gigabyte past
        // them. The uncovered tail must be dropped by hopping domain
        // boundaries, not by a per-byte scan.
        let domains = [dom(0, 0, 100)];
        let buf = [1u8; 64];
        let out = route_segments(1, &[seg(50, 0, 1 << 30)], &buf[..], 0, &domains);
        assert_eq!(out[0], vec![(50u64, vec![1u8; 50])]);

        // Segment starting before the first domain hops forward into it.
        let domains = [dom(0, 1000, 1100)];
        let big = vec![2u8; 1064];
        let out = route_segments(1, &[seg(0, 0, 1064)], &big, 0, &domains);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].0, 1000);
        assert_eq!(out[0][0].1.len(), 64);
    }

    #[test]
    fn empty_segments_produce_empty_buckets() {
        let domains = [dom(0, 0, 100)];
        let out = route_segments(3, &[], &[], 0, &domains);
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(out.len(), 3);
    }
}
