//! Routing of a rank's view segments to the owning aggregators.

use atomio_dtype::ViewSegment;
use atomio_interval::ByteRange;

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

/// What an aggregator received, ready to leave as it is: references to the
/// pieces in ascending file order. Nothing is staged or copied — a sparse
/// request over a huge file costs nothing but its covered bytes.
#[derive(Debug)]
pub(crate) struct Gathered<'a> {
    /// `(absolute file offset, bytes)` per piece, ascending, no two
    /// overlapping — the batch `PosixFile::submit_writes` takes.
    pub writes: Vec<(u64, &'a [u8])>,
    /// Maximal file-contiguous runs the pieces form (the "large writes"),
    /// ascending. They outlive the pieces, so runs can be counted over
    /// several batches.
    pub runs: Vec<ByteRange>,
    /// Total payload.
    pub bytes: u64,
}

/// Gather the pieces an aggregator received: sort the *references* by file
/// offset and group file-adjacent pieces into runs. Every sender surrendered
/// what a higher rank overwrites before routing, so no two pieces may
/// overlap; the order they arrive in is therefore irrelevant, and that is
/// checked here.
pub(crate) fn gather<'a>(pieces: impl Iterator<Item = &'a Piece>) -> Gathered<'a> {
    let mut writes: Vec<(u64, &[u8])> = pieces
        .filter(|(_, d)| !d.is_empty())
        .map(|(o, d)| (*o, d.as_slice()))
        .collect();
    writes.sort_unstable_by_key(|&(off, _)| off);
    let (mut runs, mut bytes) = (Vec::<ByteRange>::new(), 0u64);
    for &(off, data) in &writes {
        let piece = ByteRange::at(off, data.len() as u64);
        match runs.last_mut() {
            Some(run) if run.end == off => run.end = piece.end,
            last => {
                assert!(
                    last.is_none_or(|run| run.end <= off),
                    "overlapping pieces reached an aggregator: a sender skipped the surrender rule"
                );
                runs.push(piece);
            }
        }
        bytes += piece.len();
    }
    Gathered {
        writes,
        runs,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pieces_from_several_senders_gather_into_offset_ordered_runs() {
        // Three senders' buckets, arriving in sender order; the file order
        // interleaves them. [0,10) + [10,30) + [30,40) is one run, [100,120)
        // and [200,205) stand alone.
        let incoming: Vec<Vec<Piece>> = vec![
            vec![(10, vec![2; 20]), (200, vec![5; 5])],
            vec![],
            vec![(0, vec![1; 10]), (100, vec![4; 20])],
            vec![(30, vec![3; 10])],
        ];
        let g = gather(incoming.iter().flatten());
        let extents: Vec<(u64, usize)> = g.writes.iter().map(|w| (w.0, w.1.len())).collect();
        assert_eq!(
            extents,
            vec![(0, 10), (10, 20), (30, 10), (100, 20), (200, 5)]
        );
        let runs = [(0, 40), (100, 120), (200, 205)].map(|(s, e)| ByteRange::new(s, e));
        assert_eq!(
            (g.runs.as_slice(), g.bytes),
            (&runs[..], 65),
            "five pieces, three runs"
        );
        // The pieces are handed on as they are: same bytes, same buffers.
        assert!(std::ptr::eq(g.writes[0].1, incoming[2][0].1.as_slice()));
        assert!(g.writes[1].1.iter().all(|&b| b == 2));

        // Any arrival order gathers to the same batch.
        let mut shuffled: Vec<&Piece> = incoming.iter().flatten().collect();
        shuffled.reverse();
        shuffled.swap(0, 2);
        let again = gather(shuffled.into_iter());
        assert_eq!(again.writes, g.writes);
        assert_eq!((&again.runs, again.bytes), (&g.runs, g.bytes));
    }

    #[test]
    fn gathering_nothing_is_an_empty_batch() {
        let incoming: Vec<Vec<Piece>> = vec![vec![], vec![(7, vec![])]];
        let g = gather(incoming.iter().flatten());
        assert!(g.writes.is_empty());
        assert_eq!((g.runs.len(), g.bytes), (0, 0));
    }

    #[test]
    #[should_panic(expected = "skipped the surrender rule")]
    fn an_overlapping_piece_trips_the_surrender_assertion() {
        // [0,10) and [9,12) share byte 9: some sender kept a byte a higher
        // rank also shipped.
        let incoming: Vec<Vec<Piece>> = vec![vec![(0, vec![1; 10])], vec![(9, vec![2; 3])]];
        gather(incoming.iter().flatten());
    }

    #[test]
    fn empty_segments_produce_empty_buckets() {
        let domains = [dom(0, 0, 100)];
        let out = route_segments(3, &[], &[], 0, &domains);
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(out.len(), 3);
    }
}
