//! Routing of a rank's view segments to the owning aggregators.

use atomio_dtype::ViewSegment;
use atomio_interval::ByteRange;

use crate::domain::FileDomain;

/// One redistributed piece: `(absolute file offset, bytes)`, the form that
/// travels through `Comm::alltoallv`. A piece is copied out of the caller's
/// buffer where it enters a collective (`gatherv` or `alltoallv`), and only
/// there: what a rank routes to its own domain stays a slice of it.
pub(crate) type Piece = (u64, Vec<u8>);

/// A piece by reference — into the caller's buffer or a received [`Piece`].
pub(crate) type PieceRef<'a> = (u64, &'a [u8]);

/// Lend a received piece to the write step.
pub(crate) fn lend(piece: &Piece) -> PieceRef<'_> {
    (piece.0, &piece.1)
}

/// The one walk of `segments` across the ascending file `domains`, for
/// writes and reads alike: each part of a segment inside a domain, as
/// `(owner rank, file range, logical offset)`, in segment order. Each
/// segment finds its first domain by binary search and steps from there,
/// so a gap no domain covers is hopped, not scanned.
pub(crate) fn split<'a>(
    segments: &'a [ViewSegment],
    domains: &'a [FileDomain],
) -> impl Iterator<Item = (usize, ByteRange, u64)> + 'a {
    segments.iter().flat_map(move |seg| {
        let first = domains.partition_point(|d| d.range.end <= seg.file_off);
        let range = ByteRange::at(seg.file_off, seg.len);
        domains[first..].iter().map_while(move |d| {
            let part = d.range.intersect(&range)?;
            Some((d.rank, part, seg.logical_off + (part.start - seg.file_off)))
        })
    })
}

/// This rank's `segments`, split along the domains, with their data from
/// `buf` (whose first byte is logical offset `base`): the pieces of rank
/// `me`'s own domain as slices of `buf`, and every other piece copied into
/// its destination's bucket (`nprocs` of them), both in ascending file
/// order, so each aggregator receives each source's contribution sorted.
pub(crate) fn route_segments<'a>(
    me: usize,
    nprocs: usize,
    segments: &[ViewSegment],
    buf: &'a [u8],
    base: u64,
    domains: &[FileDomain],
) -> (Vec<PieceRef<'a>>, Vec<Vec<Piece>>) {
    let mut own = Vec::new();
    let mut out: Vec<Vec<Piece>> = vec![Vec::new(); nprocs];
    for (rank, part, logical) in split(segments, domains) {
        let at = (logical - base) as usize;
        let data = &buf[at..at + part.len() as usize];
        if rank == me {
            own.push((part.start, data));
        } else {
            out[rank].push((part.start, data.to_vec()));
        }
    }
    (own, out)
}

/// What an aggregator writes, ready to leave as it is: the pieces —
/// routed to itself, by reference, or received, by value — in ascending
/// file order. Nothing is staged or copied — a sparse request over a huge
/// file costs nothing but its covered bytes.
#[derive(Debug)]
pub(crate) struct Gathered<T> {
    /// `(absolute file offset, bytes)` per piece, ascending, no two
    /// overlapping — the batch `PosixFile::submit_writes` takes.
    pub writes: Vec<(u64, T)>,
    /// Maximal file-contiguous runs the pieces form (the "large writes"),
    /// ascending. They outlive the pieces, so runs can be counted over
    /// several batches.
    pub runs: Vec<ByteRange>,
    /// Total payload.
    pub bytes: u64,
}

/// Gather the pieces an aggregator writes: sort them by file offset —
/// moving references or `Vec`s, never bytes — and group file-adjacent
/// pieces into runs. Every sender surrendered what a higher rank overwrites
/// before routing, so no two pieces may overlap; the order they arrive in
/// is therefore irrelevant, and that is checked here.
pub(crate) fn gather<T: AsRef<[u8]>>(pieces: impl Iterator<Item = (u64, T)>) -> Gathered<T> {
    let mut writes: Vec<(u64, T)> = pieces.filter(|(_, d)| !d.as_ref().is_empty()).collect();
    writes.sort_unstable_by_key(|w| w.0);
    let (mut runs, mut bytes) = (Vec::<ByteRange>::new(), 0u64);
    for (off, data) in &writes {
        let piece = ByteRange::at(*off, data.as_ref().len() as u64);
        match runs.last_mut() {
            Some(run) if run.end == piece.start => run.end = piece.end,
            last => {
                assert!(
                    last.is_none_or(|run| run.end <= piece.start),
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

    /// The read side's shape of the walk: `(owner, file offset, length)`
    /// requests.
    fn requests(segments: &[ViewSegment], domains: &[FileDomain]) -> Vec<(usize, u64, u64)> {
        split(segments, domains)
            .map(|(rank, part, _)| (rank, part.start, part.len()))
            .collect()
    }

    #[test]
    fn segments_split_at_domain_boundaries() {
        let domains = [dom(0, 0, 100), dom(3, 100, 200)];
        let buf: Vec<u8> = (0..40u8).collect();
        // One segment straddling the boundary: file [80, 120), logical 0..40,
        // routed by rank 1, which owns neither half.
        let segs = [seg(80, 0, 40)];
        let (own, out) = route_segments(1, 4, &segs, &buf, 0, &domains);
        assert!(own.is_empty());
        assert_eq!(out[0], vec![(80u64, (0..20u8).collect::<Vec<_>>())]);
        assert_eq!(out[3], vec![(100u64, (20..40u8).collect::<Vec<_>>())]);
        assert!(out[1].is_empty() && out[2].is_empty());
        // Routed by rank 3, its own half stays the very bytes of `buf`, by
        // address; only the half bound for rank 0 is a copy.
        let (own, out) = route_segments(3, 4, &segs, &buf, 0, &domains);
        assert!(own.len() == 1 && own[0].0 == 100 && std::ptr::eq(own[0].1, &buf[20..40]));
        assert!(out[3].is_empty() && out[0].len() == 1);
        assert!(!buf.as_ptr_range().contains(&out[0][0].1.as_ptr()));
        // A read request splits at the same boundary.
        assert_eq!(requests(&segs, &domains), vec![(0, 80, 20), (3, 100, 20)]);
    }

    #[test]
    fn base_offset_shifts_buffer_indexing() {
        let domains = [dom(1, 0, 1000)];
        let buf = vec![9u8; 10];
        // Logical stream offset 50 maps to buf[0] when base = 50.
        let (_, out) = route_segments(0, 2, &[seg(500, 50, 10)], &buf, 50, &domains);
        assert_eq!(out[1], vec![(500u64, vec![9u8; 10])]);
    }

    #[test]
    fn multiple_segments_stay_sorted_per_destination() {
        let domains = [dom(0, 0, 1000)];
        let buf: Vec<u8> = (0..30u8).collect();
        let segs = [seg(10, 0, 10), seg(200, 10, 10), seg(900, 20, 10)];
        let (_, out) = route_segments(1, 2, &segs, &buf, 0, &domains);
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
        let segs = [seg(50, 0, 1 << 30)];
        let (_, out) = route_segments(1, 2, &segs, &buf[..], 0, &domains);
        assert_eq!(out[0], vec![(50u64, vec![1u8; 50])]);
        assert_eq!(requests(&segs, &domains), vec![(0, 50, 50)]);

        // Segment starting before the first domain hops forward into it.
        let domains = [dom(0, 1000, 1100)];
        let big = vec![2u8; 1064];
        let segs = [seg(0, 0, 1064)];
        let (_, out) = route_segments(1, 2, &segs, &big, 0, &domains);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].0, 1000);
        assert_eq!(out[0][0].1.len(), 64);
        assert_eq!(requests(&segs, &domains), vec![(0, 1000, 64)]);

        // A gap between two domains is hopped too.
        let domains = [dom(0, 0, 100), dom(1, 1 << 40, (1 << 40) + 100)];
        let segs = [seg(50, 0, 1 << 40)];
        assert_eq!(
            requests(&segs, &domains),
            vec![(0, 50, 50), (1, 1 << 40, 50)]
        );
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
        let g = gather(incoming.iter().flatten().map(lend));
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
        let mut shuffled: Vec<PieceRef> = incoming.iter().flatten().map(lend).collect();
        shuffled.reverse();
        shuffled.swap(0, 2);
        let again = gather(shuffled.into_iter());
        assert_eq!(again.writes, g.writes);
        assert_eq!((&again.runs, again.bytes), (&g.runs, g.bytes));
    }

    #[test]
    fn gathering_nothing_is_an_empty_batch() {
        let incoming: Vec<Vec<Piece>> = vec![vec![], vec![(7, vec![])]];
        let g = gather(incoming.iter().flatten().map(lend));
        assert!(g.writes.is_empty());
        assert_eq!((g.runs.len(), g.bytes), (0, 0));
    }

    #[test]
    #[should_panic(expected = "skipped the surrender rule")]
    fn an_overlapping_piece_trips_the_surrender_assertion() {
        // [0,10) and [9,12) share byte 9: some sender kept a byte a higher
        // rank also shipped.
        let incoming: Vec<Vec<Piece>> = vec![vec![(0, vec![1; 10])], vec![(9, vec![2; 3])]];
        gather(incoming.iter().flatten().map(lend));
    }

    #[test]
    fn empty_segments_produce_empty_buckets() {
        let domains = [dom(0, 0, 100)];
        let (own, out) = route_segments(0, 3, &[], &[], 0, &domains);
        assert!(own.is_empty() && out.iter().all(Vec::is_empty));
        assert_eq!(out.len(), 3);
    }
}
