//! Ground-truth atomicity checking.
//!
//! MPI atomic mode is *serializability*: the file's final contents must be
//! explainable by **some** total order of the concurrent write requests,
//! with every byte holding the value written by the last request covering
//! it in that order ("the results of the overlapped regions shall contain
//! data from only one of the MPI processes", paper §2.2).
//!
//! The checker decomposes the file into elementary regions (between the
//! boundary offsets of all ranks' view footprints), identifies which rank's
//! data each region holds, and then decides whether a consistent global
//! write order exists. Three verdicts come out, matching the paper's
//! Figure 2 taxonomy:
//!
//! * [`Outcome::MpiAtomic`] — a serialization exists;
//! * [`Outcome::PosixAtomicOnly`] — every region holds a single writer's
//!   data (each `write()` call was atomic) but no global order explains
//!   the mix, e.g. interleaved columns;
//! * [`Outcome::Interleaved`] — some region holds bytes from more than one
//!   writer: even per-call POSIX atomicity was violated.

use atomio_interval::{ByteRange, IntervalSet};
use atomio_pfs::Snapshot;

/// A file image the checker reads region by region, in place.
pub trait FileImage {
    /// Length in bytes.
    fn byte_len(&self) -> u64;

    /// Whether `f` holds for every chunk of `[start, end)` (`end <= byte_len`):
    /// the chunks tile the range in order, and the walk stops at the first
    /// `false`.
    fn all_chunks(&self, start: u64, end: u64, f: impl FnMut(&[u8]) -> bool) -> bool;
}

impl FileImage for [u8] {
    fn byte_len(&self) -> u64 {
        self.len() as u64
    }

    fn all_chunks(&self, start: u64, end: u64, mut f: impl FnMut(&[u8]) -> bool) -> bool {
        f(&self[start as usize..end as usize])
    }
}

impl FileImage for Vec<u8> {
    fn byte_len(&self) -> u64 {
        self.len() as u64
    }

    fn all_chunks(&self, start: u64, end: u64, f: impl FnMut(&[u8]) -> bool) -> bool {
        self.as_slice().all_chunks(start, end, f)
    }
}

impl FileImage for Snapshot {
    fn byte_len(&self) -> u64 {
        self.len()
    }

    fn all_chunks(&self, start: u64, end: u64, f: impl FnMut(&[u8]) -> bool) -> bool {
        self.chunks(start, end).all(f)
    }
}

/// Bytes of pattern compared per `memcmp`.
const COMPARE: usize = 4096;

/// Whether every byte of `region` in `file` is `pattern`'s: each in-place
/// chunk is compared against the pattern filled into `buf`, one buffer at a
/// time.
fn written_by<I, P>(file: &I, region: ByteRange, pattern: &P, buf: &mut [u8; COMPARE]) -> bool
where
    I: FileImage + ?Sized,
    P: Fn(u64) -> u8,
{
    let mut at = region.start;
    file.all_chunks(region.start, region.end, |chunk| {
        chunk.chunks(COMPARE).all(|piece| {
            let want = &mut buf[..piece.len()];
            for (i, b) in want.iter_mut().enumerate() {
                *b = pattern(at + i as u64);
            }
            at += piece.len() as u64;
            *want == *piece
        })
    })
}

/// Verdict of the atomicity checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Consistent with some serialization of the write requests.
    MpiAtomic,
    /// Per-region single-source, but no consistent global order.
    PosixAtomicOnly,
    /// At least one region mixes bytes from several writers.
    Interleaved,
}

/// Full checker report.
#[derive(Debug, Clone)]
pub struct AtomicityReport {
    /// Elementary regions examined (covered by at least one rank).
    pub total_regions: usize,
    /// Regions covered by two or more ranks.
    pub overlapped_regions: usize,
    /// Exclusive regions whose bytes do not match their only writer.
    pub exclusive_mismatches: Vec<ByteRange>,
    /// Overlapped regions whose bytes match no single writer.
    pub interleaved_regions: Vec<ByteRange>,
    /// A topological order of ranks consistent with every overlapped
    /// region's winner, when one exists.
    pub serialization: Option<Vec<usize>>,
    /// Pairs `(loser, winner)` that participate in an ordering conflict
    /// when no serialization exists.
    pub conflicting_edges: Vec<(usize, usize)>,
    /// Bytes covered by footprints beyond the snapshot length.
    pub beyond_eof: u64,
}

impl AtomicityReport {
    /// True iff the result satisfies MPI atomic-mode semantics.
    pub fn is_atomic(&self) -> bool {
        self.outcome() == Outcome::MpiAtomic && self.exclusive_mismatches.is_empty()
    }

    pub fn outcome(&self) -> Outcome {
        if !self.interleaved_regions.is_empty() {
            Outcome::Interleaved
        } else if self.serialization.is_none() {
            Outcome::PosixAtomicOnly
        } else {
            Outcome::MpiAtomic
        }
    }
}

/// Check a file snapshot against every rank's footprint and its expected
/// byte pattern (`patterns[r](file_offset)` = the byte rank `r` wrote at
/// `file_offset`).
///
/// Patterns must be pairwise distinguishable on overlapped bytes; the
/// usual choice is a per-rank constant stamp
/// (`atomio_workloads::pattern::rank_stamp`).
///
/// The image is any [`FileImage`] — a byte slice, a vector or a
/// [`Snapshot`] — and is read in place, region by region.
pub fn check_mpi_atomicity<I, P>(
    file: &I,
    footprints: &[IntervalSet],
    patterns: &[P],
) -> AtomicityReport
where
    I: FileImage + ?Sized,
    P: Fn(u64) -> u8,
{
    assert_eq!(footprints.len(), patterns.len(), "one pattern per rank");
    let nranks = footprints.len();

    // Elementary region boundaries: all run endpoints of all footprints.
    let mut bounds: Vec<u64> = footprints.iter().flat_map(|s| s.boundaries()).collect();
    bounds.sort_unstable();
    bounds.dedup();

    let mut report = AtomicityReport {
        total_regions: 0,
        overlapped_regions: 0,
        exclusive_mismatches: Vec::new(),
        interleaved_regions: Vec::new(),
        serialization: None,
        conflicting_edges: Vec::new(),
        beyond_eof: 0,
    };

    // order_edges[l * n + w] = true means "l must precede w".
    let mut edges = vec![false; nranks * nranks];

    let len = file.byte_len();
    let mut cover = Vec::with_capacity(nranks);
    let mut buf = [0u8; COMPARE];
    for win in bounds.windows(2) {
        let region = ByteRange::new(win[0], win[1]);
        if region.is_empty() {
            continue;
        }
        cover.clear();
        cover.extend((0..nranks).filter(|&r| footprints[r].contains(region.start)));
        if cover.is_empty() {
            continue;
        }
        report.total_regions += 1;

        if region.end > len {
            report.beyond_eof += region.end - len.max(region.start);
            if region.start >= len {
                report.interleaved_regions.push(region);
                continue;
            }
        }
        let present = ByteRange::new(region.start, region.end.min(len));

        // Which covering rank wrote this whole region?
        let winner = cover
            .iter()
            .copied()
            .find(|&r| written_by(file, present, &patterns[r], &mut buf));

        if cover.len() == 1 {
            if winner.is_none() {
                report.exclusive_mismatches.push(region);
            }
            continue;
        }

        report.overlapped_regions += 1;
        match winner {
            None => report.interleaved_regions.push(region),
            Some(winner) => {
                for &loser in cover.iter().filter(|&&r| r != winner) {
                    edges[loser * nranks + winner] = true;
                }
            }
        }
    }

    // Kahn's algorithm over the precedence graph.
    let mut indeg = vec![0usize; nranks];
    for l in 0..nranks {
        for w in 0..nranks {
            if edges[l * nranks + w] {
                indeg[w] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..nranks).filter(|&r| indeg[r] == 0).collect();
    let mut order = Vec::with_capacity(nranks);
    while let Some(r) = queue.pop() {
        order.push(r);
        for w in 0..nranks {
            if edges[r * nranks + w] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
    }
    if order.len() == nranks {
        report.serialization = Some(order);
    } else {
        let stuck: Vec<usize> = (0..nranks).filter(|&r| indeg[r] > 0).collect();
        for &l in &stuck {
            for &w in &stuck {
                if edges[l * nranks + w] {
                    report.conflicting_edges.push((l, w));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ranks with one overlapping run each; pattern = constant stamp.
    fn two_rank_setup() -> (Vec<IntervalSet>, Vec<impl Fn(u64) -> u8>) {
        let fp = vec![
            IntervalSet::from_range(ByteRange::new(0, 60)),
            IntervalSet::from_range(ByteRange::new(40, 100)),
        ];
        let pats = vec![move |_o: u64| 0xAAu8, move |_o: u64| 0xBBu8];
        (fp, pats)
    }

    fn paint(file: &mut [u8], range: ByteRange, v: u8) {
        file[range.start as usize..range.end as usize].fill(v);
    }

    #[test]
    fn serialized_result_is_atomic() {
        let (fp, pats) = two_rank_setup();
        // As if rank 0 wrote, then rank 1: overlap holds rank 1's data.
        let mut file = vec![0u8; 100];
        paint(&mut file, ByteRange::new(0, 40), 0xAA);
        paint(&mut file, ByteRange::new(40, 100), 0xBB);
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(rep.is_atomic());
        assert_eq!(rep.outcome(), Outcome::MpiAtomic);
        assert_eq!(rep.overlapped_regions, 1);
        let order = rep.serialization.unwrap();
        assert!(order.iter().position(|&r| r == 0) < order.iter().position(|&r| r == 1));
    }

    #[test]
    fn reverse_order_also_atomic() {
        let (fp, pats) = two_rank_setup();
        let mut file = vec![0u8; 100];
        paint(&mut file, ByteRange::new(0, 60), 0xAA); // rank 0 last
        paint(&mut file, ByteRange::new(60, 100), 0xBB);
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(rep.is_atomic());
    }

    #[test]
    fn byte_mixed_overlap_is_interleaved() {
        let (fp, pats) = two_rank_setup();
        let mut file = vec![0u8; 100];
        paint(&mut file, ByteRange::new(0, 60), 0xAA);
        paint(&mut file, ByteRange::new(60, 100), 0xBB);
        // Corrupt half of the overlap region with the other writer's bytes.
        paint(&mut file, ByteRange::new(45, 50), 0xBB);
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert_eq!(rep.outcome(), Outcome::Interleaved);
        assert!(!rep.is_atomic());
        assert!(!rep.interleaved_regions.is_empty());
    }

    #[test]
    fn cyclic_winners_are_posix_only() {
        // Two disjoint overlap areas between the same pair, with opposite
        // winners: per-region single-source, but no serialization.
        let fp = vec![
            IntervalSet::from_extents([(0u64, 20u64), (40, 20)]),
            IntervalSet::from_extents([(10u64, 20u64), (50, 20)]),
        ];
        let pats = vec![move |_o: u64| 1u8, move |_o: u64| 2u8];
        let mut file = vec![0u8; 100];
        // Rank 0's exclusive parts.
        paint(&mut file, ByteRange::new(0, 10), 1);
        paint(&mut file, ByteRange::new(40, 50), 1);
        // Rank 1's exclusive parts.
        paint(&mut file, ByteRange::new(20, 30), 2);
        paint(&mut file, ByteRange::new(60, 70), 2);
        // Overlap 1 [10,20): rank 1 wins; overlap 2 [50,60): rank 0 wins.
        paint(&mut file, ByteRange::new(10, 20), 2);
        paint(&mut file, ByteRange::new(50, 60), 1);
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert_eq!(rep.outcome(), Outcome::PosixAtomicOnly);
        assert!(!rep.conflicting_edges.is_empty());
    }

    #[test]
    fn exclusive_mismatch_detected() {
        let (fp, pats) = two_rank_setup();
        let mut file = vec![0u8; 100];
        paint(&mut file, ByteRange::new(0, 60), 0xAA);
        paint(&mut file, ByteRange::new(60, 100), 0xBB);
        file[5] = 0x99; // corruption in rank 0's exclusive area
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(!rep.is_atomic());
        assert_eq!(rep.exclusive_mismatches.len(), 1);
        assert_eq!(rep.outcome(), Outcome::MpiAtomic, "ordering itself is fine");
    }

    #[test]
    fn three_way_overlap_single_winner() {
        let fp = vec![
            IntervalSet::from_range(ByteRange::new(0, 30)),
            IntervalSet::from_range(ByteRange::new(10, 40)),
            IntervalSet::from_range(ByteRange::new(20, 50)),
        ];
        let pats: Vec<_> = (0..3).map(|r| move |_o: u64| (r + 1) as u8).collect();
        let mut file = vec![0u8; 50];
        // Serialization 0 < 1 < 2: every byte from the highest covering rank.
        paint(&mut file, ByteRange::new(0, 10), 1);
        paint(&mut file, ByteRange::new(10, 20), 2);
        paint(&mut file, ByteRange::new(20, 50), 3);
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(rep.is_atomic());
        assert_eq!(rep.overlapped_regions, 3); // [10,20),[20,30),[30,40)
    }

    #[test]
    fn position_dependent_patterns_work() {
        let fp = vec![
            IntervalSet::from_range(ByteRange::new(0, 16)),
            IntervalSet::from_range(ByteRange::new(8, 24)),
        ];
        let pats = vec![move |o: u64| (o as u8).wrapping_mul(2), move |o: u64| {
            (o as u8).wrapping_mul(2).wrapping_add(1)
        }];
        let mut file = vec![0u8; 24];
        for o in 0..8u64 {
            file[o as usize] = pats[0](o);
        }
        for o in 8..24u64 {
            file[o as usize] = pats[1](o);
        }
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(rep.is_atomic());
    }

    #[test]
    fn snapshot_shorter_than_footprint_counts_beyond_eof() {
        let fp = vec![IntervalSet::from_range(ByteRange::new(0, 100))];
        let pats = vec![move |_o: u64| 7u8];
        let file = vec![7u8; 50];
        let rep = check_mpi_atomicity(&file, &fp, &pats);
        assert!(rep.beyond_eof > 0);
    }
}
