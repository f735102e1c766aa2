use std::sync::Arc;

use atomio_dtype::{Datatype, FileView};
use atomio_interval::StridedSet;

use crate::layout::WorkloadError;

/// Independent noncontiguous writers with configurable overlap — the
/// workload class the collective strategies cannot touch, because the
/// ranks never meet in a collective call to exchange views (paper §5).
///
/// Each of `p` ranks issues `runs` runs of `run_len` bytes, one per
/// `stride`-byte period; rank `r`'s runs start `r·(run_len - overlap)`
/// into the period, so consecutive ranks share exactly `overlap` bytes of
/// every run (`overlap = 0` gives disjoint interleaved writers). This is
/// the access shape data sieving is built for: many small runs per rank,
/// periodic, with the §2 atomicity hazard concentrated in the per-run
/// overlap between neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndependentStrided {
    /// Ranks.
    pub p: usize,
    /// Runs per rank.
    pub runs: u64,
    /// Bytes per run.
    pub run_len: u64,
    /// Bytes per period (every rank writes one run per period).
    pub stride: u64,
    /// Bytes each run shares with the next rank's run (< `run_len`).
    pub overlap: u64,
}

impl IndependentStrided {
    pub fn new(
        p: usize,
        runs: u64,
        run_len: u64,
        stride: u64,
        overlap: u64,
    ) -> Result<Self, WorkloadError> {
        if p == 0 {
            return Err(WorkloadError::NoProcesses);
        }
        if runs == 0 || run_len == 0 {
            return Err(WorkloadError::Indivisible {
                what: "runs/run_len",
                size: 0,
                by: 1,
            });
        }
        if overlap >= run_len {
            return Err(WorkloadError::OverlapTooLarge {
                overlap,
                block: run_len,
            });
        }
        // All ranks' runs of one period must fit the period.
        let span = (p as u64 - 1) * (run_len - overlap) + run_len;
        if span > stride {
            return Err(WorkloadError::OverlapTooLarge {
                overlap: span,
                block: stride,
            });
        }
        Ok(IndependentStrided {
            p,
            runs,
            run_len,
            stride,
            overlap,
        })
    }

    /// Stride-aligned, zero-overlap interleaved writers: rank `r` owns the
    /// `r`-th `run_len`-byte slot of every `p·run_len`-byte period, so all
    /// footprints interleave tightly — every rank's bounding span covers
    /// virtually the whole file — while sharing **no** byte. The best case
    /// for exact-footprint list locking (full parallelism is admissible)
    /// and the worst case for bounding-span locks (every pair of spans
    /// overlaps); the `locking` bench and the list-locking tests are built
    /// on it.
    pub fn disjoint_interleaved(p: usize, runs: u64, run_len: u64) -> Result<Self, WorkloadError> {
        Self::new(p, runs, run_len, p as u64 * run_len, 0)
    }

    /// Data bytes each rank writes.
    pub fn data_bytes(&self) -> u64 {
        self.runs * self.run_len
    }

    /// Total file bytes spanned by the pattern.
    pub fn file_bytes(&self) -> u64 {
        (self.runs - 1) * self.stride + self.disp(self.p - 1) + self.run_len
    }

    /// File offset of `rank`'s first run.
    pub fn disp(&self, rank: usize) -> u64 {
        rank as u64 * (self.run_len - self.overlap)
    }

    /// `rank`'s filetype: `runs` blocks of `run_len` bytes, `stride` apart.
    pub fn filetype(&self) -> Arc<Datatype> {
        Datatype::vector(
            self.runs,
            self.run_len,
            self.stride as i64,
            Datatype::byte(),
        )
        .expect("validated geometry")
    }

    /// `rank`'s file view (the vector filetype at the rank's displacement).
    pub fn view(&self, rank: usize) -> FileView {
        assert!(rank < self.p);
        FileView::new(self.disp(rank), self.filetype()).expect("validated geometry")
    }

    /// The set of file bytes `rank` writes.
    pub fn footprint(&self, rank: usize) -> StridedSet {
        self.view(rank).strided_footprint(self.data_bytes())
    }

    /// Every rank's footprint, in rank order.
    pub fn all_views(&self) -> Vec<StridedSet> {
        (0..self.p).map(|r| self.footprint(r)).collect()
    }

    /// Build `rank`'s write buffer so the byte destined for file offset
    /// `o` equals `pattern(o)` (what the atomicity verifier expects).
    pub fn fill<P: Fn(u64) -> u8>(&self, rank: usize, pattern: P) -> Vec<u8> {
        let view = self.view(rank);
        let len = self.data_bytes();
        let mut buf = vec![0u8; len as usize];
        for seg in view.segments(0, len) {
            for i in 0..seg.len {
                buf[(seg.logical_off + i) as usize] = pattern(seg.file_off + i);
            }
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_overlap() {
        let w = IndependentStrided::new(3, 4, 10, 64, 4).unwrap();
        assert_eq!(w.data_bytes(), 40);
        assert_eq!(w.disp(0), 0);
        assert_eq!(w.disp(1), 6);
        assert_eq!(w.disp(2), 12);
        let views = w.all_views();
        // Neighbours share `overlap` bytes per run.
        assert_eq!(
            views[0].intersect(&views[1]).total_len(),
            w.runs * w.overlap
        );
        assert_eq!(
            views[1].intersect(&views[2]).total_len(),
            w.runs * w.overlap
        );
        // Non-neighbours don't overlap here (2·(run_len-overlap) ≥ run_len).
        assert!(!views[0].overlaps(&views[2]));
        // Each footprint is `runs` noncontiguous runs.
        assert_eq!(views[0].run_count(), 4);
    }

    #[test]
    fn zero_overlap_is_disjoint() {
        let w = IndependentStrided::new(4, 8, 16, 128, 0).unwrap();
        let views = w.all_views();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!views[i].overlaps(&views[j]), "ranks {i},{j}");
            }
        }
    }

    #[test]
    fn fill_places_pattern_by_file_offset() {
        let w = IndependentStrided::new(2, 3, 4, 32, 2).unwrap();
        let buf = w.fill(1, |o| (o % 251) as u8);
        // Rank 1's first run is at file offset 2.
        assert_eq!(buf[0], 2);
        assert_eq!(buf[3], 5);
        // Second run at 32 + 2.
        assert_eq!(buf[4], 34);
    }

    #[test]
    fn disjoint_interleaved_is_tight_and_disjoint() {
        let w = IndependentStrided::disjoint_interleaved(4, 8, 16).unwrap();
        assert_eq!(w.stride, 64);
        assert_eq!(w.overlap, 0);
        let views = w.all_views();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!views[i].overlaps(&views[j]), "ranks {i},{j}");
            }
        }
        // Slots pack the period exactly: the union is one contiguous block.
        let union = views.iter().fold(StridedSet::new(), |acc, v| acc.union(v));
        assert_eq!(union.run_count(), 1);
        assert_eq!(union.total_len(), 4 * 8 * 16);
        // Every rank's bounding span covers (virtually) the whole file —
        // the interleaving that makes span locks all-conflicting.
        for (r, v) in views.iter().enumerate() {
            assert!(
                v.span().unwrap().len() as f64 > 0.75 * w.file_bytes() as f64,
                "rank {r} span too narrow"
            );
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(IndependentStrided::new(0, 1, 1, 8, 0).is_err());
        assert!(IndependentStrided::new(2, 0, 1, 8, 0).is_err());
        assert!(
            IndependentStrided::new(2, 1, 4, 8, 4).is_err(),
            "overlap == run_len"
        );
        // Period too small for all ranks' runs.
        assert!(IndependentStrided::new(4, 1, 4, 8, 0).is_err());
    }
}
