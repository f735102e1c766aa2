use atomio_interval::IntervalSet;

use crate::layout::{positive, Partition, WorkloadError};

/// Row-wise partitioning of an M×N byte array over P processes with R
/// overlapped rows between neighbours (paper Figure 3a).
///
/// Because the array is stored row-major, every rank's view is one
/// *contiguous* file extent — which is why the paper notes that on a POSIX
/// file system the row-wise case gets MPI atomicity "for free" from a
/// single `write()` per process (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowWise {
    pub m: u64,
    pub n: u64,
    pub p: usize,
    /// Overlapped rows between consecutive ranks (even).
    pub r: u64,
}

impl RowWise {
    pub fn new(m: u64, n: u64, p: usize, r: u64) -> Result<Self, WorkloadError> {
        if p == 0 {
            return Err(WorkloadError::NoProcesses);
        }
        positive([("rows", m), ("columns", n)])?;
        if !m.is_multiple_of(p as u64) {
            return Err(WorkloadError::Indivisible {
                what: "rows",
                size: m,
                by: p as u64,
            });
        }
        if !r.is_multiple_of(2) {
            return Err(WorkloadError::OddOverlap(r));
        }
        if p > 1 && r > m / p as u64 {
            return Err(WorkloadError::OverlapTooLarge {
                overlap: r,
                block: m / p as u64,
            });
        }
        Ok(RowWise { m, n, p, r })
    }

    pub fn file_bytes(&self) -> u64 {
        self.m * self.n
    }

    /// Rows in `rank`'s view (`M/P + R` interior, `M/P + R/2` at the edges).
    pub(crate) fn height(&self, rank: usize) -> u64 {
        let base = self.m / self.p as u64;
        if self.p == 1 {
            base
        } else if rank == 0 || rank == self.p - 1 {
            base + self.r / 2
        } else {
            base + self.r
        }
    }

    /// First row of `rank`'s view.
    pub(crate) fn start_row(&self, rank: usize) -> u64 {
        if rank == 0 {
            0
        } else {
            rank as u64 * (self.m / self.p as u64) - self.r / 2
        }
    }

    pub fn partition(&self, rank: usize) -> Partition {
        assert!(rank < self.p);
        Partition::subarray(
            rank,
            vec![self.m, self.n],
            vec![self.height(rank), self.n],
            vec![self.start_row(rank), 0],
        )
        .expect("validated geometry")
    }

    pub fn all_views(&self) -> Vec<IntervalSet> {
        (0..self.p).map(|k| self.partition(k).footprint()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_contiguous() {
        // The key §3.2 property: row blocks of a row-major array are single
        // contiguous extents, so one write() per process suffices.
        let w = RowWise::new(64, 32, 8, 4).unwrap();
        for k in 0..8 {
            let part = w.partition(k);
            assert!(
                part.filetype.is_contiguous(),
                "rank {k} typemap must be one run"
            );
            assert_eq!(part.footprint().run_count(), 1);
            let segs = part.view.segments(0, part.data_bytes());
            assert_eq!(
                segs.len(),
                1,
                "rank {k}: a single write() call covers the view"
            );
        }
    }

    #[test]
    fn neighbours_overlap_r_rows() {
        let w = RowWise::new(64, 32, 8, 4).unwrap();
        let views = w.all_views();
        for k in 0..7 {
            let shared = views[k].intersect(&views[k + 1]);
            assert_eq!(shared.total_len(), w.r * w.n);
        }
        assert!(!views[0].overlaps(&views[2]));
    }

    #[test]
    fn heights_sum_with_ghosts() {
        let w = RowWise::new(64, 32, 8, 4).unwrap();
        let total: u64 = (0..8).map(|k| w.height(k)).sum();
        assert_eq!(total, w.m + (w.p as u64 - 1) * w.r);
    }

    #[test]
    fn union_covers_file() {
        let w = RowWise::new(16, 8, 4, 2).unwrap();
        let union = w
            .all_views()
            .into_iter()
            .fold(IntervalSet::new(), |acc, v| acc.union(&v));
        assert_eq!(union.total_len(), w.file_bytes());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(RowWise::new(30, 8, 4, 2).is_err());
        assert!(RowWise::new(32, 8, 4, 1).is_err());
        assert!(RowWise::new(32, 8, 4, 10).is_err());
    }
}
