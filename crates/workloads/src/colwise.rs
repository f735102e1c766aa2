use atomio_interval::StridedSet;

use crate::layout::{positive, Partition, WorkloadError};

/// Column-wise partitioning of an M×N byte array over P processes with R
/// overlapped columns between neighbours (paper Figure 3b) — the workload
/// of every Figure 8 measurement.
///
/// Interior ranks see `N/P + R` columns starting `R/2` left of their block;
/// the first and last ranks see `N/P + R/2` (paper §3.1). Each view is M
/// non-contiguous row segments, so this is exactly the pattern where POSIX
/// per-call atomicity fails to give MPI atomicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColWise {
    /// Rows (most significant axis), M.
    pub m: u64,
    /// Columns, N.
    pub n: u64,
    /// Processes, P.
    pub p: usize,
    /// Overlapped columns between consecutive ranks, R (even).
    pub r: u64,
}

impl ColWise {
    pub fn new(m: u64, n: u64, p: usize, r: u64) -> Result<Self, WorkloadError> {
        if p == 0 {
            return Err(WorkloadError::NoProcesses);
        }
        positive([("rows", m), ("columns", n)])?;
        if !n.is_multiple_of(p as u64) {
            return Err(WorkloadError::Indivisible {
                what: "columns",
                size: n,
                by: p as u64,
            });
        }
        if !r.is_multiple_of(2) {
            return Err(WorkloadError::OddOverlap(r));
        }
        if p > 1 && r > n / p as u64 {
            return Err(WorkloadError::OverlapTooLarge {
                overlap: r,
                block: n / p as u64,
            });
        }
        Ok(ColWise { m, n, p, r })
    }

    /// Total file size in bytes (M·N).
    pub fn file_bytes(&self) -> u64 {
        self.m * self.n
    }

    /// Width in columns of `rank`'s view.
    pub fn width(&self, rank: usize) -> u64 {
        let base = self.n / self.p as u64;
        if self.p == 1 {
            base
        } else if rank == 0 || rank == self.p - 1 {
            base + self.r / 2
        } else {
            base + self.r
        }
    }

    /// First column of `rank`'s view.
    pub fn start_col(&self, rank: usize) -> u64 {
        if rank == 0 {
            0
        } else {
            rank as u64 * (self.n / self.p as u64) - self.r / 2
        }
    }

    /// Build `rank`'s partition (subarray filetype + view), mirroring the
    /// `MPI_Type_create_subarray` call of the paper's Figure 4.
    pub fn partition(&self, rank: usize) -> Partition {
        assert!(rank < self.p);
        Partition::subarray(
            rank,
            vec![self.m, self.n],
            vec![self.m, self.width(rank)],
            vec![0, self.start_col(rank)],
        )
        .expect("validated geometry")
    }

    /// Every rank's view footprint, in rank order.
    pub fn all_views(&self) -> Vec<StridedSet> {
        (0..self.p).map(|k| self.partition(k).footprint()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_starts_match_paper() {
        let c = ColWise::new(8, 64, 8, 4).unwrap();
        assert_eq!(c.width(0), 10); // N/P + R/2
        assert_eq!(c.width(3), 12); // N/P + R
        assert_eq!(c.width(7), 10);
        assert_eq!(c.start_col(0), 0);
        assert_eq!(c.start_col(1), 6); // 1*8 - 2
        assert_eq!(c.start_col(7), 54);
        // Locking and coloring write every ghost column twice.
        let widths: u64 = (0..8).map(|k| c.width(k)).sum();
        assert_eq!(widths, c.n + (c.p as u64 - 1) * c.r);
    }

    #[test]
    fn neighbours_overlap_exactly_r() {
        let c = ColWise::new(4, 48, 4, 6).unwrap();
        let views = c.all_views();
        for k in 0..3 {
            let shared = views[k].intersect(&views[k + 1]);
            assert_eq!(shared.total_len(), c.m * c.r, "ranks {k} and {}", k + 1);
        }
        // Non-neighbours don't overlap.
        assert!(!views[0].overlaps(&views[2]));
        assert!(!views[0].overlaps(&views[3]));
        assert!(!views[1].overlaps(&views[3]));
    }

    #[test]
    fn union_of_views_is_whole_file() {
        let c = ColWise::new(4, 32, 4, 4).unwrap();
        let union = c
            .all_views()
            .into_iter()
            .fold(StridedSet::new(), |acc, v| acc.union(&v));
        assert_eq!(union.total_len(), c.file_bytes());
        assert_eq!(union.run_count(), 1);
    }

    #[test]
    fn views_are_noncontiguous_m_segments() {
        let c = ColWise::new(16, 64, 4, 4).unwrap();
        let part = c.partition(1);
        assert_eq!(part.footprint().run_count(), 16, "one run per row");
        assert!(!part.view.is_contiguous());
        assert_eq!(part.data_bytes(), 16 * c.width(1));
        // M write calls per process, each one row of the view (§3.2).
        let segs = part.view.segments(0, part.data_bytes());
        assert_eq!(segs.len() as u64, c.m);
        assert!(segs.iter().all(|s| s.len == c.width(1)));
    }

    #[test]
    fn single_process_owns_everything() {
        let c = ColWise::new(4, 16, 1, 0).unwrap();
        let part = c.partition(0);
        assert_eq!(part.data_bytes(), 64);
        assert!(part.view.is_contiguous());
    }

    #[test]
    fn zero_overlap_partitions_disjoint() {
        let c = ColWise::new(4, 32, 4, 0).unwrap();
        let views = c.all_views();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!views[i].overlaps(&views[j]));
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            ColWise::new(4, 30, 4, 2),
            Err(WorkloadError::Indivisible { .. })
        ));
        assert!(matches!(
            ColWise::new(4, 32, 4, 3),
            Err(WorkloadError::OddOverlap(3))
        ));
        assert!(matches!(
            ColWise::new(4, 32, 4, 10),
            Err(WorkloadError::OverlapTooLarge { .. })
        ));
        assert!(matches!(
            ColWise::new(4, 32, 0, 2),
            Err(WorkloadError::NoProcesses)
        ));
    }

    #[test]
    fn paper_experiment_dimensions() {
        // The three Figure 8 array sizes must validate for P = 4, 8, 16.
        for n in [8192u64, 32768, 262144] {
            for p in [4usize, 8, 16] {
                let c = ColWise::new(4096, n, p, 16).unwrap();
                assert_eq!(c.file_bytes(), 4096 * n);
            }
        }
        // A span lock covers (M−1)·N + width bytes: "virtually the entire
        // file" (§3.2).
        let c = ColWise::new(4096, 32768, 8, 16).unwrap();
        let span = c.partition(3).footprint().span().unwrap();
        assert_eq!(span.len(), (c.m - 1) * c.n + c.width(3));
        assert!(span.len() as f64 > 0.999 * c.file_bytes() as f64);
        // 32 MB / 128 MB / 1 GB as the paper states.
        assert_eq!(4096u64 * 8192, 32 << 20);
        assert_eq!(4096u64 * 32768, 128 << 20);
        assert_eq!(4096u64 * 262144, 1 << 30);
    }
}
