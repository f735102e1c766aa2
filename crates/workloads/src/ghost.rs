use atomio_interval::IntervalSet;

use crate::layout::{positive, Partition, WorkloadError};

/// 2-D block-block decomposition with ghost cells (paper Figure 1).
///
/// The array is split over a `pr × pc` process grid; every process's view
/// is its owned block *expanded* by `g` ghost rows/columns on each side
/// (clipped at the array edges), so a process's view overlaps up to eight
/// neighbours — "the ghost cells of P overlap with its 8 neighbor
/// processes which results some areas are accessed by more than one
/// processes simultaneously".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockBlock {
    pub rows: u64,
    pub cols: u64,
    /// Process grid height.
    pub pr: usize,
    /// Process grid width.
    pub pc: usize,
    /// Ghost-cell width on every side.
    pub g: u64,
}

impl BlockBlock {
    pub fn new(rows: u64, cols: u64, pr: usize, pc: usize, g: u64) -> Result<Self, WorkloadError> {
        if pr == 0 || pc == 0 {
            return Err(WorkloadError::NoProcesses);
        }
        positive([("rows", rows), ("cols", cols)])?;
        if !rows.is_multiple_of(pr as u64) {
            return Err(WorkloadError::Indivisible {
                what: "rows",
                size: rows,
                by: pr as u64,
            });
        }
        if !cols.is_multiple_of(pc as u64) {
            return Err(WorkloadError::Indivisible {
                what: "cols",
                size: cols,
                by: pc as u64,
            });
        }
        let (bh, bw) = (rows / pr as u64, cols / pc as u64);
        if g > bh || g > bw {
            return Err(WorkloadError::OverlapTooLarge {
                overlap: g,
                block: bh.min(bw),
            });
        }
        Ok(BlockBlock {
            rows,
            cols,
            pr,
            pc,
            g,
        })
    }

    pub fn nprocs(&self) -> usize {
        self.pr * self.pc
    }

    pub fn file_bytes(&self) -> u64 {
        self.rows * self.cols
    }

    /// Process-grid coordinates of `rank` (row-major rank placement).
    pub(crate) fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }

    /// This rank's view block as `(row_start, col_start, height, width)`,
    /// ghost-expanded and clipped.
    pub fn block(&self, rank: usize) -> (u64, u64, u64, u64) {
        let (i, j) = self.coords(rank);
        let bh = self.rows / self.pr as u64;
        let bw = self.cols / self.pc as u64;
        let r0 = (i as u64 * bh).saturating_sub(self.g);
        let c0 = (j as u64 * bw).saturating_sub(self.g);
        let r1 = ((i as u64 + 1) * bh + self.g).min(self.rows);
        let c1 = ((j as u64 + 1) * bw + self.g).min(self.cols);
        (r0, c0, r1 - r0, c1 - c0)
    }

    pub fn partition(&self, rank: usize) -> Partition {
        assert!(rank < self.nprocs());
        let (r0, c0, h, w) = self.block(rank);
        Partition::subarray(rank, vec![self.rows, self.cols], vec![h, w], vec![r0, c0])
            .expect("validated geometry")
    }

    pub fn all_views(&self) -> Vec<IntervalSet> {
        (0..self.nprocs())
            .map(|k| self.partition(k).footprint())
            .collect()
    }

    /// Ranks whose views overlap `rank`'s view.
    pub fn overlapping_neighbours(&self, rank: usize) -> Vec<usize> {
        let views = self.all_views();
        (0..self.nprocs())
            .filter(|&k| k != rank && views[k].overlaps(&views[rank]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_process_overlaps_eight_neighbours() {
        // 3x3 grid, center = rank 4: exactly the Figure 1 situation.
        let b = BlockBlock::new(12, 12, 3, 3, 1).unwrap();
        let nb = b.overlapping_neighbours(4);
        assert_eq!(nb, vec![0, 1, 2, 3, 5, 6, 7, 8]);
    }

    #[test]
    fn corner_process_overlaps_three() {
        let b = BlockBlock::new(12, 12, 3, 3, 1).unwrap();
        assert_eq!(b.overlapping_neighbours(0), vec![1, 3, 4]);
        assert_eq!(b.overlapping_neighbours(8), vec![4, 5, 7]);
    }

    #[test]
    fn ghost_blocks_clip_at_edges() {
        let b = BlockBlock::new(12, 12, 3, 3, 2).unwrap();
        assert_eq!(b.block(0), (0, 0, 6, 6)); // corner: +g right/bottom only
        assert_eq!(b.block(4), (2, 2, 8, 8)); // center: +g all sides
        assert_eq!(b.block(8), (6, 6, 6, 6));
    }

    #[test]
    fn zero_ghost_means_disjoint() {
        let b = BlockBlock::new(8, 8, 2, 2, 0).unwrap();
        for k in 0..4 {
            assert!(b.overlapping_neighbours(k).is_empty());
        }
        let union = b
            .all_views()
            .into_iter()
            .fold(IntervalSet::new(), |acc, v| acc.union(&v));
        assert_eq!(union.total_len(), b.file_bytes());
    }

    #[test]
    fn views_cover_file_with_ghosts() {
        let b = BlockBlock::new(16, 16, 2, 2, 2).unwrap();
        let union = b
            .all_views()
            .into_iter()
            .fold(IntervalSet::new(), |acc, v| acc.union(&v));
        assert_eq!(union.total_len(), b.file_bytes());
    }

    #[test]
    fn rejects_bad_grids() {
        assert!(BlockBlock::new(10, 12, 3, 3, 1).is_err());
        assert!(BlockBlock::new(12, 10, 3, 3, 1).is_err());
        assert!(BlockBlock::new(12, 12, 0, 3, 1).is_err());
        assert!(BlockBlock::new(12, 12, 3, 3, 5).is_err());
    }

    #[test]
    fn coords_roundtrip() {
        let b = BlockBlock::new(12, 12, 3, 4, 0).unwrap();
        assert_eq!(b.coords(0), (0, 0));
        assert_eq!(b.coords(5), (1, 1));
        assert_eq!(b.coords(11), (2, 3));
        assert_eq!(b.nprocs(), 12);
    }
}
