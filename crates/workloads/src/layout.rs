use std::sync::Arc;

use atomio_dtype::{ArrayOrder, Datatype, DatatypeError, FileView, ViewError};
use atomio_interval::StridedSet;

/// Errors from workload construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// Dimension does not divide evenly among processes.
    Indivisible {
        what: &'static str,
        size: u64,
        by: u64,
    },
    /// Overlap/ghost width too large for the block size.
    OverlapTooLarge { overlap: u64, block: u64 },
    /// Overlap must be even (R/2 columns on each side, paper §3.1).
    OddOverlap(u64),
    /// A parameter is outside its documented domain.
    Invalid {
        what: &'static str,
        got: u64,
        constraint: &'static str,
    },
    /// No processes.
    NoProcesses,
    /// Underlying datatype/view construction failed.
    Datatype(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Indivisible { what, size, by } => {
                write!(f, "{what} {size} not divisible by {by}")
            }
            WorkloadError::OverlapTooLarge { overlap, block } => {
                write!(f, "overlap {overlap} exceeds block size {block}")
            }
            WorkloadError::OddOverlap(r) => write!(f, "overlap {r} must be even"),
            WorkloadError::Invalid {
                what,
                got,
                constraint,
            } => write!(f, "{what} = {got}: {constraint}"),
            WorkloadError::NoProcesses => write!(f, "need at least one process"),
            WorkloadError::Datatype(e) => write!(f, "datatype: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<DatatypeError> for WorkloadError {
    fn from(e: DatatypeError) -> Self {
        WorkloadError::Datatype(e.to_string())
    }
}

impl From<ViewError> for WorkloadError {
    fn from(e: ViewError) -> Self {
        WorkloadError::Datatype(e.to_string())
    }
}

/// `Err(Invalid)` naming the first zero dimension: an empty array has no
/// partition to build.
pub(crate) fn positive(dims: [(&'static str, u64); 2]) -> Result<(), WorkloadError> {
    match dims.into_iter().find(|&(_, got)| got == 0) {
        Some((what, got)) => Err(WorkloadError::Invalid {
            what,
            got,
            constraint: "must be positive",
        }),
        None => Ok(()),
    }
}

/// One rank's share of a distributed array: the subarray filetype, its file
/// view, and enough geometry to build and verify data buffers.
#[derive(Debug, Clone)]
pub struct Partition {
    pub rank: usize,
    /// Full-array dimensions in elements (bytes).
    pub sizes: Vec<u64>,
    /// This rank's sub-block dimensions.
    pub subsizes: Vec<u64>,
    /// This rank's sub-block start corner.
    pub starts: Vec<u64>,
    /// The subarray filetype (extent = whole array).
    pub filetype: Arc<Datatype>,
    /// File view with displacement 0.
    pub view: FileView,
}

impl Partition {
    /// Build a C-order subarray partition of a byte array.
    pub fn subarray(
        rank: usize,
        sizes: Vec<u64>,
        subsizes: Vec<u64>,
        starts: Vec<u64>,
    ) -> Result<Self, WorkloadError> {
        let filetype =
            Datatype::subarray(&sizes, &subsizes, &starts, ArrayOrder::C, Datatype::byte())?;
        let view = FileView::new(0, filetype.clone())?;
        Ok(Partition {
            rank,
            sizes,
            subsizes,
            starts,
            filetype,
            view,
        })
    }

    /// Number of data bytes this rank writes (one filetype tile).
    pub fn data_bytes(&self) -> u64 {
        self.view.tile_size()
    }

    /// The set of file bytes this rank's view covers.
    pub fn footprint(&self) -> StridedSet {
        self.view.strided_footprint(self.data_bytes())
    }

    /// Build this rank's write buffer such that the byte destined for file
    /// offset `o` equals `pattern(o)` — the property the atomicity
    /// verifier relies on.
    pub fn fill<P: Fn(u64) -> u8>(&self, pattern: P) -> Vec<u8> {
        let len = self.data_bytes();
        let mut buf = vec![0u8; len as usize];
        for seg in self.view.segments(0, len) {
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
    fn subarray_partition_geometry() {
        let p = Partition::subarray(1, vec![8, 16], vec![8, 4], vec![0, 4]).unwrap();
        assert_eq!(p.data_bytes(), 32);
        assert_eq!(p.footprint().total_len(), 32);
        assert_eq!(p.footprint().run_count(), 8, "one run per row");
    }

    #[test]
    fn fill_places_pattern_by_file_offset() {
        let p = Partition::subarray(0, vec![4, 8], vec![4, 2], vec![0, 3]).unwrap();
        let buf = p.fill(|o| (o % 256) as u8);
        // Logical byte 0 lands at file offset 3; logical 2 at 8+3=11...
        assert_eq!(buf[0], 3);
        assert_eq!(buf[1], 4);
        assert_eq!(buf[2], 11);
        assert_eq!(buf[3], 12);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn zero_array_dimensions_are_invalid() {
        use crate::{BlockBlock, ColWise, RowWise};
        let zero = |what| WorkloadError::Invalid {
            what,
            got: 0,
            constraint: "must be positive",
        };
        assert_eq!(BlockBlock::new(0, 8, 1, 1, 0), Err(zero("rows")));
        assert_eq!(BlockBlock::new(8, 0, 1, 1, 0), Err(zero("cols")));
        assert_eq!(ColWise::new(0, 64, 4, 4), Err(zero("rows")));
        assert_eq!(ColWise::new(64, 0, 4, 4), Err(zero("columns")));
        assert_eq!(RowWise::new(64, 0, 4, 4), Err(zero("columns")));
        assert_eq!(RowWise::new(0, 64, 4, 4), Err(zero("rows")));
        assert_eq!(zero("rows").to_string(), "rows = 0: must be positive");
    }

    #[test]
    fn invalid_subarray_reports_error() {
        let e = Partition::subarray(0, vec![4, 4], vec![5, 1], vec![0, 0]).unwrap_err();
        assert!(matches!(e, WorkloadError::Datatype(_)));
    }
}
