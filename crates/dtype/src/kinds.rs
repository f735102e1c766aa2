use std::sync::Arc;

use crate::flatten::{flatten_into, Segment};
use crate::subarray;

/// A field of a struct datatype: `blocklen` consecutive copies of `child`
/// placed at byte displacement `disp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructField {
    pub blocklen: u64,
    pub disp: i64,
    pub child: Arc<Datatype>,
}

/// Errors from datatype construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatatypeError {
    /// A count/blocklen/size parameter was zero where MPI requires > 0.
    ZeroSize(&'static str),
    /// Subarray parameters out of range (subsize + start > size, etc.).
    BadSubarray(String),
    /// Resized extent smaller than the child's true span.
    BadResize { extent: u64, needed: u64 },
}

impl std::fmt::Display for DatatypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatatypeError::ZeroSize(what) => write!(f, "{what} must be positive"),
            DatatypeError::BadSubarray(msg) => write!(f, "invalid subarray: {msg}"),
            DatatypeError::BadResize { extent, needed } => {
                write!(
                    f,
                    "resized extent {extent} smaller than child span {needed}"
                )
            }
        }
    }
}

impl std::error::Error for DatatypeError {}

/// An MPI derived datatype.
///
/// Displacements are signed (MPI allows negative displacements); strides of
/// `Vector` are in units of the child extent, `Hvector`/`Hindexed` use bytes
/// (the MPI `h` convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// An elementary type of `size` bytes (`MPI_BYTE`, `MPI_INT`, ...).
    Elementary { size: u64, name: &'static str },
    /// `count` consecutive copies of `child`.
    Contiguous { count: u64, child: Arc<Datatype> },
    /// `count` blocks of `blocklen` children, block starts `stride` child
    /// extents apart.
    Vector {
        count: u64,
        blocklen: u64,
        stride: i64,
        child: Arc<Datatype>,
    },
    /// Like `Vector` but the stride is in bytes.
    Hvector {
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: Arc<Datatype>,
    },
    /// Blocks of `(blocklen, disp)` with displacement in child extents.
    Indexed {
        blocks: Vec<(u64, i64)>,
        child: Arc<Datatype>,
    },
    /// Blocks of `(blocklen, disp)` with displacement in bytes.
    Hindexed {
        blocks: Vec<(u64, i64)>,
        child: Arc<Datatype>,
    },
    /// Heterogeneous fields at byte displacements.
    Struct { fields: Vec<StructField> },
    /// Same typemap as `child` but with overridden lower bound and extent
    /// (`MPI_Type_create_resized`); controls how the type tiles.
    Resized {
        lb: i64,
        extent: u64,
        child: Arc<Datatype>,
    },
}

impl Datatype {
    /// `MPI_BYTE`.
    pub fn byte() -> Arc<Datatype> {
        Arc::new(Datatype::Elementary {
            size: 1,
            name: "BYTE",
        })
    }

    /// A 4-byte elementary type (`MPI_INT`).
    pub fn int32() -> Arc<Datatype> {
        Arc::new(Datatype::Elementary {
            size: 4,
            name: "INT32",
        })
    }

    /// An 8-byte elementary type (`MPI_DOUBLE`).
    pub fn double() -> Arc<Datatype> {
        Arc::new(Datatype::Elementary {
            size: 8,
            name: "DOUBLE",
        })
    }

    pub fn contiguous(count: u64, child: Arc<Datatype>) -> Result<Arc<Datatype>, DatatypeError> {
        if count == 0 {
            return Err(DatatypeError::ZeroSize("contiguous count"));
        }
        Ok(Arc::new(Datatype::Contiguous { count, child }))
    }

    pub fn vector(
        count: u64,
        blocklen: u64,
        stride: i64,
        child: Arc<Datatype>,
    ) -> Result<Arc<Datatype>, DatatypeError> {
        if count == 0 || blocklen == 0 {
            return Err(DatatypeError::ZeroSize("vector count/blocklen"));
        }
        Ok(Arc::new(Datatype::Vector {
            count,
            blocklen,
            stride,
            child,
        }))
    }

    pub(crate) fn hvector(
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: Arc<Datatype>,
    ) -> Result<Arc<Datatype>, DatatypeError> {
        if count == 0 || blocklen == 0 {
            return Err(DatatypeError::ZeroSize("hvector count/blocklen"));
        }
        Ok(Arc::new(Datatype::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        }))
    }

    pub fn hindexed(
        blocks: Vec<(u64, i64)>,
        child: Arc<Datatype>,
    ) -> Result<Arc<Datatype>, DatatypeError> {
        if blocks.is_empty() {
            return Err(DatatypeError::ZeroSize("hindexed block list"));
        }
        Ok(Arc::new(Datatype::Hindexed { blocks, child }))
    }

    pub fn resized(
        lb: i64,
        extent: u64,
        child: Arc<Datatype>,
    ) -> Result<Arc<Datatype>, DatatypeError> {
        Ok(Arc::new(Datatype::Resized { lb, extent, child }))
    }

    /// `MPI_Type_create_subarray`: an `ndims`-dimensional sub-block of a
    /// larger array (the constructor used in the paper's Figure 4).
    /// `elem` is the element type; all dimension arrays are in elements.
    pub fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        order: subarray::ArrayOrder,
        elem: Arc<Datatype>,
    ) -> Result<Arc<Datatype>, DatatypeError> {
        subarray::build(sizes, subsizes, starts, order, elem)
    }

    /// Number of *data* bytes in one instance of the type (`MPI_Type_size`).
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Elementary { size, .. } => *size,
            Datatype::Contiguous { count, child } => count * child.size(),
            Datatype::Vector {
                count,
                blocklen,
                child,
                ..
            }
            | Datatype::Hvector {
                count,
                blocklen,
                child,
                ..
            } => count * blocklen * child.size(),
            Datatype::Indexed { blocks, child } | Datatype::Hindexed { blocks, child } => {
                blocks.iter().map(|(bl, _)| bl).sum::<u64>() * child.size()
            }
            Datatype::Struct { fields } => fields.iter().map(|f| f.blocklen * f.child.size()).sum(),
            Datatype::Resized { child, .. } => child.size(),
        }
    }

    /// Lower bound in bytes (`MPI_Type_get_extent` lb).
    pub fn lb(&self) -> i64 {
        match self {
            Datatype::Resized { lb, .. } => *lb,
            _ => self.true_span().0,
        }
    }

    /// Upper bound in bytes.
    pub(crate) fn ub(&self) -> i64 {
        match self {
            Datatype::Resized { lb, extent, .. } => lb + *extent as i64,
            _ => self.true_span().1,
        }
    }

    /// Extent in bytes: `ub - lb`. Determines how the type tiles when used
    /// as a filetype.
    pub fn extent(&self) -> u64 {
        (self.ub() - self.lb()) as u64
    }

    /// `(min displacement, max displacement+size)` over the typemap — the
    /// "true" lb/ub ignoring resizing.
    ///
    /// Strided constructors are evaluated analytically at their endpoint
    /// blocks (the span is linear in the block index), so this is O(blocks)
    /// for indexed types and O(1) for contiguous/vector — safe for types with
    /// enormous counts.
    pub(crate) fn true_span(&self) -> (i64, i64) {
        match self {
            Datatype::Elementary { size, .. } => (0, *size as i64),
            Datatype::Contiguous { count, child } => {
                span_for_blocks([(0, *count)].into_iter(), child)
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let step = stride * child.extent() as i64;
                let last = (*count as i64 - 1) * step;
                span_for_blocks([(0, *blocklen), (last, *blocklen)].into_iter(), child)
            }
            Datatype::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                let last = (*count as i64 - 1) * stride_bytes;
                span_for_blocks([(0, *blocklen), (last, *blocklen)].into_iter(), child)
            }
            Datatype::Indexed { blocks, child } => span_for_blocks(
                blocks
                    .iter()
                    .map(|(bl, d)| (d * child.extent() as i64, *bl)),
                child,
            ),
            Datatype::Hindexed { blocks, child } => {
                span_for_blocks(blocks.iter().map(|(bl, d)| (*d, *bl)), child)
            }
            Datatype::Struct { fields } => {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for f in fields {
                    let (clo, chi) = f.child.true_span();
                    let ext = f.child.extent() as i64;
                    lo = lo.min(f.disp + clo);
                    hi = hi.max(f.disp + (f.blocklen as i64 - 1) * ext + chi);
                }
                (lo, hi)
            }
            Datatype::Resized { child, .. } => child.true_span(),
        }
    }

    /// Lower the type to its canonical segment list: byte displacements of
    /// every contiguous piece of data, in typemap order, with adjacent
    /// contiguous pieces coalesced.
    pub fn flatten(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        flatten_into(self, 0, &mut out);
        out
    }

    /// Number of contiguous segments in one instance (after coalescing).
    pub(crate) fn segment_count(&self) -> usize {
        self.flatten().len()
    }

    /// True when the typemap is one single contiguous run starting at lb —
    /// the property that lets row-wise partitioning use a single `write()`
    /// (paper §3.2 "Row-wise partitioning").
    pub fn is_contiguous(&self) -> bool {
        self.segment_count() == 1
    }
}

/// Span over a sequence of `(byte displacement, blocklen)` blocks of `child`.
fn span_for_blocks<I: Iterator<Item = (i64, u64)>>(blocks: I, child: &Arc<Datatype>) -> (i64, i64) {
    let (clo, chi) = child.true_span();
    let ext = child.extent() as i64;
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for (disp, blocklen) in blocks {
        lo = lo.min(disp + clo);
        hi = hi.max(disp + (blocklen as i64 - 1) * ext + chi);
    }
    if lo > hi {
        (0, 0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementary_sizes() {
        assert_eq!(Datatype::byte().size(), 1);
        assert_eq!(Datatype::int32().size(), 4);
        assert_eq!(Datatype::double().extent(), 8);
    }

    #[test]
    fn contiguous_size_and_extent() {
        let t = Datatype::contiguous(10, Datatype::int32()).unwrap();
        assert_eq!(t.size(), 40);
        assert_eq!(t.extent(), 40);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_geometry() {
        // 3 blocks of 2 ints, stride 5 ints: |XX...XX...XX|
        let t = Datatype::vector(3, 2, 5, Datatype::int32()).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), (2 * 5 + 2) * 4);
        assert_eq!(t.extent(), 48);
        assert_eq!(t.segment_count(), 3);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn vector_with_unit_stride_is_contiguous() {
        let t = Datatype::vector(4, 1, 1, Datatype::byte()).unwrap();
        assert!(t.is_contiguous());
        assert_eq!(t.flatten(), vec![Segment { disp: 0, len: 4 }]);
    }

    #[test]
    fn hvector_stride_in_bytes() {
        let t = Datatype::hvector(2, 1, 100, Datatype::int32()).unwrap();
        let segs = t.flatten();
        assert_eq!(
            segs,
            vec![Segment { disp: 0, len: 4 }, Segment { disp: 100, len: 4 }]
        );
        assert_eq!(t.extent(), 104);
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::Indexed {
            blocks: vec![(2, 0), (1, 10)],
            child: Datatype::int32(),
        };
        assert_eq!(t.size(), 12);
        let segs = t.flatten();
        assert_eq!(
            segs,
            vec![Segment { disp: 0, len: 8 }, Segment { disp: 40, len: 4 }]
        );
    }

    #[test]
    fn hindexed_negative_disp() {
        let t = Datatype::hindexed(vec![(1, -8), (1, 8)], Datatype::double()).unwrap();
        assert_eq!(t.lb(), -8);
        assert_eq!(t.ub(), 16);
        assert_eq!(t.extent(), 24);
    }

    #[test]
    fn struct_fields() {
        let t = Datatype::Struct {
            fields: vec![
                StructField {
                    blocklen: 1,
                    disp: 0,
                    child: Datatype::int32(),
                },
                StructField {
                    blocklen: 2,
                    disp: 8,
                    child: Datatype::double(),
                },
            ],
        };
        assert_eq!(t.size(), 4 + 16);
        assert_eq!(t.extent(), 24);
        assert_eq!(t.segment_count(), 2);
    }

    #[test]
    fn resized_controls_tiling_extent() {
        let base = Datatype::contiguous(2, Datatype::byte()).unwrap();
        let t = Datatype::resized(0, 10, base).unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.extent(), 10);
    }

    #[test]
    fn constructors_reject_zero() {
        assert!(Datatype::contiguous(0, Datatype::byte()).is_err());
        assert!(Datatype::vector(0, 1, 1, Datatype::byte()).is_err());
        assert!(Datatype::vector(1, 0, 1, Datatype::byte()).is_err());
    }

    #[test]
    fn nested_vector_of_vector() {
        // A 2x2 block of rows from a 4-column matrix of bytes.
        let row = Datatype::contiguous(2, Datatype::byte()).unwrap();
        let rowr = Datatype::resized(0, 4, row).unwrap();
        let t = Datatype::vector(2, 1, 1, rowr).unwrap();
        let segs = t.flatten();
        assert_eq!(
            segs,
            vec![Segment { disp: 0, len: 2 }, Segment { disp: 4, len: 2 }]
        );
    }
}
