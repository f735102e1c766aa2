use std::sync::Arc;

use crate::kinds::{Datatype, DatatypeError};

/// Storage order for `MPI_Type_create_subarray`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOrder {
    /// Row-major (`MPI_ORDER_C`): the last dimension varies fastest.
    C,
    /// Column-major (`MPI_ORDER_FORTRAN`): the first dimension varies fastest.
    Fortran,
}

/// Build `MPI_Type_create_subarray(ndims, sizes, subsizes, starts, order,
/// elem)`.
///
/// The result's typemap covers the sub-block's elements at their positions
/// inside the full array, and its extent equals the full array size, so the
/// type tiles correctly when installed as a file view (repetition `r` of the
/// filetype begins at `r * full_array_bytes`).
pub(crate) fn build(
    sizes: &[u64],
    subsizes: &[u64],
    starts: &[u64],
    order: ArrayOrder,
    elem: Arc<Datatype>,
) -> Result<Arc<Datatype>, DatatypeError> {
    let ndims = sizes.len();
    if ndims == 0 {
        return Err(DatatypeError::BadSubarray("ndims must be >= 1".into()));
    }
    if subsizes.len() != ndims || starts.len() != ndims {
        return Err(DatatypeError::BadSubarray(format!(
            "dimension mismatch: sizes={ndims}, subsizes={}, starts={}",
            subsizes.len(),
            starts.len()
        )));
    }
    for d in 0..ndims {
        if sizes[d] == 0 || subsizes[d] == 0 {
            return Err(DatatypeError::BadSubarray(format!(
                "dimension {d} has zero size"
            )));
        }
        if starts[d] + subsizes[d] > sizes[d] {
            return Err(DatatypeError::BadSubarray(format!(
                "dimension {d}: start {} + subsize {} exceeds size {}",
                starts[d], subsizes[d], sizes[d]
            )));
        }
    }

    // Normalize to C order: dims[0] is the most significant axis.
    let (sizes, subsizes, starts): (Vec<u64>, Vec<u64>, Vec<u64>) = match order {
        ArrayOrder::C => (sizes.to_vec(), subsizes.to_vec(), starts.to_vec()),
        ArrayOrder::Fortran => (
            sizes.iter().rev().copied().collect(),
            subsizes.iter().rev().copied().collect(),
            starts.iter().rev().copied().collect(),
        ),
    };

    let elem_ext = elem.extent();

    // Byte stride of one step in dimension d = product of faster dim sizes.
    let mut stride = vec![0u64; sizes.len()];
    let mut acc = elem_ext;
    for d in (0..sizes.len()).rev() {
        stride[d] = acc;
        acc *= sizes[d];
    }
    let total_bytes = acc;

    // Innermost (fastest) dimension: a contiguous run of elements.
    let ndims = sizes.len();
    let mut t = Datatype::contiguous(subsizes[ndims - 1], elem)?;

    // Wrap outward: each outer dimension is `subsizes[d]` copies of the inner
    // type placed `stride[d]` bytes apart.
    for d in (0..ndims - 1).rev() {
        t = Datatype::hvector(subsizes[d], 1, stride[d] as i64, t)?;
    }

    // Shift to the block's start corner.
    let offset: u64 = (0..ndims).map(|d| starts[d] * stride[d]).sum();
    if offset > 0 {
        t = Datatype::hindexed(vec![(1, offset as i64)], t)?;
    }

    // Extent = whole array, so views tile by whole-array rounds.
    Datatype::resized(0, total_bytes, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    /// Brute-force reference: mark every element of the sub-block in a dense
    /// array and read off the contiguous runs.
    fn reference_segments(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        elem_size: u64,
    ) -> Vec<Segment> {
        let total: u64 = sizes.iter().product::<u64>() * elem_size;
        let mut mask = vec![false; total as usize];
        let ndims = sizes.len();
        let mut idx = vec![0u64; ndims];
        loop {
            // Compute flat element offset of starts + idx (C order).
            let mut off = 0u64;
            for d in 0..ndims {
                off = off * sizes[d] + (starts[d] + idx[d]);
            }
            for b in 0..elem_size {
                mask[(off * elem_size + b) as usize] = true;
            }
            // Odometer increment over subsizes.
            let mut d = ndims;
            loop {
                if d == 0 {
                    // done
                    let mut segs: Vec<Segment> = Vec::new();
                    let mut i = 0usize;
                    while i < mask.len() {
                        if mask[i] {
                            let start = i;
                            while i < mask.len() && mask[i] {
                                i += 1;
                            }
                            segs.push(Segment {
                                disp: start as i64,
                                len: (i - start) as u64,
                            });
                        } else {
                            i += 1;
                        }
                    }
                    return segs;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < subsizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    fn check(sizes: &[u64], subsizes: &[u64], starts: &[u64], elem_size: u64) {
        let elem = match elem_size {
            1 => Datatype::byte(),
            4 => Datatype::int32(),
            8 => Datatype::double(),
            _ => unreachable!(),
        };
        let t = build(sizes, subsizes, starts, ArrayOrder::C, elem).unwrap();
        let got = t.flatten();
        let want = reference_segments(sizes, subsizes, starts, elem_size);
        assert_eq!(
            got, want,
            "sizes={sizes:?} subsizes={subsizes:?} starts={starts:?}"
        );
        assert_eq!(t.extent(), sizes.iter().product::<u64>() * elem_size);
        assert_eq!(t.size(), subsizes.iter().product::<u64>() * elem_size);
    }

    #[test]
    fn matches_reference_2d() {
        check(&[4, 8], &[2, 3], &[1, 2], 1);
        check(&[4, 8], &[4, 8], &[0, 0], 1); // whole array
        check(&[4, 8], &[1, 8], &[2, 0], 1); // one full row -> contiguous
        check(&[4, 8], &[4, 1], &[0, 7], 1); // last column
        check(&[5, 5], &[2, 2], &[3, 3], 4); // ints, bottom-right corner
    }

    #[test]
    fn matches_reference_1d_and_3d() {
        check(&[16], &[5], &[11], 1);
        check(&[3, 4, 5], &[2, 2, 2], &[1, 1, 1], 1);
        check(&[2, 3, 4], &[2, 3, 4], &[0, 0, 0], 8);
        check(&[4, 4, 4], &[1, 4, 4], &[2, 0, 0], 1); // one full plane -> contiguous
    }

    #[test]
    fn fortran_order_reverses_dims() {
        // In Fortran order the FIRST dimension varies fastest; a (sub)column
        // of a 2-D array is contiguous.
        let t = build(
            &[8, 4],
            &[8, 1],
            &[0, 2],
            ArrayOrder::Fortran,
            Datatype::byte(),
        )
        .unwrap();
        assert!(t.is_contiguous());
        assert_eq!(t.flatten(), vec![Segment { disp: 16, len: 8 }]);
    }

    #[test]
    fn full_row_in_c_order_is_contiguous() {
        let t = build(&[8, 4], &[1, 4], &[3, 0], ArrayOrder::C, Datatype::byte()).unwrap();
        assert!(t.is_contiguous());
    }

    #[test]
    fn column_block_figure4_shape() {
        // The paper's Figure 4: sizes = [M, N], subsizes = [M, N/P],
        // starts = [0, col]. Must yield M segments of N/P bytes, stride N.
        let (m, n, w, col) = (6u64, 24u64, 6u64, 9u64);
        let t = build(&[m, n], &[m, w], &[0, col], ArrayOrder::C, Datatype::byte()).unwrap();
        let segs = t.flatten();
        assert_eq!(segs.len(), m as usize);
        for (r, s) in segs.iter().enumerate() {
            assert_eq!(s.disp as u64, r as u64 * n + col);
            assert_eq!(s.len, w);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(build(&[4, 4], &[2, 2], &[3, 0], ArrayOrder::C, Datatype::byte()).is_err());
        assert!(build(&[4, 0], &[2, 1], &[0, 0], ArrayOrder::C, Datatype::byte()).is_err());
        assert!(build(&[], &[], &[], ArrayOrder::C, Datatype::byte()).is_err());
        assert!(build(&[4, 4], &[2, 2], &[0], ArrayOrder::C, Datatype::byte()).is_err());
    }
}
