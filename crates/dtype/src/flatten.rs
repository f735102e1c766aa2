use crate::kinds::Datatype;

/// One contiguous piece of a flattened typemap: `len` data bytes at byte
/// displacement `disp` from the type's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub disp: i64,
    pub len: u64,
}

impl Segment {
    pub fn end(&self) -> i64 {
        self.disp + self.len as i64
    }
}

/// Append `seg`, coalescing with the previous segment when they abut.
fn push(out: &mut Vec<Segment>, seg: Segment) {
    if seg.len == 0 {
        return;
    }
    match out.last_mut() {
        Some(last) if last.end() == seg.disp => last.len += seg.len,
        _ => out.push(seg),
    }
}

/// True when one instance of `dt` is a single dense run covering its whole
/// extent — the fast path that lets `blocklen`/`count` repetitions collapse
/// into one segment without iterating.
fn is_dense(dt: &Datatype) -> bool {
    dt.size() == dt.extent() && {
        let (lo, hi) = dt.true_span();
        dt.lb() == lo && dt.ub() == hi && single_run(dt)
    }
}

fn single_run(dt: &Datatype) -> bool {
    match dt {
        Datatype::Elementary { .. } => true,
        Datatype::Contiguous { child, .. } => is_dense(child),
        Datatype::Vector {
            blocklen,
            count,
            stride,
            child,
        } => is_dense(child) && (*count == 1 || (*blocklen as i64 == *stride && is_dense(child))),
        Datatype::Hvector {
            blocklen,
            count,
            stride_bytes,
            child,
        } => {
            is_dense(child) && (*count == 1 || (*blocklen * child.extent()) as i64 == *stride_bytes)
        }
        _ => dt.flatten_naive_is_single(),
    }
}

impl Datatype {
    /// Slow-path check used only for irregular constructors; bounded by
    /// the block count of the constructor itself.
    fn flatten_naive_is_single(&self) -> bool {
        let mut out = Vec::new();
        flatten_into(self, 0, &mut out);
        out.len() == 1
    }
}

/// Emit `blocklen` consecutive children of `child` starting at `disp`.
fn flatten_block(child: &Datatype, disp: i64, blocklen: u64, out: &mut Vec<Segment>) {
    if is_dense(child) {
        push(
            out,
            Segment {
                disp: disp + child.lb(),
                len: blocklen * child.size(),
            },
        );
        return;
    }
    let ext = child.extent() as i64;
    for b in 0..blocklen {
        flatten_into(child, disp + b as i64 * ext, out);
    }
}

/// Recursively lower `dt` displaced by `base` into `out`, typemap order,
/// coalescing adjacent contiguous pieces.
pub(crate) fn flatten_into(dt: &Datatype, base: i64, out: &mut Vec<Segment>) {
    match dt {
        Datatype::Elementary { size, .. } => push(
            out,
            Segment {
                disp: base,
                len: *size,
            },
        ),
        Datatype::Contiguous { count, child } => flatten_block(child, base, *count, out),
        Datatype::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let step = stride * child.extent() as i64;
            for i in 0..*count {
                flatten_block(child, base + i as i64 * step, *blocklen, out);
            }
        }
        Datatype::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            for i in 0..*count {
                flatten_block(child, base + i as i64 * stride_bytes, *blocklen, out);
            }
        }
        Datatype::Hindexed { blocks, child } => {
            for (bl, d) in blocks {
                flatten_block(child, base + d, *bl, out);
            }
        }
        Datatype::Resized { child, .. } => flatten_into(child, base, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_adjacent_segments() {
        let mut out = Vec::new();
        push(&mut out, Segment { disp: 0, len: 4 });
        push(&mut out, Segment { disp: 4, len: 4 });
        push(&mut out, Segment { disp: 10, len: 2 });
        push(&mut out, Segment { disp: 12, len: 0 }); // dropped
        assert_eq!(
            out,
            vec![Segment { disp: 0, len: 8 }, Segment { disp: 10, len: 2 }]
        );
    }

    #[test]
    fn huge_contiguous_is_one_segment_fast() {
        // Would take forever if flatten iterated per element.
        let t = Datatype::contiguous(1 << 33, Datatype::byte()).unwrap();
        assert_eq!(
            t.flatten(),
            vec![Segment {
                disp: 0,
                len: 1 << 33
            }]
        );
    }

    #[test]
    fn vector_of_dense_rows() {
        // Column block: 4 rows of 3 bytes out of rows of 10 bytes.
        let t = Datatype::vector(4, 3, 10, Datatype::byte()).unwrap();
        let segs = t.flatten();
        assert_eq!(
            segs,
            vec![
                Segment { disp: 0, len: 3 },
                Segment { disp: 10, len: 3 },
                Segment { disp: 20, len: 3 },
                Segment { disp: 30, len: 3 },
            ]
        );
    }

    #[test]
    fn vector_with_touching_blocks_coalesces() {
        let t = Datatype::vector(4, 5, 5, Datatype::byte()).unwrap();
        assert_eq!(t.flatten(), vec![Segment { disp: 0, len: 20 }]);
    }

    #[test]
    fn resized_does_not_change_typemap() {
        let v = Datatype::vector(2, 1, 4, Datatype::byte()).unwrap();
        let r = Datatype::resized(0, 100, v.clone()).unwrap();
        assert_eq!(r.flatten(), v.flatten());
    }

    #[test]
    fn nested_blocklen_with_sparse_child_iterates() {
        // child: 2 bytes then a 2-byte hole (extent 4 via resize)
        let sparse =
            Datatype::resized(0, 4, Datatype::contiguous(2, Datatype::byte()).unwrap()).unwrap();
        let t = Datatype::contiguous(3, sparse).unwrap();
        assert_eq!(
            t.flatten(),
            vec![
                Segment { disp: 0, len: 2 },
                Segment { disp: 4, len: 2 },
                Segment { disp: 8, len: 2 },
            ]
        );
    }
}
