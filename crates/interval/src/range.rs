use atomio_vtime::WireSize;

/// A half-open byte range `[start, end)` in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteRange {
    pub start: u64,
    pub end: u64,
}

impl ByteRange {
    /// `[start, end)`. Panics if `end < start` (empty ranges are allowed).
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "ByteRange end {end} precedes start {start}");
        ByteRange { start, end }
    }

    /// Range starting at `start` covering `len` bytes.
    pub fn at(start: u64, len: u64) -> Self {
        ByteRange {
            start,
            end: start + len,
        }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.start && offset < self.end
    }

    pub fn contains_range(&self, other: &ByteRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end <= self.end)
    }

    /// True when the two ranges share at least one byte.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True when the ranges overlap or touch end-to-start (can be coalesced).
    pub(crate) fn adjoins(&self, other: &ByteRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Intersection, or `None` when the ranges share no bytes.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(ByteRange { start, end })
    }

    /// Smallest range covering both inputs.
    pub fn hull(&self, other: &ByteRange) -> ByteRange {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        ByteRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Subtraction `self \ other`: zero, one, or two pieces.
    pub fn subtract(&self, other: &ByteRange) -> (Option<ByteRange>, Option<ByteRange>) {
        match self.intersect(other) {
            None => (Some(*self), None),
            Some(cut) => {
                let left = (self.start < cut.start).then_some(ByteRange {
                    start: self.start,
                    end: cut.start,
                });
                let right = (cut.end < self.end).then_some(ByteRange {
                    start: cut.end,
                    end: self.end,
                });
                (left, right)
            }
        }
    }
}

impl WireSize for ByteRange {
    fn wire_size(&self) -> usize {
        16
    }
}

impl std::fmt::Display for ByteRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = ByteRange::at(10, 5);
        assert_eq!(r, ByteRange::new(10, 15));
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert!(r.contains(10));
        assert!(r.contains(14));
        assert!(!r.contains(15));
    }

    #[test]
    fn overlap_and_adjoin() {
        let a = ByteRange::new(0, 10);
        let b = ByteRange::new(10, 20);
        let c = ByteRange::new(5, 15);
        assert!(!a.overlaps(&b), "touching ranges do not overlap");
        assert!(a.adjoins(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn intersection() {
        let a = ByteRange::new(0, 10);
        assert_eq!(
            a.intersect(&ByteRange::new(5, 15)),
            Some(ByteRange::new(5, 10))
        );
        assert_eq!(a.intersect(&ByteRange::new(10, 15)), None);
        assert_eq!(
            a.intersect(&ByteRange::new(2, 3)),
            Some(ByteRange::new(2, 3))
        );
    }

    #[test]
    fn subtraction_cases() {
        let a = ByteRange::new(10, 20);
        // disjoint
        assert_eq!(a.subtract(&ByteRange::new(0, 5)), (Some(a), None));
        // cut in the middle -> two pieces
        assert_eq!(
            a.subtract(&ByteRange::new(12, 15)),
            (Some(ByteRange::new(10, 12)), Some(ByteRange::new(15, 20)))
        );
        // cut the left edge
        assert_eq!(
            a.subtract(&ByteRange::new(0, 15)),
            (None, Some(ByteRange::new(15, 20)))
        );
        // cut the right edge
        assert_eq!(
            a.subtract(&ByteRange::new(15, 30)),
            (Some(ByteRange::new(10, 15)), None)
        );
        // fully covered
        assert_eq!(a.subtract(&ByteRange::new(0, 30)), (None, None));
    }

    #[test]
    fn hull_covers_both() {
        let a = ByteRange::new(0, 5);
        let b = ByteRange::new(20, 30);
        assert_eq!(a.hull(&b), ByteRange::new(0, 30));
        let empty = ByteRange::new(7, 7);
        assert_eq!(empty.hull(&b), b);
        assert_eq!(b.hull(&empty), b);
    }

    #[test]
    fn contains_range_edge_cases() {
        let a = ByteRange::new(10, 20);
        assert!(a.contains_range(&ByteRange::new(10, 20)));
        assert!(a.contains_range(&ByteRange::new(12, 18)));
        assert!(
            a.contains_range(&ByteRange::new(15, 15)),
            "empty range always contained"
        );
        assert!(!a.contains_range(&ByteRange::new(9, 12)));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn rejects_inverted() {
        ByteRange::new(10, 5);
    }
}
