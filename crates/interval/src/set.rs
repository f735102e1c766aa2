use atomio_vtime::WireSize;

use crate::ByteRange;

/// A set of bytes represented as sorted, disjoint, non-empty, maximally
/// coalesced half-open runs.
///
/// The canonical form makes `==` structural set equality and keeps every
/// binary operation a linear two-pointer merge.
///
/// ```
/// use atomio_interval::{ByteRange, IntervalSet};
/// let a = IntervalSet::from_ranges([ByteRange::new(0, 10), ByteRange::new(20, 30)]);
/// let b = IntervalSet::from_ranges([ByteRange::new(5, 25)]);
/// assert_eq!(
///     a.intersect(&b),
///     IntervalSet::from_ranges([ByteRange::new(5, 10), ByteRange::new(20, 25)])
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct IntervalSet {
    runs: Vec<ByteRange>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { runs: Vec::new() }
    }

    /// Set containing a single range (empty input ranges are dropped).
    pub fn from_range(r: ByteRange) -> Self {
        let mut s = IntervalSet::new();
        s.insert(r);
        s
    }

    /// Build from arbitrary (possibly overlapping, unordered) ranges.
    pub fn from_ranges<I: IntoIterator<Item = ByteRange>>(ranges: I) -> Self {
        let mut rs: Vec<ByteRange> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        rs.sort_unstable_by_key(|r| r.start);
        let mut runs: Vec<ByteRange> = Vec::with_capacity(rs.len());
        for r in rs {
            match runs.last_mut() {
                Some(last) if last.adjoins(&r) => last.end = last.end.max(r.end),
                _ => runs.push(r),
            }
        }
        IntervalSet { runs }
    }

    /// Build from `(offset, len)` pairs.
    pub fn from_extents<I: IntoIterator<Item = (u64, u64)>>(extents: I) -> Self {
        Self::from_ranges(extents.into_iter().map(|(o, l)| ByteRange::at(o, l)))
    }

    /// Insert one range, keeping canonical form.
    pub fn insert(&mut self, r: ByteRange) {
        if r.is_empty() {
            return;
        }
        // Find all runs that overlap or adjoin `r` and merge them.
        let lo = self.runs.partition_point(|run| run.end < r.start);
        let hi = self.runs.partition_point(|run| run.start <= r.end);
        if lo == hi {
            self.runs.insert(lo, r);
        } else {
            let merged = ByteRange::new(
                self.runs[lo].start.min(r.start),
                self.runs[hi - 1].end.max(r.end),
            );
            self.runs.splice(lo..hi, std::iter::once(merged));
        }
    }

    /// Remove one range, keeping canonical form.
    pub fn remove(&mut self, r: ByteRange) {
        if r.is_empty() || self.runs.is_empty() {
            return;
        }
        let lo = self.runs.partition_point(|run| run.end <= r.start);
        let hi = self.runs.partition_point(|run| run.start < r.end);
        if lo >= hi {
            return;
        }
        let mut replacement: Vec<ByteRange> = Vec::with_capacity(2);
        let (left, _) = self.runs[lo].subtract(&r);
        if let Some(l) = left {
            replacement.push(l);
        }
        let (_, right) = self.runs[hi - 1].subtract(&r);
        if let Some(rr) = right {
            replacement.push(rr);
        }
        self.runs.splice(lo..hi, replacement);
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of canonical runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total number of bytes in the set.
    pub fn total_len(&self) -> u64 {
        self.runs.iter().map(ByteRange::len).sum()
    }

    /// The canonical runs, sorted and disjoint.
    pub fn runs(&self) -> &[ByteRange] {
        &self.runs
    }

    pub fn iter(&self) -> impl Iterator<Item = &ByteRange> {
        self.runs.iter()
    }

    /// Smallest single range covering the whole set, or `None` when empty.
    ///
    /// This is exactly the region the paper's *file-locking* strategy locks:
    /// "the file lock must start at the process's first file offset and end
    /// at the very last file offset the process will write" (§3.2).
    pub fn span(&self) -> Option<ByteRange> {
        match (self.runs.first(), self.runs.last()) {
            (Some(a), Some(b)) => Some(ByteRange::new(a.start, b.end)),
            _ => None,
        }
    }

    pub fn contains(&self, offset: u64) -> bool {
        let i = self.runs.partition_point(|run| run.end <= offset);
        self.runs.get(i).is_some_and(|run| run.contains(offset))
    }

    pub fn contains_range(&self, r: &ByteRange) -> bool {
        if r.is_empty() {
            return true;
        }
        let i = self.runs.partition_point(|run| run.end <= r.start);
        self.runs.get(i).is_some_and(|run| run.contains_range(r))
    }

    /// True when the two sets share at least one byte.
    pub fn overlaps(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (&self.runs[i], &other.runs[j]);
            if a.overlaps(b) {
                return true;
            }
            if a.end <= b.start {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// True when a single range intersects the set.
    pub fn overlaps_range(&self, r: &ByteRange) -> bool {
        if r.is_empty() {
            return false;
        }
        let i = self.runs.partition_point(|run| run.end <= r.start);
        self.runs.get(i).is_some_and(|run| run.overlaps(r))
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_ranges(self.runs.iter().chain(other.runs.iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (&self.runs[i], &other.runs[j]);
            if let Some(x) = a.intersect(b) {
                out.push(x);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out: Vec<ByteRange> = Vec::with_capacity(self.runs.len());
        let mut j = 0;
        for run in &self.runs {
            let mut cur = *run;
            while j < other.runs.len() && other.runs[j].end <= cur.start {
                j += 1;
            }
            let mut k = j;
            let mut dead = false;
            while k < other.runs.len() && other.runs[k].start < cur.end {
                let cut = &other.runs[k];
                if cut.start > cur.start {
                    out.push(ByteRange::new(cur.start, cut.start));
                }
                if cut.end >= cur.end {
                    dead = true;
                    break;
                }
                cur = ByteRange::new(cut.end.max(cur.start), cur.end);
                k += 1;
            }
            if !dead {
                out.push(cur);
            }
        }
        IntervalSet { runs: out }
    }

    /// The gaps between consecutive runs (no leading/trailing gap).
    pub fn gaps(&self) -> IntervalSet {
        let runs = self
            .runs
            .windows(2)
            .map(|w| ByteRange::new(w[0].end, w[1].start))
            .collect::<Vec<_>>();
        IntervalSet { runs }
    }

    /// All distinct run boundaries, sorted ascending (used by the atomicity
    /// verifier to decompose a file into elementary coverage regions).
    pub fn boundaries(&self) -> Vec<u64> {
        let mut b = Vec::with_capacity(self.runs.len() * 2);
        for r in &self.runs {
            b.push(r.start);
            b.push(r.end);
        }
        b
    }
}

impl FromIterator<ByteRange> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = ByteRange>>(iter: I) -> Self {
        IntervalSet::from_ranges(iter)
    }
}

impl WireSize for IntervalSet {
    fn wire_size(&self) -> usize {
        8 + self.runs.len() * 16
    }
}

impl std::fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_ranges(ranges.iter().map(|&(a, b)| ByteRange::new(a, b)))
    }

    #[test]
    fn canonical_form_coalesces() {
        let s = set(&[(10, 20), (0, 5), (5, 10), (30, 30)]);
        assert_eq!(s.runs(), &[ByteRange::new(0, 20)]);
        assert_eq!(s.total_len(), 20);
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn insert_merges_neighbours() {
        let mut s = set(&[(0, 10), (20, 30), (40, 50)]);
        s.insert(ByteRange::new(10, 20));
        assert_eq!(s.runs(), &[ByteRange::new(0, 30), ByteRange::new(40, 50)]);
        s.insert(ByteRange::new(29, 45));
        assert_eq!(s.runs(), &[ByteRange::new(0, 50)]);
        s.insert(ByteRange::new(60, 60)); // empty: no-op
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = set(&[(0, 30)]);
        s.remove(ByteRange::new(10, 20));
        assert_eq!(s.runs(), &[ByteRange::new(0, 10), ByteRange::new(20, 30)]);
        s.remove(ByteRange::new(0, 10));
        assert_eq!(s.runs(), &[ByteRange::new(20, 30)]);
        s.remove(ByteRange::new(25, 100));
        assert_eq!(s.runs(), &[ByteRange::new(20, 25)]);
        s.remove(ByteRange::new(0, 100));
        assert!(s.is_empty());
    }

    #[test]
    fn union_intersect_subtract() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(a.union(&b), set(&[(0, 30)]));
        assert_eq!(a.intersect(&b), set(&[(5, 10), (20, 25)]));
        assert_eq!(a.subtract(&b), set(&[(0, 5), (25, 30)]));
        assert_eq!(b.subtract(&a), set(&[(10, 20)]));
    }

    #[test]
    fn subtract_many_cuts_in_one_run() {
        let a = set(&[(0, 100)]);
        let b = set(&[(10, 20), (30, 40), (50, 60)]);
        assert_eq!(
            a.subtract(&b),
            set(&[(0, 10), (20, 30), (40, 50), (60, 100)])
        );
    }

    #[test]
    fn overlap_queries() {
        let a = set(&[(0, 10), (20, 30)]);
        assert!(a.overlaps(&set(&[(25, 26)])));
        assert!(!a.overlaps(&set(&[(10, 20)])));
        assert!(a.overlaps_range(&ByteRange::new(9, 10)));
        assert!(!a.overlaps_range(&ByteRange::new(10, 20)));
        assert!(!a.overlaps_range(&ByteRange::new(5, 5)));
        assert!(a.contains(0));
        assert!(!a.contains(15));
        assert!(a.contains_range(&ByteRange::new(22, 28)));
        assert!(!a.contains_range(&ByteRange::new(8, 12)));
    }

    #[test]
    fn span_is_lock_range() {
        let a = set(&[(100, 110), (900, 1000)]);
        assert_eq!(a.span(), Some(ByteRange::new(100, 1000)));
        assert_eq!(IntervalSet::new().span(), None);
    }

    #[test]
    fn complement_and_gaps() {
        let a = set(&[(10, 20), (30, 40)]);
        assert_eq!(a.gaps(), set(&[(20, 30)]));
        assert_eq!(
            IntervalSet::from_range(ByteRange::new(0, 50)).subtract(&a),
            set(&[(0, 10), (20, 30), (40, 50)])
        );
    }

    #[test]
    fn display_roundtrip_smoke() {
        let a = set(&[(0, 3), (9, 12)]);
        assert_eq!(a.to_string(), "{[0, 3), [9, 12)}");
    }
}
