//! Run-length-compressed periodic interval sets.
//!
//! The paper's column-wise M×N pattern gives every rank a footprint of M
//! equal-length runs, one per row, all `N` bytes apart. Materializing that
//! as a dense [`IntervalSet`] costs O(M) to build, O(M) to ship through the
//! view-exchange allgather and O(M) per pairwise intersection — §3.4 assumes
//! negotiation overhead proportional to the *description* of the access,
//! not its row count. [`StridedSet`] stores the same byte set as sorted
//! trains of `(start, len, stride, count)` so the description is O(1) per
//! periodic pattern, the wire encoding is charged on the compressed form,
//! and the algebra has O(1) fast paths for the same-stride case that
//! dominates regular array partitionings.
//!
//! All operations are **exact**: whatever the train structure, every
//! operation returns precisely the set a dense expansion would. Mixed-stride
//! operands fall back to stepping over the runs of the smaller train
//! (O(min(count))), never to dense per-byte or per-row materialization of
//! both sides.

use atomio_vtime::WireSize;

use crate::{ByteRange, IntervalSet};

/// A periodic train of byte runs: `count` runs of `len` bytes, the i-th at
/// `start + i*stride`.
///
/// Invariants (enforced by [`Train::new`]): `len >= 1`, `count >= 1`;
/// a single-run train has `stride == len`; a multi-run train has
/// `stride > len` (touching runs coalesce into one longer run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Train {
    start: u64,
    len: u64,
    stride: u64,
    count: u64,
}

// `len` is the per-run byte count, not a container length; a train is
// never empty by invariant.
#[allow(clippy::len_without_is_empty)]
impl Train {
    /// Build a train, normalizing degenerate shapes: `count == 1` forces
    /// `stride = len`, and `stride == len` (touching runs) collapses into a
    /// single run of `len * count` bytes. Panics on empty runs or on
    /// self-overlapping trains (`stride < len` with `count > 1`).
    pub fn new(start: u64, len: u64, stride: u64, count: u64) -> Train {
        assert!(len > 0 && count > 0, "train runs must be non-empty");
        if count == 1 {
            return Train {
                start,
                len,
                stride: len,
                count: 1,
            };
        }
        assert!(
            stride >= len,
            "train stride {stride} under run length {len}: runs would self-overlap"
        );
        if stride == len {
            return Train {
                start,
                len: len * count,
                stride: len * count,
                count: 1,
            };
        }
        Train {
            start,
            len,
            stride,
            count,
        }
    }

    /// A single contiguous run. Returns `None` for an empty range.
    pub fn from_range(r: ByteRange) -> Option<Train> {
        (!r.is_empty()).then(|| Train::new(r.start, r.len(), r.len(), 1))
    }

    pub fn start(&self) -> u64 {
        self.start
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn stride(&self) -> u64 {
        self.stride
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// End offset of the last run (exclusive).
    pub fn end(&self) -> u64 {
        self.start + (self.count - 1) * self.stride + self.len
    }

    /// Total bytes covered (runs are disjoint by invariant).
    pub fn nbytes(&self) -> u64 {
        self.len * self.count
    }

    /// True when the train is one contiguous run.
    pub fn is_run(&self) -> bool {
        self.count == 1
    }

    /// Bounding range `[start, end)`.
    pub fn bounds(&self) -> ByteRange {
        ByteRange::new(self.start, self.end())
    }

    /// The i-th run.
    pub fn nth(&self, i: u64) -> ByteRange {
        debug_assert!(i < self.count);
        ByteRange::at(self.start + i * self.stride, self.len)
    }

    /// All runs, ascending.
    pub fn runs(&self) -> impl Iterator<Item = ByteRange> + '_ {
        (0..self.count).map(|i| self.nth(i))
    }

    /// Index range `[lo, hi)` of runs intersecting `r` (empty when none).
    fn idx_overlapping(&self, r: &ByteRange) -> (u64, u64) {
        if r.is_empty() || r.end <= self.start {
            return (0, 0);
        }
        let hi = ((r.end - self.start - 1) / self.stride + 1).min(self.count);
        let lo = if r.start < self.start + self.len {
            0
        } else {
            (r.start - self.start - self.len) / self.stride + 1
        };
        if lo >= hi {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// True when some run of `self` intersects `r`.
    pub fn overlaps_range(&self, r: &ByteRange) -> bool {
        let (lo, hi) = self.idx_overlapping(r);
        lo < hi
    }

    /// Exact overlap test against another train. O(1) when either train is
    /// a single run or the strides are equal; O(min(count)) otherwise.
    pub fn overlaps(&self, other: &Train) -> bool {
        if !self.bounds().overlaps(&other.bounds()) {
            return false;
        }
        if self.is_run() {
            return other.overlaps_range(&self.bounds());
        }
        if other.is_run() {
            return self.overlaps_range(&other.bounds());
        }
        if self.stride == other.stride {
            return !shift_windows(self, other).is_empty();
        }
        let (small, big) = if self.count <= other.count {
            (self, other)
        } else {
            (other, self)
        };
        small.runs().any(|r| big.overlaps_range(&r))
    }

    /// Sub-train over run indices `[lo, hi)`.
    fn slice(&self, lo: u64, hi: u64) -> Option<Train> {
        (lo < hi).then(|| {
            Train::new(
                self.start + lo * self.stride,
                self.len,
                self.stride,
                hi - lo,
            )
        })
    }
}

impl std::fmt::Display for Train {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_run() {
            write!(f, "[{}, {})", self.start, self.end())
        } else {
            write!(
                f,
                "{}+[0, {})×{}·{}",
                self.start, self.len, self.stride, self.count
            )
        }
    }
}

/// One same-stride interaction: `(period shift j, run-local cut window,
/// affected run-index range of the left train)`.
type ShiftWindow = (i128, (u64, u64), (u64, u64));

/// For two trains of equal stride `d`, the run of `other` shifted by `j`
/// periods intersects the matching run of `self` for every `j` returned
/// here; each entry carries the run-local cut window and the index range of
/// `self`'s runs it applies to. At most `⌈(len_a + len_b)/d⌉ + 1 ≤ 2`
/// entries since both run lengths are below the stride.
fn shift_windows(a: &Train, b: &Train) -> Vec<ShiftWindow> {
    debug_assert_eq!(a.stride, b.stride);
    debug_assert!(!a.is_run() && !b.is_run());
    let d = a.stride as i128;
    let (sa, sb) = (a.start as i128, b.start as i128);
    let (la, lb) = (a.len as i128, b.len as i128);
    // Overlap of a-run i and b-run i+j requires  sa - sb - lb < j*d < sa - sb + la.
    let jmin = (sa - sb - lb).div_euclid(d) + 1;
    let jmax = (sa - sb + la - 1).div_euclid(d);
    let jmin = jmin.max(-(a.count as i128 - 1));
    let jmax = jmax.min(b.count as i128 - 1);
    let mut out = Vec::new();
    for j in jmin..=jmax {
        // Cut window of b-run i+j within a-run i, in run-local coordinates.
        let rel = sb + j * d - sa; // may be negative (cut starts before run)
        let lo = rel.clamp(0, la) as u64;
        let hi = (rel + lb).clamp(0, la) as u64;
        if lo >= hi {
            continue;
        }
        let ilo = (-j).max(0) as u64;
        let ihi = (a.count as i128).min(b.count as i128 - j) as u64;
        if ilo < ihi {
            out.push((j, (lo, hi), (ilo, ihi)));
        }
    }
    out
}

/// `t ∩ r` as up to three trains (left partial run, full middle runs, right
/// partial run), ascending.
fn clip_train_to_range(t: &Train, r: &ByteRange, out: &mut Vec<Train>) {
    let (lo, hi) = t.idx_overlapping(r);
    if lo >= hi {
        return;
    }
    if hi - lo == 1 {
        let piece = t.nth(lo).intersect(r).expect("index said overlap");
        out.extend(Train::from_range(piece));
        return;
    }
    let first = t.nth(lo);
    let last = t.nth(hi - 1);
    let full_lo = if r.contains_range(&first) { lo } else { lo + 1 };
    let full_hi = if r.contains_range(&last) { hi } else { hi - 1 };
    if full_lo > lo {
        out.extend(Train::from_range(first.intersect(r).expect("overlap")));
    }
    if let Some(mid) = t.slice(full_lo, full_hi) {
        out.push(mid);
    }
    if full_hi < hi {
        out.extend(Train::from_range(last.intersect(r).expect("overlap")));
    }
}

/// `r \ t` as up to three trains (left remainder, the gap train between
/// consecutive cut runs, right remainder), ascending.
fn range_minus_train(r: ByteRange, t: &Train, out: &mut Vec<Train>) {
    let (lo, hi) = t.idx_overlapping(&r);
    if lo >= hi {
        out.extend(Train::from_range(r));
        return;
    }
    let first = t.nth(lo);
    if r.start < first.start {
        out.extend(Train::from_range(ByteRange::new(r.start, first.start)));
    }
    // Gaps between consecutive cut runs all lie inside `r`.
    if hi - lo >= 2 && t.stride > t.len {
        out.push(Train::new(
            first.end,
            t.stride - t.len,
            t.stride,
            hi - lo - 1,
        ));
    }
    let last_end = t.nth(hi - 1).end;
    if last_end < r.end {
        out.extend(Train::from_range(ByteRange::new(last_end, r.end)));
    }
}

/// `t \ cut` for one contiguous cut, as up to four trains.
fn train_minus_range(t: &Train, cut: &ByteRange, out: &mut Vec<Train>) {
    let (lo, hi) = t.idx_overlapping(cut);
    if lo >= hi {
        out.push(*t);
        return;
    }
    out.extend(t.slice(0, lo));
    // Only the first and last intersected runs can survive partially: a
    // contiguous cut reaching run `hi-1` covers every run in between.
    let (left, right_of_first) = t.nth(lo).subtract(cut);
    out.extend(left.and_then(Train::from_range));
    if hi - lo == 1 {
        out.extend(right_of_first.and_then(Train::from_range));
    } else {
        let (_, right) = t.nth(hi - 1).subtract(cut);
        out.extend(right.and_then(Train::from_range));
    }
    out.extend(t.slice(hi, t.count));
}

/// `a ∩ b` appended to `out` (pieces pairwise disjoint, not globally
/// sorted).
fn train_intersect(a: &Train, b: &Train, out: &mut Vec<Train>) {
    if !a.bounds().overlaps(&b.bounds()) {
        return;
    }
    if b.is_run() {
        clip_train_to_range(a, &b.bounds(), out);
        return;
    }
    if a.is_run() {
        clip_train_to_range(b, &a.bounds(), out);
        return;
    }
    if a.stride == b.stride {
        for (_, (lo, hi), (ilo, ihi)) in shift_windows(a, b) {
            out.push(Train::new(
                a.start + ilo * a.stride + lo,
                hi - lo,
                a.stride,
                ihi - ilo,
            ));
        }
        return;
    }
    let (small, big) = if a.count <= b.count { (a, b) } else { (b, a) };
    for r in small.runs() {
        clip_train_to_range(big, &r, out);
    }
}

/// `a \ b` appended to `out`.
fn train_minus_train(a: &Train, b: &Train, out: &mut Vec<Train>) {
    if !a.bounds().overlaps(&b.bounds()) {
        out.push(*a);
        return;
    }
    if b.is_run() {
        train_minus_range(a, &b.bounds(), out);
        return;
    }
    if a.is_run() {
        range_minus_train(a.bounds(), b, out);
        return;
    }
    if a.stride == b.stride {
        train_minus_same_stride(a, b, out);
        return;
    }
    if b.count <= a.count {
        // Carve b's runs (ascending, disjoint) out of a.
        let mut acc = vec![*a];
        for cut in b.runs() {
            let mut next = Vec::with_capacity(acc.len() + 3);
            for t in &acc {
                train_minus_range(t, &cut, &mut next);
            }
            acc = next;
        }
        out.extend(acc);
    } else {
        for r in a.runs() {
            range_minus_train(r, b, out);
        }
    }
}

/// Same-stride subtraction: split `a`'s index space at the boundaries of
/// the (at most two) shift windows, then cut each region's run shape once.
fn train_minus_same_stride(a: &Train, b: &Train, out: &mut Vec<Train>) {
    let cuts = shift_windows(a, b);
    if cuts.is_empty() {
        out.push(*a);
        return;
    }
    let mut bounds: Vec<u64> = vec![0, a.count];
    for (_, _, (ilo, ihi)) in &cuts {
        bounds.push(*ilo);
        bounds.push(*ihi);
    }
    bounds.sort_unstable();
    bounds.dedup();
    for w in bounds.windows(2) {
        let (rlo, rhi) = (w[0], w[1]);
        // Run-local pieces of [0, len) minus the cuts active on this region.
        let mut active: Vec<(u64, u64)> = cuts
            .iter()
            .filter(|(_, _, (ilo, ihi))| *ilo <= rlo && rhi <= *ihi)
            .map(|(_, w, _)| *w)
            .collect();
        active.sort_unstable();
        let mut cursor = 0u64;
        let mut pieces: Vec<(u64, u64)> = Vec::with_capacity(active.len() + 1);
        for (clo, chi) in active {
            if clo > cursor {
                pieces.push((cursor, clo));
            }
            cursor = cursor.max(chi);
        }
        if cursor < a.len {
            pieces.push((cursor, a.len));
        }
        for (plo, phi) in pieces {
            out.push(Train::new(
                a.start + rlo * a.stride + plo,
                phi - plo,
                a.stride,
                rhi - rlo,
            ));
        }
    }
}

/// A set of bytes stored as sorted, pairwise-disjoint [`Train`]s.
///
/// Unlike [`IntervalSet`], the representation is not unique (the same byte
/// set can decompose into trains in several ways), so derived `==` is
/// representational; use [`StridedSet::to_intervals`] for extensional
/// comparison. Every operation is exact with respect to the represented
/// byte set.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct StridedSet {
    trains: Vec<Train>,
}

impl StridedSet {
    /// The empty set.
    pub fn new() -> Self {
        StridedSet { trains: Vec::new() }
    }

    /// Set of a single train.
    pub fn from_train(t: Train) -> Self {
        StridedSet { trains: vec![t] }
    }

    /// Set of one contiguous range (empty range ⇒ empty set).
    pub fn from_range(r: ByteRange) -> Self {
        Train::from_range(r).map_or_else(StridedSet::new, StridedSet::from_train)
    }

    /// Build from trains whose byte sets are already pairwise disjoint
    /// (e.g. emitted by a validated monotone file view). Sorts and
    /// coalesces; disjointness is the caller's contract.
    pub fn from_disjoint_trains(trains: Vec<Train>) -> Self {
        StridedSet {
            trains: normalize(trains),
        }
    }

    /// Compress a dense set losslessly: greedy detection of runs of equal
    /// length in arithmetic progression. O(runs).
    pub fn from_intervals(s: &IntervalSet) -> Self {
        StridedSet {
            trains: compress_runs(s.runs()),
        }
    }

    /// Compress ascending, non-overlapping `(offset, len)` extents (the
    /// form view segments arrive in), coalescing touching neighbours.
    pub fn from_sorted_extents<I: IntoIterator<Item = (u64, u64)>>(extents: I) -> Self {
        let mut runs: Vec<ByteRange> = Vec::new();
        for (off, len) in extents {
            if len == 0 {
                continue;
            }
            match runs.last_mut() {
                Some(last) if last.end == off => last.end += len,
                Some(last) => {
                    assert!(off >= last.end, "extents must be ascending and disjoint");
                    runs.push(ByteRange::at(off, len));
                }
                None => runs.push(ByteRange::at(off, len)),
            }
        }
        StridedSet {
            trains: compress_runs(&runs),
        }
    }

    /// Lossless expansion to the canonical dense representation.
    pub fn to_intervals(&self) -> IntervalSet {
        IntervalSet::from_ranges(self.trains.iter().flat_map(Train::runs))
    }

    pub fn is_empty(&self) -> bool {
        self.trains.is_empty()
    }

    /// Number of trains in the description (the negotiation cost unit).
    pub fn train_count(&self) -> usize {
        self.trains.len()
    }

    /// Number of runs a dense expansion would hold.
    pub fn run_count(&self) -> u64 {
        self.trains.iter().map(|t| t.count).sum()
    }

    /// Total covered bytes (trains are disjoint).
    pub fn total_len(&self) -> u64 {
        self.trains.iter().map(Train::nbytes).sum()
    }

    /// The trains, sorted by start offset.
    pub fn trains(&self) -> &[Train] {
        &self.trains
    }

    /// Smallest single range covering the set (the file-locking span).
    pub fn span(&self) -> Option<ByteRange> {
        let start = self.trains.first()?.start;
        let end = self.trains.iter().map(Train::end).max()?;
        Some(ByteRange::new(start, end))
    }

    /// True when the two sets share at least one byte.
    pub fn overlaps(&self, other: &StridedSet) -> bool {
        self.trains
            .iter()
            .any(|a| other.trains.iter().any(|b| a.overlaps(b)))
    }

    /// True when `r` intersects the set.
    pub fn overlaps_range(&self, r: &ByteRange) -> bool {
        self.trains.iter().any(|t| t.overlaps_range(r))
    }

    /// Set union.
    pub fn union(&self, other: &StridedSet) -> StridedSet {
        let mut u = self.clone();
        u.union_with(other);
        u
    }

    /// `self ∪= other` in `self`'s own buffer: a set grown grant by grant
    /// (a lock token, a cache's coverage) is not copied per grant.
    pub fn union_with(&mut self, other: &StridedSet) {
        let extra = other.subtract(self);
        if !extra.is_empty() {
            let mut trains = std::mem::take(&mut self.trains);
            trains.extend(extra.trains);
            self.trains = normalize(trains);
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &StridedSet) -> StridedSet {
        let mut out = Vec::new();
        for a in &self.trains {
            for b in &other.trains {
                train_intersect(a, b, &mut out);
            }
        }
        StridedSet {
            trains: normalize(out),
        }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &StridedSet) -> StridedSet {
        let mut acc = self.trains.clone();
        for b in &other.trains {
            // A cut that misses every piece leaves `acc` as it is.
            if !acc.iter().any(|a| a.bounds().overlaps(&b.bounds())) {
                continue;
            }
            let mut next = Vec::with_capacity(acc.len());
            for a in &acc {
                train_minus_train(a, b, &mut next);
            }
            acc = next;
        }
        StridedSet {
            trains: normalize(acc),
        }
    }

    /// The runs of every train meeting `r`, unclipped, ascending.
    /// O(trains + produced runs), independent of total run count.
    fn runs_within(&self, r: &ByteRange) -> Vec<ByteRange> {
        let mut runs = Vec::new();
        for t in &self.trains {
            let (lo, hi) = t.idx_overlapping(r);
            runs.extend((lo..hi).map(|i| t.nth(i)));
        }
        runs.sort_unstable_by_key(|c| c.start);
        runs
    }

    /// The **maximal** runs of the set meeting `r`, unclipped, ascending,
    /// as [`IntervalSet::runs`] has them. A run touching a comb stays its
    /// own train, so [`StridedSet::iter_runs`] splits a maximal run at such
    /// a seam; this walk joins the pieces, following touching runs beyond
    /// `r` too.
    pub fn runs_meeting(&self, r: &ByteRange) -> Vec<ByteRange> {
        // The run holding byte `b`, if any (trains are disjoint).
        let run_at = |b: u64| {
            self.trains.iter().find_map(|t| {
                let (lo, hi) = t.idx_overlapping(&ByteRange::at(b, 1));
                (lo < hi).then(|| t.nth(lo))
            })
        };
        let mut runs: Vec<ByteRange> = Vec::new();
        for p in self.runs_within(r) {
            match runs.last_mut() {
                Some(last) if last.end == p.start => last.end = p.end,
                _ => runs.push(p),
            }
        }
        // A seam between two runs that both meet `r` lies inside `r`, so
        // only the outermost runs can continue past what was collected.
        if let Some(first) = runs.first_mut() {
            while let Some(prev) = first.start.checked_sub(1).and_then(run_at) {
                first.start = prev.start;
            }
        }
        if let Some(last) = runs.last_mut() {
            while let Some(next) = run_at(last.end) {
                last.end = next.end;
            }
        }
        runs
    }

    /// All runs of the set in ascending order — a k-way merge over the
    /// trains' run sequences. O(log trains) per yielded run with no
    /// materialized run list, which is what lets a data-sieving planner
    /// walk a million-run footprint while holding only O(trains) state.
    pub fn iter_runs(&self) -> RunIter<'_> {
        let mut heap = std::collections::BinaryHeap::with_capacity(self.trains.len());
        for (i, t) in self.trains.iter().enumerate() {
            heap.push(std::cmp::Reverse((t.start, i, 0u64)));
        }
        RunIter { set: self, heap }
    }

    /// The subset of the set lying on shard `shard` of a sharded lock
    /// space: byte `b` belongs to shard `(b / unit) % shards` — the
    /// absolute stripe-unit grid a striped file system already uses to
    /// place data, so shard `s`'s slice is exactly the bytes server `s`
    /// stores. The shard's byte ownership is itself a periodic comb
    /// (`unit` bytes every `shards·unit`), so the slice is one compressed
    /// intersection, never a dense expansion. Slices over all shards
    /// partition the set.
    pub fn shard_slice(&self, unit: u64, shards: u64, shard: u64) -> StridedSet {
        assert!(unit > 0 && shards > 0 && shard < shards);
        if shards == 1 {
            return self.clone();
        }
        let Some(span) = self.span() else {
            return StridedSet::new();
        };
        let period = unit * shards;
        // First period whose shard-owned unit could reach the span.
        let first = (span.start / period).saturating_sub(1);
        let start = first * period + shard * unit;
        if start >= span.end {
            return StridedSet::new();
        }
        let count = (span.end - start).div_ceil(period);
        let comb = StridedSet::from_train(Train::new(start, unit, period, count));
        self.intersect(&comb)
    }

    /// Pieces of `r` not covered by the set, ascending — `r \ self` without
    /// materializing the set densely.
    pub fn subtract_from_range(&self, r: &ByteRange) -> Vec<ByteRange> {
        let mut out = Vec::new();
        let mut cursor = r.start;
        for cut in self.runs_within(r) {
            if cut.start > cursor {
                out.push(ByteRange::new(cursor, cut.start));
            }
            cursor = cursor.max(cut.end);
        }
        if cursor < r.end {
            out.push(ByteRange::new(cursor, r.end));
        }
        out
    }
}

/// Ascending run iterator over a [`StridedSet`] (see
/// [`StridedSet::iter_runs`]).
#[derive(Debug, Clone)]
pub struct RunIter<'s> {
    set: &'s StridedSet,
    /// Min-heap of `(next run start, train index, run index)`.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize, u64)>>,
}

impl Iterator for RunIter<'_> {
    type Item = ByteRange;

    fn next(&mut self) -> Option<ByteRange> {
        let std::cmp::Reverse((_, ti, ri)) = self.heap.pop()?;
        let t = &self.set.trains[ti];
        if ri + 1 < t.count {
            self.heap.push(std::cmp::Reverse((
                t.start + (ri + 1) * t.stride,
                ti,
                ri + 1,
            )));
        }
        Some(t.nth(ri))
    }
}

impl WireSize for StridedSet {
    /// Charged on the compressed encoding: 8 bytes of header, 16 bytes per
    /// plain run, 32 per periodic train — what a view-exchange message
    /// shipping the strided description would actually carry.
    fn wire_size(&self) -> usize {
        8 + self
            .trains
            .iter()
            .map(|t| if t.is_run() { 16 } else { 32 })
            .sum::<usize>()
    }
}

impl std::fmt::Display for StridedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.trains.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// Sort disjoint trains and coalesce: touching runs merge, and a train
/// continued exactly by its successor (same stride and length, next start
/// one period after the last run) absorbs it.
fn normalize(mut trains: Vec<Train>) -> Vec<Train> {
    trains.sort_unstable_by_key(|t| (t.start, t.end()));
    // In place: a successor that merges folds into the train kept before it.
    trains.dedup_by(|next, kept| try_merge(kept, next).map(|m| *kept = m).is_some());
    trains
}

fn try_merge(a: &Train, b: &Train) -> Option<Train> {
    // Touching contiguous runs.
    if a.is_run() && b.is_run() && a.end() == b.start {
        return Some(Train::new(a.start, a.len + b.len, a.len + b.len, 1));
    }
    // Touching windows of the same comb: every run of `b` starts exactly
    // where the matching run of `a` ends.
    if !a.is_run() && a.stride == b.stride && a.count == b.count && b.start == a.start + a.len {
        return Some(Train::new(a.start, a.len + b.len, a.stride, a.count));
    }
    // Periodic continuation: same shape, next period.
    if !a.is_run() && a.len == b.len && b.start == a.start + a.count * a.stride {
        if b.is_run() {
            return Some(Train::new(a.start, a.len, a.stride, a.count + 1));
        }
        if b.stride == a.stride {
            return Some(Train::new(a.start, a.len, a.stride, a.count + b.count));
        }
    }
    None
}

/// Greedy arithmetic-progression compression of canonical (sorted,
/// disjoint, coalesced) runs.
fn compress_runs(runs: &[ByteRange]) -> Vec<Train> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < runs.len() {
        let len = runs[i].len();
        let mut j = i;
        if i + 1 < runs.len() && runs[i + 1].len() == len {
            let stride = runs[i + 1].start - runs[i].start;
            j = i + 1;
            while j + 1 < runs.len()
                && runs[j + 1].len() == len
                && runs[j + 1].start - runs[j].start == stride
            {
                j += 1;
            }
            out.push(Train::new(runs[i].start, len, stride, (j - i + 1) as u64));
        } else {
            out.push(Train::new(runs[i].start, len, len, 1));
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(ranges: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_ranges(ranges.iter().map(|&(a, b)| ByteRange::new(a, b)))
    }

    fn comb(start: u64, len: u64, stride: u64, count: u64) -> StridedSet {
        StridedSet::from_train(Train::new(start, len, stride, count))
    }

    #[test]
    fn train_normalization() {
        let t = Train::new(10, 5, 5, 4); // touching runs -> one run
        assert!(t.is_run());
        assert_eq!(t.bounds(), ByteRange::new(10, 30));
        let t = Train::new(0, 3, 10, 1); // count 1 -> stride = len
        assert_eq!(t.stride(), 3);
    }

    #[test]
    fn colwise_footprint_is_one_train() {
        // 8 rows of 4 bytes at column 3 of a 16-wide array.
        let rows: Vec<ByteRange> = (0..8u64).map(|r| ByteRange::at(r * 16 + 3, 4)).collect();
        let s = StridedSet::from_intervals(&IntervalSet::from_ranges(rows.iter().copied()));
        assert_eq!(s.train_count(), 1);
        assert_eq!(s.run_count(), 8);
        assert_eq!(s.total_len(), 32);
        assert_eq!(s.to_intervals(), IntervalSet::from_ranges(rows));
    }

    #[test]
    fn same_stride_neighbour_overlap() {
        // Two colwise neighbours sharing 2 ghost columns.
        let a = comb(4, 6, 16, 8); // columns [4, 10)
        let b = comb(8, 6, 16, 8); // columns [8, 14)
        let c = comb(12, 4, 16, 8); // columns [12, 16): disjoint from a
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&c));
        assert!(!a.overlaps(&c));
        let shared = a.intersect(&b);
        assert_eq!(shared.train_count(), 1);
        assert_eq!(shared.total_len(), 8 * 2);
        assert_eq!(
            shared.to_intervals(),
            a.to_intervals().intersect(&b.to_intervals())
        );
    }

    #[test]
    fn same_stride_union_merges_windows() {
        let a = comb(4, 6, 16, 8);
        let b = comb(8, 6, 16, 8);
        let u = a.union(&b);
        assert_eq!(u.train_count(), 1, "windows merge into one train: {u}");
        assert_eq!(u.to_intervals(), a.to_intervals().union(&b.to_intervals()));
    }

    #[test]
    fn subtract_ghost_columns() {
        let a = comb(0, 8, 16, 4); // columns [0, 8)
        let ghost = comb(6, 4, 16, 4); // columns [6, 10)
        let kept = a.subtract(&ghost);
        assert_eq!(kept.total_len(), 4 * 6);
        assert_eq!(
            kept.to_intervals(),
            a.to_intervals().subtract(&ghost.to_intervals())
        );
    }

    #[test]
    fn mixed_stride_operations_are_exact() {
        let a = comb(0, 3, 10, 7); // stride 10
        let b = comb(1, 4, 7, 9); // stride 7
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                x.intersect(y).to_intervals(),
                x.to_intervals().intersect(&y.to_intervals())
            );
            assert_eq!(
                x.subtract(y).to_intervals(),
                x.to_intervals().subtract(&y.to_intervals())
            );
            assert_eq!(
                x.union(y).to_intervals(),
                x.to_intervals().union(&y.to_intervals())
            );
            assert_eq!(x.overlaps(y), x.to_intervals().overlaps(&y.to_intervals()));
        }
    }

    #[test]
    fn run_vs_train_cases() {
        let t = comb(10, 2, 8, 5); // runs at 10,18,26,34,42
        let big = StridedSet::from_train(Train::new(0, 100, 100, 1));
        assert_eq!(big.intersect(&t).to_intervals(), t.to_intervals());
        let hole = big.subtract(&t);
        assert_eq!(hole.total_len(), 90);
        assert_eq!(
            hole.to_intervals(),
            big.to_intervals().subtract(&t.to_intervals())
        );
        // A run inside one gap.
        let gap_run = StridedSet::from_train(Train::new(13, 3, 3, 1));
        assert!(!gap_run.overlaps(&t));
    }

    #[test]
    fn wire_size_reflects_compression() {
        let rows: Vec<ByteRange> = (0..4096u64).map(|r| ByteRange::at(r * 8192, 16)).collect();
        let dense_set = IntervalSet::from_ranges(rows.iter().copied());
        let strided = StridedSet::from_intervals(&dense_set);
        assert_eq!(strided.train_count(), 1);
        assert_eq!(strided.wire_size(), 8 + 32);
        assert_eq!(dense_set.wire_size(), 8 + 4096 * 16);
    }

    #[test]
    fn cuts_and_range_subtraction() {
        let ghost = comb(6, 4, 16, 4);
        let row = ByteRange::new(16, 32); // second period
        assert_eq!(ghost.runs_meeting(&row), vec![ByteRange::new(22, 26)]);
        assert_eq!(
            ghost.subtract_from_range(&row),
            vec![ByteRange::new(16, 22), ByteRange::new(26, 32)]
        );
        // Range covering several periods.
        let wide = ByteRange::new(0, 64);
        let pieces = ghost.subtract_from_range(&wide);
        let rebuilt = IntervalSet::from_ranges(pieces);
        assert_eq!(
            rebuilt,
            IntervalSet::from_range(wide).subtract(&ghost.to_intervals())
        );
    }

    #[test]
    fn runs_meeting_joins_train_seams() {
        // A run touching a comb stays two trains; its maximal run does not.
        let s = StridedSet::from_range(ByteRange::new(0, 100)).union(&comb(100, 50, 200, 3));
        assert_eq!(s.train_count(), 2);
        // Meeting either side of the seam yields the whole maximal run.
        for r in [ByteRange::new(120, 130), ByteRange::new(10, 20)] {
            assert_eq!(s.runs_meeting(&r), vec![ByteRange::new(0, 150)]);
        }
        assert_eq!(
            s.runs_meeting(&ByteRange::new(0, 600)),
            vec![
                ByteRange::new(0, 150),
                ByteRange::new(300, 350),
                ByteRange::new(500, 550)
            ]
        );
        assert!(s.runs_meeting(&ByteRange::new(150, 300)).is_empty());
        assert!(s.runs_meeting(&ByteRange::new(10, 10)).is_empty());
    }

    #[test]
    fn span_and_counters() {
        let s = comb(5, 2, 10, 3).union(&comb(100, 4, 4, 1));
        assert_eq!(s.span(), Some(ByteRange::new(5, 104)));
        assert_eq!(s.total_len(), 10);
        assert_eq!(s.run_count(), 4);
        assert!(StridedSet::new().span().is_none());
        assert!(StridedSet::new().is_empty());
    }

    #[test]
    fn iter_runs_merges_interleaved_trains() {
        // Two combs whose runs interleave: 0,20,40 and 7,27,47.
        let s = comb(0, 3, 20, 3).union(&comb(7, 3, 20, 3));
        let runs: Vec<ByteRange> = s.iter_runs().collect();
        let starts: Vec<u64> = runs.iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![0, 7, 20, 27, 40, 47]);
        assert_eq!(
            IntervalSet::from_ranges(runs.iter().copied()),
            s.to_intervals()
        );
        assert_eq!(runs.len() as u64, s.run_count());
        assert!(StridedSet::new().iter_runs().next().is_none());
    }

    #[test]
    fn touching_trains_collapse_to_a_run() {
        // `len == stride` is contiguous in disguise: construction must
        // coalesce it so WireSize, run counts and promote/demote agree.
        let t = Train::new(32, 8, 8, 5);
        assert!(t.is_run());
        assert_eq!(t.bounds(), ByteRange::new(32, 72));
        let s = StridedSet::from_train(t);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.wire_size(), 8 + 16, "must be charged as a plain run");
        // Windows of one comb meeting exactly: one contiguous run.
        let u = comb(0, 4, 8, 4).union(&comb(4, 4, 8, 4));
        assert_eq!(u.train_count(), 1);
        assert_eq!(u.run_count(), 1, "{u}");
    }

    #[test]
    fn from_sorted_extents_coalesces() {
        let s = StridedSet::from_sorted_extents([(0u64, 4u64), (4, 4), (16, 8), (40, 8), (64, 8)]);
        // [0,8) then 3 runs of 8 at stride 24.
        assert_eq!(s.total_len(), 32);
        assert_eq!(
            s.to_intervals(),
            dense(&[(0, 8), (16, 24), (40, 48), (64, 72)])
        );
        assert!(s.train_count() <= 2, "{s}");
    }

    #[test]
    fn shard_slices_partition_the_set() {
        // A colwise comb over a 4-shard, 16-byte-unit grid.
        let s = comb(3, 6, 40, 9).union(&comb(500, 24, 24, 1));
        let (unit, shards) = (16u64, 4u64);
        let mut rebuilt = StridedSet::new();
        let mut total = 0;
        for shard in 0..shards {
            let slice = s.shard_slice(unit, shards, shard);
            // Every byte of the slice really lives on `shard`.
            for run in slice.iter_runs() {
                for unit_idx in run.start / unit..=(run.end - 1) / unit {
                    assert_eq!(unit_idx % shards, shard, "byte on wrong shard");
                }
            }
            total += slice.total_len();
            rebuilt = rebuilt.union(&slice);
        }
        assert_eq!(total, s.total_len(), "slices must not overlap");
        assert_eq!(rebuilt.to_intervals(), s.to_intervals());
    }

    #[test]
    fn shard_slice_single_shard_is_identity() {
        let s = comb(7, 5, 32, 6);
        assert_eq!(s.shard_slice(64, 1, 0).to_intervals(), s.to_intervals());
        assert!(StridedSet::new().shard_slice(16, 4, 2).is_empty());
    }

    #[test]
    fn shard_slice_unit_aligned_comb_stays_on_one_shard() {
        // Runs exactly filling unit 1 of every 4-unit period: the whole set
        // lives on shard 1, every other slice is empty.
        let s = comb(16, 16, 64, 8);
        for shard in 0..4 {
            let slice = s.shard_slice(16, 4, shard);
            if shard == 1 {
                assert_eq!(slice.to_intervals(), s.to_intervals());
            } else {
                assert!(slice.is_empty(), "shard {shard}: {slice}");
            }
        }
    }

    #[test]
    fn roundtrip_examples() {
        for ranges in [
            vec![(0u64, 1u64)],
            vec![(0, 5), (10, 15), (20, 25)],
            vec![(0, 5), (10, 15), (20, 25), (30, 31)],
            vec![(3, 9), (12, 13), (50, 90)],
        ] {
            let d = dense(&ranges);
            assert_eq!(StridedSet::from_intervals(&d).to_intervals(), d);
        }
    }
}
