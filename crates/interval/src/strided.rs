//! Run-length-compressed periodic interval sets.
//!
//! The paper's column-wise M×N pattern gives every rank a footprint of M
//! equal-length runs, one per row, all `N` bytes apart. Materializing that
//! as a list of runs costs O(M) to build, O(M) to ship through the
//! view-exchange allgather and O(M) per pairwise intersection — §3.4 assumes
//! negotiation overhead proportional to the *description* of the access,
//! not its row count. [`StridedSet`] stores the same byte set as sorted
//! trains of `(start, len, stride, count)` so the description is O(1) per
//! periodic pattern, the wire encoding is charged on the compressed form,
//! and the algebra has O(1) fast paths for the same-stride case that
//! dominates regular array partitionings: their results stay O(1) trains.
//!
//! All operations are **exact**: every operation returns precisely the set
//! a dense expansion would, in the one canonical train decomposition of
//! that set (see [`StridedSet`]). Mixed-stride operands fall back to
//! stepping over the runs of the smaller train (O(min(count))), never to
//! dense per-byte or per-row materialization of both sides. Bringing a
//! result into canonical form steps run by run only where its trains
//! interleave, and folds those runs back into combs; a result that is one
//! fold already (a same-stride difference or intersection whose pieces
//! alternate within each period) is recognised on `k + 1` of its periods.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use atomio_vtime::WireSize;

use crate::ByteRange;

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
    pub(crate) fn nbytes(&self) -> u64 {
        self.len * self.count
    }

    /// True when the train is one contiguous run.
    pub fn is_run(&self) -> bool {
        self.count == 1
    }

    /// Bounding range `[start, end)`.
    pub(crate) fn bounds(&self) -> ByteRange {
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
fn clip_train_to_range(t: &Train, r: &ByteRange) -> impl Iterator<Item = Train> {
    let (lo, hi) = t.idx_overlapping(r);
    let part = |i: u64| t.nth(i).intersect(r).and_then(Train::from_range);
    let mut pieces = [None; 3];
    if hi - lo == 1 {
        pieces[0] = part(lo);
    } else if lo < hi {
        // An end run `r` covers only in part stays out of the full middle.
        let full_lo = lo + u64::from(!r.contains_range(&t.nth(lo)));
        let full_hi = hi - u64::from(!r.contains_range(&t.nth(hi - 1)));
        pieces = [
            (full_lo > lo).then(|| part(lo)).flatten(),
            t.slice(full_lo, full_hi),
            (full_hi < hi).then(|| part(hi - 1)).flatten(),
        ];
    }
    pieces.into_iter().flatten()
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

/// `a ∩ b` appended to `out` (pieces pairwise disjoint, not globally
/// sorted).
fn train_intersect(a: &Train, b: &Train, out: &mut Vec<Train>) {
    if !a.bounds().overlaps(&b.bounds()) {
        return;
    }
    if b.is_run() {
        out.extend(clip_train_to_range(a, &b.bounds()));
        return;
    }
    if a.is_run() {
        out.extend(clip_train_to_range(b, &a.bounds()));
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
        out.extend(clip_train_to_range(big, &r));
    }
}

/// `a \ b` appended to `out`.
fn train_minus_train(a: &Train, b: &Train, out: &mut Vec<Train>) {
    if !a.bounds().overlaps(&b.bounds()) {
        out.push(*a);
        return;
    }
    if b.is_run() {
        train_minus_cuts(a, [[*b]], out);
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
        let runs = b.runs().filter_map(Train::from_range).map(|r| [r]);
        train_minus_cuts(a, runs, out);
    } else {
        for r in a.runs() {
            range_minus_train(r, b, out);
        }
    }
}

/// `a` minus cuts given as [`groups`] with ascending, pairwise disjoint
/// bounds: the stretches of `a` between the groups' bounds stay whole, and
/// what lies inside one group's bounds loses bytes to that group alone
/// (all of them to a run).
fn train_minus_cuts<G: AsRef<[Train]>>(
    a: &Train,
    cuts: impl IntoIterator<Item = G>,
    out: &mut Vec<Train>,
) {
    let stretch = |from: u64, to: u64| ByteRange::new(from, to.max(from));
    let mut from = a.start;
    for group in cuts {
        let group = group.as_ref();
        let hull = ByteRange::new(group[0].start, group[group.len() - 1].end());
        out.extend(clip_train_to_range(a, &stretch(from, hull.start)));
        match group {
            [b] if b.is_run() => {}
            [b] => {
                for piece in clip_train_to_range(a, &hull) {
                    train_minus_train(&piece, b, out);
                }
            }
            _ => {
                // The pieces so far sit at `out[first..]`; each member of
                // the group cuts them in turn.
                let first = out.len();
                out.extend(clip_train_to_range(a, &hull));
                for b in group {
                    let cut = out.len();
                    for i in first..cut {
                        let piece = out[i];
                        train_minus_train(&piece, b, out);
                    }
                    out.drain(first..cut);
                }
            }
        }
        from = hull.end;
    }
    out.extend(clip_train_to_range(a, &stretch(from, a.end())));
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

/// A set of bytes stored as pairwise-disjoint [`Train`]s in **canonical
/// form**, built in two steps from the set's maximal runs, ascending:
///
/// 1. a greedy cuts them into arithmetic progressions — a run joins the
///    train being grown when it has the train's run length and continues
///    its stride (the train's second run sets the stride), and otherwise
///    closes that train and opens the next;
/// 2. scanning those trains left to right, a stretch of `k ≤ 32` trains
///    that repeats at a fixed shift `P` at least twice becomes one train
///    of stride `P` per run of its first `k` trains, when that gives fewer
///    trains (the smallest `k` wins). Step 1 cuts interleaved combs of one
///    stride into pieces per period; this puts each comb back whole.
///
/// Every constructor and operation returns this form, so the trains are a
/// function of the byte set alone: derived `==` and `Hash` are set
/// equality, [`WireSize`] is a function of the bytes, and every train's
/// runs are maximal runs of the set. The trains are sorted by start and
/// by end; only the trains of one fold interleave.
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
    /// (e.g. emitted by a validated monotone file view), in any order;
    /// disjointness is the caller's contract.
    pub fn from_disjoint_trains(mut trains: Vec<Train>) -> Self {
        canonicalize(&mut trains);
        StridedSet { trains }
    }

    /// Build from arbitrary ranges — unsorted, overlapping, touching or
    /// empty: they are sorted, merged into maximal runs and compressed.
    /// O(n log n) in the ranges.
    pub fn from_ranges(ranges: impl IntoIterator<Item = ByteRange>) -> Self {
        let mut runs: Vec<ByteRange> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        runs.sort_unstable_by_key(|r| r.start);
        runs.dedup_by(|next, run| {
            let joins = run.adjoins(next);
            if joins {
                run.end = run.end.max(next.end);
            }
            joins
        });
        StridedSet::from_sorted_extents(runs.iter().map(|r| (r.start, r.len())))
    }

    /// Compress ascending, non-overlapping `(offset, len)` extents (the
    /// form view segments arrive in); touching neighbours coalesce.
    pub fn from_sorted_extents<I: IntoIterator<Item = (u64, u64)>>(extents: I) -> Self {
        let mut end = 0;
        let runs = extents
            .into_iter()
            .filter_map(|(off, len)| {
                let run = Train::from_range(ByteRange::at(off, len))?;
                assert!(off >= end, "extents must be ascending and disjoint");
                end = off + len;
                Some(run)
            })
            .collect();
        StridedSet::from_disjoint_trains(runs)
    }

    pub fn is_empty(&self) -> bool {
        self.trains.is_empty()
    }

    /// Number of trains in the description (the negotiation cost unit).
    pub fn train_count(&self) -> usize {
        self.trains.len()
    }

    /// Number of maximal runs.
    pub fn run_count(&self) -> u64 {
        self.trains.iter().map(|t| t.count).sum()
    }

    /// Total covered bytes (trains are disjoint).
    pub fn total_len(&self) -> u64 {
        self.trains.iter().map(Train::nbytes).sum()
    }

    /// The trains, ascending.
    pub fn trains(&self) -> &[Train] {
        &self.trains
    }

    /// Smallest single range covering the set (the file-locking span).
    pub fn span(&self) -> Option<ByteRange> {
        let start = self.trains.first()?.start;
        let end = self.trains.last()?.end();
        Some(ByteRange::new(start, end))
    }

    /// True when the two sets share at least one byte.
    pub fn overlaps(&self, other: &StridedSet) -> bool {
        self.trains.iter().any(|a| {
            let bs = other.trains_meeting(&a.bounds());
            bs.iter().any(|b| a.overlaps(b))
        })
    }

    /// True when `r` intersects the set.
    pub fn overlaps_range(&self, r: &ByteRange) -> bool {
        self.trains_meeting(r).iter().any(|t| t.overlaps_range(r))
    }

    /// The trains whose bounds meet `r`: one stretch, found by binary
    /// search, since both the trains' starts and their ends ascend.
    fn trains_meeting(&self, r: &ByteRange) -> &[Train] {
        let rest = &self.trains[self.trains.partition_point(|t| t.end() <= r.start)..];
        &rest[..rest.partition_point(|t| t.start < r.end)]
    }

    /// Set union.
    pub fn union(&self, other: &StridedSet) -> StridedSet {
        let extra = other.subtract(self);
        if extra.is_empty() {
            return self.clone();
        }
        StridedSet::from_disjoint_trains([&self.trains[..], &extra.trains].concat())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &StridedSet) -> StridedSet {
        let mut out = Vec::new();
        for a in &self.trains {
            for b in other.trains_meeting(&a.bounds()) {
                train_intersect(a, b, &mut out);
            }
        }
        StridedSet::from_disjoint_trains(out)
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &StridedSet) -> StridedSet {
        let mut out = Vec::new();
        for a in &self.trains {
            train_minus_cuts(a, groups(other.trains_meeting(&a.bounds())), &mut out);
        }
        StridedSet::from_disjoint_trains(out)
    }

    /// The maximal runs of the set meeting `r`, unclipped, ascending.
    /// O(log trains + produced runs), independent of total run count.
    pub fn runs_meeting(&self, r: &ByteRange) -> Vec<ByteRange> {
        let mut runs = Vec::new();
        for t in self.trains_meeting(r) {
            let (lo, hi) = t.idx_overlapping(r);
            runs.extend((lo..hi).map(|i| t.nth(i)));
        }
        // A fold's trains interleave.
        runs.sort_unstable_by_key(|run| run.start);
        runs
    }

    /// All maximal runs of the set in ascending order, group by group (a
    /// fold's trains period by period): O(1) per yielded run with no
    /// materialized run list, which is what lets a data-sieving planner
    /// walk a million-run footprint while holding only O(1) state.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        groups(&self.trains).flat_map(|group| {
            (0..group[0].count).flat_map(move |i| group.iter().map(move |t| t.nth(i)))
        })
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
        for cut in self.runs_meeting(r) {
            if cut.start > cursor {
                out.push(ByteRange::new(cursor, cut.start));
            }
            cursor = cut.end;
        }
        if cursor < r.end {
            out.push(ByteRange::new(cursor, r.end));
        }
        out
    }
}

impl WireSize for StridedSet {
    /// Charged on the compressed encoding: 8 bytes of header, 16 bytes per
    /// plain run, 32 per periodic train — what a view-exchange message
    /// shipping the strided description would actually carry. The trains
    /// are canonical, so the size is a function of the byte set.
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

/// Rewrite pairwise disjoint `trains`, given in any order, into the
/// canonical form (see [`StridedSet`]) of their byte set.
///
/// Works on blocks of runs, not on runs. The trains are taken by start: a
/// train goes whole when the next one starts past its end, and otherwise
/// only its runs before that start go and its remainder waits its turn —
/// so runs go one by one only where trains' bounds interleave. Touching
/// runs join across blocks, the open progression grows by a whole block in
/// O(1), and [`fold_periods`] then folds repeated stretches of the result.
fn canonicalize(trains: &mut Vec<Train>) {
    trains.sort_unstable_by_key(|t| t.start);
    if let Some((slots, k)) = fold_layout(trains) {
        trains.clear();
        trains.extend_from_slice(&slots[..k]);
        if k == 1 || (slots[0].count > k as u64 + 1 && canonical_over_periods(trains, &slots[..k]))
        {
            return;
        }
    }
    let mut greedy = Greedy {
        buf: Buf {
            v: trains,
            read: 0,
            write: 0,
            pending: Pending::new(),
        },
        held: None,
        open: None,
    };
    loop {
        // A fold's trains interleave run by run: take their runs period by
        // period instead of splitting the trains one run at a time.
        if let Some((slots, k)) = greedy.buf.fold_ahead() {
            for i in 0..slots[0].count {
                for t in &slots[..k] {
                    greedy.push(Train::new(t.start + i * t.stride, t.len, 0, 1));
                }
            }
            continue;
        }
        let Some(t) = greedy.buf.pop() else {
            break;
        };
        match greedy.buf.next_start() {
            // The next train starts in a gap of `t` (trains are disjoint).
            Some(next) if next < t.end() => {
                let k = (next - t.start).div_ceil(t.stride);
                greedy.push(Train::new(t.start, t.len, t.stride, k));
                greedy
                    .buf
                    .defer(t.slice(k, t.count).expect("a gap precedes t's last run"));
            }
            _ => greedy.push(t),
        }
    }
    if let Some(h) = greedy.held.take() {
        greedy.extend(h);
    }
    if let Some(o) = greedy.open.take() {
        greedy.buf.emit(o);
    }
    let write = greedy.buf.write;
    trains.truncate(write);
    fold_periods(trains);
}

/// Ascending `trains` laid out like one fold (see [`fold_periods`]) — at
/// most `MAX_PERIOD` of them, with one stride and one count, and every run
/// of the first period ending before the second period starts — as the
/// fold's trains, touching neighbours joined.
fn fold_layout(trains: &[Train]) -> Option<([Train; MAX_PERIOD], usize)> {
    let (first, last) = (trains.first()?, trains.last()?);
    let shaped = |t: &Train| t.stride == first.stride && t.count == first.count;
    let laid_out = matches!(trains.len(), 2..=MAX_PERIOD)
        && trains.iter().all(shaped)
        && last.start + last.len <= first.start + first.stride;
    if !laid_out {
        return None;
    }
    let mut slots = [*first; MAX_PERIOD];
    let mut k = 1;
    for t in &trains[1..] {
        let prev = slots[k - 1];
        if prev.start + prev.len == t.start {
            // Only the last join can fill the period and make one run.
            slots[k - 1] = Train::new(prev.start, prev.len + t.len, prev.stride, prev.count);
        } else {
            slots[k] = *t;
            k += 1;
        }
    }
    Some((slots, k))
}

/// Whether the `k` trains of a fold over more than `k + 1` periods are in
/// canonical form, decided on `k + 1` periods of it. Canonical there means
/// the greedy cuts at each period's end, so every period gives the same
/// trains, and a shorter repeat would already show within two periods.
/// Fewer periods would still never answer yes wrongly, but over `k + 1`
/// the fold saves trains however few the greedy makes of one period, so a
/// canonical fold is recognised as one.
fn canonical_over_periods(trains: &mut Vec<Train>, fold: &[Train]) -> bool {
    let periods = fold.len() as u64 + 1;
    trains.iter_mut().for_each(|t| t.count = periods);
    canonicalize(trains);
    let few = fold.iter().map(|t| Train {
        count: periods,
        ..*t
    });
    let kept = trains.iter().copied().eq(few);
    trains.clear();
    trains.extend_from_slice(fold);
    kept
}

type Pending = BinaryHeap<Reverse<(u64, u64, u64, u64)>>;

/// [`canonicalize`]'s one buffer: `v[..write]` is output and `v[read..]`
/// input not yet taken, ascending. `pending` holds, by start, the
/// remainders of split trains and any unread train whose slot the output
/// needed, so the output never shifts the input.
struct Buf<'v> {
    v: &'v mut Vec<Train>,
    read: usize,
    write: usize,
    pending: Pending,
}

impl Buf<'_> {
    fn next_start(&self) -> Option<u64> {
        let unread = self.v.get(self.read).map(|t| t.start);
        let pending = self.pending.peek().map(|Reverse(key)| key.0);
        unread.into_iter().chain(pending).min()
    }

    fn pop(&mut self) -> Option<Train> {
        match (self.v.get(self.read), self.pending.peek()) {
            (Some(t), Some(Reverse(key))) if key.0 < t.start => {}
            (Some(t), _) => {
                self.read += 1;
                return Some(*t);
            }
            (None, _) => {}
        }
        let Reverse((start, len, stride, count)) = self.pending.pop()?;
        Some(Train {
            start,
            len,
            stride,
            count,
        })
    }

    /// Take the next unread trains when they are one fold (see
    /// [`fold_layout`]) that no other train reaches into.
    fn fold_ahead(&mut self) -> Option<([Train; MAX_PERIOD], usize)> {
        let rest = self
            .v
            .get(self.read..)
            .filter(|_| self.pending.is_empty())?;
        let end = rest.first()?.end();
        let n = rest.partition_point(|t| t.start < end);
        let alone = rest.get(n).is_none_or(|t| t.start >= rest[n - 1].end());
        let fold = fold_layout(&rest[..n]).filter(|_| alone)?;
        self.read += n;
        Some(fold)
    }

    fn defer(&mut self, t: Train) {
        self.pending
            .push(Reverse((t.start, t.len, t.stride, t.count)));
    }

    fn emit(&mut self, t: Train) {
        if self.write == self.read {
            match self.v.get(self.read) {
                Some(&unread) => self.defer(unread),
                None => self.v.push(t),
            }
            self.read += 1;
        }
        self.v[self.write] = t;
        self.write += 1;
    }
}

/// [`canonicalize`]'s run-by-run greedy, fed whole blocks of runs.
struct Greedy<'v> {
    buf: Buf<'v>,
    /// The last block pushed, held until the next block shows whether its
    /// last run continues into that block's first.
    held: Option<Train>,
    /// The progression being grown; a lone run has no stride yet.
    open: Option<Train>,
}

impl Greedy<'_> {
    /// Take the next block: runs after every run pushed so far.
    fn push(&mut self, b: Train) {
        let Some(h) = self.held.replace(b) else {
            return;
        };
        if h.end() != b.start {
            return self.extend(h);
        }
        // `h`'s last run and `b`'s first are one maximal run.
        let last = h.nth(h.count - 1);
        let joined = Train::new(last.start, last.len() + b.len, 0, 1);
        if let Some(before) = h.slice(0, h.count - 1) {
            self.extend(before);
        }
        match b.slice(1, b.count) {
            Some(after) => {
                self.extend(joined);
                self.held = Some(after);
            }
            None => self.held = Some(joined),
        }
    }

    /// Grow the open progression by the maximal runs of `b` in O(1): `b`'s
    /// first run goes as the run-by-run greedy would take it, and the
    /// rest continue whatever it then ends in exactly when that has `b`'s
    /// stride.
    fn extend(&mut self, b: Train) {
        let open = match self.open.take() {
            Some(o) if o.len == b.len && o.is_run() => {
                Train::new(o.start, o.len, b.start - o.start, 2)
            }
            Some(o) if o.len == b.len && b.start == o.start + o.count * o.stride => Train {
                count: o.count + 1,
                ..o
            },
            closed => {
                if let Some(o) = closed {
                    self.buf.emit(o);
                }
                Train::new(b.start, b.len, 0, 1)
            }
        };
        self.open = Some(match b.slice(1, b.count) {
            None => open,
            Some(_) if open.is_run() => b,
            Some(_) if open.stride == b.stride => Train {
                count: open.count + b.count - 1,
                ..open
            },
            Some(after) => {
                self.buf.emit(open);
                after
            }
        });
    }
}

/// Longest period, in trains, that [`fold_periods`] looks for.
const MAX_PERIOD: usize = 32;

/// Fold every stretch of the greedy's trains that repeats `reps ≥ 2` times
/// at a fixed shift `P` — `k` trains, then the same `k` shifted by `P`,
/// and so on — into one train of stride `P` and count `reps` per run of
/// the first `k`, when that gives fewer trains. Scans left to right and
/// takes the smallest `k ≤ MAX_PERIOD` at each position, so the result is
/// still a function of the byte set.
///
/// This is what keeps same-stride operands compressed: windows of several
/// equal-stride combs (a contested column band, a comb minus a narrower
/// comb) alternate run by run, the greedy pairs neighbours within each
/// period, and the fold turns the period's pairs back into one comb per
/// window. Folded trains interleave, but only among themselves: they form
/// a *group* whose members share stride and count and start inside the
/// first member's first period (see [`groups`]).
fn fold_periods(v: &mut Vec<Train>) {
    let (mut read, mut write) = (0, 0);
    while read < v.len() {
        let Some((k, reps)) = period_at(&v[read..]) else {
            v[write] = v[read];
            (read, write) = (read + 1, write + 1);
            continue;
        };
        let shift = v[read + k].start - v[read].start;
        let mut first = [v[read]; MAX_PERIOD];
        first[..k].copy_from_slice(&v[read..read + k]);
        // Fewer trains out than in, so `write` never passes `read`.
        for r in first[..k].iter().flat_map(Train::runs) {
            v[write] = Train::new(r.start, r.len(), shift, reps as u64);
            write += 1;
        }
        read += k * reps;
    }
    v.truncate(write);
}

/// The smallest period `k` at which `v` starts repeating, with the number
/// of whole repetitions, when folding them saves trains.
fn period_at(v: &[Train]) -> Option<(usize, usize)> {
    (1..=MAX_PERIOD.min(v.len() / 2)).find_map(|k| {
        let shift = v[k].start.checked_sub(v[0].start)?;
        let repeats = |m: usize| {
            let (a, b) = (v[m], v[m + k]);
            (a.len, a.stride, a.count, a.start + shift) == (b.len, b.stride, b.count, b.start)
        };
        let matched = (0..v.len() - k).take_while(|&m| repeats(m)).count();
        let reps = (matched + k) / k;
        let runs: u64 = v[..k].iter().map(|t| t.count).sum();
        (reps >= 2 && runs < (k * reps) as u64).then_some((k, reps))
    })
}

/// Split ascending canonical trains into groups: a train alone, or the
/// trains of one fold, which start before the first one's end.
fn groups(trains: &[Train]) -> impl Iterator<Item = &[Train]> {
    let mut rest = trains;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let n = 1 + rest[1..].partition_point(|t| t.start < first.end());
        let (group, tail) = rest.split_at(n);
        rest = tail;
        Some(group)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The maximal runs, ascending.
    fn runs(s: &StridedSet) -> Vec<ByteRange> {
        s.iter().collect()
    }

    /// The runs written out, `(start, end)` each.
    fn ranges(pairs: &[(u64, u64)]) -> Vec<ByteRange> {
        pairs.iter().map(|&(a, b)| ByteRange::new(a, b)).collect()
    }

    /// The byte set as points: the reference every operation is checked
    /// against.
    fn points(s: &StridedSet) -> BTreeSet<u64> {
        s.iter().flat_map(|r| r.start..r.end).collect()
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
        let s = StridedSet::from_ranges(rows.iter().rev().copied());
        assert_eq!(s.train_count(), 1);
        assert_eq!(s.run_count(), 8);
        assert_eq!(s.total_len(), 32);
        assert_eq!(runs(&s), rows);
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
        assert_eq!(points(&shared), &points(&a) & &points(&b));
    }

    #[test]
    fn same_stride_union_merges_windows() {
        let a = comb(4, 6, 16, 8);
        let b = comb(8, 6, 16, 8);
        let u = a.union(&b);
        assert_eq!(u.train_count(), 1, "windows merge into one train: {u}");
        assert_eq!(points(&u), &points(&a) | &points(&b));
    }

    #[test]
    fn subtract_ghost_columns() {
        let a = comb(0, 8, 16, 4); // columns [0, 8)
        let ghost = comb(6, 4, 16, 4); // columns [6, 10)
        let kept = a.subtract(&ghost);
        assert_eq!(kept.total_len(), 4 * 6);
        assert_eq!(points(&kept), &points(&a) - &points(&ghost));
    }

    #[test]
    fn mixed_stride_operations_are_exact() {
        let a = comb(0, 3, 10, 7); // stride 10
        let b = comb(1, 4, 7, 9); // stride 7
        for (x, y) in [(&a, &b), (&b, &a)] {
            let (px, py) = (points(x), points(y));
            assert_eq!(points(&x.intersect(y)), &px & &py);
            assert_eq!(points(&x.subtract(y)), &px - &py);
            assert_eq!(points(&x.union(y)), &px | &py);
            assert_eq!(x.overlaps(y), !px.is_disjoint(&py));
        }
    }

    #[test]
    fn run_vs_train_cases() {
        let t = comb(10, 2, 8, 5); // runs at 10,18,26,34,42
        let big = StridedSet::from_train(Train::new(0, 100, 100, 1));
        assert_eq!(big.intersect(&t), t);
        let hole = big.subtract(&t);
        assert_eq!(hole.total_len(), 90);
        assert_eq!(points(&hole), &points(&big) - &points(&t));
        // A run inside one gap.
        let gap_run = StridedSet::from_train(Train::new(13, 3, 3, 1));
        assert!(!gap_run.overlaps(&t));
    }

    #[test]
    fn wire_size_reflects_compression() {
        let rows = (0..4096u64).map(|r| ByteRange::at(r * 8192, 16));
        let strided = StridedSet::from_ranges(rows);
        assert_eq!(strided.train_count(), 1);
        assert_eq!(strided.wire_size(), 8 + 32);
        // A plain run list of the same bytes would carry 16 bytes a row.
        assert_eq!(strided.run_count(), 4096);
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
        assert_eq!(
            pieces,
            ranges(&[(0, 6), (10, 22), (26, 38), (42, 54), (58, 64)])
        );
    }

    #[test]
    fn a_run_touching_a_comb_joins_its_first_run() {
        // [0, 100) ∪ [100, 150) is one maximal run; the comb's other two
        // runs stay a train.
        let s = StridedSet::from_range(ByteRange::new(0, 100)).union(&comb(100, 50, 200, 3));
        assert_eq!(
            s.trains(),
            [Train::new(0, 150, 0, 1), Train::new(300, 50, 200, 2)]
        );
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
    fn interleaved_combs_stay_whole() {
        // Two combs whose runs interleave: 0,20,40 and 7,27,47. The greedy
        // pairs 0 with 7 (stride 7) and 20 breaks that stride, so the pair
        // repeats every 20 bytes and folds back into the two combs.
        let s = comb(0, 3, 20, 3).union(&comb(7, 3, 20, 3));
        assert_eq!(
            s.trains(),
            [Train::new(0, 3, 20, 3), Train::new(7, 3, 20, 3)]
        );
        // Two repeats of a pair do not fold: that would save no train.
        let pairs = comb(0, 3, 20, 2).union(&comb(7, 3, 20, 2));
        assert_eq!(
            pairs.trains(),
            [0, 20].map(|start| Train::new(start, 3, 7, 2))
        );
        let starts = [0, 7, 20, 27, 40, 47];
        assert_eq!(runs(&s), starts.map(|start| ByteRange::at(start, 3)));
        assert_eq!(starts.len() as u64, s.run_count());
        assert!(StridedSet::new().iter().next().is_none());
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
        assert_eq!(s.total_len(), 32);
        assert_eq!(runs(&s), ranges(&[(0, 8), (16, 24), (40, 48), (64, 72)]));
        // The greedy pairs [0, 8) with [16, 24) (stride 16), so 40 opens
        // the next train.
        assert_eq!(
            s.trains(),
            [Train::new(0, 8, 16, 2), Train::new(40, 8, 24, 2)]
        );
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
            for run in slice.iter() {
                for unit_idx in run.start / unit..=(run.end - 1) / unit {
                    assert_eq!(unit_idx % shards, shard, "byte on wrong shard");
                }
            }
            total += slice.total_len();
            rebuilt = rebuilt.union(&slice);
        }
        assert_eq!(total, s.total_len(), "slices must not overlap");
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn shard_slice_single_shard_is_identity() {
        let s = comb(7, 5, 32, 6);
        assert_eq!(s.shard_slice(64, 1, 0), s);
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
                assert_eq!(slice, s);
            } else {
                assert!(slice.is_empty(), "shard {shard}: {slice}");
            }
        }
    }

    #[test]
    fn a_contested_band_stays_three_combs() {
        // Three equal windows a row, equally spaced: the greedy makes one
        // three-run train a row, and the fold restores the three columns.
        let band = [2040, 4088, 6136].map(|start| comb(start, 16, 8192, 512));
        let s = band[0].union(&band[1]).union(&band[2]);
        let columns = band.map(|b| b.trains()[0]);
        assert_eq!(s.trains(), columns);
        assert_eq!(StridedSet::from_disjoint_trains(columns.to_vec()), s);
    }

    #[test]
    fn a_fold_behind_a_split_train_waits_its_turn() {
        // The comb's runs from 10 on wait as a remainder while the fold at
        // 5 and 7 comes next in the input: the fold must not jump them.
        let trains = [(0, 10, 5), (5, 100, 3), (7, 100, 3)]
            .map(|(start, stride, count)| Train::new(start, 1, stride, count));
        let s = StridedSet::from_disjoint_trains(trains.to_vec());
        let mut want: Vec<ByteRange> = trains.iter().flat_map(Train::runs).collect();
        want.sort_unstable();
        assert_eq!(runs(&s), want);
        // The greedy's cut of runs 0, 5, 7, 10, 20, 30, 40, 105, 107, 205,
        // 207; two repeats of a pair save no train, so nothing folds.
        assert_eq!(
            s.trains(),
            [(0, 5, 2), (7, 3, 2), (20, 10, 3), (105, 2, 2), (205, 2, 2)]
                .map(|(start, stride, count)| Train::new(start, 1, stride, count))
        );
    }

    #[test]
    fn a_comb_splits_off_its_first_run_only_into_a_pair() {
        // Runs 0, 10, 20 then a comb at 24, 34, 44: the greedy takes 24 into
        // the stride-10 train only if it continues it — it does not, so the
        // first train closes at 20 and the comb stays whole.
        let s = comb(0, 2, 10, 3).union(&comb(24, 2, 10, 3));
        assert_eq!(
            s.trains(),
            [Train::new(0, 2, 10, 3), Train::new(24, 2, 10, 3)]
        );
        // A lone run before a comb pairs with its first run, and the comb's
        // remainder opens the next train.
        let s = comb(0, 2, 2, 1).union(&comb(5, 2, 10, 4));
        assert_eq!(
            s.trains(),
            [Train::new(0, 2, 5, 2), Train::new(15, 2, 10, 3)]
        );
    }

    #[test]
    fn from_ranges_merges_unsorted_touching_and_empty_ranges() {
        // Unsorted, overlapping, touching and empty ranges.
        let soup = ranges(&[
            (20, 25),
            (0, 5),
            (3, 9),
            (9, 12),
            (30, 30),
            (21, 22),
            (50, 90),
        ]);
        let s = StridedSet::from_ranges(soup);
        assert_eq!(runs(&s), ranges(&[(0, 12), (20, 25), (50, 90)]));
        assert!(StridedSet::from_ranges(ranges(&[(4, 4)])).is_empty());
        // Equal runs at a fixed stride compress, whatever order they came in.
        let s = StridedSet::from_ranges(ranges(&[(20, 25), (10, 15), (0, 5), (30, 31)]));
        assert_eq!(
            s.trains(),
            [Train::new(0, 5, 10, 3), Train::new(30, 1, 1, 1)]
        );
    }
}
