// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet, VecDeque};

use atomio_interval::{ByteRange, RunMap};
use atomio_vtime::MemCost;

/// Client cache behaviour knobs.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Whether the client caches at all (direct I/O when false).
    pub enabled: bool,
    /// Cache page size in bytes.
    pub page_size: u64,
    /// Extra pages prefetched past a read miss (read-ahead window).
    pub read_ahead_pages: u64,
    /// Dirty-byte threshold that triggers a write-behind flush.
    pub write_behind_limit: u64,
    /// Maximum bytes of cached pages; clean pages are evicted FIFO beyond it.
    pub max_bytes: u64,
    /// Local memory copy bandwidth (cache-hit cost).
    pub mem: MemCost,
}

impl CacheParams {
    /// NFS-flavoured client caching: aggressive read-ahead & write-behind
    /// (the ENFS behaviour the paper calls out in §3).
    pub(crate) fn nfs_like() -> Self {
        CacheParams {
            enabled: true,
            page_size: 32 * 1024,
            read_ahead_pages: 4,
            write_behind_limit: 1024 * 1024,
            max_bytes: 64 * 1024 * 1024,
            mem: MemCost::new(400.0e6),
        }
    }

    /// Local/direct-attached file system (XFS on the Origin2000).
    pub(crate) fn local_fs() -> Self {
        CacheParams {
            enabled: true,
            page_size: 16 * 1024,
            read_ahead_pages: 2,
            write_behind_limit: 4 * 1024 * 1024,
            max_bytes: 128 * 1024 * 1024,
            mem: MemCost::new(800.0e6),
        }
    }

    /// GPFS-flavoured client caching.
    pub(crate) fn gpfs_like() -> Self {
        CacheParams {
            enabled: true,
            page_size: 256 * 1024,
            read_ahead_pages: 2,
            write_behind_limit: 8 * 1024 * 1024,
            max_bytes: 128 * 1024 * 1024,
            mem: MemCost::new(600.0e6),
        }
    }

    /// Tiny pages and thresholds for unit tests.
    pub(crate) fn test_small() -> Self {
        CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 4 * 1024,
            max_bytes: 64 * 1024,
            mem: MemCost::new(1.0e9),
        }
    }
}

/// One client's page cache for one file.
///
/// Pure data structure: all *timing* (what a miss costs, when write-behind
/// flushes) is charged by [`PosixFile`](crate::PosixFile), which also moves
/// bytes between the cache and the simulated servers. Validity and
/// dirtiness are tracked byte-accurately as run maps over absolute file
/// offsets, so partial-page writes never fabricate data.
#[derive(Debug)]
pub struct ClientCache {
    params: CacheParams,
    pages: HashMap<u64, Box<[u8]>>,
    /// Approximate-FIFO eviction queue of resident pages. Entries are lazy:
    /// a page dropped by `invalidate_range` leaves a tombstone that is
    /// skipped (and discarded) when it reaches the front, and a page that is
    /// dirty or protected when popped gets a second chance at the back
    /// instead of an O(len) mid-queue removal — which keeps each eviction
    /// pass linear in the pages it visits, not quadratic.
    fifo: VecDeque<u64>,
    /// The bytes whose cached contents are usable, and the subset of them
    /// not yet written back: state grown write by write, so run maps whose
    /// touching runs always join — a flush drains maximal runs.
    valid: RunMap<()>,
    dirty: RunMap<()>,
    /// Lock-driven coherence's token coverage: the bytes this client may
    /// cache, under the pages' own mutex. Grown by grants, shrunk by
    /// revocations, one run at a time; empty on close-to-open platforms.
    pub(crate) coverage: RunMap<()>,
    /// Total eviction-loop iterations ever run (diagnostics: the pressure
    /// test asserts this stays linear in the pages inserted).
    #[cfg(test)]
    evict_scan_steps: u64,
}

impl ClientCache {
    pub fn new(params: CacheParams) -> Self {
        ClientCache {
            params,
            pages: HashMap::new(),
            fifo: VecDeque::new(),
            valid: RunMap::default(),
            dirty: RunMap::default(),
            coverage: RunMap::default(),
            #[cfg(test)]
            evict_scan_steps: 0,
        }
    }

    pub(crate) fn params(&self) -> &CacheParams {
        &self.params
    }

    pub fn dirty_bytes(&self) -> u64 {
        bytes(&self.dirty)
    }

    /// Bytes whose cached contents are usable (byte-accurate, may be less
    /// than [`ClientCache::resident_bytes`] when pages are partially valid).
    pub fn valid_bytes(&self) -> u64 {
        bytes(&self.valid)
    }

    /// Memory footprint of the cache at **page granularity**: every
    /// resident page counts at full `page_size`, however few of its bytes
    /// are valid — this is the real memory the page pins, and the unit the
    /// `max_bytes` residency cap is enforced in (rounded up to whole pages,
    /// so a partially-valid tail page never triggers a spurious eviction
    /// against a byte-exact cap). Use [`ClientCache::valid_bytes`] for the
    /// byte-accurate usable-contents view.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * self.params.page_size
    }

    /// Buffer a write; marks the range dirty+valid. Returns true if the
    /// write-behind threshold is now exceeded (caller should flush).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> bool {
        self.copy_in(offset, data);
        let r = ByteRange::at(offset, data.len() as u64);
        self.valid.insert(r, ());
        self.dirty.insert(r, ());
        // The written range is dirty, so eviction cannot touch it.
        self.evict_clean(None);
        self.dirty_bytes() > self.params.write_behind_limit
    }

    /// The sub-ranges of `[offset, offset+len)` not present in cache,
    /// ascending.
    pub fn missing(&self, offset: u64, len: u64) -> Vec<ByteRange> {
        self.valid.gaps(ByteRange::at(offset, len))
    }

    /// Expand a missing range to page boundaries plus the read-ahead window
    /// — what a real client would actually fetch on this miss — clamped to
    /// the server file size `eof`: bytes past EOF don't exist, so they must
    /// not be fetched, charged for, or marked resident (the caller treats
    /// the beyond-EOF part of the miss as a zero hole instead). The result
    /// may be empty (miss entirely past EOF).
    pub(crate) fn fetch_window(&self, miss: ByteRange, eof: u64) -> ByteRange {
        let ps = self.params.page_size;
        let start = miss.start / ps * ps;
        let end = (miss.end).div_ceil(ps) * ps + self.params.read_ahead_pages * ps;
        ByteRange::new(start, end.min(eof).max(start))
    }

    /// Install bytes fetched from the servers. Dirty bytes are *not*
    /// overwritten (local modifications win until flushed).
    pub fn fill(&mut self, offset: u64, data: &[u8]) {
        let installed = ByteRange::at(offset, data.len() as u64);
        self.fill_deferred(offset, data);
        // Protect the range just installed: its pages sit at the FIFO tail
        // and are clean, so an unprotected pass over a dirty-heavy cache
        // would evict them before the caller's immediately following read.
        self.evict_clean(Some(installed));
    }

    /// [`ClientCache::fill`] without the eviction pass — the multi-fill
    /// read path: one read can fill several misses and then copy the
    /// *whole* request out, so evicting between fills could drop a page an
    /// earlier part of the same request already hit (protecting only the
    /// current fill is not enough). The caller runs
    /// [`ClientCache::enforce_cap`] once, after its closing copy-out;
    /// residency may transiently exceed the cap in between.
    pub(crate) fn fill_deferred(&mut self, offset: u64, data: &[u8]) {
        let installed = ByteRange::at(offset, data.len() as u64);
        for r in self.dirty.gaps(installed) {
            let rel = (r.start - offset) as usize;
            self.copy_in(r.start, &data[rel..rel + r.len() as usize]);
            self.valid.insert(r, ());
        }
    }

    /// Evict clean pages FIFO down to the residency cap — the deferred
    /// half of [`ClientCache::fill_deferred`]. Cheap no-op under the cap.
    /// Returns the page-granular bytes evicted (0 when already under it).
    pub(crate) fn enforce_cap(&mut self) -> u64 {
        let before = self.resident_bytes();
        self.evict_clean(None);
        before.saturating_sub(self.resident_bytes())
    }

    /// Copy cached bytes out; caller must have ensured residency via
    /// `missing`/`fill`. Panics on a non-resident range (programming error).
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let want = ByteRange::at(offset, buf.len() as u64);
        assert!(
            self.valid.holds(want, &()),
            "cache read of non-resident range {want}"
        );
        self.copy_out(offset, buf);
    }

    /// Drain dirty data as `(offset, bytes)` runs for the flusher. Dirty
    /// ranges become clean (but stay valid/resident).
    pub fn take_dirty_runs(&mut self) -> Vec<(u64, Vec<u8>)> {
        let dirty = std::mem::take(&mut self.dirty);
        dirty
            .iter()
            .map(|(r, ())| {
                let mut buf = vec![0u8; r.len() as usize];
                self.copy_out(r.start, &mut buf);
                (r.start, buf)
            })
            .collect()
    }

    /// Drain the dirty data intersecting `r` as `(offset, bytes)` runs for
    /// the flusher — the range-accurate counterpart of
    /// [`ClientCache::take_dirty_runs`], used by lock-driven coherence to
    /// flush exactly a revoked byte set. The drained bytes become clean but
    /// stay valid/resident; dirty data outside `r` is untouched.
    pub fn take_dirty_runs_in(&mut self, r: ByteRange) -> Vec<(u64, Vec<u8>)> {
        let runs: Vec<(u64, Vec<u8>)> = self
            .dirty
            .runs_meeting(r)
            .filter_map(|(run, ())| run.intersect(&r))
            .map(|run| {
                let mut buf = vec![0u8; run.len() as usize];
                self.copy_out(run.start, &mut buf);
                (run.start, buf)
            })
            .collect();
        self.dirty.remove(r);
        runs
    }

    /// Drop every clean page (close-to-open invalidation). Dirty data must
    /// have been flushed first; panics otherwise to catch protocol bugs.
    pub fn invalidate(&mut self) {
        assert!(
            self.dirty.is_empty(),
            "invalidate with {} dirty bytes — flush first",
            self.dirty_bytes()
        );
        self.pages.clear();
        self.fifo.clear();
        self.valid = RunMap::default();
    }

    /// Byte-accurate invalidation: drop validity for exactly `r`, releasing
    /// any page left with no valid byte. Dirty bytes inside `r` must have
    /// been flushed (or discarded) first; panics otherwise, like
    /// [`ClientCache::invalidate`]. Returns the number of previously-valid
    /// bytes invalidated — the coherence cost the stats layer charges.
    pub fn invalidate_range(&mut self, r: ByteRange) -> u64 {
        assert!(
            !meets(&self.dirty, r),
            "invalidate_range({r}) overlaps dirty data — flush first"
        );
        let dropped: u64 = self
            .valid
            .runs_meeting(r)
            .filter_map(|(run, ())| run.intersect(&r))
            .map(|run| run.len())
            .sum();
        if dropped == 0 {
            return 0; // nothing resident there: no page sweep
        }
        self.valid.remove(r);
        // Release pages the range fully de-validated. Their queue entries
        // become tombstones, skipped lazily by `evict_clean`. Sweep the
        // *resident* pages, not the range's page indices: a whole-file-span
        // revocation may cover billions of page slots but only O(resident)
        // pages can possibly be released.
        let ps = self.params.page_size;
        let (first, last) = (r.start / ps, (r.end - 1) / ps);
        let valid = &self.valid;
        self.pages.retain(|&page, _| {
            page < first || page > last || meets(valid, ByteRange::at(page * ps, ps))
        });
        self.compact_fifo_if_bloated();
        dropped
    }

    /// Drop the whole cache — pages, validity, coverage **and dirty
    /// data** — without flushing anything. The superseded-handle path: a
    /// handle whose coherence registration was replaced by a re-open must
    /// stop trusting (and stop owing) every cached byte, exactly like
    /// closing a POSIX fd without fsync discards its unsynced write-behind
    /// data.
    pub(crate) fn discard_all(&mut self) {
        self.pages.clear();
        self.fifo.clear();
        self.valid = RunMap::default();
        self.dirty = RunMap::default();
        self.coverage = RunMap::default();
    }

    /// Drop `r` from the cache entirely, **discarding** (not flushing) any
    /// dirty bytes inside it. For callers that just overwrote `r` on the
    /// servers through an uncached path (e.g. an atomic list-I/O write):
    /// the discarded write-behind data was logically superseded, and the
    /// cached copy is now stale. Returns the valid bytes dropped.
    pub(crate) fn discard_range(&mut self, r: ByteRange) -> u64 {
        self.dirty.remove(r);
        self.invalidate_range(r)
    }

    fn page_of(&self, offset: u64) -> u64 {
        offset / self.params.page_size
    }

    fn copy_in(&mut self, offset: u64, data: &[u8]) {
        let ps = self.params.page_size as usize;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor as u64;
            let page = self.page_of(abs);
            let in_page = (abs % self.params.page_size) as usize;
            let take = (data.len() - cursor).min(ps - in_page);
            let buf = match self.pages.entry(page) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.fifo.push_back(page);
                    e.insert(vec![0u8; ps].into_boxed_slice())
                }
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            };
            buf[in_page..in_page + take].copy_from_slice(&data[cursor..cursor + take]);
            cursor += take;
        }
    }

    fn copy_out(&self, offset: u64, buf: &mut [u8]) {
        let ps = self.params.page_size as usize;
        let mut cursor = 0usize;
        while cursor < buf.len() {
            let abs = offset + cursor as u64;
            let page = self.page_of(abs);
            let in_page = (abs % self.params.page_size) as usize;
            let take = (buf.len() - cursor).min(ps - in_page);
            match self.pages.get(&page) {
                Some(data) => {
                    buf[cursor..cursor + take].copy_from_slice(&data[in_page..in_page + take])
                }
                None => buf[cursor..cursor + take].fill(0),
            }
            cursor += take;
        }
    }

    /// Evict clean pages in approximate FIFO order while the page-granular
    /// footprint exceeds the residency cap (rounded up to whole pages).
    ///
    /// Pages overlapping `protect` — the range a `fill` just installed —
    /// are never evicted: they sit clean at the queue tail, and dropping
    /// them would make the caller's immediately following `read` panic.
    /// Unevictable pages (dirty or protected) are rotated to the back
    /// rather than removed mid-queue, and each call visits every queue
    /// entry at most once, so a pass is O(visited), keeping sustained
    /// eviction linear overall (see `evict_scan_steps`).
    fn evict_clean(&mut self, protect: Option<ByteRange>) {
        let ps = self.params.page_size;
        let cap = self.params.max_bytes.div_ceil(ps) * ps;
        let mut budget = self.fifo.len();
        while self.resident_bytes() > cap && budget > 0 {
            budget -= 1;
            #[cfg(test)]
            {
                self.evict_scan_steps += 1;
            }
            let Some(page) = self.fifo.pop_front() else {
                break;
            };
            if !self.pages.contains_key(&page) {
                continue; // tombstone of an invalidated page
            }
            let range = ByteRange::at(page * ps, ps);
            if meets(&self.dirty, range) || protect.is_some_and(|p| range.overlaps(&p)) {
                self.fifo.push_back(page); // unevictable: second chance
                continue;
            }
            self.pages.remove(&page);
            self.valid.remove(range);
        }
    }

    /// Rebuild the eviction queue when tombstones outnumber live pages —
    /// keeps the queue O(resident pages) under invalidate/refill churn.
    /// The newest entry for each live page wins, preserving arrival order.
    fn compact_fifo_if_bloated(&mut self) {
        if self.fifo.len() <= 2 * self.pages.len() + 8 {
            return;
        }
        let mut seen: HashSet<u64> = HashSet::with_capacity(self.pages.len());
        let mut rebuilt: VecDeque<u64> = VecDeque::with_capacity(self.pages.len());
        for &page in self.fifo.iter().rev() {
            if self.pages.contains_key(&page) && seen.insert(page) {
                rebuilt.push_front(page);
            }
        }
        self.fifo = rebuilt;
    }
}

/// The bytes a byte-set run map holds.
fn bytes(set: &RunMap<()>) -> u64 {
    set.iter().map(|(run, ())| run.len()).sum()
}

/// Whether a byte-set run map holds any byte of `r`.
fn meets(set: &RunMap<()>, r: ByteRange) -> bool {
    set.runs_meeting(r).next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ClientCache {
        ClientCache::new(CacheParams::test_small())
    }

    #[test]
    fn write_then_read_hits() {
        let mut c = cache();
        let spilled = c.write(100, b"hello");
        assert!(!spilled);
        assert!(c.missing(100, 5).is_empty());
        let mut buf = [0u8; 5];
        c.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
        assert_eq!(c.dirty_bytes(), 5);
    }

    #[test]
    fn missing_reports_gaps() {
        let mut c = cache();
        c.write(0, &[1u8; 10]);
        c.write(20, &[2u8; 10]);
        let miss = c.missing(0, 30);
        assert_eq!(miss, vec![ByteRange::new(10, 20)]);
    }

    #[test]
    fn fill_does_not_clobber_dirty() {
        let mut c = cache();
        c.write(5, b"LOCAL");
        // Server fetch of the surrounding page delivers stale bytes.
        c.fill(0, &[9u8; 20]);
        let mut buf = [0u8; 20];
        c.read(0, &mut buf);
        assert_eq!(&buf[0..5], &[9u8; 5]);
        assert_eq!(&buf[5..10], b"LOCAL");
        assert_eq!(&buf[10..20], &[9u8; 10]);
    }

    #[test]
    fn write_behind_threshold_signals_flush() {
        let mut c = cache();
        assert!(!c.write(0, &vec![1u8; 4096]));
        assert!(c.write(4096, &[1u8; 1]), "crossing the limit must signal");
    }

    #[test]
    fn take_dirty_runs_coalesces_and_cleans() {
        let mut c = cache();
        c.write(0, &[1u8; 100]);
        c.write(100, &[2u8; 100]); // adjacent: one run
        c.write(500, &[3u8; 10]);
        let runs = c.take_dirty_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1.len(), 200);
        assert_eq!(runs[1].0, 500);
        assert_eq!(c.dirty_bytes(), 0);
        // Still valid (readable) after flush.
        assert!(c.missing(0, 200).is_empty());
    }

    #[test]
    fn invalidate_drops_clean_data() {
        let mut c = cache();
        c.write(0, &[1u8; 50]);
        let _ = c.take_dirty_runs();
        c.invalidate();
        assert_eq!(c.valid_bytes(), 0);
        assert_eq!(c.missing(0, 50), vec![ByteRange::new(0, 50)]);
    }

    #[test]
    #[should_panic(expected = "flush first")]
    fn invalidate_with_dirty_panics() {
        let mut c = cache();
        c.write(0, &[1u8; 10]);
        c.invalidate();
    }

    #[test]
    fn fetch_window_page_aligns_and_reads_ahead() {
        let c = cache(); // 1 KiB pages, 2 pages read-ahead
        let w = c.fetch_window(ByteRange::new(1500, 1600), u64::MAX);
        assert_eq!(w, ByteRange::new(1024, 2048 + 2048));
    }

    #[test]
    fn fetch_window_clamps_at_eof() {
        let c = cache(); // 1 KiB pages, 2 pages read-ahead
                         // EOF mid-window: page alignment + read-ahead must not run past it.
        let w = c.fetch_window(ByteRange::new(1500, 1600), 1700);
        assert_eq!(w, ByteRange::new(1024, 1700));
        // EOF inside the miss itself: only the existing bytes are fetched.
        let w = c.fetch_window(ByteRange::new(1500, 1600), 1550);
        assert_eq!(w, ByteRange::new(1024, 1550));
        // Miss entirely past EOF: nothing to fetch at all.
        let w = c.fetch_window(ByteRange::new(1500, 1600), 800);
        assert!(w.is_empty());
        assert_eq!(w.start, 1024, "empty window still anchors the hole fill");
    }

    #[test]
    fn eviction_respects_cap_and_dirty_pages() {
        let mut c = cache(); // cap 64 KiB, page 1 KiB
                             // Fill 80 KiB of CLEAN data via fill().
        for i in 0..80u64 {
            c.fill(i * 1024, &[7u8; 1024]);
        }
        assert!(c.resident_bytes() <= 64 * 1024);
        // Dirty data is never evicted.
        let mut c2 = cache();
        c2.write(0, &[1u8; 1024]);
        for i in 1..80u64 {
            c2.fill(i * 1024, &[7u8; 1024]);
        }
        assert_eq!(c2.dirty_bytes(), 1024);
        let mut buf = [0u8; 4];
        c2.read(0, &mut buf);
        assert_eq!(buf, [1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn reading_unfetched_range_panics() {
        let c = cache();
        let mut buf = [0u8; 4];
        c.read(0, &mut buf);
    }

    #[test]
    fn fill_into_dirty_full_cache_keeps_installed_range_readable() {
        // Regression: with the cache at its residency cap and every earlier
        // FIFO page dirty, the only evictable page used to be the one
        // `fill()` itself just installed (clean, at the FIFO tail) — so the
        // immediately following `read` panicked with "cache read of
        // non-resident range". The in-flight range is now protected.
        let mut c = cache(); // cap 64 KiB, page 1 KiB
        for i in 0..64u64 {
            c.write(i * 1024, &[1u8; 1024]); // 64 dirty, unflushed pages
        }
        assert_eq!(c.pages.len(), 64);
        c.fill(100 * 1024, &[7u8; 1024]); // 65th page: over cap, all else dirty
        let mut buf = [0u8; 1024];
        c.read(100 * 1024, &mut buf); // must not panic
        assert_eq!(buf, [7u8; 1024]);
        // Dirty data was not sacrificed either.
        assert_eq!(c.dirty_bytes(), 64 * 1024);
    }

    #[test]
    fn sustained_eviction_pressure_stays_linear() {
        // A dirty prefix plus a long stream of clean fills: the old
        // Vec-scan rescanned every dirty page (and memmoved the FIFO) per
        // eviction, O(pages²) overall. The rotating VecDeque visits each
        // entry O(1) amortized; assert the scan-step counter stays linear.
        let mut c = cache(); // cap 64 pages
        let dirty_pages = 48u64;
        for i in 0..dirty_pages {
            c.write(i * 1024, &[1u8; 1024]);
        }
        let fills = 2048u64;
        for i in 0..fills {
            c.fill((dirty_pages + i) * 1024, &[2u8; 1024]);
        }
        assert!(c.resident_bytes() <= 64 * 1024);
        let steps = c.evict_scan_steps;
        assert!(
            steps <= 4 * (fills + dirty_pages),
            "eviction scanned {steps} entries for {fills} fills — quadratic rescan"
        );
    }

    #[test]
    fn partial_tail_page_does_not_trigger_spurious_eviction() {
        // Residency is accounted at page granularity (the memory a page
        // really pins) and the cap is enforced in whole pages, so a
        // partially-valid tail page fitting the last fraction of the cap
        // does not evict a warm page.
        let params = CacheParams {
            max_bytes: 2 * 1024 + 512, // 2.5 pages
            ..CacheParams::test_small()
        };
        let mut c = ClientCache::new(params);
        c.fill(0, &[1u8; 1024]);
        c.fill(1024, &[2u8; 1024]);
        c.fill(2048, &[3u8; 512]); // partial tail page: 2.5 pages of data
        assert_eq!(c.pages.len(), 3, "no spurious eviction");
        assert_eq!(c.resident_bytes(), 3 * 1024, "page-granular footprint");
        assert_eq!(c.valid_bytes(), 2 * 1024 + 512, "byte-accurate validity");
        assert!(c.missing(0, 2 * 1024 + 512).is_empty());
        // A fourth full page genuinely exceeds the whole-page cap: evict.
        c.fill(4096, &[4u8; 1024]);
        assert_eq!(c.pages.len(), 3);
    }

    #[test]
    fn take_dirty_runs_in_drains_exactly_the_range() {
        let mut c = cache();
        c.write(0, &[1u8; 100]);
        c.write(500, &[2u8; 100]);
        let runs = c.take_dirty_runs_in(ByteRange::new(50, 560));
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].0, runs[0].1.len()), (50, 50));
        assert_eq!((runs[1].0, runs[1].1.len()), (500, 60));
        assert_eq!(runs[1].1, vec![2u8; 60]);
        // Outside the range stays dirty; everything stays valid.
        assert_eq!(c.dirty_bytes(), 50 + 40);
        assert!(c.missing(0, 100).is_empty());
        assert!(c.take_dirty_runs_in(ByteRange::new(2000, 3000)).is_empty());
    }

    #[test]
    fn invalidate_range_is_byte_accurate_and_releases_empty_pages() {
        let mut c = cache(); // 1 KiB pages
        c.fill(0, &[7u8; 4 * 1024]);
        assert_eq!(c.pages.len(), 4);
        // Invalidate the middle two pages plus a sliver of the last.
        let dropped = c.invalidate_range(ByteRange::new(1024, 3072 + 100));
        assert_eq!(dropped, 2 * 1024 + 100);
        assert_eq!(c.pages.len(), 2, "fully-invalid pages released");
        assert!(c.missing(0, 1024).is_empty(), "first page stays warm");
        assert_eq!(c.missing(1024, 2048), vec![ByteRange::at(1024, 2048)]);
        // The partially-invalidated last page keeps its valid tail.
        assert!(c.missing(3072 + 100, 1024 - 100).is_empty());
        let mut buf = [0u8; 4];
        c.read(0, &mut buf);
        assert_eq!(buf, [7u8; 4]);
        // Idempotent on already-invalid / empty ranges.
        assert_eq!(c.invalidate_range(ByteRange::new(1024, 2048)), 0);
        assert_eq!(c.invalidate_range(ByteRange::new(10, 10)), 0);
    }

    #[test]
    fn invalidate_of_a_huge_range_is_linear_in_resident_pages() {
        // Regression: the page-release sweep iterated every page *index*
        // in the invalidated range, so a whole-file-span revocation
        // (coverage can be terabytes) looped effectively forever. It now
        // sweeps the O(resident) page table instead — this completes
        // instantly or times the suite out.
        let mut c = cache();
        c.fill(0, &[7u8; 1024]);
        c.fill(10 * 1024, &[8u8; 1024]);
        let dropped = c.invalidate_range(ByteRange::new(0, 1 << 50));
        assert_eq!(dropped, 2 * 1024);
        assert_eq!(c.pages.len(), 0);
        // Partial overlap of a huge range keeps the untouched page.
        c.fill(0, &[7u8; 1024]);
        c.fill(10 * 1024, &[8u8; 1024]);
        let dropped = c.invalidate_range(ByteRange::new(1024, 1 << 50));
        assert_eq!(dropped, 1024);
        assert_eq!(c.pages.len(), 1);
        let mut buf = [0u8; 4];
        c.read(0, &mut buf);
        assert_eq!(buf, [7u8; 4]);
    }

    #[test]
    fn deferred_fills_evict_nothing_until_enforce_cap() {
        let mut c = cache(); // cap 64 KiB, page 1 KiB
        for i in 0..80u64 {
            c.fill_deferred(i * 1024, &[7u8; 1024]);
        }
        assert_eq!(
            c.pages.len(),
            80,
            "deferred fills may exceed the cap transiently"
        );
        // Every byte is readable before the settling pass.
        let mut buf = vec![0u8; 80 * 1024];
        c.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 7));
        c.enforce_cap();
        assert!(c.resident_bytes() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "flush first")]
    fn invalidate_range_with_dirty_overlap_panics() {
        let mut c = cache();
        c.write(100, &[1u8; 10]);
        c.invalidate_range(ByteRange::new(0, 200));
    }

    #[test]
    fn discard_range_drops_dirty_without_flushing() {
        let mut c = cache();
        c.write(0, &[1u8; 100]);
        c.write(500, &[2u8; 10]);
        let dropped = c.discard_range(ByteRange::new(0, 100));
        assert_eq!(dropped, 100);
        assert_eq!(c.dirty_bytes(), 10, "other dirty data untouched");
        assert_eq!(c.missing(0, 100), vec![ByteRange::at(0, 100)]);
    }

    #[test]
    fn fifo_tombstones_are_compacted_under_churn() {
        // Invalidate/refill churn must not grow the eviction queue beyond
        // O(resident pages).
        let mut c = cache();
        for round in 0..200u64 {
            let base = (round % 8) * 1024;
            c.fill(base, &[round as u8; 1024]);
            c.invalidate_range(ByteRange::at(base, 1024));
        }
        assert_eq!(c.pages.len(), 0);
        // Refill and evict normally afterwards: the queue still works.
        for i in 0..80u64 {
            c.fill(i * 1024, &[9u8; 1024]);
        }
        assert!(c.resident_bytes() <= 64 * 1024);
        let mut buf = [0u8; 4];
        c.read(79 * 1024, &mut buf);
        assert_eq!(buf, [9u8; 4]);
    }
}
