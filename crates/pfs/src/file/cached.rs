//! The cached path: write-behind, read-ahead, `sync` and invalidation,
//! under close-to-open or lock-driven coherence.

use std::sync::atomic::Ordering;

use atomio_interval::ByteRange;
use atomio_trace::Category;
use atomio_vtime::VNanos;

use super::{carve, PosixFile};
use crate::cache::ClientCache;
use crate::error::FsError;
use crate::fault::{FaultAction, FaultSite};
use crate::server::ServerOp;

impl PosixFile {
    /// The coverage cut of a cached segment: the piece of `[*at, end)` from
    /// `*at`, with the maximal coverage run holding it (`None`: uncovered,
    /// so the servers', never the cache's), and `*at` moved past it. Off
    /// lock-driven platforms one run covers every byte; with the cache
    /// disabled none does.
    fn cut(
        &self,
        cache: &ClientCache,
        at: &mut u64,
        end: u64,
    ) -> Option<(ByteRange, Option<ByteRange>)> {
        let rest = ByteRange::new(*at, end);
        let run = match (self.fs.profile.cache.enabled, self.lock_driven()) {
            _ if rest.is_empty() => return None,
            (false, _) => None,
            (true, false) => Some(ByteRange::new(0, u64::MAX)),
            (true, true) => cache.coverage.runs_meeting(rest).next().map(|(r, _)| r),
        };
        let piece = match run {
            Some(r) if r.start <= *at => (ByteRange::new(*at, r.end.min(end)), run),
            _ => (ByteRange::new(*at, run.map_or(end, |r| r.start)), None),
        };
        *at = piece.0.end;
        Some(piece)
    }

    /// The uncovered pieces of the segment of `len` bytes at `off`, by
    /// [`PosixFile::cut`].
    fn gaps<'a>(
        &'a self,
        cache: &'a ClientCache,
        off: u64,
        len: usize,
    ) -> impl Iterator<Item = ByteRange> + 'a {
        let (mut at, end) = (off, off + len as u64);
        let cut = std::iter::from_fn(move || self.cut(cache, &mut at, end));
        cut.filter_map(|(r, run)| run.is_none().then_some(r))
    }

    /// One segment of a cached [`PosixFile::write`], under one hold of the
    /// cache mutex, the coherence point a revocation takes before shrinking
    /// coverage. Its uncovered bytes leave first, as one closed-loop vector,
    /// and the cache drops its stale clean copies of them (it holds no
    /// dirty byte outside coverage). Then the covered pieces are buffered,
    /// and flushed under the same hold if they cross the write-behind
    /// limit; they may stay dirty until a conflicting acquisition revokes
    /// the token.
    pub(super) fn pwrite_cached(&self, off: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_alive()?;
        let mut cache = self.cache.lock();
        let gaps = self.gaps(&cache, off, data.len());
        let slice = |r: ByteRange| &data[(r.start - off) as usize..][..r.len() as usize];
        self.pwritev_landed(gaps.map(|r| (r.start, slice(r)))).1?;
        let (mut at, end, mut needs_flush) = (off, off + data.len() as u64, false);
        while let Some((r, run)) = self.cut(&cache, &mut at, end) {
            if run.is_none() {
                cache.invalidate_range(r);
            } else {
                needs_flush |= self.pwrite_buffered_locked(&mut cache, r.start, slice(r));
            }
        }
        // The flush `try_sync` makes, under the hold this call has.
        let runs = needs_flush.then(|| cache.take_dirty_runs());
        let res = self.flush_runs(runs.unwrap_or_default());
        drop(cache);
        self.settle_fate(res)
    }

    /// Buffer one write into an already-locked cache; returns whether the
    /// write-behind threshold was crossed.
    fn pwrite_buffered_locked(&self, cache: &mut ClientCache, offset: u64, data: &[u8]) -> bool {
        self.clock
            .advance(cache.params().mem.copy_ns(data.len() as u64));
        let needs_flush = cache.write(offset, data);
        self.tracer.instant(
            Category::Cache,
            "cached write",
            self.clock.now(),
            &[("off", offset), ("bytes", data.len() as u64)],
        );
        self.stats.add(&self.stats.writes, 1);
        self.stats.add(&self.stats.bytes_written, data.len() as u64);
        needs_flush
    }

    /// One segment of a cached [`PosixFile::read`], cut and held as a
    /// write's: its uncovered bytes are read first, as one closed-loop
    /// vector, and never cached; then each covered piece is served by the
    /// cache, its read-ahead clamped to its coverage run. Under lock-driven
    /// coherence covered bytes are valid: a conflicting write must first
    /// revoke the token, which invalidates them.
    pub(super) fn pread_cached(&self, off: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.check_alive()?;
        let mut cache = self.cache.lock();
        let gaps = self.gaps(&cache, off, buf.len());
        self.preadv_landed(carve(buf, off, gaps), true).1?;
        let (mut at, end) = (off, off + buf.len() as u64);
        while let Some((r, run)) = self.cut(&cache, &mut at, end) {
            let Some(run) = run else { continue };
            let dst = &mut buf[(r.start - off) as usize..][..r.len() as usize];
            let hit = self.pread_cached_locked(&mut cache, r.start, dst, run)?;
            if self.lock_driven() {
                self.stats.add(&self.stats.coherent_hit_bytes, hit);
            }
        }
        Ok(())
    }

    /// Serve one read from an already-locked cache: hits from resident
    /// pages, misses fetched with page alignment and read-ahead, the fetch
    /// window clamped to the coverage run `run`. Returns the bytes served
    /// from cache.
    fn pread_cached_locked(
        &self,
        cache: &mut ClientCache,
        offset: u64,
        buf: &mut [u8],
        run: ByteRange,
    ) -> Result<u64, FsError> {
        let len = buf.len() as u64;
        let missing = cache.missing(offset, len);
        let missed: u64 = missing.iter().map(ByteRange::len).sum();
        let hit = len - missed;
        self.stats.add(&self.stats.cache_hit_bytes, hit);
        self.stats.add(&self.stats.cache_miss_bytes, missed);
        let (tracer, now) = (&self.tracer, self.clock.now());
        if hit > 0 {
            tracer.instant(Category::Cache, "cache hit", now, &[("bytes", hit)]);
        }
        if !missing.is_empty() {
            let miss = [("bytes", missed)];
            tracer.instant(Category::Cache, "cache miss", now, &miss);
            // Every miss's fetch window is one segment of one closed-loop
            // read, staged back to back in `data`. The window is clamped at
            // the server file size: a real client's EOF-adjacent miss gets a
            // short read, not read-ahead pages of bytes that don't exist.
            let eof = self.file.storage.len();
            let window = |cache: &ClientCache, miss: &ByteRange| {
                // The EOF-clamped window can fall entirely *before* the
                // coverage run (covered miss past a short file): nothing on
                // the servers to fetch, so the whole miss is a zero hole.
                let w = cache.fetch_window(*miss, eof);
                w.intersect(&run)
                    .unwrap_or(ByteRange::new(w.start, w.start))
            };
            let total: u64 = missing.iter().map(|m| window(cache, m).len()).sum();
            let mut data = vec![0u8; total as usize];
            let mut rest = data.as_mut_slice();
            let windows = missing.iter().map(|m| window(cache, m));
            let reads = windows.filter(|w| !w.is_empty()).map(|w| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(w.len() as usize);
                rest = tail;
                (w.start, head)
            });
            let (inj, res) = self.preadv_landed(reads, false);
            if inj.landed > 0 {
                let (end, fill) = (self.clock.now(), [("bytes", inj.bytes)]);
                tracer.span(Category::Cache, "cache fill", inj.t0, end, &fill);
            }
            res?;
            let mut fetched = data.as_slice();
            for miss in missing.iter() {
                // Deferred eviction: the pass runs once after the closing
                // copy-out, so a fill can never drop a page an earlier part
                // of the *same* read already hit.
                let w = window(cache, miss);
                let (bytes, tail) = fetched.split_at(w.len() as usize);
                cache.fill_deferred(w.start, bytes);
                fetched = tail;
                // Any part of the miss past EOF is a hole: the short read
                // proves it empty, so it caches as zeros at no transfer cost
                // (and no virtual time).
                let hole_start = miss.start.max(w.end);
                if hole_start < miss.end {
                    cache.fill_deferred(hole_start, &vec![0u8; (miss.end - hole_start) as usize]);
                }
            }
        }
        self.clock.advance(cache.params().mem.copy_ns(len));
        cache.read(offset, buf);
        self.tracer.instant(
            Category::Cache,
            "cached read",
            self.clock.now(),
            &[("off", offset), ("bytes", len)],
        );
        // The request's pages were pinned (by eviction deferral) for the
        // copy-out above; settle back under the residency cap now.
        let evicted = cache.enforce_cap();
        if evicted > 0 {
            self.tracer.instant(
                Category::Cache,
                "cache evict",
                self.clock.now(),
                &[("bytes", evicted)],
            );
        }
        self.stats.add(&self.stats.reads, 1);
        self.stats.add(&self.stats.bytes_read, len);
        Ok(hit)
    }

    /// Flush write-behind data to the servers (like `fsync`). The paper's
    /// handshaking strategies must call this after writing (§3, strategy 2).
    ///
    /// The cache mutex is held across drain *and* write-back: a concurrent
    /// revocation serializes against the whole flush instead of slipping in
    /// after the drain marked bytes clean — where it would invalidate,
    /// let its acquirer write, and then watch this flush bury the newer
    /// data under the drained copy.
    ///
    /// Under a fault plan the client may die at its own flush site
    /// ([`FaultAction::KillClient`] → [`FsError::Closed`], dirty bytes die
    /// with it), and a flush whose retry budget is spent reports the down
    /// server.
    pub fn try_sync(&self) -> Result<(), FsError> {
        self.check_alive()?;
        let res = {
            let mut cache = self.cache.lock();
            let runs = cache.take_dirty_runs();
            self.flush_runs(runs)
        };
        self.settle_fate(res)
    }

    /// Push drained dirty runs to the servers, charging virtual time.
    /// Under an active fault plan every run goes through the write-ahead
    /// journal ([`PosixFile::flush_run_journaled`]); a scheduled
    /// [`FaultAction::KillClient`] kills the client *before* any byte
    /// moves — the drained runs die with it, per the close-without-fsync
    /// contract. Callers holding the cache mutex must route the result
    /// through [`PosixFile::settle_fate`] after releasing it.
    fn flush_runs(&self, runs: Vec<(u64, Vec<u8>)>) -> Result<(), FsError> {
        if runs.is_empty() {
            return Ok(());
        }
        let faulty = self.fs.faults.active();
        if faulty {
            if let Some(FaultAction::KillClient) = self.fs.faults.check(FaultSite::ClientFlush {
                client: self.client,
            }) {
                let fstats = self.fs.faults.stats();
                fstats.add(&fstats.client_deaths, 1);
                self.stats.add(&self.stats.faults_injected, 1);
                self.dead.store(true, Ordering::Release);
                self.tracer.instant(
                    Category::Fault,
                    "client killed",
                    self.clock.now(),
                    &[("dirty_runs", runs.len() as u64)],
                );
                return Err(FsError::Closed);
            }
        }
        let (inj, res) = self.round_trips(
            ServerOp::Write,
            runs.iter().map(|(off, data)| (*off, data.as_slice())),
            |arrival, range, data| {
                if faulty {
                    return self.flush_run_journaled(arrival, range.start, data);
                }
                let done = self.fs.servers.access(arrival, range, ServerOp::Write);
                self.apply_write(range.start, data);
                Ok(done)
            },
        );
        res?;
        self.tracer.span(
            Category::Cache,
            "flush",
            inj.t0,
            self.clock.now(),
            &[("bytes", inj.bytes)],
        );
        self.stats.add(&self.stats.flushes, 1);
        self.stats.add(&self.stats.flushed_bytes, inj.bytes);
        self.stats
            .add(&self.stats.server_write_requests, inj.server_reqs);
        Ok(())
    }

    /// One write-behind run under the write-ahead protocol (fault plan
    /// active): ship the bytes (retrying through crashes), append the
    /// committed intent record, apply it, mark it applied. A
    /// [`FaultAction::TearRecord`] at the append tears the record and
    /// crashes the home server — the bytes are still in this flusher's
    /// hand, so the run restarts: the retry loop drives the restart
    /// countdown, recovery replay discards the torn record, and the
    /// re-append lands. A crash at the *apply* step instead leaves a
    /// committed-but-unapplied record and still returns success — the
    /// flush became durable the moment the commit did; recovery replay
    /// (or a reader's journal gate) lands it.
    fn flush_run_journaled(
        &self,
        arrival: VNanos,
        off: u64,
        data: &[u8],
    ) -> Result<VNanos, FsError> {
        let range = ByteRange::at(off, data.len() as u64);
        let home = self.fs.servers.server_of(off);
        let inj = &self.fs.faults;
        let mut arrival = arrival;
        loop {
            arrival = self.server_rpc(arrival, range, ServerOp::Write)?;
            match inj.check(FaultSite::JournalAppend { server: home }) {
                Some(FaultAction::TearRecord { restart }) => {
                    self.file.journal.append_torn(off, range.len());
                    let fstats = inj.stats();
                    fstats.add(&fstats.records_torn, 1);
                    self.stats.add(&self.stats.faults_injected, 1);
                    self.fs.servers.crash(home, restart);
                    self.tracer.instant(
                        Category::Fault,
                        "torn journal append",
                        arrival,
                        &[("server", home as u64), ("bytes", range.len())],
                    );
                    continue;
                }
                Some(FaultAction::CrashServer { restart }) => {
                    // Crash *before* the record went down at all: nothing
                    // journaled, nothing torn; the run restarts whole.
                    self.fs.servers.crash(home, restart);
                    continue;
                }
                _ => {}
            }
            let epoch = self.file.journal.append_committed(off, data);
            match inj.check(FaultSite::JournalApply { server: home }) {
                Some(FaultAction::CrashServer { restart })
                | Some(FaultAction::TearRecord { restart }) => {
                    self.fs.servers.crash(home, restart);
                    self.tracer.instant(
                        Category::Fault,
                        "crash before apply",
                        arrival,
                        &[("server", home as u64), ("epoch", epoch)],
                    );
                }
                _ => {
                    self.apply_write(off, data);
                    self.file.journal.mark_applied(epoch);
                }
            }
            return Ok(arrival);
        }
    }

    /// Flush, then drop all cached pages, so the next read fetches fresh
    /// data from the servers (close-to-open consistency; the "cache
    /// invalidation shall also be performed in each process before reading
    /// from the overlapped regions" requirement of §3), with the fault
    /// model of [`PosixFile::try_sync`]. Lock-driven platforms rarely need
    /// this blanket form: a served token revocation flushes and
    /// invalidates exactly the revoked ranges.
    pub fn try_invalidate(&self) -> Result<(), FsError> {
        self.try_sync()?;
        self.cache.lock().invalidate();
        Ok(())
    }

    /// Whether this handle runs lock-driven cache coherence (the platform
    /// selects it and the lock design keeps revocable tokens).
    pub fn lock_driven(&self) -> bool {
        self.fs.profile.lock_driven_coherence()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::*;
    use super::*;
    use crate::fault::RestartPolicy;
    use crate::lock::LockMode;
    use atomio_interval::StridedSet;

    impl PosixFile {
        /// The byte set this client currently holds token-validity rights
        /// over (lock-driven coherence; empty on close-to-open platforms).
        pub(crate) fn coherence_coverage(&self) -> StridedSet {
            let cache = self.cache.lock();
            let runs = cache.coverage.iter().map(|(r, _)| (r.start, r.len()));
            StridedSet::from_sorted_extents(runs)
        }
    }

    #[test]
    fn cached_write_is_invisible_until_sync() {
        let fs = test_fs();
        let writer = fs.open(0, Clock::new(), "a");
        let reader = fs.open(1, Clock::new(), "a");

        writer.write(IoPath::Cached, [(0, b"fresh!")]).unwrap();
        // Write-behind: nothing on the servers yet.
        let mut buf = [0u8; 6];
        reader.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        assert_eq!(
            &buf, &[0u8; 6],
            "write-behind data must not be visible before sync"
        );

        writer.try_sync().unwrap();
        reader.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        assert_eq!(&buf, b"fresh!");
    }

    #[test]
    fn stale_cached_read_until_invalidate() {
        let fs = test_fs();
        let a = fs.open(0, Clock::new(), "a");
        let b = fs.open(1, Clock::new(), "a");

        a.write(IoPath::Direct, [(0, b"old")]).unwrap();
        let mut buf = [0u8; 3];
        b.read(IoPath::Cached, [(0, &mut buf)]).unwrap(); // b now caches "old"
        assert_eq!(&buf, b"old");

        a.write(IoPath::Direct, [(0, b"new")]).unwrap();
        b.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert_eq!(&buf, b"old", "cached page must serve stale data");

        b.try_invalidate().unwrap();
        b.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert_eq!(&buf, b"new", "invalidate must force a fresh fetch");
    }

    #[test]
    fn write_behind_flushes_on_threshold() {
        let fs = test_fs(); // write_behind_limit = 4 KiB in test params
        let f = fs.open(0, Clock::new(), "a");
        f.write(IoPath::Cached, [(0, &vec![1u8; 8 * 1024])])
            .unwrap();
        // Threshold exceeded -> auto flush -> visible to others.
        let g = fs.open(1, Clock::new(), "a");
        let mut buf = vec![0u8; 8 * 1024];
        g.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        assert!(f.stats().snapshot().flushes >= 1);
    }

    #[test]
    fn eof_adjacent_cached_read_fetches_only_existing_bytes() {
        // Regression: the fetch window used to page-align and read ahead
        // past EOF, charging virtual time (and marking pages resident) for
        // bytes that don't exist. 1 KiB pages, 2 pages read-ahead.
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "short");
        f.write(IoPath::Direct, [(0, &[7u8; 100])]).unwrap(); // file is 100 bytes long
        let t0 = f.clock().now();

        let mut buf = [0u8; 100];
        f.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        let clamped_cost = f.clock().now() - t0;

        // The same read against a file long enough for the full 3 KiB
        // window must cost strictly more — the unclamped fetch volume.
        let g = fs.open(1, Clock::new(), "long");
        g.write(IoPath::Direct, [(0, &vec![7u8; 4096])]).unwrap();
        let t0 = g.clock().now();
        g.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        let full_cost = g.clock().now() - t0;
        assert!(
            clamped_cost < full_cost,
            "EOF-clamped fetch ({clamped_cost}) must cost less than a full \
             window ({full_cost})"
        );

        // Read-ahead past EOF must not have marked pages resident: a later
        // read behind EOF is a miss, not a phantom hit.
        let mut tail = [0u8; 50];
        f.read(IoPath::Cached, [(2000, &mut tail)]).unwrap();
        assert_eq!(tail, [0u8; 50]);
        let s = f.stats().snapshot();
        assert_eq!(
            s.cache_miss_bytes, 150,
            "both reads must miss; beyond-EOF read-ahead must not fabricate hits"
        );
    }

    #[test]
    fn cached_read_entirely_past_eof_is_free_zeros() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.write(IoPath::Direct, [(0, b"x")]).unwrap();
        let t0 = f.clock().now();
        let mut buf = [9u8; 16];
        f.read(IoPath::Cached, [(5000, &mut buf)]).unwrap();
        assert_eq!(buf, [0u8; 16]);
        let s = f.stats().snapshot();
        assert_eq!(
            s.server_read_requests, 0,
            "no server fetch for a hole past EOF"
        );
        // Only local memory-copy time may pass, no server/link round trips.
        let mem_only = fs.profile().cache.mem.copy_ns(16);
        assert!(f.clock().now() - t0 <= mem_only);
    }

    #[test]
    fn read_of_hole_returns_zeros() {
        let fs = test_fs();
        let f = fs.open(0, Clock::new(), "a");
        f.write(IoPath::Direct, [(100, b"x")]).unwrap();
        let mut buf = [9u8; 4];
        f.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn lock_driven_reread_is_served_from_cache() {
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "coh");
        let r = ByteRange::new(0, 2048);
        let g = f.lock(r, LockMode::Exclusive).unwrap();
        f.write(IoPath::Cached, [(0, &[7u8; 2048])]).unwrap();
        g.release();
        assert_eq!(f.coherence_coverage().total_len(), 2048);
        // Re-read under a (cheap, token-cached) shared lock: the write
        // left the bytes valid in cache and the token still covers them —
        // zero server read requests, no blanket invalidation anywhere.
        let g = f.lock(r, LockMode::Shared).unwrap();
        let mut buf = [0u8; 2048];
        f.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        g.release();
        assert_eq!(buf, [7u8; 2048]);
        let s = f.stats().snapshot();
        assert_eq!(s.server_read_requests, 0, "re-read must hit the cache");
        assert_eq!(s.coherent_hit_bytes, 2048);
    }

    #[test]
    fn covered_read_past_eof_is_zeros_not_a_panic() {
        // Regression: with token coverage entirely past the (shorter)
        // file, the EOF-clamped fetch window fell *before* the coverage
        // run, and clamping it to the run hit the "miss lies inside its
        // coverage run" expect. The window is now treated as empty and
        // the covered miss caches as a zero hole.
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "eof");
        f.write(IoPath::Direct, [(0, &[7u8; 1200])]).unwrap(); // file length 1200, unaligned
        let g = f
            .lock(ByteRange::new(1500, 2000), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 500];
        f.read(IoPath::Cached, [(1500, &mut buf)]).unwrap(); // covered, wholly past EOF
        g.release();
        assert_eq!(buf, [0u8; 500], "past-EOF covered bytes read as zeros");
        assert_eq!(
            f.stats().snapshot().server_read_requests,
            0,
            "no server fetch for a hole past EOF"
        );
    }

    #[test]
    fn large_read_does_not_evict_its_own_pages_mid_flight() {
        // Regression: one read filling several misses protected only the
        // page range of the *current* fill from eviction, so under cache
        // pressure a later fill could evict pages an earlier part of the
        // same read had already hit — and the closing copy-out panicked
        // with "cache read of non-resident range". Eviction is now
        // deferred until after the copy-out.
        let fs = test_fs(); // cap 64 KiB, 1 KiB pages
        let f = fs.open(0, Clock::new(), "big");
        f.write(IoPath::Direct, [(0, &vec![7u8; 80 * 1024])])
            .unwrap();
        let mut warm = vec![0u8; 64 * 1024];
        f.read(IoPath::Cached, [(0, &mut warm)]).unwrap(); // warm the cache to its cap
        let mut big = vec![0u8; 72 * 1024];
        f.read(IoPath::Cached, [(0, &mut big)]).unwrap(); // head hits + tail fills: must not panic
        assert!(big.iter().all(|&b| b == 7));
        // The cache settled back under its cap after the read.
        assert!(f.cache.lock().resident_bytes() <= 64 * 1024);
    }

    #[test]
    fn lock_driven_uncovered_access_bypasses_the_cache() {
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "coh");
        let g = fs.open(1, Clock::new(), "coh");
        // No token coverage: reads fall through to direct I/O and admit
        // nothing into the cache, so a later write by another client can
        // never be shadowed by a stale page.
        g.write(IoPath::Direct, [(0, &[1u8; 512])]).unwrap();
        let mut buf = [0u8; 512];
        f.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert_eq!(buf, [1u8; 512]);
        g.write(IoPath::Direct, [(0, &[2u8; 512])]).unwrap();
        f.read(IoPath::Cached, [(0, &mut buf)]).unwrap();
        assert_eq!(buf, [2u8; 512], "uncovered bytes must never be cached");
        let s = f.stats().snapshot();
        assert_eq!(s.cache_hit_bytes, 0);
        // Uncovered cached writes also write through.
        f.write(IoPath::Cached, [(0, &[3u8; 512])]).unwrap();
        assert_eq!(
            &fs.snapshot("coh").unwrap().to_vec()[..512],
            &[3u8; 512][..]
        );
    }

    #[test]
    fn a_cached_segment_sends_all_its_uncovered_bytes_as_one_vector() {
        // One segment of three 512-byte pieces from 3 584: a gap on server
        // 0, the covered middle and a gap on server 1. fast_test: 1 ns per
        // payload byte, 1 µs link latency, 500 ns per extra request, 1 µs +
        // 1 ns per byte a piece.
        const SEG: u64 = 512;
        const LAT: u64 = 1_000;
        const OP: u64 = 500;
        const SERVICE: u64 = 1_000 + SEG;
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "cut");
        let sink = Arc::new(atomio_trace::MemorySink::new());
        f.tracer().bind(atomio_trace::Track::Rank(0), sink.clone());
        let (lo, middle, hi) = (3584, ByteRange::at(4096, SEG), 4608);
        // Stale clean copies of the gaps, which the write must drop: the
        // servers' copies change under them.
        for off in [lo, hi] {
            f.cache.lock().fill(off, &[0xEE; SEG as usize]);
        }
        let g = f.lock(middle, LockMode::Exclusive).unwrap();
        assert_eq!(f.coherence_coverage(), StridedSet::from_range(middle));
        let copy = fs.profile().cache.mem.copy_ns(SEG);
        let spans = |name: &str| {
            sink.snapshot()
                .into_iter()
                .filter(|e| e.name == name)
                .collect::<Vec<_>>()
        };
        let footprint = |name: &str| spans(name)[0].args[1..].to_vec();
        let gaps = vec![("lo", lo), ("len", SEG), ("lo", hi), ("len", SEG)];

        let data = [[1u8; SEG as usize], [2; SEG as usize], [3; SEG as usize]].concat();
        let t0 = f.clock().now();
        f.write(IoPath::Cached, [(lo, &data)]).unwrap();
        // One vector of the two gaps (DESIGN.md's n-segment write on n
        // servers), then the middle buffered.
        assert_eq!(
            f.clock().now() - t0,
            2 * SEG + OP + 2 * LAT + SERVICE + copy
        );
        assert_eq!(spans("direct write").len(), 1, "one closed-loop call");
        assert_eq!(footprint("direct write"), gaps);
        let s = f.stats().snapshot();
        assert_eq!((s.writes, s.server_write_requests), (3, 2));
        {
            let cache = f.cache.lock();
            assert_eq!(
                (cache.valid_bytes(), cache.dirty_bytes()),
                (SEG, SEG),
                "stale copies dropped"
            );
            let mut held = [0u8; SEG as usize];
            cache.read(middle.start, &mut held);
            assert_eq!(held[..], data[512..1024]);
        }
        let image = fs.snapshot("cut").unwrap().to_vec();
        let gaps_only = [&data[..512], &[0; 512], &data[1024..]].concat();
        assert_eq!(
            image[lo as usize..],
            gaps_only,
            "the middle is write-behind"
        );
        g.release();

        // The read of the same shape: the gaps in one vector (n segments
        // read on n servers), the middle a cache hit.
        let mut buf = [9u8; 3 * SEG as usize];
        let t1 = f.clock().now();
        f.read(IoPath::Cached, [(lo, &mut buf)]).unwrap();
        assert_eq!(buf[..], data);
        assert_eq!(f.clock().now() - t1, 2 * LAT + SERVICE + 2 * SEG + copy);
        assert_eq!(spans("direct read").len(), 1, "one closed-loop call");
        assert_eq!(footprint("direct read"), gaps);
        let s = f.stats().snapshot();
        assert_eq!((s.server_read_requests, s.coherent_hit_bytes), (2, SEG));
        f.try_sync().unwrap();
        assert_eq!(fs.snapshot("cut").unwrap().to_vec()[lo as usize..], data);
    }

    #[test]
    fn a_failed_segment_stops_a_cached_call() {
        // Server 0 crashes for good on its first request, and the token
        // covers [4096, 5120). Segment B's first half lies on server 0,
        // uncovered, its second half is covered; A is covered, C half
        // covered. A call stops at its failing gap: nothing after it is
        // sent, buffered or served, B's covered half included.
        let plan = FaultPlan::none().with(
            FaultSite::ServerRequest { server: 0 },
            1,
            FaultAction::CrashServer {
                restart: RestartPolicy::Manual,
            },
        );
        let fs = FileSystem::with_faults(gpfs_test_fs().profile().clone(), plan);
        let f = fs.open(0, Clock::new(), "stop");
        let _g = f
            .lock(ByteRange::new(4096, 5120), LockMode::Exclusive)
            .unwrap();
        let down = |e: FsError| matches!(e, FsError::RetriesExhausted { server: 0, .. });
        let (b, a, c) = ([2u8; 512], [1u8; 512], [3u8; 512]);
        let segments = [(3840, &b), (4352, &a), (4864, &c)];
        assert!(down(f.write(IoPath::Cached, segments).unwrap_err()));
        assert!(fs.snapshot("stop").unwrap().to_vec().is_empty());
        assert_eq!(f.cache.lock().dirty_bytes(), 0, "nothing buffered");

        let before = f.stats().snapshot();
        let mut bufs = [[9u8; 512]; 3];
        let [rb, ra, rc] = &mut bufs;
        let segments = [(3840, rb), (4352, ra), (4864, rc)];
        assert!(down(f.read(IoPath::Cached, segments).unwrap_err()));
        assert!(bufs.iter().flatten().all(|&x| x == 9), "nothing served");
        assert_eq!(f.stats().snapshot().reads, before.reads);

        // A flush that fails mid-call stops it too: X is covered and
        // crosses the write-behind limit (4 KiB), its flush meets server 0,
        // and Y's gap (server 2) is never sent.
        let h = fs.open(1, Clock::new(), "flush");
        let _g = h
            .lock(ByteRange::new(0, 5120), LockMode::Exclusive)
            .unwrap();
        let (x, y) = ([4u8; 5120], [5u8; 512]);
        let segments = [(0, &x[..]), (8192, &y[..])];
        assert!(down(h.write(IoPath::Cached, segments).unwrap_err()));
        assert!(fs.snapshot("flush").unwrap().to_vec().len() <= 5120);
        assert_eq!(h.stats().snapshot().writes, 1, "Y not written");
    }

    #[test]
    fn torn_journal_append_recovers_without_data_loss() {
        // The power-cut-mid-flush scenario: the first journal append on
        // server 0 tears and crashes it. The flusher still holds the
        // bytes: its retry drives the restart countdown, recovery replay
        // discards the torn record, and the re-appended record lands.
        let plan = FaultPlan::none().with(
            FaultSite::JournalAppend { server: 0 },
            1,
            FaultAction::TearRecord {
                restart: RestartPolicy::Rejections(1),
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let f = fs.open(0, Clock::new(), "torn");
        f.write(IoPath::Cached, [(0, &[7u8; 1024])]).unwrap(); // write-behind
        f.try_sync().unwrap();
        assert_eq!(&fs.snapshot("torn").unwrap().to_vec()[..], &[7u8; 1024][..]);
        let fstats = fs.fault_stats();
        assert_eq!(fstats.records_torn, 1);
        assert_eq!(fstats.torn_records_discarded, 1, "replay discarded it");
        assert!(fstats.journal_replays >= 1);
        assert_eq!(fstats.server_crashes, 1);
        let s = f.stats().snapshot();
        assert!(s.retries >= 1);
        assert_eq!(s.torn_records_discarded, 1);
        assert!(s.journal_replays >= 1);
    }

    #[test]
    fn crash_between_commit_and_apply_leaves_durable_record() {
        // The server dies *after* the intent record committed but before
        // the blocks were mutated: the flush still succeeded — the
        // record is durable, the snapshot shows it, and recovery replay
        // lands it on the block store.
        let plan = FaultPlan::none().with(
            FaultSite::JournalApply { server: 0 },
            1,
            FaultAction::CrashServer {
                restart: RestartPolicy::Manual,
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let f = fs.open(0, Clock::new(), "pend");
        f.write(IoPath::Cached, [(0, &[9u8; 256])]).unwrap();
        f.try_sync().unwrap(); // commit lands, apply is skipped by the crash
        assert!(fs.server_down(0));
        assert_eq!(
            &fs.snapshot("pend").unwrap().to_vec()[..],
            &[9u8; 256][..],
            "snapshot overlays the committed-but-unapplied record"
        );
        assert!(fs.restart_server(0));
        let fstats = fs.fault_stats();
        assert_eq!(fstats.replayed_records, 1);
        assert_eq!(fstats.replayed_bytes, 256);
        let mut buf = [0u8; 256];
        f.read(IoPath::Direct, [(0, &mut buf)]).unwrap();
        assert_eq!(buf, [9u8; 256], "replay landed the record");
    }
}
