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
    /// Write through the client cache (write-behind). Falls back to direct
    /// I/O when the platform disables caching.
    ///
    /// Under lock-driven coherence the cache may only buffer bytes the
    /// client holds token coverage for: covered sub-ranges are buffered
    /// (and may stay dirty past the lock release — a conflicting
    /// acquisition will revoke the token and flush them), uncovered
    /// sub-ranges write through directly, dropping any stale clean copy.
    /// Coverage lives in the cache, so reading it and buffering the writes
    /// happen under one hold of the cache mutex — the coherence point a
    /// concurrent revocation also takes before shrinking coverage — and a
    /// revocation can never land mid-call and leave dirty bytes outside
    /// coverage.
    pub fn try_pwrite(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_alive()?;
        if !self.fs.profile.cache.enabled {
            return self.try_pwrite_direct(offset, data);
        }
        if self.lock_driven() {
            let mut cache = self.cache.lock();
            if cache.coverage.is_empty() {
                // No validity rights at all (the common case for
                // strategies that never lock): pure write-through, and
                // coverage-empty implies the cache holds nothing to
                // invalidate. (Coverage only *grows* on this client's own
                // thread, so releasing the mutex here cannot race a grant.)
                drop(cache);
                return self.try_pwrite_direct(offset, data);
            }
            let req = ByteRange::at(offset, data.len() as u64);
            let mut needs_flush = false;
            for r in cache.coverage.gaps(req) {
                let s = (r.start - offset) as usize;
                self.try_pwrite_direct(r.start, &data[s..s + r.len() as usize])?;
                // The cache has no validity rights here: drop any stale
                // clean copy of what was just overwritten. (Dirty bytes
                // cannot exist outside coverage: buffering requires it,
                // and revocation flushes before shrinking it.)
                cache.invalidate_range(r);
            }
            let covered: Vec<ByteRange> = cache.coverage.runs_meeting(req).map(|r| r.0).collect();
            for run in covered {
                let r = ByteRange::new(run.start.max(req.start), run.end.min(req.end));
                let s = (r.start - offset) as usize;
                needs_flush |= self.pwrite_buffered_locked(
                    &mut cache,
                    r.start,
                    &data[s..s + r.len() as usize],
                );
            }
            drop(cache);
            if needs_flush {
                self.try_sync()?;
            }
            return Ok(());
        }
        let needs_flush = self.pwrite_buffered_locked(&mut self.cache.lock(), offset, data);
        if needs_flush {
            self.try_sync()?;
        }
        Ok(())
    }

    /// Buffer one write into an already-locked cache; returns whether the
    /// write-behind threshold was crossed (the caller flushes *after*
    /// releasing the cache mutex — `sync` re-takes it).
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

    /// Read through the client cache (with read-ahead on misses).
    ///
    /// Under lock-driven coherence only token-covered sub-ranges go
    /// through the cache (their validity is guaranteed: any conflicting
    /// write must first revoke the token, which invalidates exactly those
    /// ranges); uncovered sub-ranges are read directly and *not* cached,
    /// so no stale byte can ever be admitted. As in [`PosixFile::try_pwrite`],
    /// reading coverage and the cached accesses share one hold of the
    /// cache mutex, so a concurrent revocation cannot slip between the
    /// two and let stale bytes in under a coverage the client no longer
    /// holds.
    pub fn try_pread(&self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.check_alive()?;
        if !self.fs.profile.cache.enabled {
            return self.try_pread_direct(offset, buf);
        }
        if self.lock_driven() {
            // Without validity rights the request is one gap, read through.
            let mut cache = self.cache.lock();
            let req = ByteRange::at(offset, buf.len() as u64);
            self.preadv_landed(carve(buf, offset, cache.coverage.gaps(req)), true)
                .1?;
            // Each covered piece lies inside one maximal coverage run; clamp
            // read-ahead to it so the cache never admits bytes the token
            // does not protect.
            let covered: Vec<ByteRange> = cache.coverage.runs_meeting(req).map(|r| r.0).collect();
            let pieces = covered
                .iter()
                .map(|c| ByteRange::new(c.start.max(req.start), c.end.min(req.end)));
            for (clamp, (off, dst)) in covered.iter().zip(carve(buf, offset, pieces)) {
                let hit = self.pread_cached_locked(&mut cache, off, dst, Some(*clamp))?;
                self.stats.add(&self.stats.coherent_hit_bytes, hit);
            }
            return Ok(());
        }
        let hit = self.pread_cached_locked(&mut self.cache.lock(), offset, buf, None);
        hit.map(|_| ())
    }

    /// Serve one read from an already-locked cache: hits from resident
    /// pages, misses fetched with page alignment and read-ahead (`clamp`
    /// bounds the fetch window to a token-coverage run under lock-driven
    /// coherence). Returns the bytes served from cache.
    fn pread_cached_locked(
        &self,
        cache: &mut ClientCache,
        offset: u64,
        buf: &mut [u8],
        clamp: Option<ByteRange>,
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
                let w = cache.fetch_window(*miss, eof);
                match clamp {
                    // The EOF-clamped window can fall entirely *before* the
                    // coverage run (covered miss past a short file): nothing
                    // on the servers to fetch, so the whole miss is a zero
                    // hole.
                    Some(c) if !w.is_empty() => {
                        w.intersect(&c).unwrap_or(ByteRange::new(w.start, w.start))
                    }
                    _ => w,
                }
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

        writer.try_pwrite(0, b"fresh!").unwrap();
        // Write-behind: nothing on the servers yet.
        let mut buf = [0u8; 6];
        reader.try_pread_direct(0, &mut buf).unwrap();
        assert_eq!(
            &buf, &[0u8; 6],
            "write-behind data must not be visible before sync"
        );

        writer.try_sync().unwrap();
        reader.try_pread_direct(0, &mut buf).unwrap();
        assert_eq!(&buf, b"fresh!");
    }

    #[test]
    fn stale_cached_read_until_invalidate() {
        let fs = test_fs();
        let a = fs.open(0, Clock::new(), "a");
        let b = fs.open(1, Clock::new(), "a");

        a.try_pwrite_direct(0, b"old").unwrap();
        let mut buf = [0u8; 3];
        b.try_pread(0, &mut buf).unwrap(); // b now caches "old"
        assert_eq!(&buf, b"old");

        a.try_pwrite_direct(0, b"new").unwrap();
        b.try_pread(0, &mut buf).unwrap();
        assert_eq!(&buf, b"old", "cached page must serve stale data");

        b.try_invalidate().unwrap();
        b.try_pread(0, &mut buf).unwrap();
        assert_eq!(&buf, b"new", "invalidate must force a fresh fetch");
    }

    #[test]
    fn write_behind_flushes_on_threshold() {
        let fs = test_fs(); // write_behind_limit = 4 KiB in test params
        let f = fs.open(0, Clock::new(), "a");
        f.try_pwrite(0, &vec![1u8; 8 * 1024]).unwrap();
        // Threshold exceeded -> auto flush -> visible to others.
        let g = fs.open(1, Clock::new(), "a");
        let mut buf = vec![0u8; 8 * 1024];
        g.try_pread_direct(0, &mut buf).unwrap();
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
        f.try_pwrite_direct(0, &[7u8; 100]).unwrap(); // file is 100 bytes long
        let t0 = f.clock().now();

        let mut buf = [0u8; 100];
        f.try_pread(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        let clamped_cost = f.clock().now() - t0;

        // The same read against a file long enough for the full 3 KiB
        // window must cost strictly more — the unclamped fetch volume.
        let g = fs.open(1, Clock::new(), "long");
        g.try_pwrite_direct(0, &vec![7u8; 4096]).unwrap();
        let t0 = g.clock().now();
        g.try_pread(0, &mut buf).unwrap();
        let full_cost = g.clock().now() - t0;
        assert!(
            clamped_cost < full_cost,
            "EOF-clamped fetch ({clamped_cost}) must cost less than a full \
             window ({full_cost})"
        );

        // Read-ahead past EOF must not have marked pages resident: a later
        // read behind EOF is a miss, not a phantom hit.
        let mut tail = [0u8; 50];
        f.try_pread(2000, &mut tail).unwrap();
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
        f.try_pwrite_direct(0, b"x").unwrap();
        let t0 = f.clock().now();
        let mut buf = [9u8; 16];
        f.try_pread(5000, &mut buf).unwrap();
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
        f.try_pwrite_direct(100, b"x").unwrap();
        let mut buf = [9u8; 4];
        f.try_pread(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn lock_driven_reread_is_served_from_cache() {
        let fs = gpfs_test_fs();
        let f = fs.open(0, Clock::new(), "coh");
        let r = ByteRange::new(0, 2048);
        let g = f.lock(r, LockMode::Exclusive).unwrap();
        f.try_pwrite(0, &[7u8; 2048]).unwrap();
        g.release();
        assert_eq!(f.coherence_coverage().total_len(), 2048);
        // Re-read under a (cheap, token-cached) shared lock: the write
        // left the bytes valid in cache and the token still covers them —
        // zero server read requests, no blanket invalidation anywhere.
        let g = f.lock(r, LockMode::Shared).unwrap();
        let mut buf = [0u8; 2048];
        f.try_pread(0, &mut buf).unwrap();
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
        f.try_pwrite_direct(0, &[7u8; 1200]).unwrap(); // file length 1200, unaligned
        let g = f
            .lock(ByteRange::new(1500, 2000), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 500];
        f.try_pread(1500, &mut buf).unwrap(); // covered, wholly past EOF
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
        f.try_pwrite_direct(0, &vec![7u8; 80 * 1024]).unwrap();
        let mut warm = vec![0u8; 64 * 1024];
        f.try_pread(0, &mut warm).unwrap(); // warm the cache to its cap
        let mut big = vec![0u8; 72 * 1024];
        f.try_pread(0, &mut big).unwrap(); // head hits + tail fills: must not panic
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
        g.try_pwrite_direct(0, &[1u8; 512]).unwrap();
        let mut buf = [0u8; 512];
        f.try_pread(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 512]);
        g.try_pwrite_direct(0, &[2u8; 512]).unwrap();
        f.try_pread(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 512], "uncovered bytes must never be cached");
        let s = f.stats().snapshot();
        assert_eq!(s.cache_hit_bytes, 0);
        // Uncovered cached writes also write through.
        f.try_pwrite(0, &[3u8; 512]).unwrap();
        assert_eq!(
            &fs.snapshot("coh").unwrap().to_vec()[..512],
            &[3u8; 512][..]
        );
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
        f.try_pwrite(0, &[7u8; 1024]).unwrap(); // write-behind
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
        f.try_pwrite(0, &[9u8; 256]).unwrap();
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
        f.try_pread_direct(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 256], "replay landed the record");
    }
}
