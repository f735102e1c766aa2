//! The cache side of the token protocol: a served revocation flushes and
//! invalidates exactly the revoked ranges.

use std::sync::{Arc, Weak};

use atomio_check::OrderedMutex;
use atomio_interval::{ByteRange, StridedSet};
use atomio_trace::{Category, Tracer};
use atomio_vtime::VNanos;

use super::{push_footprint, FileObj, FsInner};
use crate::cache::ClientCache;
use crate::coherence::RevocationHandler;
use crate::fault::{FaultAction, FaultSite};
use crate::server::ServerOp;
use crate::stats::ClientStats;

/// The cache side of the revocation protocol for one (client, file): see
/// [`CoherenceHub`](crate::CoherenceHub). Holds only weak references
/// toward the file system so the registration (which lives inside the
/// file's lock backend) cannot keep the file alive.
#[derive(Debug)]
pub(super) struct CacheCoherence {
    pub(super) cache: Arc<OrderedMutex<ClientCache>>,
    pub(super) stats: Arc<ClientStats>,
    pub(super) tracer: Tracer,
    pub(super) file: Weak<FileObj>,
    pub(super) fs: Weak<FsInner>,
}

impl RevocationHandler for CacheCoherence {
    fn revoke(&self, ranges: &StridedSet, now: VNanos) -> u64 {
        let Some(file) = self.file.upgrade() else {
            return 0; // file deleted: nothing to keep coherent
        };
        let fs = self.fs.upgrade();
        // One flush, server request and invalidation per *maximal* run.
        self.tracer.instant(
            Category::Coherence,
            "revoke dispatch",
            now,
            &[("ranges", ranges.run_count())],
        );
        // The holder's cache mutex is the coherence point: it guards the
        // coverage too, its cached I/O paths read coverage and run the
        // whole access under it, and we shrink coverage under it — so a
        // revocation can never land *mid-access*, between an access's
        // coverage read and its cache admission/dirtying. (Without this, a
        // lock design that revokes without conflict-waiting — sharded
        // shared-mode grants, or any access under retained-but-not-in-use
        // coverage — could invalidate first and then watch the stale
        // coverage admit or dirty bytes outside it, bytes no revocation
        // would ever visit again.)
        let mut cache = self.cache.lock();
        let mut flushed = 0u64;
        let mut server_reqs = 0u64;
        let mut invalidated = 0u64;
        for r in ranges.iter() {
            // The revoked bytes are no longer ours to cache.
            cache.coverage.remove(r);
            // Flush the holder's write-behind data for the revoked range —
            // the real-bytes half of the revocation. Since PR 7 the flush
            // is a first-class write: its bytes *occupy the server
            // horizons* at the acquirer's grant time (delaying whoever
            // queues behind them), and the per-byte
            // `token_revoke_byte_ns` fee the dispatching lock manager
            // bills the acquirer is the protocol-side wait for that flush
            // RPC. Only the holder's own clock stays uncharged — it may
            // be anywhere and is racy to read from the dispatcher's
            // thread.
            for (off, data) in cache.take_dirty_runs_in(r) {
                let len = data.len() as u64;
                flushed += len;
                if let Some(fs) = &fs {
                    server_reqs += fs.servers.requests_for(ByteRange::at(off, len));
                    // Raw (health-ignoring) path: the revocation flush
                    // must not dead-lock the acquirer's grant behind a
                    // retry loop; crash windows are modeled at the
                    // journal steps below instead.
                    fs.servers
                        .access(now, ByteRange::at(off, len), ServerOp::Write);
                }
                // A revocation flush is one clean writer: apply atomically
                // — through the write-ahead journal when a fault plan is
                // armed, so a server crashed between commit and apply
                // leaves a durable record for recovery replay instead of
                // losing the flush.
                let journaled = fs.as_ref().is_some_and(|fs| {
                    if !fs.faults.active() {
                        return false;
                    }
                    let home = fs.servers.server_of(off);
                    let epoch = file.journal.append_committed(off, &data);
                    match fs.faults.check(FaultSite::JournalApply { server: home }) {
                        Some(FaultAction::CrashServer { restart })
                        | Some(FaultAction::TearRecord { restart }) => {
                            fs.servers.crash(home, restart);
                            self.tracer.instant(
                                Category::Fault,
                                "crash before revoke apply",
                                now,
                                &[("server", home as u64), ("epoch", epoch)],
                            );
                        }
                        _ => {
                            file.storage.write_atomic(off, &data);
                            file.journal.mark_applied(epoch);
                        }
                    }
                    true
                });
                if !journaled {
                    file.storage.write_atomic(off, &data);
                }
            }
            let dropped = cache.invalidate_range(r);
            invalidated += dropped;
            self.stats
                .add(&self.stats.coherence_invalidated_bytes, dropped);
        }
        drop(cache);
        if let Some(fs) = &fs {
            // The revocation's virtual-time cost as billed to the revoking
            // acquirer: the flat per-holder fee plus the per-byte flush
            // charge. Drawn on the holder's row at the *acquirer's* grant
            // time (the holder's clock is not advanced by serving and is
            // racy to read here), so the span marks *whose cache* did the
            // work, not a wait on this rank.
            let cost = fs.profile.token_revoke_ns
                + (flushed as f64 * fs.profile.token_revoke_byte_ns).round() as u64;
            fs.latency.revoke_flush.record(cost);
            if self.tracer.is_enabled() {
                let mut args = vec![
                    ("flushed_bytes", flushed),
                    ("invalidated_bytes", invalidated),
                ];
                push_footprint(&mut args, ranges.iter());
                self.tracer
                    .span(Category::Coherence, "revoke flush", now, now + cost, &args);
            }
        }
        self.tracer.instant(
            Category::Coherence,
            "invalidate",
            now,
            &[("bytes", invalidated)],
        );
        self.stats.add(&self.stats.revocations_served, 1);
        self.stats.add(&self.stats.revoke_flushed_bytes, flushed);
        if flushed > 0 {
            self.stats.add(&self.stats.flushes, 1);
            self.stats.add(&self.stats.flushed_bytes, flushed);
            self.stats
                .add(&self.stats.server_write_requests, server_reqs);
        }
        flushed
    }

    fn granted(&self, ranges: &StridedSet) {
        // Record the validity rights the token confers. Runs under the
        // lock manager's state mutex (see the trait doc), so the rights
        // are in place before any rival acquisition can revoke the token
        // — a revocation arriving later always finds something to
        // subtract.
        let mut cache = self.cache.lock();
        for r in ranges.iter() {
            cache.coverage.insert(r, ());
        }
    }

    fn superseded(&self) {
        // A re-open by the same client replaced this handle's registration:
        // revocations now go to the successor, so this handle's coverage
        // and cached pages could go silently stale — and its write-behind
        // data would never be revocation-flushed. Strip both: with empty
        // coverage every later access through the old handle falls through
        // to direct I/O, and the unsynced dirty bytes are discarded, the
        // same close-without-fsync contract the `Drop` impl documents.
        self.cache.lock().discard_all();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::*;
    use super::StridedSet;
    use crate::lock::LockMode;
    use crate::profile::LockKind;
    use atomio_interval::Train;
    use atomio_trace::{MemorySink, Track};

    /// What serving `ranges` against a holder whose whole `[0, 600)` is
    /// dirty write-behind costs: `(server write requests, flushed bytes,
    /// the dispatch's "ranges" arg, the flush span's footprint)`.
    fn serve_revocation(ranges: &StridedSet) -> (u64, u64, u64, Vec<(&'static str, u64)>) {
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "seam");
        let sink = Arc::new(MemorySink::new());
        a.tracer().bind(Track::Rank(0), sink.clone());
        let g = a.lock(ByteRange::new(0, 600), LockMode::Exclusive).unwrap();
        a.try_pwrite(0, &[0xA0u8; 600]).unwrap();
        g.release();
        a.file.coherence.revoke(0, ranges, 0);
        let events = sink.snapshot();
        let event = |name: &str| events.iter().find(|e| e.name == name).expect(name).clone();
        let s = a.stats().snapshot();
        assert_eq!(s.coherence_invalidated_bytes, ranges.total_len());
        assert_eq!(
            a.coherence_coverage(),
            StridedSet::from_range(ByteRange::new(0, 600)).subtract(ranges)
        );
        let footprint = event("revoke flush").args.split_off(2); // after flushed/invalidated
        (
            s.server_write_requests,
            s.revoke_flushed_bytes,
            event("revoke dispatch").args[0].1,
            footprint,
        )
    }

    #[test]
    fn revocation_across_a_train_seam_flushes_one_run() {
        // A run touching a comb: their runs meet at byte 100. The handler
        // must see the maximal run [0, 150) — one flush, one server
        // request, one invalidation.
        let seamed = StridedSet::from_range(ByteRange::new(0, 100))
            .union(&StridedSet::from_train(Train::new(100, 50, 200, 3)));
        assert_eq!(
            serve_revocation(&seamed),
            (
                3,
                250,
                3,
                vec![
                    ("lo", 0),
                    ("len", 150),
                    ("lo", 300),
                    ("len", 50),
                    ("lo", 500),
                    ("len", 50)
                ]
            )
        );
    }

    #[test]
    fn revocation_flushes_dirty_and_invalidates_exactly_the_ranges() {
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "coh");
        let b = fs.open(1, Clock::new(), "coh");

        let g = a
            .lock(ByteRange::new(0, 4096), LockMode::Exclusive)
            .unwrap();
        a.try_pwrite(0, &[0xA0u8; 4096]).unwrap(); // write-behind: stays dirty
        g.release();
        assert!(
            fs.snapshot("coh").unwrap().to_vec().iter().all(|&x| x == 0),
            "write-behind data must not have reached the servers yet"
        );

        // B's conflicting acquisition revokes exactly [1024, 2048): A's
        // dirty bytes there are flushed (visible to B), the rest of A's
        // cache stays warm and dirty.
        let g = b
            .lock(ByteRange::new(1024, 2048), LockMode::Exclusive)
            .unwrap();
        let mut seen = [0u8; 1024];
        b.try_pread_direct(1024, &mut seen).unwrap();
        assert_eq!(seen, [0xA0u8; 1024], "revocation must flush A's data");
        b.try_pwrite_direct(1024, &[0xB1u8; 1024]).unwrap();
        g.release();

        let s = a.stats().snapshot();
        assert_eq!(s.revocations_served, 1);
        assert_eq!(s.revoke_flushed_bytes, 1024);
        assert_eq!(s.coherence_invalidated_bytes, 1024);
        assert_eq!(
            a.coherence_coverage().total_len(),
            4096 - 1024,
            "only the revoked ranges lose validity rights"
        );

        // A re-reads everything under a lock: the revoked range is fetched
        // fresh (B's bytes), the untouched ranges come from A's warm cache.
        let g = a.lock(ByteRange::new(0, 4096), LockMode::Shared).unwrap();
        let mut buf = [0u8; 4096];
        a.try_pread(0, &mut buf).unwrap();
        g.release();
        assert_eq!(&buf[0..1024], &[0xA0u8; 1024][..]);
        assert_eq!(&buf[1024..2048], &[0xB1u8; 1024][..], "no stale read");
        assert_eq!(&buf[2048..4096], &[0xA0u8; 2048][..]);
    }

    #[test]
    fn dropped_handle_unregisters_and_cannot_resurrect_discarded_data() {
        // Regression: the hub used to keep a dropped handle's cache alive
        // forever, and a later revocation would flush its abandoned
        // write-behind data into the file — resurrecting bytes the program
        // discarded by dropping the handle without sync (like closing a
        // POSIX fd without fsync).
        let fs = gpfs_test_fs();
        {
            let a = fs.open(0, Clock::new(), "drop");
            let g = a
                .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
                .unwrap();
            a.try_pwrite(0, &[0xDDu8; 1024]).unwrap(); // write-behind, never synced
            g.release();
        } // dropped without sync: the data is gone, and so is the handler

        let b = fs.open(1, Clock::new(), "drop");
        let g = b
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        let mut buf = [9u8; 16];
        b.try_pread_direct(0, &mut buf).unwrap();
        g.release();
        assert_eq!(buf, [0u8; 16], "discarded write-behind data resurrected");

        // A re-opened handle registers afresh and coherence works again.
        let a2 = fs.open(0, Clock::new(), "drop");
        let g = a2
            .lock(ByteRange::new(0, 512), LockMode::Exclusive)
            .unwrap();
        a2.try_pwrite(0, &[0xEEu8; 512]).unwrap();
        g.release();
        let g = b.lock(ByteRange::new(0, 512), LockMode::Exclusive).unwrap();
        b.try_pread_direct(0, &mut buf).unwrap();
        g.release();
        assert_eq!(buf, [0xEEu8; 16], "live handle must still be revocable");
        assert_eq!(a2.stats().snapshot().revocations_served, 1);
    }

    #[test]
    fn reopened_handle_supersedes_and_neutralizes_the_old_one() {
        // Regression: re-opening the same (client, file) replaced the
        // CoherenceHub registration but left the superseded handle fully
        // armed — warm coverage, cached pages, possibly dirty write-behind
        // — while it no longer received revocations, so its cached reads
        // could go silently stale and its dirty bytes would never be
        // revocation-flushed. Superseding now clears its coverage and
        // discards its cache.
        let fs = gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "dup");
        let g = a
            .lock(ByteRange::new(0, 1024), LockMode::Exclusive)
            .unwrap();
        a.try_pwrite(0, &[0x11u8; 1024]).unwrap(); // dirty write-behind under coverage
        g.release();
        assert_eq!(a.coherence_coverage().total_len(), 1024);

        let a2 = fs.open(0, Clock::new(), "dup");
        assert_eq!(
            a.coherence_coverage().total_len(),
            0,
            "superseded handle must lose its validity rights"
        );
        // The old handle's cached+dirty data was discarded (the same
        // close-without-fsync contract as dropping the handle): its reads
        // fall through to the servers, and its sync flushes nothing.
        let mut buf = [9u8; 16];
        a.try_pread(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16], "old handle must not serve discarded data");
        a.try_sync().unwrap();
        let b = fs.open(1, Clock::new(), "dup");
        let mut seen = [9u8; 16];
        b.try_pread_direct(0, &mut seen).unwrap();
        assert_eq!(seen, [0u8; 16], "discarded write-behind data resurrected");

        // The successor participates in coherence normally.
        let g = a2
            .lock(ByteRange::new(0, 512), LockMode::Exclusive)
            .unwrap();
        a2.try_pwrite(0, &[0x22u8; 512]).unwrap();
        g.release();
        let g = b.lock(ByteRange::new(0, 512), LockMode::Exclusive).unwrap();
        b.try_pread_direct(0, &mut seen).unwrap();
        g.release();
        assert_eq!(seen, [0x22u8; 16], "successor must still be revocable");
        assert_eq!(a2.stats().snapshot().revoke_flushed_bytes, 512);
    }

    #[test]
    fn coverage_never_exceeds_the_managers_tokens() {
        // The invariant `granted` runs under the state mutex to keep: a
        // handle never holds cache rights its manager-side token lacks.
        for fs in [gpfs_test_fs(), sharded_gpfs_test_fs()] {
            let kind = fs.profile().lock_kind;
            let files: Vec<PosixFile> = (0..3).map(|c| fs.open(c, Clock::new(), "inv")).collect();
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = |n: u64| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed % n
            };
            for step in 0..300 {
                let f = &files[next(3) as usize];
                // A run or a comb, anywhere in four stripe units.
                let start = next(16 * 1024);
                let len = 1 + next(2048);
                let set = if next(2) == 0 {
                    StridedSet::from_range(ByteRange::at(start, len))
                } else {
                    StridedSet::from_train(Train::new(
                        start,
                        len,
                        len + 1 + next(4096),
                        2 + next(4),
                    ))
                };
                let mode = if next(2) == 0 {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                let g = f.lock_set(&set, mode).unwrap();
                if mode == LockMode::Exclusive {
                    // Dirty write-behind, so revocations flush real bytes.
                    let first = set.trains()[0].nth(0);
                    f.try_pwrite(first.start, &vec![step as u8; first.len() as usize])
                        .unwrap();
                }
                g.release();
                let locks = f.file.locks.as_ref().unwrap();
                for (c, h) in files.iter().enumerate() {
                    let cov = h.coherence_coverage();
                    assert!(
                        cov.subtract(&locks.token_set(c)).is_empty(),
                        "{kind:?} step {step}: client {c} covers {cov} beyond its tokens"
                    );
                }
            }
            let served: u64 = files
                .iter()
                .map(|f| f.stats().snapshot().revocations_served)
                .sum();
            assert!(served > 50, "{kind:?}: only {served} revocations served");
        }
    }

    /// fast_test timing with Lustre-style sharded **token** domains and
    /// lock-driven coherence.
    fn sharded_gpfs_test_fs() -> FileSystem {
        FileSystem::new(PlatformProfile {
            lock_kind: LockKind::ShardedTokens,
            coherence: crate::profile::CoherenceMode::LockDriven,
            ..PlatformProfile::fast_test()
        })
    }

    #[test]
    fn sharded_tokens_shared_grant_revocation_keeps_reads_fresh() {
        // LockKind::ShardedTokens revokes overlapping tokens on ANY
        // non-cached grant — including a *shared* grant that
        // conflict-waits on nobody — so a holder can lose coverage with
        // no lock-queue serialization anywhere. The revocation must still
        // flush + invalidate coherently (the cache mutex excludes the
        // mid-access TOCTOU), and the holder's next access must fetch
        // fresh bytes.
        let fs = sharded_gpfs_test_fs();
        let a = fs.open(0, Clock::new(), "scoh");
        let b = fs.open(1, Clock::new(), "scoh");

        let g = a
            .lock(ByteRange::new(0, 2048), LockMode::Exclusive)
            .unwrap();
        a.try_pwrite(0, &[0xAAu8; 2048]).unwrap(); // write-behind: stays dirty
        g.release();
        assert!(
            fs.snapshot("scoh")
                .unwrap()
                .to_vec()
                .iter()
                .all(|&x| x == 0),
            "write-behind data must not have reached the servers yet"
        );

        // B's overlapping SHARED grant revokes A's token over [1024, 1536):
        // A's dirty bytes there are flushed so B reads them through its
        // own freshly covered cache.
        let g = b
            .lock(ByteRange::new(1024, 1536), LockMode::Shared)
            .unwrap();
        let mut seen = [0u8; 512];
        b.try_pread(1024, &mut seen).unwrap();
        g.release();
        assert_eq!(seen, [0xAAu8; 512], "revocation must flush A's data");

        let s = a.stats().snapshot();
        assert_eq!(s.revocations_served, 1);
        assert_eq!(s.revoke_flushed_bytes, 512);
        assert_eq!(
            a.coherence_coverage().total_len(),
            2048 - 512,
            "only the revoked ranges lose validity rights"
        );

        // A re-reads everything under a shared lock: the revoked range is
        // re-fetched, the rest comes from A's warm (still dirty) cache.
        let g = a.lock(ByteRange::new(0, 2048), LockMode::Shared).unwrap();
        let mut buf = [0u8; 2048];
        a.try_pread(0, &mut buf).unwrap();
        g.release();
        assert_eq!(buf, [0xAAu8; 2048], "no stale or lost bytes anywhere");
    }
}
