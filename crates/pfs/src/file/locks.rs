//! Byte-range locks: acquisition, grant bookkeeping and [`LockGuard`].

use atomio_interval::{ByteRange, StridedSet};
use atomio_trace::Category;

use super::{push_footprint, PosixFile};
use crate::error::FsError;
use crate::lock::{LockManager, LockMode, SetGrant};

/// A held byte-range lock; releases on drop at the holder's current clock.
pub struct LockGuard<'f> {
    file: &'f PosixFile,
    locks: &'f LockManager,
    id: u64,
    released: bool,
    /// Footprint + mode args replayed on the release event, so the
    /// happens-before checker can pair the release with later conflicting
    /// grants. Empty when the handle's tracer is disabled.
    release_args: Vec<(&'static str, u64)>,
}

impl PosixFile {
    /// Acquire a byte-range lock. Fails on platforms without lock support
    /// (ENFS/Cplant), exactly as the paper had to skip the file-locking
    /// experiments there, and on a dead handle.
    pub fn lock(&self, range: ByteRange, mode: LockMode) -> Result<LockGuard<'_>, FsError> {
        self.lock_set(&StridedSet::from_range(range), mode)
    }

    /// Acquire an **atomic multi-range list lock** over every range of
    /// `set` — granted all-or-nothing under the backend's fair vtime
    /// queue, so disjoint footprints never serialize and partial grants
    /// (the 2PL deadlock shape) cannot exist. One `LockGuard` releases the
    /// whole set. Fails like [`PosixFile::lock`].
    pub fn lock_set(&self, set: &StridedSet, mode: LockMode) -> Result<LockGuard<'_>, FsError> {
        self.check_alive()?;
        let locks = self.lock_manager()?;
        let grant = locks.acquire_set(self.client, set, mode, &self.clock);
        Ok(self.granted(locks, set, mode, grant))
    }

    /// [`PosixFile::lock_set`] as a two-phase handshake: register the
    /// request, run `sync` (the MPI layer passes a barrier), then block for
    /// the grant. When every contender registers before any waits, grants
    /// follow the fair `(vtime, client)` order, which makes collective
    /// atomic-mode locking deterministic — including GPFS token-revocation
    /// counts. A refused request still runs `sync` before it returns the
    /// error, so the other contenders' handshake completes.
    pub fn lock_set_two_phase(
        &self,
        set: &StridedSet,
        mode: LockMode,
        sync: impl FnOnce(),
    ) -> Result<LockGuard<'_>, FsError> {
        let locks = match self.check_alive().and_then(|()| self.lock_manager()) {
            Ok(locks) => locks,
            Err(e) => {
                sync();
                return Err(e);
            }
        };
        let ticket = locks.register_set(self.client, set, mode, self.clock.now());
        sync();
        let grant = locks.wait_granted_set(ticket, set, mode, &self.clock);
        Ok(self.granted(locks, set, mode, grant))
    }

    fn lock_manager(&self) -> Result<&LockManager, FsError> {
        self.file.locks.as_ref().ok_or(FsError::LocksUnsupported {
            file_system: self.fs.profile.file_system,
        })
    }

    /// Book a grant: charge stats, advance the clock, wrap in a guard.
    fn granted<'f>(
        &'f self,
        locks: &'f LockManager,
        set: &StridedSet,
        mode: LockMode,
        grant: SetGrant,
    ) -> LockGuard<'f> {
        self.stats.add(&self.stats.lock_acquires, 1);
        self.stats.add(&self.stats.lock_ranges, set.run_count());
        // A token hit is a grant served entirely from cached tokens — no
        // lock-server round trip anywhere.
        self.stats.add(
            &self.stats.lock_token_hits,
            (grant.token_hits > 0 && grant.shard_trips == 0) as u64,
        );
        self.stats
            .add(&self.stats.lock_shard_trips, grant.shard_trips);
        self.stats
            .add(&self.stats.lock_serialized_grants, grant.serialized as u64);
        let now = self.clock.now();
        let wait = grant.granted_at.saturating_sub(now);
        self.stats.add(&self.stats.lock_wait_ns, wait);
        self.fs.latency.grant_wait.record(wait);
        // Footprint + mode ride on both the grant span and (via the
        // guard) the release instant: they are the conflict test of the
        // happens-before checker's release→acquire edges. Skipped when
        // tracing is off — the args are pure observability.
        let mut release_args = Vec::new();
        if self.tracer.is_enabled() {
            let mut args = vec![
                ("ranges", set.run_count()),
                ("serialized", grant.serialized as u64),
                ("token_hits", grant.token_hits),
                ("excl", (mode == LockMode::Exclusive) as u64),
            ];
            push_footprint(&mut args, set.iter());
            self.tracer
                .span(Category::Lock, "lock wait", now, grant.granted_at, &args);
            release_args.push(("excl", (mode == LockMode::Exclusive) as u64));
            push_footprint(&mut release_args, set.iter());
        }
        self.clock.advance_to(grant.granted_at);
        // The grant's token confers cache-validity rights over the set
        // (kept after release, until a conflicting acquisition revokes it)
        // — recorded NOT here but by the lock manager's grant-coverage
        // dispatch to this handle's `CacheCoherence::granted`, under the
        // manager's state mutex: growing coverage after the acquisition
        // returned would race a revocation landing in between and
        // resurrect already-revoked rights.
        LockGuard {
            file: self,
            locks,
            id: grant.id,
            released: false,
            release_args,
        }
    }

    /// Release-map runs held by this file's lock manager (diagnostics):
    /// bounded by the distinct runs released, not by the number of
    /// releases, so a long-running handle stays bounded. 0 on lockless
    /// platforms.
    pub fn lock_history_len(&self) -> usize {
        self.file.locks.as_ref().map_or(0, LockManager::history_len)
    }
}

impl<'f> LockGuard<'f> {
    /// Release explicitly at the holder's current virtual time.
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            self.released = true;
            let now = self.file.clock.now();
            self.file
                .tracer
                .instant(Category::Lock, "lock release", now, &self.release_args);
            self.locks.release(self.id, now);
        }
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.do_release();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::*;
    use super::*;
    use crate::profile::LockKind;

    #[test]
    fn lock_unsupported_on_enfs() {
        let fs = FileSystem::new(PlatformProfile::cplant());
        let f = fs.open(0, Clock::new(), "a");
        let err = match f.lock(ByteRange::new(0, 10), LockMode::Exclusive) {
            Ok(_) => panic!("ENFS must reject lock requests"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            FsError::LocksUnsupported {
                file_system: "ENFS"
            }
        );
    }

    #[test]
    fn exclusive_lock_serializes_writers_in_vtime() {
        let fs = test_fs();
        let hold_write = 64 * 1024u64;
        let mut ends = Vec::new();
        for client in 0..3 {
            let f = fs.open(client, Clock::new(), "a");
            let guard = f
                .lock(ByteRange::new(0, 1 << 30), LockMode::Exclusive)
                .unwrap();
            f.try_pwrite_direct(0, &vec![client as u8; hold_write as usize])
                .unwrap();
            guard.release();
            ends.push(f.clock().now());
        }
        // Each client's completion is ordered after the previous release.
        assert!(ends[1] > ends[0]);
        assert!(ends[2] > ends[1]);
    }

    #[test]
    fn gpfs_token_hits_recorded() {
        let fs = FileSystem::new(PlatformProfile {
            lock_kind: LockKind::Distributed,
            ..PlatformProfile::fast_test()
        });
        let f = fs.open(0, Clock::new(), "a");
        f.lock(ByteRange::new(0, 100), LockMode::Exclusive)
            .unwrap()
            .release();
        f.lock(ByteRange::new(0, 50), LockMode::Exclusive)
            .unwrap()
            .release();
        let s = f.stats().snapshot();
        assert_eq!(s.lock_acquires, 2);
        assert_eq!(s.lock_token_hits, 1);
    }
}
