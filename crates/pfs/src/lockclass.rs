//! The lock classes of `atomio-pfs`, in one place.
//!
//! Every mutex in this crate is an [`OrderedMutex`] built here, so the
//! whole locking discipline is auditable at a glance and enforced at
//! runtime by the rank check (debug/test builds). Every class has a rank,
//! and a thread may only climb them:
//!
//! ```text
//! server_pending (5) → lock_state (10) → coherence_registry (12) → cache (20)
//!   → files (30) → journal (32) → server_health (40) → server_recovery (50)
//!   → fault_armed (52) → fault_hits (54)
//! ```
//!
//! * a lock manager's state mutex is held while it publishes coverage
//!   to the grantee (`RevocationHandler::granted`), which looks the
//!   handler up in the registry and then takes the holder's cache — the
//!   one mutex guarding both the pages and the token coverage that
//!   admits bytes to them;
//! * revocation dispatch (`CoherenceHub::revoke`) runs with the manager
//!   state *released* and the registry guard dropped before the handler
//!   flushes, so no reverse edge exists;
//! * cached reads, fills and syncs reach the files registry, the journal
//!   and the servers under the cache mutex (the coherence point);
//! * a faulted server request consults the fault injector and queues a
//!   recovery under the server health mutex;
//! * the deferred-request queue is taken with nothing else held, and
//!   ranks lowest so the hold-at-wait tests can hold it into both waits.

use atomio_check::OrderedMutex;

pub(crate) fn server_pending<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_pending", 5, value)
}

pub(crate) fn lock_state<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.lock_state", 10, value)
}

pub(crate) fn coherence_registry<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.coherence_registry", 12, value)
}

pub(crate) fn cache<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.cache", 20, value)
}

pub(crate) fn files<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.files", 30, value)
}

pub(crate) fn journal<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.journal", 32, value)
}

pub(crate) fn server_health<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_health", 40, value)
}

pub(crate) fn server_recovery<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_recovery", 50, value)
}

pub(crate) fn fault_armed<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.fault_armed", 52, value)
}

pub(crate) fn fault_hits<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.fault_hits", 54, value)
}

/// What a thread may hold where it waits in host time for another thread
/// ([`atomio_check::assert_may_wait`], debug builds). Each list opens
/// with the class of the mutex the wait parks under, which it releases
/// while parked; every other
/// entry is a class the test suite holds there, with the reason the
/// thread it waits for never needs it.
///
/// `LockManager::wait_granted_set`: waits for a conflicting holder's
/// release.
pub(crate) const ADMISSION_WAIT: &[&str] = &["pfs.lock_state"];
/// `ServerSet::try_access`: waits for the client replaying a recovering
/// server to mark it up.
pub(crate) const RECOVERY_WAIT: &[&str] = &[
    "pfs.server_health",
    // Cached reads, fills and syncs reach the servers under the cache
    // mutex (the coherence point); the replayer takes only the files
    // registry, journals and storage before `mark_up`, never a cache.
    "pfs.cache",
];

// The rank check runs in debug builds only.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// Production takes the server health mutex under a cache (a cached
    /// read reaching a faulted server); the reverse nesting panics the
    /// first time it runs, naming both sites, whatever ran before it.
    #[test]
    fn cache_under_server_health_panics_with_both_sites() {
        let err = std::thread::spawn(|| {
            let health = server_health(());
            let pages = cache(());
            let _h = health.lock();
            let _c = pages.lock();
        })
        .join()
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("pfs.cache (rank 20) acquired at crates/pfs/src/lockclass.rs"),
            "{msg}"
        );
        assert!(
            msg.contains("pfs.server_health (rank 40) locked at crates/pfs/src/lockclass.rs"),
            "{msg}"
        );
    }
}
