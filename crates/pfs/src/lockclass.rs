//! The lock classes of `atomio-pfs`, in one place.
//!
//! Every mutex in this crate is an [`OrderedMutex`] built here, so the
//! whole locking discipline is auditable at a glance and enforced at
//! runtime by the lock-order engine (debug/test builds).
//!
//! The **ranked** chain pins the documented grant/revocation order — a
//! thread may only climb it:
//!
//! ```text
//! lock_state (10) → coherence registry (12) → cache (20)
//! ```
//!
//! * a lock manager's state mutex is held while it publishes coverage
//!   to the grantee (`RevocationHandler::granted`), which looks the
//!   handler up in the registry and then takes the holder's cache — the
//!   one mutex guarding both the pages and the token coverage that
//!   admits bytes to them;
//! * revocation dispatch (`CoherenceHub::revoke`) runs with the manager
//!   state *released* and the registry guard dropped before the handler
//!   flushes, so no reverse edge exists.
//!
//! The **unranked** classes (files registry, journal, server health /
//! recovery / pending, fault injector) have no documented total order;
//! they are watched by discovered-cycle detection instead.

use atomio_check::OrderedMutex;

pub(crate) fn lock_state<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::with_rank("pfs.lock_state", 10, value)
}

pub(crate) fn coherence_registry<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::with_rank("pfs.coherence_registry", 12, value)
}

pub(crate) fn cache<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::with_rank("pfs.cache", 20, value)
}

/// What a thread may hold where it waits in host time for another thread
/// ([`atomio_check::assert_may_wait`], debug builds). Each list opens
/// with the condvar's own class, which the wait releases; every other
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

pub(crate) fn files<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.files", value)
}

pub(crate) fn journal<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.journal", value)
}

pub(crate) fn server_health<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_health", value)
}

pub(crate) fn server_recovery<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_recovery", value)
}

pub(crate) fn server_pending<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.server_pending", value)
}

pub(crate) fn fault_armed<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.fault_armed", value)
}

pub(crate) fn fault_hits<T>(value: T) -> OrderedMutex<T> {
    OrderedMutex::new("pfs.fault_hits", value)
}
