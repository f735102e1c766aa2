//! Lock-driven cache coherence: the revocation fan-out that keeps client
//! caches coherent **through the token protocol itself** (paper §3.2,
//! citing Schmuck & Haskin's FAST'02 GPFS paper).
//!
//! Under [`CoherenceMode::CloseToOpen`](crate::CoherenceMode) the client
//! caches are kept correct the NFS way: the MPI layer brackets every
//! overlapped access with a blanket `sync` + `invalidate`, throwing away
//! every warm byte. GPFS does better: a byte-range *token* confers
//! **cache-validity rights** over its bytes — a client may keep (and trust)
//! cached data exactly as long as it holds a token covering it, because any
//! conflicting access by another client must first revoke that token, and
//! the revocation flushes the holder's dirty bytes and invalidates its
//! cached pages *for exactly the revoked ranges*.
//!
//! This module is the dispatch fabric of that protocol: the
//! [`LockManager`](crate::LockManager), in the presets that cache tokens
//! ([`LockKind::has_tokens`](crate::LockKind::has_tokens)), pushes each
//! revocation — once per holder, in ascending holder order — through a
//! per-file [`CoherenceHub`], which routes it to the `RevocationHandler`
//! the holder's client registered at open time.
//! The handler (built by [`FileSystem::open`](crate::FileSystem::open) when
//! the platform runs [`CoherenceMode::LockDriven`](crate::CoherenceMode))
//! flushes `dirty ∩ revoked` to storage and drops validity for the revoked
//! byte ranges only — the rest of the holder's cache stays warm.

// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use atomio_check::OrderedMutex;
use atomio_interval::StridedSet;
use atomio_vtime::VNanos;

use crate::fault::{FaultAction, FaultInjector, FaultPlan, FaultSite};
use crate::lockclass;

/// One client's side of the revocation protocol: flush dirty bytes inside
/// `ranges` to storage and drop cache validity for exactly those ranges.
///
/// Both directions carry the lock manager's own compressed [`StridedSet`];
/// walk its bytes by maximal run ([`StridedSet::iter_runs`]: the set is
/// canonical, so every train's runs are maximal).
///
/// Called by a lock manager *while another client's acquisition is being
/// granted*, so implementations must only take client-local locks (the
/// holder's cache mutex, the storage gate) — never a lock manager's.
pub(crate) trait RevocationHandler: Send + Sync + std::fmt::Debug {
    /// Serve the revocation; returns the dirty bytes flushed to storage on
    /// its behalf, so the dispatching lock manager can bill the revoking
    /// acquirer the per-byte flush cost
    /// ([`PlatformProfile::token_revoke_byte_ns`](crate::PlatformProfile::token_revoke_byte_ns))
    /// on top of the flat per-holder fee. `now` is the dispatching
    /// acquirer's grant time — the one deterministic instant both sides
    /// agree on — and is the timestamp implementations must stamp on any
    /// coherence trace events (the holder's own clock may be anywhere and
    /// is racy to read from the dispatcher's thread).
    fn revoke(&self, ranges: &StridedSet, now: VNanos) -> u64;

    /// The owner was granted a token over `ranges`: record the
    /// cache-validity rights. Called by a lock manager **while its state
    /// mutex is held**, so the rights exist before the grant becomes
    /// visible to (and revocable by) any rival acquisition — if the
    /// client recorded them itself after the acquisition returned, a
    /// revocation landing in between would subtract from the not-yet-grown
    /// set and the client would then resurrect rights whose manager-side
    /// token is already gone, caching stale bytes no revocation ever
    /// visits again. Implementations must take only client-local locks
    /// and never call back into a lock manager. Default: no-op.
    fn granted(&self, _ranges: &StridedSet) {}

    /// This handler's registration was replaced by a re-open of the same
    /// (client, file). The superseded side must stop trusting its cache —
    /// it will receive no further revocations — so implementations drop
    /// their validity rights and cached data. Default: no-op (recorders,
    /// cost-model-only handlers).
    fn superseded(&self) {}

    /// The owner died (a [`FaultAction::KillClient`] event): same
    /// obligations as
    /// `RevocationHandler::superseded` — the register-supersede path
    /// generalized to crash. Dirty write-behind
    /// data dies with the client (the documented close-without-fsync
    /// contract); coverage is cleared so the token ranges the manager
    /// still holds for the corpse protect nothing. Default: supersede.
    fn crashed(&self) {
        self.superseded();
    }
}

/// What one revocation dispatch cost: the dirty bytes the holder flushed,
/// plus any virtual time fault injection added on the dispatch path
/// (drop-and-resend timeouts, delivery delays) — billed to the revoking
/// acquirer on top of the per-byte flush charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RevokeOutcome {
    pub flushed: u64,
    pub delay_ns: VNanos,
}

/// Per-file registry mapping a client id to its `RevocationHandler`.
///
/// One handler per client: re-opening the same file replaces the previous
/// handle's registration (the caller must then call
/// `RevocationHandler::superseded` on the returned predecessor, so the
/// old handle cannot keep serving cached data it no longer receives
/// revocations for), so in lock-driven mode each client keeps a single
/// *live* handle per file (which is how every MPI rank uses it).
/// Revoking an unregistered client is a no-op — that is exactly the
/// close-to-open case, where no handler is ever registered and the blanket
/// `sync`/`invalidate` protocol remains responsible for coherence.
#[derive(Debug)]
pub struct CoherenceHub {
    handlers: OrderedMutex<HashMap<usize, Arc<dyn RevocationHandler>>>,
    /// Fault schedule consulted per dispatch ([`FaultSite::RevokeDispatch`]);
    /// inert (an empty plan) unless bound before the hub is shared.
    faults: Arc<FaultInjector>,
}

impl Default for CoherenceHub {
    fn default() -> Self {
        CoherenceHub {
            handlers: lockclass::coherence_registry(HashMap::new()),
            faults: Arc::new(FaultInjector::new(FaultPlan::none())),
        }
    }
}

impl CoherenceHub {
    /// Attach the file system's fault injector (called once when the file
    /// is created, before the hub is shared).
    pub(crate) fn bind_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = faults;
    }

    /// Register (or replace) `owner`'s handler; returns the replaced one,
    /// which the caller must notify via `RevocationHandler::superseded`.
    pub(crate) fn register(
        &self,
        owner: usize,
        handler: Arc<dyn RevocationHandler>,
    ) -> Option<Arc<dyn RevocationHandler>> {
        self.handlers.lock().insert(owner, handler)
    }

    /// Remove `owner`'s registration only if it still is `handler` — the
    /// dropped-handle path: a handle that was already superseded by a
    /// re-open must not tear down its successor's registration.
    pub(crate) fn unregister_if(&self, owner: usize, handler: &Arc<dyn RevocationHandler>) {
        let mut handlers = self.handlers.lock();
        if handlers
            .get(&owner)
            .is_some_and(|h| Arc::ptr_eq(h, handler))
        {
            handlers.remove(&owner);
        }
    }

    /// Dispatch a revocation of `ranges` to `owner`'s handler, if any;
    /// returns the dirty bytes the handler flushed (0 without a handler)
    /// plus any fault-injected dispatch delay the acquirer must absorb.
    /// The registry lock is released before the handler runs.
    ///
    /// A scheduled [`FaultAction::DropRevocation`] loses the dispatch: the
    /// lock manager's revocation RPC times out and re-sends (each attempt
    /// re-consults the plan, so chained drops compound); the timeout is
    /// charged to the acquirer as dispatch delay. A
    /// [`FaultAction::DelayRevocation`] stalls delivery — the handler runs
    /// at `now + ns`, and the acquirer's grant completes that much later.
    pub(crate) fn revoke(&self, owner: usize, ranges: &StridedSet, now: VNanos) -> RevokeOutcome {
        if ranges.is_empty() {
            return RevokeOutcome::default();
        }
        let mut delay_ns: VNanos = 0;
        let inj = &self.faults;
        if inj.active() {
            loop {
                match inj.check(FaultSite::RevokeDispatch { holder: owner }) {
                    Some(FaultAction::DropRevocation { timeout_ns }) => {
                        // Lost in flight: the dispatcher waits out the
                        // timeout and re-sends.
                        inj.stats().add(&inj.stats().revocations_dropped, 1);
                        delay_ns += timeout_ns;
                    }
                    Some(FaultAction::DelayRevocation { ns }) => {
                        inj.stats().add(&inj.stats().revocations_delayed, 1);
                        delay_ns += ns;
                        break;
                    }
                    _ => break,
                }
            }
        }
        let handler = self.handlers.lock().get(&owner).cloned();
        let flushed = match handler {
            Some(h) => h.revoke(ranges, now + delay_ns),
            None => 0,
        };
        RevokeOutcome { flushed, delay_ns }
    }

    /// The owner died: route the crash to its handler (coverage cleared,
    /// cache and dirty write-behind data discarded — the
    /// register-supersede path generalized to crash) and remove the
    /// registration. Revocations for the dead client's still-held token
    /// ranges become no-ops, so rivals proceed unharmed.
    pub(crate) fn crash(&self, owner: usize) -> bool {
        let handler = self.handlers.lock().remove(&owner);
        match handler {
            Some(h) => {
                h.crashed();
                true
            }
            None => false,
        }
    }

    /// Dispatch a grant of `ranges` to `owner`'s handler, if any — see
    /// [`RevocationHandler::granted`] for why the lock manager calls this
    /// under its state mutex.
    pub(crate) fn grant_coverage(&self, owner: usize, ranges: &StridedSet) {
        if ranges.is_empty() {
            return;
        }
        let handler = self.handlers.lock().get(&owner).cloned();
        if let Some(h) = handler {
            h.granted(ranges);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test recorder: a plain mutex the code under test never takes"
)]
mod tests {
    use super::*;
    use atomio_interval::ByteRange;
    use parking_lot::Mutex;

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Mutex<Vec<StridedSet>>,
    }

    impl RevocationHandler for Recorder {
        fn revoke(&self, ranges: &StridedSet, _now: VNanos) -> u64 {
            self.seen.lock().push(ranges.clone());
            0
        }
    }

    #[test]
    fn routes_to_registered_owner_only() {
        let hub = CoherenceHub::default();
        let a = Arc::new(Recorder::default());
        let handler = Arc::clone(&a) as Arc<dyn RevocationHandler>;
        hub.register(3, Arc::clone(&handler));
        let r = StridedSet::from_range(ByteRange::new(0, 10));
        hub.revoke(3, &r, 0);
        hub.revoke(4, &r, 0); // unregistered: no-op
        hub.revoke(3, &StridedSet::new(), 0); // empty: no-op
        assert_eq!(a.seen.lock().len(), 1);
        // Only the registered handler itself can take its registration down.
        let stranger: Arc<dyn RevocationHandler> = Arc::new(Recorder::default());
        hub.unregister_if(3, &stranger);
        hub.revoke(3, &r, 0);
        assert_eq!(a.seen.lock().len(), 2);
        hub.unregister_if(3, &handler);
        hub.revoke(3, &r, 0);
        assert_eq!(a.seen.lock().len(), 2);
    }
}
