//! Runtime lock-order checking: a thin ranked wrapper around the
//! `parking_lot` mutex, and the hold check at host waits
//! ([`assert_may_wait`]).
//!
//! Every [`OrderedMutex`] belongs to a named **class** (all per-handle
//! cache mutexes are one class, all lock-manager state mutexes another)
//! with a declared **rank**. A thread may only climb the ranks: in debug
//! builds each acquisition is checked against every class the acquiring
//! thread already holds, and taking a class of equal or lower rank than a
//! held one panics at once, naming both acquisition sites
//! (`#[track_caller]` locations). Same-class nesting is reported as such.
//!
//! Because every nesting climbs one total order, no cycle can form, and
//! the verdict depends only on the nesting itself: an inversion panics the
//! first time it runs, whatever the schedule or what else ran earlier in
//! the process.
//!
//! Release builds compile the wrapper down to the plain mutex: no
//! thread-local bookkeeping, no atomics.

use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;

#[cfg(debug_assertions)]
mod tracking {
    use std::cell::RefCell;
    use std::panic::Location;

    pub(super) struct Held {
        pub class: &'static str,
        pub rank: u32,
        pub site: &'static Location<'static>,
    }

    thread_local! {
        pub(super) static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Check one acquisition against everything this thread holds, then
    /// push it on the held stack. Panics on same-class nesting or a rank
    /// that does not climb, so a class is on the stack at most once.
    pub(super) fn on_acquire(class: &'static str, rank: u32, site: &'static Location<'static>) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for h in held.iter() {
                if h.class == class {
                    panic!(
                        "lock-order violation: {class} acquired at {site} while already \
                         held at {} (same-class nesting is a self-deadlock shape)",
                        h.site
                    );
                }
                if h.rank >= rank {
                    panic!(
                        "lock-order violation: {class} (rank {rank}) acquired at {site} \
                         while holding {} (rank {}) locked at {} — declared order \
                         requires {class} first",
                        h.class, h.rank, h.site
                    );
                }
            }
            held.push(Held { class, rank, site });
        })
    }

    pub(super) fn on_release(class: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards can drop out of acquisition order; search from the top.
            if let Some(i) = held.iter().rposition(|h| h.class == class) {
                held.remove(i);
            }
        });
    }
}

/// A mutex checked against a declared lock order under a named class.
/// See the module docs; in release builds this is exactly the wrapped
/// `parking_lot::Mutex`. Deliberately no `Default`: every instance must
/// name its class and rank.
#[derive(Debug)]
pub struct OrderedMutex<T: ?Sized> {
    class: &'static str,
    // Consulted only by the debug-build acquisition checks.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: u32,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex of `class` at `rank`: a thread holding rank `r` may only
    /// acquire ranks strictly above `r`.
    pub const fn new(class: &'static str, rank: u32, value: T) -> Self {
        OrderedMutex {
            class,
            rank,
            inner: parking_lot::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn class(&self) -> &'static str {
        self.class
    }

    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracking::on_acquire(self.class, self.rank, Location::caller());
        OrderedMutexGuard {
            guard: self.inner.lock(),
            #[cfg(debug_assertions)]
            class: self.class,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the held-stack entry on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: &'static str,
}

impl<'a, T: ?Sized> OrderedMutexGuard<'a, T> {
    /// The wrapped `parking_lot` guard, for a wait that releases it while
    /// parked (`atomio_vtime::Clock::park`). While a wait has the mutex
    /// released the held-stack still lists it — sound, because the
    /// waiting thread acquires nothing while blocked and holds the mutex
    /// again on return.
    pub fn raw(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracking::on_release(self.class);
    }
}

/// Debug builds: panic unless every class this thread holds is in
/// `allowed`. Call it where a thread is about to wait in *host* time for
/// another thread to act (a wait that thread ends): a class held
/// there that the other thread needs first is a deadlock on any schedule
/// that reaches it. The panic names each offending class, where it was
/// locked, the wait `site` and its caller. Release builds compile it to
/// nothing.
#[track_caller]
#[inline]
pub fn assert_may_wait(site: &str, allowed: &[&str]) {
    #[cfg(debug_assertions)]
    {
        let caller = Location::caller();
        tracking::HELD.with(|held| {
            let bad: Vec<String> = held
                .borrow()
                .iter()
                .filter(|h| !allowed.contains(&h.class))
                .map(|h| format!("{} (locked at {})", h.class, h.site))
                .collect();
            if !bad.is_empty() {
                panic!(
                    "lock held across a host wait: {} held at the {site} ({caller})",
                    bad.join(", ")
                );
            }
        });
    }
    #[cfg(not(debug_assertions))]
    let _ = (site, allowed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message of the panic `f` raises on its own thread.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let err = std::thread::spawn(f).join().expect_err("must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn climbing_nesting_is_clean() {
        let a = OrderedMutex::new("t.clean_a", 1, 0u32);
        let b = OrderedMutex::new("t.clean_b", 2, 0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rank_violation_panics_with_both_sites() {
        let msg = panic_message(|| {
            let lo = OrderedMutex::new("t.rank_lo", 1, ());
            let hi = OrderedMutex::new("t.rank_hi", 2, ());
            let _g = hi.lock();
            let _h = lo.lock(); // rank 1 under rank 2: violation
        });
        assert!(msg.contains("t.rank_lo"), "{msg}");
        assert!(msg.contains("t.rank_hi"), "{msg}");
        assert!(msg.contains("lockorder.rs"), "both sites named: {msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn same_class_nesting_panics() {
        let msg = panic_message(|| {
            let a = OrderedMutex::new("t.same", 1, ());
            let b = OrderedMutex::new("t.same", 1, ());
            let _g = a.lock();
            let _h = b.lock();
        });
        assert!(msg.contains("same-class nesting"), "{msg}");
        assert!(msg.contains("t.same"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn held_class_at_a_wait_panics_with_class_and_sites() {
        let msg = panic_message(|| {
            let other = OrderedMutex::new("t.wait_other", 1, ());
            let own = OrderedMutex::new("t.wait_own", 2, ());
            let _g = other.lock();
            let _h = own.lock();
            assert_may_wait("test wait", &["t.wait_own"]);
        });
        assert!(msg.contains("t.wait_other (locked at"), "{msg}");
        assert!(!msg.contains("t.wait_own"), "allowed class named: {msg}");
        assert!(msg.contains("test wait"), "{msg}");
        assert!(msg.contains("lockorder.rs"), "sites named: {msg}");
    }

    #[test]
    fn allowed_and_released_classes_may_wait() {
        let own = OrderedMutex::new("t.wait_ok", 2, ());
        let other = OrderedMutex::new("t.wait_dropped", 1, ());
        drop(other.lock());
        let _g = own.lock();
        assert_may_wait("test wait", &["t.wait_ok"]);
    }

    #[test]
    fn out_of_order_guard_drops_are_tracked() {
        let a = OrderedMutex::new("t.ooo_a", 1, ());
        let b = OrderedMutex::new("t.ooo_b", 2, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before the inner guard
        drop(gb);
        let _ga = a.lock(); // held stack must be clean again
    }
}
