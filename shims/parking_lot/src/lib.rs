//! Offline stand-in for the subset of the `parking_lot` API this workspace
//! uses, implemented on top of `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this shim as a path dependency under the same crate name. Semantics match
//! what the simulator relies on:
//!
//! * `Mutex::lock` / `RwLock::read` / `RwLock::write` return guards directly
//!   (no `Result`); a poisoned std lock is recovered with `into_inner`,
//!   mirroring parking_lot's lack of poisoning.
//! * `MutexGuard::unlocked` releases the lock around a closure and takes
//!   it back afterwards, parking_lot style. There is no `Condvar`: the
//!   workspace's waits park through `atomio_vtime::Clock::park`.

use std::ops::{Deref, DerefMut};

/// Mutual exclusion, parking_lot-flavoured: `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. Wraps the std guard in an `Option` so
/// [`MutexGuard::unlocked`] can release it for a while.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a std::sync::Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            guard: Some(unpoison(self.inner.lock())),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard active")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_deref_mut().expect("guard active")
    }
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Release the lock, run `f`, and lock again before returning.
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        drop(s.guard.take());
        let out = f();
        s.guard = Some(unpoison(s.mutex.lock()));
        out
    }
}

/// Reader-writer lock, parking_lot-flavoured: no `Result`, no poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: unpoison(self.inner.read()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: unpoison(self.inner.write()),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn unlocked_lets_another_thread_in() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let mut g = m.lock();
        MutexGuard::unlocked(&mut g, || {
            std::thread::spawn(move || *m2.lock() += 1).join().unwrap();
        });
        assert_eq!(*g, 2, "the other thread took the lock meanwhile");
    }
}
