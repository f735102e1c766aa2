use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::job::Table;

/// Virtual nanoseconds. All simulated time in the workspace uses this unit.
pub type VNanos = u64;

/// A per-rank virtual clock.
///
/// The clock is owned by one simulated rank but handed by reference to every
/// subsystem that charges time against that rank (message runtime, file
/// system client, lock managers). It is internally an atomic so that shared
/// components can read it without threading `&mut` everywhere; only the
/// owning rank's thread advances it, so reads by that thread are always
/// consistent.
///
/// The atomic is the rank's slot in its [`Job`](crate::Job) table, so a
/// clock is also the handle a library wait parks its rank with
/// ([`Clock::park`]). [`Clock::new`] is the clock of a job of one rank.
///
/// ```
/// use atomio_vtime::Clock;
/// let c = Clock::new();
/// c.advance(500);
/// c.advance_to(300); // no-op: clocks never go backwards
/// assert_eq!(c.now(), 500);
/// ```
#[derive(Clone)]
pub struct Clock {
    pub(crate) table: Arc<Table>,
    pub(crate) rank: usize,
}

impl Clock {
    /// A new clock at virtual time zero: the only rank of a job of its own.
    pub fn new() -> Self {
        Clock {
            table: Table::new(1),
            rank: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> VNanos {
        self.table.clock(self.rank).load(Ordering::Acquire)
    }

    /// Advance by `delta` nanoseconds, returning the new time.
    pub fn advance(&self, delta: VNanos) -> VNanos {
        self.table
            .clock(self.rank)
            .fetch_add(delta, Ordering::AcqRel)
            + delta
    }

    /// Advance to at least `t` (clocks are monotone; earlier targets are
    /// ignored). Returns the resulting time.
    pub fn advance_to(&self, t: VNanos) -> VNanos {
        self.table
            .clock(self.rank)
            .fetch_max(t, Ordering::AcqRel)
            .max(t)
    }

    /// Overwrite the clock. Only used by runtimes when (re)initializing a
    /// rank; normal simulation code should use the monotone operations.
    pub fn reset(&self, t: VNanos) {
        self.table.clock(self.rank).store(t, Ordering::Release);
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("rank", &self.rank)
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_is_monotone_max() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100, "must not move backwards");
        assert_eq!(c.advance_to(250), 250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn clones_share_state() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn reset_overwrites() {
        let c = Clock::new();
        c.advance(77);
        c.reset(3);
        assert_eq!(c.now(), 3);
    }
}
