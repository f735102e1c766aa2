use parking_lot::Mutex;

use crate::VNanos;

/// A work-conserving busy-until horizon for a serially-shared resource (one
/// I/O server, one lock queue head).
///
/// A request arriving at virtual time `t` with service duration `d` is
/// scheduled FCFS: it starts at `max(t, horizon)` and the horizon moves to
/// `start + d`. When all competing requests arrive at the same virtual time
/// (barrier-aligned collective I/O), the *final* horizon equals
/// `arrival + sum(d_i)` regardless of the real-time order in which threads
/// reach the mutex, which is what makes simulated makespans reproducible.
#[derive(Debug, Default)]
pub struct Horizon {
    busy_until: Mutex<VNanos>,
}

impl Horizon {
    pub fn new() -> Self {
        Horizon {
            busy_until: Mutex::new(0),
        }
    }

    /// Schedule one request; returns `(start, end)` in virtual time.
    pub fn serve(&self, arrival: VNanos, duration: VNanos) -> (VNanos, VNanos) {
        let mut h = self.busy_until.lock();
        let start = arrival.max(*h);
        let end = start + duration;
        *h = end;
        (start, end)
    }

    /// Current busy-until time.
    pub fn busy_until(&self) -> VNanos {
        *self.busy_until.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_accumulates() {
        let h = Horizon::new();
        assert_eq!(h.serve(0, 10), (0, 10));
        assert_eq!(h.serve(0, 10), (10, 20));
        assert_eq!(h.serve(5, 10), (20, 30));
    }

    #[test]
    fn idle_gap_respected() {
        let h = Horizon::new();
        h.serve(0, 10);
        // Arrives after the resource went idle: starts at its own arrival.
        assert_eq!(h.serve(100, 5), (100, 105));
    }

    #[test]
    fn aligned_arrivals_are_order_insensitive_in_total() {
        // Whatever order three 10ns jobs arrive at t=50, the horizon ends at 80.
        let h = Horizon::new();
        for _ in 0..3 {
            h.serve(50, 10);
        }
        assert_eq!(h.busy_until(), 80);
    }
}
