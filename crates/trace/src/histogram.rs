use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Value;

/// Bucket count: one bucket for zero plus one per power of two up to
/// `u64::MAX` — value `v > 0` lands in bucket `floor(log2 v) + 1`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A lock-free log₂-bucketed latency histogram.
///
/// Recording is one relaxed `fetch_add` — cheap enough to stay always-on in
/// the simulator's hot paths. Quantiles come from [`HistogramSnapshot`]:
/// the reported value is the *upper bound* of the bucket holding the
/// requested rank, so `quantile(q)` is always ≥ the exact q-quantile and
/// within one power of two of it (2× relative error), the usual
/// HdrHistogram-style contract.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-value copy of a [`LatencyHistogram`]; mergeable across ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn new() -> Self {
        HistogramSnapshot::default()
    }

    /// Record into a plain snapshot (single-threaded accumulation).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Add another snapshot's counts (cross-rank aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The q-quantile (q in `[0, 1]`), reported as the upper bound of the
    /// bucket containing the rank-`ceil(q·n)` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// Inclusive `(low, high)` value bounds of the bucket containing the
    /// q-quantile — the exact quantile of the recorded samples is
    /// guaranteed to lie inside. `(0, 0)` when empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        let n = self.count();
        if n == 0 {
            return (0, 0);
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bounds_of(i);
            }
        }
        bounds_of(HISTOGRAM_BUCKETS - 1)
    }

    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper bound of the highest non-empty bucket (≥ the recorded max).
    pub(crate) fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map_or(0, |(i, _)| bounds_of(i).1)
    }
}

/// The summary bench artifacts record per histogram: sample count plus the
/// bucket upper bounds of p50/p90/p99 and of the highest sample (each ≥
/// the exact figure and within 2× of it).
impl From<&HistogramSnapshot> for Value {
    fn from(h: &HistogramSnapshot) -> Value {
        crate::object! {
            "count": h.count(),
            "p50_ns": h.p50(),
            "p90_ns": h.p90(),
            "p99_ns": h.p99(),
            "max_ns": h.max_bound(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bounds_of(2), (2, 3));
        assert_eq!(bounds_of(64).1, u64::MAX);
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        // Exact p50 = 500, in bucket [256, 511].
        assert_eq!(s.quantile_bounds(0.50), (256, 511));
        // Exact p99 = 990, in bucket [512, 1023].
        assert_eq!(s.p99(), 1023);
        assert!(s.max_bound() >= 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile_bounds(0.99), (0, 0));
        assert_eq!(s.max_bound(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        a.record(10);
        b.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.p50(), 15, "two of three samples in [8, 15]");
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 7, "bucket [4, 7] upper bound");
    }
}
