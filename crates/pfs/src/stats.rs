use atomio_trace::{HistogramSnapshot, LatencyHistogram};

/// Defines a struct of atomic counters, its plain-value snapshot and the
/// conversions between them from **one** field list, so the two structs
/// can never drift apart — adding a counter is one line at the call and
/// `snapshot`/`delta` pick it up automatically. Builds [`ClientStats`] /
/// [`StatsSnapshot`] here and [`FaultStats`](crate::FaultStats) /
/// [`FaultSnapshot`](crate::FaultSnapshot) in `fault.rs`.
///
/// Every counter is a relaxed atomic: an increment carries no payload
/// another thread reads through it, and a snapshot tolerates a torn
/// cross-counter view (counts are diagnostics, never control flow).
macro_rules! counters {
    (
        $(#[$stats_doc:meta])* $stats:ident,
        $(#[$snap_doc:meta])* $snap:ident;
        $( $(#[$doc:meta])* $field:ident ),* $(,)?
    ) => {
        $(#[$stats_doc])*
        #[derive(Debug, Default)]
        pub struct $stats {
            $( $(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        $(#[$snap_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $( pub $field: u64, )*
        }

        impl $stats {
            pub fn add(&self, field: &::std::sync::atomic::AtomicU64, n: u64) {
                field.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
            }

            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        impl $snap {
            /// Field-wise `self - earlier`: what happened between two
            /// snapshots (one phase, one operation). Counters are monotone,
            /// so with `earlier` taken first every field is exact;
            /// saturation only guards misuse.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Per-client I/O counters (diagnostics and EXPERIMENTS.md tables).
    ClientStats,
    /// A plain-value copy of [`ClientStats`].
    StatsSnapshot;
    /// Client-layer write *requests* issued, not API calls: a batched
    /// write counts one per segment, and a lock-driven cached write that
    /// splits at a token-coverage boundary counts one per sub-range (each
    /// really is a separate request). Compare op counts across coherence
    /// modes with that convention in mind; `bytes_written` is
    /// split-invariant.
    writes,
    /// Client-layer read requests; same per-request convention (and the
    /// same coverage-boundary caveat) as `writes`. `bytes_read` is
    /// split-invariant.
    reads,
    bytes_written,
    bytes_read,
    cache_hit_bytes,
    cache_miss_bytes,
    flushes,
    flushed_bytes,
    lock_acquires,
    lock_token_hits,
    /// Contiguous byte ranges carried by this client's lock requests: one
    /// per request for span locks, one per footprint run for exact list
    /// locks — the size of the access *description* shipped to the lock
    /// service.
    lock_ranges,
    /// Grants that were ordered behind a conflicting holder or a
    /// conflicting past release — the serialization byte-range locking is
    /// blamed for in §3.4, and the unit the `locking` bench counts.
    lock_serialized_grants,
    /// Lock-domain round trips paid: 1 per grant on the unsharded
    /// managers (0 on a full token hit), one per touched shard domain on
    /// the sharded managers.
    lock_shard_trips,
    /// Virtual nanoseconds spent between requesting a lock and holding it
    /// (round trips + waiting behind conflicting holders) — the pure
    /// grant-serialization time, independent of how the data I/O itself
    /// lands on the servers. Totals only; tail latencies come from the
    /// [`FsLatency`] grant-wait histogram.
    lock_wait_ns,
    /// Per-server *write* requests issued on this client's behalf: one
    /// contiguous access counts once per I/O server it touches (after
    /// same-server stripe merging). The currency data sieving is spending
    /// orders of magnitude less of than per-run I/O.
    server_write_requests,
    /// Per-server *read* requests (direct reads, cache fills, RMW reads).
    server_read_requests,
    /// Token revocations this client *served* as the holder: each one
    /// flushed the dirty bytes of the revoked ranges and invalidated
    /// exactly those ranges in the client's cache (lock-driven coherence).
    revocations_served,
    /// Dirty bytes flushed to the servers on behalf of revocations served.
    revoke_flushed_bytes,
    /// Previously-valid cached bytes invalidated by served revocations —
    /// the *exact* coherence cost, where close-to-open pays the whole
    /// cache.
    coherence_invalidated_bytes,
    /// Cache-hit bytes served under lock-driven coherence, i.e. re-reads
    /// answered from pages whose validity a held token guarantees — the
    /// traffic blanket invalidation used to throw away.
    coherent_hit_bytes,
    /// Fault-induced anomalies this client observed first-hand: retry
    /// loops entered after a server rejection, torn journal appends its
    /// own flush suffered, its own death. Scheduled-fault-event totals
    /// (per [`FaultAction`](crate::FaultAction), regardless of which call
    /// path observed them) live in [`FaultSnapshot`](crate::FaultSnapshot).
    faults_injected,
    /// Requests re-issued after a down server rejected them; each one paid
    /// an exponential vtime backoff (`retry_backoff_ns`).
    retries,
    /// Recovery journal replays this client ran (as the client whose
    /// rejection completed a restart countdown, or by reading through a
    /// pending intent record).
    journal_replays,
    /// Torn (uncommitted) journal records this client's replays discarded.
    torn_records_discarded,
    /// Redistribution payload bytes this rank shipped over cheap
    /// *intra-node* links (two-phase gather/exchange pieces whose sender
    /// and receiver share a node). Self-destined bytes count nowhere.
    wire_intra_bytes,
    /// Redistribution payload bytes this rank shipped across *inter-node*
    /// links — the traffic intra-node aggregation exists to shrink.
    wire_inter_bytes,
}

/// File-system-wide latency histograms: where single-sum counters such as
/// `lock_wait_ns` lose the tail, these keep it. Shared by every client of a
/// [`FileSystem`](crate::FileSystem) and always on (recording is one
/// relaxed `fetch_add`); benches read the p50/p99 via [`FsLatency::snapshot`].
#[derive(Debug, Default)]
pub struct FsLatency {
    /// Virtual ns from lock request to grant, one sample per acquisition.
    pub grant_wait: LatencyHistogram,
    /// Virtual-time cost of each served token revocation (flat revoke fee
    /// plus the per-byte flush charge), one sample per revoked holder.
    pub revoke_flush: LatencyHistogram,
    /// Per-server service time of each storage request (one sample per
    /// (request, server) pair, reads and writes alike).
    pub server_service: LatencyHistogram,
}

/// Plain-value copy of [`FsLatency`]; mergeable across file systems.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    pub grant_wait: HistogramSnapshot,
    pub revoke_flush: HistogramSnapshot,
    pub server_service: HistogramSnapshot,
}

impl FsLatency {
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            grant_wait: self.grant_wait.snapshot(),
            revoke_flush: self.revoke_flush.snapshot(),
            server_service: self.server_service.snapshot(),
        }
    }
}

impl LatencySnapshot {
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.grant_wait.merge(&other.grant_wait);
        self.revoke_flush.merge(&other.revoke_flush);
        self.server_service.merge(&other.server_service);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = ClientStats::default();
        s.add(&s.writes, 3);
        s.add(&s.bytes_written, 4096);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 3);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.reads, 0);
    }

    #[test]
    fn delta_is_per_field_difference() {
        let s = ClientStats::default();
        s.add(&s.writes, 2);
        s.add(&s.lock_wait_ns, 500);
        let before = s.snapshot();
        s.add(&s.writes, 5);
        s.add(&s.server_read_requests, 1);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.writes, 5);
        assert_eq!(d.server_read_requests, 1);
        assert_eq!(d.lock_wait_ns, 0);
        assert_eq!(after.delta(&after), StatsSnapshot::default());
    }

    #[test]
    fn latency_snapshot_merges() {
        let a = FsLatency::default();
        a.grant_wait.record(100);
        a.server_service.record(1_000);
        let b = FsLatency::default();
        b.grant_wait.record(100);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.grant_wait.count(), 2);
        assert_eq!(snap.server_service.count(), 1);
        assert_eq!(snap.revoke_flush.count(), 0);
    }
}
