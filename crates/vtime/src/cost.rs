use crate::VNanos;

/// One kibibyte.
const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;

const NANOS_PER_SEC: f64 = 1e9;

/// Cost model for a point-to-point communication link (network or memory
/// interconnect): fixed per-message latency plus a bandwidth term.
///
/// `transfer_ns(b) = latency_ns + b / bytes_per_sec`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCost {
    /// One-way message latency in nanoseconds.
    pub latency_ns: VNanos,
    /// Sustained link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl LinkCost {
    pub fn new(latency_ns: VNanos, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "link bandwidth must be positive");
        LinkCost {
            latency_ns,
            bytes_per_sec,
        }
    }

    /// Time to move `bytes` across the link, including latency.
    pub(crate) fn transfer_ns(&self, bytes: u64) -> VNanos {
        self.latency_ns + self.payload_ns(bytes)
    }

    /// Bandwidth term only (no latency), e.g. for pipelined segments.
    pub fn payload_ns(&self, bytes: u64) -> VNanos {
        (bytes as f64 / self.bytes_per_sec * NANOS_PER_SEC).round() as VNanos
    }

    /// Cost of a `log2(p)`-round collective moving `bytes` per round.
    ///
    /// This is the classic tree/recursive-doubling model used to charge
    /// barrier/bcast/allgather time: `ceil(log2 p) * transfer_ns(bytes)`.
    pub fn collective_ns(&self, p: usize, bytes: u64) -> VNanos {
        let rounds = ceil_log2(p) as u64;
        rounds * self.transfer_ns(bytes)
    }
}

/// Cost model for an I/O server or disk: a fixed per-request overhead
/// (request handling, seek, RPC processing) plus a bandwidth term.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCost {
    /// Fixed service overhead charged per request, in nanoseconds.
    pub per_op_ns: VNanos,
    /// Sustained service bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl ServeCost {
    pub fn new(per_op_ns: VNanos, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "service bandwidth must be positive");
        ServeCost {
            per_op_ns,
            bytes_per_sec,
        }
    }

    /// Service time for one request of `bytes`.
    pub fn service_ns(&self, bytes: u64) -> VNanos {
        self.per_op_ns + (bytes as f64 / self.bytes_per_sec * NANOS_PER_SEC).round() as VNanos
    }
}

/// Cost model for local memory traffic (cache-hit copies in the simulated
/// client page cache).
#[derive(Debug, Clone, PartialEq)]
pub struct MemCost {
    /// Sustained copy bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl MemCost {
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "memory bandwidth must be positive");
        MemCost { bytes_per_sec }
    }

    /// Time to copy `bytes` within client memory.
    pub fn copy_ns(&self, bytes: u64) -> VNanos {
        (bytes as f64 / self.bytes_per_sec * NANOS_PER_SEC).round() as VNanos
    }
}

/// Completion time of one parallel fan-out round trip to `domains` peers
/// (the per-server lock domains a grant must contact): the client
/// serializes the per-domain request messages through its own NIC
/// (`issue_ns` each), then the round trips proceed **concurrently**, so the
/// total is `(domains - 1) · issue_ns + trip_ns` — max-over-domains, not
/// sum. Zero domains cost nothing. Every domain sits on its own server
/// node, so every trip pays the same `trip_ns`; this is the lock manager's
/// only fan-out price.
pub fn fanout_ns(issue_ns: VNanos, trip_ns: VNanos, domains: u64) -> VNanos {
    if domains == 0 {
        0
    } else {
        (domains - 1) * issue_ns + trip_ns
    }
}

/// `ceil(log2(p))`, with `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
pub(crate) fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Convert a byte count moved over a virtual duration into MiB/s — the unit
/// used by the paper's Figure 8 y-axes.
pub fn bandwidth_mibps(bytes: u64, elapsed: VNanos) -> f64 {
    if elapsed == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / MIB as f64 / (elapsed as f64 / NANOS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_includes_latency() {
        let l = LinkCost::new(1_000, 1e9); // 1us latency, 1 GB/s
        assert_eq!(l.transfer_ns(0), 1_000);
        assert_eq!(l.transfer_ns(1_000_000), 1_000 + 1_000_000);
    }

    #[test]
    fn serve_cost_charges_overhead_per_request() {
        let s = ServeCost::new(50_000, 100e6); // 50us/op, 100 MB/s
        assert_eq!(s.service_ns(0), 50_000);
        // 1 MB at 100 MB/s = 10 ms
        assert_eq!(s.service_ns(100_000_000), 50_000 + 1_000_000_000);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn collective_cost_scales_with_log_p() {
        let l = LinkCost::new(10, 1e9);
        assert_eq!(l.collective_ns(1, 0), 0);
        assert_eq!(l.collective_ns(8, 0), 3 * 10);
        assert_eq!(l.collective_ns(9, 0), 4 * 10);
    }

    #[test]
    fn bandwidth_units() {
        // 1 MiB in 1 second -> 1.0 MiB/s
        let bw = bandwidth_mibps(MIB, 1_000_000_000);
        assert!((bw - 1.0).abs() < 1e-9);
        // 512 MiB in 0.5 s -> 1024 MiB/s
        let bw = bandwidth_mibps(512 * MIB, 500_000_000);
        assert!((bw - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn zero_elapsed_is_infinite_bandwidth() {
        assert!(bandwidth_mibps(10, 0).is_infinite());
    }

    #[test]
    fn fanout_is_max_over_domains_not_sum() {
        assert_eq!(fanout_ns(1_000, 50_000, 0), 0);
        assert_eq!(fanout_ns(1_000, 50_000, 1), 50_000);
        // 4 domains: 3 extra injections + ONE parallel trip, far below
        // 4 serialized trips.
        assert_eq!(fanout_ns(1_000, 50_000, 4), 3_000 + 50_000);
        assert!(fanout_ns(1_000, 50_000, 4) < 4 * 50_000);
    }

    #[test]
    fn mem_copy_cost() {
        let m = MemCost::new(2e9);
        assert_eq!(m.copy_ns(2_000_000_000), 1_000_000_000);
    }
}
