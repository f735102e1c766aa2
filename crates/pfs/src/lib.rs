//! Simulated parallel file system.
//!
//! The paper evaluates its three MPI-atomicity strategies on three real
//! machines (Table 1): ASCI Cplant running **ENFS** (an NFS derivative with
//! *no* file locking), an SGI Origin2000 running **XFS** (centralized lock
//! management), and an IBM SP running **GPFS** (distributed, token-based
//! lock management). None of those testbeds exists here, so this crate
//! rebuilds the behaviours the paper's analysis depends on:
//!
//! * **Striped multi-server storage** ([`FileSystem`], [`ServerSet`]) —
//!   files are striped over N I/O servers, each a serially-shared resource
//!   with a per-request overhead + bandwidth cost model in virtual time.
//! * **Real bytes, really racing** ([`Storage`]) — file contents live in a
//!   sparse block store written by the racing rank threads, so atomicity
//!   violations are *observable*, not merely modeled. Its blocks are
//!   copy-on-write, so a [`Snapshot`] of a file shares them instead of
//!   copying the file. POSIX per-call atomicity can be switched off to
//!   demonstrate even intra-call interleaving (paper §2.1).
//! * **One request signature** ([`PosixFile`]) — every closed-loop access
//!   is a `read` or `write` of `(offset, bytes)` segments along an
//!   [`IoPath`]: one pipelined vector to the servers, or segment by
//!   segment through the client cache.
//! * **Client caching** ([`ClientCache`]) — page cache with read-ahead and
//!   write-behind plus explicit `sync`/`invalidate`, reproducing the cache
//!   coherence hazards §3 says the handshaking strategies must handle —
//!   and, on GPFS-style platforms, **lock-driven coherence**
//!   ([`CoherenceMode::LockDriven`], [`CoherenceHub`]): a held byte-range
//!   token confers cache-validity rights, and revocation flushes and
//!   invalidates exactly the revoked ranges instead of the whole cache.
//! * **One lock manager, a preset table** ([`LockManager`]) — the central
//!   (NFS/XFS), distributed-token (GPFS, cf. Schmuck & Haskin FAST'02) and
//!   sharded per-server extent-lock (Lustre, optionally token-over-shards)
//!   designs of §3.2 are one implementation whose [`LockKind`] preset picks
//!   the number of lock domains, whether clients cache tokens, whether
//!   modes fold to exclusive, and the cost terms. Every preset grants
//!   **atomic multi-range list locks**: a whole compressed
//!   [`StridedSet`](atomio_interval::StridedSet) is granted all-or-nothing
//!   under fair virtual-time queueing, so exact footprints can be locked
//!   without the per-window 2PL deadlock. The ENFS profile rejects lock
//!   requests entirely, exactly like Cplant (§4).
//! * **Platform profiles** ([`PlatformProfile`]) — Table 1 as data, plus the
//!   calibrated cost constants that shape the Figure 8 reproduction.

mod cache;
mod coherence;
mod error;
mod fault;
mod file;
mod journal;
mod lock;
mod lockclass;
mod profile;
mod server;
mod stats;
mod storage;

pub use cache::{CacheParams, ClientCache};
pub use coherence::CoherenceHub;
pub use error::FsError;
pub use fault::{
    FaultAction, FaultEvent, FaultPlan, FaultSite, FaultSnapshot, FaultStats, RestartPolicy,
};
pub use file::{carve, FileSystem, IoPath, LockGuard, PosixFile};
pub use lock::{LockManager, LockMode, SetGrant};
pub use profile::{CoherenceMode, LockKind, PlatformProfile};
pub use server::ServerSet;
pub use stats::{ClientStats, FsLatency, LatencySnapshot, StatsSnapshot};
pub use storage::{Snapshot, Storage};
