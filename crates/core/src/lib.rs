//! The paper's contribution: scalable implementations of **MPI atomicity**
//! for concurrent overlapping I/O.
//!
//! MPI-2's atomic mode requires that when concurrent I/O requests overlap in
//! the file, every overlapped region ends up containing data from exactly
//! one of the writers — *across all the non-contiguous segments of an MPI
//! file view*, which is strictly stronger than POSIX's per-`write()`
//! atomicity (paper §2). [`MpiFile`] implements MPI-IO style file
//! manipulation on the simulated parallel file system and offers the three
//! strategies the paper studies (§3):
//!
//! * [`Strategy::FileLocking`] — wrap the request in an exclusive
//!   byte-range lock, at a tunable [`LockGranularity`]: the bounding span
//!   from the process's first to its last file offset (what ROMIO does —
//!   correct, but serializes overlapping — with column-wise views,
//!   *virtually all* — I/O), or the exact compressed footprint as one
//!   atomic multi-range list grant, under which disjoint interleaved
//!   writers proceed fully in parallel.
//! * [`Strategy::GraphColoring`] — exchange file views, build the P×P
//!   boolean overlap matrix W, greedily color the overlap graph (Figure 5),
//!   then write in one barrier-separated phase per color: no two
//!   processes are ever in flight together on bytes they share. Only
//!   those bytes wait for their writer's color when that is the cheaper
//!   schedule on the platform ([`held_bytes`]); the rest of every request
//!   leaves in phase 0.
//! * [`Strategy::RankOrdering`] — agree that the highest rank wins every
//!   overlap; every process subtracts higher-ranked processes' views from
//!   its own (Figure 7) and all processes write concurrently with zero
//!   overlap and less total I/O.
//! * [`Strategy::TwoPhase`] — beyond the paper: two-phase collective I/O
//!   (`atomio-collective`). Views are exchanged, the aggregate extent is
//!   split into disjoint stripe-aligned file domains owned by A ≤ P
//!   aggregator ranks, data is redistributed to the owners (the highest
//!   rank wins: lower ranks surrender the overlap before anything is
//!   shipped) and each aggregator issues large contiguous writes — overlap, and with it the need for locks or
//!   write phases, is eliminated by construction.
//! * [`Strategy::DataSieving`] — also beyond the paper: data-sieving
//!   independent I/O ([`SieveConfig`], Thakur et al.). The request's
//!   noncontiguous runs are grouped into contiguous sieve windows; each
//!   window is read whole, patched, and written back as one request, so
//!   server requests scale with windows, not runs. Atomic mode wraps the
//!   whole sieved request in one exclusive byte-range lock spanning every
//!   read-modify-write — the only strategy besides plain locking and list
//!   I/O that works for *independent* calls, where no view exchange is
//!   possible (paper §5).
//!
//! [`verify`] provides an independent checker that decides whether a file's
//! final contents are consistent with *some* serialization of the
//! concurrent writes — the ground-truth test used throughout the test
//! suite and examples.

mod coloring;
mod error;
mod file;
mod sieve;
pub mod verify;

pub use atomio_collective::{
    higher_union_strided, surviving_pieces_strided, ExchangeSchedule, TwoPhaseConfig,
};
pub use coloring::{greedy_color, held_bytes, split_request, OverlapMatrix};
pub use error::Error;
pub use file::{
    Atomicity, CloseReport, LockFootprint, LockGranularity, MpiFile, OpenMode, ReadReport,
    Strategy, WriteReport,
};
pub use sieve::SieveConfig;

pub use atomio_pfs::IoPath;
