//! # atomio — scalable MPI atomicity for concurrent overlapping I/O
//!
//! A from-scratch Rust reproduction of *Liao et al., "Scalable Implementations
//! of MPI Atomicity for Concurrent Overlapping I/O" (ICPP 2003)*.
//!
//! MPI-2's atomic mode demands that when concurrent I/O requests from multiple
//! MPI processes overlap in a shared file, each overlapped region contains data
//! from exactly **one** writer — even when a single MPI request touches many
//! non-contiguous file segments through an MPI *file view*. POSIX atomicity is
//! per-`write()` call and therefore insufficient. This workspace implements and
//! evaluates the paper's three strategies, plus a fourth beyond the paper:
//!
//! 1. **Byte-range file locking** — lock the whole span of the view, serialize.
//! 2. **Graph coloring** — exchange views, color the overlap graph, write in
//!    per-color phases separated by barriers.
//! 3. **Process-rank ordering** — highest rank wins each overlap; everyone else
//!    subtracts the overlap from their view and all ranks write concurrently.
//! 4. **Two-phase collective I/O** ([`collective`]) — A ≤ P aggregator ranks
//!    own disjoint stripe-aligned file domains; an `alltoallv` redistribution
//!    moves the data to its owners (highest rank wins: lower ranks surrender
//!    the overlap before shipping) and each aggregator issues large
//!    contiguous writes. Overlap is
//!    eliminated by construction: zero locks, zero phases, and it works even
//!    on lockless file systems.
//!
//! Because the original testbeds (ASCI Cplant/ENFS, SGI Origin2000/XFS, IBM
//! SP/GPFS) are unavailable, the whole substrate is simulated deterministically:
//! a threads-as-ranks message-passing runtime ([`msg`]), a striped parallel file
//! system with client caching and two lock-manager designs ([`pfs`]), an MPI
//! derived-datatype/file-view engine ([`dtype`]), and a virtual-time cost model
//! ([`vtime`]) that yields reproducible bandwidth figures shaped like the
//! paper's Figure 8.
//!
//! ## Quickstart
//!
//! ```
//! use atomio::prelude::*;
//!
//! // 2-D array of 64 x 256 bytes, column-wise partitioned over 4 ranks with
//! // 8 overlapped columns between neighbours (ghost cells).
//! let spec = ColWise::new(64, 256, 4, 8).unwrap();
//! let profile = PlatformProfile::fast_test();
//! let fs = FileSystem::new(profile.clone());
//!
//! let reports = run(4, profile.net.clone(), |comm| {
//!     let part = spec.partition(comm.rank());
//!     let buf = part.fill(pattern::rank_stamp(comm.rank()));
//!     let mut file = MpiFile::open(&comm, &fs, "demo", OpenMode::ReadWrite).unwrap();
//!     file.set_view(0, part.filetype.clone()).unwrap();
//!     file.set_atomicity(Atomicity::Atomic(Strategy::RankOrdering)).unwrap();
//!     file.write_at_all(0, &buf).unwrap();
//!     file.close().unwrap()
//! });
//! // Every overlapped region now holds bytes from exactly one rank.
//! let check = verify::check_mpi_atomicity(
//!     &fs.snapshot("demo").unwrap(),
//!     &spec.all_views(),
//!     &pattern::rank_stamps(4),
//! );
//! assert!(check.is_atomic());
//! assert!(reports.iter().all(|r| r.bytes_written > 0));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment harness that regenerates every table and figure of the paper.

pub use atomio_check as check;
pub use atomio_collective as collective;
pub use atomio_core as core;
pub use atomio_dtype as dtype;
pub use atomio_interval as interval;
pub use atomio_msg as msg;
pub use atomio_pfs as pfs;
pub use atomio_trace as trace;
pub use atomio_vtime as vtime;
pub use atomio_workloads as workloads;

/// Commonly used items, re-exported for `use atomio::prelude::*`.
pub mod prelude {
    pub use atomio_collective::{ExchangeSchedule, TwoPhaseConfig, TwoPhaseReport};
    pub use atomio_core::{
        verify, Atomicity, CloseReport, IoPath, LockFootprint, LockGranularity, MpiFile, OpenMode,
        SieveConfig, Strategy, WriteReport,
    };
    pub use atomio_dtype::{ArrayOrder, Datatype, FileView};
    pub use atomio_interval::{ByteRange, IntervalSet, StridedSet, Train};
    pub use atomio_msg::{run, Comm, NetCost};
    pub use atomio_pfs::{
        CacheParams, CoherenceMode, FaultAction, FaultPlan, FaultSite, FaultSnapshot, FileSystem,
        FsError, LatencySnapshot, LockKind, LockMode, PlatformProfile, RestartPolicy,
    };
    pub use atomio_trace::{
        export_chrome, validate_chrome_trace, validate_json, Category, HistogramSnapshot,
        LatencyHistogram, MemorySink, NoopSink, TraceEvent, TraceSink, Tracer, Track,
    };
    pub use atomio_vtime::{bandwidth_mibps, Clock, VNanos};
    pub use atomio_workloads::{
        pattern, BlockBlock, ColWise, CrashRecovery, IndependentStrided, Partition, ReadAnomaly,
        ReaderWriter, RowWise, RwPreset,
    };
}
