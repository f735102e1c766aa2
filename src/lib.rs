#![doc = include_str!("../README.md")]

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
