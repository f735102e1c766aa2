use std::sync::Arc;

use atomio_collective::{
    higher_union_strided, surviving_pieces_strided, two_phase_read, two_phase_write, TwoPhaseConfig,
};
use atomio_dtype::{Datatype, FileView, ViewSegment};
use atomio_interval::{ByteRange, StridedSet};
use atomio_msg::Comm;
use atomio_pfs::{carve, FileSystem, IoPath, LockGuard, LockMode, PosixFile};
use atomio_trace::Category;
use atomio_vtime::VNanos;

use crate::coloring::{color_count, greedy_color, held_bytes, split_request, OverlapMatrix};
use crate::error::Error;
use crate::sieve::{plan_windows, SieveConfig};

/// How much of the file a locking strategy locks — the granularity axis.
///
/// The §3.2 baseline locks one conservative range spanning the whole
/// request, which serializes interleaved writers even when their strided
/// footprints are disjoint. [`LockGranularity::Exact`] instead ships the
/// request's compressed footprint as one **atomic multi-range list grant**
/// (`PosixFile::lock_set`): all-or-nothing under the fair vtime queue, so
/// disjoint footprints proceed fully in parallel and the per-window 2PL
/// deadlock of incremental list locking cannot occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockGranularity {
    /// One byte-range from the process's first to its last file offset
    /// ("virtually the entire file" for column-wise views, §3.2).
    Span,
    /// The exact byte set the request touches, as a list lock: the
    /// request's footprint for plain locked I/O, the sieve *windows*
    /// (holes included — they are read and rewritten) for data sieving.
    Exact,
}

impl std::fmt::Display for LockGranularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LockGranularity::Span => "span",
            LockGranularity::Exact => "exact",
        })
    }
}

/// What a locking strategy actually locked, reported per write.
#[derive(Debug, Clone)]
pub struct LockFootprint {
    /// Granularity that produced the set.
    pub granularity: LockGranularity,
    /// The byte set held (compressed).
    pub set: StridedSet,
}

impl LockFootprint {
    /// Bounding range of the locked set (what `Span` would have locked).
    pub fn span(&self) -> Option<ByteRange> {
        self.set.span()
    }

    /// Bytes actually held.
    pub fn locked_bytes(&self) -> u64 {
        self.set.total_len()
    }

    /// Contiguous ranges in the grant — the list-lock request size.
    pub fn ranges(&self) -> u64 {
        self.set.run_count()
    }
}

/// The paper's three implementations of MPI atomic mode (§3), plus the
/// list-I/O approach §3.2 sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Exclusive byte-range lock over the request (§3.2), at the given
    /// [`LockGranularity`]: the paper's bounding span, or the exact
    /// footprint as an atomic list grant.
    FileLocking(LockGranularity),
    /// Overlap-graph coloring; one barrier-separated phase per color
    /// (§3.3.1, Figures 5/6). The colors order the *overlapped* bytes:
    /// a rank of color `c > 0` keeps what
    /// [`held_bytes`](crate::held_bytes) holds of its request for phase
    /// `c` and sends the rest — touched by no other rank — in phase 0,
    /// next to the color-0 ranks' whole requests. Under the paper's
    /// schedule everything is held; where the clients are the bottleneck
    /// only the bytes two ranks write are, and phases `1..k` carry the
    /// ghost cells instead of whole requests. Either way the file is the
    /// serialization of the requests in color order and every rank writes
    /// every byte it was asked to.
    GraphColoring,
    /// Highest overlapping rank wins; views recomputed, fully concurrent
    /// I/O (§3.3.2, Figure 7).
    RankOrdering,
    /// Submit the whole non-contiguous request as one atomic
    /// `lio_listio()` — the paper's §3.2 hypothetical: "If POSIX atomicity
    /// is extended to lio_listio(), the MPI atomicity can be guaranteed by
    /// implementing the non-contiguous access on top of lio_listio()".
    /// Requires a file system advertising that extension
    /// ([`listio_atomic`](atomio_pfs::PlatformProfile::listio_atomic)); none of the paper's three
    /// platforms did.
    ListIo,
    /// Two-phase collective I/O (`atomio-collective`): exchange views,
    /// partition the aggregate extent into disjoint stripe-aligned file
    /// domains owned by A ≤ P aggregators, redistribute data to the owners
    /// (every rank first surrenders what a higher rank overwrites, as under
    /// [`Strategy::RankOrdering`], so only winning bytes travel), and let
    /// each aggregator issue large contiguous writes. Overlap is eliminated
    /// by construction, so atomicity needs zero locks and zero per-color
    /// barrier phases — the classic fourth answer the paper's §3 stops
    /// short of (Thakur/Gropp/Lusk's ROMIO collective buffering).
    TwoPhase,
    /// Data-sieving independent I/O (Thakur/Gropp/Lusk, *Optimizing
    /// Noncontiguous Accesses in MPI-IO*): the request's noncontiguous
    /// runs are grouped into contiguous sieve windows
    /// ([`SieveConfig`](crate::SieveConfig)); each window is read from the
    /// servers whole, the runs are patched into the staged buffer, and the
    /// window is written back as one contiguous request — two server round
    /// trips per window instead of one per run. Reads sieve symmetrically
    /// without the write-back.
    ///
    /// Atomic mode wraps the whole sieved request in **one** exclusive
    /// atomic list grant covering every window's read-modify-write — by
    /// default exactly the windows ([`SieveConfig::lock_granularity`];
    /// `Span` reproduces the whole-request lock). Acquiring window locks
    /// *incrementally* would be unsound: serializability needs every
    /// window lock held to the end of the request (strict two-phase
    /// locking), and holding one byte-range lock while waiting for the
    /// next deadlocks under the managers' fair queueing — hence the
    /// all-or-nothing grant ([`LockManager`](atomio_pfs::LockManager)).
    /// This and [`Strategy::FileLocking`]/[`Strategy::ListIo`] are the
    /// only strategies usable from *independent* calls, where no view
    /// exchange is possible ("file locking seems to be the only way to
    /// ensure atomic results in non-collective I/O calls", paper §5).
    /// Requires a file system with byte-range locks, so ENFS/Cplant
    /// rejects it.
    DataSieving,
}

impl Strategy {
    /// The three strategies the paper evaluates, in presentation order.
    pub fn all() -> [Strategy; 3] {
        [
            Strategy::FileLocking(LockGranularity::Span),
            Strategy::GraphColoring,
            Strategy::RankOrdering,
        ]
    }

    /// All collective-capable strategies, including both lock
    /// granularities, the two-phase subsystem, data sieving and the
    /// hypothetical list-I/O approach.
    pub fn extended() -> [Strategy; 7] {
        [
            Strategy::FileLocking(LockGranularity::Span),
            Strategy::FileLocking(LockGranularity::Exact),
            Strategy::GraphColoring,
            Strategy::RankOrdering,
            Strategy::TwoPhase,
            Strategy::DataSieving,
            Strategy::ListIo,
        ]
    }

    /// The strategies compared in the Figure 8-style benchmarks: the
    /// paper's three plus two-phase collective I/O.
    pub fn compared() -> [Strategy; 4] {
        [
            Strategy::FileLocking(LockGranularity::Span),
            Strategy::GraphColoring,
            Strategy::RankOrdering,
            Strategy::TwoPhase,
        ]
    }

    pub fn label(&self) -> &'static str {
        match self {
            Strategy::FileLocking(LockGranularity::Span) => "file locking",
            Strategy::FileLocking(LockGranularity::Exact) => "exact-list locking",
            Strategy::GraphColoring => "graph-coloring",
            Strategy::RankOrdering => "process-rank ordering",
            Strategy::ListIo => "atomic list I/O",
            Strategy::TwoPhase => "two-phase I/O",
            Strategy::DataSieving => "data sieving",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// MPI atomicity mode of a file handle (`MPI_File_set_atomicity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atomicity {
    /// Non-atomic mode: overlapped results are undefined (may interleave).
    NonAtomic,
    /// Atomic mode, implemented by the given strategy.
    Atomic(Strategy),
}

/// File open mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    ReadOnly,
    ReadWrite,
}

/// Timing and accounting for one collective (or independent) write.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Virtual time when this rank entered the call.
    pub start: VNanos,
    /// Virtual time when this rank left the call.
    pub end: VNanos,
    /// Bytes the caller asked to write.
    pub requested_bytes: u64,
    /// Bytes actually written to the servers: less than requested under
    /// rank ordering (overlaps are surrendered), *more* than requested
    /// under data sieving with RMW (windows are written back whole, holes
    /// included — the write amplification side of the fewer-requests
    /// trade).
    pub bytes_written: u64,
    /// Contiguous file pieces this rank issued: the view's segments,
    /// except where a strategy cuts them — the surviving pieces under rank
    /// ordering, the free plus the held pieces under graph coloring (a
    /// segment with held bytes at both ends counts three times), the
    /// aggregator's runs under two-phase I/O, the windows under sieving.
    pub segments: usize,
    /// Barrier-delimited I/O phases of the operation: the number of colors
    /// under graph coloring — a rank writes in its own color's phase and,
    /// when it has free bytes, in phase 0 — 2 under two-phase I/O
    /// (exchange, write), 1 otherwise.
    pub phases: usize,
    /// This rank's color (0 except for graph coloring).
    pub color: usize,
    /// What the locking strategies actually locked (granularity + byte
    /// set); `None` when no lock was taken.
    pub lock_footprint: Option<LockFootprint>,
    /// Aggregators used by the two-phase strategy (0 for the others).
    pub aggregators: usize,
}

impl WriteReport {
    pub fn elapsed(&self) -> VNanos {
        self.end - self.start
    }
}

/// Timing for one read.
#[derive(Debug, Clone)]
pub struct ReadReport {
    pub start: VNanos,
    pub end: VNanos,
    pub bytes_read: u64,
    pub segments: usize,
}

/// Summary returned by [`MpiFile::close`].
#[derive(Debug, Clone)]
pub struct CloseReport {
    /// Total bytes this rank wrote through the handle.
    pub bytes_written: u64,
    /// Total bytes this rank read through the handle.
    pub bytes_read: u64,
    /// This rank's virtual clock at close.
    pub end_vtime: VNanos,
    /// Full I/O counters.
    pub stats: atomio_pfs::StatsSnapshot,
    /// Latency histograms (grant wait, revocation flush, server service).
    /// **File-system wide**, not per rank: every rank's close sees the
    /// same distributions.
    pub latency: atomio_pfs::LatencySnapshot,
}

/// An MPI-IO file handle: file views, atomicity modes, collective and
/// independent I/O — the `MPI_File_*` subset exercised by the paper.
///
/// Offsets given to the I/O calls are in *etype units*: one byte under
/// [`MpiFile::set_view`] (the paper's Figure 4 writes `MPI_CHAR` arrays),
/// or the elementary type installed with [`MpiFile::set_view_with_etype`].
pub struct MpiFile<'c> {
    comm: &'c Comm,
    posix: PosixFile,
    view: FileView,
    atomicity: Atomicity,
    io_path: IoPath,
    mode: OpenMode,
    name: String,
    two_phase: TwoPhaseConfig,
    sieve: SieveConfig,
}

impl<'c> MpiFile<'c> {
    /// Collective open (like `MPI_File_open` on `comm`).
    pub fn open(
        comm: &'c Comm,
        fs: &FileSystem,
        name: &str,
        mode: OpenMode,
    ) -> Result<Self, Error> {
        let posix = fs.open(comm.world_rank(), comm.clock().clone(), name);
        // Client-side PFS events (locks, cache, coherence) share the
        // rank's sink and track; a no-op while the comm tracer is unbound.
        posix.tracer().bind_like(comm.tracer());
        comm.barrier();
        Ok(MpiFile {
            comm,
            posix,
            view: FileView::contiguous(0),
            atomicity: Atomicity::NonAtomic,
            io_path: IoPath::Direct,
            mode,
            name: name.to_string(),
            two_phase: TwoPhaseConfig::default(),
            sieve: SieveConfig::default(),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// Underlying POSIX-level handle (stats, direct access in tests).
    pub fn posix(&self) -> &PosixFile {
        &self.posix
    }

    /// Collective: install a file view (like `MPI_File_set_view` with a
    /// byte etype and displacement `disp`).
    pub fn set_view(&mut self, disp: u64, filetype: Arc<Datatype>) -> Result<(), Error> {
        let view = FileView::new(disp, filetype)?;
        self.comm.barrier();
        self.view = view;
        Ok(())
    }

    /// Collective: install a file view with an arbitrary elementary type;
    /// subsequent I/O offsets count etypes, not bytes (full
    /// `MPI_File_set_view(fh, disp, etype, filetype, ...)` semantics).
    pub fn set_view_with_etype(
        &mut self,
        disp: u64,
        etype: &Datatype,
        filetype: Arc<Datatype>,
    ) -> Result<(), Error> {
        let view = FileView::with_etype(disp, etype.size(), filetype)?;
        self.comm.barrier();
        self.view = view;
        Ok(())
    }

    /// Collective: set the atomicity mode (like `MPI_File_set_atomicity`).
    ///
    /// Selecting [`Strategy::FileLocking`] on a file system without lock
    /// support fails, as on the paper's Cplant/ENFS platform.
    pub fn set_atomicity(&mut self, a: Atomicity) -> Result<(), Error> {
        match a {
            Atomicity::Atomic(Strategy::FileLocking(_) | Strategy::DataSieving)
                if !self.posix.profile().supports_locking() =>
            {
                return Err(Error::AtomicityUnsupported {
                    file_system: self.posix.profile().file_system,
                });
            }
            Atomicity::Atomic(Strategy::ListIo) if !self.posix.profile().listio_atomic => {
                return Err(Error::AtomicityUnsupported {
                    file_system: self.posix.profile().file_system,
                });
            }
            _ => {}
        }
        self.comm.barrier();
        self.atomicity = a;
        Ok(())
    }

    /// Choose cached vs direct data movement.
    pub fn set_io_path(&mut self, p: IoPath) {
        self.io_path = p;
    }

    /// Tune the two-phase collective-I/O subsystem (aggregator count,
    /// node-aware placement). Like an `MPI_Info` hint (`cb_nodes`), this is
    /// local state that only takes effect on collective calls, where every
    /// rank must have set the same configuration.
    pub fn set_two_phase_config(&mut self, cfg: TwoPhaseConfig) {
        self.two_phase = cfg;
    }

    /// Tune the data-sieving engine (window size, RMW, lock granularity).
    /// Local state, like an `MPI_Info` hint (`ind_wr_buffer_size`); takes
    /// effect on the next sieved I/O call.
    pub fn set_sieve_config(&mut self, cfg: SieveConfig) {
        self.sieve = cfg;
    }

    // -------------------------------------------------------------------- I/O

    /// Collective write at `offset` (etype units = bytes) through the file
    /// view (like `MPI_File_write_at_all`). All ranks of the communicator
    /// must call with the same atomicity mode.
    pub fn write_at_all(&mut self, offset: u64, buf: &[u8]) -> Result<WriteReport, Error> {
        let before = self.posix.stats().snapshot();
        let t0 = self.comm.clock().now();
        let report = self.write(offset, buf, true)?;
        let d = self.posix.stats().snapshot().delta(&before);
        self.comm.tracer().span(
            Category::Io,
            "write_at_all",
            t0,
            self.comm.clock().now(),
            &[
                ("bytes", report.bytes_written),
                ("lock_acquires", d.lock_acquires),
                ("server_write_requests", d.server_write_requests),
                ("revocations_served", d.revocations_served),
            ],
        );
        Ok(report)
    }

    /// Collective read at `offset` through the file view.
    pub fn read_at_all(&mut self, offset: u64, buf: &mut [u8]) -> Result<ReadReport, Error> {
        let before = self.posix.stats().snapshot();
        let t0 = self.comm.clock().now();
        let report = self.read(offset, buf, true)?;
        let d = self.posix.stats().snapshot().delta(&before);
        self.comm.tracer().span(
            Category::Io,
            "read_at_all",
            t0,
            self.comm.clock().now(),
            &[
                ("bytes", report.bytes_read),
                ("server_read_requests", d.server_read_requests),
                ("cache_hit_bytes", d.cache_hit_bytes),
            ],
        );
        Ok(report)
    }

    /// Independent write (like `MPI_File_write_at`). In atomic mode only
    /// locking, list I/O and sieving are possible: the handshaking
    /// strategies need to know every participant, which only collective
    /// calls provide — "file locking seems to be the only way to ensure
    /// atomic results in non-collective I/O calls" (paper §5).
    pub fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<WriteReport, Error> {
        self.write(offset, buf, false)
    }

    /// Independent read.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<ReadReport, Error> {
        self.read(offset, buf, false)
    }

    /// Independent **non-atomic** sieved write: the same windowing and
    /// read-modify-write as [`Strategy::DataSieving`], but with no locks at
    /// all. Between a window's hole-fill read and its write-back another
    /// writer can update a hole byte, and the write-back then buries it
    /// under stale data — the §2.1 read-modify-write hazard, and the
    /// reason ROMIO refuses to data-sieve writes on lockless file systems.
    /// Exists so tests and demos can make that torn outcome observable;
    /// safe only when no other writer can touch the sieved extent.
    pub fn write_at_sieved(&mut self, offset: u64, buf: &[u8]) -> Result<WriteReport, Error> {
        self.check_writable()?;
        let offset = self.view.etype_offset_to_bytes(offset);
        let report = self.sieved_write(offset, buf, false, false)?;
        self.sealed(false, report)
    }

    /// Flush this rank's write-behind data (like `MPI_File_sync`).
    ///
    /// Fallible: under fault injection the flush can find its client
    /// killed ([`FsError::Closed`](atomio_pfs::FsError)) or exhaust its
    /// retries against a crashed server — callers that care can match on
    /// [`Error::Fs`] and retry or fail the rank.
    pub fn sync(&self) -> Result<(), Error> {
        self.posix.try_sync()?;
        Ok(())
    }

    /// Collective close; returns this rank's I/O summary. A rank whose
    /// final flush fails still attends the barrier before it reports.
    pub fn close(self) -> Result<CloseReport, Error> {
        let synced = self.posix.try_sync();
        self.comm.barrier();
        synced?;
        let stats = self.posix.stats().snapshot();
        Ok(CloseReport {
            bytes_written: stats.bytes_written,
            bytes_read: stats.bytes_read,
            end_vtime: self.comm.clock().now(),
            stats,
            latency: self.posix.latency_snapshot(),
        })
    }

    // ------------------------------------------------------------- I/O bodies

    /// The one write body: [`MpiFile::write_at`] and
    /// [`MpiFile::write_at_all`] differ only in `collective`. Locking,
    /// list I/O and sieving move the same data from either call; the
    /// collective one adds the lock handshake ([`MpiFile::lock`]), a
    /// closing barrier ([`MpiFile::closing`]) and the close-to-open
    /// invalidation, and alone may use the handshaking strategies.
    ///
    /// A rank whose own I/O fails in a collective call still attends every
    /// barrier of the call and reports the error after the last one:
    /// leaving early would hang the healthy ranks.
    fn write(&self, offset: u64, buf: &[u8], collective: bool) -> Result<WriteReport, Error> {
        self.check_writable()?;
        let strategy = self.strategy(collective)?;
        let offset = self.view.etype_offset_to_bytes(offset);
        let len = buf.len() as u64;
        // Sieving builds no segment list of the whole request: it plans on
        // the compressed footprint and patches each window from that
        // window's own segments.
        let segments = match strategy {
            Some(Strategy::DataSieving) => Vec::new(),
            _ => self.view.segments(offset, len),
        };
        let start = self.comm.clock().now();
        let mut report = WriteReport {
            start,
            end: start,
            requested_bytes: len,
            bytes_written: len,
            segments: segments.len(),
            phases: 1,
            color: 0,
            lock_footprint: None,
            aggregators: 0,
        };

        match strategy {
            None if collective => self.write_phase(Some((&segments, buf, offset)), true)?,
            None => self
                .posix
                .write(self.io_path, seg_slices(&segments, buf, offset))?,
            Some(Strategy::FileLocking(granularity)) => {
                let lockset = granular(self.view.strided_file_ranges(offset, len), granularity);
                report.lock_footprint = (!lockset.is_empty()).then(|| LockFootprint {
                    granularity,
                    set: lockset.clone(),
                });
                let written = self
                    .lock(&lockset, LockMode::Exclusive, collective, Ok(()))
                    .and_then(|_guard| {
                        let slices = seg_slices(&segments, buf, offset);
                        Ok(self.posix.write(self.locked_path(), slices)?)
                    });
                self.closing(collective, written)?;
            }
            Some(Strategy::ListIo) => {
                let written = self
                    .posix
                    .try_listio_direct_atomic(&seg_slices(&segments, buf, offset))
                    .map_err(Error::from);
                self.closing(collective, written)?;
            }
            Some(Strategy::DataSieving) => {
                let written = self.sieved_write(offset, buf, true, collective);
                report = self.closing(collective, written)?;
            }
            Some(Strategy::GraphColoring) => {
                // View negotiation in compressed space: the allgather ships
                // O(trains) per rank instead of O(rows), and the overlap
                // graph is one exact `StridedSet::overlaps` test per rank
                // pair — the §3.4 negotiation cost scales with the access
                // *description*, not the row count.
                let footprint = self.view.strided_file_ranges(offset, len);
                let all = self.comm.allgather(footprint);
                let w = OverlapMatrix::from_strided(&all);
                let colors = greedy_color(&w);
                let phases = color_count(&colors);
                let mine = colors[self.comm.rank()];
                // Only the bytes another rank also writes have to wait for
                // this rank's color; what `held_bytes` leaves free may go
                // out in phase 0. A color-0 rank writes in phase 0 anyway:
                // whole, coalesced segments.
                let (early, late) = if mine == 0 {
                    (Vec::new(), segments)
                } else {
                    split_request(&segments, &held_bytes(&all, &colors, self.posix.profile()))
                };
                report.phases = phases;
                report.color = mine;
                report.segments = early.len() + late.len();
                let mut by_phase: Vec<&[ViewSegment]> = vec![&[]; phases];
                by_phase[0] = &early;
                by_phase[mine] = &late;
                let mut written = Ok(());
                for pieces in by_phase {
                    // "Process synchronization between any two steps is
                    // necessary" (§3.3.1); the two barriers delimit one
                    // phase: all submissions in, then settled completions.
                    // A rank that failed sends nothing more but still
                    // attends.
                    let sends = written.is_ok() && !pieces.is_empty();
                    written = written
                        .and(self.write_phase(sends.then_some((pieces, buf, offset)), false));
                }
                written?;
            }
            Some(Strategy::RankOrdering) => {
                // Compressed view exchange + compressed suffix union; the
                // recomputed pieces are byte-identical to the dense path.
                let footprint = self.view.strided_file_ranges(offset, len);
                let all = self.comm.allgather(footprint);
                let surrendered = higher_union_strided(&all, self.comm.rank());
                let pieces = surviving_pieces_strided(&segments, &surrendered);
                report.bytes_written = pieces.iter().map(|s| s.len).sum();
                report.segments = pieces.len();
                self.write_phase(Some((&pieces, buf, offset)), false)?;
            }
            Some(Strategy::TwoPhase) => {
                let tp = two_phase_write(
                    self.comm,
                    &self.posix,
                    &segments,
                    buf,
                    offset,
                    &self.two_phase,
                );
                // Bytes/segments reflect what reached the servers through
                // this rank: aggregators write their whole domain coverage
                // as a few large runs, pure compute ranks write nothing.
                report.bytes_written = tp.bytes_written;
                report.segments = tp.write_runs;
                report.phases = 2;
                report.aggregators = tp.aggregator_count;
                if let Some(e) = tp.first_error {
                    return Err(Error::Fs(e));
                }
            }
        }
        self.sealed(collective, report)
    }

    /// The one read body, the write body's mirror: an atomic read first
    /// drops its cached pages for fresh data (§3), locking reads take the
    /// shared grant through [`MpiFile::lock`], and a collective call
    /// attends every barrier before it reports a failure.
    fn read(&self, offset: u64, buf: &mut [u8], collective: bool) -> Result<ReadReport, Error> {
        let strategy = self.strategy(collective)?;
        let offset = self.view.etype_offset_to_bytes(offset);
        let len = buf.len() as u64;
        let segments = match strategy {
            Some(Strategy::DataSieving) => Vec::new(),
            _ => self.view.segments(offset, len),
        };
        let start = self.comm.clock().now();
        let fresh = match strategy {
            Some(_) => self.invalidate_if_cached(),
            None => Ok(()),
        };
        let mut report = ReadReport {
            start,
            end: start,
            bytes_read: len,
            segments: segments.len(),
        };

        match strategy {
            Some(Strategy::FileLocking(granularity)) => {
                let lockset = granular(self.view.strided_file_ranges(offset, len), granularity);
                let read = self
                    .lock(&lockset, LockMode::Shared, collective, fresh)
                    .and_then(|_guard| self.read_segments(&segments, buf, offset));
                self.closing(collective, read)?;
            }
            Some(Strategy::DataSieving) => {
                let read = self.sieved_read(offset, buf, collective, fresh);
                report = self.closing(collective, read)?;
            }
            Some(Strategy::TwoPhase) => {
                // Collective down to its closing barrier, failed runs included.
                let tp = two_phase_read(
                    self.comm,
                    &self.posix,
                    &segments,
                    buf,
                    offset,
                    &self.two_phase,
                );
                report.segments = tp.read_runs;
                fresh.and(tp.first_error.map_or(Ok(()), |e| Err(Error::Fs(e))))?;
            }
            _ => {
                let read = fresh.and_then(|()| self.read_segments(&segments, buf, offset));
                self.closing(collective, read)?;
            }
        }
        report.end = self.comm.clock().now();
        Ok(report)
    }

    /// The atomic-mode strategy, if any. The handshaking strategies are
    /// refused to an independent call: they need every participant.
    fn strategy(&self, collective: bool) -> Result<Option<Strategy>, Error> {
        match self.atomicity {
            Atomicity::NonAtomic => Ok(None),
            Atomicity::Atomic(
                s @ (Strategy::GraphColoring | Strategy::RankOrdering | Strategy::TwoPhase),
            ) if !collective => Err(Error::RequiresCollective(s.label())),
            Atomicity::Atomic(s) => Ok(Some(s)),
        }
    }

    /// Every byte-range lock `MpiFile` takes: one atomic grant over `set`
    /// (none when it is empty), all-or-nothing whatever the granularity.
    /// An independent call asks for it once `ready` says its earlier steps
    /// succeeded. A collective call runs the two-phase handshake — every
    /// rank registers its request, a barrier makes the requests globally
    /// visible, then all block for their grants — so contention resolves
    /// in fair rank order regardless of host scheduling. It attends that
    /// barrier even with nothing to lock, after a failed earlier step
    /// (`ready` is `Err`) or with its grant refused, so the other ranks'
    /// handshake completes.
    fn lock(
        &self,
        set: &StridedSet,
        mode: LockMode,
        collective: bool,
        ready: Result<(), Error>,
    ) -> Result<Option<LockGuard<'_>>, Error> {
        match ready {
            Ok(()) if !set.is_empty() => Ok(Some(if collective {
                self.posix
                    .lock_set_two_phase(set, mode, || self.comm.barrier())?
            } else {
                self.posix.lock_set(set, mode)?
            })),
            _ => {
                if collective {
                    self.comm.barrier();
                }
                ready.map(|()| None)
            }
        }
    }

    /// The closing barrier of a collective locking, list-I/O or sieving
    /// call, attended before `result` is reported.
    fn closing<T>(&self, collective: bool, result: Result<T, Error>) -> Result<T, Error> {
        if collective {
            self.comm.barrier();
        }
        result
    }

    /// A write's last step: a collective call drops this rank's cached
    /// pages (close-to-open, §3), then the report is stamped.
    fn sealed(&self, collective: bool, mut report: WriteReport) -> Result<WriteReport, Error> {
        if collective {
            self.invalidate_if_cached()?;
        }
        report.end = self.comm.clock().now();
        Ok(report)
    }

    // ----------------------------------------------------------- data sieving

    /// Sieved write engine (`offset` already in bytes): plan windows on the
    /// compressed footprint, then read-patch-write each window. With
    /// `locked`, one exclusive **atomic list grant** covers the whole
    /// request — every window's RMW happens inside it, which is what makes
    /// the result serializable (see [`Strategy::DataSieving`]). Per-window
    /// locking without the atomic grant would deadlock; see
    /// [`LockManager`](atomio_pfs::LockManager). The report comes back
    /// unstamped.
    fn sieved_write(
        &self,
        offset: u64,
        buf: &[u8],
        locked: bool,
        collective: bool,
    ) -> Result<WriteReport, Error> {
        let len = buf.len() as u64;
        let (windows, lockset) = self.sieve_plan(offset, len);
        let start = self.comm.clock().now();
        let guard = if locked {
            self.lock(&lockset, LockMode::Exclusive, collective, Ok(()))?
        } else {
            None
        };
        // An unlocked sieve goes to the servers: its staging buffer *is*
        // the cache.
        let path = if locked {
            self.locked_path()
        } else {
            IoPath::Direct
        };
        let mut staging = Vec::new();
        for w in &windows {
            let segs = self.view.window_segments(offset, len, w);
            let patches = seg_slices(&segs, buf, offset);
            self.rmw(*w, &patches, path, !locked, &mut staging)?;
        }
        drop(guard);
        Ok(WriteReport {
            start,
            end: start,
            requested_bytes: len,
            // Every window is written back whole, holes included: the RMW
            // write amplification is real server traffic and the report
            // must show it (requested_bytes keeps the caller's size).
            bytes_written: windows.iter().map(ByteRange::len).sum(),
            segments: windows.len(),
            phases: 1,
            color: 0,
            lock_footprint: (locked && !lockset.is_empty()).then_some(LockFootprint {
                granularity: self.sieve.lock_granularity,
                set: lockset,
            }),
            aggregators: 0,
        })
    }

    /// Sieved read engine: each window is fetched whole with one request
    /// and the view's pieces are copied out — the write path without the
    /// write-back, under one shared grant. The report comes back
    /// unstamped.
    fn sieved_read(
        &self,
        offset: u64,
        buf: &mut [u8],
        collective: bool,
        ready: Result<(), Error>,
    ) -> Result<ReadReport, Error> {
        let len = buf.len() as u64;
        let (windows, lockset) = self.sieve_plan(offset, len);
        let start = self.comm.clock().now();
        let guard = self.lock(&lockset, LockMode::Shared, collective, ready)?;
        let path = self.locked_path();
        let mut staged = Vec::new();
        for w in &windows {
            staged.clear();
            staged.resize(w.len() as usize, 0);
            self.posix.read(path, [(w.start, &mut staged)])?;
            for seg in self.view.window_segments(offset, len, w) {
                let src = &staged[(seg.file_off - w.start) as usize..][..seg.len as usize];
                buf[(seg.logical_off - offset) as usize..][..seg.len as usize].copy_from_slice(src);
            }
        }
        drop(guard);
        Ok(ReadReport {
            start,
            end: start,
            bytes_read: len,
            segments: windows.len(),
        })
    }

    /// A sieved request's windows, and what atomic mode locks of them
    /// ([`SieveConfig::lock_granularity`]): every window is read and
    /// rewritten **whole**, holes included, so the windows — not the bare
    /// footprint runs — are the bytes to hold. The gaps *between* windows
    /// are not, so writers whose windows are disjoint proceed in parallel.
    fn sieve_plan(&self, offset: u64, len: u64) -> (Vec<ByteRange>, StridedSet) {
        let windows = plan_windows(&self.view.strided_file_ranges(offset, len), &self.sieve);
        let held = StridedSet::from_sorted_extents(windows.iter().map(|w| (w.start, w.len())));
        (windows, granular(held, self.sieve.lock_granularity))
    }

    /// One sieve window's read-modify-write: read the window whole, patch
    /// the ascending `(offset, bytes)` pieces into it, and write it back as
    /// **one** contiguous request — two round trips however many pieces
    /// there are; pieces that cover the window skip the read. Both go along
    /// `path`: through the client cache the hole-fill read may hit warm
    /// pages and the write-back stays write-behind.
    ///
    /// Not atomic by itself: between the read and the write-back another
    /// writer can update a hole byte, and the write-back buries it under
    /// stale data — the §2.1 hazard. `racing` yields the scheduler at that
    /// point so the hazard stays observable on single-CPU hosts. `staging`
    /// is the caller's buffer, one allocation per request.
    fn rmw(
        &self,
        window: ByteRange,
        patches: &[(u64, &[u8])],
        path: IoPath,
        racing: bool,
        staging: &mut Vec<u8>,
    ) -> Result<(), Error> {
        let covered: u64 = patches.iter().map(|(_, d)| d.len() as u64).sum();
        staging.clear();
        staging.resize(window.len() as usize, 0);
        if covered < window.len() {
            self.posix.read(path, [(window.start, &mut *staging)])?;
            if racing {
                std::thread::yield_now();
            }
        }
        for (off, data) in patches {
            staging[(off - window.start) as usize..][..data.len()].copy_from_slice(data);
        }
        self.posix.write(path, [(window.start, &*staging)])?;
        Ok(())
    }

    // ---------------------------------------------------------------- helpers

    fn check_writable(&self) -> Result<(), Error> {
        match self.mode {
            OpenMode::ReadOnly => Err(Error::ReadOnly),
            OpenMode::ReadWrite => Ok(()),
        }
    }

    /// One barrier-delimited write phase — the data movement of the
    /// handshaking strategies and of non-atomic collective writes (one
    /// phase each) and of every graph-coloring phase: ranks with `work`
    /// submit it open-loop and pipelined, a barrier proves every concurrent
    /// writer's requests are deposited, the writers settle
    /// deterministically (see `ServerSet::settle_through`), and a second
    /// barrier ends the phase. On the cached path the pipelining is delegated to
    /// write-behind + sync, the protocol §3 prescribes ("a file
    /// synchronization call immediately following every write call is
    /// required"), and one barrier follows.
    ///
    /// Under graph coloring a rank's `work` is not always its request: in
    /// phase 0 it is the whole request of a color-0 rank and the *free*
    /// pieces of every other rank, in phase `c > 0` the *held* pieces of
    /// the color-`c` ranks (see [`held_bytes`]).
    ///
    /// `racing` marks submissions whose segments may genuinely overlap
    /// other ranks' (non-atomic mode): those yield the scheduler between
    /// entries so the race stays observable on single-CPU hosts. The
    /// handshaking strategies write disjoint sets and skip the yields.
    ///
    /// A rank whose own I/O fails still attends the phase's barriers and
    /// reports the error after them: leaving a collective early would hang
    /// the healthy ranks.
    fn write_phase(
        &self,
        work: Option<(&[ViewSegment], &[u8], u64)>,
        racing: bool,
    ) -> Result<(), Error> {
        match self.io_path {
            IoPath::Direct => {
                let ticket = work.map_or(Ok(None), |(segs, buf, base)| {
                    self.posix
                        .submit_writes(seg_slices(segs, buf, base), 0, racing)
                });
                self.comm.barrier();
                if let Ok(Some(t)) = ticket {
                    self.posix.complete_writes(t, 0);
                }
                self.comm.barrier();
                ticket?;
            }
            IoPath::Cached => {
                let written = work.map_or(Ok(()), |(segs, buf, base)| {
                    let slices = seg_slices(segs, buf, base);
                    self.posix.write(IoPath::Cached, slices)?;
                    self.posix.try_sync()
                });
                self.comm.barrier();
                written?;
            }
        }
        Ok(())
    }

    /// The path of every access made inside a held lock: a locking
    /// strategy's writes and data sieving's reads and read-modify-writes.
    /// By default the servers, ROMIO's rule — "while a file region is
    /// locked, all read/write requests to it will directly go to the file
    /// server"; the cache would defeat the lock. A locked write is then
    /// **one pipelined vector**: under byte-range locking the overlapping
    /// writers run one after another, so the time a holder keeps its lock
    /// *is* the makespan, and keeping the client link and the servers busy
    /// together instead of paying a round trip per segment is what shortens
    /// the hold. The call returns only when every segment is acknowledged,
    /// so release implies durability.
    ///
    /// On a lock-driven-coherence platform with [`IoPath::Cached`]
    /// selected, the cache does NOT defeat the lock — the granted token
    /// confers cache-validity rights — so the locked I/O runs through the
    /// cache: a repeat read is served from warm pages, and writes go
    /// through write-behind. They may stay buffered past the release, and a
    /// conflicting acquisition revokes the token, flushing exactly these
    /// bytes before the rival's grant completes.
    ///
    /// **Visibility contract (GPFS semantics, deliberately weaker than the
    /// direct path):** the data is guaranteed on the servers only once a
    /// conflicting *lock* is granted or the writer syncs. A reader that
    /// acquires an overlapping lock (every atomic locking/sieving read
    /// path does) always sees it — the acquisition revokes the writer's
    /// token, which flushes first. A reader that never locks — `ListIo`
    /// reads, direct/handshaking reads, a `FileSystem::snapshot` checker —
    /// reads the servers and can miss still-buffered bytes *even after a
    /// barrier*. Programs mixing locked cached writes with non-locking
    /// readers must interpose [`MpiFile::sync`] (or `close`, which syncs).
    fn locked_path(&self) -> IoPath {
        if self.posix.lock_driven() {
            self.io_path
        } else {
            IoPath::Direct
        }
    }

    /// The request's segments, read along this handle's path.
    fn read_segments(&self, segs: &[ViewSegment], buf: &mut [u8], base: u64) -> Result<(), Error> {
        let logical = segs.iter().map(|s| ByteRange::at(s.logical_off, s.len));
        let slices = carve(buf, base, logical)
            .zip(segs)
            .map(|((_, dst), s)| (s.file_off, dst));
        Ok(self.posix.read(self.io_path, slices)?)
    }

    fn invalidate_if_cached(&self) -> Result<(), Error> {
        // Lock-driven coherence makes the blanket flush + invalidate
        // unnecessary — and wasteful: cache admission already requires
        // token coverage, conflicting acquisitions revoke (flushing and
        // invalidating exactly the contested ranges), and uncovered
        // accesses bypass the cache entirely. Every warm byte stays.
        if self.io_path == IoPath::Cached && !self.posix.lock_driven() {
            self.posix.try_invalidate()?;
        }
        Ok(())
    }
}

/// The `(file offset, bytes)` pairs of a request: each view segment with
/// its slice of the user buffer (borrowed, nothing is copied).
fn seg_slices<'a>(segs: &[ViewSegment], buf: &'a [u8], base: u64) -> Vec<(u64, &'a [u8])> {
    segs.iter()
        .map(|seg| {
            (
                seg.file_off,
                &buf[(seg.logical_off - base) as usize..][..seg.len as usize],
            )
        })
        .collect()
}

/// What a locking strategy locks of `set` at `granularity`: the set itself
/// at `Exact`; at `Span`, one range "from the process's first file offset
/// ... to the very last file offset the process will write" (§3.2).
fn granular(set: StridedSet, granularity: LockGranularity) -> StridedSet {
    match granularity {
        LockGranularity::Exact => set,
        LockGranularity::Span => set
            .span()
            .map_or_else(StridedSet::new, StridedSet::from_range),
    }
}
