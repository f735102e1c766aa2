//! Data-sieving window planning (Thakur/Gropp/Lusk, *Optimizing
//! Noncontiguous Accesses in MPI-IO*).
//!
//! Independent MPI-IO calls cannot negotiate views — no collective means no
//! view exchange — so the paper's handshaking strategies (§3.3) are off the
//! table and each rank must make its *own* noncontiguous request cheap.
//! Data sieving trades server requests for bytes: the request's file runs
//! are grouped into contiguous **windows** of at most
//! [`SieveConfig::buffer_size`] bytes, each window is read from the
//! parallel file system whole, the view's runs are patched into the staged
//! buffer, and the window is written back as one contiguous request — two
//! server round trips per window instead of one per run. Reads sieve
//! symmetrically, without the write-back.
//!
//! The planner works on the run-length-compressed
//! [`StridedSet`](atomio_interval::StridedSet) footprint
//! ([`FileView::strided_file_ranges`](atomio_dtype::FileView::strided_file_ranges)),
//! streaming its runs in ascending order without ever materializing the
//! dense run list, so planning a million-run request holds O(trains + windows)
//! state.

use atomio_interval::{ByteRange, StridedSet};

use crate::file::LockGranularity;

/// Per-handle tuning of the data-sieving engine
/// ([`Strategy::DataSieving`](crate::Strategy::DataSieving)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SieveConfig {
    /// Maximum file-byte span of one sieve window — the staging buffer
    /// size, ROMIO's `ind_wr_buffer_size` analogue. A single run longer
    /// than this still becomes one (oversized) window, since a contiguous
    /// run never needs staging help. Default 512 KiB.
    pub buffer_size: u64,
    /// Allow read-modify-write: a window may span any hole between runs
    /// within `buffer_size` (like ROMIO, which sieves the whole
    /// `[first, last]` extent of a request), and the engine fills the holes
    /// by reading the window before writing it back. Off, windows only
    /// coalesce *touching* runs — no hole is ever read or rewritten
    /// (ROMIO's `romio_ds_write disable`).
    pub read_modify_write: bool,
    /// What atomic mode locks: the planned windows as one atomic
    /// multi-range grant ([`LockGranularity::Exact`], the default — holes
    /// *inside* a window are held because the RMW rewrites them, gaps
    /// *between* windows are not), or the request's bounding span
    /// ([`LockGranularity::Span`], the paper-era behaviour).
    pub lock_granularity: LockGranularity,
}

impl Default for SieveConfig {
    fn default() -> Self {
        SieveConfig {
            buffer_size: 512 * 1024,
            read_modify_write: true,
            lock_granularity: LockGranularity::Exact,
        }
    }
}

impl SieveConfig {
    /// This configuration with a different window size (sweep helper).
    pub fn with_buffer_size(mut self, bytes: u64) -> Self {
        self.buffer_size = bytes;
        self
    }
}

/// Greedy window plan over a request's compressed footprint: walk the runs
/// in ascending order and grow the current window while it stays within
/// `buffer_size` and the gap to the next run may be spanned; otherwise
/// start a new window. Windows come back ascending and disjoint, and every
/// footprint run lies inside exactly one window.
pub(crate) fn plan_windows(footprint: &StridedSet, cfg: &SieveConfig) -> Vec<ByteRange> {
    let buffer = cfg.buffer_size.max(1);
    let mut out = Vec::new();
    let mut cur: Option<ByteRange> = None;
    for run in footprint.iter_runs() {
        cur = Some(match cur {
            None => run,
            // Without RMW a window must stay hole-free: only touching runs
            // merge (runs arrive ascending and disjoint, so
            // `run.start >= w.end`).
            Some(w)
                if (cfg.read_modify_write || run.start == w.end) && run.end - w.start <= buffer =>
            {
                w.hull(&run)
            }
            Some(w) => {
                out.push(w);
                run
            }
        });
    }
    out.extend(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_interval::Train;

    fn comb(start: u64, len: u64, stride: u64, count: u64) -> StridedSet {
        StridedSet::from_train(Train::new(start, len, stride, count))
    }

    #[test]
    fn empty_footprint_plans_no_windows() {
        assert!(plan_windows(&StridedSet::new(), &SieveConfig::default()).is_empty());
    }

    #[test]
    fn colwise_comb_windows_by_buffer_size() {
        // 64 rows of 8 bytes every 64 bytes; 16 rows fit one 1024-byte
        // window (15 full strides + the final run).
        let fp = comb(0, 8, 64, 64);
        let cfg = SieveConfig::default().with_buffer_size(1024);
        let windows = plan_windows(&fp, &cfg);
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0], ByteRange::new(0, 15 * 64 + 8));
        assert_eq!(windows[1], ByteRange::new(16 * 64, 31 * 64 + 8));
        for w in &windows {
            assert!(w.len() <= 1024);
        }
        // One huge buffer: the whole request is one window.
        let one = plan_windows(&fp, &SieveConfig::default());
        assert_eq!(one, vec![ByteRange::new(0, 63 * 64 + 8)]);
    }

    #[test]
    fn rmw_off_never_spans_holes() {
        let fp = comb(0, 8, 64, 8).union(&comb(512, 16, 16, 1));
        let cfg = SieveConfig {
            read_modify_write: false,
            ..SieveConfig::default()
        };
        let windows = plan_windows(&fp, &cfg);
        // Runs at 0,64,...,448 plus [512,528): the last comb run [448,456)
        // and [512,528) stay separate; nothing merges across holes.
        assert_eq!(windows.len(), 8 + 1);
        // But touching runs still coalesce into one write.
        let touching = comb(0, 8, 8, 1).union(&comb(8, 8, 8, 1));
        assert_eq!(plan_windows(&touching, &cfg), vec![ByteRange::new(0, 16)]);
    }

    #[test]
    fn oversized_single_run_is_one_window() {
        let fp = comb(10, 4096, 4096, 1); // one 4 KiB run
        let cfg = SieveConfig::default().with_buffer_size(64);
        assert_eq!(plan_windows(&fp, &cfg), vec![ByteRange::new(10, 10 + 4096)]);
        // Followed by another run, the oversized window flushes first.
        let fp2 = fp.union(&comb(8192, 8, 8, 1));
        assert_eq!(
            plan_windows(&fp2, &cfg),
            vec![ByteRange::new(10, 10 + 4096), ByteRange::new(8192, 8200)]
        );
    }
}
