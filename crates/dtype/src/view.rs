use std::sync::Arc;

use atomio_interval::{ByteRange, IntervalSet, StridedSet, Train};

use crate::flatten::Segment;
use crate::kinds::Datatype;

/// Errors from file-view construction and use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// A filetype displacement was negative relative to the view
    /// displacement (file offsets cannot be negative).
    NegativeOffset(i64),
    /// MPI requires filetype displacements to be monotonically
    /// nondecreasing and non-overlapping.
    NotMonotone { prev_end: i64, next_start: i64 },
    /// The filetype contains no data bytes.
    EmptyFiletype,
    /// The filetype's data must be an integral number of etypes (MPI: "the
    /// filetype must be derived from the etype").
    EtypeMismatch { etype_size: u64, filetype_size: u64 },
    /// The filetype's extent is smaller than its typemap span, so
    /// consecutive tiles of the view would interleave — a self-overlapping
    /// file view, which MPI declares erroneous for file access.
    OverlappingTiles { span_end: i64, tile_end: i64 },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::NegativeOffset(d) => write!(f, "filetype displacement {d} is negative"),
            ViewError::NotMonotone {
                prev_end,
                next_start,
            } => write!(
                f,
                "filetype displacements must be monotone non-overlapping \
                 (segment at {next_start} begins before previous end {prev_end})"
            ),
            ViewError::EmptyFiletype => write!(f, "filetype has zero data bytes"),
            ViewError::EtypeMismatch {
                etype_size,
                filetype_size,
            } => write!(
                f,
                "filetype data size {filetype_size} is not a multiple of etype size {etype_size}"
            ),
            ViewError::OverlappingTiles { span_end, tile_end } => write!(
                f,
                "filetype span ends at {span_end} but the next tile begins at {tile_end}: \
                 tiles of the view would interleave (extent smaller than typemap span)"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

/// A piece of an I/O request after mapping through a file view: `len` bytes
/// at `file_off` in the file, corresponding to `logical_off` in the
/// process's contiguous data stream (i.e. the user buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewSegment {
    pub file_off: u64,
    pub logical_off: u64,
    pub len: u64,
}

impl ViewSegment {
    pub fn file_end(&self) -> u64 {
        self.file_off + self.len
    }
}

/// An MPI file view: `disp` + tiling repetitions of a flattened filetype.
///
/// The view presents the visible file bytes as one contiguous logical
/// stream, exactly like `MPI_File_set_view`. Tile `r` of the filetype
/// occupies file bytes `disp + r*extent + seg.disp` for each flattened
/// segment (paper §2.2).
#[derive(Debug, Clone)]
pub struct FileView {
    disp: u64,
    filetype: Arc<Datatype>,
    /// Flattened filetype, displacements validated non-negative & monotone.
    tile: Vec<Segment>,
    /// One tile's byte set in canonical compressed form: the same bytes as
    /// `tile` (O(1) trains for vector/subarray filetypes).
    tile_trains: StridedSet,
    /// Exclusive prefix sums of `tile` lengths: `prefix[i]` = logical offset
    /// of tile segment `i` within one tile.
    prefix: Vec<u64>,
    tile_size: u64,
    tile_extent: u64,
    /// Size of the elementary type; I/O offsets count etypes.
    etype_size: u64,
}

impl FileView {
    /// Install `filetype` at byte displacement `disp` with a one-byte etype
    /// (`MPI_BYTE`, as in the paper's experiments).
    pub fn new(disp: u64, filetype: Arc<Datatype>) -> Result<Self, ViewError> {
        Self::with_etype(disp, 1, filetype)
    }

    /// Install a view whose offsets count `etype_size`-byte elements
    /// (`MPI_File_set_view` with an arbitrary elementary type). The
    /// filetype's data size must be a whole number of etypes.
    pub fn with_etype(
        disp: u64,
        etype_size: u64,
        filetype: Arc<Datatype>,
    ) -> Result<Self, ViewError> {
        if etype_size == 0 {
            return Err(ViewError::EtypeMismatch {
                etype_size,
                filetype_size: filetype.size(),
            });
        }
        let tile = filetype.flatten();
        if tile.is_empty() || filetype.size() == 0 {
            return Err(ViewError::EmptyFiletype);
        }
        let mut prev_end = i64::MIN;
        for seg in &tile {
            if seg.disp < 0 {
                return Err(ViewError::NegativeOffset(seg.disp));
            }
            if seg.disp < prev_end {
                return Err(ViewError::NotMonotone {
                    prev_end,
                    next_start: seg.disp,
                });
            }
            prev_end = seg.end();
        }
        let mut prefix = Vec::with_capacity(tile.len());
        let mut acc = 0u64;
        for seg in &tile {
            prefix.push(acc);
            acc += seg.len;
        }
        let tile_size = acc;
        if !tile_size.is_multiple_of(etype_size) {
            return Err(ViewError::EtypeMismatch {
                etype_size,
                filetype_size: tile_size,
            });
        }
        let tile_extent = filetype.extent();
        // Tiles must not interleave: tile r+1 starts at (r+1)·extent plus
        // the first displacement, so the typemap span must fit the extent.
        // (MPI: a file view whose filetype overlaps itself when tiled is
        // erroneous for data access.)
        let tile_end = tile[0].disp + tile_extent as i64;
        if prev_end > tile_end {
            return Err(ViewError::OverlappingTiles {
                span_end: prev_end,
                tile_end,
            });
        }
        // The validated tile is ascending and disjoint (non-negative,
        // monotone), and tiles do not interleave, so its compression's
        // trains stay disjoint within one tile and across tiles.
        let tile_trains =
            StridedSet::from_sorted_extents(tile.iter().map(|s| (s.disp as u64, s.len)));
        Ok(FileView {
            disp,
            filetype,
            tile,
            tile_trains,
            prefix,
            tile_size,
            tile_extent,
            etype_size,
        })
    }

    /// Convert an offset in etypes to a logical stream byte offset.
    pub fn etype_offset_to_bytes(&self, offset_etypes: u64) -> u64 {
        offset_etypes * self.etype_size
    }

    /// The trivial contiguous view of the whole file starting at `disp`
    /// (MPI's default view: etype = filetype = byte).
    pub fn contiguous(disp: u64) -> Self {
        FileView::new(disp, Datatype::byte()).expect("byte view is always valid")
    }

    pub fn disp(&self) -> u64 {
        self.disp
    }

    pub fn filetype(&self) -> &Arc<Datatype> {
        &self.filetype
    }

    /// Data bytes per filetype tile.
    pub fn tile_size(&self) -> u64 {
        self.tile_size
    }

    /// File bytes spanned per tile (the filetype extent).
    pub fn tile_extent(&self) -> u64 {
        self.tile_extent
    }

    /// True when the view exposes the file contiguously.
    pub fn is_contiguous(&self) -> bool {
        self.tile.len() == 1 && self.tile_size == self.tile_extent
    }

    /// Map the logical byte range `[logical, logical+len)` of the stream to
    /// file segments, in ascending file order, coalescing adjacent pieces.
    pub fn segments(&self, logical: u64, len: u64) -> Vec<ViewSegment> {
        let mut out: Vec<ViewSegment> = Vec::new();
        if len == 0 {
            return out;
        }
        let mut remaining = len;
        let mut cur_logical = logical;

        let mut tile_idx = logical / self.tile_size;
        let in_tile = logical % self.tile_size;
        // Locate starting segment inside the tile via the prefix sums.
        let mut seg_idx = match self.prefix.binary_search(&in_tile) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut in_seg = in_tile - self.prefix[seg_idx];

        while remaining > 0 {
            let seg = &self.tile[seg_idx];
            let take = remaining.min(seg.len - in_seg);
            let file_off = self.disp + tile_idx * self.tile_extent + seg.disp as u64 + in_seg;
            match out.last_mut() {
                Some(last)
                    if last.file_end() == file_off
                        && last.logical_off + last.len == cur_logical =>
                {
                    last.len += take
                }
                _ => out.push(ViewSegment {
                    file_off,
                    logical_off: cur_logical,
                    len: take,
                }),
            }
            remaining -= take;
            cur_logical += take;
            in_seg = 0;
            seg_idx += 1;
            if seg_idx == self.tile.len() {
                seg_idx = 0;
                tile_idx += 1;
            }
        }
        out
    }

    /// The set of file bytes touched by `[logical, logical+len)`.
    pub fn file_ranges(&self, logical: u64, len: u64) -> IntervalSet {
        IntervalSet::from_extents(
            self.segments(logical, len)
                .into_iter()
                .map(|s| (s.file_off, s.len)),
        )
    }

    /// Convenience: the file bytes of the first `len` stream bytes.
    pub fn footprint(&self, len: u64) -> IntervalSet {
        self.file_ranges(0, len)
    }

    /// The set of file bytes touched by `[logical, logical+len)`, as a
    /// run-length-compressed [`StridedSet`] — extensionally identical to
    /// [`FileView::file_ranges`], but built in O(trains) per fully covered
    /// tile instead of O(segments): the tile's compressed trains are
    /// replicated across whole tiles analytically, and only partial
    /// head/tail tiles fall back to dense segment walking (then get
    /// re-compressed).
    pub fn strided_file_ranges(&self, logical: u64, len: u64) -> StridedSet {
        if len == 0 {
            return StridedSet::new();
        }
        if self.is_contiguous() {
            // One dense run: logical offsets map linearly to file offsets.
            let d0 = self.tile[0].disp as u64;
            return StridedSet::from_train(Train::new(self.disp + d0 + logical, len, len, 1));
        }
        let end = logical + len;
        let first_full = logical.div_ceil(self.tile_size);
        let last_full = end / self.tile_size;
        if first_full >= last_full {
            // No fully covered tile: the request is small relative to the
            // tile — compress the dense segments directly.
            return self.compress_partial(logical, len);
        }

        let mut trains: Vec<Train> = Vec::new();
        if logical < first_full * self.tile_size {
            let head = self.compress_partial(logical, first_full * self.tile_size - logical);
            trains.extend_from_slice(head.trains());
        }
        let ntiles = last_full - first_full;
        let tile_base = self.disp + first_full * self.tile_extent;
        for t in self.tile_trains.trains() {
            let start = tile_base + t.start();
            if t.count() * t.stride() == self.tile_extent {
                // Consecutive tiles continue the same period exactly: one
                // train whatever the tile count (the column-wise case).
                trains.push(Train::new(start, t.len(), t.stride(), t.count() * ntiles));
            } else if t.is_run() && t.len() <= self.tile_extent {
                // One run per tile instance (hindexed/struct blocks): a
                // train over the tiles at the tile extent. Distinct tile
                // runs stay disjoint across tiles, so each compresses
                // independently — k trains total, not k·ntiles.
                trains.push(Train::new(start, t.len(), self.tile_extent, ntiles));
            } else {
                // Irregular tile train (count·stride ≠ extent): replicate
                // per tile (matches the dense path's per-tile cost; never
                // hit by regular filetypes).
                for tile in 0..ntiles {
                    trains.push(Train::new(
                        start + tile * self.tile_extent,
                        t.len(),
                        t.stride(),
                        t.count(),
                    ));
                }
            }
        }
        if last_full * self.tile_size < end {
            let tail =
                self.compress_partial(last_full * self.tile_size, end - last_full * self.tile_size);
            trains.extend_from_slice(tail.trains());
        }
        StridedSet::from_disjoint_trains(trains)
    }

    /// Strided counterpart of [`FileView::footprint`]: the compressed file
    /// footprint of the first `len` stream bytes — what the handshaking
    /// strategies allgather during view negotiation.
    pub fn strided_footprint(&self, len: u64) -> StridedSet {
        self.strided_file_ranges(0, len)
    }

    /// The pieces of the request `[logical, logical+len)` whose file bytes
    /// fall inside `window`, ascending and coalesced — exactly
    /// `segments(logical, len)` filtered to the window, but computed by
    /// visiting only the filetype tiles the window intersects and, within
    /// each tile, only the flattened segments the window touches (binary
    /// search over the monotone tile). A data-sieving engine patching one
    /// window pays O(log S + segments-in-window), never materializing the
    /// request's full segment list.
    pub fn window_segments(&self, logical: u64, len: u64, window: &ByteRange) -> Vec<ViewSegment> {
        let mut out: Vec<ViewSegment> = Vec::new();
        if len == 0 || window.is_empty() {
            return out;
        }
        let req_end = logical + len;
        let span_lo = self.tile[0].disp as u64;
        let span_hi = self.tile.last().expect("validated non-empty").end() as u64;
        // Tile r's data occupies file [disp + r·extent + span_lo,
        // disp + r·extent + span_hi); extent ≥ span by validation, so tiles
        // are visited in ascending file order.
        let first_tile = logical / self.tile_size;
        let last_tile = (req_end - 1) / self.tile_size;
        let w_lo_tile = if window.start < self.disp + span_hi {
            0
        } else {
            (window.start - self.disp - span_hi) / self.tile_extent + 1
        };
        let w_hi_tile = if window.end <= self.disp + span_lo {
            return out;
        } else {
            (window.end - self.disp - span_lo - 1) / self.tile_extent
        };
        let r_lo = first_tile.max(w_lo_tile);
        let r_hi = last_tile.min(w_hi_tile);
        for r in r_lo..=r_hi {
            let tile_base = self.disp + r * self.tile_extent;
            // First tile segment whose file end lies past the window start.
            let rel_start = window.start.saturating_sub(tile_base) as i64;
            let mut i = self.tile.partition_point(|s| s.end() <= rel_start);
            while i < self.tile.len() {
                let seg = &self.tile[i];
                let f0 = tile_base + seg.disp as u64;
                if f0 >= window.end {
                    break;
                }
                let l0 = r * self.tile_size + self.prefix[i];
                // Clip to the window in file space...
                let a = f0.max(window.start);
                let b = (f0 + seg.len).min(window.end);
                // ...then to the request in logical space.
                let la = (l0 + (a - f0)).max(logical);
                let lb = (l0 + (b - f0)).min(req_end);
                if la < lb {
                    let file_off = f0 + (la - l0);
                    match out.last_mut() {
                        Some(last)
                            if last.file_end() == file_off && last.logical_off + last.len == la =>
                        {
                            last.len += lb - la;
                        }
                        _ => out.push(ViewSegment {
                            file_off,
                            logical_off: la,
                            len: lb - la,
                        }),
                    }
                }
                i += 1;
            }
        }
        out
    }

    fn compress_partial(&self, logical: u64, len: u64) -> StridedSet {
        StridedSet::from_sorted_extents(
            self.segments(logical, len)
                .into_iter()
                .map(|s| (s.file_off, s.len)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayOrder;

    fn colwise_view(m: u64, n: u64, col: u64, w: u64) -> FileView {
        let ft = Datatype::subarray(&[m, n], &[m, w], &[0, col], ArrayOrder::C, Datatype::byte())
            .unwrap();
        FileView::new(0, ft).unwrap()
    }

    #[test]
    fn contiguous_view_maps_identity() {
        let v = FileView::contiguous(100);
        let segs = v.segments(0, 50);
        assert_eq!(
            segs,
            vec![ViewSegment {
                file_off: 100,
                logical_off: 0,
                len: 50
            }]
        );
        assert!(v.is_contiguous());
    }

    #[test]
    fn column_view_maps_rows() {
        // 4x12 array, columns [3, 6): logical stream = 4 rows x 3 bytes.
        let v = colwise_view(4, 12, 3, 3);
        assert_eq!(v.tile_size(), 12);
        assert_eq!(v.tile_extent(), 48);
        assert!(!v.is_contiguous());

        let segs = v.segments(0, 12);
        assert_eq!(
            segs,
            vec![
                ViewSegment {
                    file_off: 3,
                    logical_off: 0,
                    len: 3
                },
                ViewSegment {
                    file_off: 15,
                    logical_off: 3,
                    len: 3
                },
                ViewSegment {
                    file_off: 27,
                    logical_off: 6,
                    len: 3
                },
                ViewSegment {
                    file_off: 39,
                    logical_off: 9,
                    len: 3
                },
            ]
        );
    }

    #[test]
    fn partial_and_offset_requests() {
        let v = colwise_view(4, 12, 3, 3);
        // Start mid-row 1, cross into row 2.
        let segs = v.segments(4, 4);
        assert_eq!(
            segs,
            vec![
                ViewSegment {
                    file_off: 16,
                    logical_off: 4,
                    len: 2
                },
                ViewSegment {
                    file_off: 27,
                    logical_off: 6,
                    len: 2
                },
            ]
        );
    }

    #[test]
    fn tiles_repeat_beyond_one_extent() {
        // Filetype = first 2 bytes of every 8-byte round.
        let ft =
            Datatype::resized(0, 8, Datatype::contiguous(2, Datatype::byte()).unwrap()).unwrap();
        let v = FileView::new(4, ft).unwrap();
        let segs = v.segments(0, 6);
        assert_eq!(
            segs,
            vec![
                ViewSegment {
                    file_off: 4,
                    logical_off: 0,
                    len: 2
                },
                ViewSegment {
                    file_off: 12,
                    logical_off: 2,
                    len: 2
                },
                ViewSegment {
                    file_off: 20,
                    logical_off: 4,
                    len: 2
                },
            ]
        );
        // Offset into the third tile.
        let segs = v.segments(5, 2);
        assert_eq!(
            segs,
            vec![
                ViewSegment {
                    file_off: 21,
                    logical_off: 5,
                    len: 1
                },
                ViewSegment {
                    file_off: 28,
                    logical_off: 6,
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn footprint_matches_segments() {
        let v = colwise_view(4, 12, 3, 3);
        let fp = v.footprint(12);
        assert_eq!(fp.total_len(), 12);
        assert_eq!(fp.run_count(), 4);
        assert!(fp.contains(3) && fp.contains(39) && !fp.contains(0) && !fp.contains(6));
    }

    #[test]
    fn coalesces_across_tile_boundary() {
        // Dense filetype: tiles are contiguous, one coalesced segment.
        let ft = Datatype::contiguous(8, Datatype::byte()).unwrap();
        let v = FileView::new(0, ft).unwrap();
        let segs = v.segments(0, 64);
        assert_eq!(
            segs,
            vec![ViewSegment {
                file_off: 0,
                logical_off: 0,
                len: 64
            }]
        );
    }

    #[test]
    fn rejects_invalid_filetypes() {
        // Negative displacement.
        let neg = Datatype::hindexed(vec![(1, -4)], Datatype::int32()).unwrap();
        assert!(matches!(
            FileView::new(0, neg),
            Err(ViewError::NegativeOffset(-4))
        ));
        // Non-monotone displacements.
        let swap = Datatype::hindexed(vec![(1, 8), (1, 0)], Datatype::int32()).unwrap();
        assert!(matches!(
            FileView::new(0, swap),
            Err(ViewError::NotMonotone { .. })
        ));
        // Overlapping blocks.
        let over = Datatype::hindexed(vec![(1, 0), (1, 2)], Datatype::int32()).unwrap();
        assert!(matches!(
            FileView::new(0, over),
            Err(ViewError::NotMonotone { .. })
        ));
        // Extent smaller than the typemap span: tiles would interleave.
        let shrunk = Datatype::resized(0, 3, Datatype::contiguous(4, Datatype::byte()).unwrap())
            .expect("resized itself is permissive");
        assert!(matches!(
            FileView::new(0, shrunk),
            Err(ViewError::OverlappingTiles { .. })
        ));
        // Extent equal to the span still tiles cleanly.
        let exact =
            Datatype::resized(0, 4, Datatype::contiguous(4, Datatype::byte()).unwrap()).unwrap();
        assert!(FileView::new(0, exact).is_ok());
    }

    #[test]
    fn window_segments_clip_to_the_window() {
        use atomio_interval::ByteRange;
        // 4x12 array, columns [3, 6): rows at file offsets 3, 15, 27, 39.
        let v = colwise_view(4, 12, 3, 3);
        // Window covering rows 1 and 2 only, cutting row 1 short.
        let w = ByteRange::new(16, 30);
        assert_eq!(
            v.window_segments(0, 12, &w),
            vec![
                ViewSegment {
                    file_off: 16,
                    logical_off: 4,
                    len: 2
                },
                ViewSegment {
                    file_off: 27,
                    logical_off: 6,
                    len: 3
                },
            ]
        );
        // Empty window, window before and after the footprint.
        assert!(v.window_segments(0, 12, &ByteRange::new(5, 5)).is_empty());
        assert!(v.window_segments(0, 12, &ByteRange::new(0, 3)).is_empty());
        assert!(v.window_segments(0, 12, &ByteRange::new(42, 99)).is_empty());
        // Whole-file window reproduces segments() exactly.
        assert_eq!(
            v.window_segments(0, 12, &ByteRange::new(0, 1 << 20)),
            v.segments(0, 12)
        );
        // A request not starting at logical 0 clips in both spaces.
        assert_eq!(
            v.window_segments(4, 4, &ByteRange::new(0, 28)),
            vec![
                ViewSegment {
                    file_off: 16,
                    logical_off: 4,
                    len: 2
                },
                ViewSegment {
                    file_off: 27,
                    logical_off: 6,
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn disp_shifts_everything() {
        let v = colwise_view(2, 4, 1, 2);
        let shifted = FileView::new(100, v.filetype().clone()).unwrap();
        let a = v.segments(0, 4);
        let b = shifted.segments(0, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.file_off + 100, y.file_off);
            assert_eq!(x.len, y.len);
        }
    }
}
