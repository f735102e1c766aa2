//! Property tests: subarray flattening and view mapping against brute force.

use atomio_dtype::{ArrayOrder, Datatype, FileView, ViewSegment};
use atomio_interval::ByteRange;
use proptest::prelude::*;

/// Brute-force file offsets of a 2-D subarray's bytes, in stream order.
fn reference_offsets(m: u64, n: u64, sm: u64, sn: u64, rs: u64, cs: u64) -> Vec<u64> {
    assert!(rs + sm <= m && cs + sn <= n);
    let mut offs = Vec::new();
    for r in 0..sm {
        for c in 0..sn {
            offs.push((rs + r) * n + (cs + c));
        }
    }
    offs
}

fn params() -> impl Strategy<Value = (u64, u64, u64, u64, u64, u64)> {
    (1u64..8, 1u64..12).prop_flat_map(|(m, n)| {
        (1..=m, 1..=n).prop_flat_map(move |(sm, sn)| {
            (0..=(m - sm), 0..=(n - sn)).prop_map(move |(rs, cs)| (m, n, sm, sn, rs, cs))
        })
    })
}

proptest! {
    #[test]
    fn subarray_flatten_matches_bruteforce((m, n, sm, sn, rs, cs) in params()) {
        let t = Datatype::subarray(&[m, n], &[sm, sn], &[rs, cs], ArrayOrder::C, Datatype::byte())
            .unwrap();
        // Expand the flattened segments byte-by-byte in typemap order.
        let mut got = Vec::new();
        for seg in t.flatten() {
            for b in 0..seg.len {
                got.push(seg.disp as u64 + b);
            }
        }
        prop_assert_eq!(got, reference_offsets(m, n, sm, sn, rs, cs));
        prop_assert_eq!(t.size(), sm * sn);
        prop_assert_eq!(t.extent(), m * n);
    }

    #[test]
    fn view_segments_cover_request_exactly(
        (m, n, sm, sn, rs, cs) in params(),
        disp in 0u64..64,
        req in (0u64..64, 1u64..64),
    ) {
        let t = Datatype::subarray(&[m, n], &[sm, sn], &[rs, cs], ArrayOrder::C, Datatype::byte())
            .unwrap();
        let v = FileView::new(disp, t).unwrap();
        let (logical, len) = req;

        // Brute-force stream->file map over enough tiles.
        let per_tile = reference_offsets(m, n, sm, sn, rs, cs);
        let tiles_needed = ((logical + len) / v.tile_size() + 2) as usize;
        let mut stream_to_file = Vec::new();
        for tile in 0..tiles_needed as u64 {
            for &o in &per_tile {
                stream_to_file.push(disp + tile * v.tile_extent() + o);
            }
        }

        let segs = v.segments(logical, len);
        // Segments must be ascending in logical order, cover exactly
        // [logical, logical+len), and match the brute-force map.
        let mut cursor = logical;
        for s in &segs {
            prop_assert_eq!(s.logical_off, cursor);
            for b in 0..s.len {
                prop_assert_eq!(s.file_off + b, stream_to_file[(s.logical_off + b) as usize]);
            }
            cursor += s.len;
        }
        prop_assert_eq!(cursor, logical + len);

        // file_ranges is consistent with segments.
        let fr = v.file_ranges(logical, len);
        prop_assert_eq!(fr.total_len(), len);

        // The strided footprint is extensionally identical to the dense one.
        let sr = v.strided_file_ranges(logical, len);
        prop_assert_eq!(sr.to_intervals(), fr);
    }

    #[test]
    fn subarray_tile_footprint_is_one_train(
        (m, n, sm, sn, rs, cs) in params(),
        disp in 0u64..64,
    ) {
        // One tile of a 2-D subarray is `sm` rows of `sn` bytes at the row
        // stride: one train however many rows, never O(rows).
        let t = Datatype::subarray(&[m, n], &[sm, sn], &[rs, cs], ArrayOrder::C, Datatype::byte())
            .unwrap();
        let v = FileView::new(disp, t).unwrap();
        let tile = v.strided_footprint(v.tile_size());
        prop_assert_eq!(tile.train_count(), 1, "{:?}", tile);
        prop_assert_eq!(tile.total_len(), sm * sn);
    }

    #[test]
    fn touching_vector_view_footprint_is_one_run(
        count in 1u64..10,
        blocklen in 1u64..6,
        pad in 0u64..3,
        tiles in 1u64..5,
    ) {
        // `vector(count, b, b)` is a contiguous type in disguise: its tile
        // compresses to one run, so run counts and wire sizes agree with
        // the dense flattening. Padding the extent keeps the view strided.
        let size = count * blocklen;
        let vector = Datatype::vector(count, blocklen, blocklen as i64, Datatype::byte()).unwrap();
        let ft = Datatype::resized(0, size + pad, vector).unwrap();
        let v = FileView::new(0, ft).unwrap();
        let tile = v.strided_footprint(size);
        prop_assert_eq!(tile.train_count(), 1, "{:?}", tile);
        prop_assert!(tile.trains()[0].is_run(), "{:?}", tile);
        prop_assert_eq!(tile.total_len(), size);
        // Whole tiles: one run when they touch, one train at the extent
        // when padding separates them.
        let all = v.strided_footprint(size * tiles);
        prop_assert_eq!(all.train_count(), 1, "{:?}", all);
        prop_assert_eq!(all.run_count(), if pad == 0 { 1 } else { tiles });
    }

    #[test]
    fn window_segments_match_filtered_segments(
        (m, n, sm, sn, rs, cs) in params(),
        disp in 0u64..16,
        req in (0u64..64, 1u64..64),
        win in (0u64..128, 0u64..64),
    ) {
        let t = Datatype::subarray(&[m, n], &[sm, sn], &[rs, cs], ArrayOrder::C, Datatype::byte())
            .unwrap();
        let v = FileView::new(disp, t).unwrap();
        let (logical, len) = req;
        let w = ByteRange::at(win.0, win.1);

        // Reference: the full segment list clipped to the window.
        let mut want: Vec<ViewSegment> = Vec::new();
        for s in v.segments(logical, len) {
            let a = s.file_off.max(w.start);
            let b = (s.file_off + s.len).min(w.end);
            if a < b {
                want.push(ViewSegment {
                    file_off: a,
                    logical_off: s.logical_off + (a - s.file_off),
                    len: b - a,
                });
            }
        }
        prop_assert_eq!(v.window_segments(logical, len, &w), want);
    }

    #[test]
    fn multi_run_tiles_compress_across_tiles(
        nblocks in 2usize..6,
        tiles in 2u64..40,
    ) {
        // k disjoint hindexed blocks per tile, repeated over many tiles:
        // the strided footprint must stay O(k) trains, not O(k·tiles).
        let blocks: Vec<(u64, i64)> = (0..nblocks)
            .map(|i| (2u64, (i as i64) * 5))
            .collect();
        let span = (nblocks as u64 - 1) * 5 + 2;
        let ft = Datatype::resized(
            0,
            span + 3,
            Datatype::hindexed(blocks, Datatype::byte()).unwrap(),
        )
        .unwrap();
        let v = FileView::new(0, ft).unwrap();
        let len = v.tile_size() * tiles;
        let s = v.strided_file_ranges(0, len);
        prop_assert_eq!(s.to_intervals(), v.file_ranges(0, len));
        prop_assert!(
            s.train_count() <= nblocks + 2,
            "footprint not compressed across tiles: {} trains for {} blocks",
            s.train_count(),
            nblocks
        );
    }

    #[test]
    fn strided_view_matches_dense_on_hindexed_soups(
        blocks in prop::collection::vec((0u64..40, 1u64..6), 1..6),
        req in (0u64..64, 1u64..64),
    ) {
        // Irregular footprints (the proptest_strategies generator shape):
        // ascending disjoint hindexed blocks.
        let mut cursor = 0u64;
        let mut blist: Vec<(u64, i64)> = Vec::new();
        for (gap, len) in blocks {
            let disp = cursor + gap;
            blist.push((len, disp as i64));
            cursor = disp + len;
        }
        let t = Datatype::hindexed(blist, Datatype::byte()).unwrap();
        let v = FileView::new(3, t).unwrap();
        let (logical, len) = req;
        prop_assert_eq!(
            v.strided_file_ranges(logical, len).to_intervals(),
            v.file_ranges(logical, len)
        );
    }

    #[test]
    fn vector_flatten_matches_bruteforce(
        count in 1u64..10,
        blocklen in 1u64..6,
        gap in 0i64..6,
        elem_size in prop::sample::select(vec![1u64, 4, 8]),
    ) {
        let stride = blocklen as i64 + gap;
        let elem = match elem_size {
            1 => Datatype::byte(),
            4 => Datatype::int32(),
            _ => Datatype::double(),
        };
        let t = Datatype::vector(count, blocklen, stride, elem).unwrap();
        let mut got = Vec::new();
        for seg in t.flatten() {
            for b in 0..seg.len {
                got.push(seg.disp + b as i64);
            }
        }
        let mut want = Vec::new();
        for i in 0..count as i64 {
            for b in 0..(blocklen * elem_size) as i64 {
                want.push(i * stride * elem_size as i64 + b);
            }
        }
        prop_assert_eq!(got, want);
    }
}
