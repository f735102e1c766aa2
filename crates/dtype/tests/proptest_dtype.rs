//! Property tests: subarray flattening and view mapping against brute force.

use std::sync::Arc;

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

/// The maximal runs of a set of file offsets, ascending.
fn runs_of(offsets: impl IntoIterator<Item = u64>) -> Vec<ByteRange> {
    let mut sorted: Vec<u64> = offsets.into_iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut runs: Vec<ByteRange> = Vec::new();
    for o in sorted {
        match runs.last_mut() {
            Some(r) if r.end == o => r.end = o + 1,
            _ => runs.push(ByteRange::new(o, o + 1)),
        }
    }
    runs
}

fn params() -> impl Strategy<Value = (u64, u64, u64, u64, u64, u64)> {
    (1u64..8, 1u64..12).prop_flat_map(|(m, n)| {
        (1..=m, 1..=n).prop_flat_map(move |(sm, sn)| {
            (0..=(m - sm), 0..=(n - sn)).prop_map(move |(rs, cs)| (m, n, sm, sn, rs, cs))
        })
    })
}

/// A filetype with its brute-force tile: the offset of each data byte in
/// stream order, relative to the view's displacement, and the extent at
/// which tiles repeat.
type Shape = (Arc<Datatype>, Vec<u64>, u64);

/// Every view shape the mapping must handle: 2-D subarrays; ascending
/// hindexed blocks whose first block may sit past the type's origin,
/// padded by `resized` so that gaps separate the tiles (or not); and
/// contiguous types, `MPI_BYTE` included.
fn shapes() -> impl Strategy<Value = Shape> {
    let subarray = params().prop_map(|(m, n, sm, sn, rs, cs)| {
        let t = Datatype::subarray(
            &[m, n],
            &[sm, sn],
            &[rs, cs],
            ArrayOrder::C,
            Datatype::byte(),
        )
        .unwrap();
        (t, reference_offsets(m, n, sm, sn, rs, cs), m * n)
    });
    let hindexed =
        (prop::collection::vec((0u64..4, 1u64..5), 1..5), 0u64..4).prop_map(|(blocks, pad)| {
            let (mut cursor, mut blist, mut offs) = (0u64, Vec::new(), Vec::new());
            for (gap, len) in blocks {
                let disp = cursor + gap;
                blist.push((len, disp as i64));
                offs.extend(disp..disp + len);
                cursor = disp + len;
            }
            let t = Datatype::hindexed(blist, Datatype::byte()).unwrap();
            (
                Datatype::resized(0, cursor + pad, t).unwrap(),
                offs,
                cursor + pad,
            )
        });
    let contiguous = (1u64..9).prop_map(|k| {
        let t = match k {
            1 => Datatype::byte(),
            _ => Datatype::contiguous(k, Datatype::byte()).unwrap(),
        };
        (t, (0..k).collect(), k)
    });
    prop_oneof![subarray, hindexed, contiguous]
}

/// The brute-force stream-to-file map of `shape` installed at `disp`.
fn file_offset((_, tile, extent): &Shape, disp: u64, logical: u64) -> u64 {
    let n = tile.len() as u64;
    disp + logical / n * extent + tile[(logical % n) as usize]
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
        shape in shapes(),
        disp in 0u64..64,
        req in (0u64..64, 1u64..64),
    ) {
        let v = FileView::new(disp, shape.0.clone()).unwrap();
        prop_assert_eq!(v.tile_size(), shape.1.len() as u64);
        prop_assert_eq!(v.tile_extent(), shape.2);
        let (logical, len) = req;
        let map = |l| file_offset(&shape, disp, l);

        let segs = v.segments(logical, len);
        // Segments must be ascending in logical order, cover exactly
        // [logical, logical+len), match the brute-force map, and be
        // maximal: no segment continues its predecessor in the file.
        let mut cursor = logical;
        for (i, s) in segs.iter().enumerate() {
            prop_assert_eq!(s.logical_off, cursor);
            for b in 0..s.len {
                prop_assert_eq!(s.file_off + b, map(s.logical_off + b));
            }
            if i > 0 {
                prop_assert!(segs[i - 1].file_end() < s.file_off, "{:?}", segs);
            }
            cursor += s.len;
        }
        prop_assert_eq!(cursor, logical + len);

        // The strided footprint holds exactly the request's bytes, as
        // their maximal runs.
        let sr = v.strided_file_ranges(logical, len);
        let want = runs_of((logical..logical + len).map(map));
        prop_assert_eq!(sr.iter().collect::<Vec<_>>(), want);
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
        shape in shapes(),
        disp in 0u64..16,
        req in (0u64..64, 1u64..64),
        win in (0u64..1000, 0u64..1000),
    ) {
        let v = FileView::new(disp, shape.0.clone()).unwrap();
        let (logical, len) = req;
        let map = |l| file_offset(&shape, disp, l);
        // Windows anywhere from file offset 0 (before `disp`) to past the
        // request's last byte, so they start and end in the gaps between
        // and inside tiles as well as in data.
        let hi = map(logical + len - 1) + 4;
        let w = ByteRange::at(win.0 * hi / 1000, win.1 * hi / 1000);

        // Reference: the request's bytes the window holds, byte by byte,
        // coalesced where they continue each other in the file.
        let mut want: Vec<ViewSegment> = Vec::new();
        for l in logical..logical + len {
            let f = map(l);
            if !w.contains(f) {
                continue;
            }
            match want.last_mut() {
                Some(last) if last.file_end() == f => last.len += 1,
                _ => want.push(ViewSegment { file_off: f, logical_off: l, len: 1 }),
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
        let want = runs_of(v.segments(0, len).iter().flat_map(|g| g.file_off..g.file_end()));
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), want);
        prop_assert!(
            s.train_count() <= nblocks + 2,
            "footprint not compressed across tiles: {} trains for {} blocks",
            s.train_count(),
            nblocks
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
