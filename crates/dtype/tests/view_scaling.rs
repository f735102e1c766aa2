//! Host-time scaling guard for the view walk: mapping a request through a
//! contiguous view is one step whatever the request's length. `segments`
//! and `strided_file_ranges` are timed on `MPI_BYTE`'s view (a one-byte
//! tile) at 1 KiB and at 1 MiB requests: per-request work reads a
//! per-call ratio near 1, a walk over the tile's bytes near 1 000, and the
//! guard fails above 4. A ratio does not depend on the machine's speed,
//! only on how the work grows.
//!
//! Timings mean nothing without optimizations, so the test is ignored in
//! debug builds; run it with
//! `cargo test --release -p atomio-dtype --test view_scaling`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use atomio_dtype::FileView;

const SMALL: u64 = 1 << 10;
const LARGE: u64 = 1 << 20;
/// Each timed run makes enough calls to take at least this long.
const MIN_RUN: Duration = Duration::from_millis(10);
/// Runs per size, alternating the sizes; the fastest is kept, which
/// discards a run slowed by an unrelated process.
const RUNS: usize = 5;
const MAX_RATIO: f64 = 4.0;

/// One mapping call on a request of the given length.
type Map = fn(&FileView, u64);

/// Host seconds for `calls` calls of `map` on a `len`-byte request.
fn run(view: &FileView, map: Map, len: u64, calls: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        map(view, black_box(len));
    }
    t0.elapsed().as_secs_f64()
}

/// Calls of `map` on a `len`-byte request that take at least `MIN_RUN`.
fn calls_for(view: &FileView, map: Map, len: u64) -> u32 {
    let mut calls = 1;
    while run(view, map, len, calls) < MIN_RUN.as_secs_f64() {
        calls *= 2;
    }
    calls
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing guard: run it with --release")]
fn contiguous_view_maps_a_request_in_one_step() {
    let view = FileView::contiguous(0);
    let maps: [(&str, Map); 2] = [
        ("segments", |v, len| {
            black_box(v.segments(0, len));
        }),
        ("strided_file_ranges", |v, len| {
            black_box(v.strided_file_ranges(0, len));
        }),
    ];
    for (name, map) in maps {
        let (n_small, n_large) = (calls_for(&view, map, SMALL), calls_for(&view, map, LARGE));
        let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RUNS {
            small = small.min(run(&view, map, SMALL, n_small) / n_small as f64);
            large = large.min(run(&view, map, LARGE, n_large) / n_large as f64);
        }
        let ratio = large / small;
        eprintln!(
            "{name}: {:.1} ns/call at {SMALL} B, {:.1} at {LARGE} B, ratio {ratio:.2}",
            small * 1e9,
            large * 1e9
        );
        assert!(
            ratio <= MAX_RATIO,
            "{name}: a {LARGE} B request took {ratio:.2}x the time of {SMALL} B; \
             one step per request reads ~1"
        );
    }
}
