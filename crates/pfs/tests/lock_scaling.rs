//! Host-time scaling guard for the lock manager: a lock/release pair must
//! cost about the same however many distinct cells were released before
//! it, on each of `lock_storm`'s three managers — `central` (one domain),
//! `token` (one domain whose client keeps a token over every cell it
//! locked) and `sharded` (one domain per server). One client locks the
//! storm's cells (512 B at stride 2 KiB, in a shuffled order) one at a
//! time, at `N` and at `4 N` cells: linear work reads a ratio near 4,
//! quadratic work near 16, and the guard fails above 6. A ratio does not
//! depend on the machine's speed, only on how the work grows.
//!
//! Timings mean nothing without optimizations, so the test is ignored in
//! debug builds; run it with
//! `cargo test --release -p atomio-pfs --test lock_scaling`.

use std::time::Instant;

use atomio_interval::{ByteRange, StridedSet};
use atomio_pfs::{LockKind, LockManager, LockMode, PlatformProfile};
use atomio_vtime::Clock;

const CELL: u64 = 512;
const STRIDE: u64 = 2048;
const N: u64 = 1000;
/// Runs per size, alternating the sizes so that a slow stretch of the
/// host hits both; the fastest of each is kept, which discards a run
/// slowed by an unrelated process.
const RUNS: usize = 5;
const MAX_RATIO: f64 = 6.0;

/// `0..n` in a seeded random order (Fisher-Yates over splitmix64).
fn shuffled(n: u64, mut seed: u64) -> Vec<u64> {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// The storm's first `n` cells, in shuffled order.
fn cells(n: u64) -> Vec<StridedSet> {
    shuffled(n, 1)
        .into_iter()
        .map(|slot| StridedSet::from_range(ByteRange::at(slot * STRIDE, CELL)))
        .collect()
}

/// Host seconds for one lock/release pair per set, on a fresh manager.
fn secs(profile: &PlatformProfile, sets: &[StridedSet]) -> f64 {
    let m = LockManager::new("storm", profile, None).expect("the platform has locks");
    let clock = Clock::new();
    let t0 = Instant::now();
    for set in sets {
        let g = m.acquire_set(0, set, LockMode::Exclusive, &clock);
        m.release(g.id, clock.advance_to(g.granted_at + 1));
    }
    t0.elapsed().as_secs_f64()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing guard: run it with --release")]
fn lock_pairs_scale_linearly_with_the_cells_released() {
    // `lock_storm`'s platform: one server per rank, a 512 B stripe unit.
    let storm = PlatformProfile {
        sim_servers: 4,
        stripe_unit: CELL,
        ..PlatformProfile::fast_test()
    };
    let (small_sets, large_sets) = (cells(N), cells(4 * N));
    for (name, profile) in [
        ("central", storm.clone()),
        (
            "token",
            PlatformProfile {
                lock_kind: LockKind::Distributed,
                ..storm.clone()
            },
        ),
        ("sharded", storm.with_sharded_locks()),
    ] {
        let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RUNS {
            small = small.min(secs(&profile, &small_sets));
            large = large.min(secs(&profile, &large_sets));
        }
        let ratio = large / small;
        eprintln!(
            "{name}: {:.2} us/pair at {N} cells, {:.2} at {}, ratio {ratio:.2}",
            small * 1e6 / N as f64,
            large * 1e6 / (4 * N) as f64,
            4 * N
        );
        assert!(
            ratio <= MAX_RATIO,
            "{name}: {} pairs took {ratio:.2}x the time of {N}; linear work reads ~4",
            4 * N
        );
    }
}
