//! Ablation over the lock manager's presets — central (NFS/XFS),
//! distributed tokens (GPFS) and sharded per-server domains (Lustre): the
//! §3.2 design comparison. Measures both the host-time cost of the data
//! structures and the *virtual-time* cost of the protocols (token reuse vs
//! per-request round trips).

use std::time::Duration;

use atomio_interval::{ByteRange, StridedSet};
use atomio_pfs::{LockKind, LockManager, LockMode, PlatformProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const GRANT_NS: u64 = 700_000;
const REVOKE_NS: u64 = 5_000_000;

/// The two designs of paper §3.2, by bench row name.
const PAPER_PRESETS: [(&str, LockKind); 2] = [
    ("central", LockKind::Central),
    ("distributed_token", LockKind::Distributed),
];

fn manager(kind: LockKind, grant_ns: u64, revoke_ns: u64) -> LockManager {
    let profile = PlatformProfile {
        lock_kind: kind,
        lock_grant_ns: grant_ns,
        token_revoke_ns: revoke_ns,
        ..PlatformProfile::fast_test()
    };
    LockManager::new(&profile, None).expect("a locking preset")
}

/// Virtual time after `iters` lock/unlock cycles of one 1 MiB range,
/// rotating over `owners` clients, mapped into criterion time.
fn cycle_vtime(kind: LockKind, owners: u64, iters: u64) -> Duration {
    let m = manager(kind, GRANT_NS, REVOKE_NS);
    let set = StridedSet::from_range(ByteRange::new(0, 1 << 20));
    let mut now = 0u64;
    for i in 0..iters {
        let g = m.acquire_set((i % owners) as usize, &set, LockMode::Exclusive, now);
        m.release(g.id, g.granted_at);
        now = g.granted_at;
    }
    Duration::from_nanos(now + (iters & 7))
}

fn bench_same_client_reacquire(c: &mut Criterion) {
    // One client re-locking its own range repeatedly: GPFS tokens make
    // this (virtually) free, the central manager pays a round trip each
    // time.
    let mut g = c.benchmark_group("reacquire_same_range_vtime");
    for (name, kind) in PAPER_PRESETS {
        g.bench_function(name, |b| b.iter_custom(|iters| cycle_vtime(kind, 1, iters)));
    }
    g.finish();
}

fn bench_ping_pong(c: &mut Criterion) {
    // Two clients alternating on an overlapped range: token revocation
    // makes GPFS *worse* than the central manager here — exactly the
    // paper's "concurrent writes to overlapped data must still be
    // sequential" caveat.
    let mut g = c.benchmark_group("overlap_ping_pong_vtime");
    for (name, kind) in PAPER_PRESETS {
        g.bench_function(name, |b| b.iter_custom(|iters| cycle_vtime(kind, 2, iters)));
    }
    g.finish();
}

fn bench_disjoint_host_cost(c: &mut Criterion) {
    // Host-time cost of the lock table itself with many disjoint ranges.
    let mut g = c.benchmark_group("disjoint_ranges_host");
    for clients in [4usize, 16, 64] {
        for (name, kind) in PAPER_PRESETS
            .into_iter()
            .chain([("sharded", LockKind::Sharded)])
        {
            g.bench_with_input(BenchmarkId::new(name, clients), &clients, |b, &clients| {
                b.iter(|| {
                    let m = manager(kind, 0, 0);
                    for k in 0..clients as u64 {
                        let set = StridedSet::from_range(ByteRange::new(k * 1000, k * 1000 + 999));
                        let g = m.acquire_set(k as usize, &set, LockMode::Exclusive, 0);
                        m.release(g.id, g.granted_at);
                    }
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_same_client_reacquire, bench_ping_pong, bench_disjoint_host_cost
}
criterion_main!(benches);
