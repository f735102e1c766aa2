//! Ablation of the §3.2 discussion: per-segment synchronous writes vs
//! write-behind caching + sync vs atomic list I/O (`lio_listio` with the
//! atomicity extension). Virtual-time comparison of the three data paths a
//! non-contiguous request can take on an NFS-like platform.

use std::time::Duration;

use atomio_pfs::{FileSystem, PlatformProfile};
use atomio_vtime::Clock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Column-wise-like row segments: `rows` rows of `w` bytes, stride `n`.
fn rows(rows_: u64, w: u64, n: u64) -> Vec<(u64, Vec<u8>)> {
    (0..rows_)
        .map(|r| (r * n, vec![0x5Au8; w as usize]))
        .collect()
}

fn bench_write_paths_vtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("noncontig_write_paths_vtime");
    g.sample_size(10);
    let (m, w, n) = (256u64, 2048u64, 32768u64);
    let data = rows(m, w, n);
    g.throughput(Throughput::Bytes(m * w));

    g.bench_function(BenchmarkId::new("per_segment_sync", m), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                for (off, d) in &data {
                    f.pwrite_direct(*off, d);
                }
                total += Duration::from_nanos(f.clock().now() + (i & 7));
            }
            total
        })
    });

    g.bench_function(BenchmarkId::new("write_behind_plus_sync", m), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                for (off, d) in &data {
                    f.pwrite(*off, d);
                }
                f.sync();
                total += Duration::from_nanos(f.clock().now() + (i & 7));
            }
            total
        })
    });

    g.bench_function(BenchmarkId::new("listio_atomic", m), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                let segs: Vec<(u64, &[u8])> =
                    data.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                f.listio_direct_atomic(&segs);
                total += Duration::from_nanos(f.clock().now() + (i & 7));
            }
            total
        })
    });

    g.bench_function(BenchmarkId::new("pipelined_batch", m), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                let segs: Vec<(u64, &[u8])> =
                    data.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                let ticket = f.pwrite_batch(&segs, 0);
                f.complete_writes(ticket, 0);
                total += Duration::from_nanos(f.clock().now() + (i & 7));
            }
            total
        })
    });
    g.finish();
}

fn bench_read_paths_vtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_paths_vtime");
    g.sample_size(10);
    let len = 1u64 << 20;
    g.throughput(Throughput::Bytes(len));

    g.bench_function("direct", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                f.pwrite_direct(0, &vec![1u8; len as usize]);
                let t0 = f.clock().now();
                let mut buf = vec![0u8; 4096];
                for i in 0..(len / 4096) {
                    f.pread_direct(i * 4096, &mut buf);
                }
                total += Duration::from_nanos(f.clock().now() - t0 + (i & 7));
            }
            total
        })
    });

    g.bench_function("cached_with_readahead", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let fs = FileSystem::new(PlatformProfile::cplant());
                let f = fs.open(0, Clock::new(), "x");
                f.pwrite_direct(0, &vec![1u8; len as usize]);
                let t0 = f.clock().now();
                let mut buf = vec![0u8; 4096];
                for i in 0..(len / 4096) {
                    f.pread(i * 4096, &mut buf);
                }
                total += Duration::from_nanos(f.clock().now() - t0 + (i & 7));
            }
            total
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_write_paths_vtime, bench_read_paths_vtime
}
criterion_main!(benches);
