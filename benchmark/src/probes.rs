//! Per-layer probes: small fixed loops on one layer's public surface, in
//! host nanoseconds per operation. They run once per traced run, after the
//! measured loops, and feed only per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use atomio_collective::partition_domains;
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{greedy_color, surviving_pieces_strided, OverlapMatrix};
use atomio_interval::{ByteRange, IntervalSet, StridedSet};
use atomio_msg::{run, NetCost};
use atomio_pfs::{CacheParams, ClientCache, FileSystem, LockMode, PlatformProfile, Storage};
use atomio_vtime::{Clock, MemCost};
use atomio_workloads::ColWise;

use crate::workloads::{storm_order, storm_profile, Workload, STORM_WRITES};

use crate::catalog::MetricSet;
use crate::host::median;

const MIB: usize = 1024 * 1024;

/// Median over `reps` repetitions of `f`'s elapsed nanoseconds, divided by
/// `per`. `f` gets fresh state from `setup` each time, outside the timing.
fn time_reps<S>(reps: usize, per: f64, mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            f(state);
            t.elapsed().as_nanos() as f64 / per
        })
        .collect();
    median(&samples)
}

fn time_ns<S>(per: f64, setup: impl FnMut() -> S, f: impl FnMut(S)) -> f64 {
    time_reps(3, per, setup, f)
}

/// The 512 B cell `rank` writes for `slot` in `lock_storm`.
fn cell(slot: u32, rank: usize) -> StridedSet {
    StridedSet::from_range(ByteRange::at(
        (u64::from(slot) * 4 + rank as u64) * 512,
        512,
    ))
}

/// Host ns per `lock_set` + `release` pair on `lock_storm`'s ranges in
/// `lock_storm`'s slot order, no I/O: rank 0 alone, then the four ranks
/// racing (wall time over all pairs — the number `lock_storm`'s case wall
/// is compared against).
fn lock_probes(m: &mut MetricSet, seed: u64, scale: u64) {
    let pairs = STORM_WRITES / scale;
    let order = storm_order(seed, pairs);
    for (case, name) in Workload::LockStorm.cases().iter().enumerate() {
        let profile = storm_profile(case);
        let single = time_ns(
            pairs as f64,
            || FileSystem::new(profile.clone()).open(0, Clock::new(), "probe"),
            |file| {
                for &slot in &order[0] {
                    file.lock_set(&cell(slot, 0), LockMode::Exclusive)
                        .expect("the platform has locks")
                        .release();
                }
            },
        );
        m.put(&format!("lock.pair_ns_1t.{name}"), single);
        // About a second per manager at full scale: measured once.
        let racing = time_reps(
            1,
            (4 * pairs) as f64,
            || FileSystem::new(profile.clone()),
            |fs| {
                run(4, fs.profile().net.clone(), |comm| {
                    let file = fs.open(comm.rank(), comm.clock().clone(), "probe");
                    for &slot in &order[comm.rank()] {
                        file.lock_set(&cell(slot, comm.rank()), LockMode::Exclusive)
                            .expect("the platform has locks")
                            .release();
                    }
                });
            },
        );
        m.put(&format!("lock.pair_ns_pt.{name}"), racing);
    }
}

fn cache_params() -> CacheParams {
    CacheParams {
        enabled: true,
        page_size: 4 * 1024,
        read_ahead_pages: 2,
        write_behind_limit: 64 * MIB as u64,
        max_bytes: 64 * MIB as u64,
        mem: MemCost::new(1.0e9),
    }
}

/// `ClientCache` per 4 KiB page over 1024 pages, and `PosixFile` per MiB
/// over 8 MiB in 64 KiB calls.
fn cache_probes(m: &mut MetricSet) {
    const PAGES: u64 = 1024;
    let page = vec![7u8; 4096];
    let written = || {
        let mut c = ClientCache::new(cache_params());
        for p in 0..PAGES {
            c.write(p * 4096, &page);
        }
        c
    };
    let write = time_ns(
        PAGES as f64,
        || ClientCache::new(cache_params()),
        |mut c| {
            for p in 0..PAGES {
                c.write(p * 4096, &page);
            }
            black_box(c.dirty_bytes());
        },
    );
    m.put("cache.write_ns_per_page", write);
    let read = time_ns(PAGES as f64, written, |c| {
        let mut buf = vec![0u8; 4096];
        for p in 0..PAGES {
            c.read(p * 4096, &mut buf);
        }
        black_box(buf);
    });
    m.put("cache.read_hit_ns_per_page", read);
    let fill = time_ns(
        PAGES as f64,
        || ClientCache::new(cache_params()),
        |mut c| {
            for p in 0..PAGES {
                c.fill(p * 4096, &page);
            }
            black_box(c.valid_bytes());
        },
    );
    m.put("cache.fill_ns_per_page", fill);
    let take = time_ns(PAGES as f64, written, |mut c| {
        black_box(c.take_dirty_runs());
    });
    m.put("cache.take_dirty_ns_per_page", take);

    let chunk = vec![7u8; 64 * 1024];
    let total = 8 * MIB;
    let open = || {
        let profile = PlatformProfile {
            cache: cache_params(),
            ..PlatformProfile::fast_test()
        };
        FileSystem::new(profile).open(0, Clock::new(), "probe")
    };
    let cached = time_ns((total / MIB) as f64, open, |file| {
        for off in (0..total).step_by(chunk.len()) {
            file.try_pwrite(off as u64, &chunk)
                .expect("no faults armed");
        }
        file.try_sync().expect("no faults armed");
    });
    m.put("file.pwrite_cached_ns_per_mib", cached);
    let direct = time_ns((total / MIB) as f64, open, |file| {
        for off in (0..total).step_by(chunk.len()) {
            file.try_pwrite_direct(off as u64, &chunk)
                .expect("no faults armed");
        }
    });
    m.put("file.pwrite_direct_ns_per_mib", direct);

    // `ServerSet::try_access` needs a `ServerOp`, which `atomio-pfs` does
    // not export; the smallest public call that ends in exactly one server
    // access is a direct 512 B write to a block that already exists.
    let small = [7u8; 512];
    let warm = || {
        let file = open();
        file.try_pwrite_direct(0, &small).expect("no faults armed");
        file
    };
    let access = time_ns(2000.0, warm, |file| {
        for _ in 0..2000 {
            file.try_pwrite_direct(0, &small).expect("no faults armed");
        }
    });
    m.put("server.access_ns", access);
}

/// `Storage` over 64 MiB in 64 KiB calls. First write against rewrite of
/// the same blocks separates page-fault cost from block-map and gate cost.
fn storage_probes(m: &mut MetricSet, scale: u64) {
    let total = 64 * MIB / scale as usize;
    let chunk = vec![7u8; 64 * 1024];
    let fill = |s: &Storage, from: usize, to: usize| {
        for off in (from..to).step_by(chunk.len()) {
            s.write_atomic(off as u64, &chunk);
        }
    };
    let mib = (total / MIB) as f64;
    let filled = || {
        let s = Storage::new();
        fill(&s, 0, total);
        s
    };
    m.put(
        "storage.first_write_ns_per_mib_1t",
        time_ns(mib, Storage::new, |s| fill(&s, 0, total)),
    );
    m.put(
        "storage.rewrite_ns_per_mib_1t",
        time_ns(mib, filled, |s| fill(&s, 0, total)),
    );
    m.put(
        "storage.first_write_ns_per_mib_pt",
        time_ns(mib, Storage::new, |s| {
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (s, fill) = (&s, &fill);
                    scope.spawn(move || fill(s, t * total / 4, (t + 1) * total / 4));
                }
            });
        }),
    );
    m.put(
        "storage.read_ns_per_mib_1t",
        time_ns(mib, filled, |s| {
            let mut buf = vec![0u8; chunk.len()];
            for off in (0..total).step_by(buf.len()) {
                s.read_atomic(off as u64, &mut buf);
            }
            black_box(buf);
        }),
    );
}

/// The rank runtime and its collectives at P = 8.
fn msg_probes(m: &mut MetricSet, scale: u64) {
    const P: usize = 8;
    let rounds = 500 / scale as usize;
    let net = NetCost::fast_test;
    m.put(
        "msg.spawn_join_us",
        time_ns(
            20.0 * 1e3,
            || (),
            |()| {
                for _ in 0..20 {
                    run(P, net(), |comm| black_box(comm.rank()));
                }
            },
        ),
    );
    // One job per collective; the empty job's cost is small against the
    // rounds and is left in.
    m.put(
        "msg.barrier_ns",
        time_ns(
            rounds as f64,
            || (),
            |()| {
                run(P, net(), |comm| {
                    for _ in 0..rounds {
                        comm.barrier();
                    }
                });
            },
        ),
    );
    m.put(
        "msg.allgather_ns",
        time_ns(
            rounds as f64,
            || (),
            |()| {
                run(P, net(), |comm| {
                    for _ in 0..rounds {
                        black_box(comm.allgather(comm.rank() as u64));
                    }
                });
            },
        ),
    );
    // Every rank ships 128 KiB to every rank: 8 MiB per exchange.
    let piece = vec![7u8; 128 * 1024];
    let exchanges = 8;
    m.put(
        "msg.alltoallv_ns_per_mib",
        time_ns(
            (exchanges * P * P * piece.len() / MIB) as f64,
            || (),
            |()| {
                run(P, net(), |comm| {
                    for _ in 0..exchanges {
                        let out: Vec<Vec<u8>> = (0..P).map(|_| piece.clone()).collect();
                        black_box(comm.alltoallv(out));
                    }
                });
            },
        ),
    );
    let aggregators: Vec<usize> = (0..P).collect();
    m.put(
        "collective.partition_domains_ns",
        time_ns(
            1000.0,
            || (),
            |()| {
                for i in 0..1000u64 {
                    black_box(partition_domains(
                        ByteRange::new(i, 12 * MIB as u64),
                        &aggregators,
                        4096,
                    ));
                }
            },
        ),
    );
}

/// Interval algebra, datatype flattening and the strategies' negotiation
/// steps on the `colwise_fig8` views (512 rows, P = 4), and the byte
/// checker on a 16 MiB file of the same shape.
fn negotiation_probes(m: &mut MetricSet) {
    const REPS: usize = 200;
    let spec = ColWise::new(512, 262_144, 4, 16).expect("valid geometry");
    let parts: Vec<_> = (0..4).map(|r| spec.partition(r)).collect();
    let views: Vec<IntervalSet> = spec.all_views();
    let strided: Vec<StridedSet> = parts
        .iter()
        .map(|p| p.view.strided_footprint(p.data_bytes()))
        .collect();
    let reps = |f: &mut dyn FnMut()| {
        time_ns(
            REPS as f64,
            || (),
            |()| {
                for _ in 0..REPS {
                    f();
                }
            },
        )
    };
    m.put(
        "interval.overlaps_ns",
        reps(&mut || {
            black_box(views[1].overlaps(black_box(&views[2])));
        }),
    );
    m.put(
        "interval.union_ns",
        reps(&mut || {
            black_box(views[1].union(black_box(&views[2])));
        }),
    );
    m.put(
        "dtype.strided_footprint_ns",
        reps(&mut || {
            black_box(parts[1].view.strided_footprint(parts[1].data_bytes()));
        }),
    );
    m.put(
        "strategy.overlap_matrix_ns",
        reps(&mut || {
            black_box(OverlapMatrix::from_strided(black_box(&strided)));
        }),
    );
    let matrix = OverlapMatrix::from_strided(&strided);
    m.put(
        "strategy.greedy_color_ns",
        reps(&mut || {
            black_box(greedy_color(black_box(&matrix)));
        }),
    );
    let segments = parts[1].view.segments(0, parts[1].data_bytes());
    let higher = strided[2].union(&strided[3]);
    m.put(
        "strategy.surviving_pieces_ns",
        reps(&mut || {
            black_box(surviving_pieces_strided(&segments, black_box(&higher)));
        }),
    );

    let small = ColWise::new(64, 262_144, 4, 16).expect("valid geometry");
    let small_views = small.all_views();
    let mut file = vec![0u8; small.file_bytes() as usize];
    for (r, v) in small_views.iter().enumerate() {
        for run in v.iter() {
            file[run.start as usize..run.end as usize].fill(r as u8 + 1);
        }
    }
    let patterns: Vec<_> = (1..=4u8).map(|s| move |_: u64| s).collect();
    m.put(
        "strategy.verify_ns_per_mib",
        time_ns(
            (file.len() / MIB) as f64,
            || (),
            |()| {
                let rep = check_mpi_atomicity(&file, &small_views, &patterns);
                assert!(rep.is_atomic(), "rank order is a serialization");
            },
        ),
    );
}

/// Run every probe; each puts its metrics into `m`. `scale` divides the
/// loop lengths of the slow ones (1 = the benchmark, 8 = the smoke test).
pub fn run_all(m: &mut MetricSet, seed: u64, scale: u64) {
    lock_probes(m, seed, scale);
    cache_probes(m);
    storage_probes(m, scale);
    msg_probes(m, scale);
    negotiation_probes(m);
}
