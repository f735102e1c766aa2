//! Exact-footprint list locking over sharded per-server lock domains:
//! atomicity on every lock architecture, byte-identical equivalence of
//! span vs exact vs sharded granularities, full parallelism for disjoint
//! interleaved writers, deadlock freedom under random concurrent
//! multi-range acquirers, and bounded lock state on long-running handles.

mod common;

use atomio::pfs::LockManager;
use atomio::prelude::*;
use atomio::vtime::Job;
use proptest::prelude::{prop, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::{prop_assert, prop_assert_eq, proptest};
use std::sync::Arc;

/// The lock architectures under test: central, GPFS tokens, Lustre-style
/// sharded domains, and token-over-shards — all on the fast test cost
/// constants so only the lock design differs.
fn lock_platforms() -> Vec<(&'static str, PlatformProfile)> {
    let base = PlatformProfile::fast_test();
    vec![
        ("central", base.clone()),
        (
            "tokens",
            PlatformProfile {
                lock_kind: LockKind::Distributed,
                ..base.clone()
            },
        ),
        ("sharded", base.clone().with_sharded_locks()),
        (
            "sharded-tokens",
            PlatformProfile {
                lock_kind: LockKind::Distributed,
                ..base
            }
            .with_sharded_locks(),
        ),
    ]
}

#[test]
fn exact_locking_is_atomic_on_every_lock_architecture() {
    // Overlapping column-wise writers under exact-footprint list locks:
    // conflicting pairs must still serialize, on every manager design.
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    for (name, profile) in lock_platforms() {
        let fs = FileSystem::new(profile);
        let reports = common::run_colwise(
            &fs,
            name,
            spec,
            Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Exact)),
            IoPath::Direct,
        );
        let rep = common::check_colwise(&fs, name, spec);
        assert!(rep.is_atomic(), "{name}: {rep:?}");
        for r in &reports {
            let fp = r.lock_footprint.as_ref().expect("exact mode locks");
            assert_eq!(fp.granularity, LockGranularity::Exact);
            // The exact grant holds only the footprint (M runs), far less
            // than the span, and one range per row.
            assert_eq!(fp.ranges(), spec.m);
            assert!(fp.locked_bytes() < fp.span().unwrap().len());
        }
    }
}

#[test]
fn disjoint_interleaved_writers_admit_full_parallelism() {
    // The workload the granularity axis exists for: overlapping *spans*,
    // disjoint *footprints*. Span locking must serialize P-1 grants;
    // exact (central or sharded) must serialize none and slash the
    // virtual time spent waiting for grants.
    let w = IndependentStrided::disjoint_interleaved(8, 64, 32).unwrap();
    let run_one = |profile: PlatformProfile, granularity: LockGranularity| {
        let fs = FileSystem::new(profile);
        let stats = run(w.p, fs.profile().net.clone(), |comm| {
            let buf = w.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "par", OpenMode::ReadWrite).unwrap();
            file.set_view(w.disp(comm.rank()), w.filetype()).unwrap();
            file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(granularity)))
                .unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            file.close().unwrap().stats
        });
        let serialized: u64 = stats.iter().map(|s| s.lock_serialized_grants).sum();
        let wait: u64 = stats.iter().map(|s| s.lock_wait_ns).sum();
        (serialized, wait)
    };

    let (span_ser, span_wait) = run_one(PlatformProfile::fast_test(), LockGranularity::Span);
    let (exact_ser, exact_wait) = run_one(PlatformProfile::fast_test(), LockGranularity::Exact);
    let (shard_ser, shard_wait) = run_one(
        PlatformProfile::fast_test().with_sharded_locks(),
        LockGranularity::Exact,
    );

    assert_eq!(
        span_ser,
        (w.p - 1) as u64,
        "span: all interleaved spans conflict"
    );
    assert_eq!(exact_ser, 0, "exact: disjoint footprints never serialize");
    assert_eq!(shard_ser, 0, "sharded exact: no serialization either");
    assert!(
        exact_wait * 5 < span_wait && shard_wait * 5 < span_wait,
        "grant wait must collapse: span {span_wait}, exact {exact_wait}, sharded {shard_wait}"
    );
}

// ------------------------------------------------------------ equivalence

const FILE_SPAN: u64 = 4096;
const P: usize = 3;

/// Random canonical interval set within the file span, never empty.
fn arb_footprint() -> impl PropStrategy<Value = IntervalSet> {
    prop::collection::vec((0u64..FILE_SPAN - 64, 1u64..128), 1..8).prop_map(|runs| {
        IntervalSet::from_extents(runs.into_iter().map(|(o, l)| (o, l.min(FILE_SPAN - o))))
    })
}

fn filetype_of(fp: &IntervalSet) -> Arc<Datatype> {
    let blocks: Vec<(u64, i64)> = fp.iter().map(|r| (r.len(), r.start as i64)).collect();
    Datatype::hindexed(blocks, Datatype::byte()).expect("non-empty")
}

/// Run a concurrent atomic write of `footprints` and return the final
/// file bytes (padded to the full span for stable comparison).
fn final_bytes(
    footprints: &[IntervalSet],
    profile: PlatformProfile,
    atomicity: Atomicity,
    sieve: Option<SieveConfig>,
) -> Vec<u8> {
    let fs = FileSystem::new(profile.clone());
    let fs2 = fs.clone();
    let fps = footprints.to_vec();
    run(footprints.len(), profile.net.clone(), move |comm| {
        let fp = &fps[comm.rank()];
        let ft = filetype_of(fp);
        let buf: Vec<u8> = {
            let pat = pattern::rank_stamp(comm.rank());
            let mut b = Vec::with_capacity(fp.total_len() as usize);
            for r in fp.iter() {
                for o in r.start..r.end {
                    b.push(pat(o));
                }
            }
            b
        };
        let mut file = MpiFile::open(&comm, &fs2, "eq", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        if let Some(cfg) = sieve {
            file.set_sieve_config(cfg);
        }
        file.set_atomicity(atomicity).unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    let mut snap = fs.snapshot("eq").unwrap().to_vec();
    snap.resize(FILE_SPAN as usize, 0);
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exact_list_grants_match_span_locking_byte_for_byte(
        fps in prop::collection::vec(arb_footprint(), P..=P)
    ) {
        // Overlapping random footprints: the atomic list grant must yield
        // exactly the serialization the span lock yields — same winner on
        // every contested byte — on the central AND the sharded manager.
        let span = final_bytes(
            &fps,
            PlatformProfile::fast_test(),
            Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
            None,
        );
        for (name, profile) in lock_platforms() {
            let exact = final_bytes(
                &fps,
                profile,
                Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Exact)),
                None,
            );
            prop_assert_eq!(&span, &exact, "{} differs from span locking", name);
        }
        let rep = verify::check_mpi_atomicity(&span, &fps, &pattern::rank_stamps(P));
        prop_assert!(rep.is_atomic(), "{:?}", rep);
    }

    #[test]
    fn sieved_window_grants_match_span_sieving_byte_for_byte(
        fps in prop::collection::vec(arb_footprint(), P..=P)
    ) {
        // Atomic data sieving with exact window grants vs the span lock:
        // same read-modify-write serialization, byte for byte, with the
        // hole-rewriting windows in play.
        let sieve_cfg = |g| SieveConfig {
            buffer_size: 512,
            lock_granularity: g,
            ..SieveConfig::default()
        };
        let span = final_bytes(
            &fps,
            PlatformProfile::fast_test(),
            Atomicity::Atomic(Strategy::DataSieving),
            Some(sieve_cfg(LockGranularity::Span)),
        );
        for (name, profile) in lock_platforms() {
            let exact = final_bytes(
                &fps,
                profile,
                Atomicity::Atomic(Strategy::DataSieving),
                Some(sieve_cfg(LockGranularity::Exact)),
            );
            prop_assert_eq!(&span, &exact, "sieved {} differs from span", name);
        }
        let rep = verify::check_mpi_atomicity(&span, &fps, &pattern::rank_stamps(P));
        prop_assert!(rep.is_atomic(), "{:?}", rep);
    }
}

// ------------------------------------------------------- deadlock freedom

#[test]
fn random_concurrent_multi_range_acquirers_never_deadlock() {
    // Random multi-range (comb) requests from racing threads over sharded
    // domains, mixed shared/exclusive: every acquisition is all-or-nothing
    // under fair queueing, so no interleaving can deadlock. The threads
    // share one job table, which turns a deadlock into a panic at once,
    // failing the test.
    let sharded = PlatformProfile {
        lock_kind: LockKind::Sharded,
        sim_servers: 4,
        stripe_unit: 256,
        lock_grant_ns: 1_000,
        client_op_ns: 100,
        ..PlatformProfile::fast_test()
    };
    let m = Arc::new(LockManager::new("sharded", &sharded, None).unwrap());
    let threads = 8;
    let iters = 150;
    let job = Job::new(threads);
    let handles: Vec<_> = (0..threads)
        .map(|owner| {
            let m = Arc::clone(&m);
            let seat = job.seat(owner);
            std::thread::spawn(move || {
                // Per-thread deterministic pseudo-random stream (SplitMix64).
                let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(owner as u64 + 1);
                let mut next = move || {
                    state = state.wrapping_add(0x9E3779B97F4A7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^ (z >> 31)
                };
                for i in 0..iters {
                    let start = next() % 4096;
                    let len = 1 + next() % 512;
                    let stride = len + 1 + next() % 512;
                    let count = 1 + next() % 8;
                    let set = StridedSet::from_train(Train::new(start, len, stride, count));
                    let mode = if next() % 3 == 0 {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    seat.clock().advance_to(i);
                    let g = m.acquire_set(owner, &set, mode, seat.clock());
                    std::thread::yield_now();
                    m.release(g.id, g.granted_at + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(m.active(), 0, "every grant must have been released");
}

// ------------------------------------------------------ bounded lock state

#[test]
fn long_running_handle_lock_state_stays_bounded() {
    // Regression for the unbounded release-history growth: thousands of
    // independent locked writes through one handle must leave the lock
    // service holding no more than the distinct runs released (two ranks,
    // eight 16 B blocks each, all exclusive), on every architecture.
    for (name, profile) in lock_platforms() {
        let fs = FileSystem::new(profile);
        run(2, fs.profile().net.clone(), |comm| {
            let mut file = MpiFile::open(&comm, &fs, "bounded", OpenMode::ReadWrite).unwrap();
            file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
                LockGranularity::Exact,
            )))
            .unwrap();
            let ft = Datatype::vector(8, 16, 64, Datatype::byte()).unwrap();
            file.set_view(comm.rank() as u64 * 16, ft).unwrap();
            let buf = vec![pattern::stamp_byte(comm.rank()); 128];
            for _ in 0..800 {
                file.write_at(0, &buf).unwrap();
            }
            let hist = file.posix().lock_history_len();
            assert!(
                hist <= 2 * 8,
                "{name}: lock history grew to {hist} after 800 cycles"
            );
            file.close().unwrap();
        });
    }
}

// -------------------------------------------------- sharded grant accounting

#[test]
fn sharded_grants_account_shard_trips_and_tokens() {
    // fast_test: 4 servers, 4 KiB stripes. A 16 KiB write spans all 4
    // lock domains: one grant, four domain trips. On the token-over-shards
    // flavour, the second round is served from per-domain token caches.
    let profile = PlatformProfile {
        lock_kind: LockKind::Distributed,
        ..PlatformProfile::fast_test()
    }
    .with_sharded_locks();
    let fs = FileSystem::new(profile);
    run(1, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "acct", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        let buf = vec![7u8; 16 * 1024];
        file.write_at(0, &buf).unwrap();
        let s1 = file.posix().stats().snapshot();
        assert_eq!(s1.lock_acquires, 1);
        assert_eq!(s1.lock_shard_trips, 4, "one trip per touched domain");
        assert_eq!(s1.lock_token_hits, 0);

        file.write_at(0, &buf).unwrap();
        let s2 = file.posix().stats().snapshot();
        assert_eq!(s2.lock_acquires, 2);
        assert_eq!(
            s2.lock_shard_trips, 4,
            "second round: all domains served from cached tokens"
        );
        assert_eq!(s2.lock_token_hits, 1);
        file.close().unwrap();
    });
}
