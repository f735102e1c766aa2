//! End-to-end happens-before race detection (`atomio-check`): the
//! vector-clock checker must stay silent on coherently locked schedules —
//! including fault-injected ones — and must flag the paper's §2.1 hazard
//! (unlocked read-modify-write sieving) from the trace alone, whether or
//! not the particular interleaving happened to tear bytes.

use std::sync::{Arc, Mutex};

mod common;

use atomio::check::{accesses, check_chrome_json, check_events};
use atomio::prelude::*;
use atomio::vtime::Job;
use atomio::vtime::MemCost;

/// The `lock_coherence.rs` platform: GPFS-style distributed tokens with
/// lock-driven coherence. (The `ShardedTokens` variant is deliberately
/// *not* used here: its shared-mode grants revoke in-use tokens without
/// conflict-waiting, so its schedules are happens-before-racy by design
/// and only the cache-mutex coherence point keeps them correct — see
/// DESIGN.md "Correctness tooling".)
fn gpfs_coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence: CoherenceMode::LockDriven,
        cache: CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// Tiny deterministic PRNG (xorshift) — same schedule shape every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The randomized revocation stress of `lock_coherence.rs` /
/// `fault_recovery.rs`, traced: concurrent overlapping readers and
/// writers, every access under a byte-range lock covering exactly its
/// footprint. Returns the recorded event stream.
fn traced_locked_stress(fs: &FileSystem, iters: usize) -> Arc<MemorySink> {
    const FILE: u64 = 64 * 1024;
    let sink = Arc::new(MemorySink::new());
    fs.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let floor = Arc::new(Mutex::new(vec![0u8; FILE as usize]));

    let mut handles = Vec::new();
    let job = Job::new(4);
    for client in 0..4usize {
        let fs = fs.clone();
        let seat = job.seat(client);
        let floor = Arc::clone(&floor);
        let sink = Arc::clone(&sink);
        let writer = client < 2;
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, seat.clock().clone(), "stress");
            f.tracer()
                .bind(Track::Rank(client), sink as Arc<dyn TraceSink>);
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (client as u64 + 1));
            for _ in 0..iters {
                let len = 1 + rng.below(4096);
                let off = rng.below(FILE - len);
                let range = ByteRange::at(off, len);
                if writer {
                    let guard = f.lock(range, LockMode::Exclusive).unwrap();
                    let v = {
                        let fl = floor.lock().unwrap();
                        fl[off as usize..(off + len) as usize]
                            .iter()
                            .copied()
                            .max()
                            .unwrap()
                            + 1
                    };
                    f.write(IoPath::Cached, [(off, &vec![v; len as usize])])
                        .unwrap();
                    floor.lock().unwrap()[off as usize..(off + len) as usize].fill(v);
                    guard.release();
                } else {
                    let guard = f.lock(range, LockMode::Shared).unwrap();
                    let mut buf = vec![0u8; len as usize];
                    f.read(IoPath::Cached, [(off, &mut buf)]).unwrap();
                    guard.release();
                }
            }
            f.try_sync().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    sink
}

/// Acceptance: zero findings on the coherently locked stress schedule —
/// every conflicting access pair is ordered by a grant-release edge (or a
/// revocation-flush edge), whatever the real-time interleaving was.
#[test]
fn locked_stress_has_no_unordered_conflicts() {
    let fs = FileSystem::new(gpfs_coherent_profile());
    let sink = traced_locked_stress(&fs, 60);
    let report = check_events(&sink.snapshot());
    assert!(
        report.findings.is_empty(),
        "locked coherent stress must be race-free:\n{report}"
    );
    assert!(
        report.accesses > 0 && report.sync_joins > 0,
        "checker saw no work (accesses={}, joins={}) — instrumentation regressed",
        report.accesses,
        report.sync_joins
    );
}

/// The same schedule under a seeded fault plan (server crashes mid-flush,
/// torn journal appends, dropped/delayed revocations): faults cost virtual
/// time, never ordering — the trace must still check clean.
#[test]
fn seeded_faulted_stress_has_no_unordered_conflicts() {
    let plan = FaultPlan::seeded(0xFA0171, gpfs_coherent_profile().sim_servers, 4, 12);
    let fs = FileSystem::with_faults(gpfs_coherent_profile(), plan);
    let sink = traced_locked_stress(&fs, 60);
    let report = check_events(&sink.snapshot());
    assert!(
        report.findings.is_empty(),
        "faulted locked stress must be race-free:\n{report}"
    );
}

/// Acceptance: the §2.1 hazard is *detected*. Two independent writers
/// sieve overlapping windows with no locks (the ENFS platform ROMIO
/// refuses to sieve writes on): each RMW reads its window and writes the
/// whole window back, so the write-backs conflict on the hole bytes and
/// nothing orders them. The checker must flag it from the schedule alone
/// — on every run, torn bytes or not.
#[test]
fn unlocked_sieved_rmw_is_flagged() {
    let w = IndependentStrided::new(2, 64, 64, 256, 0).unwrap();
    let fs = FileSystem::new(PlatformProfile::cplant());
    let sink = Arc::new(MemorySink::new());
    fs.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
    {
        let sink = Arc::clone(&sink);
        run(w.p, fs.profile().net.clone(), move |comm| {
            comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
            let buf = w.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "torn", OpenMode::ReadWrite).unwrap();
            file.set_view(w.disp(comm.rank()), w.filetype()).unwrap();
            file.set_sieve_config(SieveConfig {
                buffer_size: 2 * 1024,
                ..SieveConfig::default()
            });
            comm.barrier();
            file.write_at_sieved(0, &buf).unwrap();
            file.close().unwrap();
        });
    }
    let report = check_events(&sink.snapshot());
    assert!(
        !report.findings.is_empty(),
        "unlocked sieved RMW produced no findings — the detector is blind to §2.1"
    );
    // Every finding must involve a write (read-read pairs never conflict)
    // and two distinct ranks.
    for f in &report.findings {
        assert_ne!(f.a.rank, f.b.rank, "finding within one rank: {f}");
    }
}

/// One traced collective write of a column-wise partitioning of `rows`
/// rows over 4 ranks under `atomicity`, with 4 ghost columns (neighbours
/// share bytes in every row). A locked write is read back under the
/// shared lock.
fn traced_colwise_write(rows: u64, atomicity: Atomicity) -> (ColWise, Arc<MemorySink>) {
    traced_colwise_write_on(PlatformProfile::fast_test(), rows, atomicity)
}

fn traced_colwise_write_on(
    profile: PlatformProfile,
    rows: u64,
    atomicity: Atomicity,
) -> (ColWise, Arc<MemorySink>) {
    const P: usize = 4;
    let spec = ColWise::new(rows, 64 * P as u64, P, 4).expect("valid geometry");
    let fs = FileSystem::new(profile);
    let sink = Arc::new(MemorySink::new());
    fs.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
    {
        let sink = Arc::clone(&sink);
        run(P, fs.profile().net.clone(), move |comm| {
            comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "colwise", OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_atomicity(atomicity).unwrap();
            comm.barrier();
            file.write_at_all(0, &buf).unwrap();
            if let Atomicity::Atomic(Strategy::FileLocking(_)) = atomicity {
                let mut back = vec![0u8; buf.len()];
                file.read_at_all(0, &mut back).unwrap();
            }
            file.close().unwrap();
        });
    }
    (spec, sink)
}

/// The locked data path must stay *visible* to the checker: a clean
/// verdict on a span-locked overlapping write only means something if the
/// checker saw every rank's bytes being written. (A locked write path that
/// emits no access event checks just as clean — it races with nothing.)
#[test]
fn locked_colwise_write_is_seen_whole_and_race_free() {
    for (rows, granularity) in [
        (16, LockGranularity::Span),
        // More rows than a sync event's footprint carries: the lock events
        // degrade to their bounding box, the write accesses must not.
        (48, LockGranularity::Exact),
    ] {
        locked_colwise_write_checks_clean(rows, granularity);
    }
}

fn locked_colwise_write_checks_clean(rows: u64, granularity: LockGranularity) {
    let (spec, sink) =
        traced_colwise_write(rows, Atomicity::Atomic(Strategy::FileLocking(granularity)));
    let events = sink.snapshot();
    let seen = accesses(&events);
    for (rank, view) in spec.all_views().iter().enumerate() {
        let want: Vec<(u64, u64)> = view.iter().map(|r| (r.start, r.len())).collect();
        for (write, verb) in [(true, "wrote"), (false, "read back")] {
            let got: Vec<(u64, u64)> = seen
                .iter()
                .filter(|(r, _, w)| (*r, *w) == (rank, write))
                .flat_map(|(_, fp, _)| fp.iter().copied())
                .collect();
            assert_eq!(
                got, want,
                "{granularity:?}, rank {rank}: the checker must see exactly the bytes it {verb}"
            );
        }
    }
    let report = check_events(&events);
    assert!(
        report.findings.is_empty(),
        "{granularity:?}-locked overlapping write must be race-free:\n{report}"
    );
    assert!(report.sync_joins > 0, "no grant-release edge was drawn");
    // The same trace through the export → import path `tracecheck --hb` runs.
    let imported = check_chrome_json(&sink.export_chrome()).expect("exported trace must parse");
    assert!(
        imported.findings.is_empty(),
        "{granularity:?}-locked trace must check clean after export:\n{imported}"
    );
    assert_eq!(imported.accesses, report.accesses);
}

/// Graph coloring on the schedule that holds back only the contested
/// bytes (clients slow enough that `held_bytes` picks it): the odd ranks'
/// free columns leave in phase 0, next to their even neighbours' whole
/// rows, and only their ghost columns wait for phase 1. Every conflicting
/// pair must still be ordered by a phase barrier, and the checker must
/// have seen every byte of every rank, in two batches for the odd ones.
#[test]
fn split_coloring_write_is_seen_whole_and_race_free() {
    let client_bound = PlatformProfile {
        client_link: atomio::vtime::LinkCost::new(1_000, 1.0e6),
        ..PlatformProfile::fast_test()
    };
    let (spec, sink) =
        traced_colwise_write_on(client_bound, 16, Atomicity::Atomic(Strategy::GraphColoring));
    let events = sink.snapshot();
    let writes = accesses(&events);
    for (rank, view) in spec.all_views().iter().enumerate() {
        let batches: Vec<_> = writes.iter().filter(|(r, _, w)| *r == rank && *w).collect();
        assert_eq!(
            batches.len(),
            1 + rank % 2,
            "rank {rank}: free and held batches"
        );
        let pieces = batches.iter().flat_map(|(_, fp, _)| fp.iter());
        let seen = common::merged_runs(pieces.map(|&(off, len)| ByteRange::at(off, len)));
        assert_eq!(
            seen,
            view.iter().collect::<Vec<_>>(),
            "rank {rank}: the checker must see what it wrote"
        );
    }
    let report = check_events(&events);
    assert!(
        report.findings.is_empty(),
        "held-bytes coloring must be race-free:\n{report}"
    );
    assert!(report.sync_joins > 0, "no phase barrier edge was drawn");
}

/// Independent locked writes that all land on one server under the
/// sharded preset: every grant rides its data request (no trip sent), yet
/// each conflicting pair must still be ordered by a release → grant edge,
/// and every overlapped byte must end up with one writer's stamp.
#[test]
fn ridden_sharded_grants_order_overlapping_writers() {
    const P: usize = 4;
    const LEN: u64 = 1536;
    // Rank r writes [512 r, 512 r + 1536): neighbours and next-neighbours
    // overlap, and everything sits in the first 4 KiB stripe, server 0.
    let views: Vec<StridedSet> = (0..P)
        .map(|r| StridedSet::from_range(ByteRange::at(512 * r as u64, LEN)))
        .collect();
    let fs = FileSystem::new(PlatformProfile::fast_test().with_sharded_locks());
    let sink = Arc::new(MemorySink::new());
    fs.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let stats = run(P, fs.profile().net.clone(), |comm| {
        comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let mut file = MpiFile::open(&comm, &fs, "ridden", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        let buf = vec![pattern::stamp_byte(comm.rank()); LEN as usize];
        file.write_at(512 * comm.rank() as u64, &buf).unwrap();
        file.close().unwrap().stats
    });
    for (rank, s) in stats.iter().enumerate() {
        assert_eq!(
            (s.lock_acquires, s.lock_shard_trips),
            (1, 0),
            "rank {rank}: a one-server grant rides its request"
        );
    }
    let events = sink.snapshot();
    let report = check_events(&events);
    assert!(
        report.findings.is_empty(),
        "ridden grants must still order conflicting writers:\n{report}"
    );
    assert!(report.sync_joins > 0, "no grant-release edge was drawn");
    let writes = accesses(&events).into_iter().filter(|(_, _, w)| *w);
    assert_eq!(writes.count(), P, "every write is seen");
    let image = fs.snapshot("ridden").expect("file written");
    let check = verify::check_mpi_atomicity(&image, &views, &pattern::rank_stamps(P));
    assert!(check.is_atomic(), "{check:?}");
}

/// The same overlapping writes with atomicity off are the paper's
/// Figure 2: nothing orders neighbours' shared columns, and the checker
/// must say so.
#[test]
fn nonatomic_colwise_write_is_reported_as_a_race() {
    let (_, sink) = traced_colwise_write(16, Atomicity::NonAtomic);
    let report = check_events(&sink.snapshot());
    assert!(
        !report.findings.is_empty(),
        "overlapping non-atomic writes produced no findings"
    );
    for f in &report.findings {
        assert_ne!(f.a.rank, f.b.rank, "finding within one rank: {f}");
    }
}

/// Golden fixture: a hand-authored Chrome trace of the unlocked-RMW shape
/// (two ranks, overlapping direct read/write spans, no sync events) must
/// produce byte-for-byte the expected findings. Pins the import path, the
/// footprint decoding, the race test, and the report format all at once.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test check_hb golden`.
#[test]
fn golden_unlocked_rmw_fixture_findings_are_stable() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let trace = std::fs::read_to_string(format!("{dir}/hb_unlocked_rmw.json"))
        .expect("fixture tests/golden/hb_unlocked_rmw.json missing");
    let report = check_chrome_json(&trace).expect("fixture must parse");
    let got = format!("{report}\n");

    let expected_path = format!("{dir}/hb_unlocked_rmw.expected");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &got).expect("write expected file");
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).expect(
        "expected file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test check_hb golden",
    );
    assert_eq!(
        got, expected,
        "findings drifted from tests/golden/hb_unlocked_rmw.expected; if intended, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Write-behind depth of [`traced_pipelined_two_phase`]: double-buffered.
const PIPE_DEPTH: u32 = 2;

/// A deterministic traced run of the pipelined multi-tier two-phase
/// schedule: 8 ranks on 2 nodes, overlapping halo footprints, 1-stripe
/// rounds (one stripe row of each domain) with double-buffered
/// write-behind, and a cross-node direct read per rank afterwards that only
/// the collective's closing barrier orders. Returns the rounds each rank
/// ran.
fn traced_pipelined_two_phase(sink: &Arc<MemorySink>) -> Vec<usize> {
    use atomio::collective::two_phase_write;
    use atomio::dtype::ViewSegment;

    const P: usize = 8;
    const BLOCK: u64 = 16 * 1024;
    let fs = FileSystem::new(PlatformProfile::fast_test());
    fs.bind_tracer(Arc::clone(sink) as Arc<dyn TraceSink>);
    let sink = Arc::clone(sink);
    run(P, fs.profile().net.clone(), move |comm| {
        comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let file = fs.open(comm.rank(), comm.clock().clone(), "hb_pipe");
        file.tracer().bind(
            Track::Rank(comm.rank()),
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        let start = (comm.rank() as u64 * BLOCK).saturating_sub(BLOCK / 2);
        let end = ((comm.rank() as u64 + 1) * BLOCK + BLOCK / 2).min(P as u64 * BLOCK);
        let segs = vec![ViewSegment {
            file_off: start,
            logical_off: 0,
            len: end - start,
        }];
        let buf = vec![(comm.rank() + 1) as u8; (end - start) as usize];
        let cfg = TwoPhaseConfig {
            aggregators: None,
            ranks_per_node: 4,
            schedule: ExchangeSchedule::Pipelined {
                round_stripes: 1,
                depth: PIPE_DEPTH,
            },
        };
        let report = two_phase_write(&comm, &file, &segs, &buf, 0, &cfg);
        // Read the block diagonally opposite: it was written by the other
        // node's aggregator, so only the collective's final barrier edge
        // (through the per-group collective machinery) orders this read
        // after that write. Turn-based so server-queue contention — which
        // depends on real thread arrival order — can't perturb the export.
        for turn in 0..P {
            comm.barrier();
            if comm.rank() == turn {
                let mut back = vec![0u8; BLOCK as usize];
                file.read(
                    IoPath::Direct,
                    [(((comm.rank() + P / 2) % P) as u64 * BLOCK, &mut back)],
                )
                .unwrap();
            }
        }
        report.rounds
    })
}

/// Acceptance: one pipelined multi-tier schedule, checked race-free from
/// its trace. Leaders emit many more sub-communicator collectives (node
/// gathers, leader exchanges, the drain barrier) than plain ranks, so
/// this is exactly the shape that misaligns a global collective counter —
/// the per-member-list groups must keep the world barrier paired up and
/// the cross-node reads ordered.
#[test]
fn pipelined_schedule_trace_is_race_free() {
    let sink = Arc::new(MemorySink::new());
    traced_pipelined_two_phase(&sink);
    let report = check_events(&sink.snapshot());
    assert!(
        report.findings.is_empty(),
        "pipelined multi-tier schedule must be race-free:\n{report}"
    );
    assert!(
        report.accesses > 0 && report.sync_joins > 0,
        "checker saw no work (accesses={}, joins={})",
        report.accesses,
        report.sync_joins
    );
}

/// Golden fixture: the Chrome export of the pipelined run is byte-stable
/// and checks clean through the import path (the one `tracecheck --hb`
/// runs), and it runs more rounds than its write-behind
/// depth, so the trace retires a round on a later round's exchange.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test check_hb golden`.
#[test]
fn golden_pipeline_trace_is_stable_and_clean() {
    let export = || {
        let sink = Arc::new(MemorySink::new());
        let rounds = traced_pipelined_two_phase(&sink);
        assert!(
            rounds.iter().all(|&r| r > PIPE_DEPTH as usize),
            "{rounds:?} rounds retire nothing before the drain at depth {PIPE_DEPTH}"
        );
        sink.export_chrome()
    };
    let a = export();
    assert_eq!(a, export(), "pipelined run must export deterministically");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/hb_pipeline.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &a).expect("write golden file");
    } else {
        let golden = std::fs::read_to_string(path).expect(
            "golden file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test check_hb golden",
        );
        assert_eq!(
            a, golden,
            "pipelined trace export drifted from tests/golden/hb_pipeline.json; if intended, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }

    let report = check_chrome_json(&a).expect("golden pipelined trace must parse");
    assert!(
        report.findings.is_empty(),
        "golden pipelined trace must be race-free:\n{report}"
    );
    assert!(report.accesses > 0, "import path dropped all accesses");
}

/// The golden `small_trace.json` export (a fully locked, turn-based,
/// barrier-separated schedule) must check clean through the Chrome-JSON
/// import path — the same invocation `tracecheck --hb` runs.
#[test]
fn golden_small_trace_checks_clean() {
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/small_trace.json"
    ))
    .expect("golden small_trace.json missing");
    let report = check_chrome_json(&trace).expect("golden trace must parse");
    assert!(
        report.findings.is_empty(),
        "golden locked trace must be race-free:\n{report}"
    );
    assert!(report.accesses > 0, "import path dropped all accesses");
}
