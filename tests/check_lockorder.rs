//! Lock-order analysis end-to-end: the cycle detector's report is pinned
//! to a golden file, and a real lock-driven workload registers exactly the
//! documented class order — the ranked `lock_state → coherence registry →
//! cache` chain, as `crates/pfs/src/lockclass.rs` declares it —
//! with no cycle anywhere in the observed graph.

use atomio::check::lexer::{lex, TokKind};
use atomio::check::{global_edges, LockOrderGraph, Registry};
use atomio::prelude::*;

/// The ranked classes `crates/pfs/src/lockclass.rs` declares, read from
/// its `OrderedMutex::with_rank("class", rank, …)` tokens.
fn declared_chain() -> Vec<(String, u32)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/pfs/src/lockclass.rs");
    let toks = lex(&std::fs::read_to_string(path).expect("lockclass.rs readable"));
    toks.windows(7)
        .filter(|w| {
            w[0].is_ident("OrderedMutex")
                && w[1].is_punct("::")
                && w[2].is_ident("with_rank")
                && w[3].is_punct("(")
                && w[4].kind == TokKind::Str
                && w[6].kind == TokKind::Num
        })
        .map(|w| {
            let rank = w[6].text.parse().expect("numeric rank");
            (w[4].text.trim_matches('"').to_string(), rank)
        })
        .collect()
}

fn rank_of(chain: &[(String, u32)], class: &str) -> Option<u32> {
    chain.iter().find(|(c, _)| c == class).map(|&(_, r)| r)
}

/// Held by every workload run and across the export test's two reads, so
/// the process-wide registry cannot grow between them.
static REGISTRY_WRITERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Two clients on one lock-driven coherent file: exclusive grants whose
/// conflicting second phase forces a revocation flush of the rival's
/// write-behind, then shared grants over cached reads, then a sync.
fn run_lock_driven_workload(name: &str) {
    let _writer = REGISTRY_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    let profile = PlatformProfile {
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
    };
    let fs = FileSystem::new(profile);
    let mut handles = Vec::new();
    for client in 0..2usize {
        let fs = fs.clone();
        let name = name.to_string();
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, Clock::new(), &name);
            let r = ByteRange::at(client as u64 * 512, 1024);
            let g = f.lock(r, LockMode::Exclusive).unwrap();
            f.try_pwrite(r.start, &vec![client as u8 + 1; 1024])
                .unwrap();
            g.release();
            let g = f.lock(r, LockMode::Shared).unwrap();
            let mut buf = vec![0u8; 1024];
            f.try_pread(r.start, &mut buf).unwrap();
            g.release();
            f.try_sync().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// The declared pfs chain (DESIGN.md) is what `lockclass.rs` builds, with
/// exactly the documented ranks.
#[test]
fn declared_pfs_chain_is_in_the_class_table() {
    let expected: Vec<(String, u32)> = [
        ("pfs.lock_state", 10),
        ("pfs.coherence_registry", 12),
        ("pfs.cache", 20),
    ]
    .into_iter()
    .map(|(c, r)| (c.to_string(), r))
    .collect();
    assert_eq!(declared_chain(), expected);
}

/// A three-class cycle assembled directly: A→B and B→C commit, C→A must
/// be rejected with a report naming the whole chain. The text is pinned
/// (golden) because the `OrderedMutex` debug panic prints exactly this —
/// drift here is drift in what a deadlocking developer reads.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test check_lockorder golden`.
#[test]
fn golden_cycle_report_is_stable() {
    let mut g = LockOrderGraph::new();
    g.add_edge("pfs.lock_state", "pfs.cache", "lock.rs:10", "file.rs:20")
        .unwrap();
    g.add_edge("pfs.cache", "pfs.coverage", "file.rs:30", "file.rs:31")
        .unwrap();
    let cycle = g
        .add_edge("pfs.coverage", "pfs.lock_state", "file.rs:40", "lock.rs:50")
        .expect_err("closing edge must be rejected");
    let got = format!("{cycle}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/lock_cycle.expected"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write expected file");
        return;
    }
    let expected = std::fs::read_to_string(path).expect(
        "expected file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test check_lockorder golden",
    );
    assert_eq!(
        got, expected,
        "cycle report drifted from tests/golden/lock_cycle.expected; if intended, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Duplicate and non-closing edges must keep committing: only a cycle is
/// an error, and the graph keeps every committed edge queryable.
#[test]
fn non_cycles_commit_and_are_queryable() {
    let mut g = LockOrderGraph::new();
    g.add_edge("a", "b", "x:1", "x:2").unwrap();
    g.add_edge("a", "b", "y:1", "y:2").unwrap();
    g.add_edge("b", "c", "x:3", "x:4").unwrap();
    g.add_edge("a", "c", "x:5", "x:6").unwrap();
    assert!(g.has_edge("a", "b"));
    assert!(g.has_edge("b", "c"));
    assert!(g.has_edge("a", "c"));
    assert!(!g.has_edge("c", "a"));
    assert_eq!(g.edges().len(), 3, "duplicate edge must not re-register");
}

/// Run a real lock-driven coherent workload (grants, revocation flushes,
/// cached I/O) and inspect the *runtime* lock-order graph the
/// `OrderedMutex` instrumentation accumulated: the documented pfs chain
/// must appear, and nothing in the whole observed graph may close a
/// cycle (`add_edge` would have panicked the workload otherwise —
/// this asserts the order is also the one DESIGN.md documents).
/// Debug builds only: release builds compile the tracking out.
#[test]
fn pfs_runtime_lock_order_matches_documented_chain() {
    run_lock_driven_workload("order");

    // Release builds compile the tracking out (empty graph): assert only
    // where the instrumentation is live.
    if cfg!(debug_assertions) {
        let edges = global_edges();
        let saw = |from: &str, to: &str| edges.iter().any(|e| e.from == from && e.to == to);
        // The conflicting second-phase acquisitions force a revocation:
        // manager state → coherence registry, then manager state →
        // holder cache (coverage lives in the cache).
        assert!(
            saw("pfs.lock_state", "pfs.coherence_registry"),
            "no grant-coverage dispatch under the state mutex; edges: {edges:?}"
        );
        assert!(
            saw("pfs.lock_state", "pfs.cache"),
            "no coverage grant into the holder's cache under the state mutex; \
             edges: {edges:?}"
        );
        // And the documented global order is acyclic: no observed edge
        // reverses another.
        for e in &edges {
            assert!(
                !saw(e.to, e.from),
                "observed both {}→{} and its reverse — ordering discipline broken",
                e.from,
                e.to
            );
        }
    }
}

/// Every edge the lock-driven workload discovers between two ranked
/// classes climbs the chain `lockclass.rs` declares. Debug builds only.
#[test]
fn runtime_edges_climb_the_declared_chain() {
    run_lock_driven_workload("climb");
    if cfg!(debug_assertions) {
        let chain = declared_chain();
        let edges = global_edges();
        assert!(!edges.is_empty(), "no runtime edges: instrumentation dead?");
        for e in &edges {
            if let (Some(rf), Some(rt)) = (rank_of(&chain, e.from), rank_of(&chain, e.to)) {
                assert!(
                    rf < rt,
                    "runtime edge {} ({rf}) -> {} ({rt}) descends the chain",
                    e.from,
                    e.to
                );
            }
        }
    }
}

/// `Registry::export_json` is deterministic, sorted and site-free, and
/// every exported edge between two ranked classes goes up in rank.
#[test]
fn registry_export_is_deterministic_and_rank_monotone() {
    // Whatever edges this test binary's workloads registered (the registry
    // is process-wide); determinism must hold regardless.
    let (a, b) = {
        let _no_writer = REGISTRY_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
        (Registry::export_json(), Registry::export_json())
    };
    assert_eq!(a, b, "export must be byte-stable within a process");
    atomio::trace::validate_json(&a).unwrap();
    let chain = declared_chain();
    for e in Registry::edges() {
        if let (Some(rf), Some(rt)) = (rank_of(&chain, e.from), rank_of(&chain, e.to)) {
            assert!(
                rf < rt,
                "registry edge {} ({rf}) -> {} ({rt}) descends the chain",
                e.from,
                e.to
            );
        }
    }
}
