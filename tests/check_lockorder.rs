//! Lock-order analysis end-to-end: the cycle detector's report is pinned
//! to a golden file, and a real lock-driven workload registers exactly the
//! documented class order — the ranked `lock_state → coherence registry →
//! cache → coverage` chain — with no cycle anywhere in the observed graph.

use atomio::check::{global_edges, LockOrderGraph};
use atomio::prelude::*;

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
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, Clock::new(), "order");
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
    drop(fs);

    // Release builds compile the tracking out (empty graph): assert only
    // where the instrumentation is live.
    if cfg!(debug_assertions) {
        let edges = global_edges();
        let saw = |from: &str, to: &str| edges.iter().any(|e| e.from == from && e.to == to);
        // The conflicting second-phase acquisitions force a revocation:
        // manager state → coherence registry → holder cache → coverage.
        assert!(
            saw("pfs.lock_state", "pfs.coherence_registry"),
            "no grant-coverage dispatch under the state mutex; edges: {edges:?}"
        );
        assert!(
            saw("pfs.cache", "pfs.coverage"),
            "no cache→coverage nesting observed; edges: {edges:?}"
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
