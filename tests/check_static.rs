//! The static concurrency analyzer end-to-end: the whole-workspace
//! lock-order graph is pinned to golden fixtures (JSON + DOT), proved
//! acyclic and rank-respecting, and cross-validated against the *runtime*
//! graph — every edge a real two-phase lock-driven workload discovers via
//! the `OrderedMutex` instrumentation must also be derived statically
//! (the static graph over-approximates every schedule).
//!
//! Regenerate the fixtures with
//! `UPDATE_GOLDEN=1 cargo test --test check_static golden`.

use atomio::check::{analyze_workspace, Registry, StaticAnalysis};
use atomio::prelude::*;
use std::path::Path;

fn workspace() -> StaticAnalysis {
    analyze_workspace(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace sources")
}

fn check_golden(got: &str, rel: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{rel} missing — regenerate with UPDATE_GOLDEN=1 cargo test --test check_static golden"
        )
    });
    assert_eq!(
        got, expected,
        "static report drifted from {rel}; if the lock discipline change \
         is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The JSON report is byte-stable: same sources → same bytes, pinned to
/// the checked-in fixture CI compares against.
#[test]
fn golden_static_report_json_is_stable() {
    check_golden(
        &workspace().report_json(),
        "tests/golden/static_report.json",
    );
}

/// Same for the Graphviz rendering (uploaded as a CI artifact).
#[test]
fn golden_static_report_dot_is_stable() {
    check_golden(&workspace().report_dot(), "tests/golden/static_report.dot");
}

/// The analyzer itself is deterministic: two independent scans of the
/// same tree produce identical reports.
#[test]
fn workspace_analysis_is_deterministic() {
    assert_eq!(workspace().report_json(), workspace().report_json());
}

/// R6 over the real workspace: no static cycle, no declared-rank
/// inversion, anywhere. (`check_workspace` filters through the allowlist;
/// this asserts the *raw* analysis is clean, so no R6 finding can ever be
/// silenced by an allow entry.)
#[test]
fn workspace_static_graph_is_acyclic_and_rank_respecting() {
    let a = workspace();
    let r6: Vec<_> = a.diags.iter().filter(|d| d.rule == "R6").collect();
    assert!(r6.is_empty(), "R6 findings in the workspace: {r6:?}");
    // Belt and braces: re-derive the rank check from the report itself.
    for e in &a.edges {
        if let (Some(Some(rf)), Some(Some(rt))) = (a.classes.get(&e.from), a.classes.get(&e.to)) {
            assert!(
                rf < rt,
                "edge {} (rank {rf}) -> {} (rank {rt}) inverts the declared chain",
                e.from,
                e.to
            );
        }
    }
}

/// The declared pfs chain (DESIGN.md) is present in the class table with
/// exactly the documented ranks.
#[test]
fn declared_pfs_chain_is_in_the_class_table() {
    let a = workspace();
    for (class, rank) in [
        ("pfs.lock_state", 10),
        ("pfs.coherence_faults", 11),
        ("pfs.coherence_registry", 12),
        ("pfs.cache", 20),
        ("pfs.coverage", 22),
    ] {
        assert_eq!(
            a.classes.get(class),
            Some(&Some(rank)),
            "class {class} missing or re-ranked"
        );
    }
}

/// Drive the same two-phase lock-driven workload the runtime lock-order
/// test uses (grants, a forced revocation flush, cached I/O), then check
/// the static graph is a superset of every runtime-discovered edge.
/// Debug builds only: release builds compile the runtime tracking out.
#[test]
fn static_graph_covers_runtime_discovered_edges() {
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
            let f = fs.open(client, Clock::new(), "static-x-check");
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

    if cfg!(debug_assertions) {
        let runtime = Registry::edges();
        assert!(
            !runtime.is_empty(),
            "workload discovered no runtime edges — instrumentation dead?"
        );
        let missing = workspace().missing_runtime_edges(&runtime);
        assert!(
            missing.is_empty(),
            "runtime-discovered edges the static analyzer missed: {missing:?}"
        );
    }
}

/// `Registry::export_json` (satellite of the same PR): deterministic,
/// sorted, site-free, and consistent with the declared chain — every
/// exported edge between two *ranked* classes goes up in rank.
#[test]
fn registry_export_is_deterministic_and_rank_monotone() {
    // Reuse whatever edges this test binary's workloads registered (the
    // registry is process-wide); determinism must hold regardless.
    let a = Registry::export_json();
    let b = Registry::export_json();
    assert_eq!(a, b, "export must be byte-stable within a process");
    let ranks = [
        ("pfs.lock_state", 10u32),
        ("pfs.coherence_faults", 11),
        ("pfs.coherence_registry", 12),
        ("pfs.cache", 20),
        ("pfs.coverage", 22),
    ];
    let rank_of = |c: &str| ranks.iter().find(|(n, _)| *n == c).map(|(_, r)| *r);
    for e in Registry::edges() {
        if let (Some(rf), Some(rt)) = (rank_of(e.from), rank_of(e.to)) {
            assert!(
                rf < rt,
                "runtime edge {} (rank {rf}) -> {} (rank {rt}) breaks the DESIGN.md chain",
                e.from,
                e.to
            );
        }
    }
}
