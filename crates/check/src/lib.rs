//! `atomio-check` — the correctness-analysis layer.
//!
//! Three engines, one goal: make the atomicity guarantees the rest of
//! the workspace *claims* (paper §2.1 torn-write freedom, PR 5's
//! revocation visibility contract, the documented cache → coverage lock
//! order) mechanically checkable.
//!
//! * [`hb`] — a vector-clock happens-before detector over recorded
//!   [`atomio_trace`] event streams: reports conflicting overlapping
//!   byte accesses with no grant-release→acquire, revocation-flush, or
//!   collective edge between them.
//! * [`lockorder`] — [`OrderedMutex`], a drop-in mutex wrapper that
//!   feeds a global runtime lock-order graph with cycle detection
//!   (debug/test builds only; release builds compile to a plain mutex).
//! * [`lint`] — the `lintcheck` source gate: token-level rules R1–R3
//!   (no `unwrap`/`expect` on fault-reachable paths, no bare `Mutex` in
//!   pfs, no unjustified `Ordering::Relaxed`) plus stale-allowlist
//!   detection.
//! * [`lexer`] / [`scopes`] / [`lockgraph`] — the static concurrency
//!   analyzer: a dependency-free token-level Rust lexer, guard-lifetime
//!   inference, and the R4–R6 analyses (guard held across a blocking
//!   call; silently dropped fault-path `Result`s; a statically extracted
//!   lock-order graph checked for acyclicity, rank respect, and
//!   runtime-edge coverage).

pub mod hb;
pub mod lexer;
pub mod lint;
pub mod lockgraph;
pub mod lockorder;
pub mod scopes;

pub use hb::{check_chrome_json, check_events, write_accesses, AccessSite, Finding, HbReport};
pub use lint::{
    check_workspace, lint_source, lint_workspace, parse_allowlist, workspace_sources, AllowEntry,
    LintDiag, WorkspaceReport,
};
pub use lockgraph::{
    analyze_sources, analyze_workspace, StaticAnalysis, StaticEdge, BLOCKING_SEEDS,
};
pub use lockorder::{
    global_edges, CycleReport, LockEdge, LockOrderGraph, OrderedMutex, OrderedMutexGuard, Registry,
};

use atomio_trace::json::Value;

/// A top-level member `"key": [...]` of the lock-graph reports, one
/// object per line (the layout `tests/golden/static_report.json` pins).
fn json_list(key: &str, rows: impl IntoIterator<Item = Value>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
    let mut s = format!("  {}: [\n", Value::from(key));
    if !rows.is_empty() {
        s += &rows.join(",\n");
        s.push('\n');
    }
    s + "  ]"
}
