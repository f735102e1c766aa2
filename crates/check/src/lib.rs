//! `atomio-check` — the correctness-analysis layer.
//!
//! Three engines, one goal: make the atomicity guarantees the rest of
//! the workspace *claims* (paper §2.1 torn-write freedom, PR 5's
//! revocation visibility contract, the documented state → registry →
//! cache lock order) mechanically checkable.
//!
//! * [`hb`] — a vector-clock happens-before detector over recorded
//!   [`atomio_trace`] event streams: reports conflicting overlapping
//!   byte accesses with no grant-release→acquire, revocation-flush, or
//!   collective edge between them.
//! * [`lockorder`] — [`OrderedMutex`], a drop-in mutex wrapper that
//!   feeds a global runtime lock-order graph with cycle detection, and
//!   [`assert_may_wait`], which rejects a lock held where a thread waits
//!   for another (debug/test builds only; release builds compile both to
//!   a plain mutex and nothing).
//! * [`lint`] — the `lintcheck` source gate over [`lexer`] tokens: R1–R3
//!   (no `unwrap`/`expect` on fault-reachable paths, no bare `Mutex` in
//!   pfs, no unjustified `Ordering::Relaxed`), R5 (no silently dropped
//!   `Result`) and stale-allowlist detection.

pub mod hb;
pub mod lexer;
pub mod lint;
pub mod lockorder;

pub use hb::{check_chrome_json, check_events, write_accesses, AccessSite, Finding, HbReport};
pub use lint::{
    check_workspace, lint_source, parse_allowlist, workspace_sources, AllowEntry, LintDiag,
    WorkspaceReport,
};
pub use lockorder::{
    assert_may_wait, global_edges, CycleReport, LockEdge, LockOrderGraph, OrderedMutex,
    OrderedMutexGuard, Registry,
};
