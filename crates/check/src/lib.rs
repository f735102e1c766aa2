//! `atomio-check` — the correctness-analysis layer.
//!
//! Two engines, one goal: make the atomicity guarantees the rest of
//! the workspace *claims* (paper §2.1 torn-write freedom, PR 5's
//! revocation visibility contract, the declared `atomio-pfs` lock order)
//! mechanically checkable.
//!
//! * `hb` ([`check_events`], [`check_chrome_json`]) — a vector-clock
//!   happens-before detector over recorded
//!   [`atomio_trace`] event streams: reports conflicting overlapping
//!   byte accesses with no grant-release→acquire, revocation-flush, or
//!   collective edge between them.
//! * `lockorder` — [`OrderedMutex`], a drop-in mutex wrapper whose
//!   every class carries a declared rank that a thread may only climb,
//!   and [`assert_may_wait`], which rejects a lock held where a thread
//!   waits for another (debug/test builds only; release builds compile
//!   both to a plain mutex and nothing).
//!
//! [`lexer`] tokenises Rust source for the repo's token guards. The
//! source rules themselves are compiler lint levels: see the workspace
//! `Cargo.toml` and `crates/pfs/clippy.toml`.

mod hb;
pub mod lexer;
mod lockorder;

pub use hb::{accesses, check_chrome_json, check_events, AccessSite, Finding, HbReport};
pub use lockorder::{assert_may_wait, OrderedMutex, OrderedMutexGuard};
