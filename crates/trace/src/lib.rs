//! Structured virtual-time tracing for the atomio simulator.
//!
//! The simulator's end-of-run counters say *how much* work happened; this
//! crate records *when*. Every subsystem that advances a virtual clock —
//! collectives, lock grants, token revocations, cache fills, server service
//! — can emit typed [`TraceEvent`]s through a per-rank [`Tracer`], stamped
//! with the owning track ([`Track::Rank`] or [`Track::Server`]) and virtual
//! nanoseconds. Three pieces:
//!
//! * **[`Tracer`] + [`TraceSink`]** — a late-binding recorder handle.
//!   Subsystems hold a cloned `Tracer` from construction; it stays disabled
//!   (one relaxed atomic load per emission attempt, no allocation, no lock)
//!   until a harness binds a sink, so the instrumented hot paths cost
//!   nothing in ordinary runs.
//! * **[`LatencyHistogram`]** — lock-free log₂-bucketed histograms with
//!   p50/p90/p99 accessors, the source of tail-latency numbers (grant wait,
//!   revocation-flush time, per-server service time) that single-sum
//!   counters like `lock_wait_ns` cannot provide.
//! * **[`export_chrome`]** — a Chrome-trace-event JSON exporter: any bench
//!   or `figure8` run can dump a timeline loadable in Perfetto
//!   (<https://ui.perfetto.dev>), one row per rank and per I/O server.
//!
//! [`json`] is the workspace's one JSON module — the [`json::Value`] bench
//! artifacts are built from and printed through, and the strict parser
//! behind [`validate_json`] / [`validate_chrome_trace`], `tracecheck` and
//! the happens-before checker's trace import.

mod chrome;
mod histogram;
pub mod json;
mod sink;
mod tracer;

pub use chrome::export_chrome;
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use json::{validate_chrome_trace, validate_json};
pub use sink::{MemorySink, NoopSink, TraceSink};
pub use tracer::{Category, TraceEvent, Tracer, Track};
