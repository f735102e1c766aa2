//! One benchmark run of one workload: set-up, the timed closed loop, and —
//! for a traced run — a second loop with the program's tracer and the
//! benchmark's spans on, one counted iteration, then the probes. End-to-end
//! metrics come only from the set-up and the untraced loop of an untraced
//! run; host time is a per-layer metric (the README says why).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atomio_collective::TwoPhaseReport;
use atomio_pfs::StatsSnapshot;
use atomio_trace::{Category, MemorySink, TraceEvent};

use crate::catalog::{catalog, MetricDef, MetricSet};
use crate::host::{count_allocations, median, peak_rss_kib, spread_ratio, tail};
use crate::probes;
use crate::spans::{self, Breakdown, Span, SpanClock, SpanLog, DRIVER_TRACK};
use crate::workloads::{run_case, Calls, CaseOutcome, Counts, Ctx, Inputs, Workload};

/// Set-up is repeated this often; `setup_s` is the fastest.
const SETUP_REPS: usize = 15;
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Keep iterating until this much wall time has been measured.
    Seconds(f64),
    /// Exactly this many iterations per loop (tests).
    Iterations(usize),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where to write the benchmark's spans as Chrome JSON (traced runs).
    pub trace_out: Option<PathBuf>,
    /// Geometry divisor: 1 is the benchmark, the smoke test uses 8.
    pub scale: u64,
    /// Corrupt the first byte check, to show that a failed check is
    /// counted and reported. Tests only.
    pub corrupt: bool,
}

#[derive(Debug)]
pub struct RunReport {
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Timed iterations behind every median (per loop).
    pub samples: usize,
    pub calls: Calls,
    pub correct: bool,
    /// `vtime_makespan_ns` of every untraced iteration, for exactness checks.
    pub vtime_ns: Vec<u64>,
    /// Per-iteration span breakdowns of the traced loop.
    pub breakdowns: Vec<Breakdown>,
}

/// One iteration: every case once.
struct Iteration {
    cases: Vec<CaseOutcome>,
}

impl Iteration {
    fn sum(&self, f: impl Fn(&CaseOutcome) -> u64) -> f64 {
        self.cases.iter().map(f).sum::<u64>() as f64
    }

    fn vtime_ns(&self) -> u64 {
        self.cases.iter().map(|c| c.vtime_ns).sum()
    }

    fn wall_ms(&self) -> f64 {
        self.sum(|c| c.wall_ns) / 1e6
    }

    /// Bytes the cases moved between application and file system.
    fn sim_bytes(&self) -> f64 {
        self.sum(|c| c.counts.stat(|s| s.bytes_written + s.bytes_read))
    }

    fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.cases {
            total.merge(&c.counts);
        }
        total
    }
}

/// Runs iterations and keeps the run's verdict: calls made, calls failed,
/// and whether every byte check held.
struct Harness {
    /// Corrupt the next byte check (once).
    corrupt: bool,
    calls: Calls,
    correct: bool,
}

impl Harness {
    fn iteration(
        &mut self,
        inputs: &Inputs,
        log: &mut SpanLog,
        sink: &Option<Arc<MemorySink>>,
    ) -> Iteration {
        let id = log.open("iteration");
        let cases = (0..inputs.workload.cases().len())
            .map(|case| {
                let mut ctx = Ctx {
                    log,
                    sink: sink.clone(),
                    corrupt: std::mem::take(&mut self.corrupt),
                };
                let out = run_case(inputs, case, &mut ctx);
                self.calls.add(out.calls);
                self.correct &= out.bytes_ok && out.calls.failed == 0;
                out
            })
            .collect();
        log.set_case("");
        log.close(id);
        Iteration { cases }
    }

    /// The closed loop: iterations back to back until the budget is spent.
    fn measure(
        &mut self,
        inputs: &Inputs,
        budget: Budget,
        log: &mut SpanLog,
        sink: &Option<Arc<MemorySink>>,
        mut each: impl FnMut(&mut SpanLog),
    ) -> Vec<Iteration> {
        let started = Instant::now();
        let mut done = Vec::new();
        loop {
            done.push(self.iteration(inputs, log, sink));
            each(log);
            let stop = match budget {
                Budget::Seconds(s) => started.elapsed() >= Duration::from_secs_f64(s),
                Budget::Iterations(n) => done.len() >= n,
            };
            if stop {
                return done;
            }
        }
    }
}

fn quiet_log() -> SpanLog {
    let clock = SpanClock {
        enabled: false,
        epoch: Instant::now(),
    };
    SpanLog::new(clock, DRIVER_TRACK, "")
}

fn medians(iterations: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iterations.iter().map(f).collect::<Vec<_>>())
}

pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let cat = catalog();
    // Set-up, several times over: the inputs from the seed — buffers,
    // views, the bytes each case must leave. One set alive at a time. The
    // fastest build is reported: the shared host only ever adds time, and
    // over an evening the fastest of a run moved half as much between
    // blocks of ten runs as the median of the same builds did.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(Inputs::build(cfg.workload, cfg.seed, cfg.scale));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPS is at least one");

    // Warm-up: two iterations (every case, bytes checked), so caches, the
    // allocator and lazy statics are as the timed loop will find them. The
    // first is the cold one: what the process pays once.
    let mut harness = Harness {
        corrupt: false,
        calls: Calls::default(),
        correct: true,
    };
    let t = Instant::now();
    let cold = harness.iteration(&inputs, &mut quiet_log(), &None);
    let warmup_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_faults = cold.sum(|c| c.usage.minor_faults);
    harness.iteration(&inputs, &mut quiet_log(), &None);
    harness.corrupt = cfg.corrupt;

    // A traced run splits its budget: 2/5 untraced, 2/5 traced, the rest
    // is left for the probes.
    let loop_budget = match (cfg.budget, cfg.trace) {
        (Budget::Seconds(s), true) => Budget::Seconds(s * 0.4),
        (b, _) => b,
    };
    let untraced = harness.measure(&inputs, loop_budget, &mut quiet_log(), &None, |_| {});
    let peak_rss_mib = peak_rss_kib() as f64 / 1024.0;
    let vtime_ns: Vec<u64> = untraced.iter().map(Iteration::vtime_ns).collect();
    let walls: Vec<f64> = untraced.iter().map(Iteration::wall_ms).collect();

    let mut breakdowns = Vec::new();
    let metrics = if !cfg.trace {
        let mut m = MetricSet::new(&cat.end_to_end);
        m.put(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        );
        // Bytes moved between application and file system per virtual
        // second: the paper's Figure 8 quantity, summed over the cases whose
        // virtual time the model alone decides.
        let exact = |f: &dyn Fn(&CaseOutcome) -> u64| {
            medians(&untraced, |i| {
                let cases = i.cases.iter().enumerate();
                cases
                    .filter(|(k, _)| cfg.workload.vtime_is_exact(*k))
                    .map(|(_, c)| f(c))
                    .sum::<u64>() as f64
            })
        };
        let bytes = exact(&|c| c.counts.stat(|s| s.bytes_written + s.bytes_read));
        m.put("vtime_mibps", bytes / MIB / (exact(&|c| c.vtime_ns) / 1e9));
        m.put("peak_rss_mib", peak_rss_mib);
        m.finish()?
    } else {
        let mut m = MetricSet::new(&cat.per_layer);
        host_metrics(&mut m, &untraced, &walls, warmup_ms, cold_faults);
        split_metrics(&mut m, cfg.workload, &untraced);

        let sink = Arc::new(MemorySink::new());
        let clock = SpanClock {
            enabled: true,
            epoch: Instant::now(),
        };
        let mut log = SpanLog::new(clock, DRIVER_TRACK, "");
        let mut events: Vec<Vec<TraceEvent>> = Vec::new();
        let mut kept: Vec<Vec<Span>> = Vec::new();
        let mut span_error = None;
        let bound = Some(Arc::clone(&sink));
        let traced = harness.measure(&inputs, loop_budget, &mut log, &bound, |log| {
            events.push(sink.drain());
            let spans = log.take();
            match spans::check(&spans) {
                Ok(()) => breakdowns.push(spans::breakdown(&spans)),
                Err(e) => span_error = Some(e),
            }
            if cfg.trace_out.is_some() {
                kept.push(spans);
            }
        });
        if let Some(e) = span_error {
            return Err(format!("span check failed: {e}"));
        }
        m.put(
            "host.trace_overhead_ratio",
            medians(&traced, Iteration::wall_ms) / median(&walls),
        );
        span_metrics(&mut m, &breakdowns);
        vtime_metrics(&mut m, &events);
        count_metrics(&mut m, &traced);
        // One more iteration, untimed, with the allocator counting.
        let (_, allocs, bytes) =
            count_allocations(|| harness.iteration(&inputs, &mut quiet_log(), &None));
        m.put("host.allocs", allocs as f64);
        m.put("host.alloc_mib", bytes as f64 / MIB);
        probes::run_all(&mut m, cfg.seed, cfg.scale);
        if let Some(path) = &cfg.trace_out {
            std::fs::write(path, spans::chrome_json(cfg.workload.name(), &kept))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        m.finish()?
    };

    Ok(RunReport {
        metrics,
        samples: untraced.len(),
        calls: harness.calls,
        correct: harness.correct,
        vtime_ns,
        breakdowns,
    })
}

/// Host layer, from the untraced loop: per-iteration medians. The
/// exception is `host.minor_faults`: the timed loop reuses the memory the
/// process already has and faults next to nothing, so the count is taken
/// from the first warm-up iteration, which touches everything for the
/// first time and repeats from process to process.
fn host_metrics(
    m: &mut MetricSet,
    iterations: &[Iteration],
    walls: &[f64],
    warmup_ms: f64,
    cold_faults: f64,
) {
    m.put("host.warmup_ms", warmup_ms);
    m.put("host.wall_ms", median(walls));
    m.put("host.wall_tail_ms", tail(walls));
    m.put(
        "host.cpu_ms",
        medians(iterations, |i| {
            i.sum(|c| c.usage.user_us + c.usage.sys_us) / 1e3
        }),
    );
    let user = medians(iterations, |i| i.sum(|c| c.usage.user_us) / 1e3);
    let sys = medians(iterations, |i| i.sum(|c| c.usage.sys_us) / 1e3);
    m.put("host.user_ms", user);
    m.put("host.sys_ms", sys);
    m.put("host.sys_share", sys / (user + sys).max(f64::MIN_POSITIVE));
    m.put("host.minor_faults", cold_faults);
    m.put(
        "host.vol_ctx_switches",
        medians(iterations, |i| i.sum(|c| c.usage.vol_ctx)),
    );
    m.put(
        "host.invol_ctx_switches",
        medians(iterations, |i| i.sum(|c| c.usage.invol_ctx)),
    );
    // Simulated bytes per host second.
    m.put(
        "host.sim_mibps",
        medians(iterations, |i| i.sim_bytes() / MIB / (i.wall_ms() / 1e3)),
    );
}

/// Strategy split, from the untraced loop. Every workload's cases are in
/// the catalog; the ones that did not run here read 0.
fn split_metrics(m: &mut MetricSet, workload: Workload, iterations: &[Iteration]) {
    let vtime: Vec<f64> = iterations.iter().map(|i| i.vtime_ns() as f64).collect();
    m.put("vtime_makespan_ns", median(&vtime));
    m.put("vtime.spread_ratio", spread_ratio(&vtime));
    for w in Workload::ALL {
        for (k, case) in w.cases().iter().enumerate() {
            let ran = w == workload;
            let of = |f: &dyn Fn(&CaseOutcome) -> f64| match ran {
                true => medians(iterations, |i| f(&i.cases[k])),
                false => 0.0,
            };
            m.put(
                &format!("case.{case}.vtime_makespan_ns"),
                of(&|c| c.vtime_ns as f64),
            );
            m.put(
                &format!("case.{case}.host_wall_ms"),
                of(&|c| c.wall_ns as f64 / 1e6),
            );
        }
    }
}

/// The benchmark's own spans: mean self time per traced iteration, and
/// the per-call distribution over all traced iterations.
fn span_metrics(m: &mut MetricSet, breakdowns: &[Breakdown]) {
    let n = breakdowns.len().max(1) as f64;
    let mean_ms = |f: &dyn Fn(&Breakdown) -> f64| breakdowns.iter().map(f).sum::<f64>() / n / 1e6;
    m.put("span.iteration_ms", mean_ms(&|b| b.iteration_ns));
    for part in [
        "fs_new",
        "spawn_join",
        "open",
        "barrier",
        "write",
        "read",
        "close",
        "snapshot",
        "verify",
        "other",
    ] {
        m.put(&format!("span.{part}_ms"), mean_ms(&|b| b.part(part)));
    }
    for name in ["write", "read"] {
        let calls: Vec<f64> = breakdowns
            .iter()
            .flat_map(|b| match name {
                "write" => &b.write_calls_ns,
                _ => &b.read_calls_ns,
            })
            .map(|ns| ns / 1e3)
            .collect();
        m.put(&format!("span.{name}_call_p50_us"), median(&calls));
        m.put(&format!("span.{name}_call_tail_us"), tail(&calls));
    }
}

/// Virtual time by category from the program's own trace events: the sum
/// of event durations per traced iteration (median over iterations).
fn vtime_metrics(m: &mut MetricSet, events: &[Vec<TraceEvent>]) {
    let of = |cat: Category| {
        let sums: Vec<f64> = events
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|e| e.cat == cat)
                    .filter_map(|e| e.dur)
                    .sum::<u64>() as f64
            })
            .collect();
        median(&sums)
    };
    m.put("vt.lock_ns", of(Category::Lock));
    m.put("vt.coherence_ns", of(Category::Coherence));
    m.put("vt.cache_ns", of(Category::Cache));
    m.put("vt.exchange_ns", of(Category::Exchange));
    m.put("vt.server_ns", of(Category::Server));
    m.put("vt.comm_ns", of(Category::Comm));
    m.put("vt.io_ns", of(Category::Io));
    let counts: Vec<f64> = events.iter().map(|e| e.len() as f64).collect();
    m.put("vt.events", median(&counts));
}

/// Counts the layers keep themselves, per traced iteration (summed over
/// cases and ranks; median over iterations).
fn count_metrics(m: &mut MetricSet, iterations: &[Iteration]) {
    let totals: Vec<Counts> = iterations.iter().map(Iteration::counts).collect();
    let mut put = |name: &str, f: &dyn Fn(&Counts) -> f64| {
        m.put(name, median(&totals.iter().map(f).collect::<Vec<_>>()));
    };
    let mut stat = |name: &str, field: fn(&StatsSnapshot) -> u64| {
        put(name, &|c| c.stat(field) as f64);
    };
    stat("lock.acquires", |s| s.lock_acquires);
    stat("lock.ranges", |s| s.lock_ranges);
    stat("lock.serialized_grants", |s| s.lock_serialized_grants);
    stat("lock.shard_trips", |s| s.lock_shard_trips);
    stat("lock.token_hits", |s| s.lock_token_hits);
    stat("lock.wait_vns", |s| s.lock_wait_ns);
    stat("cache.hit_bytes", |s| s.cache_hit_bytes);
    stat("cache.miss_bytes", |s| s.cache_miss_bytes);
    stat("cache.flushed_bytes", |s| s.flushed_bytes);
    stat("coherence.revocations", |s| s.revocations_served);
    stat("coherence.revoke_flushed_bytes", |s| s.revoke_flushed_bytes);
    stat("coherence.invalidated_bytes", |s| {
        s.coherence_invalidated_bytes
    });
    stat("coherence.coherent_hit_bytes", |s| s.coherent_hit_bytes);
    stat("server.read_requests", |s| s.server_read_requests);
    stat("server.write_requests", |s| s.server_write_requests);
    stat("server.retries", |s| s.retries);
    stat("collective.wire_intra_bytes", |s| s.wire_intra_bytes);
    stat("collective.wire_inter_bytes", |s| s.wire_inter_bytes);
    stat("strategy.bytes_written", |s| s.bytes_written);

    put("cache.hit_ratio", &|c| {
        let hit = c.stat(|s| s.cache_hit_bytes);
        hit as f64 / ((hit + c.stat(|s| s.cache_miss_bytes)) as f64).max(1.0)
    });
    put("lock.grant_wait_p99_vns", &|c| {
        c.latency.grant_wait.p99() as f64
    });
    put("coherence.revoke_flush_p99_vns", &|c| {
        c.latency.revoke_flush.p99() as f64
    });
    put("server.service_p99_vns", &|c| {
        c.latency.server_service.p99() as f64
    });
    put("lock.history_len", &|c| c.lock_history_len as f64);
    put("server.busy_vns", &|c| c.server_busy_vns as f64);
    put("strategy.phases", &|c| c.phases as f64);

    let two_phase = |c: &Counts, field: fn(&TwoPhaseReport) -> u64| -> f64 {
        c.two_phase.iter().map(field).sum::<u64>() as f64
    };
    put("collective.bytes_shipped", &|c| {
        two_phase(c, |t| t.bytes_shipped)
    });
    put("collective.conflict_bytes", &|c| {
        two_phase(c, |t| t.conflict_bytes)
    });
    put("collective.write_runs", &|c| {
        two_phase(c, |t| t.write_runs as u64)
    });
    put("collective.rounds", &|c| {
        c.two_phase.iter().map(|t| t.rounds).max().unwrap_or(0) as f64
    });
}
