//! Smoke test of the whole benchmark: every workload at one iteration and
//! an eighth of the geometry, untraced and traced.

use std::process::ExitCode;

use atomio_benchmark::catalog::catalog;
use atomio_benchmark::cli::run_one;
use atomio_benchmark::run::{run, Budget, RunConfig};
use atomio_benchmark::workloads::{Inputs, Workload};

fn cfg(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        budget: Budget::Iterations(1),
        trace,
        trace_out: None,
        scale: 8,
        corrupt: false,
    }
}

#[test]
fn every_catalog_metric_is_emitted_once_with_its_unit() {
    let cat = catalog();
    assert_eq!(
        cat.workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json lists the workloads the benchmark has"
    );
    for workload in Workload::ALL {
        for trace in [false, true] {
            // `run` itself refuses unknown, duplicate and missing names.
            let report = run(&cfg(workload, 1, trace)).unwrap();
            let defs = if trace {
                &cat.per_layer
            } else {
                &cat.end_to_end
            };
            let emitted: Vec<&str> = report
                .metrics
                .iter()
                .map(|(d, _)| d.name.as_str())
                .collect();
            let listed: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(emitted, listed, "{} trace {trace}", workload.name());
            assert!(report.metrics.iter().all(|(d, _)| !d.unit.is_empty()));
            assert!(report.correct, "{}", workload.name());
            assert_eq!(report.calls.failed, 0);
            assert!(report.calls.attempted > 0);
            if !trace {
                for (def, value) in &report.metrics {
                    assert!(
                        *value > 0.0,
                        "{} is {value} on {}",
                        def.name,
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn span_parts_sum_to_the_iteration_span() {
    for workload in Workload::ALL {
        let report = run(&cfg(workload, 1, true)).unwrap();
        assert_eq!(report.breakdowns.len(), 1);
        for b in &report.breakdowns {
            assert!(b.iteration_ns > 0.0);
            let off = (b.parts_sum() - b.iteration_ns).abs();
            assert!(
                off <= 1e-9 * b.iteration_ns,
                "{}: off by {off} ns",
                workload.name()
            );
        }
        let metric = |name: &str| {
            let (_, v) = report.metrics.iter().find(|(d, _)| d.name == name).unwrap();
            *v
        };
        let parts: f64 = [
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
        ]
        .iter()
        .map(|p| metric(&format!("span.{p}_ms")))
        .sum();
        let whole = metric("span.iteration_ms");
        assert!((parts - whole).abs() <= 1e-9 * whole, "{parts} vs {whole}");
    }
}

#[test]
fn exact_workloads_repeat_their_virtual_time() {
    for workload in [
        Workload::ColwiseFig8,
        Workload::LockStorm,
        Workload::HeaderTwoPhase,
    ] {
        let a = run(&cfg(workload, 1, false)).unwrap();
        let b = run(&cfg(workload, 1, false)).unwrap();
        assert!(a.vtime_ns[0] > 0);
        assert_eq!(a.vtime_ns, b.vtime_ns, "{}", workload.name());
    }
}

#[test]
fn the_seed_changes_the_storm_order_but_not_the_bytes() {
    let one = Inputs::build(Workload::LockStorm, 1, 8);
    let two = Inputs::build(Workload::LockStorm, 2, 8);
    assert_ne!(one.storm_order(), two.storm_order());
    assert_eq!(
        Inputs::build(Workload::LockStorm, 1, 8).storm_order(),
        one.storm_order(),
        "the same seed gives the same inputs"
    );
    assert_eq!(one.expected_bytes(0), two.expected_bytes(0));
    // Both orders leave exactly those bytes: the run checks every case.
    for seed in [1, 2] {
        assert!(run(&cfg(Workload::LockStorm, seed, false)).unwrap().correct);
    }
}

#[test]
fn a_failed_byte_check_is_counted_and_reported_not_panicked() {
    let corrupt = RunConfig {
        corrupt: true,
        ..cfg(Workload::HeaderTwoPhase, 1, false)
    };
    let report = run(&corrupt).unwrap();
    assert!(!report.correct);
    assert!(report.calls.failed > 0 && report.calls.failed < report.calls.attempted);
    assert_eq!(
        report.metrics.len(),
        catalog().end_to_end.len(),
        "all metrics still printed"
    );
    assert_eq!(run_one(&corrupt), ExitCode::FAILURE);
    assert_eq!(
        run_one(&cfg(Workload::HeaderTwoPhase, 1, false)),
        ExitCode::SUCCESS
    );
}
