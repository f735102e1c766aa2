//! Command line: one workload per process (`--workload`), every workload
//! one process after another (no `--workload`), or the A/A check the
//! bounds in `BENCHMARK.json` are derived with (`--repeat-check N`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::catalog::catalog;
use crate::host::{pin_to_one_cpu, retain_freed_memory};
use crate::json::{self, Value};
use crate::run::{run, Budget, RunConfig, RunReport};
use crate::workloads::Workload;

const USAGE: &str = "usage: atomio-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-out PATH] [--repeat-check N]

  --workload NAME   colwise_fig8 | lock_storm | rw_cached | header_two_phase;
                    without it every workload runs, one process each, untraced
                    and then traced at a quarter of the time
  --seed N          inputs are made from it (default 1)
  --seconds S       how long each loop measures (default: run_seconds of BENCHMARK.json)
  --trace 0|1       0: end-to-end metrics; 1: traced run, per-layer metrics
  --trace-out PATH  traced run: write the benchmark's spans as Chrome JSON
  --repeat-check N  run N untraced sets and compare them against the bounds";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat_check: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: catalog().run_seconds as f64,
        trace: false,
        trace_out: None,
        repeat_check: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: cannot use \"{value}\"");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            "--repeat-check" => {
                out.repeat_check = Some(value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(report: &RunReport) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.calls.attempted, report.calls.failed
    );
    for (i, (def, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

/// Run one workload, print every metric by name and unit and then the
/// result line; the exit code says whether every call and byte check held.
pub fn run_one(cfg: &RunConfig) -> ExitCode {
    let cpu = pin_to_one_cpu();
    retain_freed_memory();
    let report = match run(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("atomio-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {} {} run on {}: {} timed iterations per loop, {} calls, {} failed",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        cpu.map_or("every CPU (pinning refused)".to_string(), |c| format!(
            "CPU {c}"
        )),
        report.samples,
        report.calls.attempted,
        report.calls.failed,
    );
    for (def, value) in &report.metrics {
        println!("{:<42} {value:>22.6} {}", def.name, def.unit);
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("atomio-benchmark: byte checks or calls failed");
        ExitCode::FAILURE
    }
}

fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// Every workload in its own process, untraced and then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        for (trace, seconds) in [(false, args.seconds), (true, args.seconds / 4.0)] {
            let status = child(workload, args.seed, seconds, trace)?
                .status()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

/// The metrics of a child's result line, by name.
fn child_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line)?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("child run was not correct".to_string());
    }
    Ok(doc
        .get("metrics")
        .ok_or("result line has no metrics")?
        .entries()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// N untraced sets of the same build. For each (metric, workload): the
/// largest pairwise relative difference between the sets, against the
/// metric's bound; `unresolved` where the sets differ by more than it.
fn repeat_check(args: &Args, sets: usize) -> Result<bool, String> {
    let mut all_within = true;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>10} {:>7}",
        "workload", "metric", "min", "max", "deviation", "bound"
    );
    // Set by set, so that drift of the host between sets shows.
    let mut runs: Vec<Vec<Vec<(String, f64)>>> = vec![Vec::new(); Workload::ALL.len()];
    for _ in 0..sets {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let out = child(workload, args.seed, args.seconds, false)?
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            runs[w].push(child_metrics(&String::from_utf8_lossy(&out.stdout))?);
        }
    }
    for (workload, runs) in Workload::ALL.into_iter().zip(&runs) {
        for def in &catalog().end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v))
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let deviation = (max - min) / min;
            let bound = def.bound.unwrap_or(0.0);
            let within = deviation <= bound;
            all_within &= within;
            println!(
                "{:<18} {:<20} {min:>16.6} {max:>16.6} {deviation:>10.4} {bound:>7.2}{}",
                workload.name(),
                def.name,
                if within { "" } else { "  unresolved" },
            );
        }
    }
    Ok(all_within)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atomio-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.repeat_check, args.workload) {
        (Some(sets), _) => repeat_check(&args, sets),
        (None, Some(workload)) => {
            return run_one(&RunConfig {
                workload,
                seed: args.seed,
                budget: Budget::Seconds(args.seconds),
                trace: args.trace,
                trace_out: args.trace_out.clone(),
                scale: 1,
                corrupt: false,
            })
        }
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("atomio-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
