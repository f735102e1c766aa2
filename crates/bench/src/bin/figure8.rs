//! Regenerate **Figure 8** of the paper: I/O bandwidth of the column-wise
//! concurrent-write experiment for three strategies × three platforms ×
//! three array sizes × P ∈ {4, 8, 16}.
//!
//! ```text
//! cargo run --release -p atomio-bench --bin figure8            # paper sizes
//! cargo run --release -p atomio-bench --bin figure8 -- --quick # 1/8 scale
//! ```
//!
//! Bandwidth numbers are *modeled* (virtual time); the goal is the paper's
//! shape — file locking worst and flat, process-rank ordering best and
//! scaling, graph coloring between the two and never above rank ordering,
//! no locking curve on Cplant — not absolute MB/s. Where in between
//! coloring lands depends on the panel: it holds back only the bytes two
//! ranks write when that is the cheaper schedule (`atomio_core::held_bytes`),
//! so with the clients as the bottleneck (P = 4, the large arrays) it sits
//! within a few percent of rank ordering, and where one color class
//! already saturates the servers (P = 16 on the small array, and on every
//! Cplant size) it keeps the paper's whole-request phases and trails by up
//! to a phase. A CSV dump and per-panel shape checks are emitted.
//!
//! `--out <dir>` moves `figure8.csv` out of `results/`; an unknown flag, or
//! a flag without its value, exits 2 with a usage line instead of starting
//! the paper-scale run. Pass `--trace <path>` to additionally record the first panel's
//! P = 4 points (every strategy on the first platform and size) as a
//! Chrome-trace timeline: one track per rank, one per I/O server, with
//! the strategies' runs overlaid on a shared virtual-time axis. Load the
//! file at <https://ui.perfetto.dev>.

use std::io::Write as _;
use std::sync::Arc;

use atomio_bench::{
    bar, check_shape, measure_colwise_two_phase, strategies_for, Point, CSV_HEADER, DEFAULT_R,
    PAPER_PROCS, PAPER_SIZES,
};
use atomio_core::{IoPath, TwoPhaseConfig};
use atomio_pfs::PlatformProfile;
use atomio_trace::MemorySink;

/// The binary's flags: `--quick`, `--out <dir>` (default `results`) and
/// `--trace <path>`.
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    out: String,
    trace: Option<String>,
}

impl Args {
    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        const USAGE: &str = "usage: cargo run --release -p atomio-bench --bin figure8 -- \
                             [--quick] [--out <dir>] [--trace <path>]";
        let (mut quick, mut out, mut trace) = (false, None, None);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let slot = match a.as_str() {
                "--quick" => {
                    quick = true;
                    continue;
                }
                "--out" => &mut out,
                "--trace" => &mut trace,
                _ => return Err(format!("unknown argument {a}; {USAGE}")),
            };
            let value = args.next().filter(|v| !v.starts_with("--"));
            *slot = Some(value.ok_or_else(|| format!("{a} needs a value; {USAGE}"))?);
        }
        Ok(Args {
            quick,
            out: out.unwrap_or_else(|| "results".to_string()),
            trace,
        })
    }
}

fn main() {
    let Args {
        quick,
        out: out_dir,
        trace: trace_path,
    } = Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let trace_sink = trace_path.as_ref().map(|_| Arc::new(MemorySink::new()));

    let sizes: Vec<(u64, u64, &str)> = if quick {
        PAPER_SIZES.iter().map(|&(m, n, l)| (m / 8, n, l)).collect()
    } else {
        PAPER_SIZES.to_vec()
    };

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let csv_path = format!("{out_dir}/figure8.csv");
    let mut csv = std::fs::File::create(&csv_path).expect("create CSV");
    writeln!(csv, "{CSV_HEADER}").unwrap();

    println!("Reproducing Figure 8 (column-wise overlapping writes, R = {DEFAULT_R} columns)");
    println!(
        "{} scale; bandwidth in MiB/s of modeled virtual time\n",
        if quick { "QUICK (M/8)" } else { "paper" }
    );

    let mut all_failures: Vec<String> = Vec::new();
    let mut panels = 0;

    for profile in PlatformProfile::paper_platforms() {
        for &(m, n, label) in &sizes {
            panels += 1;
            println!(
                "── {} ({})   array {m} x {n} ({label}) {}",
                profile.name,
                profile.file_system,
                "─".repeat(20)
            );
            let mut panel_points: Vec<Point> = Vec::new();
            for &p in &PAPER_PROCS {
                for strategy in strategies_for(&profile) {
                    // Trace only the first panel's smallest process count:
                    // one readable timeline instead of 100+ overlaid runs.
                    let sink = trace_sink
                        .as_ref()
                        .filter(|_| panels == 1 && p == PAPER_PROCS[0]);
                    let pt = measure_colwise_two_phase(
                        &profile,
                        m,
                        n,
                        p,
                        DEFAULT_R,
                        Some(strategy),
                        IoPath::Direct,
                        TwoPhaseConfig::default(),
                        sink,
                    );
                    writeln!(csv, "{}", pt.csv_row()).unwrap();
                    panel_points.push(pt);
                }
            }
            let max = panel_points.iter().map(|p| p.mibps).fold(0.0, f64::max);
            for &p in &PAPER_PROCS {
                println!("  P = {p}");
                for pt in panel_points.iter().filter(|pt| pt.p == p) {
                    println!(
                        "    {:<22} {:>8.2}  {}",
                        pt.strategy_label(),
                        pt.mibps,
                        bar(pt.mibps, max, 32)
                    );
                }
            }
            let failures = check_shape(&panel_points);
            if failures.is_empty() {
                println!(
                    "  shape: OK (locking < coloring <= rank-ordering; rank-ordering scales)\n"
                );
            } else {
                for f in &failures {
                    println!("  shape: FAIL {f}");
                }
                println!();
                all_failures.extend(
                    failures
                        .into_iter()
                        .map(|f| format!("{} {label}: {f}", profile.name)),
                );
            }
        }
    }

    if let (Some(path), Some(sink)) = (&trace_path, &trace_sink) {
        std::fs::write(path, sink.export_chrome()).expect("write Chrome trace JSON");
        println!(
            "trace written to {path} ({} events) — load it at https://ui.perfetto.dev",
            sink.len()
        );
    }
    println!("CSV written to {csv_path}");
    if all_failures.is_empty() {
        println!("All {panels} panels match the paper's qualitative shape.");
    } else {
        println!("{} shape violations:", all_failures.len());
        for f in &all_failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_strictly() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                quick: false,
                out: "results".to_string(),
                trace: None,
            })
        );
        assert_eq!(
            parse(&["--trace", "t.json", "--quick", "--out", "/tmp/fig8"]),
            Ok(Args {
                quick: true,
                out: "/tmp/fig8".to_string(),
                trace: Some("t.json".to_string()),
            })
        );
        // A typo, `--help` or a bare word is refused, not run at paper scale.
        for bad in [&["--quik"][..], &["--help"], &["quick"], &["--quick", "-q"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{err}");
        }
        // A flag without its value, at the end or before another flag.
        for bad in [&["--out"][..], &["--trace", "--quick"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("needs a value"), "{err}");
        }
    }
}
