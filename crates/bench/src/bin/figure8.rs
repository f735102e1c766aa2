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
//! to a phase. A CSV dump and per-panel shape checks are emitted; the
//! panel loop is [`atomio_bench::figure8`], and `artifacts --check`
//! compares its quick table with `tests/golden/figure8_quick.csv`.
//!
//! `--out <dir>` moves `figure8.csv` out of `results/`; an unknown flag, or
//! a flag without its value, exits 2 with a usage line instead of starting
//! the paper-scale run. Pass `--trace <path>` to additionally record the first panel's
//! P = 4 points (every strategy on the first platform and size) as a
//! Chrome-trace timeline: one track per rank, one per I/O server, with
//! the strategies' runs overlaid on a shared virtual-time axis. Load the
//! file at <https://ui.perfetto.dev>.

use std::sync::Arc;

use atomio_bench::{bar, figure8, Scale, DEFAULT_R, PAPER_PROCS};
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
    let scale = if quick { Scale::Smoke } else { Scale::Full };

    println!("Reproducing Figure 8 (column-wise overlapping writes, R = {DEFAULT_R} columns)");
    println!(
        "{} scale; bandwidth in MiB/s of modeled virtual time\n",
        if quick { "QUICK (M/8)" } else { "paper" }
    );
    let fig = figure8(scale, trace_sink.as_ref());

    for panel in &fig.panels {
        println!(
            "── {} ({})   array {} x {} ({}) {}",
            panel.profile.name,
            panel.profile.file_system,
            panel.m,
            panel.n,
            panel.label,
            "─".repeat(20)
        );
        let max = panel.points.iter().map(|p| p.mibps).fold(0.0, f64::max);
        for p in PAPER_PROCS {
            println!("  P = {p}");
            for pt in panel.points.iter().filter(|pt| pt.p == p) {
                println!(
                    "    {:<22} {:>8.2}  {}",
                    pt.strategy_label(),
                    pt.mibps,
                    bar(pt.mibps, max, 32)
                );
            }
        }
        if panel.failures.is_empty() {
            println!("  shape: OK (locking < coloring <= rank-ordering; rank-ordering scales)\n");
        } else {
            for f in &panel.failures {
                println!("  shape: FAIL {f}");
            }
            println!();
        }
    }

    if let (Some(path), Some(sink)) = (&trace_path, &trace_sink) {
        std::fs::write(path, sink.export_chrome()).expect("write Chrome trace JSON");
        println!(
            "trace written to {path} ({} events) — load it at https://ui.perfetto.dev",
            sink.len()
        );
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let csv_path = format!("{out_dir}/figure8.csv");
    std::fs::write(&csv_path, fig.csv()).expect("write CSV");
    println!("CSV written to {csv_path}");
    let failures = fig.failures();
    if failures.is_empty() {
        println!(
            "All {} panels match the paper's qualitative shape.",
            fig.panels.len()
        );
    } else {
        println!("{} shape violations:", failures.len());
        for f in &failures {
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
