//! Validate checked-in and freshly-emitted JSON artifacts.
//!
//! ```text
//! tracecheck [--chrome <file>]... [--json <file>]... [--hb <file>]...
//! ```
//!
//! Every file must parse as JSON ([`atomio_trace::validate_json`] — the
//! workspace's one strict parser, [`atomio_trace::json`], so CI needs no
//! external JSON tooling); files passed with `--chrome` must additionally
//! have the Chrome-trace shape Perfetto relies on
//! ([`atomio_trace::validate_chrome_trace`]: a top-level object whose
//! `traceEvents` is an array).
//!
//! Files passed with `--hb` run the whole chrome-trace pipeline *plus*
//! the `atomio-check` happens-before race detector: the trace must carry
//! a schedule in which every conflicting access pair is ordered by
//! grant-release, revocation-flush, or collective edges. Use it on traces
//! of schedules that are supposed to be coherent — a finding is a bug in
//! either the schedule or the instrumentation.
//!
//! Exits non-zero after reporting the first failure per file; CI runs it
//! over the emitted bench trace, all `BENCH_*.json` artifacts, and the
//! golden `small_trace.json` (happens-before-checked).

use atomio_check::check_chrome_json;
use atomio_trace::{validate_chrome_trace, validate_json};

const USAGE: &str = "usage: tracecheck [--chrome <file>]... [--json <file>]... [--hb <file>]...";

enum Mode {
    Json,
    Chrome,
    Hb,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut checked = 0usize;
    let mut failures = 0usize;
    let mut check = |path: &str, mode: Mode| {
        checked += 1;
        let kind = match mode {
            Mode::Chrome => "chrome-trace",
            Mode::Hb => "chrome-trace+hb",
            Mode::Json => "json",
        };
        let data = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL {path}: unreadable: {e}");
                failures += 1;
                return;
            }
        };
        let result = match mode {
            Mode::Chrome => validate_chrome_trace(&data),
            Mode::Json => validate_json(&data),
            Mode::Hb => validate_chrome_trace(&data).and_then(|()| {
                let report = check_chrome_json(&data)?;
                if report.findings.is_empty() {
                    Ok(())
                } else {
                    Err(format!("{report}"))
                }
            }),
        };
        match result {
            Ok(()) => println!("OK   {path} ({kind}, {} bytes)", data.len()),
            Err(e) => {
                eprintln!("FAIL {path}: invalid {kind}: {e}");
                failures += 1;
            }
        }
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chrome" => match args.next() {
                Some(p) => check(&p, Mode::Chrome),
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--hb" => match args.next() {
                Some(p) => check(&p, Mode::Hb),
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => check(&p, Mode::Json),
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            // Bare paths are plain-JSON checks.
            p => check(p, Mode::Json),
        }
    }
    if checked == 0 {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if failures > 0 {
        eprintln!("{failures}/{checked} artifacts failed validation");
        std::process::exit(1);
    }
    println!("{checked} artifacts valid");
}
