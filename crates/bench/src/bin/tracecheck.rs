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
//! Exits non-zero after reporting the first failure per file. The
//! `artifacts` runner applies the same checks ([`TraceCheck`]) in process
//! to the traces it records.

use atomio_bench::TraceCheck;
use atomio_trace::validate_json;

const USAGE: &str = "usage: tracecheck [--chrome <file>]... [--json <file>]... [--hb <file>]...";

fn main() {
    let mut args = std::env::args().skip(1);
    let mut checked = 0usize;
    let mut failures = 0usize;
    // `None` checks plain JSON.
    let mut check = |path: &str, mode: Option<TraceCheck>| {
        checked += 1;
        let kind = match mode {
            Some(TraceCheck::Chrome) => "chrome-trace",
            Some(TraceCheck::Hb) => "chrome-trace+hb",
            None => "json",
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
            Some(trace) => trace.check(&data),
            None => validate_json(&data),
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
        let mode = match a.as_str() {
            "--chrome" => Some(TraceCheck::Chrome),
            "--hb" => Some(TraceCheck::Hb),
            "--json" => None,
            // Bare paths are plain-JSON checks.
            p => {
                check(p, None);
                continue;
            }
        };
        // A flag's value is never a flag: `--chrome --hb x` is a usage error.
        let Some(path) = args.next().filter(|p| !p.starts_with("--")) else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        check(&path, mode);
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
