//! `lintcheck` — the repo lint gate. Runs the token-level rules R1–R3
//! and R5 (see `atomio_check::lint`) and stale-allowlist detection; exits
//! nonzero on any non-allowlisted diagnostic. Run from the repo root (or
//! pass it):
//!
//! ```text
//! cargo run --release -p atomio-check --bin lintcheck -- [ROOT]
//! ```
//!
//! An unknown flag or a second root is a usage error (exit 2); a root
//! without `lintcheck.allow` or without sources under `crates/` fails the
//! gate instead of passing an empty scan.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lintcheck [ROOT]";

/// The root to scan, or the usage error.
fn parse_root(args: impl IntoIterator<Item = String>) -> Result<PathBuf, String> {
    let mut root = None;
    for a in args {
        if a.starts_with("--") || root.is_some() {
            return Err(format!("lintcheck: unexpected argument {a}; {USAGE}"));
        }
        root = Some(PathBuf::from(a));
    }
    Ok(root.unwrap_or_else(|| PathBuf::from(".")))
}

fn main() -> ExitCode {
    let root = match parse_root(std::env::args().skip(1)) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match atomio_check::check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lintcheck: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if report.diags.is_empty() {
        println!("lintcheck: clean");
        return ExitCode::SUCCESS;
    }
    for d in &report.diags {
        println!("{d}");
    }
    println!("lintcheck: {} violation(s)", report.diags.len());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PathBuf, String> {
        parse_root(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn root_defaults_to_the_current_directory() {
        assert_eq!(parse(&[]), Ok(PathBuf::from(".")));
        assert_eq!(parse(&["/repo"]), Ok(PathBuf::from("/repo")));
    }

    #[test]
    fn unknown_flags_and_extra_roots_are_usage_errors() {
        for args in [
            &["--bogus"][..],
            &["--static-report", "x.json"],
            &["a", "b"],
        ] {
            let err = parse(args).expect_err("usage error");
            assert!(err.contains(USAGE), "{err}");
        }
    }
}
