//! The fault-path lint gate, run over this workspace exactly as CI runs
//! it: zero findings under the checked-in `lintcheck.allow` (R1–R6 plus
//! stale-allowlist detection), and every rule demonstrably still bites
//! on seeded violations.

use atomio::check::{
    analyze_sources, check_workspace, lint_source, parse_allowlist, AllowEntry, LintDiag,
};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn checked_in_allowlist() -> Vec<AllowEntry> {
    let text = std::fs::read_to_string(repo_root().join("lintcheck.allow"))
        .expect("lintcheck.allow missing at repo root");
    parse_allowlist(&text)
}

/// Would the checked-in allowlist suppress this diagnostic? Mirrors the
/// gate's matching rule: path suffix + source-line substring.
fn suppressed(allow: &[AllowEntry], d: &LintDiag) -> bool {
    allow
        .iter()
        .any(|e| d.path.ends_with(&e.path_suffix) && d.source.contains(&e.needle))
}

/// Acceptance: the full workspace gate is clean. Every unwrap/expect on
/// a fault-reachable path is either converted to `try_`/`FsError`
/// plumbing or carries a justified allowlist entry; no bare `Mutex`
/// hides from the lock-order engine; every `Ordering::Relaxed` is
/// documented; no guard is held across a blocking call (or the hold is
/// justified); no fallible result is silently dropped; the static
/// lock-order graph is acyclic and rank-respecting; and — satellite of
/// the same gate — every allowlist entry still suppresses something.
#[test]
fn workspace_gate_is_clean() {
    let report = check_workspace(repo_root()).expect("workspace sources must be readable");
    assert!(
        report.diags.is_empty(),
        "lintcheck found {} violation(s):\n{}",
        report.diags.len(),
        report
            .diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_allow.is_empty(),
        "stale lintcheck.allow entries: {:?}",
        report.unused_allow
    );
    // The static analysis rode along with the gate.
    assert!(report.analysis.classes.contains_key("pfs.lock_state"));
    assert!(!report.analysis.edges.is_empty());
}

/// The allowlist only shrinks: a new suppression has to displace an old
/// one. Lower the ceiling whenever an entry goes.
#[test]
fn allowlist_stays_at_or_below_its_ceiling() {
    let allow = checked_in_allowlist();
    assert!(allow.len() <= 11, "{} allowlist entries", allow.len());
}

/// The gate must not be green because it is blind: R1–R3 still fire on
/// seeded violations under the real, checked-in allowlist.
#[test]
fn token_rules_still_bite_under_the_checked_in_allowlist() {
    let allow = checked_in_allowlist();

    let unwrap_diags = lint_source(
        "crates/pfs/src/journal.rs",
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        &allow,
    );
    assert_eq!(unwrap_diags.len(), 1, "R1 went blind: {unwrap_diags:?}");

    // R1 covers the whole file layer, not just one file in it.
    let expect_diags = lint_source(
        "crates/pfs/src/file/cached.rs",
        "fn f(x: Option<u8>) -> u8 { x.expect(\"cached\") }\n",
        &allow,
    );
    assert_eq!(
        expect_diags.len(),
        1,
        "R1 skips the file layer: {expect_diags:?}"
    );

    let mutex_diags = lint_source(
        "crates/pfs/src/cache.rs",
        "struct S { m: parking_lot::Mutex<u8> }\n",
        &allow,
    );
    assert_eq!(mutex_diags.len(), 1, "R2 went blind: {mutex_diags:?}");

    let relaxed_diags = lint_source(
        "crates/trace/src/tracer.rs",
        "fn g(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n",
        &allow,
    );
    assert_eq!(relaxed_diags.len(), 1, "R3 went blind: {relaxed_diags:?}");
}

/// Same for the static analyses: R4 (guard across blocking call), R5
/// (dropped fallible result) and R6 (lock-order cycle / rank inversion)
/// fire on seeded sources, and nothing in the checked-in allowlist would
/// suppress those findings.
#[test]
fn static_rules_still_bite_under_the_checked_in_allowlist() {
    let allow = checked_in_allowlist();
    let seeded = vec![(
        "crates/pfs/src/seeded.rs".to_string(),
        concat!(
            "pub fn sa<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank(\"s.a\", 1, v) }\n",
            "pub fn sb<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank(\"s.b\", 2, v) }\n",
            "impl Seeded {\n",
            "  fn new() -> Seeded { Seeded { a: sa(0), b: sb(0) } }\n",
            "  fn try_poke(&self) -> Result<(), FsError> { Ok(()) }\n",
            "  fn r4(&self) { let g = self.a.lock(); self.comm.barrier(); }\n",
            "  fn r5(&self) { self.try_poke(); }\n",
            "  fn r6(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n",
            "}\n"
        )
        .to_string(),
    )];
    let analysis = analyze_sources(&seeded);
    for rule in ["R4", "R5", "R6"] {
        let fired: Vec<&LintDiag> = analysis.diags.iter().filter(|d| d.rule == rule).collect();
        assert!(!fired.is_empty(), "{rule} went blind on the seeded source");
        assert!(
            fired.iter().all(|d| !suppressed(&allow, d)),
            "{rule} finding would be swallowed by the checked-in allowlist: {fired:?}"
        );
    }
}

/// Stale-allowlist detection bites: an entry that suppresses nothing is
/// itself reported, with the offending entry echoed back. Runs against a
/// throwaway workspace so the fixture can't disturb the real gate.
#[test]
fn stale_allow_entries_are_detected() {
    let root = std::env::temp_dir().join(format!("lintcheck-stale-{}", std::process::id()));
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("create fixture tree");
    std::fs::write(src.join("lib.rs"), "pub fn nothing() {}\n").expect("write fixture source");
    std::fs::write(
        root.join("lintcheck.allow"),
        "# fixture\ncrates/x/src/lib.rs :: no_such_call_site(\n",
    )
    .expect("write fixture allowlist");

    let report = check_workspace(&root).expect("fixture workspace readable");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(report.unused_allow.len(), 1, "{:?}", report.unused_allow);
    let stale: Vec<&LintDiag> = report
        .diags
        .iter()
        .filter(|d| d.rule == "stale-allow")
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.diags);
    assert!(stale[0].message.contains("no_such_call_site("));
}
