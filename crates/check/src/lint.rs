//! The repo lint pass, token-level since PR 10.
//!
//! * **R1 — no `unwrap()`/`expect()` in fault-reachable modules.** The
//!   fault injector can surface `FsError` on any server round-trip, so
//!   code in the fault/journal/coherence/file/server/cache/storage layer
//!   must propagate errors through the `try_`/`FsError` plumbing, not
//!   panic.
//! * **R2 — no bare `Mutex`/`RwLock` in `crates/pfs`.** All pfs locking
//!   goes through `atomio_check::OrderedMutex` so the runtime lock-order
//!   graph sees every acquisition (the documented cache → coverage order,
//!   the managers' state-mutex discipline).
//! * **R3 — no `Ordering::Relaxed` outside the allowlist.** A relaxed
//!   cross-thread flag is how the PR 5 coherence bug family starts; every
//!   surviving use must be justified in `lintcheck.allow`.
//!
//! R1–R3 run over [`crate::lexer`] token streams, so string literals
//! (raw, byte, any `#` depth), nested block comments, and doc comments
//! can never false-positive, and `#[cfg(test)]` regions are excluded on
//! the token level. The original line [`Stripper`] survives, fixed, as
//! the reference the lexer is cross-checked against on a corpus of
//! tricky snippets.
//!
//! [`check_workspace`] is the full gate: R1–R3 here, R4–R6 from
//! [`crate::lockgraph`], plus **stale-allowlist detection** — every
//! `lintcheck.allow` entry must suppress at least one diagnostic, so
//! dead suppressions rot loudly.
//!
//! Allowlist format (`lintcheck.allow` at the repo root): one
//! `path-suffix :: substring` per line; a diagnostic is suppressed if
//! its path ends with the suffix and its source line contains the
//! substring.

use crate::lexer::TokKind;
use crate::lockgraph::{self, StaticAnalysis};
use crate::scopes;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub source: String,
}

impl fmt::Display for LintDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path,
            self.line,
            self.rule,
            self.message,
            self.source.trim()
        )
    }
}

/// One `path-suffix :: substring` allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub path_suffix: String,
    pub needle: String,
    /// 1-based line in `lintcheck.allow` (0 for entries built in code).
    pub line: usize,
}

pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(line, l)| {
            let (p, n) = l.split_once("::")?;
            Some(AllowEntry {
                path_suffix: p.trim().to_string(),
                needle: n.trim().to_string(),
                line,
            })
        })
        .collect()
}

/// Index of the first allowlist entry matching this diagnostic site.
fn allow_match(allow: &[AllowEntry], path: &str, source: &str) -> Option<usize> {
    allow
        .iter()
        .position(|e| path.ends_with(&e.path_suffix) && source.contains(&e.needle))
}

/// Modules where a panic is a correctness bug: everything the fault
/// injector or crash/replay path can reach. An entry ending in `/` covers
/// every file under that directory.
const FAULT_REACHABLE: &[&str] = &[
    "crates/pfs/src/fault.rs",
    "crates/pfs/src/journal.rs",
    "crates/pfs/src/coherence.rs",
    "crates/pfs/src/file/",
    "crates/pfs/src/server.rs",
    "crates/pfs/src/cache.rs",
    "crates/pfs/src/storage.rs",
];

fn is_fault_reachable(path: &str) -> bool {
    FAULT_REACHABLE.iter().any(|m| path.contains(m))
}

fn is_pfs_src(path: &str) -> bool {
    path.contains("crates/pfs/src/")
}

/// Strip comments and string literals from one line, tracking multi-line
/// state. This is the legacy line-based reference implementation; the
/// live rules run on [`crate::lexer`], and a corpus test keeps the two
/// in agreement. Handles nested `/* /* */ */` block comments (depth
/// counted, not a boolean) and raw strings `r#"…"#` at any `#` depth
/// (where backslashes do *not* escape), including multi-line ones.
#[derive(Default)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct Stripper {
    /// Nesting depth of block comments (`/* /* */ */` needs two closes).
    block_depth: usize,
    /// Inside a multi-line plain string?
    in_str: bool,
    /// Inside a multi-line raw string, with this many closing `#`s.
    in_raw: Option<usize>,
}

impl Stripper {
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn strip(&mut self, line: &str) -> String {
        let b = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            if self.block_depth > 0 {
                if b[i..].starts_with(b"*/") {
                    self.block_depth -= 1;
                    i += 2;
                } else if b[i..].starts_with(b"/*") {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            if self.in_str {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        self.in_str = false;
                        i += 1;
                        out.push('"');
                        continue;
                    }
                    _ => i += 1,
                }
                out.push(' ');
                continue;
            }
            if let Some(hashes) = self.in_raw {
                if b[i] == b'"'
                    && b[i + 1..].len() >= hashes
                    && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
                {
                    self.in_raw = None;
                    i += 1 + hashes;
                    out.push('"');
                } else {
                    i += 1;
                    out.push(' ');
                }
                continue;
            }
            // Raw string openers: r", r#…#", br", cr#…
            if b[i] == b'r' || b[i] == b'b' || b[i] == b'c' {
                let mut j = i;
                if b[j] != b'r' {
                    j += 1;
                }
                if j < b.len() && b[j] == b'r' {
                    let mut k = j + 1;
                    let mut hashes = 0usize;
                    while k < b.len() && b[k] == b'#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'"' {
                        // Don't treat an identifier ending in r (e.g.
                        // `var"…`? not valid Rust) — a raw string opener
                        // can't follow an ident char.
                        let prev_ident =
                            i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
                        if !prev_ident {
                            self.in_raw = Some(hashes);
                            i = k + 1;
                            out.push('"');
                            continue;
                        }
                    }
                }
            }
            match b[i] {
                b'/' if b[i..].starts_with(b"//") => break, // line comment
                b'/' if b[i..].starts_with(b"/*") => {
                    self.block_depth = 1;
                    i += 2;
                    out.push(' ');
                }
                b'"' => {
                    i += 1;
                    out.push('"');
                    self.in_str = true;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                i += 1;
                                self.in_str = false;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    if !self.in_str {
                        out.push('"');
                    }
                }
                b'\'' if i + 2 < b.len() && (b[i + 1] == b'\\' || b[i + 2] == b'\'') => {
                    // char literal ('x' or '\n'); lifetimes ('a) fall through
                    i += 1; // opening quote
                    while i < b.len() && b[i] != b'\'' {
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    i += 1;
                    out.push(' ');
                }
                c => {
                    out.push(c as char);
                    i += 1;
                }
            }
        }
        out
    }
}

/// Token-level R1–R3 over one file. Returns diagnostics *not* matched by
/// the allowlist; matched entries are flagged in `used`.
fn lint_tokens(path: &str, text: &str, allow: &[AllowEntry], used: &mut [bool]) -> Vec<LintDiag> {
    let model = scopes::analyze(text, &HashSet::new());
    let lines: Vec<&str> = text.lines().collect();
    let toks = &model.toks;
    let mut diags = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        let source = lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or_default()
            .to_string();
        match allow_match(allow, path, &source) {
            Some(idx) => {
                if let Some(u) = used.get_mut(idx) {
                    *u = true;
                }
            }
            None => diags.push(LintDiag {
                path: path.to_string(),
                line: line as usize,
                rule,
                message,
                source,
            }),
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if model.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next = toks.get(i + 1);
        match t.text.as_str() {
            "unwrap" | "expect"
                if is_fault_reachable(path)
                    && prev_dot
                    && next.is_some_and(|n| n.is_punct("(")) =>
            {
                push(
                    t.line,
                    "R1",
                    "unwrap()/expect() in a fault-reachable module — use the try_/FsError plumbing"
                        .into(),
                );
            }
            "Mutex" | "RwLock"
                if is_pfs_src(path)
                    && next.is_some_and(|n| {
                        n.is_punct("<")
                            || (n.is_punct("::")
                                && toks.get(i + 2).is_some_and(|m| m.is_ident("new")))
                    }) =>
            {
                push(
                    t.line,
                    "R2",
                    "bare Mutex/RwLock in pfs — use atomio_check::OrderedMutex so the lock-order graph sees it"
                        .into(),
                );
            }
            "Ordering"
                if next.is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|m| m.is_ident("Relaxed")) =>
            {
                push(
                    t.line,
                    "R3",
                    "Ordering::Relaxed outside the allowlist — justify in lintcheck.allow or strengthen"
                        .into(),
                );
            }
            _ => {}
        }
    }
    diags
}

/// Lint one file's source text (R1–R3). `path` is the repo-relative path
/// used in diagnostics and rule scoping.
pub fn lint_source(path: &str, text: &str, allow: &[AllowEntry]) -> Vec<LintDiag> {
    let mut used = vec![false; allow.len()];
    lint_tokens(path, text, allow, &mut used)
}

/// Collect the `.rs` files the analyses apply to: `crates/*/src` and
/// `src/`, skipping `shims/`, `target/`, and `tests/` trees.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            roots.push(c.path().join("src"));
        }
    }
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `(repo-relative path, source text)` pairs, the unit the analyses eat.
type SourceFiles = Vec<(String, String)>;

fn read_workspace(root: &Path) -> std::io::Result<(Vec<AllowEntry>, SourceFiles)> {
    let allow = match std::fs::read_to_string(root.join("lintcheck.allow")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };
    let mut files = Vec::new();
    for file in workspace_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok((allow, files))
}

/// Run R1–R3 over a repo checkout (back-compat entry point; the full
/// gate is [`check_workspace`]). Reads `lintcheck.allow` at the root if
/// present.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<LintDiag>> {
    let (allow, files) = read_workspace(root)?;
    let mut used = vec![false; allow.len()];
    let mut diags = Vec::new();
    for (rel, text) in &files {
        diags.extend(lint_tokens(rel, text, &allow, &mut used));
    }
    Ok(diags)
}

/// The full workspace gate: R1–R3, the static concurrency analyses
/// R4–R6, and stale-allowlist detection.
pub struct WorkspaceReport {
    /// Unsuppressed diagnostics, R1–R6 plus `stale-allow`.
    pub diags: Vec<LintDiag>,
    /// Allowlist entries that suppressed nothing.
    pub unused_allow: Vec<AllowEntry>,
    /// The static analysis (lock classes, edge graph) for reporting.
    pub analysis: StaticAnalysis,
}

/// Run everything over a repo checkout.
pub fn check_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let (allow, files) = read_workspace(root)?;
    let mut used = vec![false; allow.len()];
    let mut diags = Vec::new();
    for (rel, text) in &files {
        diags.extend(lint_tokens(rel, text, &allow, &mut used));
    }
    let analysis = lockgraph::analyze_sources(&files);
    for d in &analysis.diags {
        match allow_match(&allow, &d.path, &d.source) {
            Some(idx) => {
                if let Some(u) = used.get_mut(idx) {
                    *u = true;
                }
            }
            None => diags.push(d.clone()),
        }
    }
    let unused_allow: Vec<AllowEntry> = allow
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    for e in &unused_allow {
        diags.push(LintDiag {
            path: "lintcheck.allow".to_string(),
            line: e.line,
            rule: "stale-allow",
            message: format!(
                "allowlist entry `{} :: {}` suppresses nothing — remove it",
                e.path_suffix, e.needle
            ),
            source: format!("{} :: {}", e.path_suffix, e.needle),
        });
    }
    Ok(WorkspaceReport {
        diags,
        unused_allow,
        analysis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r1_flags_unwrap_in_fault_module() {
        let diags = lint_source("crates/pfs/src/journal.rs", "fn f() { x.unwrap(); }\n", &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "R1");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn r1_ignores_other_modules_and_comments() {
        assert!(lint_source(
            "crates/trace/src/tracer.rs",
            "fn f() { x.unwrap(); }\n",
            &[]
        )
        .is_empty());
        assert!(lint_source(
            "crates/pfs/src/journal.rs",
            "// x.unwrap()\n/* x.expect(\"\") */\nconst S: &str = \".unwrap()\";\n",
            &[],
        )
        .is_empty());
    }

    #[test]
    fn r1_ignores_raw_strings_and_nested_comments() {
        // The two false-positive classes the line Stripper used to have.
        assert!(lint_source(
            "crates/pfs/src/journal.rs",
            "const S: &str = r#\"x.unwrap() \" still a string .expect(\"#;\n/* outer /* inner */ x.unwrap() */\n",
            &[],
        )
        .is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g() { x.unwrap(); }
}
fn h() { y.unwrap(); }
";
        let diags = lint_source("crates/pfs/src/journal.rs", src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn r2_flags_bare_mutex_but_not_ordered_or_guard() {
        let diags = lint_source(
            "crates/pfs/src/lock.rs",
            "struct S { state: Mutex<State>, ordered: OrderedMutex<State> }\nfn f(g: &mut MutexGuard<'_, T>) {}\nfn mk() { let m = Mutex::new(0); }\n",
            &[],
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "R2"));
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn r3_flags_relaxed_everywhere_unless_allowed() {
        let allow =
            parse_allowlist("# comment\ncrates/trace/src/histogram.rs :: Ordering::Relaxed\n");
        assert!(lint_source(
            "crates/trace/src/histogram.rs",
            "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n",
            &allow,
        )
        .is_empty());
        assert_eq!(
            lint_source(
                "crates/trace/src/tracer.rs",
                "fn f() { f.load(Ordering::Relaxed); }\n",
                &allow,
            )
            .len(),
            1
        );
    }

    /// Corpus of tricky snippets: the fixed line [`Stripper`] and the
    /// token lexer must agree on which probe substrings survive
    /// comment/string removal.
    #[test]
    fn stripper_and_lexer_agree_on_corpus() {
        let corpus: &[&str] = &[
            "x.unwrap();",
            "// x.unwrap()",
            "/* x.unwrap() */",
            "/* outer /* inner */ x.unwrap() */ y",
            "/* outer /* inner */ still */ x.unwrap();",
            "let s = \"x.unwrap()\";",
            "let s = r\"x.unwrap()\";",
            "let s = r#\"quote \" x.unwrap()\"#;",
            "let s = r##\"deep \"# x.unwrap()\"##;",
            "let s = br#\"bytes x.unwrap()\"#;",
            "let s = r#\"multi\nline x.unwrap()\nstill\"#; y.unwrap();",
            "let s = \"multi \\\n line\"; x.unwrap();",
            "let c = '\"'; x.unwrap();",
            "let c = '\\''; x.unwrap();",
            "state: Mutex<State>,",
            "let s = \"Mutex<\";",
            "let s = r#\"Mutex< Ordering::Relaxed\"#;",
            "c.fetch_add(1, Ordering::Relaxed);",
            "/* Ordering::Relaxed */ let x = 1;",
        ];
        for snippet in corpus {
            // Stripper view: concatenated stripped lines.
            let mut st = Stripper::default();
            let stripped: String = snippet
                .lines()
                .map(|l| st.strip(l))
                .collect::<Vec<_>>()
                .join("\n");
            // Lexer view: does the token stream contain the pattern?
            let toks = crate::lexer::lex(snippet);
            let tok_has = |name: &str| toks.iter().any(|t| t.is_ident(name));
            assert_eq!(
                stripped.contains(".unwrap()"),
                tok_has("unwrap"),
                "unwrap disagreement on {snippet:?}: stripped={stripped:?}"
            );
            assert_eq!(
                stripped.contains("Mutex<"),
                toks.iter().enumerate().any(|(i, t)| {
                    t.is_ident("Mutex") && toks.get(i + 1).is_some_and(|n| n.is_punct("<"))
                }),
                "Mutex disagreement on {snippet:?}: stripped={stripped:?}"
            );
            assert_eq!(
                stripped.contains("Ordering::Relaxed"),
                tok_has("Relaxed"),
                "Relaxed disagreement on {snippet:?}: stripped={stripped:?}"
            );
        }
    }

    #[test]
    fn stripper_handles_multiline_raw_string() {
        let mut st = Stripper::default();
        let l1 = st.strip("let s = r#\"begin");
        let l2 = st.strip("x.unwrap() inside");
        let l3 = st.strip("end\"#; y.unwrap();");
        assert!(!l1.contains("unwrap"));
        assert!(!l2.contains("unwrap"), "{l2:?}");
        assert!(l3.contains("y.unwrap()"), "{l3:?}");
    }

    #[test]
    fn allowlist_lines_are_tracked() {
        let allow = parse_allowlist("# c\n\na.rs :: foo\nb.rs :: bar\n");
        assert_eq!(allow.len(), 2);
        assert_eq!(allow[0].line, 3);
        assert_eq!(allow[1].line, 4);
    }
}
