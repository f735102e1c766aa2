//! The repo lint pass, token-level since PR 10.
//!
//! * **R1 — no `unwrap()`/`expect()` in fault-reachable modules.** The
//!   fault injector can surface `FsError` on any server round-trip, so
//!   code in the fault/journal/coherence/file/server/cache/storage layer
//!   must propagate errors through the `try_`/`FsError` plumbing, not
//!   panic.
//! * **R2 — no bare `Mutex`/`RwLock` in `crates/pfs`.** All pfs locking
//!   goes through `atomio_check::OrderedMutex` so the runtime lock-order
//!   graph sees every acquisition (the documented state → registry →
//!   cache order, the managers' state-mutex discipline).
//! * **R3 — no `Ordering::Relaxed` outside the allowlist.** A relaxed
//!   cross-thread flag is how the PR 5 coherence bug family starts; every
//!   surviving use must be justified in `lintcheck.allow`.
//! * **R5 — no silently dropped `Result`.** A statement-final call whose
//!   value nothing binds, `?`s or returns (`self.try_x(…);`,
//!   `let _ = …;`) discards the error path the `try_`/`FsError` plumbing
//!   exists for, when the callee is `try_*`, or is called on a path
//!   (`self.f(…)`, `Type::f(…)`) and every workspace `fn` of that name is
//!   declared `-> Result<`.
//!
//! The rules run over [`crate::lexer`] token streams, so string literals
//! (raw, byte, any `#` depth), nested block comments, and doc comments
//! can never false-positive, and `#[test]`/`#[cfg(test)]` items are
//! excluded on the token level.
//!
//! [`check_workspace`] is the full gate: the rules plus
//! **stale-allowlist detection** — every `lintcheck.allow` entry must
//! suppress at least one diagnostic, so dead suppressions rot loudly.
//! Lock holds are checked where a thread really waits, at runtime
//! ([`crate::assert_may_wait`]), and lock order on every acquisition
//! ([`crate::OrderedMutex`]).
//!
//! Allowlist format (`lintcheck.allow` at the repo root): one
//! `path-suffix :: substring` per line; a diagnostic is suppressed if
//! its path ends with the suffix and its source line contains the
//! substring.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
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

/// One lexed source file and which of its tokens sit inside a `#[test]`
/// or `#[cfg(test)]` item (the rules skip those).
struct Lexed {
    toks: Vec<Tok>,
    in_test: Vec<bool>,
}

impl Lexed {
    fn new(text: &str) -> Lexed {
        let toks = lex(text);
        let mut in_test = vec![false; toks.len()];
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
                let close = close_of(&toks, i + 1);
                let attr = toks.get(i + 2..close).unwrap_or_default();
                let first = |name| attr.first().is_some_and(|t| t.is_ident(name));
                if first("test") || (first("cfg") && attr.iter().any(|t| t.is_ident("test"))) {
                    let end = item_end(&toks, close + 1);
                    in_test[i..=end].fill(true);
                    i = end;
                }
            }
            i += 1;
        }
        Lexed { toks, in_test }
    }

    /// Every non-test `fn` item: its name and whether it is declared
    /// `-> Result<` (a path ending in `Result`, so `io::Result<` counts).
    fn fns(&self) -> impl Iterator<Item = (&str, bool)> {
        let toks = &self.toks;
        (1..toks.len())
            .filter(|&i| toks[i - 1].is_ident("fn") && !self.in_test[i])
            .map(|i| {
                (
                    toks[i].text.as_str(),
                    returns_result(toks, i).unwrap_or(false),
                )
            })
    }
}

/// Whether the `fn` named at `name` is declared `-> Result<`.
fn returns_result(toks: &[Tok], name: usize) -> Option<bool> {
    let mut j = name + 1;
    if toks.get(j)?.is_punct("<") {
        let mut depth = 0i32;
        loop {
            depth += match toks.get(j)?.text.as_str() {
                "<" => 1,
                ">" => -1,
                ">>" => -2,
                _ => 0,
            };
            j += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if !toks.get(j)?.is_punct("(") {
        return None;
    }
    let mut k = close_of(toks, j) + 1;
    if !toks.get(k)?.is_punct("->") {
        return None;
    }
    k += 1;
    while toks.get(k + 1).is_some_and(|t| t.is_punct("::")) {
        k += 2;
    }
    Some(toks.get(k)?.is_ident("Result") && toks.get(k + 1)?.is_punct("<"))
}

/// Names whose every workspace `fn` is declared `-> Result<`: a name
/// some definition gives another type (`ClientCache::read`) is ambiguous
/// from tokens, so R5 leaves it to `try_*` naming.
fn fallible_names<'a>(srcs: impl IntoIterator<Item = &'a Lexed>) -> HashSet<&'a str> {
    let mut all: HashMap<&str, bool> = HashMap::new();
    for (name, result) in srcs.into_iter().flat_map(Lexed::fns) {
        *all.entry(name).or_insert(true) &= result;
    }
    all.into_iter()
        .filter(|&(_, r)| r)
        .map(|(n, _)| n)
        .collect()
}

fn opens(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{")
}

fn closes(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), ")" | "]" | "}")
}

/// The bracket closing the one opened at `open` (the last token if none).
fn close_of(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len() - 1
}

/// The bracket opening the one closed at `close` (the first token if none).
fn open_of(toks: &[Tok], close: usize) -> usize {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if closes(&toks[i]) {
            depth += 1;
        } else if opens(&toks[i]) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

/// The `;` or closing `}` that ends the item starting at `start`.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            return close_of(toks, i);
        }
        if toks[i].is_punct(";") {
            return i;
        }
        i = if opens(&toks[i]) {
            close_of(toks, i)
        } else {
            i
        } + 1;
    }
    toks.len() - 1
}

/// First token of the statement holding `at`: just after the nearest
/// `;`, `{` or `}` before it at its own depth. `None` inside `(…)` or
/// `[…]` (`vec![x; n]`), where a `;` ends no statement.
fn stmt_start(toks: &[Tok], at: usize) -> Option<usize> {
    let mut i = at;
    while i > 0 {
        let t = &toks[i - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return Some(i);
        }
        if opens(t) {
            return None;
        }
        i = if closes(t) {
            open_of(toks, i - 1)
        } else {
            i - 1
        };
    }
    Some(0)
}

/// Name tokens of statement-final calls `name(…);` whose value nothing
/// binds, `?`s or returns: the statement does not open with `let x`,
/// `return` or `break`, and assigns nothing (`let _ =` binds nothing).
fn dropped_calls(toks: &[Tok]) -> impl Iterator<Item = usize> + '_ {
    (2..toks.len()).filter_map(|semi| {
        if !toks[semi].is_punct(";") || !toks[semi - 1].is_punct(")") {
            return None;
        }
        let name = open_of(toks, semi - 1).checked_sub(1)?;
        if toks[name].kind != TokKind::Ident || name > 0 && toks[name - 1].is_ident("fn") {
            return None;
        }
        let stmt = &toks[stmt_start(toks, name)?..name];
        let used = match stmt.first() {
            Some(t) if t.is_ident("return") || t.is_ident("break") => true,
            Some(t) if t.is_ident("let") => !(stmt.len() > 2 && stmt[1].is_ident("_")),
            _ => stmt.iter().any(|t| {
                t.kind == TokKind::Punct
                    && t.text.ends_with('=')
                    && !matches!(t.text.as_str(), "==" | "!=" | "<=" | ">=")
            }),
        };
        (!used).then_some(name)
    })
}

/// The token rules over one file. Returns diagnostics *not* matched by
/// the allowlist; matched entries are flagged in `used`.
fn lint_tokens(
    path: &str,
    text: &str,
    src: &Lexed,
    fallible: &HashSet<&str>,
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<LintDiag> {
    let lines: Vec<&str> = text.lines().collect();
    let toks = &src.toks;
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
        if src.in_test[i] || t.kind != TokKind::Ident {
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
    for i in dropped_calls(toks) {
        let t = &toks[i];
        // A fallible name counts on a path receiver only (`self.f(…)`,
        // `Type::f(…)`): a bare call may be a local closure, and a chained
        // call's receiver type is unknown.
        let on_path = i >= 2
            && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::"))
            && toks[i - 2].kind == TokKind::Ident;
        if !src.in_test[i]
            && (t.text.starts_with("try_") || on_path && fallible.contains(t.text.as_str()))
        {
            push(
                t.line,
                "R5",
                format!(
                    "result of fallible `{}` silently dropped — handle, `?`, or bind it",
                    t.text
                ),
            );
        }
    }
    diags
}

/// Lint one file's source text. `path` is the repo-relative path used in
/// diagnostics and rule scoping; R5 knows the `-> Result<` fns of this
/// file only.
pub fn lint_source(path: &str, text: &str, allow: &[AllowEntry]) -> Vec<LintDiag> {
    let src = Lexed::new(text);
    let fallible = fallible_names([&src]);
    let mut used = vec![false; allow.len()];
    lint_tokens(path, text, &src, &fallible, allow, &mut used)
}

/// Collect the `.rs` files the rules apply to: `crates/*/src` and
/// `src/`, skipping `shims/`, `target/`, and `tests/` trees.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
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

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
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

/// The full workspace gate: the token rules and stale-allowlist detection.
pub struct WorkspaceReport {
    /// Unsuppressed diagnostics, plus one `stale-allow` per unused entry.
    pub diags: Vec<LintDiag>,
    /// Allowlist entries that suppressed nothing.
    pub unused_allow: Vec<AllowEntry>,
}

/// Run the gate over a repo checkout. A root without `lintcheck.allow`
/// or without Rust sources under `crates/` is an error, not a clean
/// scan of nothing.
pub fn check_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let allow_path = root.join("lintcheck.allow");
    let allow = std::fs::read_to_string(&allow_path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", allow_path.display())))?;
    let allow = parse_allowlist(&allow);
    let paths = workspace_sources(root)?;
    if !paths.iter().any(|p| p.starts_with(root.join("crates"))) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Rust sources under {}", root.join("crates").display()),
        ));
    }
    let mut files = Vec::new();
    for file in paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&file)?;
        let src = Lexed::new(&text);
        files.push((rel, text, src));
    }
    let fallible = fallible_names(files.iter().map(|(_, _, src)| src));
    let mut used = vec![false; allow.len()];
    let mut diags = Vec::new();
    for (rel, text, src) in &files {
        diags.extend(lint_tokens(rel, text, src, &fallible, &allow, &mut used));
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
    fn test_fns_and_cfg_test_items_are_exempt_to_their_end() {
        let src = "\
#[test]
#[should_panic(expected = \"}\")]
fn t() { if a { x.unwrap(); } x.unwrap(); }
#[cfg(all(test, unix))]
const C: u8 = y.unwrap();
fn h() { z.unwrap(); }
";
        let diags = lint_source("crates/pfs/src/journal.rs", src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn r5_flags_dropped_results_only() {
        let src = "\
trait T { fn try_decl(&self); }
impl M {
    fn try_sync(&self) -> Result<(), E> { Ok(()) }
    fn settle<F: Fn() -> u8>(&self, f: F) -> io::Result<u8> { Ok(f()) }
    fn f(&self) -> Result<(), E> {
        self.try_sync();
        let _ = self.settle(g);
        self.settle(|| 1);
        self.try_sync()?;
        let r = self.settle(g);
        self.last = self.try_sync();
        self.other.try_flush(2).unwrap();
        log!(self.try_sync());
        return self.try_sync();
    }
}
#[cfg(test)]
mod tests { fn t(m: M) { m.try_sync(); } }
";
        let diags = lint_source("crates/x/src/a.rs", src, &[]);
        let got: Vec<_> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(got, vec![("R5", 6), ("R5", 7), ("R5", 8)], "{diags:?}");
        assert!(diags[0].message.contains("`try_sync`"));
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

    /// Tricky snippets and which rule probes survive comment and string
    /// removal: `(snippet, .unwrap(), Mutex<, Ordering::Relaxed)`.
    #[test]
    fn only_code_reaches_the_rules_on_a_tricky_corpus() {
        let corpus: &[(&str, bool, bool, bool)] = &[
            ("x.unwrap();", true, false, false),
            ("// x.unwrap()", false, false, false),
            ("/* x.unwrap() */", false, false, false),
            ("/* outer /* inner */ x.unwrap() */ y", false, false, false),
            (
                "/* outer /* inner */ still */ x.unwrap();",
                true,
                false,
                false,
            ),
            ("let s = \"x.unwrap()\";", false, false, false),
            ("let s = r\"x.unwrap()\";", false, false, false),
            ("let s = r#\"quote \" x.unwrap()\"#;", false, false, false),
            ("let s = r##\"deep \"# x.unwrap()\"##;", false, false, false),
            ("let s = br#\"bytes x.unwrap()\"#;", false, false, false),
            (
                "let s = r#\"multi\nline x.unwrap()\nstill\"#; y.unwrap();",
                true,
                false,
                false,
            ),
            (
                "let s = \"multi \\\n line\"; x.unwrap();",
                true,
                false,
                false,
            ),
            ("let c = '\"'; x.unwrap();", true, false, false),
            ("let c = '\\''; x.unwrap();", true, false, false),
            ("state: Mutex<State>,", false, true, false),
            ("let s = \"Mutex<\";", false, false, false),
            (
                "let s = r#\"Mutex< Ordering::Relaxed\"#;",
                false,
                false,
                false,
            ),
            ("c.fetch_add(1, Ordering::Relaxed);", false, false, true),
            ("/* Ordering::Relaxed */ let x = 1;", false, false, false),
        ];
        for &(snippet, unwrap, mutex, relaxed) in corpus {
            let toks = crate::lexer::lex(snippet);
            let seq = |a: &str, b: &str| toks.windows(2).any(|w| w[0].text == a && w[1].text == b);
            let got = (seq("unwrap", "("), seq("Mutex", "<"), seq("::", "Relaxed"));
            assert_eq!(got, (unwrap, mutex, relaxed), "{snippet:?}");
        }
    }

    #[test]
    fn allowlist_lines_are_tracked() {
        let allow = parse_allowlist("# c\n\na.rs :: foo\nb.rs :: bar\n");
        assert_eq!(allow.len(), 2);
        assert_eq!(allow[0].line, 3);
        assert_eq!(allow[1].line, 4);
    }
}
