//! The fault-path lint gate, run over this workspace exactly as CI runs
//! it: zero findings under the checked-in `lintcheck.allow` (R1–R3, R5
//! plus stale-allowlist detection), every rule demonstrably still bites
//! on seeded violations, and the token guards that keep the workspace's
//! shape: one lock helper in `MpiFile`, a caller for every `pub fn`, and
//! no lock class reachable inside a collective.

use atomio::check::lexer::{lex, Tok, TokKind};
use atomio::check::{
    check_workspace, lint_source, parse_allowlist, workspace_sources, AllowEntry, LintDiag,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file in the repository outside `target/` and dot dirs.
fn repo_rust_files() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("repo tree readable") {
            let path = entry.expect("repo entry readable").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(repo_root(), &mut files);
    files
}

fn checked_in_allowlist() -> Vec<AllowEntry> {
    let text = std::fs::read_to_string(repo_root().join("lintcheck.allow"))
        .expect("lintcheck.allow missing at repo root");
    parse_allowlist(&text)
}

/// Acceptance: the full workspace gate is clean. Every unwrap/expect on
/// a fault-reachable path is either converted to `try_`/`FsError`
/// plumbing or carries a justified allowlist entry; no bare `Mutex`
/// hides from the lock-order engine; every `Ordering::Relaxed` is
/// documented; no fallible result is silently dropped; and — satellite
/// of the same gate — every allowlist entry still suppresses something.
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
}

/// A typo must not pass the gate: a root with nothing to scan is an
/// error, not a clean report.
#[test]
fn workspace_gate_refuses_a_root_with_nothing_to_scan() {
    let root = std::env::temp_dir().join(format!("lintcheck-empty-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create empty root");
    let empty = check_workspace(&root).map(|r| r.diags);
    std::fs::write(root.join("lintcheck.allow"), "# nothing\n").expect("write allowlist");
    let no_crates = check_workspace(&root).map(|r| r.diags);
    std::fs::remove_dir_all(&root).ok();
    assert!(empty.is_err(), "empty root scanned clean: {empty:?}");
    assert!(
        no_crates.is_err(),
        "root without crates/ scanned clean: {no_crates:?}"
    );
}

/// The allowlist only shrinks: a new suppression has to displace an old
/// one. Lower the ceiling whenever an entry goes.
#[test]
fn allowlist_stays_at_or_below_its_ceiling() {
    let allow = checked_in_allowlist();
    assert!(allow.len() <= 5, "{} allowlist entries", allow.len());
}

/// The gate must not be green because it is blind: R1–R3 and R5 still
/// fire on seeded violations under the real, checked-in allowlist.
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

    let dropped_diags = lint_source("crates/pfs/src/seeded.rs", SEEDED, &allow);
    let r5: Vec<&LintDiag> = dropped_diags.iter().filter(|d| d.rule == "R5").collect();
    assert_eq!(r5.len(), 1, "R5 went blind: {dropped_diags:?}");
    assert!(r5[0].source.contains("self.try_poke();"), "{r5:?}");
}

/// A source with one lock-discipline violation per line of `impl
/// Seeded`: a guard held into a collective (`r4`), a dropped fallible
/// result (`r5`) and a rank inversion (`r6`). R5 is a token rule; the
/// collective hold fails `no_lock_class_can_be_held_inside_a_collective`
/// (the classes are built outside `lockclass.rs`); the inversion panics
/// at runtime in `OrderedMutex` (`lockorder::tests`).
const SEEDED: &str = concat!(
    "pub fn sa<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank(\"s.a\", 1, v) }\n",
    "pub fn sb<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank(\"s.b\", 2, v) }\n",
    "impl Seeded {\n",
    "  fn new() -> Seeded { Seeded { a: sa(0), b: sb(0) } }\n",
    "  fn try_poke(&self) -> Result<(), FsError> { Ok(()) }\n",
    "  fn r4(&self) { let g = self.a.lock(); self.comm.barrier(); }\n",
    "  fn r5(&self) { self.try_poke(); }\n",
    "  fn r6(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n",
    "}\n"
);

/// Where every lock class of the workspace is built.
const LOCKCLASS: &str = "crates/pfs/src/lockclass.rs";

/// The premises that keep a thread inside a `Comm` collective
/// (`atomio-msg`'s rendezvous) from holding any lock class, each broken
/// one reported: every `OrderedMutex` outside `crates/check` is built in
/// [`LOCKCLASS`] by a `pub(crate)` fn, no source outside `crates/check`
/// names `OrderedMutexGuard`, and `atomio-pfs` does not depend on
/// `atomio-msg`. A guard then lives only inside pfs calls, and pfs
/// cannot enter a collective.
fn collective_rule_violations(files: &[(String, String)], pfs_manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files
        .iter()
        .filter(|(p, _)| !p.starts_with("crates/check/"))
    {
        let toks = lex(text);
        for (i, t) in toks.iter().enumerate() {
            let ctor = t.is_ident("OrderedMutex")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("new") || n.is_ident("with_rank"));
            if ctor && path != LOCKCLASS {
                out.push(format!(
                    "{path}:{}: lock class built outside {LOCKCLASS}",
                    t.line
                ));
            }
            if t.is_ident("OrderedMutexGuard") {
                out.push(format!("{path}:{}: names OrderedMutexGuard", t.line));
            }
            let vis: Vec<&str> = toks[i.saturating_sub(4)..i]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if path == LOCKCLASS && t.is_ident("fn") && vis != ["pub", "(", "crate", ")"] {
                out.push(format!(
                    "{path}:{}: class constructor not pub(crate)",
                    t.line
                ));
            }
        }
    }
    if pfs_manifest
        .lines()
        .any(|l| l.trim_start().starts_with("atomio-msg"))
    {
        out.push("crates/pfs/Cargo.toml depends on atomio-msg".to_string());
    }
    out
}

fn pfs_manifest() -> String {
    std::fs::read_to_string(repo_root().join("crates/pfs/Cargo.toml")).expect("pfs manifest")
}

/// The collective rendezvous is the one host wait with no runtime hold
/// check (a hook would add an `atomio-msg` → `atomio-check` edge), so
/// the workspace's shape proves no guard can be held there.
#[test]
fn no_lock_class_can_be_held_inside_a_collective() {
    let files: Vec<(String, String)> = repo_rust_files()
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(repo_root()).unwrap_or(&path);
            let text = std::fs::read_to_string(&path).expect("source readable");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect();
    assert!(files.iter().any(|(p, _)| p == LOCKCLASS));
    let violations = collective_rule_violations(&files, &pfs_manifest());
    assert!(violations.is_empty(), "{violations:#?}");
}

/// ... and that proof bites on each planted break of a premise.
#[test]
fn collective_rule_bites_on_planted_sources() {
    let manifest = pfs_manifest();
    for (path, text, why) in [
        ("crates/pfs/src/seeded.rs", SEEDED, "built outside"),
        (
            "crates/core/src/seeded.rs",
            "fn hold(g: OrderedMutexGuard<'_, u8>, comm: &Comm) { comm.barrier(); }\n",
            "names OrderedMutexGuard",
        ),
        (
            LOCKCLASS,
            "pub fn leak<T>(v: T) -> OrderedMutex<T> { OrderedMutex::new(\"pfs.leak\", v) }\n",
            "not pub(crate)",
        ),
    ] {
        let found = collective_rule_violations(&[(path.into(), text.into())], &manifest);
        assert!(
            !found.is_empty() && found.iter().all(|v| v.contains(why)),
            "{path}: {found:?}"
        );
    }
    let with_msg = format!("{manifest}atomio-msg = {{ path = \"../msg\" }}\n");
    assert_eq!(collective_rule_violations(&[], &with_msg).len(), 1);
}

/// `MpiFile` takes every byte-range lock in one helper, so a collective
/// call cannot skip the handshake: `crates/core/src` holds exactly one
/// `.lock_set(` and one `.lock_set_two_phase(` call. Counted on tokens,
/// so comments and doc links do not count.
#[test]
fn core_takes_every_lock_in_one_place() {
    let core = repo_root().join("crates/core/src");
    let toks: Vec<Tok> = workspace_sources(repo_root())
        .expect("workspace sources readable")
        .into_iter()
        .filter(|path| path.starts_with(&core))
        .flat_map(|path| lex(&std::fs::read_to_string(path).expect("core source readable")))
        .collect();
    for call in ["lock_set", "lock_set_two_phase"] {
        let sites = toks
            .windows(3)
            .filter(|w| w[0].is_punct(".") && w[1].is_ident(call) && w[2].is_punct("("))
            .count();
        assert_eq!(sites, 1, "`.{call}(` call sites in crates/core/src");
    }
}

/// One `pub fn` under `crates/*/src`: its name, where it is, the type
/// whose `impl` block holds it (`None` for a free fn) and whether it
/// takes `self`.
struct PubFn {
    name: String,
    site: String,
    owner: Option<String>,
    takes_self: bool,
}

/// How far `t` moves the generic-angle depth.
fn angle_step(t: &Tok) -> i32 {
    match t.text.as_str() {
        "<" => 1,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// The type an item-level `impl` header at `toks[at]` implements for:
/// the last path segment after `for`, or after the generics when there
/// is no `for`. `None` when `impl` is in type position (`-> impl Fn`).
fn impl_owner(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let item_start = at == 0
        || ["}", ";", "{", "]"]
            .iter()
            .any(|p| toks[at - 1].is_punct(p))
        || toks[at - 1].is_ident("unsafe");
    if !item_start {
        return None;
    }
    let (mut angle, mut owner, mut in_where) = (0i32, None, false);
    for (j, t) in toks.iter().enumerate().skip(at + 1) {
        angle += angle_step(t);
        match t.text.as_str() {
            "{" if angle == 0 => return owner.map(|o| (o, j)),
            "where" => in_where = true,
            _ if angle == 0 && !in_where && t.kind == TokKind::Ident => {
                owner = (t.text != "for").then(|| t.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// Whether the `fn` whose name is `toks[at]` takes `self`: its first
/// parameter, after the generics, names `self` before any `:`.
fn takes_self(toks: &[Tok], at: usize) -> bool {
    let mut angle = 0i32;
    let Some(open) = toks[at..].iter().position(|t| {
        angle += angle_step(t);
        angle == 0 && t.is_punct("(")
    }) else {
        return false;
    };
    toks[at + open + 1..]
        .iter()
        .take_while(|t| !(t.is_punct(":") || t.is_punct(",") || t.is_punct(")")))
        .any(|t| t.is_ident("self"))
}

/// Every `pub fn` under `crates/*/src` has a caller somewhere in the
/// repository — library code, tests, benches, examples or the frozen
/// `benchmark/` package. A name is called when it appears as an
/// identifier token anywhere except right after `fn`, so comments, doc
/// text and strings do not count. A name several `pub fn`s share needs
/// more: an associated fn without `self` counts as called only through
/// `Type::name`, or `Self::name` inside an `impl Type`, so a called
/// `Tracer::disabled` cannot hide an uncalled `disabled` of another type.
/// There is no allowlist: an uncalled function is deleted, not excused.
#[test]
fn every_pub_fn_is_called_somewhere() {
    let lib_sources: HashSet<PathBuf> = workspace_sources(repo_root())
        .expect("workspace sources readable")
        .into_iter()
        .filter(|path| path.starts_with(repo_root().join("crates")))
        .collect();
    let files = repo_rust_files();

    let mut called: HashSet<String> = HashSet::new();
    let mut called_on: HashSet<(String, String)> = HashSet::new();
    let mut defined: Vec<PubFn> = Vec::new();
    for path in &files {
        let toks = lex(&std::fs::read_to_string(path).expect("source readable"));
        // Open `impl` blocks: (brace depth inside the body, owner type).
        let mut impls: Vec<(usize, String)> = Vec::new();
        let (mut depth, mut body_at) = (0usize, None);
        for (i, t) in toks.iter().enumerate() {
            if t.is_punct("{") {
                depth += 1;
                if body_at.as_ref().is_some_and(|(j, _)| *j == i) {
                    let (_, owner) = body_at.take().expect("checked above");
                    impls.push((depth, owner));
                }
            } else if t.is_punct("}") {
                if impls.last().is_some_and(|(d, _)| *d == depth) {
                    impls.pop();
                }
                depth = depth.saturating_sub(1);
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.is_ident("impl") {
                if let Some((owner, open)) = impl_owner(&toks, i) {
                    body_at = Some((open, owner));
                }
            }
            if i == 0 || !toks[i - 1].is_ident("fn") {
                called.insert(t.text.clone());
                if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].kind == TokKind::Ident {
                    let ty = match toks[i - 2].text.as_str() {
                        "Self" => impls.last().map(|(_, o)| o.clone()).unwrap_or_default(),
                        ty => ty.to_string(),
                    };
                    called_on.insert((ty, t.text.clone()));
                }
            } else if i >= 2 && toks[i - 2].is_ident("pub") && lib_sources.contains(path) {
                let rel = path.strip_prefix(repo_root()).unwrap_or(path);
                defined.push(PubFn {
                    name: t.text.clone(),
                    site: format!("{}:{}", rel.display(), t.line),
                    owner: impls.last().map(|(_, o)| o.clone()),
                    takes_self: takes_self(&toks, i),
                });
            }
        }
    }
    assert!(defined.len() > 100, "found only {} pub fns", defined.len());
    let shared = |name: &str| defined.iter().filter(|f| f.name == name).count() > 1;
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|f| match &f.owner {
            Some(ty) if !f.takes_self && shared(&f.name) => {
                !called_on.contains(&(ty.clone(), f.name.clone()))
            }
            _ => !called.contains(&f.name),
        })
        .map(|f| format!("{}: {}", f.site, f.name))
        .collect();
    assert!(
        uncalled.is_empty(),
        "pub fns nothing calls:\n{}",
        uncalled.join("\n")
    );
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
