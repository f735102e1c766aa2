//! The source rules the compiler cannot check, over [`lex`] tokens. R1
//! (no `unwrap`/`expect` on fault-reachable paths), R2 (no bare
//! `Mutex`/`RwLock` in pfs), R5 (no silently dropped `Result`) and the
//! public-surface rule (no `pub` item its crate root does not export) are
//! clippy and rustc lint levels, enforced by `cargo clippy --workspace
//! --all-targets -- -D warnings`; this file pins their configuration and
//! caps their exceptions. R3 (no `Ordering::Relaxed` outside a justified
//! list) is a token test here, as are the guards that keep the
//! workspace's shape: one lock helper in `MpiFile`, a caller for every
//! `pub fn`, and no lock class reachable inside a collective.

use atomio::check::lexer::{lex, Tok, TokKind};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file in the repository outside `target/` and dot dirs.
fn repo_files() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("repo tree readable") {
            let path = entry.expect("repo entry readable").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(repo_root(), &mut files);
    files
}

/// Every `.rs` file in the repository outside `target/` and dot dirs.
fn repo_rust_files() -> Vec<PathBuf> {
    let mut files = repo_files();
    files.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
    files
}

/// `path` relative to the repo root, with `/` separators.
fn rel(path: &Path) -> String {
    let rel = path.strip_prefix(repo_root()).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// The library sources: every `.rs` file under `crates/*/src` and `src/`.
fn crate_sources() -> Vec<PathBuf> {
    repo_rust_files()
        .into_iter()
        .filter(|path| {
            let rel = rel(path);
            let parts: Vec<&str> = rel.split('/').collect();
            parts[0] == "src" || parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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

/// Every attribute, outer (`#[…]`) or inner (`#![…]`): the index of its
/// `#`, its contents and the index of its closing `]`.
fn attributes(toks: &[Tok]) -> impl Iterator<Item = (usize, &[Tok], usize)> {
    (0..toks.len()).filter_map(|i| {
        let bang = toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
        let open = i + 1 + usize::from(bang);
        (toks[i].is_punct("#") && toks.get(open)?.is_punct("[")).then(|| {
            let close = close_of(toks, open);
            (i, &toks[open + 1..close], close)
        })
    })
}

/// Which tokens sit inside a `#[test]` or `#[cfg(test)]` item, attributes
/// included: test code is outside every source rule.
fn in_test(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for (at, attr, close) in attributes(toks) {
        let first = |name| attr.first().is_some_and(|t| t.is_ident(name));
        if first("test") || first("cfg") && attr.iter().any(|t| t.is_ident("test")) {
            mask[at..=item_end(toks, close + 1)].fill(true);
        }
    }
    mask
}

/// R3: the files where non-test code may use `Ordering::Relaxed`, each
/// with its reason. Everywhere else a cross-thread flag or hand-off must
/// say which ordering it needs: a relaxed flag is how the revocation
/// visibility bug family starts.
const RELAXED: &[(&str, &str)] = &[
    (
        "crates/pfs/src/stats.rs",
        "monotonic statistics counters (client and fault): an increment carries no \
         payload another thread reads through it, and a snapshot tolerates a torn \
         cross-counter view (counts are diagnostics, never control flow)",
    ),
    (
        "crates/trace/src/histogram.rs",
        "latency histogram buckets: the same monotonic-counter argument; a snapshot \
         may see a record in flight, which only shifts one count between two reads",
    ),
];

/// Non-test `Ordering::Relaxed` uses in `files` outside [`RELAXED`].
fn relaxed_violations(files: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        if RELAXED.iter().any(|(listed, _)| listed == path) {
            continue;
        }
        let toks = lex(text);
        let test = in_test(&toks);
        for (i, w) in toks.windows(3).enumerate() {
            if !test[i]
                && w[0].is_ident("Ordering")
                && w[1].is_punct("::")
                && w[2].is_ident("Relaxed")
            {
                out.push(format!("{path}:{}: Ordering::Relaxed", w[0].line));
            }
        }
    }
    out
}

/// R3 holds over the library sources, and it bites on a planted use
/// outside the list, but not on one in a test item or in a listed file.
#[test]
fn relaxed_ordering_stays_in_its_listed_files() {
    let files: Vec<(String, String)> = crate_sources()
        .into_iter()
        .map(|path| (rel(&path), read(&path)))
        .collect();
    for (listed, _) in RELAXED {
        assert!(files.iter().any(|(p, _)| p == listed), "{listed} is gone");
    }
    let violations = relaxed_violations(&files);
    assert!(violations.is_empty(), "{violations:#?}");

    let load = "fn g(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    let planted = |path: &str, text: &str| relaxed_violations(&[(path.into(), text.into())]);
    assert_eq!(planted("crates/trace/src/tracer.rs", load).len(), 1);
    assert_eq!(planted("crates/pfs/src/fault.rs", load).len(), 1);
    assert!(planted(RELAXED[0].0, load).is_empty());
    let in_tests = format!("#[cfg(test)]\nmod tests {{ {load} }}\n#[test]\n{load}");
    assert!(planted("crates/trace/src/tracer.rs", &in_tests).is_empty());
}

/// The modules R1 covers: everything the fault injector or the
/// crash/replay path can reach (`file/mod.rs` covers `file/*`).
const FAULT_REACHABLE: [&str; 7] = [
    "crates/pfs/src/fault.rs",
    "crates/pfs/src/journal.rs",
    "crates/pfs/src/coherence.rs",
    "crates/pfs/src/file/mod.rs",
    "crates/pfs/src/server.rs",
    "crates/pfs/src/cache.rs",
    "crates/pfs/src/storage.rs",
];

/// The `key = value` lines of one `[table]` of a TOML file, comments and
/// blank lines dropped.
fn toml_table(text: &str, table: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != table)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The compiler enforces R1, R2 and R5 only while their configuration
/// is in place: each fault-reachable module denies `unwrap`/`expect`,
/// `crates/pfs/clippy.toml` disallows the four bare lock types (and
/// lets tests unwrap), and every workspace manifest takes the
/// workspace's R5 and `unreachable_pub` lint levels.
#[test]
fn lint_levels_are_pinned() {
    for module in FAULT_REACHABLE {
        let toks: String = lex(&read(&repo_root().join(module)))
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(
            toks.contains("#![deny(clippy::unwrap_used,clippy::expect_used)]"),
            "{module} lost its R1 deny"
        );
    }

    let clippy = read(&repo_root().join("crates/pfs/clippy.toml"));
    let clippy: Vec<&str> = clippy.lines().filter(|l| !l.starts_with('#')).collect();
    for needle in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "path = \"parking_lot::Mutex\"",
        "path = \"parking_lot::RwLock\"",
        "path = \"std::sync::Mutex\"",
        "path = \"std::sync::RwLock\"",
    ] {
        assert!(
            clippy.iter().any(|l| l.contains(needle)),
            "clippy.toml lacks {needle}"
        );
    }

    let root = read(&repo_root().join("Cargo.toml"));
    assert_eq!(
        toml_table(&root, "[workspace.lints.rust]"),
        ["unused_must_use = \"deny\"", "unreachable_pub = \"deny\""]
    );
    assert_eq!(
        toml_table(&root, "[workspace.lints.clippy]"),
        ["let_underscore_must_use = \"deny\""]
    );
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("crates/ readable") {
        manifests.push(entry.expect("crate entry").path().join("Cargo.toml"));
    }
    for manifest in manifests {
        assert_eq!(
            toml_table(&read(&manifest), "[lints]"),
            ["workspace = true"],
            "{}",
            manifest.display()
        );
    }
}

/// The lints the R1, R2 and R5 gates and the public-surface rule set.
const GATE_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "disallowed_types",
    "unused_must_use",
    "let_underscore_must_use",
    "unreachable_pub",
];

/// Exceptions only shrink: the non-test `allow`/`expect` attributes that
/// name a gate lint, plus R3's [`RELAXED`] files, stay at or below the
/// ceiling. A new exception has to displace an old one; lower the
/// ceiling whenever one goes. Test items are outside the gates already,
/// so an attribute on one does not count.
#[test]
fn lint_exceptions_stay_at_or_below_their_ceiling() {
    let mut exceptions: Vec<String> = RELAXED.iter().map(|(p, _)| p.to_string()).collect();
    for path in repo_rust_files() {
        let rel = rel(&path);
        if rel.starts_with("benchmark/") || rel.starts_with("shims/") {
            continue;
        }
        let toks = lex(&read(&path));
        let test = in_test(&toks);
        for (at, attr, _) in attributes(&toks) {
            let level = attr
                .first()
                .is_some_and(|t| t.is_ident("allow") || t.is_ident("expect"));
            if level && !test[at] && attr.iter().any(|t| GATE_LINTS.contains(&t.text.as_str())) {
                exceptions.push(format!("{rel}:{}", toks[at].line));
            }
        }
    }
    assert!(
        exceptions.len() <= 4,
        "{} lint exceptions: {exceptions:#?}",
        exceptions.len()
    );
}

/// A source with one lock-discipline violation per line of `impl
/// Seeded`: a guard held into a collective (`r4`) and a rank inversion
/// (`r6`). The collective hold fails `no_lock_class_can_be_held_inside_a_collective`
/// (the classes are built outside `lockclass.rs`); the inversion panics
/// at runtime in `OrderedMutex` (`lockorder::tests`).
const SEEDED: &str = concat!(
    "pub fn sa<T>(v: T) -> OrderedMutex<T> { OrderedMutex::new(\"s.a\", 1, v) }\n",
    "pub fn sb<T>(v: T) -> OrderedMutex<T> { OrderedMutex::new(\"s.b\", 2, v) }\n",
    "impl Seeded {\n",
    "  fn new() -> Seeded { Seeded { a: sa(0), b: sb(0) } }\n",
    "  fn r4(&self) { let g = self.a.lock(); self.comm.barrier(); }\n",
    "  fn r6(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n",
    "}\n"
);

/// Where every lock class of the workspace is built.
const LOCKCLASS: &str = "crates/pfs/src/lockclass.rs";

/// The premises that keep a thread inside a `Comm` collective
/// (`atomio-msg`'s rendezvous) from holding any lock class, each broken
/// one reported: every `OrderedMutex` outside `crates/check` is built in
/// [`LOCKCLASS`] by a `pub(crate)` fn (its test module aside, as test
/// code is outside every source rule), no source outside `crates/check`
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
        let test = in_test(&toks);
        for (i, t) in toks.iter().enumerate() {
            let ctor = t.is_ident("OrderedMutex")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("new"));
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
            if path == LOCKCLASS
                && !test[i]
                && t.is_ident("fn")
                && vis != ["pub", "(", "crate", ")"]
            {
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
            "pub fn leak<T>(v: T) -> OrderedMutex<T> { OrderedMutex::new(\"pfs.leak\", 1, v) }\n",
            "not pub(crate)",
        ),
    ] {
        let found = collective_rule_violations(&[(path.into(), text.into())], &manifest);
        assert!(
            !found.is_empty() && found.iter().all(|v| v.contains(why)),
            "{path}: {found:?}"
        );
    }
    let unit_test = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n";
    assert_eq!(
        collective_rule_violations(&[(LOCKCLASS.into(), unit_test.into())], &manifest),
        Vec::<String>::new()
    );
    let with_msg = format!("{manifest}atomio-msg = {{ path = \"../msg\" }}\n");
    assert_eq!(collective_rule_violations(&[], &with_msg).len(), 1);
}

/// The names the frozen `benchmark/` package spells and nothing else may,
/// each with its home: the file and the one line there that defines it.
/// Every name is spelled in two halves so that this file does not say it.
const BENCHMARK_NAMES: [(&str, &str, &str); 3] = [
    (
        concat!("Interval", "Set"),
        "crates/interval/src/lib.rs",
        concat!("pub type ", "Interval", "Set = StridedSet;"),
    ),
    (
        concat!("try_", "pwrite"),
        "crates/pfs/src/file/mod.rs",
        concat!(
            "pub fn try_",
            "pwrite(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {"
        ),
    ),
    (
        concat!("try_", "pwrite_direct"),
        "crates/pfs/src/file/mod.rs",
        concat!(
            "pub fn try_",
            "pwrite_direct(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {"
        ),
    ),
];

/// Whether `line` says the identifier `name` whole, not as the head or
/// tail of a longer identifier.
fn says(line: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(name)
        .any(|(at, _)| !line[..at].ends_with(ident) && !line[at + name.len()..].starts_with(ident))
}

/// Every `file:line` under `crates/`, `src/`, `tests/` or `examples/` that
/// says `name`, except its home line and the comments of its home file.
fn spellings(files: &[(String, String)], (name, home, defined): (&str, &str, &str)) -> Vec<String> {
    let scoped = |rel: &str| {
        let top = rel.split('/').next().unwrap_or_default();
        ["crates", "src", "tests", "examples"].contains(&top)
    };
    let mut found = Vec::new();
    for (rel, text) in files.iter().filter(|(rel, _)| scoped(rel)) {
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            let at_home = rel == home && (line == defined || line.starts_with("//"));
            if says(line, name) && !at_home {
                found.push(format!("{rel}:{}", i + 1));
            }
        }
    }
    found
}

/// One home per name the frozen `benchmark/` package spells. The old dense
/// byte-set type survives only as an alias, and the two one-segment writes
/// only as one-line forms of `PosixFile::write`; no library code, test or
/// example may use them.
#[test]
fn every_benchmark_name_is_spelled_only_at_its_home() {
    let files: Vec<(String, String)> = repo_files()
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).expect("file readable");
            (rel(path), String::from_utf8_lossy(&bytes).into_owned())
        })
        .collect();
    let planted = |rel: &str, text: &str| vec![(rel.to_string(), text.to_string())];
    for row @ (name, home, defined) in BENCHMARK_NAMES {
        assert!(
            files
                .iter()
                .any(|(rel, text)| rel == home && text.lines().any(|l| l.trim() == defined)),
            "{home} lost `{defined}`"
        );
        let found = spellings(&files, row);
        assert!(
            found.is_empty(),
            "{name} spelled outside its home: {found:?}"
        );
        // The rule bites: a use anywhere in scope and a code line beside the
        // home line, but not the home line, a comment at home, `benchmark/`
        // or a longer identifier.
        let code = format!("let x = {name}(all);");
        assert_eq!(
            spellings(&planted("tests/x.rs", &format!("\n{code}")), row),
            ["tests/x.rs:2"],
            "{name}"
        );
        assert_eq!(spellings(&planted(home, &code), row).len(), 1, "{name}");
        assert_eq!(
            spellings(&planted("examples/x.md", &code), row).len(),
            1,
            "{name}"
        );
        let quiet = [
            ("benchmark/src/probes.rs", code.clone()),
            (home, format!("    {defined}")),
            (home, format!("// {code}")),
            ("tests/x.rs", format!("let x = {name}_direct(all);")),
        ];
        for (rel, text) in quiet {
            assert!(
                spellings(&planted(rel, &text), row).is_empty(),
                "{rel}: {text}"
            );
        }
    }
}

/// `MpiFile` takes every byte-range lock in one helper, so a collective
/// call cannot skip the handshake: `crates/core/src` holds exactly one
/// `.lock_set(` and one `.lock_set_two_phase(` call. Counted on tokens,
/// so comments and doc links do not count.
#[test]
fn core_takes_every_lock_in_one_place() {
    let core = repo_root().join("crates/core/src");
    let toks: Vec<Tok> = crate_sources()
        .into_iter()
        .filter(|path| path.starts_with(&core))
        .flat_map(|path| lex(&read(&path)))
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
/// `benchmark/` package. A name is called only through call or path
/// syntax: `.name(` (or `.name::<…>(`), `::name`, or a bare `name(`.
/// Comments, doc text and strings do not count, and neither does a bare
/// identifier, so a field or a local sharing the name hides nothing. A
/// name several `pub fn`s share needs more: an associated fn without
/// `self` counts as called only through `Type::name`, or `Self::name`
/// inside an `impl Type`, so a called `Tracer::disabled` cannot hide an
/// uncalled `disabled` of another type.
/// There is no allowlist: an uncalled function is deleted, not excused.
#[test]
fn every_pub_fn_is_called_somewhere() {
    let lib_sources: HashSet<PathBuf> = crate_sources()
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
                let after = |p: &str| i > 0 && toks[i - 1].is_punct(p);
                let then = |p: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(p));
                // A call (`name(`, `.name(`, `.name::<…>(`) or a path.
                if !(then("(") || after(".") && then("::") || after("::")) {
                    continue;
                }
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
