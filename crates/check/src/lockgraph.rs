//! The static lock-order graph and the R4–R6 analyses.
//!
//! Built on [`crate::scopes`] guard-lifetime inference, this pass
//! assembles a whole-workspace picture of the locking discipline *before
//! any schedule runs*:
//!
//! 1. **Class table** — every `OrderedMutex::with_rank("class", rank, …)`
//!    / `OrderedMutex::new("class", …)` construction site defines a lock
//!    class; the `lockclass::*` wrapper functions are resolved so a call
//!    like `lockclass::cache(…)` binds its receiver to `pfs.cache`.
//! 2. **Receiver resolution** — a guard receiver (`self.cache.lock()` →
//!    `cache`) is mapped to a class by, in order: the enclosing impl
//!    type's field bindings, the file's local bindings, a globally
//!    unambiguous binding, and finally a per-file pseudo-class
//!    `<stem>.<receiver>` so undeclared (bare parking_lot) mutexes still
//!    participate in cycle detection.
//! 3. **Function summaries** — one per definition, keyed `(name, arity)`
//!    so e.g. the 1-arg `RevocationHandler::granted` and the 3-arg
//!    `PosixFile::granted` stay distinct. Call sites resolve to at most
//!    one definition (`self.` calls within the impl; otherwise a unique,
//!    shape-compatible definition whose name doesn't shadow a ubiquitous
//!    std method). A fixpoint closes `may_acquire` (classes a call may
//!    take) and `may_block` (reaches a blocking seed) over the call
//!    graph.
//! 4. **Edges** — class H → class C whenever C is acquired (directly or
//!    via any resolved callee) while a guard of H is live.
//!
//! The analyses gate CI through `lintcheck`:
//!
//! * **R4** — no lock guard live across a blocking call. Seeds:
//!   [`BLOCKING_SEEDS`] (channel `send`/`recv`, `Comm` collectives via
//!   `rendezvous`, `LockManager::acquire_set`/`wait_granted_set`, server
//!   round-trips via `try_pread`/`try_pwrite`/`try_sync`/`server_rpc`);
//!   everything that can reach one transitively is blocking too.
//! * **R5** — no silently dropped `Result` from the `try_`/`FsError`
//!   plumbing: a statement-final call whose value nothing consumes, where
//!   the callee is `try_*` or resolves to a `Result`-returning workspace
//!   fn. `?`, bindings, and macro arguments don't count.
//! * **R6** — the static lock-order graph must be acyclic and respect
//!   the declared `with_rank` chain (an edge from rank r₁ to r₂ needs
//!   r₁ < r₂). The runtime-discovered graph ([`crate::lockorder`]) is
//!   cross-validated as a subset in `tests/check_static.rs`.

use crate::lexer::TokKind;
use crate::lint::LintDiag;
use crate::lockorder::LockEdge;
use crate::scopes::{self, FileModel};
use atomio_trace::object;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

/// Function names treated as blocking a priori. Deliberately *not*
/// including common names like `split`/`gather`/`scan` (too collision
/// prone — `str::split` would light up); the `Comm` collectives built on
/// them are caught transitively through `rendezvous`.
pub const BLOCKING_SEEDS: &[&str] = &[
    "send",
    "recv",
    "barrier",
    "allgather",
    "alltoallv",
    "gatherv",
    "rendezvous",
    "acquire_set",
    "wait_granted_set",
    "try_pread",
    "try_pwrite",
    "try_sync",
    "server_rpc",
    // The vtime server round-trip primitives (`ServerSet`): every
    // remote-I/O path funnels through these.
    "access",
    "serve_piece",
];

/// One statically derived may-hold-while-acquiring edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaticEdge {
    pub from: String,
    pub to: String,
    /// Repo-relative file of the witnessing acquisition/call site.
    pub file: String,
    pub line: u32,
}

/// Whole-workspace static concurrency analysis.
pub struct StaticAnalysis {
    /// Declared lock classes → rank (None for unranked).
    pub classes: BTreeMap<String, Option<u32>>,
    /// Deduped (from, to) edges, sorted; the site is the lexicographically
    /// first witness.
    pub edges: Vec<StaticEdge>,
    /// R4/R5/R6 diagnostics, *before* allowlist filtering.
    pub diags: Vec<LintDiag>,
}

/// Method names shadowing ubiquitous std / collection methods. A call to
/// one of these never resolves to a workspace definition unless it is a
/// `self.` call inside the defining impl — otherwise `std::mem::take` in
/// a journal would "call" `MsgQueue::take` and every map `.insert` would
/// alias whichever workspace type happens to define `insert`.
const STD_COLLIDERS: &[&str] = &[
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "take",
    "replace",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clone",
    "cloned",
    "copied",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "fold",
    "any",
    "all",
    "find",
    "position",
    "count",
    "collect",
    "extend",
    "entry",
    "or_insert",
    "or_default",
    "and_then",
    "or_else",
    "min",
    "max",
    "sum",
    "rev",
    "last",
    "first",
    "sort",
    "sort_by",
    "sort_by_key",
    "retain",
    "drain",
    "split",
    "split_at",
    "split_off",
    "join",
    "to_vec",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "new",
    "default",
    "eq",
    "cmp",
    "fmt",
    "write",
    "read",
    "flush",
    "wait",
    "wait_for",
    "notify_all",
    "notify_one",
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "truncate",
    "resize",
];

/// First path segments that mark a call as rooted outside the workspace
/// (`std::mem::take`, `Vec::with_capacity`, …).
const EXTERN_QUALS: &[&str] = &[
    "std", "core", "alloc", "mem", "ptr", "fmt", "fs", "cmp", "iter", "slice", "str", "thread",
    "process", "env", "io", "sync", "atomic", "time", "Box", "Vec", "Arc", "Rc", "String",
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Option", "Some", "Ok", "Err",
    "Result", "Ordering", "Duration", "Instant", "Path", "PathBuf",
];

pub fn analyze_sources(files: &[(String, String)]) -> StaticAnalysis {
    // Pass A: signatures only, to learn guard-returning helper names.
    let empty = HashSet::new();
    let mut guard_fns: HashSet<String> = HashSet::new();
    for (_, text) in files {
        for f in &scopes::analyze(text, &empty).fns {
            if f.returns_guard {
                guard_fns.insert(f.name.clone());
            }
        }
    }
    // Pass B: full guard-lifetime analysis.
    let models: Vec<(&str, FileModel)> = files
        .iter()
        .map(|(p, t)| (p.as_str(), scopes::analyze(t, &guard_fns)))
        .collect();

    // Class table from OrderedMutex construction sites.
    let mut classes: BTreeMap<String, Option<u32>> = BTreeMap::new();
    let mut ctor_fns: HashMap<String, String> = HashMap::new();
    for (path, m) in &models {
        collect_classes(path, m, &mut classes, &mut ctor_fns);
    }

    // Receiver → class binding maps.
    let mut by_type: HashMap<(String, String), String> = HashMap::new();
    let mut by_file: HashMap<(String, String), String> = HashMap::new();
    let mut global: HashMap<String, BTreeSet<String>> = HashMap::new();
    for (path, m) in &models {
        collect_bindings(
            path,
            m,
            &classes,
            &ctor_fns,
            &mut by_type,
            &mut by_file,
            &mut global,
        );
    }

    // Receiver-variable types from `let x = [Arc::new(] Type::ctor(…)`
    // bindings: used to pick between same-named methods on different
    // types (`coherence.bind_faults(…)` → `CoherenceHub::bind_faults`,
    // not `ServerSet::bind_faults`). Keyed per file — the same short name
    // (`file`, `fs`, `stats`) binds different types in different files —
    // and only a within-file *unambiguous* name narrows anything.
    let mut var_types: HashMap<(String, String), BTreeSet<String>> = HashMap::new();
    for (path, m) in &models {
        collect_var_types(path, m, &mut var_types);
    }

    // Per-definition function summaries. The same (name, arity) may be
    // defined on several types — resolution discriminates between the
    // definitions and only unions them for *trait-declared* methods,
    // where a call is dynamic dispatch over every implementation (a
    // blanket union would turn every generically named method into a
    // false cross-crate call edge).
    struct DefSum {
        path: String,
        impl_type: Option<String>,
        in_trait: bool,
        seed: bool,
        returns_result: bool,
        acquire_classes: BTreeSet<String>,
        calls: Vec<(String, usize, Option<String>, Option<String>)>,
    }
    let mut defs: Vec<DefSum> = Vec::new();
    let mut by_key: HashMap<(String, usize), Vec<usize>> = HashMap::new();
    let mut trait_methods: HashSet<(String, usize)> = HashSet::new();
    for (path, m) in &models {
        for f in &m.fns {
            if f.in_trait {
                trait_methods.insert((f.name.clone(), f.arity));
            }
            let mut acquire_classes = BTreeSet::new();
            for a in &f.acquires {
                acquire_classes.insert(resolve_class(
                    &a.receiver,
                    f.impl_type.as_deref(),
                    path,
                    &by_type,
                    &by_file,
                    &global,
                ));
            }
            by_key
                .entry((f.name.clone(), f.arity))
                .or_default()
                .push(defs.len());
            defs.push(DefSum {
                path: path.to_string(),
                impl_type: f.impl_type.clone(),
                in_trait: f.in_trait,
                seed: BLOCKING_SEEDS.contains(&f.name.as_str()),
                returns_result: f.returns_result,
                acquire_classes,
                calls: f
                    .calls
                    .iter()
                    .map(|c| (c.name.clone(), c.arity, c.recv.clone(), c.qual.clone()))
                    .collect(),
            });
        }
    }

    // Call-site → definition resolution. Deliberately precise-first:
    //  * `self.f(…)` resolves within the caller's own impl type;
    //  * names that shadow ubiquitous std/collection methods never
    //    resolve cross-impl (`.take()`, `.insert()`, `.expect()`, …);
    //  * paths rooted outside the workspace (`std::mem::take`) never
    //    resolve;
    //  * a unique (name, arity) definition resolves when its shape
    //    matches the call (methods need a receiver or path, free
    //    functions must be called bare) and the receiver's known type
    //    (from `let x = Type::ctor(…)`) doesn't contradict it;
    //  * among several definitions, the receiver's known type picks the
    //    matching impl; failing that, a *trait-declared* method resolves
    //    to all implementations (dyn dispatch).
    // An unresolved call contributes nothing — blocking coverage for
    // externals comes from the name-based `BLOCKING_SEEDS` instead.
    let resolve_defs = |name: &str,
                        arity: usize,
                        recv: Option<&str>,
                        qual: Option<&str>,
                        caller_impl: Option<&str>,
                        caller_path: &str|
     -> Vec<usize> {
        if qual.is_some_and(|q| EXTERN_QUALS.contains(&q)) {
            return Vec::new();
        }
        let Some(cands) = by_key.get(&(name.to_string(), arity)) else {
            return Vec::new();
        };
        if recv == Some("self") {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| defs[i].impl_type.as_deref() == caller_impl && caller_impl.is_some())
                .collect();
            if same.len() == 1 {
                return same;
            }
            if !same.is_empty() {
                return Vec::new();
            }
            // No same-impl definition (trait default, extension): fall
            // through to the unique-definition path.
        }
        if STD_COLLIDERS.contains(&name) {
            return Vec::new();
        }
        let recv_type = recv
            .and_then(|r| var_types.get(&(caller_path.to_string(), r.to_string())))
            .filter(|set| set.len() == 1)
            .and_then(|set| set.iter().next());
        if cands.len() == 1 {
            let d = &defs[cands[0]];
            if let (Some(ty), Some(it)) = (recv_type, &d.impl_type) {
                if ty != it {
                    return Vec::new(); // typed receiver contradicts the def
                }
            }
            return match (&d.impl_type, recv.is_some() || qual.is_some()) {
                (Some(_), true) => vec![cands[0]],
                (Some(_), false) => Vec::new(),
                (None, _) => {
                    if recv.is_none() {
                        vec![cands[0]]
                    } else {
                        Vec::new()
                    }
                }
            };
        }
        if let Some(ty) = recv_type {
            let narrowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| defs[i].impl_type.as_deref() == Some(ty.as_str()))
                .collect();
            if narrowed.len() == 1 {
                return narrowed;
            }
        }
        if trait_methods.contains(&(name.to_string(), arity)) && (recv.is_some() || qual.is_some())
        {
            return cands
                .iter()
                .copied()
                .filter(|&i| defs[i].impl_type.is_some() || defs[i].in_trait)
                .collect();
        }
        Vec::new()
    };

    // Fixpoint: close may_block and may_acquire over the call graph.
    let mut may_block: Vec<bool> = defs.iter().map(|d| d.seed).collect();
    let mut may_acquire: Vec<BTreeSet<String>> =
        defs.iter().map(|d| d.acquire_classes.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..defs.len() {
            let mut block = may_block[i];
            let mut acq = may_acquire[i].clone();
            for (cn, ca, recv, qual) in &defs[i].calls {
                if BLOCKING_SEEDS.contains(&cn.as_str()) {
                    block = true;
                }
                for j in resolve_defs(
                    cn,
                    *ca,
                    recv.as_deref(),
                    qual.as_deref(),
                    defs[i].impl_type.as_deref(),
                    &defs[i].path,
                ) {
                    if j != i {
                        block |= may_block[j];
                        acq.extend(may_acquire[j].iter().cloned());
                    }
                }
            }
            if block != may_block[i] {
                may_block[i] = block;
                changed = true;
            }
            if acq.len() != may_acquire[i].len() {
                may_acquire[i] = acq;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges + R4/R5 diagnostics from every function's recorded sites.
    let mut edge_map: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut diags: Vec<LintDiag> = Vec::new();
    let mut add_edge = |from: &str, to: &str, file: &str, line: u32| {
        let site = (file.to_string(), line);
        edge_map
            .entry((from.to_string(), to.to_string()))
            .and_modify(|best| {
                if site < *best {
                    *best = site.clone();
                }
            })
            .or_insert(site);
    };
    for (path, m) in &models {
        let lines: Vec<&str> = files
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, t)| t.lines().collect())
            .unwrap_or_default();
        let src_at = |line: u32| -> String {
            lines
                .get(line.saturating_sub(1) as usize)
                .map(|s| s.to_string())
                .unwrap_or_default()
        };
        for f in &m.fns {
            let resolve = |recv: &str| {
                resolve_class(
                    recv,
                    f.impl_type.as_deref(),
                    path,
                    &by_type,
                    &by_file,
                    &global,
                )
            };
            for a in &f.acquires {
                let to = resolve(&a.receiver);
                for h in &a.held {
                    add_edge(&resolve(&h.receiver), &to, path, a.line);
                }
            }
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                let resolved = resolve_defs(
                    &c.name,
                    c.arity,
                    c.recv.as_deref(),
                    c.qual.as_deref(),
                    f.impl_type.as_deref(),
                    path,
                );
                // R4: blocking call with a guard live.
                let blocking = BLOCKING_SEEDS.contains(&c.name.as_str())
                    || resolved.iter().any(|&j| may_block[j]);
                if blocking {
                    let held: Vec<String> = c.held.iter().map(|h| resolve(&h.receiver)).collect();
                    diags.push(LintDiag {
                        path: path.to_string(),
                        line: c.line as usize,
                        rule: "R4",
                        message: format!(
                            "lock guard ({}) held across blocking call `{}` — release before blocking or justify in lintcheck.allow",
                            held.join(", "),
                            c.name
                        ),
                        source: src_at(c.line),
                    });
                }
                // Transitive edges through the callee(s).
                for &j in &resolved {
                    for to in &may_acquire[j] {
                        for h in &c.held {
                            add_edge(&resolve(&h.receiver), to, path, c.line);
                        }
                    }
                }
            }
            // R5: silently dropped fallible results.
            for d in &f.discards {
                let fallible = d.name.starts_with("try_")
                    || resolve_defs(
                        &d.name,
                        d.arity,
                        d.recv.as_deref(),
                        d.qual.as_deref(),
                        f.impl_type.as_deref(),
                        path,
                    )
                    .iter()
                    .any(|&j| defs[j].returns_result);
                if fallible {
                    diags.push(LintDiag {
                        path: path.to_string(),
                        line: d.line as usize,
                        rule: "R5",
                        message: format!(
                            "result of fallible `{}` silently dropped — handle, `?`, or bind it",
                            d.name
                        ),
                        source: src_at(d.line),
                    });
                }
            }
        }
    }

    let edges: Vec<StaticEdge> = edge_map
        .into_iter()
        .map(|((from, to), (file, line))| StaticEdge {
            from,
            to,
            file,
            line,
        })
        .collect();

    // R6: acyclicity + rank respect.
    for cycle in find_cycles(&edges) {
        let witness = edges
            .iter()
            .find(|e| e.from == cycle[0])
            .expect("cycle node has an outgoing edge");
        diags.push(LintDiag {
            path: witness.file.clone(),
            line: witness.line as usize,
            rule: "R6",
            message: format!("static lock-order cycle: {}", cycle.join(" -> ")),
            source: String::new(),
        });
    }
    for e in &edges {
        if let (Some(Some(rf)), Some(Some(rt))) = (classes.get(&e.from), classes.get(&e.to)) {
            if rf >= rt {
                diags.push(LintDiag {
                    path: e.file.clone(),
                    line: e.line as usize,
                    rule: "R6",
                    message: format!(
                        "static edge {} (rank {rf}) -> {} (rank {rt}) violates the declared with_rank chain",
                        e.from, e.to
                    ),
                    source: String::new(),
                });
            }
        }
    }

    StaticAnalysis {
        classes,
        edges,
        diags,
    }
}

/// All elementary cycles' entry points, deterministically: DFS over the
/// sorted edge list; each strongly-connected back edge yields the cycle
/// path `[a, b, …, a]` once, keyed by its smallest node.
fn find_cycles(edges: &[StaticEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let mut done: HashSet<&str> = HashSet::new();
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_keys: HashSet<String> = HashSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path for cycle extraction.
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        let mut on_path: HashSet<&str> = [start].into();
        while let Some(&node) = path.last() {
            let i = *iters.last().expect("in sync with path");
            let next = adj.get(node).and_then(|v| v.get(i)).copied();
            match next {
                Some(n) => {
                    *iters.last_mut().expect("in sync") += 1;
                    if on_path.contains(n) {
                        let pos = path.iter().position(|&p| p == n).expect("on path");
                        let mut cyc: Vec<String> =
                            path[pos..].iter().map(|s| s.to_string()).collect();
                        cyc.push(n.to_string());
                        // Canonical key: rotate so the smallest node leads.
                        let mut key_nodes = cyc[..cyc.len() - 1].to_vec();
                        key_nodes.sort();
                        let key = key_nodes.join("|");
                        if seen_keys.insert(key) {
                            cycles.push(cyc);
                        }
                    } else if !done.contains(n) {
                        path.push(n);
                        iters.push(0);
                        on_path.insert(n);
                    }
                }
                None => {
                    done.insert(node);
                    on_path.remove(node);
                    path.pop();
                    iters.pop();
                }
            }
        }
    }
    cycles
}

/// Analyze every workspace source file under `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<StaticAnalysis> {
    let mut files = Vec::new();
    for file in crate::lint::workspace_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(analyze_sources(&files))
}

impl StaticAnalysis {
    /// Runtime edges (class pairs) not derivable statically. The static
    /// graph must over-approximate every schedule, so this should always
    /// be empty; non-empty means the analyzer lost an acquisition.
    pub fn missing_runtime_edges(&self, runtime: &[LockEdge]) -> Vec<(String, String)> {
        let have: HashSet<(&str, &str)> = self
            .edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        let mut missing: Vec<(String, String)> = runtime
            .iter()
            .filter(|e| !have.contains(&(e.from, e.to)))
            .map(|e| (e.from.to_string(), e.to.to_string()))
            .collect();
        missing.sort();
        missing.dedup();
        missing
    }

    /// Deterministic JSON report: declared classes with ranks, then the
    /// edge list. Sites are file-only so the fixture survives unrelated
    /// line churn.
    pub fn report_json(&self) -> String {
        let classes = self.classes.iter().map(|(name, rank)| match rank {
            Some(r) => object! {"name": name.as_str(), "rank": u64::from(*r)},
            None => object! {"name": name.as_str()},
        });
        let edges = self.edges.iter().map(|e| {
            object! {"from": e.from.as_str(), "to": e.to.as_str(), "site": e.file.as_str()}
        });
        format!(
            "{{\n{},\n{}\n}}\n",
            crate::json_list("classes", classes),
            crate::json_list("edges", edges)
        )
    }

    /// Deterministic Graphviz DOT rendering of the edge list; ranked
    /// classes carry their rank in the label.
    pub fn report_dot(&self) -> String {
        let mut s = String::from("digraph static_lock_order {\n  rankdir=LR;\n");
        for (name, rank) in &self.classes {
            match rank {
                Some(r) => s.push_str(&format!("  \"{name}\" [label=\"{name}\\nrank {r}\"];\n")),
                None => s.push_str(&format!("  \"{name}\";\n")),
            }
        }
        for e in &self.edges {
            s.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                e.from,
                e.to,
                e.file.rsplit('/').next().unwrap_or(&e.file)
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Strip the quotes (and any raw-string `r#`/byte prefix) from a string
/// literal token's text.
fn unquote(text: &str) -> String {
    let inner = text.trim_start_matches(['b', 'c', 'r', '#']);
    let inner = inner.trim_start_matches('"');
    let inner = inner.trim_end_matches('#');
    let inner = inner.trim_end_matches('"');
    inner.to_string()
}

/// Find `OrderedMutex::with_rank("class", rank, …)` / `::new("class", …)`
/// sites: record the class (+rank), and map the enclosing fn (if any) as
/// a constructor wrapper for that class.
fn collect_classes(
    _path: &str,
    m: &FileModel,
    classes: &mut BTreeMap<String, Option<u32>>,
    ctor_fns: &mut HashMap<String, String>,
) {
    let toks = &m.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("OrderedMutex") {
            continue;
        }
        // `#[cfg(test)]` fixtures declare throwaway classes (`t.cyc_a`…);
        // they are not part of the product lock discipline.
        if m.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(t1) = toks.get(i + 1) else { continue };
        let Some(t2) = toks.get(i + 2) else { continue };
        if !t1.is_punct("::") {
            continue;
        }
        let ranked = t2.is_ident("with_rank");
        if !ranked && !t2.is_ident("new") {
            continue;
        }
        let (Some(t3), Some(t4)) = (toks.get(i + 3), toks.get(i + 4)) else {
            continue;
        };
        if !t3.is_punct("(") || t4.kind != TokKind::Str {
            continue;
        }
        let class = unquote(&t4.text);
        let rank = if ranked {
            toks.get(i + 6)
                .filter(|t| t.kind == TokKind::Num)
                .and_then(|t| t.text.parse::<u32>().ok())
        } else {
            None
        };
        let entry = classes.entry(class.clone()).or_insert(rank);
        if entry.is_none() {
            *entry = rank;
        }
        for f in &m.fns {
            if let Some((b0, b1)) = f.body {
                if b0 <= i && i <= b1 {
                    ctor_fns.insert(f.name.clone(), class.clone());
                    break;
                }
            }
        }
    }
}

/// Find receiver bindings: occurrences of a class-constructor call
/// (`lockclass::cache(…)`, a `ctor_fns` wrapper, or a direct
/// `OrderedMutex::with_rank("class", …)`), then walk back to the binder
/// (`field: …` struct init, `let x = …`, `static X: … = …`).
fn collect_bindings(
    path: &str,
    m: &FileModel,
    classes: &BTreeMap<String, Option<u32>>,
    ctor_fns: &HashMap<String, String>,
    by_type: &mut HashMap<(String, String), String>,
    by_file: &mut HashMap<(String, String), String>,
    global: &mut HashMap<String, BTreeSet<String>>,
) {
    let _ = classes;
    let toks = &m.toks;
    for i in 0..toks.len() {
        // A ctor occurrence at token i: ident W with following `(`,
        // where W is a wrapper fn (not its own definition site).
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let class = match ctor_fns.get(&t.text) {
            Some(c)
                if toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && !(i > 0 && toks[i - 1].is_ident("fn")) =>
            {
                c.clone()
            }
            _ => {
                // Direct OrderedMutex::with_rank / ::new use.
                if t.is_ident("OrderedMutex")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_ident("with_rank") || n.is_ident("new"))
                    && toks.get(i + 4).is_some_and(|n| n.kind == TokKind::Str)
                {
                    unquote(&toks[i + 4].text)
                } else {
                    continue;
                }
            }
        };
        // Path start: walk back over `prefix::` segments.
        let mut ps = i;
        while ps >= 2 && toks[ps - 1].is_punct("::") && toks[ps - 2].kind == TokKind::Ident {
            ps -= 2;
        }
        let Some(binder) = find_binder(m, ps) else {
            continue;
        };
        // Which impl type contains this occurrence?
        let impl_type = m.fns.iter().find_map(|f| match (f.body, &f.impl_type) {
            (Some((b0, b1)), Some(ty)) if b0 <= i && i <= b1 => Some(ty.clone()),
            _ => None,
        });
        if let Some(ty) = impl_type {
            by_type.entry((ty, binder.clone())).or_insert(class.clone());
        }
        by_file
            .entry((path.to_string(), binder.clone()))
            .or_insert(class.clone());
        global.entry(binder).or_default().insert(class);
    }
}

/// Record receiver types from `let [mut] x = [Arc::new(]* Type::ctor(…)`
/// bindings (test-masked tokens excluded), keyed per file. A name
/// recorded with several types in one file never narrows anything, so
/// rebinding collisions are harmless; types the workspace doesn't define
/// (`String`, `Vec`, …) are skipped outright.
fn collect_var_types(
    path: &str,
    m: &FileModel,
    var_types: &mut HashMap<(String, String), BTreeSet<String>>,
) {
    let toks = &m.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") || m.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks
            .get(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
        else {
            continue;
        };
        if toks.get(j + 1).map(|t| t.is_punct("=")) != Some(true) {
            continue;
        }
        // Skip constructor wrappers (`Arc::new(` layers) in the
        // initializer, then expect `Type::…`.
        let mut k = j + 2;
        let mut budget = 12;
        while budget > 0 {
            match toks.get(k).map(|t| t.text.as_str()) {
                Some("Arc" | "Box" | "Rc" | "::" | "new" | "(") => {
                    k += 1;
                    budget -= 1;
                }
                _ => break,
            }
        }
        let Some(ty) = toks.get(k).filter(|t| {
            t.kind == TokKind::Ident
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
        }) else {
            continue;
        };
        if toks.get(k + 1).map(|t| t.is_punct("::")) != Some(true)
            || EXTERN_QUALS.contains(&ty.text.as_str())
        {
            continue;
        }
        var_types
            .entry((path.to_string(), name))
            .or_default()
            .insert(ty.text.clone());
    }
}

/// Walk back from a ctor path start to the binder ident, skipping
/// wrapper layers (`Arc::new(`, `Some(`, `Box::new(`).
fn find_binder(m: &FileModel, path_start: usize) -> Option<String> {
    let toks = &m.toks;
    let mut j = path_start;
    let mut budget = 16;
    while j > 0 && budget > 0 {
        budget -= 1;
        j -= 1;
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "::" => continue,
            "Arc" | "Box" | "Some" | "new" | "Ok" => continue,
            ":" => {
                // `field: ctor(…)` or `let x: Ty = ctor(…)` — the binder
                // is the ident before the colon.
                return toks
                    .get(j.checked_sub(1)?)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            "=" => {
                // `let [mut] x = ctor(…)` / `x = ctor(…)` /
                // `static X: Ty = ctor(…)` (the `:` form is caught above
                // only without initializer wrapping; handle both).
                let mut k = j;
                let mut inner_budget = 16;
                while k > 0 && inner_budget > 0 {
                    inner_budget -= 1;
                    k -= 1;
                    let u = &toks[k];
                    if u.is_ident("let") || u.is_ident("static") || u.is_ident("const") {
                        // Binder follows, skipping `mut`.
                        let mut b = k + 1;
                        if toks.get(b).is_some_and(|t| t.is_ident("mut")) {
                            b += 1;
                        }
                        return toks
                            .get(b)
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                    }
                    if u.is_punct(";") || u.is_punct("{") || u.is_punct("}") {
                        break;
                    }
                }
                // Plain assignment: ident right before `=`.
                return toks
                    .get(j.checked_sub(1)?)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            _ => return None,
        }
    }
    None
}

/// Resolve a guard receiver to a lock class.
fn resolve_class(
    receiver: &str,
    impl_type: Option<&str>,
    path: &str,
    by_type: &HashMap<(String, String), String>,
    by_file: &HashMap<(String, String), String>,
    global: &HashMap<String, BTreeSet<String>>,
) -> String {
    if let Some(helper) = receiver.strip_prefix("fnret:") {
        // A guard from a helper fn: pseudo-class unless the helper is a
        // known ctor (it isn't — helpers return guards, not mutexes).
        return format!("fnret.{helper}");
    }
    if let Some(ty) = impl_type {
        if let Some(c) = by_type.get(&(ty.to_string(), receiver.to_string())) {
            return c.clone();
        }
    }
    if let Some(c) = by_file.get(&(path.to_string(), receiver.to_string())) {
        return c.clone();
    }
    if let Some(set) = global.get(receiver) {
        if set.len() == 1 {
            return set.iter().next().expect("non-empty").clone();
        }
    }
    let stem = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".into());
    format!("{stem}.{receiver}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    const CLASSES: &str = r#"
pub fn state_class<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank("t.state", 10, v) }
pub fn cache_class<T>(v: T) -> OrderedMutex<T> { OrderedMutex::with_rank("t.cache", 20, v) }
"#;

    #[test]
    fn edges_from_nested_acquisition() {
        let fs = files(&[
            ("src/classes.rs", CLASSES),
            (
                "src/a.rs",
                "impl M {\n fn new() -> M { M { state: state_class(0), cache: cache_class(0) } }\n fn f(&self) { let s = self.state.lock(); let c = self.cache.lock(); } }\n",
            ),
        ]);
        let a = analyze_sources(&fs);
        assert!(
            a.edges
                .iter()
                .any(|e| e.from == "t.state" && e.to == "t.cache"),
            "{:?}",
            a.edges
        );
        assert!(a.diags.is_empty(), "{:?}", a.diags);
        assert_eq!(a.classes.get("t.state"), Some(&Some(10)));
    }

    #[test]
    fn r6_rank_violation_detected() {
        let fs = files(&[
            ("src/classes.rs", CLASSES),
            (
                "src/a.rs",
                "impl M {\n fn new() -> M { M { state: state_class(0), cache: cache_class(0) } }\n fn f(&self) { let c = self.cache.lock(); let s = self.state.lock(); } }\n",
            ),
        ]);
        let a = analyze_sources(&fs);
        assert!(
            a.diags
                .iter()
                .any(|d| d.rule == "R6" && d.message.contains("violates")),
            "{:?}",
            a.diags
        );
    }

    #[test]
    fn r6_cycle_detected_between_unranked() {
        let fs = files(&[(
            "src/a.rs",
            "impl M {\n fn f(&self) { let a = self.x.lock(); let b = self.y.lock(); }\n fn g(&self) { let b = self.y.lock(); let a = self.x.lock(); } }\n",
        )]);
        let a = analyze_sources(&fs);
        assert!(
            a.diags
                .iter()
                .any(|d| d.rule == "R6" && d.message.contains("cycle")),
            "{:?}",
            a.diags
        );
    }

    #[test]
    fn r4_guard_across_blocking_call_direct_and_transitive() {
        let fs = files(&[(
            "src/a.rs",
            "impl M {\n fn f(&self) { let g = self.state.lock(); self.comm.barrier(); }\n fn mid(&self) { self.comm.barrier(); }\n fn h(&self) { let g = self.state.lock(); self.mid(); } }\n",
        )]);
        let a = analyze_sources(&fs);
        let r4: Vec<_> = a.diags.iter().filter(|d| d.rule == "R4").collect();
        assert_eq!(r4.len(), 2, "{r4:?}");
        assert!(r4.iter().any(|d| d.message.contains("`barrier`")));
        assert!(r4.iter().any(|d| d.message.contains("`mid`")));
    }

    #[test]
    fn r4_clean_after_early_drop() {
        let fs = files(&[(
            "src/a.rs",
            "impl M { fn f(&self) { let g = self.state.lock(); drop(g); self.comm.barrier(); } }\n",
        )]);
        let a = analyze_sources(&fs);
        assert!(a.diags.iter().all(|d| d.rule != "R4"), "{:?}", a.diags);
    }

    #[test]
    fn r5_dropped_try_result() {
        let fs = files(&[(
            "src/a.rs",
            "impl M {\n fn try_sync(&self) -> Result<(), E> { Ok(()) }\n fn settle(&self) -> Result<u8, E> { Ok(0) }\n fn f(&self) { self.try_sync(); let _ = self.settle(); self.try_sync()?; let r = self.settle(); r?; } }\n",
        )]);
        let a = analyze_sources(&fs);
        let r5: Vec<_> = a.diags.iter().filter(|d| d.rule == "R5").collect();
        assert_eq!(r5.len(), 2, "{r5:?}");
    }

    #[test]
    fn arity_disambiguates_same_name() {
        // 1-arg `granted` acquires; 3-arg `granted` blocks. The caller
        // holding a guard calls the 3-arg one — only R4, no false edge
        // to the 1-arg impl's class.
        let fs = files(&[(
            "src/a.rs",
            "impl A { fn granted(&self, r: R) { let c = self.cache.lock(); } }\nimpl B { fn granted(&self, a: u8, b: u8, c: u8) { self.comm.barrier(); } }\nimpl C { fn f(&self) { let s = self.state.lock(); self.b.granted(1, 2, 3); } }\n",
        )]);
        let a = analyze_sources(&fs);
        assert!(a.diags.iter().any(|d| d.rule == "R4"));
        assert!(!a.edges.iter().any(|e| e.to == "a.cache"), "{:?}", a.edges);
    }

    #[test]
    fn temporary_registry_guard_makes_no_edge() {
        // `self.handlers.lock().get(…)` is a statement temporary: the
        // follow-up call two statements later must not create a
        // handlers→cache edge (mirrors CoherenceHub::grant_coverage).
        let fs = files(&[(
            "src/a.rs",
            "impl H {\n fn granted(&self) { let c = self.cache.lock(); }\n fn grant(&self) { let h = self.handlers.lock().get(0); self.granted(); } }\n",
        )]);
        let a = analyze_sources(&fs);
        assert!(
            !a.edges.iter().any(|e| e.from == "a.handlers"),
            "{:?}",
            a.edges
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let fs = files(&[
            ("src/classes.rs", CLASSES),
            (
                "src/a.rs",
                "impl M {\n fn new() -> M { M { state: state_class(0), cache: cache_class(0) } }\n fn f(&self) { let s = self.state.lock(); let c = self.cache.lock(); } }\n",
            ),
        ]);
        let a = analyze_sources(&fs);
        let b = analyze_sources(&fs);
        assert_eq!(a.report_json(), b.report_json());
        assert_eq!(a.report_dot(), b.report_dot());
        assert!(a.report_json().contains("\"rank\": 10"));
        assert!(a.report_dot().starts_with("digraph static_lock_order"));
    }

    #[test]
    fn missing_runtime_edges_subset_logic() {
        let fs = files(&[(
            "src/a.rs",
            "impl M { fn f(&self) { let a = self.x.lock(); let b = self.y.lock(); } }\n",
        )]);
        let a = analyze_sources(&fs);
        let rt = vec![LockEdge {
            from: "a.x",
            to: "a.y",
            from_site: String::new(),
            to_site: String::new(),
        }];
        assert!(a.missing_runtime_edges(&rt).is_empty());
        let rt2 = vec![LockEdge {
            from: "a.y",
            to: "a.x",
            from_site: String::new(),
            to_site: String::new(),
        }];
        assert_eq!(a.missing_runtime_edges(&rt2).len(), 1);
    }
}
