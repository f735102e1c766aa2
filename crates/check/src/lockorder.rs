//! Runtime lock-order analysis: a thin ordered wrapper around the
//! `parking_lot` mutex plus a process-wide lock-order graph with cycle
//! detection, and the hold check at host waits ([`assert_may_wait`]).
//!
//! Every [`OrderedMutex`] belongs to a named **class** (all per-handle
//! cache mutexes are one class, all lock-manager state mutexes another).
//! In debug builds each acquisition records, for every class already held
//! by the acquiring thread, a directed class edge `held → acquired`
//! stamped with both acquisition sites (`#[track_caller]` locations).
//! Two disciplines are enforced, and violations panic immediately with
//! both sites:
//!
//! * **Declared ranks** ([`OrderedMutex::with_rank`]) pin a documented
//!   order — e.g. the state → registry → cache order of the coherence
//!   protocol: acquiring a ranked mutex while holding one of equal or
//!   higher rank is a violation even on the very first occurrence.
//! * **Discovered cycles**: unranked classes are checked against the
//!   accumulated edge graph — the first acquisition closing a directed
//!   cycle panics with the full edge chain, each edge labelled with the
//!   source locations that created it.
//!
//! Release builds compile the wrapper down to the plain mutex: no
//! thread-local bookkeeping, no graph, no atomics.

use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;

/// One directed class edge of the lock-order graph, with the acquisition
/// sites that first produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub from: &'static str,
    pub to: &'static str,
    /// Where the `from` class was locked (still held at the violation).
    pub from_site: String,
    /// Where the `to` class was locked under it.
    pub to_site: String,
}

/// A directed cycle among lock classes: the edge chain leads from the
/// offending class back to itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    pub edges: Vec<LockEdge>,
}

impl std::fmt::Display for CycleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "lock-order cycle over {} classes:", self.edges.len())?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {}  [{} held at {}; {} locked at {}]",
                e.from, e.to, e.from, e.from_site, e.to, e.to_site
            )?;
        }
        Ok(())
    }
}

/// A pure lock-order graph: class nodes, directed `held → acquired`
/// edges, cycle detection on insertion. This is the data structure the
/// global runtime engine feeds; it is public so tests (and the golden
/// fixtures) can drive it directly without touching process-global state.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    edges: Vec<LockEdge>,
}

impl LockOrderGraph {
    pub fn new() -> Self {
        LockOrderGraph::default()
    }

    pub fn edges(&self) -> &[LockEdge] {
        &self.edges
    }

    /// Whether the directed edge is already recorded.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// Record `from → to`; if the new edge closes a directed cycle,
    /// return the full chain (the edge is still recorded, so diagnostics
    /// after a caught panic can see it). Self-edges are cycles of length
    /// one.
    pub fn add_edge(
        &mut self,
        from: &'static str,
        to: &'static str,
        from_site: impl Into<String>,
        to_site: impl Into<String>,
    ) -> Result<(), CycleReport> {
        if !self.has_edge(from, to) {
            self.edges.push(LockEdge {
                from,
                to,
                from_site: from_site.into(),
                to_site: to_site.into(),
            });
        }
        // A cycle through the new edge must come back from `to` to `from`.
        match self.path(to, from) {
            Some(mut chain) => {
                let closing = self
                    .edges
                    .iter()
                    .find(|e| e.from == from && e.to == to)
                    .expect("edge just recorded")
                    .clone();
                chain.insert(0, closing);
                Err(CycleReport { edges: chain })
            }
            None => Ok(()),
        }
    }

    /// A directed edge path `from → … → to`, if one exists (DFS).
    fn path(&self, from: &str, to: &str) -> Option<Vec<LockEdge>> {
        let mut stack = vec![(from, Vec::new())];
        let mut visited = vec![from.to_string()];
        while let Some((node, chain)) = stack.pop() {
            for e in self.edges.iter().filter(|e| e.from == node) {
                let mut next = chain.clone();
                next.push(e.clone());
                if e.to == to {
                    return Some(next);
                }
                if !visited.iter().any(|v| v == e.to) {
                    visited.push(e.to.to_string());
                    stack.push((e.to, next));
                }
            }
        }
        None
    }
}

#[cfg(debug_assertions)]
mod tracking {
    use super::LockOrderGraph;
    use std::cell::RefCell;
    use std::panic::Location;

    pub(super) struct Held {
        pub class: &'static str,
        pub rank: Option<u32>,
        pub site: &'static Location<'static>,
        pub token: u64,
    }

    thread_local! {
        pub(super) static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
    }

    /// The process-wide discovered-edge graph every [`super::OrderedMutex`]
    /// acquisition feeds.
    pub(super) static GRAPH: parking_lot::Mutex<Option<LockOrderGraph>> =
        parking_lot::Mutex::new(None);

    pub(super) fn fresh_token() -> u64 {
        NEXT_TOKEN.with(|t| {
            let mut t = t.borrow_mut();
            *t += 1;
            *t
        })
    }

    /// Record + check one acquisition against everything this thread
    /// holds. Panics on a declared-rank violation or a discovered cycle.
    pub(super) fn on_acquire(
        class: &'static str,
        rank: Option<u32>,
        site: &'static Location<'static>,
    ) {
        HELD.with(|held| {
            let held = held.borrow();
            for h in held.iter() {
                if h.class == class {
                    panic!(
                        "lock-order violation: {class} acquired at {site} while already \
                         held at {} (same-class nesting is a self-deadlock shape)",
                        h.site
                    );
                }
                if let (Some(hr), Some(nr)) = (h.rank, rank) {
                    if hr >= nr {
                        panic!(
                            "lock-order violation: {class} (rank {nr}) acquired at {site} \
                             while holding {} (rank {hr}) locked at {} — declared order \
                             requires {class} first",
                            h.class, h.site
                        );
                    }
                }
            }
            let mut graph = GRAPH.lock();
            let graph = graph.get_or_insert_with(LockOrderGraph::new);
            for h in held.iter() {
                if graph.has_edge(h.class, class) {
                    continue;
                }
                if let Err(cycle) =
                    graph.add_edge(h.class, class, h.site.to_string(), site.to_string())
                {
                    panic!("lock-order violation at {site}: {cycle}");
                }
            }
        });
    }

    pub(super) fn on_release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards can drop out of acquisition order; search from the top.
            if let Some(i) = held.iter().rposition(|h| h.token == token) {
                held.remove(i);
            }
        });
    }
}

/// A mutex that participates in lock-order analysis under a named class.
/// See the module docs; in release builds this is exactly the wrapped
/// `parking_lot::Mutex`. Deliberately no `Default`: every instance must
/// name its class.
#[derive(Debug)]
pub struct OrderedMutex<T: ?Sized> {
    class: &'static str,
    // Consulted only by the debug-build acquisition checks.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: Option<u32>,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// An unranked class: ordered only by discovered-cycle detection.
    pub const fn new(class: &'static str, value: T) -> Self {
        OrderedMutex {
            class,
            rank: None,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// A ranked class: additionally pinned to the declared order — a
    /// thread holding rank `r` may only acquire ranks strictly above `r`.
    pub const fn with_rank(class: &'static str, rank: u32, value: T) -> Self {
        OrderedMutex {
            class,
            rank: Some(rank),
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn class(&self) -> &'static str {
        self.class
    }

    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = {
            let site = Location::caller();
            tracking::on_acquire(self.class, self.rank, site);
            let token = tracking::fresh_token();
            tracking::HELD.with(|held| {
                held.borrow_mut().push(tracking::Held {
                    class: self.class,
                    rank: self.rank,
                    site,
                    token,
                })
            });
            token
        };
        OrderedMutexGuard {
            guard: self.inner.lock(),
            #[cfg(debug_assertions)]
            token,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the held-stack entry on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<'a, T: ?Sized> OrderedMutexGuard<'a, T> {
    /// The wrapped `parking_lot` guard, for `Condvar::wait`-style APIs
    /// that need it by `&mut`. While a wait has the mutex released the
    /// held-stack still lists it — sound, because the waiting thread
    /// acquires nothing while blocked and holds the mutex again on
    /// return.
    pub fn raw(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracking::on_release(self.token);
    }
}

/// Debug builds: panic unless every class this thread holds is in
/// `allowed`. Call it where a thread is about to wait in *host* time for
/// another thread to act (a condvar that thread signals): a class held
/// there that the other thread needs first is a deadlock on any schedule
/// that reaches it. The panic names each offending class, where it was
/// locked, the wait `site` and its caller. Release builds compile it to
/// nothing.
#[track_caller]
#[inline]
pub fn assert_may_wait(site: &str, allowed: &[&str]) {
    #[cfg(debug_assertions)]
    {
        let caller = Location::caller();
        tracking::HELD.with(|held| {
            let bad: Vec<String> = held
                .borrow()
                .iter()
                .filter(|h| !allowed.contains(&h.class))
                .map(|h| format!("{} (locked at {})", h.class, h.site))
                .collect();
            if !bad.is_empty() {
                panic!(
                    "lock held across a host wait: {} held at the {site} ({caller})",
                    bad.join(", ")
                );
            }
        });
    }
    #[cfg(not(debug_assertions))]
    let _ = (site, allowed);
}

/// Snapshot of the process-wide discovered lock-order edges (diagnostics
/// and tests). Empty in release builds.
pub fn global_edges() -> Vec<LockEdge> {
    #[cfg(debug_assertions)]
    {
        tracking::GRAPH
            .lock()
            .as_ref()
            .map(|g| g.edges().to_vec())
            .unwrap_or_default()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Access to the runtime-discovered lock-order graph as exportable data
/// (`tests/check_lockorder.rs` asserts every edge a lock-driven workload
/// discovers climbs the declared rank chain).
pub struct Registry;

impl Registry {
    /// Snapshot of the discovered edges (empty in release builds).
    pub fn edges() -> Vec<LockEdge> {
        global_edges()
    }

    /// Deterministic JSON export: `(from, to)` class pairs, sorted and
    /// deduplicated. Acquisition *sites* are deliberately excluded —
    /// which thread first discovers an edge is schedule-dependent, and
    /// the export must be byte-identical across runs that exercise the
    /// same lock pairs.
    pub fn export_json() -> String {
        let mut pairs: Vec<(&'static str, &'static str)> =
            Self::edges().iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        // One edge object per line.
        let rows: Vec<String> = pairs
            .into_iter()
            .map(|(from, to)| format!("    {}", atomio_trace::object! {"from": from, "to": to}))
            .collect();
        let end = if rows.is_empty() { "" } else { "\n" };
        format!("{{\n  \"edges\": [\n{}{end}  ]\n}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_nesting_is_clean_and_recorded() {
        let a = OrderedMutex::with_rank("t.clean_a", 1, 0u32);
        let b = OrderedMutex::with_rank("t.clean_b", 2, 0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        let recorded = global_edges()
            .iter()
            .any(|e| e.from == "t.clean_a" && e.to == "t.clean_b");
        // Release builds compile `OrderedMutex` to the bare mutex, so the
        // registry stays empty there.
        assert_eq!(recorded, cfg!(debug_assertions));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rank_violation_panics_with_both_sites() {
        let err = std::thread::spawn(|| {
            let lo = OrderedMutex::with_rank("t.rank_lo", 1, ());
            let hi = OrderedMutex::with_rank("t.rank_hi", 2, ());
            let _g = hi.lock();
            let _h = lo.lock(); // rank 1 under rank 2: violation
        })
        .join()
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t.rank_lo"), "{msg}");
        assert!(msg.contains("t.rank_hi"), "{msg}");
        assert!(msg.contains("lockorder.rs"), "both sites named: {msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn discovered_cycle_panics() {
        let err = std::thread::spawn(|| {
            let a = OrderedMutex::new("t.cyc_a", ());
            let b = OrderedMutex::new("t.cyc_b", ());
            {
                let _g = a.lock();
                let _h = b.lock();
            }
            let _g = b.lock();
            let _h = a.lock(); // closes t.cyc_a -> t.cyc_b -> t.cyc_a
        })
        .join()
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(msg.contains("t.cyc_a -> t.cyc_b"), "{msg}");
        assert!(msg.contains("t.cyc_b -> t.cyc_a"), "{msg}");
    }

    #[test]
    fn graph_reports_full_chain() {
        let mut g = LockOrderGraph::new();
        g.add_edge("a", "b", "a.rs:1:1", "b.rs:2:2").unwrap();
        g.add_edge("b", "c", "b.rs:3:3", "c.rs:4:4").unwrap();
        let cycle = g
            .add_edge("c", "a", "c.rs:5:5", "a.rs:6:6")
            .expect_err("c -> a closes the cycle");
        let names: Vec<_> = cycle.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(names, vec![("c", "a"), ("a", "b"), ("b", "c")]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn registry_export_is_sorted_and_deduped() {
        let a = OrderedMutex::new("t.reg_a", ());
        let b = OrderedMutex::new("t.reg_b", ());
        // Exercise the same pair twice: the export must dedup.
        for _ in 0..2 {
            let _g = a.lock();
            let _h = b.lock();
        }
        let json = Registry::export_json();
        let needle = "{\"from\": \"t.reg_a\", \"to\": \"t.reg_b\"}";
        assert_eq!(json.matches(needle).count(), 1, "{json}");
        assert_eq!(json, Registry::export_json(), "byte-stable across calls");
        atomio_trace::validate_json(&json).unwrap();
        assert!(
            json.starts_with("{\n  \"edges\": [\n    {\"from\": "),
            "{json}"
        );
        assert!(json.ends_with("\"}\n  ]\n}\n"), "{json}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn held_class_at_a_wait_panics_with_class_and_sites() {
        let err = std::thread::spawn(|| {
            let own = OrderedMutex::new("t.wait_own", ());
            let other = OrderedMutex::new("t.wait_other", ());
            let _g = other.lock();
            let _h = own.lock();
            assert_may_wait("test wait", &["t.wait_own"]);
        })
        .join()
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t.wait_other (locked at"), "{msg}");
        assert!(!msg.contains("t.wait_own"), "allowed class named: {msg}");
        assert!(msg.contains("test wait"), "{msg}");
        assert!(msg.contains("lockorder.rs"), "sites named: {msg}");
    }

    #[test]
    fn allowed_and_released_classes_may_wait() {
        let own = OrderedMutex::new("t.wait_ok", ());
        let other = OrderedMutex::new("t.wait_dropped", ());
        drop(other.lock());
        let _g = own.lock();
        assert_may_wait("test wait", &["t.wait_ok"]);
    }

    #[test]
    fn out_of_order_guard_drops_are_tracked() {
        let a = OrderedMutex::new("t.ooo_a", ());
        let b = OrderedMutex::new("t.ooo_b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before the inner guard
        drop(gb);
        let _ga = a.lock(); // held stack must be clean again
    }
}
