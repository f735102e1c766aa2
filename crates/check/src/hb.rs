//! Happens-before atomicity/race detection over the `atomio-trace` event
//! stream.
//!
//! The checker replays a recorded run with one vector clock per rank
//! track and reports every pair of conflicting overlapping byte accesses
//! (two accesses from different ranks, at least one a write, sharing a
//! byte) that no synchronization edge orders — mechanically, the paper's
//! §2.1 torn-write hazard, and PR 5's visibility contract ("a locked read
//! observes every conflicting write released before its grant") as a
//! checkable rule.
//!
//! Synchronization edges, drawn from the events the instrumented
//! subsystems already emit:
//!
//! * **grant-release → acquire** — a `lock release` (or the implicit
//!   release a `revoke flush` performs on the holder's behalf) joins into
//!   every later `lock wait` grant whose byte footprint *conflicts* with
//!   it (overlap with at least one exclusive side). This is exactly the
//!   conflict-wait the lock managers implement.
//! * **revocation flush** — dispatched while a rival acquisition is being
//!   granted, so it orders the holder's buffered writes before the
//!   acquirer; the flush span carries the revoked ranges as its
//!   footprint. The joined clock is the holder's as of the flush, which
//!   slightly over-synchronizes accesses the holder raced *outside* the
//!   cache mutex — conservative in the masking direction, never a false
//!   positive.
//! * **collective edges** — every `Category::Comm` span is an all-to-all
//!   rendezvous: the k-th collective of each participating rank joins
//!   every participant's clock *at its own k-th entry* (ranks that raced
//!   ahead contribute their saved entry snapshot, not their current
//!   clock, so post-barrier work never leaks backwards). Spans carrying
//!   repeated `mem` args (sub-communicator collectives) form their own
//!   *group*, keyed by the member list: k-indices and joins are counted
//!   per group, so a node communicator's gathers, the leader
//!   communicator's exchanges, and the world communicator's barriers
//!   never pair up across groups — concurrent sub-communicators with
//!   different collective counts would otherwise misalign every later
//!   world collective.
//!
//! Two entry points: [`check_events`] consumes an in-memory
//! [`MemorySink`](atomio_trace::MemorySink) buffer **in arrival order**
//! (which, because every event is emitted after the operation it
//! records, is consistent with the run's real synchronization), and
//! [`check_chrome_json`] imports an exported Chrome-trace file, rebuilding
//! a causally consistent order from the virtual timestamps (release and
//! flush events sort before same-instant grants; accesses before
//! same-instant releases).

use std::collections::HashMap;

use atomio_trace::{json, TraceEvent, Track};

/// Byte runs `(lo, len)`; event args encode them as repeated
/// `("lo", x), ("len", y)` pairs, or a single `("off", o)` next to the
/// conventional `("bytes", n)`.
type Footprint = Vec<(u64, u64)>;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Acquire {
        fp: Footprint,
        excl: bool,
    },
    Release {
        fp: Footprint,
        excl: bool,
    },
    RevokeFlush {
        fp: Footprint,
    },
    Collective {
        /// Sorted world ranks of the communicator, parsed from repeated
        /// `mem` args; `None` for member-less spans (the world
        /// communicator / legacy traces), which form one global group.
        members: Option<Vec<usize>>,
    },
    Access {
        fp: Footprint,
        write: bool,
    },
}

#[derive(Debug, Clone)]
struct HbEvent {
    rank: usize,
    ts: u64,
    name: String,
    kind: Kind,
}

/// One side of a reported conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    pub rank: usize,
    pub name: String,
    /// Event timestamp (virtual ns).
    pub ts: u64,
    /// Bounding box of the access footprint.
    pub lo: u64,
    pub hi: u64,
}

impl std::fmt::Display for AccessSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} {:?} @{}ns [{}..{})",
            self.rank, self.name, self.ts, self.lo, self.hi
        )
    }
}

/// A pair of conflicting overlapping accesses with no ordering edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The side processed first.
    pub a: AccessSite,
    pub b: AccessSite,
    /// First overlapping byte run `[lo, hi)`.
    pub overlap: (u64, u64),
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unordered conflict on bytes [{}..{}): {} vs {}",
            self.overlap.0, self.overlap.1, self.a, self.b
        )
    }
}

/// The checker's verdict over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HbReport {
    /// Rank-track events consumed (after filtering to the vocabulary).
    pub events: usize,
    /// Byte accesses among them.
    pub accesses: usize,
    /// Release→acquire / flush / collective joins performed.
    pub sync_joins: usize,
    pub findings: Vec<Finding>,
}

impl std::fmt::Display for HbReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "no unordered conflicting accesses");
        }
        write!(
            f,
            "{} unordered conflicting access pair(s)",
            self.findings.len()
        )?;
        for x in &self.findings {
            write!(f, "\n{x}")?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------ vocabulary

/// Pull a byte footprint out of event args. Absent one, sync events fall
/// back to whole-file (conservative: extra edges only mask races), and
/// access events return `None` (unanalyzable, skipped).
fn args_footprint(args: &[(String, u64)]) -> Option<Footprint> {
    let mut runs = Vec::new();
    let mut lo = None;
    for (k, v) in args {
        match k.as_str() {
            "lo" => lo = Some(*v),
            "len" => {
                if let Some(l) = lo.take() {
                    if *v > 0 {
                        runs.push((l, *v));
                    }
                }
            }
            _ => {}
        }
    }
    if !runs.is_empty() {
        return Some(runs);
    }
    let off = args.iter().find(|(k, _)| k == "off").map(|(_, v)| *v)?;
    let len = args.iter().find(|(k, _)| k == "bytes").map(|(_, v)| *v)?;
    (len > 0).then(|| vec![(off, len)])
}

const WHOLE_FILE: &[(u64, u64)] = &[(0, u64::MAX)];

fn arg(args: &[(String, u64)], key: &str) -> Option<u64> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Map one (rank-track) trace event into the checker vocabulary.
fn classify(
    cat: &str,
    name: &str,
    rank: usize,
    ts: u64,
    is_span: bool,
    args: &[(String, u64)],
) -> Option<HbEvent> {
    let fp_or_whole = || args_footprint(args).unwrap_or_else(|| WHOLE_FILE.to_vec());
    let kind = match (cat, name) {
        ("lock", "lock wait") => Kind::Acquire {
            fp: fp_or_whole(),
            excl: arg(args, "excl") != Some(0),
        },
        ("lock", "lock release") => Kind::Release {
            fp: fp_or_whole(),
            excl: arg(args, "excl") != Some(0),
        },
        ("coherence", "revoke flush") => Kind::RevokeFlush { fp: fp_or_whole() },
        ("comm", _) if is_span => {
            let mut members: Vec<usize> = args
                .iter()
                .filter(|(k, _)| k == "mem")
                .map(|&(_, v)| v as usize)
                .collect();
            members.sort_unstable();
            members.dedup();
            Kind::Collective {
                members: (!members.is_empty()).then_some(members),
            }
        }
        ("io", "direct write") | ("io", "listio write") | ("io", "batch write") => Kind::Access {
            fp: args_footprint(args)?,
            write: true,
        },
        ("io", "direct read") => Kind::Access {
            fp: args_footprint(args)?,
            write: false,
        },
        ("cache", "cached write") => Kind::Access {
            fp: args_footprint(args)?,
            write: true,
        },
        ("cache", "cached read") => Kind::Access {
            fp: args_footprint(args)?,
            write: false,
        },
        _ => return None,
    };
    Some(HbEvent {
        rank,
        ts,
        name: name.to_string(),
        kind,
    })
}

fn overlap_run(a: &Footprint, b: &Footprint) -> Option<(u64, u64)> {
    let mut best: Option<(u64, u64)> = None;
    for &(alo, alen) in a {
        for &(blo, blen) in b {
            let lo = alo.max(blo);
            let hi = (alo.saturating_add(alen)).min(blo.saturating_add(blen));
            if lo < hi && best.is_none_or(|(l, _)| lo < l) {
                best = Some((lo, hi));
            }
        }
    }
    best
}

fn bbox(fp: &Footprint) -> (u64, u64) {
    let lo = fp.iter().map(|&(l, _)| l).min().unwrap_or(0);
    let hi = fp
        .iter()
        .map(|&(l, n)| l.saturating_add(n))
        .max()
        .unwrap_or(0);
    (lo, hi)
}

// --------------------------------------------------------------- engine

struct RelRec {
    vc: Vec<u64>,
    fp: Footprint,
    excl: bool,
}

struct AccRec {
    rank: usize,
    actor: usize,
    vc: Vec<u64>,
    fp: Footprint,
    write: bool,
    name: String,
    ts: u64,
}

fn run_checker(events: Vec<HbEvent>) -> HbReport {
    // Dense actor indices over the ranks that appear.
    let mut actor_of: HashMap<usize, usize> = HashMap::new();
    for e in &events {
        let next = actor_of.len();
        actor_of.entry(e.rank).or_insert(next);
    }
    let n = actor_of.len();
    let mut clocks = vec![vec![0u64; n]; n];
    // Collective groups, keyed by member list. Member-less spans (`None`)
    // form one global group whose participants are every actor that ever
    // emits such a span; `mem`-tagged spans scope their edges (and their
    // k-indices) to exactly the listed ranks.
    let mut group_of: HashMap<Option<Vec<usize>>, usize> = HashMap::new();
    let mut group_parts: Vec<Vec<usize>> = Vec::new();
    for e in &events {
        if let Kind::Collective { members } = &e.kind {
            let gi = *group_of.entry(members.clone()).or_insert_with(|| {
                group_parts.push(match members {
                    Some(ms) => ms.iter().filter_map(|r| actor_of.get(r).copied()).collect(),
                    None => Vec::new(),
                });
                group_parts.len() - 1
            });
            if members.is_none() {
                group_parts[gi].push(actor_of[&e.rank]);
            }
        }
    }
    for p in &mut group_parts {
        p.sort_unstable();
        p.dedup();
    }
    let ngroups = group_parts.len();
    let mut coll_count = vec![vec![0usize; n]; ngroups];
    // [group][actor][k] = entry clock
    let mut coll_entry: Vec<Vec<Vec<Vec<u64>>>> = vec![vec![Vec::new(); n]; ngroups];
    let mut releases: Vec<RelRec> = Vec::new();
    let mut accesses: Vec<AccRec> = Vec::new();
    let mut report = HbReport::default();

    for e in events {
        let a = actor_of[&e.rank];
        report.events += 1;
        clocks[a][a] += 1;
        match e.kind {
            Kind::Acquire { fp, excl } => {
                for r in &releases {
                    if (excl || r.excl) && overlap_run(&fp, &r.fp).is_some() {
                        join(&mut clocks[a], &r.vc);
                        report.sync_joins += 1;
                    }
                }
            }
            Kind::Release { fp, excl } => releases.push(RelRec {
                vc: clocks[a].clone(),
                fp,
                excl,
            }),
            Kind::RevokeFlush { fp } => releases.push(RelRec {
                vc: clocks[a].clone(),
                fp,
                excl: true,
            }),
            Kind::Collective { members } => {
                let gi = group_of[&members];
                let k = coll_count[gi][a];
                coll_count[gi][a] += 1;
                debug_assert_eq!(coll_entry[gi][a].len(), k);
                coll_entry[gi][a].push(clocks[a].clone());
                let mut joined = clocks[a].clone();
                for &p in &group_parts[gi] {
                    if p == a {
                        continue;
                    }
                    // An actor that raced past its own k-th collective
                    // (of this group) contributes the clock it *entered*
                    // with; one that has not reached it yet contributes
                    // everything it has done so far (all of which
                    // precedes its entry).
                    let other = coll_entry[gi][p].get(k).unwrap_or(&clocks[p]);
                    join(&mut joined, other);
                    report.sync_joins += 1;
                }
                clocks[a] = joined;
            }
            Kind::Access { fp, write } => {
                report.accesses += 1;
                for acc in &accesses {
                    if acc.actor == a || !(write || acc.write) {
                        continue;
                    }
                    let Some(run) = overlap_run(&fp, &acc.fp) else {
                        continue;
                    };
                    // `acc` was processed earlier, so the only possible
                    // edge is acc → this access.
                    if acc.vc[acc.actor] <= clocks[a][acc.actor] {
                        continue;
                    }
                    let (alo, ahi) = bbox(&acc.fp);
                    let (blo, bhi) = bbox(&fp);
                    report.findings.push(Finding {
                        a: AccessSite {
                            rank: acc.rank,
                            name: acc.name.clone(),
                            ts: acc.ts,
                            lo: alo,
                            hi: ahi,
                        },
                        b: AccessSite {
                            rank: e.rank,
                            name: e.name.clone(),
                            ts: e.ts,
                            lo: blo,
                            hi: bhi,
                        },
                        overlap: run,
                    });
                }
                accesses.push(AccRec {
                    rank: e.rank,
                    actor: a,
                    vc: clocks[a].clone(),
                    fp,
                    write,
                    name: e.name,
                    ts: e.ts,
                });
            }
        }
    }

    report.findings.sort_by(|x, y| {
        (
            x.a.ts, x.a.rank, x.b.ts, x.b.rank, x.overlap, &x.a.name, &x.b.name,
        )
            .cmp(&(
                y.a.ts, y.a.rank, y.b.ts, y.b.rank, y.overlap, &y.a.name, &y.b.name,
            ))
    });
    report.findings.dedup();
    report
}

fn join(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

// ---------------------------------------------------------- entry points

/// Check an in-memory event buffer **in arrival order** (a
/// [`MemorySink`](atomio_trace::MemorySink) snapshot — its mutex makes
/// arrival order consistent with the run's real cross-thread causality).
pub fn check_events(events: &[TraceEvent]) -> HbReport {
    run_checker(events.iter().filter_map(classify_event).collect())
}

/// The accesses the checker extracts from `events`, as `(rank, byte runs,
/// write)` in stream order — what it *sees*, so a test can tell a clean
/// verdict from a blind one (an I/O path whose accesses emit no event, or
/// none in the vocabulary, races with nothing).
pub fn accesses(events: &[TraceEvent]) -> Vec<(usize, Footprint, bool)> {
    events
        .iter()
        .filter_map(classify_event)
        .filter_map(|e| match e.kind {
            Kind::Access { fp, write } => Some((e.rank, fp, write)),
            _ => None,
        })
        .collect()
}

fn classify_event(e: &TraceEvent) -> Option<HbEvent> {
    let Track::Rank(rank) = e.track else {
        return None;
    };
    let args: Vec<(String, u64)> = e.args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    classify(e.cat.label(), e.name, rank, e.start, e.dur.is_some(), &args)
}

/// Check an exported Chrome-trace JSON document. The exporter sorts
/// events per track, so arrival order is gone; a causally consistent
/// order is rebuilt from the virtual timestamps: each event sorts at the
/// instant it takes effect (accesses and grants when they complete,
/// releases and revocation flushes when they are issued), with
/// same-instant ties broken access → release → flush → grant →
/// collective. Stable sort keeps per-track program order.
pub fn check_chrome_json(text: &str) -> Result<HbReport, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("no traceEvents array")?;
    let mut stream: Vec<(u64, u8, HbEvent)> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        if ph != "X" && ph != "i" {
            continue; // metadata etc.
        }
        if ev.get("pid").and_then(|v| v.as_u64()) != Some(1) {
            continue; // only rank tracks carry client accesses
        }
        let rank = ev
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or("event without tid")? as usize;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_ns())
            .ok_or("event without ts")?;
        let dur = ev.get("dur").and_then(|v| v.as_ns());
        let cat = ev.get("cat").and_then(|v| v.as_str()).unwrap_or("");
        let name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let args: Vec<(String, u64)> = ev
            .get("args")
            .map(|a| {
                a.entries()
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default();
        let Some(hbe) = classify(cat, name, rank, ts, dur.is_some(), &args) else {
            continue;
        };
        let end = ts + dur.unwrap_or(0);
        let (eff, prio) = match hbe.kind {
            Kind::Access { .. } => (end, 0u8),
            Kind::Release { .. } => (ts, 1),
            Kind::RevokeFlush { .. } => (ts, 2),
            Kind::Acquire { .. } => (end, 3),
            Kind::Collective { .. } => (end, 4),
        };
        stream.push((eff, prio, hbe));
    }
    stream.sort_by_key(|&(eff, prio, _)| (eff, prio));
    Ok(run_checker(stream.into_iter().map(|(_, _, e)| e).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_trace::Category;

    fn ev(
        rank: usize,
        cat: Category,
        name: &'static str,
        ts: u64,
        dur: Option<u64>,
        args: &[(&'static str, u64)],
    ) -> TraceEvent {
        TraceEvent {
            track: Track::Rank(rank),
            cat,
            name,
            start: ts,
            dur,
            args: args.to_vec(),
        }
    }

    fn w(rank: usize, ts: u64, off: u64, len: u64) -> TraceEvent {
        ev(
            rank,
            Category::Io,
            "direct write",
            ts,
            Some(10),
            &[("bytes", len), ("off", off)],
        )
    }

    fn r(rank: usize, ts: u64, off: u64, len: u64) -> TraceEvent {
        ev(
            rank,
            Category::Io,
            "direct read",
            ts,
            Some(10),
            &[("bytes", len), ("off", off)],
        )
    }

    #[test]
    fn unsynchronized_conflict_is_reported() {
        let report = check_events(&[w(0, 0, 0, 64), r(1, 5, 32, 64)]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].overlap, (32, 64));
    }

    #[test]
    fn reads_never_conflict_with_reads() {
        let report = check_events(&[r(0, 0, 0, 64), r(1, 5, 0, 64)]);
        assert!(report.findings.is_empty());
        assert_eq!(report.accesses, 2);
    }

    #[test]
    fn disjoint_writes_are_clean() {
        let report = check_events(&[w(0, 0, 0, 64), w(1, 5, 64, 64)]);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn release_acquire_edge_orders_the_pair() {
        let lock_args: &[(&'static str, u64)] = &[("lo", 0), ("len", 128), ("excl", 1)];
        let report = check_events(&[
            ev(0, Category::Lock, "lock wait", 0, Some(1), lock_args),
            w(0, 1, 0, 64),
            ev(0, Category::Lock, "lock release", 11, None, lock_args),
            ev(1, Category::Lock, "lock wait", 11, Some(1), lock_args),
            r(1, 12, 0, 64),
            ev(1, Category::Lock, "lock release", 22, None, lock_args),
        ]);
        assert!(report.findings.is_empty(), "{report}");
        assert!(report.sync_joins >= 1);
    }

    #[test]
    fn shared_shared_release_builds_no_edge_but_is_clean() {
        let shared: &[(&'static str, u64)] = &[("lo", 0), ("len", 64), ("excl", 0)];
        let report = check_events(&[
            ev(0, Category::Lock, "lock wait", 0, Some(1), shared),
            r(0, 1, 0, 64),
            ev(0, Category::Lock, "lock release", 2, None, shared),
            ev(1, Category::Lock, "lock wait", 2, Some(1), shared),
            r(1, 3, 0, 64),
        ]);
        assert!(report.findings.is_empty());
        assert_eq!(report.sync_joins, 0, "shared/shared must not synchronize");
    }

    #[test]
    fn revoke_flush_orders_buffered_write_before_rival_read() {
        let report = check_events(&[
            ev(
                0,
                Category::Cache,
                "cached write",
                0,
                None,
                &[("bytes", 64), ("off", 0)],
            ),
            // Rival's acquisition revokes rank 0's token, flushing bytes 0..64.
            ev(
                0,
                Category::Coherence,
                "revoke flush",
                10,
                Some(5),
                &[("lo", 0), ("len", 64)],
            ),
            ev(
                1,
                Category::Lock,
                "lock wait",
                10,
                Some(5),
                &[("lo", 0), ("len", 64), ("excl", 0)],
            ),
            r(1, 15, 0, 64),
        ]);
        assert!(report.findings.is_empty(), "{report}");
    }

    #[test]
    fn collective_barrier_orders_all_participants() {
        let report = check_events(&[
            w(0, 0, 0, 64),
            ev(0, Category::Comm, "barrier", 10, Some(5), &[]),
            ev(1, Category::Comm, "barrier", 12, Some(3), &[]),
            r(1, 15, 0, 64),
        ]);
        assert!(report.findings.is_empty(), "{report}");
    }

    #[test]
    fn barrier_racer_ahead_does_not_leak_post_barrier_work_backwards() {
        // Rank 0 passes the barrier and writes; rank 1's barrier event
        // arrives later (real-thread scheduling), then rank 1 reads the
        // same bytes without further synchronization: racy.
        let report = check_events(&[
            ev(0, Category::Comm, "barrier", 10, Some(5), &[]),
            w(0, 15, 0, 64),
            ev(1, Category::Comm, "barrier", 12, Some(3), &[]),
            r(1, 16, 0, 64),
        ]);
        assert_eq!(report.findings.len(), 1, "{report}");
    }

    #[test]
    fn sub_communicator_collectives_pair_by_group_not_globally() {
        // Node {0,1} runs TWO sub-communicator collectives while node
        // {2,3} runs ONE, then everybody joins a world barrier. With a
        // single global k-index the barrier would be rank 0's 3rd
        // collective but rank 3's 2nd and the join would misalign,
        // reporting a phantom race; grouped by member list it is the 0th
        // world collective for everyone.
        let node01: &[(&'static str, u64)] = &[("bytes", 64), ("mem", 0), ("mem", 1)];
        let node23: &[(&'static str, u64)] = &[("bytes", 64), ("mem", 2), ("mem", 3)];
        let report = check_events(&[
            ev(0, Category::Comm, "gatherv", 0, Some(2), node01),
            ev(1, Category::Comm, "gatherv", 0, Some(2), node01),
            ev(0, Category::Comm, "gatherv", 5, Some(2), node01),
            ev(1, Category::Comm, "gatherv", 5, Some(2), node01),
            w(0, 8, 0, 64),
            ev(2, Category::Comm, "gatherv", 0, Some(2), node23),
            ev(3, Category::Comm, "gatherv", 0, Some(2), node23),
            ev(0, Category::Comm, "barrier", 20, Some(5), &[]),
            ev(1, Category::Comm, "barrier", 20, Some(5), &[]),
            ev(2, Category::Comm, "barrier", 20, Some(5), &[]),
            ev(3, Category::Comm, "barrier", 20, Some(5), &[]),
            r(3, 26, 0, 64),
        ]);
        assert!(report.findings.is_empty(), "{report}");
    }

    #[test]
    fn sub_communicator_edges_do_not_cover_outside_ranks() {
        // A {0,1} collective orders nothing about rank 2: its write and
        // rank 0's later read stay an unordered conflict.
        let node01: &[(&'static str, u64)] = &[("bytes", 8), ("mem", 0), ("mem", 1)];
        let report = check_events(&[
            w(2, 0, 0, 64),
            ev(0, Category::Comm, "gatherv", 5, Some(2), node01),
            ev(1, Category::Comm, "gatherv", 5, Some(2), node01),
            r(0, 10, 0, 64),
        ]);
        assert_eq!(report.findings.len(), 1, "{report}");
    }

    #[test]
    fn chrome_roundtrip_detects_and_clears() {
        let racy = atomio_trace::export_chrome(&[w(0, 0, 0, 64), r(1, 5, 32, 64)]);
        let report = check_chrome_json(&racy).unwrap();
        assert_eq!(report.findings.len(), 1);

        let lock_args: &[(&'static str, u64)] = &[("lo", 0), ("len", 128), ("excl", 1)];
        let clean = atomio_trace::export_chrome(&[
            ev(0, Category::Lock, "lock wait", 0, Some(1), lock_args),
            w(0, 1, 0, 64),
            ev(0, Category::Lock, "lock release", 11, None, lock_args),
            ev(1, Category::Lock, "lock wait", 11, Some(1), lock_args),
            r(1, 12, 0, 64),
        ]);
        let report = check_chrome_json(&clean).unwrap();
        assert!(report.findings.is_empty(), "{report}");
    }

    #[test]
    fn malformed_trace_is_an_error_not_a_report() {
        // What `tracecheck --json` refuses builds no happens-before edges:
        // each of these differs from a racy, well-formed trace by one token.
        let racy = atomio_trace::export_chrome(&[w(0, 0, 0, 64), r(1, 5, 32, 64)]);
        assert_eq!(check_chrome_json(&racy).unwrap().findings.len(), 1);
        for (good, bad) in [
            ("\"ts\":0.000", "\"ts\":00.000"),
            ("\"ts\":0.005", "\"ts\":.005"),
            ("\"off\":32", "\"off\":+32"),
            ("\"bytes\":64", "\"bytes\":64."),
            ("direct read", "direct\tread"),
        ] {
            assert!(racy.contains(good), "fixture lost {good}");
            let err = check_chrome_json(&racy.replacen(good, bad, 1)).unwrap_err();
            assert!(err.contains("at byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn finding_display_is_stable() {
        let report = check_events(&[w(0, 100, 0, 64), r(1, 205, 32, 64)]);
        assert_eq!(
            report.to_string(),
            "1 unordered conflicting access pair(s)\n\
             unordered conflict on bytes [32..64): \
             rank 0 \"direct write\" @100ns [0..64) vs rank 1 \"direct read\" @205ns [32..96)"
        );
    }
}
