//! Deterministic fault injection: the crash/recovery dimension the paper's
//! fault-free testbeds never had (ROADMAP item 4).
//!
//! A [`FaultPlan`] is a pure-data schedule of fault events, each naming a
//! [`FaultSite`] (a specific instrumented point in the file system), the
//! *n*-th hit of that site at which it fires, and a [`FaultAction`]. The
//! running file system holds one [`FaultInjector`] built from the plan; the
//! instrumented sites consult it on every pass. Determinism falls out of
//! the construction: sites are hit in an order fixed by the virtual-time
//! protocol (not wall-clock), per-site hit counters are exact, and each
//! event fires exactly once — so a given `(workload, plan)` pair always
//! produces the same crashes at the same protocol steps. An empty plan is
//! free: [`FaultInjector::check`] returns `None` on a single branch without
//! touching a lock or a counter, so a no-fault run is byte- and
//! vtime-identical to a build that never heard of faults.
//!
//! What can fail, and where:
//! * [`FaultSite::ServerRequest`] — a client request about to be served:
//!   [`FaultAction::CrashServer`] marks the server down; every subsequent
//!   request is *rejected*
//!   ([`FsError::ServerUnavailable`](crate::FsError::ServerUnavailable))
//!   and the client-side retry loop pays vtime backoff until the
//!   [`RestartPolicy`] restarts it.
//! * [`FaultSite::JournalAppend`] — a write-ahead journal intent record
//!   being appended (revocation flush or writer sync):
//!   [`FaultAction::TearRecord`] truncates the record mid-append (it lands
//!   uncommitted) and crashes the home server — the power-cut-mid-flush
//!   scenario the journal exists for.
//! * [`FaultSite::JournalApply`] — a committed record about to mutate the
//!   server blocks: [`FaultAction::CrashServer`] kills the server *between*
//!   commit and apply, leaving a committed-but-unapplied record that only
//!   recovery replay will land.
//! * [`FaultSite::RevokeDispatch`] — a token revocation about to be routed
//!   to its holder: [`FaultAction::DropRevocation`] loses it (the
//!   dispatcher times out and re-sends), [`FaultAction::DelayRevocation`]
//!   stalls it; both surcharge the revoking acquirer's grant time.
//! * [`FaultSite::ClientFlush`] — a client about to flush write-behind
//!   data: [`FaultAction::KillClient`] kills the client *instead*, dirty
//!   bytes and all — the "client death while holding dirty tokens" window
//!   PR 5's visibility contract warned about.

// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use atomio_check::OrderedMutex;

use crate::lockclass;
use crate::stats::counters;

/// An instrumented point in the file system a [`FaultPlan`] event can fire
/// at. Sites are identified by the resource they belong to, so one plan
/// can target "server 2's third request" or "client 1's next flush".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A client request piece about to be served by `server`
    /// (`ServerSet::try_access`).
    ServerRequest { server: usize },
    /// A journal intent record for bytes homed on `server` about to be
    /// appended (revocation flush / writer sync write-ahead).
    JournalAppend { server: usize },
    /// A committed journal record homed on `server` about to be applied to
    /// the block store.
    JournalApply { server: usize },
    /// A token revocation about to be dispatched to `holder`
    /// (`CoherenceHub::revoke`).
    RevokeDispatch { holder: usize },
    /// `client` about to flush write-behind data to the servers.
    ClientFlush { client: usize },
}

/// When a crashed server comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// The server restarts (and recovery replay runs) after this many
    /// *rejected requests* — a deterministic stand-in for a restart timer,
    /// counted in protocol events rather than a wall clock the servers
    /// don't have. Must be ≥ 1.
    Rejections(u32),
    /// The server stays down; retry loops eventually give up with
    /// [`FsError::RetriesExhausted`](crate::FsError::RetriesExhausted).
    Manual,
}

/// What happens when a [`FaultPlan`] event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the site's server; requests are rejected until the policy
    /// restarts it. Valid at [`FaultSite::ServerRequest`] and
    /// [`FaultSite::JournalApply`].
    CrashServer { restart: RestartPolicy },
    /// Tear the journal record mid-append (it lands uncommitted, its
    /// payload lost) and crash the record's home server. Valid at
    /// [`FaultSite::JournalAppend`].
    TearRecord { restart: RestartPolicy },
    /// Lose the revocation dispatch; the dispatcher charges `timeout_ns`
    /// of virtual time to the revoking acquirer and re-sends. Valid at
    /// [`FaultSite::RevokeDispatch`].
    DropRevocation { timeout_ns: u64 },
    /// Stall the revocation dispatch by `ns` virtual nanoseconds before it
    /// lands. Valid at [`FaultSite::RevokeDispatch`].
    DelayRevocation { ns: u64 },
    /// Kill the client at the site instead of letting it flush: its dirty
    /// write-behind data, cache, and token coverage are discarded and its
    /// handle goes dead. Valid at [`FaultSite::ClientFlush`].
    KillClient,
}

/// One scheduled fault: `action` fires on the `at_hit`-th time `site` is
/// consulted (1-based), exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: FaultSite,
    pub at_hit: u64,
    pub action: FaultAction,
}

/// A deterministic schedule of fault events — pure data, buildable by hand
/// ([`FaultPlan::with`]) or from a seed ([`FaultPlan::seeded`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no site ever fires, and the injector stays on its
    /// zero-cost fast path — a run under `FaultPlan::none()` is
    /// byte-identical to a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add one event (builder-style).
    pub fn with(mut self, site: FaultSite, at_hit: u64, action: FaultAction) -> Self {
        assert!(at_hit >= 1, "at_hit is 1-based");
        if let FaultAction::CrashServer {
            restart: RestartPolicy::Rejections(n),
        }
        | FaultAction::TearRecord {
            restart: RestartPolicy::Rejections(n),
        } = action
        {
            assert!(n >= 1, "a Rejections restart needs at least one rejection");
        }
        self.events.push(FaultEvent {
            site,
            at_hit,
            action,
        });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A reproducible mixed schedule: `faults` events spread over the
    /// given server/client population — server crashes (auto-restarting
    /// after a few rejections), torn journal appends, and dropped/delayed
    /// revocations. Same seed, same plan, always.
    pub fn seeded(seed: u64, servers: usize, clients: usize, faults: usize) -> Self {
        assert!(servers > 0 && clients > 0);
        let mut x = seed | 1; // xorshift64 must not start at 0
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut plan = FaultPlan::none();
        for _ in 0..faults {
            let at_hit = 1 + next() % 12;
            let restart = RestartPolicy::Rejections(1 + (next() % 4) as u32);
            plan = match next() % 4 {
                0 => plan.with(
                    FaultSite::ServerRequest {
                        server: next() as usize % servers,
                    },
                    at_hit,
                    FaultAction::CrashServer { restart },
                ),
                1 => plan.with(
                    FaultSite::JournalAppend {
                        server: next() as usize % servers,
                    },
                    at_hit,
                    FaultAction::TearRecord { restart },
                ),
                2 => plan.with(
                    FaultSite::RevokeDispatch {
                        holder: next() as usize % clients,
                    },
                    at_hit,
                    FaultAction::DropRevocation {
                        timeout_ns: 50_000 + next() % 200_000,
                    },
                ),
                _ => plan.with(
                    FaultSite::RevokeDispatch {
                        holder: next() as usize % clients,
                    },
                    at_hit,
                    FaultAction::DelayRevocation {
                        ns: 10_000 + next() % 100_000,
                    },
                ),
            };
        }
        plan
    }
}

counters! {
    /// File-system-wide fault/recovery counters (shared by every client;
    /// [`ClientStats`](crate::ClientStats) carries the per-client view).
    FaultStats,
    /// Plain-value copy of [`FaultStats`].
    FaultSnapshot;
    /// Plan events that fired.
    faults_injected,
    /// Servers crashed (by any action that crashes one).
    server_crashes,
    /// Requests rejected by a down server.
    rejections,
    /// Revocation dispatches lost and re-sent.
    revocations_dropped,
    /// Revocation dispatches stalled.
    revocations_delayed,
    /// Journal records that landed torn.
    records_torn,
    /// Recovery replays run (per file × restart).
    journal_replays,
    /// Committed records applied by replay.
    replayed_records,
    /// Bytes those records carried.
    replayed_bytes,
    /// Torn records discarded by replay.
    torn_records_discarded,
    /// Clients killed by a [`FaultAction::KillClient`] event.
    client_deaths,
}

#[derive(Debug)]
struct Armed {
    event: FaultEvent,
    fired: bool,
}

/// The runtime side of a [`FaultPlan`]: per-site hit counters plus the
/// armed events, consulted by the instrumented sites. One per
/// [`FileSystem`](crate::FileSystem).
#[derive(Debug)]
pub(crate) struct FaultInjector {
    armed: OrderedMutex<Vec<Armed>>,
    hits: OrderedMutex<HashMap<FaultSite, u64>>,
    active: bool,
    stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            active: !plan.is_empty(),
            armed: lockclass::fault_armed(
                plan.events
                    .into_iter()
                    .map(|event| Armed {
                        event,
                        fired: false,
                    })
                    .collect(),
            ),
            hits: lockclass::fault_hits(HashMap::new()),
            stats: FaultStats::default(),
        }
    }

    /// Whether any event is scheduled at all. `false` keeps every
    /// instrumented site on its zero-cost path.
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    pub(crate) fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Count one hit of `site` and return the action of the event that
    /// fires on it, if any. Each event fires at most once; two events on
    /// the same (site, hit) both fire is not supported — the first wins.
    pub(crate) fn check(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.active {
            return None;
        }
        let hit = {
            let mut hits = self.hits.lock();
            let h = hits.entry(site).or_insert(0);
            *h += 1;
            *h
        };
        let mut armed = self.armed.lock();
        let slot = armed
            .iter_mut()
            .find(|a| !a.fired && a.event.site == site && a.event.at_hit == hit)?;
        slot.fired = true;
        self.stats.add(&self.stats.faults_injected, 1);
        Some(slot.event.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.active());
        for _ in 0..10 {
            assert_eq!(inj.check(FaultSite::ServerRequest { server: 0 }), None);
        }
        assert_eq!(inj.stats().snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn event_fires_on_nth_hit_exactly_once() {
        let site = FaultSite::ServerRequest { server: 1 };
        let action = FaultAction::CrashServer {
            restart: RestartPolicy::Rejections(2),
        };
        let inj = FaultInjector::new(FaultPlan::none().with(site, 3, action));
        assert_eq!(inj.check(site), None);
        assert_eq!(inj.check(FaultSite::ServerRequest { server: 0 }), None);
        assert_eq!(inj.check(site), None);
        assert_eq!(inj.check(site), Some(action), "third hit of the site");
        assert_eq!(inj.check(site), None, "events fire once");
        assert_eq!(inj.stats().snapshot().faults_injected, 1);
    }

    #[test]
    fn per_site_counters_are_independent() {
        let a = FaultSite::JournalAppend { server: 0 };
        let b = FaultSite::JournalAppend { server: 1 };
        let act = FaultAction::TearRecord {
            restart: RestartPolicy::Manual,
        };
        let inj = FaultInjector::new(FaultPlan::none().with(b, 1, act));
        assert_eq!(inj.check(a), None, "server 0 hits don't advance server 1");
        assert_eq!(inj.check(b), Some(act));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        let a = FaultPlan::seeded(7, 4, 8, 6);
        let b = FaultPlan::seeded(7, 4, 8, 6);
        let c = FaultPlan::seeded(8, 4, 8, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events().len(), 6);
    }
}
