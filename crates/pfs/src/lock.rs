//! The byte-range lock manager: **one** implementation, a preset per `LockKind`.
//!
//! The paper's §3.2 treats central vs. distributed locking as one design
//! axis. [`LockManager`] is that axis as data: [`LockManager::new`] reads
//! the platform's [`LockKind`] and picks a row of the preset table —
//!
//! | `LockKind`      | lock domains  | cached tokens | modes               | one-domain grant      |
//! |-----------------|---------------|---------------|---------------------|-----------------------|
//! | `Central`       | 1             | no            | shared / exclusive  | one round trip        |
//! | `Distributed`   | 1             | yes           | folded to exclusive | one round trip        |
//! | `Sharded`       | `sim_servers` | no            | shared / exclusive  | rides its own request |
//! | `ShardedTokens` | `sim_servers` | yes           | shared / exclusive  | one round trip        |
//!
//! — plus the cost terms (`lock_grant_ns` per domain round trip,
//! `client_op_ns` per extra request injection, `token_revoke_ns` +
//! `token_revoke_byte_ns` per revocation).
//!
//! **Grants are atomic multi-range list locks.** Locking a request's exact
//! footprint means granting a list of ranges, and granting them one at a
//! time is unsound: serializability needs every range held to the end of
//! the request (strict two-phase locking), and holding one range while
//! waiting for the next deadlocks under fair queueing. So the only granting
//! shape is an **all-or-nothing** grant of a whole [`StridedSet`] under the
//! manager-wide fair `(vtime, client, seq)` queue: a request is granted
//! only when no conflicting byte is held (by anyone, the requester
//! included) and no earlier-priority conflicting request is queued.
//!
//! **Domains** (Lustre-style extent locks): byte `b` belongs to lock domain
//! `(b / stripe_unit) % domains` — the server that stores it. A request is
//! sliced per domain ([`StridedSet::shard_slice`]) and ordered after each
//! touched domain's own latest conflicting release, which the domain keeps
//! exactly, in one [`RunMap`] of release times per mode; the per-domain round
//! trips run concurrently, so virtual grant cost is **max over domains, not
//! sum**: [`fanout_ns`] over the domains the grant must contact, each on
//! its own server. With one domain that is exactly one
//! `lock_grant_ns` round trip — the central manager (NFS/XFS) — and because
//! the release→grant chain is work-conserving, N conflicting
//! lock-write-unlock cycles take the sum of their hold times: "using
//! byte-range file locking serializes the I/O" (§3.4).
//!
//! **Server-side grants** (Lustre's server-side locking): under the
//! token-less `Sharded` preset a set that slices into exactly one domain is
//! granted by that domain's server when the first data request arrives, so
//! it pays no fan-out and reports `shard_trips = 0`. Admission, conflict
//! waits (the data request still reaches the server no earlier than the
//! previous holder's release), release times and host-side exclusion are
//! unchanged. A multi-domain set still needs the fan-out first (all or
//! nothing across servers), and a token is client state the grant reply
//! must deliver, so `ShardedTokens` — like both one-domain presets — always
//! pays its trip. This is sound because every lock site in `atomio-core`
//! (`write_at`, `read_at`, the sieve's windows, collective file locking)
//! issues I/O to the locked bytes before it releases; the only lock-only
//! caller is the benchmark's host-time probe, whose virtual clock nobody
//! reads.
//!
//! **Tokens** (GPFS, Schmuck & Haskin FAST'02): a client keeps the token
//! over the bytes it locked after unlocking; a domain keeps its tokens as
//! one [`RunMap`] of owners. A slice the client already owns in a domain
//! skips that domain's round trip; a conflicting acquisition revokes the
//! overlap from every other holder, paying `token_revoke_ns` per (holder,
//! domain) and waiting for the holder's last release. With a
//! [`CoherenceHub`] attached, each revocation is dispatched to the holder —
//! ascending holder id, once per holder, as one canonical [`StridedSet`] —
//! and flushes and invalidates **exactly the revoked bytes** of its cache
//! before the new grant completes.
//!
//! The rule: state that grows grant by grant is a [`RunMap`]; what is
//! shipped or compared — requests, slices, revocations — a [`StridedSet`].
//!
//! **Mode fold.** The `Distributed` preset treats every request as
//! exclusive, as the paper's GPFS experiments do (all writes).

use std::collections::BTreeMap;
use std::sync::Arc;

use atomio_check::{assert_may_wait, OrderedMutex};
use atomio_interval::{ByteRange, RunMap, StridedSet};
use atomio_vtime::{fanout_ns, Clock, VNanos, Wait, Waiters, Wakeup};

use crate::coherence::CoherenceHub;
use crate::lockclass;
use crate::profile::{LockKind, PlatformProfile};

/// Byte-range lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared read lock: coexists with other shared locks.
    Shared,
    /// Exclusive write lock.
    Exclusive,
}

/// Priority ticket of a registered (not yet granted) lock request:
/// `(request vtime, client, manager-wide sequence)` — the fair-queueing key.
pub(crate) type LockTicket = (VNanos, usize, u64);

/// Outcome of one atomic multi-range grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetGrant {
    /// Handle to release the whole grant with.
    pub id: u64,
    /// Virtual time at which every range of the set is held.
    pub granted_at: VNanos,
    /// Lock-domain round trips actually sent: one per touched domain, minus
    /// the domains served from a cached token — and none for a one-domain
    /// grant that rides its data request (see the module docs).
    pub shard_trips: u64,
    /// Domains served from a locally cached token with no round trip.
    pub token_hits: u64,
    /// True when the grant was ordered behind a conflicting holder or a
    /// conflicting past release — the serialization that exact-footprint
    /// locking exists to avoid, and the unit the `locking` bench counts.
    pub serialized: bool,
}

/// Two requests conflict when they share a byte and at least one is
/// exclusive.
fn conflicts(a: (&StridedSet, LockMode), b: (&StridedSet, LockMode)) -> bool {
    (a.1 == LockMode::Exclusive || b.1 == LockMode::Exclusive) && a.0.overlaps(b.0)
}

/// A queued request under the fair `(vtime, client, seq)` order.
#[derive(Debug)]
struct Waiter {
    prio: LockTicket,
    set: StridedSet,
    mode: LockMode,
}

#[derive(Debug)]
struct Granted {
    id: u64,
    owner: usize,
    mode: LockMode,
    set: StridedSet,
    /// Per-domain slices, ascending by domain.
    slices: Vec<(usize, StridedSet)>,
}

/// Disjoint runs, in any order, as the canonical set that ships them.
fn compress(mut runs: Vec<ByteRange>) -> StridedSet {
    runs.sort_unstable_by_key(|r| r.start);
    StridedSet::from_sorted_extents(runs.iter().map(|r| (r.start, r.len())))
}

/// One lock domain: the extent-lock state of one I/O server.
#[derive(Debug, Default)]
struct Domain {
    /// Each byte's latest exclusive release: a later conflicting grant
    /// cannot begin before the writer's release in virtual time.
    excl_release: RunMap<VNanos>,
    /// Each byte's latest shared release: constrains exclusive grants.
    shared_release: RunMap<VNanos>,
    /// The client whose cached token holds each byte (token presets only).
    tokens: RunMap<usize>,
    /// Virtual time at which each token holder last released a lock here.
    avail: BTreeMap<usize, VNanos>,
}

#[derive(Debug)]
struct LockState {
    next_id: u64,
    next_seq: u64,
    granted: Vec<Granted>,
    /// Fair admission queue shared across all domains: a request may only
    /// be granted when no *conflicting* waiter has a smaller priority. This
    /// prevents starvation and makes contention resolution independent of
    /// host thread scheduling.
    waiters: Vec<Waiter>,
    domains: Vec<Domain>,
    /// Revocations granted but not yet dispatched to the holders' caches:
    /// `(grant id, revoked bytes)`. A new grant overlapping any entry waits
    /// for its dispatch to finish — without this gate a *shared* grant
    /// (which conflict-waits on nobody) could be admitted between a rival's
    /// token subtraction and its coherence flush, and read the holder's
    /// pre-flush data from the servers.
    pending_coherence: Vec<(u64, StridedSet)>,
    /// Ranks parked in the admission wait; every change that may admit
    /// one wakes them all.
    parked: Waiters,
}

impl LockState {
    /// Whether `(set, mode)` queued at `prio` must keep waiting.
    fn blocked(&self, prio: LockTicket, set: &StridedSet, mode: LockMode) -> bool {
        let req = (set, mode);
        self.granted
            .iter()
            .any(|g| conflicts((&g.set, g.mode), req))
            || self
                .waiters
                .iter()
                .any(|w| w.prio < prio && conflicts((&w.set, w.mode), req))
            || self.pending_coherence.iter().any(|(_, r)| r.overlaps(set))
    }

    /// What `owner`, blocked on `(set, mode)` in `file`'s manager, reports
    /// if the job deadlocks: the locks it holds here and the conflicting
    /// ones it waits behind.
    fn wait(&self, file: &Arc<str>, owner: usize, set: &StridedSet, mode: LockMode) -> Wait {
        let mut wait = Wait::on(ADMISSION, file);
        for g in &self.granted {
            if g.owner == owner {
                wait.holds(g.id);
            }
            if conflicts((&g.set, g.mode), (set, mode)) {
                wait.behind(g.id, g.owner);
            }
        }
        wait
    }
}

/// The admission wait's site, in lock-order panics and deadlock reports.
const ADMISSION: &str = "lock admission wait";

/// The byte-range lock manager of one file; see the module docs.
#[derive(Debug)]
pub struct LockManager {
    /// The file's name: a deadlock report names each lock by it.
    file: Arc<str>,
    state: OrderedMutex<LockState>,
    domains: usize,
    stripe_unit: u64,
    tokens: bool,
    fold_modes: bool,
    /// Server-side locking: a grant confined to one domain travels with
    /// the first data request to that domain's server and pays no round
    /// trip of its own (the token-less sharded preset only).
    rides_data: bool,
    /// One domain's grant round trip.
    grant_ns: VNanos,
    /// Client-side cost of injecting one extra per-domain request message
    /// (the serial part of the parallel fan-out).
    issue_ns: VNanos,
    /// Flat fee per revoked (holder, domain) pair.
    revoke_ns: VNanos,
    /// Per-byte cost of the dirty data each revocation flushes, billed to
    /// the revoking acquirer (see
    /// [`PlatformProfile::token_revoke_byte_ns`]).
    revoke_byte_ns: f64,
    /// Revocation fan-out for lock-driven cache coherence (token presets
    /// only); `None` keeps revocations a pure cost-model event.
    coherence: Option<Arc<CoherenceHub>>,
}

impl LockManager {
    /// The manager of file `file` that `profile.lock_kind` selects (the
    /// preset table of the module docs), or `None` on a lockless platform.
    /// `coherence` is the file's revocation fan-out; only the token presets
    /// use it.
    pub fn new(
        file: &str,
        profile: &PlatformProfile,
        coherence: Option<Arc<CoherenceHub>>,
    ) -> Option<Self> {
        let (domains, tokens, fold_modes, rides_data) = match profile.lock_kind {
            LockKind::None => return None,
            LockKind::Central => (1, false, false, false),
            LockKind::Distributed => (1, true, true, false),
            LockKind::Sharded => (profile.sim_servers, false, false, true),
            LockKind::ShardedTokens => (profile.sim_servers, true, false, false),
        };
        assert!(domains > 0 && profile.stripe_unit > 0);
        Some(LockManager {
            file: file.into(),
            state: lockclass::lock_state(LockState {
                next_id: 0,
                next_seq: 0,
                granted: Vec::new(),
                waiters: Vec::new(),
                domains: (0..domains).map(|_| Domain::default()).collect(),
                pending_coherence: Vec::new(),
                parked: Waiters::default(),
            }),
            domains,
            stripe_unit: profile.stripe_unit,
            tokens,
            fold_modes,
            rides_data,
            grant_ns: profile.lock_grant_ns,
            issue_ns: profile.client_op_ns,
            revoke_ns: profile.token_revoke_ns,
            revoke_byte_ns: profile.token_revoke_byte_ns,
            coherence: coherence.filter(|_| tokens),
        })
    }

    fn fold(&self, mode: LockMode) -> LockMode {
        if self.fold_modes {
            LockMode::Exclusive
        } else {
            mode
        }
    }

    /// Slice `set` over the domains, ascending, non-empty slices only.
    fn slices(&self, set: &StridedSet) -> Vec<(usize, StridedSet)> {
        (0..self.domains)
            .filter_map(|d| {
                let slice = set.shard_slice(self.stripe_unit, self.domains as u64, d as u64);
                (!slice.is_empty()).then_some((d, slice))
            })
            .collect()
    }

    /// First half of a two-phase acquisition: enqueue the request without
    /// blocking. When every contender registers before anyone waits (the
    /// collective file-locking strategy interposes a barrier), grants
    /// follow the fair `(vtime, client, seq)` order exactly, making
    /// contention — and revocation counts — deterministic.
    pub(crate) fn register_set(
        &self,
        owner: usize,
        set: &StridedSet,
        mode: LockMode,
        now: VNanos,
    ) -> LockTicket {
        let mut st = self.state.lock();
        let prio = (now, owner, st.next_seq);
        st.next_seq += 1;
        st.waiters.push(Waiter {
            prio,
            set: set.clone(),
            mode: self.fold(mode),
        });
        prio
    }

    /// Second half: block until **every** range of the set is granted,
    /// atomically, parking the caller's `clock` while it waits. The
    /// ticket's vtime is the requester's clock at request time; the grant
    /// time accounts for the round trips, any conflicting holder's release,
    /// and the revocations the grant caused.
    pub(crate) fn wait_granted_set(
        &self,
        prio: LockTicket,
        set: &StridedSet,
        mode: LockMode,
        clock: &Clock,
    ) -> SetGrant {
        let (now, owner, _) = prio;
        let mode = self.fold(mode);
        let slices = self.slices(set);
        let mut woken = Wakeup::default();
        let mut st = self.state.lock();
        // Only the holder's release admits this request: hold nothing it
        // may need, whether or not this call ends up waiting.
        assert_may_wait(ADMISSION, lockclass::ADMISSION_WAIT);
        // All-or-nothing across every touched domain: two requests conflict
        // iff some domain slice conflicts, and slicing partitions the byte
        // set, so whole-set overlap is the same test.
        let mut waited = false;
        while st.blocked(prio, set, mode) {
            waited = true;
            let wait = st.wait(&self.file, owner, set, mode);
            clock.park(st.raw(), |st| &mut st.parked, wait);
        }
        let pos = st
            .waiters
            .iter()
            .position(|w| w.prio == prio)
            .expect("own entry");
        st.waiters.swap_remove(pos);
        // Leaving the queue may unblock waiters queued behind this entry.
        st.parked.wake_all(&mut woken);

        let mut earliest = now;
        let mut token_hits = 0u64;
        let mut revocations = 0u64;
        // Domains the grant must contact: the width of the fan-out below.
        let mut missed = 0u64;
        // Byte runs each holder loses across all domains (with the last
        // domain it lost some in), aggregated so the coherence fan-out runs
        // once per holder, in ascending holder order — the order holders
        // flush onto the shared server horizons must not depend on the
        // process.
        let mut lost: BTreeMap<usize, (Option<usize>, Vec<ByteRange>)> = BTreeMap::new();
        for (d, slice) in &slices {
            let domain = &mut st.domains[*d];
            let latest = |map: &RunMap<VNanos>| {
                let runs = slice.iter().flat_map(|r| map.runs_meeting(r));
                runs.map(|(_, &t)| t).max().unwrap_or(0)
            };
            earliest = earliest.max(latest(&domain.excl_release));
            if mode == LockMode::Exclusive {
                earliest = earliest.max(latest(&domain.shared_release));
            }
            if self.tokens {
                if slice.iter().all(|r| domain.tokens.holds(r, &owner)) {
                    token_hits += 1;
                    continue;
                }
                // Take the slice from every other holder's token, revoking
                // once per (holder, domain); the rest of the holder's
                // coverage (and cache) stays warm.
                for r in slice.iter() {
                    for (held, &holder) in domain.tokens.runs_meeting(r) {
                        if holder == owner {
                            continue;
                        }
                        let (last, runs) = lost.entry(holder).or_default();
                        if *last != Some(*d) {
                            *last = Some(*d);
                            let avail = domain.avail.get(&holder).copied().unwrap_or(0);
                            earliest = earliest.max(avail);
                            revocations += 1;
                        }
                        runs.extend(held.intersect(&r));
                    }
                    domain.tokens.insert(r, owner);
                }
            }
            missed += 1;
        }
        if self.rides_data && slices.len() == 1 {
            // The one server this request touches grants it when the first
            // data request arrives: no trip goes out ahead of the I/O, and
            // `earliest` still orders it after that server's conflicting
            // releases.
            missed = 0;
        }
        let serialized = waited || earliest > now;
        // The per-domain round trips proceed concurrently: the fan-out
        // completes when the slowest one does (nothing at all on an
        // all-hit or ridden grant, exactly `grant_ns` with one domain).
        let mut granted_at = earliest
            + fanout_ns(self.issue_ns, self.grant_ns, missed)
            + revocations * self.revoke_ns;

        let id = st.next_id;
        st.next_id += 1;
        st.granted.push(Granted {
            id,
            owner,
            mode,
            set: set.clone(),
            slices,
        });
        if let Some(hub) = &self.coherence {
            // Record the grantee's cache-validity rights while the state
            // mutex is still held — before the tokens are visible to (and
            // revocable by) any rival; see `RevocationHandler::granted`.
            hub.grant_coverage(owner, set);
            if !lost.is_empty() {
                let taken = lost.values().flat_map(|(_, runs)| runs.iter().copied());
                st.pending_coherence.push((id, compress(taken.collect())));
            }
        }
        // Dispatch the revocations with the state mutex released (a
        // holder's cache flush must not block unrelated lock traffic) but
        // before the grant is returned, and under the `pending_coherence`
        // gate so no overlapping grant can be admitted mid-dispatch.
        drop(st);
        drop(woken);
        if let Some(hub) = self.coherence.as_ref().filter(|_| !lost.is_empty()) {
            // The flat `revoke_ns` fees were charged above; the flush's
            // *bytes* are known only once the holders have served their
            // revocations, so the per-byte charge lands here — plus any
            // fault-injected dispatch delay (dropped/delayed revocations
            // stall the acquirer, not the holder).
            let mut flushed = 0u64;
            let mut fault_delay: VNanos = 0;
            for (holder, (_, runs)) in lost {
                let out = hub.revoke(holder, &compress(runs), granted_at);
                flushed += out.flushed;
                fault_delay += out.delay_ns;
            }
            granted_at += (flushed as f64 * self.revoke_byte_ns).round() as VNanos + fault_delay;
            let mut woken = Wakeup::default();
            let mut st = self.state.lock();
            st.pending_coherence.retain(|(gid, _)| *gid != id);
            st.parked.wake_all(&mut woken);
        }
        SetGrant {
            id,
            granted_at,
            shard_trips: missed,
            token_hits,
            serialized,
        }
    }

    /// Register and wait in one call (independent, non-collective I/O),
    /// at the time `clock` reads.
    pub fn acquire_set(
        &self,
        owner: usize,
        set: &StridedSet,
        mode: LockMode,
        clock: &Clock,
    ) -> SetGrant {
        let ticket = self.register_set(owner, set, mode, clock.now());
        self.wait_granted_set(ticket, set, mode, clock)
    }

    /// Release grant `id` (every range at once) at virtual time `now`. Any
    /// token stays with the client.
    pub fn release(&self, id: u64, now: VNanos) {
        let mut woken = Wakeup::default();
        let mut st = self.state.lock();
        let pos = st
            .granted
            .iter()
            .position(|g| g.id == id)
            .expect("releasing a lock that is not held");
        let g = st.granted.swap_remove(pos);
        for (d, slice) in g.slices {
            let domain = &mut st.domains[d];
            if self.tokens {
                let avail = domain.avail.entry(g.owner).or_default();
                *avail = (*avail).max(now);
            }
            let released = match g.mode {
                LockMode::Exclusive => &mut domain.excl_release,
                LockMode::Shared => &mut domain.shared_release,
            };
            // Each byte keeps its latest release, whatever the arrival order.
            for r in slice.iter() {
                released.update(r, |t| Some(t.map_or(now, |&t| t.max(now))));
            }
        }
        st.parked.wake_all(&mut woken);
    }

    /// Number of currently granted multi-range locks (diagnostics).
    pub fn active(&self) -> usize {
        self.state.lock().granted.len()
    }

    /// Release-map runs held across all domains and both modes
    /// (diagnostics): bounded by the distinct runs released, not by the
    /// number of releases.
    pub(crate) fn history_len(&self) -> usize {
        self.state
            .lock()
            .domains
            .iter()
            .map(|d| d.excl_release.len() + d.shared_release.len())
            .sum()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test recorder: a plain mutex the code under test never takes"
)]
mod tests {
    use super::*;
    use crate::coherence::RevocationHandler;
    use atomio_interval::{ByteRange, Train};
    use atomio_vtime::{Job, Seat};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;
    use LockKind::{Central, Distributed, Sharded, ShardedTokens};
    use LockMode::{Exclusive, Shared};

    impl LockManager {
        /// The token coverage `owner` holds across all domains.
        pub(crate) fn token_set(&self, owner: usize) -> StridedSet {
            let st = self.state.lock();
            let held = st.domains.iter().flat_map(|d| d.tokens.iter());
            compress(held.filter(|&(_, &o)| o == owner).map(|(r, _)| r).collect())
        }
    }

    const UNIT: u64 = 1024;
    const PRESETS: [LockKind; 4] = [Central, Distributed, Sharded, ShardedTokens];
    const TOKEN_PRESETS: [LockKind; 2] = [Distributed, ShardedTokens];

    /// `kind`'s preset over 4 servers on a 1 KiB stripe grid, 1 µs per
    /// extra request injection.
    fn profile(kind: LockKind, grant_ns: VNanos, revoke_ns: VNanos) -> PlatformProfile {
        PlatformProfile {
            lock_kind: kind,
            lock_grant_ns: grant_ns,
            token_revoke_ns: revoke_ns,
            sim_servers: 4,
            stripe_unit: UNIT,
            client_op_ns: 1_000,
            ..PlatformProfile::fast_test()
        }
    }

    fn mgr(kind: LockKind, grant_ns: VNanos, revoke_ns: VNanos) -> LockManager {
        LockManager::new("t", &profile(kind, grant_ns, revoke_ns), None).unwrap()
    }

    fn range(start: u64, end: u64) -> StridedSet {
        StridedSet::from_range(ByteRange::new(start, end))
    }

    fn at(start: u64, len: u64) -> StridedSet {
        StridedSet::from_range(ByteRange::at(start, len))
    }

    fn comb(start: u64, len: u64, stride: u64, count: u64) -> StridedSet {
        StridedSet::from_train(Train::new(start, len, stride, count))
    }

    /// A clock reading `now`, alone in its job: for a request that is
    /// granted without waiting.
    fn at_time(now: VNanos) -> Clock {
        let clock = Clock::new();
        clock.advance(now);
        clock
    }

    /// Rank `rank` of `job`, its clock reading `now`: a thread that may
    /// wait shares a job with every thread that may wake it. A slot no
    /// thread takes (the test's own thread's, when it only releases) stays
    /// running.
    fn seat_at(job: &Job, rank: usize, now: VNanos) -> Seat {
        let seat = job.seat(rank);
        seat.clock().advance(now);
        seat
    }

    /// Wait until `job`'s rank `rank` is parked in the admission wait.
    fn until_admission_wait(job: &Job, rank: usize) {
        while job.parked_at(rank) != Some(ADMISSION) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn lockless_platform_has_no_manager() {
        assert!(LockManager::new("t", &profile(LockKind::None, 0, 0), None).is_none());
    }

    /// A class held into a contended acquisition panics before the
    /// admission wait, naming the class, where it was locked and the wait.
    #[test]
    #[cfg(debug_assertions)]
    fn guard_held_across_a_contended_acquire_panics() {
        let m = Arc::new(mgr(Central, 10, 0));
        let holder = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
        let m2 = Arc::clone(&m);
        let err = std::thread::spawn(move || {
            // The lowest rank: any higher one would trip the rank check first.
            let pending = lockclass::server_pending(());
            let _g = pending.lock();
            m2.acquire_set(1, &range(50, 150), Exclusive, &at_time(0));
        })
        .join()
        .expect_err("must panic instead of waiting under another mutex");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("pfs.server_pending (locked at crates/pfs/src/lock.rs"),
            "{msg}"
        );
        assert!(msg.contains("lock admission wait"), "{msg}");
        m.release(holder.id, 100);
    }

    // ------------------------------------------------- every preset alike

    #[test]
    fn non_overlapping_grants_are_concurrent() {
        // Both ranges lie in domain 0: the sharded grant rides its request.
        for (kind, grant_ns, fee) in [
            (Central, 100, 100),
            (Distributed, 1_000, 1_000),
            (Sharded, 100, 0),
            (ShardedTokens, 1_000, 1_000),
        ] {
            let m = mgr(kind, grant_ns, 10_000);
            let a = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            let b = m.acquire_set(1, &range(100, 200), Exclusive, &at_time(0));
            assert_eq!(a.granted_at, fee);
            assert_eq!(
                b.granted_at, fee,
                "{kind:?}: disjoint ranges neither serialize nor revoke"
            );
            m.release(a.id, a.granted_at + 50);
            m.release(b.id, b.granted_at + 50);
            assert_eq!(m.active(), 0);
        }
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        for (kind, fee) in [(Central, 10), (Sharded, 0), (ShardedTokens, 10)] {
            let m = mgr(kind, 10, 0);
            let s1 = m.acquire_set(0, &range(0, 100), Shared, &at_time(0));
            let s2 = m.acquire_set(1, &range(50, 150), Shared, &at_time(0));
            m.release(s1.id, 500);
            m.release(s2.id, 700);
            // Exclusive over the shared region must start after both shared
            // releases in virtual time.
            let x = m.acquire_set(2, &range(0, 150), Exclusive, &at_time(0));
            assert_eq!(x.granted_at, 700 + fee, "{kind:?}");
            m.release(x.id, x.granted_at);
        }
    }

    #[test]
    fn distributed_preset_folds_shared_to_exclusive() {
        // The same two shared requests that coexist above conflict here:
        // the second waits for the first's release, and its grant is
        // ordered after that release in virtual time.
        let m = Arc::new(mgr(Distributed, 10, 0));
        let released = Arc::new(AtomicBool::new(false));
        let s1 = m.acquire_set(0, &range(0, 100), Shared, &at_time(0));
        let (m2, released2) = (Arc::clone(&m), Arc::clone(&released));
        let job = Job::new(2);
        let seat = seat_at(&job, 1, 0);
        let h = std::thread::spawn(move || {
            let s2 = m2.acquire_set(1, &range(50, 150), Shared, seat.clock());
            assert!(
                released2.load(Ordering::SeqCst),
                "shared granted alongside shared"
            );
            assert!(s2.serialized);
            assert_eq!(s2.granted_at, 500 + 10);
            m2.release(s2.id, s2.granted_at);
        });
        until_admission_wait(&job, 1);
        released.store(true, Ordering::SeqCst);
        m.release(s1.id, 500);
        h.join().unwrap();
        let st = m.state.lock();
        assert!(
            st.domains.iter().all(|d| d.shared_release.is_empty()),
            "both releases land in the exclusive map"
        );
    }

    #[test]
    fn same_owner_overlap_waits_like_any_other_conflict() {
        // No preset is re-entrant: a client's own in-use lock blocks its
        // overlapping second request until released.
        for kind in PRESETS {
            let m = Arc::new(mgr(kind, 0, 0));
            let released = Arc::new(AtomicBool::new(false));
            let g = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            let (m2, released2) = (Arc::clone(&m), Arc::clone(&released));
            let job = Job::new(2);
            let seat = seat_at(&job, 1, 0);
            let h = std::thread::spawn(move || {
                let g2 = m2.acquire_set(0, &range(50, 60), Exclusive, seat.clock());
                assert!(
                    released2.load(Ordering::SeqCst),
                    "{kind:?}: re-entrant grant over the owner's own held range"
                );
                m2.release(g2.id, g2.granted_at);
            });
            until_admission_wait(&job, 1);
            released.store(true, Ordering::SeqCst);
            m.release(g.id, 1_000);
            h.join().unwrap();
        }
    }

    #[test]
    fn conflicting_grant_ordered_after_release_vtime() {
        for (kind, fee) in [(Central, 10), (Sharded, 0)] {
            let m = mgr(kind, 10, 0);
            let a = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            assert_eq!(a.granted_at, fee);
            m.release(a.id, 1_000);
            // Second client requested "at" vtime 50, but the range was
            // released at vtime 1000: serialization is visible in virtual
            // time.
            let b = m.acquire_set(1, &range(50, 60), Exclusive, &at_time(50));
            assert_eq!(b.granted_at, 1_000 + fee, "{kind:?}");
            m.release(b.id, b.granted_at);
        }
    }

    #[test]
    fn real_threads_serialize_on_conflict() {
        for kind in PRESETS {
            let m = Arc::new(mgr(kind, 0, 0));
            let counter = Arc::new(Mutex::new(0u64));
            let job = Job::new(8);
            let handles: Vec<_> = (0..8)
                .map(|owner| {
                    let m = Arc::clone(&m);
                    let counter = Arc::clone(&counter);
                    let seat = job.seat(owner);
                    std::thread::spawn(move || {
                        // All conflict in domain 2 of the sharded presets.
                        let g = m.acquire_set(owner, &at(2 * UNIT, 128), Exclusive, seat.clock());
                        {
                            // Critical section: nobody else may hold the lock.
                            let mut c = counter.lock();
                            *c += 1;
                            assert_eq!(m.active(), 1, "{kind:?}: exclusive grant must be sole");
                        }
                        m.release(g.id, g.granted_at + 100);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock(), 8);
        }
    }

    #[test]
    fn serialized_cycles_sum_hold_times() {
        // N lock-hold-release cycles over the same range: final grant time
        // >= sum of hold durations (work-conserving serialization).
        for kind in PRESETS {
            let m = mgr(kind, 0, 0);
            let hold = 1_000u64;
            let mut last_grant = 0;
            for i in 0..10 {
                let g = m.acquire_set(i, &range(0, 10), Exclusive, &at_time(0));
                m.release(g.id, g.granted_at + hold);
                last_grant = g.granted_at;
            }
            assert_eq!(last_grant, 9 * hold, "{kind:?}");
        }
    }

    #[test]
    fn repeated_cycles_keep_history_bounded() {
        // The release maps of a long-running manager must not grow with
        // the number of lock/unlock cycles, under two ping-ponging owners
        // and 7 one-run regions spread over the domains: they hold at most
        // the distinct runs released, 7 per mode (one mode on the
        // mode-folding preset).
        for (kind, modes) in [
            (Central, 2),
            (Distributed, 1),
            (Sharded, 2),
            (ShardedTokens, 2),
        ] {
            let m = mgr(kind, 0, 0);
            let mut now = 0;
            for i in 0..5_000u64 {
                let owner = (i % 2) as usize;
                let set = at((i % 7) * 600, 64);
                for mode in [Exclusive, Shared] {
                    let g = m.acquire_set(owner, &set, mode, &at_time(now));
                    m.release(g.id, g.granted_at + 1);
                    now = g.granted_at + 1;
                }
            }
            assert!(
                m.history_len() <= 7 * modes,
                "{kind:?}: history grew to {}",
                m.history_len()
            );
        }
    }

    #[test]
    fn double_release_panics() {
        for kind in PRESETS {
            let m = mgr(kind, 0, 0);
            let g = m.acquire_set(0, &range(0, 1), Exclusive, &at_time(0));
            m.release(g.id, g.granted_at);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.release(g.id, g.granted_at)
            }))
            .expect_err("second release must panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or_else(|| err.downcast_ref::<&str>().copied());
            assert!(msg.is_some_and(|m| m.contains("not held")), "{kind:?}");
        }
    }

    #[test]
    fn two_phase_grants_in_priority_order() {
        // All three clients register before anyone waits; grants must then
        // follow (vtime, client) order regardless of wait order.
        for kind in PRESETS {
            let m = Arc::new(mgr(kind, 0, 0));
            let set = range(0, 100);
            let tickets: Vec<_> = (0..3)
                .map(|c| m.register_set(c, &set, Exclusive, 0))
                .collect();

            let turn = Arc::new(AtomicUsize::new(0));
            let job = Job::new(3);
            // Wait in REVERSE client order; fairness must still grant 0,1,2.
            let handles: Vec<_> = [2usize, 1, 0]
                .into_iter()
                .map(|client| {
                    let m = Arc::clone(&m);
                    let turn = Arc::clone(&turn);
                    let ticket = tickets[client];
                    let seat = job.seat(client);
                    std::thread::spawn(move || {
                        let g = m.wait_granted_set(ticket, &range(0, 100), Exclusive, seat.clock());
                        let my_turn = turn.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(
                            my_turn, client,
                            "{kind:?}: grant order must follow priority"
                        );
                        m.release(g.id, g.granted_at + 10);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn waiter_priority_blocks_later_vtime() {
        // A registered earlier-vtime waiter must hold off a later one even
        // when the later one calls wait first.
        for kind in PRESETS {
            let m = Arc::new(mgr(kind, 0, 0));
            let set = range(0, 10);
            let early = m.register_set(0, &set, Exclusive, 100);
            let late = m.register_set(1, &set, Exclusive, 200);

            let m2 = Arc::clone(&m);
            let job = Job::new(2);
            let seat = seat_at(&job, 1, 200);
            let h = std::thread::spawn(move || {
                let g = m2.wait_granted_set(late, &range(0, 10), Exclusive, seat.clock());
                m2.release(g.id, g.granted_at);
                g.granted_at
            });
            // The late waiter parks: it must not grab the lock.
            until_admission_wait(&job, 1);
            let g = m.wait_granted_set(early, &set, Exclusive, &at_time(100));
            m.release(g.id, g.granted_at + 50);
            let t_late = h.join().unwrap();
            assert!(
                t_late >= g.granted_at + 50,
                "{kind:?}: late grant {t_late} must follow early release"
            );
        }
    }

    #[test]
    fn set_grant_is_all_or_nothing() {
        // A multi-range request must never hold a prefix of its ranges
        // while a conflicting holder pins a later one: the critical
        // section only starts once every range is exclusively held.
        for kind in PRESETS {
            let m = Arc::new(mgr(kind, 0, 0));
            let held = Arc::new(AtomicBool::new(true));
            // Holder pins only the LAST run of the comb.
            let hold = m.acquire_set(9, &at(32 * 63, 8), Exclusive, &at_time(0));

            let (m2, held2) = (Arc::clone(&m), Arc::clone(&held));
            let job = Job::new(2);
            let seat = seat_at(&job, 1, 0);
            let waiter = std::thread::spawn(move || {
                let g = m2.acquire_set(0, &comb(0, 8, 32, 64), Exclusive, seat.clock());
                assert!(
                    !held2.load(Ordering::SeqCst),
                    "{kind:?}: granted while a range was still held"
                );
                assert!(g.serialized, "blocked grant must report serialization");
                m2.release(g.id, g.granted_at);
            });
            until_admission_wait(&job, 1);
            // While the set request waits, the comb itself holds nothing:
            // not even its untouched first runs.
            assert_eq!(m.active(), 1, "only the single-range holder is active");
            held.store(false, Ordering::SeqCst);
            m.release(hold.id, 1_000);
            waiter.join().unwrap();
        }
    }

    // ------------------------------------------------------- one domain

    #[test]
    fn disjoint_interleaved_sets_grant_concurrently() {
        // Two interleaved strided footprints whose bounding spans overlap
        // almost entirely: exact list grants must not serialize them.
        let m = mgr(Central, 100, 0);
        let ga = m.acquire_set(0, &comb(0, 8, 32, 64), Exclusive, &at_time(0));
        let gb = m.acquire_set(1, &comb(8, 8, 32, 64), Exclusive, &at_time(0));
        assert_eq!(ga.granted_at, 100);
        assert_eq!(gb.granted_at, 100, "disjoint lists must not serialize");
        assert!(!ga.serialized && !gb.serialized);
        assert_eq!(ga.shard_trips, 1, "one list round trip");
        m.release(ga.id, 500);
        m.release(gb.id, 500);
        // A later overlapping set is constrained by both releases at once.
        let gc = m.acquire_set(2, &comb(0, 16, 32, 64), Exclusive, &at_time(0));
        assert_eq!(gc.granted_at, 500 + 100);
        assert!(gc.serialized);
        m.release(gc.id, 600);
    }

    // ----------------------------------------------------------- tokens

    #[test]
    fn first_acquire_pays_grant_cost() {
        for kind in TOKEN_PRESETS {
            let m = mgr(kind, 1_000, 10_000);
            let g = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            assert_eq!((g.token_hits, g.shard_trips), (0, 1));
            assert_eq!(g.granted_at, 1_000);
            m.release(g.id, g.granted_at + 5);
        }
    }

    #[test]
    fn reacquire_with_cached_token_is_cheap() {
        for kind in TOKEN_PRESETS {
            let m = mgr(kind, 1_000, 10_000);
            let g = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            let t = g.granted_at;
            m.release(g.id, t + 500);
            // Same client, same range: token is cached, no round trip.
            let g2 = m.acquire_set(0, &range(10, 20), Exclusive, &at_time(t + 600));
            assert_eq!((g2.token_hits, g2.shard_trips), (1, 0));
            assert_eq!(
                g2.granted_at,
                t + 600,
                "cached grant only waits for conflicting releases"
            );
            m.release(g2.id, g2.granted_at);
            assert_eq!(m.token_set(0).total_len(), 100);
        }
    }

    #[test]
    fn conflicting_acquire_pays_revocation() {
        for kind in TOKEN_PRESETS {
            let m = mgr(kind, 1_000, 10_000);
            let g = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            m.release(g.id, 50_000);
            // Client 1 overlaps client 0's cached token: revoke + grant,
            // and ordered after client 0's release vtime.
            let g2 = m.acquire_set(1, &range(50, 150), Exclusive, &at_time(0));
            assert_eq!(g2.token_hits, 0);
            assert_eq!(g2.granted_at, 50_000 + 1_000 + 10_000);
            m.release(g2.id, g2.granted_at);
            // Client 0's token lost the overlapped part.
            assert_eq!(m.token_set(0).total_len(), 50);
            assert_eq!(m.token_set(1).total_len(), 100);
        }
    }

    #[test]
    fn ping_pong_is_expensive_caching_is_not() {
        // Alternating conflicting acquisitions pay revocation every time;
        // repeated same-client acquisitions pay only once.
        for kind in TOKEN_PRESETS {
            let cycle = |owners: usize| {
                let m = mgr(kind, 1_000, 10_000);
                let mut now = 0;
                for i in 0..6 {
                    let g = m.acquire_set(i % owners, &range(0, 10), Exclusive, &at_time(now));
                    m.release(g.id, g.granted_at + 100);
                    now = g.granted_at + 100;
                }
                now
            };
            let (t_pingpong, t_single) = (cycle(2), cycle(1));
            assert!(
                t_pingpong > t_single + 4 * 10_000,
                "{kind:?}: ping-pong {t_pingpong} should dwarf single-client {t_single}"
            );
        }
    }

    #[test]
    fn strided_set_token_covers_all_runs() {
        // A comb token acquired once serves a sub-comb from cache, while a
        // set reaching outside the cached bytes pays the round trip.
        for kind in TOKEN_PRESETS {
            let m = mgr(kind, 1_000, 10_000);
            let g = m.acquire_set(0, &comb(0, 8, 32, 16), Exclusive, &at_time(0));
            assert_eq!(g.token_hits, 0);
            m.release(g.id, 10);

            let g2 = m.acquire_set(0, &comb(32, 4, 32, 8), Exclusive, &at_time(20));
            assert_eq!(g2.token_hits, 1, "sub-comb fully covered by cached token");
            assert_eq!(g2.shard_trips, 0);
            m.release(g2.id, 30);

            let g3 = m.acquire_set(0, &comb(8, 8, 32, 16), Exclusive, &at_time(40));
            assert_eq!(g3.token_hits, 0, "gap bytes are not covered");
            m.release(g3.id, 50);
        }
    }

    /// Records, per revocation served, the holder it was registered for
    /// and the ranges it lost — into a log shared between holders.
    #[derive(Debug)]
    struct Recorder {
        holder: usize,
        seen: RevocationLog,
    }

    impl RevocationHandler for Recorder {
        fn revoke(&self, ranges: &StridedSet, _now: VNanos) -> u64 {
            self.seen.lock().push((self.holder, ranges.clone()));
            0
        }
    }

    type RevocationLog = Arc<Mutex<Vec<(usize, StridedSet)>>>;

    fn recorded(kind: LockKind, holders: &[usize]) -> (LockManager, RevocationLog) {
        let hub = Arc::new(CoherenceHub::default());
        let seen = RevocationLog::default();
        for &holder in holders {
            let seen = Arc::clone(&seen);
            hub.register(holder, Arc::new(Recorder { holder, seen }));
        }
        let m = LockManager::new("t", &profile(kind, 1_000, 10_000), Some(hub)).unwrap();
        (m, seen)
    }

    #[test]
    fn revocation_dispatches_exactly_the_lost_ranges() {
        for kind in TOKEN_PRESETS {
            let (m, seen) = recorded(kind, &[0]);
            let g = m.acquire_set(0, &range(0, 100), Exclusive, &at_time(0));
            let t = g.granted_at;
            m.release(g.id, t + 1);
            // Client 1 takes [50, 150): client 0 must be told to give up
            // exactly [50, 100) — not its whole token, not the whole cache.
            let g2 = m.acquire_set(1, &range(50, 150), Exclusive, &at_time(t + 2));
            m.release(g2.id, g2.granted_at);
            let lost = StridedSet::from_range(ByteRange::new(50, 100));
            assert_eq!(*seen.lock(), [(0, lost)]);
            // A non-conflicting acquisition revokes nothing.
            let g3 = m.acquire_set(1, &range(200, 300), Exclusive, &at_time(g2.granted_at + 1));
            m.release(g3.id, g3.granted_at);
            assert_eq!(seen.lock().len(), 1);
        }
    }

    #[test]
    fn revocations_dispatch_in_ascending_holder_order() {
        // Holders flush onto shared server horizons, so the dispatch order
        // must be a function of the request, not of hash seeds or of who
        // happened to acquire a token first: holder 2 tokens up before
        // holder 1, yet holder 1 is revoked first.
        for kind in TOKEN_PRESETS {
            let (m, seen) = recorded(kind, &[1, 2]);
            for holder in [2, 1] {
                let g = m.acquire_set(
                    holder,
                    &at(holder as u64 * 100, 100),
                    Exclusive,
                    &at_time(0),
                );
                m.release(g.id, g.granted_at);
            }
            let g = m.acquire_set(0, &range(0, 400), Exclusive, &at_time(0));
            m.release(g.id, g.granted_at);
            let order: Vec<usize> = seen.lock().iter().map(|(holder, _)| *holder).collect();
            assert_eq!(order, [1, 2], "{kind:?}");
        }
    }

    // --------------------------------------------------- several domains

    #[test]
    fn single_domain_sharded_grant_rides_its_request() {
        // One domain: the server grants the lock with the data request, so
        // the grant lands at max(now, conflicting release) and sends no trip.
        let m = mgr(Sharded, 10_000, 0);
        let g = m.acquire_set(0, &at(100, 64), Exclusive, &at_time(500));
        assert_eq!((g.granted_at, g.shard_trips), (500, 0));
        assert!(!g.serialized);
        m.release(g.id, 3_000);
        // Conflicting, requested before that release: ordered after it.
        let h = m.acquire_set(1, &at(120, 8), Exclusive, &at_time(1_000));
        assert_eq!((h.granted_at, h.shard_trips), (3_000, 0));
        assert!(h.serialized);
        m.release(h.id, 4_000);
        // Requested after the last release: granted on arrival.
        let k = m.acquire_set(2, &at(120, 8), Exclusive, &at_time(5_000));
        assert_eq!((k.granted_at, k.shard_trips), (5_000, 0));
        m.release(k.id, k.granted_at);
    }

    #[test]
    fn two_domain_sharded_set_still_pays_max_over_domains() {
        // Straddling domains 0 and 1: all-or-nothing across two servers
        // needs the fan-out first — one extra injection, one parallel trip,
        // after the later of the two domains' conflicting releases.
        let m = mgr(Sharded, 10_000, 0);
        let d1 = m.acquire_set(0, &at(UNIT, 64), Exclusive, &at_time(0));
        m.release(d1.id, 20_000);
        let g = m.acquire_set(1, &at(UNIT - 64, 128), Exclusive, &at_time(0));
        assert_eq!(g.shard_trips, 2);
        assert_eq!(g.granted_at, 20_000 + 1_000 + 10_000);
        assert!(g.serialized);
        m.release(g.id, g.granted_at);
    }

    #[test]
    fn single_range_on_other_presets_pays_the_grant() {
        // Central and Distributed have one domain and no server-side
        // grant; ShardedTokens must deliver the token in the grant reply.
        for kind in [Central, Distributed, ShardedTokens] {
            let m = mgr(kind, 10_000, 0);
            let g = m.acquire_set(0, &at(100, 64), Exclusive, &at_time(500));
            assert_eq!((g.granted_at, g.shard_trips), (500 + 10_000, 1), "{kind:?}");
            m.release(g.id, g.granted_at);
        }
    }

    #[test]
    fn conflicting_single_server_writers_serialize_in_fair_order() {
        // Three writers of one domain-2 range register together and wait in
        // reverse order: grants still follow (vtime, client), each after the
        // previous holder's release, and none pays a trip.
        let m = Arc::new(mgr(Sharded, 10_000, 0));
        let set = at(2 * UNIT, 128);
        let tickets: Vec<_> = (0..3)
            .map(|c| m.register_set(c, &set, Exclusive, 0))
            .collect();
        let turn = Arc::new(AtomicUsize::new(0));
        let job = Job::new(3);
        let handles: Vec<_> = [2usize, 1, 0]
            .into_iter()
            .map(|client| {
                let (m, turn, set) = (Arc::clone(&m), Arc::clone(&turn), set.clone());
                let ticket = tickets[client];
                let seat = job.seat(client);
                std::thread::spawn(move || {
                    let g = m.wait_granted_set(ticket, &set, Exclusive, seat.clock());
                    assert_eq!(turn.fetch_add(1, Ordering::SeqCst), client);
                    assert_eq!(m.active(), 1, "exclusive grant must be sole");
                    m.release(g.id, g.granted_at + 100);
                    (g.granted_at, g.shard_trips)
                })
            })
            .collect();
        let mut grants: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        grants.reverse(); // joined in wait order 2, 1, 0
        assert_eq!(grants, [(0, 0), (100, 0), (200, 0)]);
    }

    #[test]
    fn multi_domain_fanout_is_max_not_sum() {
        let m = mgr(Sharded, 10_000, 0);
        // A request spanning all 4 domains: 3 extra injections + ONE
        // parallel round trip, not 4 serialized trips.
        let g = m.acquire_set(0, &at(0, 4 * UNIT), Exclusive, &at_time(0));
        assert_eq!(g.shard_trips, 4);
        assert_eq!(g.granted_at, 3 * 1_000 + 10_000);
        assert!(g.granted_at < 4 * 10_000);
        m.release(g.id, g.granted_at);
    }

    #[test]
    fn different_domains_never_serialize() {
        // One domain each: every grant rides its request.
        let m = mgr(Sharded, 10_000, 0);
        let a = m.acquire_set(0, &at(0, UNIT), Exclusive, &at_time(0));
        let b = m.acquire_set(1, &at(UNIT, UNIT), Exclusive, &at_time(0));
        assert_eq!(a.granted_at, 0);
        assert_eq!(b.granted_at, 0);
        assert!(!b.serialized);
        m.release(a.id, 99_999);
        m.release(b.id, 50);
        // Conflicts are per-domain: a later lock in domain 1 sees only
        // domain 1's release history, not domain 0's much later release.
        let c = m.acquire_set(2, &at(UNIT, UNIT), Exclusive, &at_time(0));
        assert_eq!(c.granted_at, 50);
        assert!(c.serialized);
        m.release(c.id, c.granted_at);
    }

    #[test]
    fn interleaved_combs_on_shared_domains_stay_concurrent() {
        // Two interleaved footprints that both touch every domain but never
        // the same byte: exact slices are disjoint in every domain.
        let m = mgr(Sharded, 10_000, 0);
        let ga = m.acquire_set(0, &comb(0, 256, 512, 16), Exclusive, &at_time(0));
        let gb = m.acquire_set(1, &comb(256, 256, 512, 16), Exclusive, &at_time(0));
        assert!(!ga.serialized && !gb.serialized);
        assert_eq!(ga.granted_at, gb.granted_at);
        m.release(ga.id, 100);
        m.release(gb.id, 100);
    }

    #[test]
    fn token_mode_caches_per_domain() {
        let m = mgr(ShardedTokens, 10_000, 50_000);
        // First acquisition over domains 0 and 1: two misses.
        let g = m.acquire_set(0, &at(0, 2 * UNIT), Exclusive, &at_time(0));
        assert_eq!((g.shard_trips, g.token_hits), (2, 0));
        m.release(g.id, 100);
        assert_eq!(m.token_set(0).total_len(), 2 * UNIT);

        // Re-acquiring a subset: both domains hit, no round trip at all.
        let g2 = m.acquire_set(0, &at(512, UNIT), Exclusive, &at_time(200));
        assert_eq!((g2.shard_trips, g2.token_hits), (0, 2));
        assert_eq!(g2.granted_at, 200, "all-hit grant pays no trips");
        m.release(g2.id, 300);

        // Another client revokes only domain 1's coverage: one revocation,
        // ordered after client 0's avail there.
        let g3 = m.acquire_set(1, &at(UNIT, UNIT), Exclusive, &at_time(0));
        assert_eq!(g3.shard_trips, 1);
        assert_eq!(g3.granted_at, 300 + 10_000 + 50_000);
        m.release(g3.id, g3.granted_at);
        assert_eq!(
            m.token_set(0).total_len(),
            UNIT,
            "domain 1 coverage revoked"
        );
        assert_eq!(m.token_set(1).total_len(), UNIT);
    }

    #[test]
    fn a_token_grown_slot_by_slot_is_one_train() {
        // One owner's 2 000 disjoint 512 B slots 2 KiB apart, granted in a
        // shuffled order: the token is the slots' progression, one train.
        let m = mgr(Distributed, 10, 0);
        for i in 0..2000u64 {
            let g = m.acquire_set(0, &at((i * 7 % 2000) * 2048, 512), Exclusive, &at_time(0));
            m.release(g.id, 0);
        }
        assert_eq!(m.token_set(0), comb(0, 512, 2048, 2000));
    }

    #[test]
    fn overlapping_grant_waits_for_pending_coherence_dispatch() {
        // Regression: a revoking grant's coherence dispatch runs after the
        // state mutex is dropped, and shared grants conflict-wait on
        // nobody — so a second shared grant over the same bytes could be
        // admitted before the holder's flush landed and read pre-flush
        // data. The `pending_coherence` gate must hold it back until the
        // dispatch completes.
        #[derive(Debug)]
        struct SlowFlush {
            done: Arc<AtomicBool>,
        }
        impl RevocationHandler for SlowFlush {
            fn revoke(&self, _ranges: &StridedSet, _now: VNanos) -> u64 {
                std::thread::sleep(Duration::from_millis(80));
                self.done.store(true, Ordering::SeqCst);
                0
            }
        }

        let hub = Arc::new(CoherenceHub::default());
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        hub.register(0, Arc::new(SlowFlush { done: done2 }));
        let m = Arc::new(LockManager::new("t", &profile(ShardedTokens, 0, 0), Some(hub)).unwrap());

        // Client 0 seeds a token, then releases (token retained).
        let g = m.acquire_set(0, &at(0, 64), Exclusive, &at_time(0));
        m.release(g.id, 1);

        // Client 1's shared grant revokes client 0's token; the dispatch
        // to client 0's (slow) handler is in flight for ~80 ms.
        let m2 = Arc::clone(&m);
        let job = Job::new(2);
        let seat = seat_at(&job, 1, 2);
        let h = std::thread::spawn(move || {
            let g = m2.acquire_set(1, &at(0, 64), Shared, seat.clock());
            m2.release(g.id, 3);
        });
        std::thread::sleep(Duration::from_millis(20));

        // Client 2's overlapping shared grant conflict-waits on nobody,
        // but must still be held until the pending flush has landed.
        // (If client 1 hasn't even started yet, client 2 performs the
        // revocation itself, synchronously — `done` is true either way.)
        let g = m.acquire_set(2, &at(0, 64), Shared, seat_at(&job, 0, 4).clock());
        assert!(
            done.load(Ordering::SeqCst),
            "shared grant admitted while the revocation flush was still pending"
        );
        m.release(g.id, 5);
        h.join().unwrap();
    }
}
