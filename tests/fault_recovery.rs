//! Crash/recovery fault-injection stress: the `lock_coherence.rs`
//! reader/writer workload re-run under **seeded fault schedules** — server
//! crashes mid-flush, torn journal appends, dropped and delayed
//! revocations — with the same per-byte version-floor oracle. Faults may
//! cost virtual time (retries, backoff, journal replays) but must never
//! cost correctness: a reader holding a shared lock must never observe a
//! byte older than the newest released version, crashes or not, because
//! the write-ahead revocation journal replays committed flushes and
//! discards torn ones before a recovered server serves again.

use std::sync::{Arc, Mutex};

use atomio::prelude::*;
use atomio::vtime::Job;
use atomio::vtime::MemCost;

/// fast_test timing with GPFS-style distributed tokens, lock-driven
/// coherence, and a write-behind threshold the working sets stay under —
/// the same platform as `lock_coherence.rs`, so dirty data really lingers
/// in client caches until a revocation (or crash recovery) moves it.
fn gpfs_coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence: CoherenceMode::LockDriven,
        cache: CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// Tiny deterministic PRNG (xorshift) — same schedule shape every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const CLIENTS: usize = 4;

/// The randomized revocation stress of `lock_coherence.rs`, with a fault
/// plan in the loop and every fault-reachable call on its `try_` form.
/// Asserts the per-byte version floor on every locked read and, after all
/// handles sync, that the servers hold exactly the newest version of
/// every byte. Returns the file-system-wide fault counters.
fn run_faulted_stress(plan: FaultPlan) -> FaultSnapshot {
    const FILE: u64 = 64 * 1024;
    const ITERS: usize = 60;
    let fs = FileSystem::with_faults(gpfs_coherent_profile(), plan);
    let floor = Arc::new(Mutex::new(vec![0u8; FILE as usize]));

    let mut handles = Vec::new();
    let job = Job::new(CLIENTS);
    for client in 0..CLIENTS {
        let fs = fs.clone();
        let seat = job.seat(client);
        let floor = Arc::clone(&floor);
        let writer = client < 2;
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, seat.clock().clone(), "stress");
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (client as u64 + 1));
            for _ in 0..ITERS {
                let len = 1 + rng.below(4096);
                let off = rng.below(FILE - len);
                let range = ByteRange::at(off, len);
                if writer {
                    let guard = f.lock(range, LockMode::Exclusive).unwrap();
                    let v = {
                        let fl = floor.lock().unwrap();
                        fl[off as usize..(off + len) as usize]
                            .iter()
                            .copied()
                            .max()
                            .unwrap()
                            + 1
                    };
                    f.write(IoPath::Cached, [(off, &vec![v; len as usize])])
                        .unwrap();
                    floor.lock().unwrap()[off as usize..(off + len) as usize].fill(v);
                    guard.release();
                } else {
                    let guard = f.lock(range, LockMode::Shared).unwrap();
                    let snap: Vec<u8> =
                        floor.lock().unwrap()[off as usize..(off + len) as usize].to_vec();
                    let mut buf = vec![0u8; len as usize];
                    f.read(IoPath::Cached, [(off, &mut buf)]).unwrap();
                    guard.release();
                    for (i, (&got, &min)) in buf.iter().zip(snap.iter()).enumerate() {
                        assert!(
                            got >= min,
                            "stale read at byte {}: version {got} < floor {min}",
                            off + i as u64
                        );
                    }
                }
            }
            f.try_sync().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every handle synced and every crash recovered: the servers must hold
    // exactly the newest version of every byte — journal replay may apply
    // committed flushes late, but it must never resurrect old data or
    // leave a torn record applied.
    let snap = fs.snapshot("stress").unwrap().to_vec();
    let fl = floor.lock().unwrap();
    for (i, (&got, &want)) in snap.iter().zip(fl.iter()).enumerate() {
        assert_eq!(got, want, "byte {i}: servers hold {got}, newest is {want}");
    }
    fs.fault_stats()
}

/// Seeded fault-schedule sweep: several seeds at increasing fault counts.
/// Every combination must uphold the version floor and the final-state
/// equality; across the sweep the schedules must actually bite (faults
/// fired, at least one server crash, at least one journal replay) so a
/// silently inert fault plan can't green-wash the run.
#[test]
fn seeded_fault_sweep_preserves_version_floor() {
    let servers = gpfs_coherent_profile().sim_servers;
    let mut total = FaultSnapshot::default();
    for seed in [0xFA0171u64, 0xFA0172, 0xFA0173] {
        for faults in [4usize, 10] {
            let snap = run_faulted_stress(FaultPlan::seeded(seed, servers, CLIENTS, faults));
            total.faults_injected += snap.faults_injected;
            total.server_crashes += snap.server_crashes;
            total.journal_replays += snap.journal_replays;
            total.records_torn += snap.records_torn;
        }
    }
    assert!(
        total.faults_injected > 0,
        "the sweep must fire real faults, got {total:?}"
    );
    assert!(
        total.server_crashes >= 1,
        "the sweep must crash at least one server, got {total:?}"
    );
    assert!(
        total.journal_replays >= 1,
        "at least one crash must be recovered by journal replay, got {total:?}"
    );
}

/// The empty plan through the same harness: nothing fires, nothing is
/// counted — the zero-cost fast path of the injector is really inert.
#[test]
fn empty_plan_is_inert() {
    let snap = run_faulted_stress(FaultPlan::none());
    assert_eq!(snap, FaultSnapshot::default());
}

// ------------------------------------------------ collective-write fault grid

/// Every collective write path: the four that used to leave the collective
/// on a failed write (the healthy ranks then sat in a barrier they could
/// never leave) and the three that used to write *through* a
/// crashed server and report success.
const COLLECTIVE_WRITES: [(Strategy, IoPath); 7] = [
    (Strategy::FileLocking(LockGranularity::Span), IoPath::Direct),
    (Strategy::ListIo, IoPath::Direct),
    (Strategy::GraphColoring, IoPath::Cached),
    (Strategy::RankOrdering, IoPath::Cached),
    (Strategy::GraphColoring, IoPath::Direct),
    (Strategy::RankOrdering, IoPath::Direct),
    (Strategy::TwoPhase, IoPath::Direct),
];

const DEAD: usize = 3;

/// 16 rows of 16 KiB over 4 ranks on `fast_test`'s 4 servers × 4 KiB
/// stripes: a row is one stripe row, so rank r's columns sit on server r
/// plus the ghost columns it shares with its neighbours' servers.
fn asymmetric_spec() -> ColWise {
    ColWise::new(16, 16 * 1024, 4, 8).unwrap()
}

/// What one rank brings back: its write's outcome and its retry count.
type Outcome = (Result<WriteReport, atomio::core::Error>, u64);

/// One collective column-wise write under `strategy`/`path` with server
/// `DEAD` crashing on the first request it sees. Every rank must come
/// back, with its write's outcome and its retry count; a rank left parked
/// fails the run with the job table's deadlock report.
fn faulted_collective_write(
    restart: RestartPolicy,
    strategy: Strategy,
    path: IoPath,
) -> (FileSystem, Vec<Outcome>) {
    let plan = FaultPlan::none().with(
        FaultSite::ServerRequest { server: DEAD },
        1,
        FaultAction::CrashServer { restart },
    );
    let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
    let spec = asymmetric_spec();
    let started = std::time::Instant::now();
    let outcomes = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "grid", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_io_path(path);
        file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
        let written = file.write_at_all(0, &buf);
        let retries = file.posix().stats().snapshot().retries;
        // Collective too: a rank that cannot flush still attends. The
        // write drained the cache, failed flushes included, so close
        // has nothing left to fail on.
        let closed = file.close();
        assert!(closed.is_ok(), "rank {}: close: {closed:?}", comm.rank());
        (written, retries)
    });
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "{strategy}/{path:?}: ranks took {:?} to return",
        started.elapsed()
    );
    (fs, outcomes)
}

/// A server that stays down: every rank returns, the ranks whose bytes
/// live on it with a typed error and the others with `Ok`, and it holds
/// no byte of the file.
#[test]
fn collective_writes_fail_typed_on_exactly_the_ranks_of_a_dead_server() {
    let views = asymmetric_spec().all_views();
    let unit = PlatformProfile::fast_test().stripe_unit;
    let on_dead = |offset: u64| (offset / unit) as usize % 4 == DEAD;
    for (strategy, path) in COLLECTIVE_WRITES {
        let (fs, outcomes) = faulted_collective_write(RestartPolicy::Manual, strategy, path);
        for (rank, (written, _)) in outcomes.iter().enumerate() {
            // What the rank itself sends to the servers: its request,
            // minus what it surrenders under rank ordering; a two-phase
            // aggregator writes its file domain instead, whoever asked for
            // the bytes, and every domain here spans whole stripe rows.
            let sent = match strategy {
                Strategy::RankOrdering => {
                    let higher = views[rank + 1..]
                        .iter()
                        .fold(StridedSet::new(), |acc, v| acc.union(v));
                    views[rank].subtract(&higher)
                }
                _ => views[rank].clone(),
            };
            let touches_dead = strategy == Strategy::TwoPhase
                || sent
                    .iter()
                    .any(|run| on_dead(run.start) || on_dead(run.end - 1));
            match written {
                Ok(_) => assert!(
                    !touches_dead,
                    "{strategy}/{path:?}: rank {rank} reported success over a dead server"
                ),
                Err(atomio::core::Error::Fs(FsError::RetriesExhausted { server, .. })) => {
                    assert!(touches_dead, "{strategy}/{path:?}: rank {rank} failed");
                    assert_eq!(*server, DEAD);
                }
                Err(e) => panic!("{strategy}/{path:?}: rank {rank}: untyped failure {e}"),
            }
        }
        let image = fs.snapshot("grid").unwrap_or_default().to_vec();
        let landed = (0..image.len() as u64).filter(|&o| on_dead(o) && image[o as usize] != 0);
        assert_eq!(
            landed.count(),
            0,
            "{strategy}/{path:?}: bytes landed on the dead server"
        );
    }
}

/// The same crash with a restart after three rejections: retries and a
/// journal replay cost virtual time, never the result.
#[test]
fn collective_writes_ride_out_a_restarting_server() {
    let spec = asymmetric_spec();
    for (strategy, path) in COLLECTIVE_WRITES {
        let (fs, outcomes) = faulted_collective_write(RestartPolicy::Rejections(3), strategy, path);
        for (rank, (written, _)) in outcomes.iter().enumerate() {
            assert!(
                written.is_ok(),
                "{strategy}/{path:?}: rank {rank}: {written:?}"
            );
        }
        let retries: u64 = outcomes.iter().map(|(_, retries)| retries).sum();
        assert!(retries > 0, "{strategy}/{path:?}: the crash never bit");
        let image = fs.snapshot("grid").expect("file written");
        let check =
            verify::check_mpi_atomicity(&image, &spec.all_views(), &pattern::rank_stamps(spec.p));
        assert!(check.is_atomic(), "{strategy}/{path:?}: {check:?}");
    }
}

/// A rank whose handle died at its first flush (`KillClient`) enters a
/// collective locked write or read, under file locking or sieving: it gets
/// `Closed` without taking a lock, and still attends the handshake and
/// closing barriers, so the healthy ranks return with `Ok`.
#[test]
fn collective_locked_write_fails_only_the_rank_with_a_dead_handle() {
    let strategies = [
        Strategy::FileLocking(LockGranularity::Span),
        Strategy::DataSieving,
    ];
    for read in [false, true] {
        for strategy in strategies {
            let call = if read { "read_at_all" } else { "write_at_all" };
            let plan = FaultPlan::none().with(
                FaultSite::ClientFlush { client: DEAD },
                1,
                FaultAction::KillClient,
            );
            let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
            let spec = asymmetric_spec();
            let started = std::time::Instant::now();
            let outcomes = run(spec.p, fs.profile().net.clone(), |comm| {
                let part = spec.partition(comm.rank());
                let mut buf = part.fill(pattern::rank_stamp(comm.rank()));
                let mut file = MpiFile::open(&comm, &fs, "dead", OpenMode::ReadWrite).unwrap();
                // One cached byte each, so every rank's sync has a flush to make.
                file.posix()
                    .write(IoPath::Cached, [(comm.rank() as u64, &[1])])
                    .unwrap();
                let synced = file.sync();
                file.set_view(0, part.filetype.clone()).unwrap();
                file.set_atomicity(Atomicity::Atomic(strategy)).unwrap();
                let done = if read {
                    file.read_at_all(0, &mut buf).map(drop)
                } else {
                    file.write_at_all(0, &buf).map(drop)
                };
                let locks = file.posix().stats().snapshot().lock_acquires;
                let closed = file.close().map(drop);
                (synced.is_ok(), done, locks, closed)
            });
            assert!(
                started.elapsed() < std::time::Duration::from_secs(5),
                "{strategy} {call}: ranks took {:?} to return",
                started.elapsed()
            );
            for (rank, (synced, done, locks, closed)) in outcomes.into_iter().enumerate() {
                if rank == DEAD {
                    assert!(!synced, "the plan must kill rank {rank}'s handle");
                    for result in [&done, &closed] {
                        assert!(
                            matches!(result, Err(atomio::core::Error::Fs(FsError::Closed))),
                            "{strategy} {call}: dead rank {rank}: {result:?}"
                        );
                    }
                    assert_eq!(
                        locks, 0,
                        "{strategy} {call}: a dead handle must take no lock"
                    );
                } else {
                    assert!(
                        synced && done.is_ok() && closed.is_ok(),
                        "{strategy} {call}: rank {rank}: {done:?}, close {closed:?}"
                    );
                    assert_eq!(locks, 1, "{strategy} {call}: rank {rank}");
                }
            }
        }
    }
}

// ------------------------------------------------- collective-read fault grid

/// The two-phase read of the grid's pipelined row: two nodes of two ranks,
/// so replies ride the node tier, in one-stripe-row rounds.
const PIPELINED: TwoPhaseConfig = TwoPhaseConfig {
    aggregators: None,
    ranks_per_node: 2,
    schedule: ExchangeSchedule::Pipelined {
        round_stripes: 1,
        depth: 1,
    },
};

/// Every collective read mode on both paths, the two-phase ones under the
/// default flat schedule and once pipelined: two-phase used to panic in its
/// aggregators' reads, locking and non-atomic reads used to leave the
/// closing barrier early.
const COLLECTIVE_READS: [(Atomicity, IoPath, Option<TwoPhaseConfig>); 9] = [
    (Atomicity::Atomic(Strategy::TwoPhase), IoPath::Direct, None),
    (Atomicity::Atomic(Strategy::TwoPhase), IoPath::Cached, None),
    (
        Atomicity::Atomic(Strategy::TwoPhase),
        IoPath::Direct,
        Some(PIPELINED),
    ),
    (
        Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
        IoPath::Direct,
        None,
    ),
    (
        Atomicity::Atomic(Strategy::FileLocking(LockGranularity::Span)),
        IoPath::Cached,
        None,
    ),
    (Atomicity::Atomic(Strategy::ListIo), IoPath::Direct, None),
    (Atomicity::Atomic(Strategy::ListIo), IoPath::Cached, None),
    (Atomicity::NonAtomic, IoPath::Direct, None),
    (Atomicity::NonAtomic, IoPath::Cached, None),
];

/// The byte the seeded file holds at `offset`.
fn seeded(offset: u64) -> u8 {
    (offset % 251) as u8 + 1
}

/// What one rank brings back from a read: its outcome, the bytes it read
/// and its retry count.
type ReadOutcome = (
    Result<atomio::core::ReadReport, atomio::core::Error>,
    Vec<u8>,
    u64,
);

/// One collective column-wise read under `atomicity`/`path` (and `two_phase`
/// when given) of a file seeded with [`seeded`] by one whole-file write,
/// with server `DEAD` crashing on the first request it sees after that
/// write. Every rank must come back; a rank left parked fails the run with
/// a deadlock report.
fn faulted_collective_read(
    restart: RestartPolicy,
    (atomicity, path, two_phase): (Atomicity, IoPath, Option<TwoPhaseConfig>),
) -> Vec<ReadOutcome> {
    let plan = FaultPlan::none().with(
        FaultSite::ServerRequest { server: DEAD },
        2,
        FaultAction::CrashServer { restart },
    );
    let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
    let spec = asymmetric_spec();
    let image: Vec<u8> = (0..spec.file_bytes()).map(seeded).collect();
    fs.open(0, Clock::new(), "grid")
        .write(IoPath::Direct, [(0, &image)])
        .unwrap();
    assert!(!fs.server_down(DEAD), "the seed write must not crash it");
    let started = std::time::Instant::now();
    let outcomes = run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let mut buf = vec![0u8; part.data_bytes() as usize];
        let mut file = MpiFile::open(&comm, &fs, "grid", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_io_path(path);
        if let Some(cfg) = two_phase {
            file.set_two_phase_config(cfg);
        }
        file.set_atomicity(atomicity).unwrap();
        let read = file.read_at_all(0, &mut buf);
        let retries = file.posix().stats().snapshot().retries;
        // A read leaves nothing dirty for close to flush.
        let closed = file.close();
        assert!(closed.is_ok(), "rank {}: close: {closed:?}", comm.rank());
        (read, buf, retries)
    });
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "{atomicity:?}/{path:?}/{two_phase:?}: ranks took {:?} to return",
        started.elapsed()
    );
    outcomes
}

/// A server that stays down: every rank returns, the ranks whose requested
/// bytes came from it with a typed error and the others with their bytes.
#[test]
fn collective_reads_fail_typed_on_exactly_the_ranks_of_a_dead_server() {
    let spec = asymmetric_spec();
    let views = spec.all_views();
    let unit = PlatformProfile::fast_test().stripe_unit;
    let on_dead = |offset: u64| (offset / unit) as usize % 4 == DEAD;
    for row @ (atomicity, path, two_phase) in COLLECTIVE_READS {
        let outcomes = faulted_collective_read(RestartPolicy::Manual, row);
        for (rank, (read, buf, _)) in outcomes.iter().enumerate() {
            // A two-phase aggregator reads whole stripe rows — its domain,
            // or a row a round on the pipelined row — so each rank's bytes
            // come from a run on the dead server.
            let touches_dead = atomicity == Atomicity::Atomic(Strategy::TwoPhase)
                || views[rank]
                    .iter()
                    .any(|run| on_dead(run.start) || on_dead(run.end - 1));
            match read {
                Ok(_) => {
                    assert!(
                        !touches_dead,
                        "{atomicity:?}/{path:?}/{two_phase:?}: rank {rank} reported success over a dead server"
                    );
                    assert_eq!(*buf, spec.partition(rank).fill(seeded), "rank {rank}");
                }
                Err(atomio::core::Error::Fs(FsError::RetriesExhausted { server, .. })) => {
                    assert!(
                        touches_dead,
                        "{atomicity:?}/{path:?}/{two_phase:?}: rank {rank} failed"
                    );
                    assert_eq!(*server, DEAD);
                }
                Err(e) => {
                    panic!("{atomicity:?}/{path:?}/{two_phase:?}: rank {rank}: untyped failure {e}")
                }
            }
        }
    }
}

/// The same crash with a restart after three rejections: every rank reads
/// exactly the seeded bytes, at the price of retries.
#[test]
fn collective_reads_ride_out_a_restarting_server() {
    let spec = asymmetric_spec();
    for row @ (atomicity, path, two_phase) in COLLECTIVE_READS {
        let outcomes = faulted_collective_read(RestartPolicy::Rejections(3), row);
        for (rank, (read, buf, _)) in outcomes.iter().enumerate() {
            assert!(
                read.is_ok(),
                "{atomicity:?}/{path:?}/{two_phase:?}: rank {rank}: {read:?}"
            );
            assert_eq!(*buf, spec.partition(rank).fill(seeded), "rank {rank}");
        }
        let retries: u64 = outcomes.iter().map(|(_, _, retries)| retries).sum();
        assert!(
            retries > 0,
            "{atomicity:?}/{path:?}/{two_phase:?}: the crash never bit"
        );
    }
}
