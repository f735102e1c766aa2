//! Crash-recovery bench: the [`CrashRecovery`] checkpoint-then-reread
//! workload run under deterministic fault schedules ([`FaultPlan`]) on the
//! lock-driven cached path, measuring what faults *cost* (makespan and
//! grant-wait degradation vs fault rate) while asserting what they must
//! *never* cost (atomicity: zero stale, torn or corrupt reads).
//!
//! Three parts:
//!
//! * **No-fault identity** — a run under `FaultPlan::none()` must be
//!   byte-identical (contents *and* makespan) to a run on a file system
//!   that never heard of faults: the injector's fast path is free.
//! * **Fault-rate sweep** — seeded plans (`FaultPlan::seeded`) at
//!   increasing fault counts; every verification read is classified by the
//!   workload checker ([`ReadAnomaly`]) and must come back clean, while
//!   makespan and p99 grant wait record the degradation.
//! * **Mid-flush crash acceptance** — a hand-built plan tears a journal
//!   append on server 0 mid-flush (power-cut scenario): the record lands
//!   uncommitted, the server crashes, the retrying flush drives restart +
//!   journal replay, and the checker asserts the recovered file shows
//!   **zero** stale/torn reads with ≥ 1 replay and ≥ 1 torn record
//!   discarded.
//!
//! Run with `cargo run --release -p atomio-bench --bin artifacts -- --write
//! recovery` (`BENCH_recovery.json`); `--check` runs `recovery_smoke`. The
//! trace records the acceptance run, its `Category::Fault` events included.

use std::sync::Arc;

use super::gpfs_cached;
use crate::{makespan, object, ratio, run_traced, Artifact, Scale, Value};
use atomio_core::{Atomicity, IoPath, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_pfs::{
    CoherenceMode, FaultAction, FaultPlan, FaultSite, FaultSnapshot, FileSystem, LatencySnapshot,
    PlatformProfile, RestartPolicy, Snapshot,
};
use atomio_trace::MemorySink;
use atomio_vtime::VNanos;
use atomio_workloads::CrashRecovery;

/// The GPFS-flavoured platform with a write-behind limit *below* one
/// checkpoint block, so every round's write flushes dirty runs mid-run —
/// putting the write-ahead journal (and any scheduled crash) on the round
/// loop's hot path instead of only at close.
fn profile(block: u64) -> PlatformProfile {
    gpfs_cached(CoherenceMode::LockDriven, (block / 2).max(4 * 1024))
}

/// Aggregate result of one whole run (all ranks).
#[derive(Debug, Clone)]
struct RunResult {
    makespan_ns: VNanos,
    /// Stale/torn/corrupt verification reads observed (must be 0).
    anomalies: u64,
    retries: u64,
    faults: FaultSnapshot,
    latency: LatencySnapshot,
    snap: Snapshot,
}

/// Run the crash-recovery workload on a file system built with `plan`
/// (`None`: one that never heard of faults). Every verification read is
/// classified by the workload checker; the recovered final file must match
/// the fault-free model exactly (the schedule never kills a client, so no
/// round may be rolled back either).
fn run_plan(
    spec: CrashRecovery,
    plan: Option<FaultPlan>,
    name: &str,
    sink: Option<&Arc<MemorySink>>,
) -> RunResult {
    let fs = match plan {
        Some(plan) => FileSystem::with_faults(profile(spec.rw.block), plan),
        None => FileSystem::new(profile(spec.rw.block)),
    };
    let rw = spec.rw;
    let out = run_traced(rw.p, &fs, sink, |comm| {
        let rank = comm.rank();
        let own = rw.owner_range(rank);
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        file.set_io_path(IoPath::Cached);
        comm.barrier();
        let start = comm.clock().now();
        let mut anomalies = 0u64;
        for round in 0..rw.rounds {
            let data = vec![rw.stamp(rank, round); rw.block as usize];
            file.write_at(own.start, &data)
                .unwrap_or_else(|e| panic!("{name}: rank {rank} round {round} write: {e}"));
            comm.barrier();
            let mut buf = vec![0u8; rw.block as usize];
            for _ in 0..rw.rereads {
                file.read_at(own.start, &mut buf)
                    .unwrap_or_else(|e| panic!("{name}: rank {rank} round {round} read: {e}"));
                if let Err(a) = spec.verify_read(rank, round, &buf) {
                    eprintln!("{name}: rank {rank} round {round}: {a}");
                    anomalies += 1;
                }
            }
            comm.barrier();
        }
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats, anomalies)
    });
    let mut res = RunResult {
        makespan_ns: makespan(out.iter().map(|(s, e, _, _)| (*s, *e))),
        anomalies: 0,
        retries: 0,
        faults: fs.fault_stats(),
        latency: fs.latency_snapshot(),
        snap: fs.snapshot(name).expect("file written"),
    };
    for (_, _, s, anomalies) in &out {
        res.anomalies += anomalies;
        res.retries += s.retries;
    }
    assert_eq!(
        res.anomalies, 0,
        "{name}: a verification read was stale, torn or corrupt"
    );
    assert_eq!(
        res.snap,
        rw.expected_final(),
        "{name}: recovered contents differ from the fault-free model"
    );
    spec.verify_snapshot(|start, end| res.snap.chunks(start, end))
        .unwrap_or_else(|(rank, a)| panic!("{name}: rank {rank} block: {a}"));
    res
}

impl From<&RunResult> for Value {
    fn from(r: &RunResult) -> Value {
        let f = &r.faults;
        object! {
            "makespan_ns": r.makespan_ns,
            "anomalies": r.anomalies,
            "retries": r.retries,
            "rejections": f.rejections,
            "server_crashes": f.server_crashes,
            "records_torn": f.records_torn,
            "journal_replays": f.journal_replays,
            "replayed_records": f.replayed_records,
            "replayed_bytes": f.replayed_bytes,
            "torn_records_discarded": f.torn_records_discarded,
            "revocations_dropped": f.revocations_dropped,
            "revocations_delayed": f.revocations_delayed,
            "faults_fired": f.faults_injected,
            "grant_wait": &r.latency.grant_wait,
            "server_service": &r.latency.server_service,
        }
    }
}

/// The recovery scenario at `scale`, its acceptance run recording into
/// `trace`.
pub(crate) fn recovery(scale: Scale, trace: Option<&Arc<MemorySink>>) -> Artifact {
    let smoke = scale == Scale::Smoke;
    let (block, rounds, rereads, procs, fault_rates) = if smoke {
        (8 * 1024, 2, 2, vec![4], vec![0, 4, 8])
    } else {
        (64 * 1024, 4, 4, vec![4, 8], vec![0, 4, 8, 16])
    };
    // --- No-fault identity: FaultPlan::none() vs a plain FileSystem.
    let ident_spec =
        CrashRecovery::new(procs[0], block, rounds, rereads, 1, 0).expect("valid geometry");
    let with_plan = run_plan(ident_spec, Some(FaultPlan::none()), "rec-ident-plan", None);
    let baseline = run_plan(ident_spec, None, "rec-ident-base", None);
    let identical =
        with_plan.snap == baseline.snap && with_plan.makespan_ns == baseline.makespan_ns;
    assert!(
        identical,
        "a FaultPlan::none() run must be byte- and vtime-identical to a fault-free file \
         system (makespan {} vs {})",
        with_plan.makespan_ns, baseline.makespan_ns
    );

    let mut artifact = Artifact::new("recovery");
    artifact
        .field(
            "workload",
            "CrashRecovery checkpoint-then-reread rounds under deterministic fault schedules on \
             the lock-driven cached path; every verification read classified \
             clean/stale/torn/corrupt by the workload checker (any anomaly fails the run)",
        )
        .field(
            "geometry",
            object! {
                "block": block,
                "rounds": rounds,
                "rereads": rereads,
                "write_behind_limit": profile(block).cache.write_behind_limit,
                "smoke": smoke,
            },
        )
        .field(
            "fault_model",
            "seeded FaultPlan: server crashes (restart after 1-4 rejected requests), torn \
             journal appends, dropped/delayed revocations; retries pay exponential vtime \
             backoff (retry_backoff_ns << attempt)",
        )
        .field(
            "no_fault_identity",
            object! {"byte_identical": identical, "makespan_ns": baseline.makespan_ns},
        );

    // --- Fault-rate sweep: seeded schedules at increasing fault counts.
    let servers = profile(block).sim_servers;
    for &p in &procs {
        let mut clean_makespan = 0;
        for &faults in &fault_rates {
            let spec = CrashRecovery::new(p, block, rounds, rereads, 0xA70 + p as u64, faults)
                .expect("valid geometry");
            let plan = FaultPlan::seeded(spec.seed, servers, p, spec.faults);
            let r = run_plan(spec, Some(plan), &format!("rec-{p}-f{faults}"), None);
            if faults == 0 {
                clean_makespan = r.makespan_ns;
            }
            artifact.row(object! {
                "p": p,
                "faults_scheduled": faults,
                "slowdown": Value::fixed(ratio(r.makespan_ns, clean_makespan), 3),
                "run": &r,
            });
        }
    }

    // --- Acceptance: mid-flush server crash (torn journal append) at the
    // largest P. The first write-behind flush touching server 0 tears its
    // intent record and takes the server down; the retrying flush drives
    // restart + replay, which must discard the torn record and re-land the
    // bytes — with every later verification read still clean.
    let p_acc = *procs.last().unwrap();
    let acc_spec = CrashRecovery::new(p_acc, block, rounds, rereads, 0, 1).expect("valid geometry");
    let acc_plan = FaultPlan::none().with(
        FaultSite::JournalAppend { server: 0 },
        1,
        FaultAction::TearRecord {
            restart: RestartPolicy::Rejections(2),
        },
    );
    let acc = run_plan(acc_spec, Some(acc_plan), &format!("rec-acc-{p_acc}"), trace);
    let acc_pass = acc.anomalies == 0
        && acc.faults.journal_replays >= 1
        && acc.faults.torn_records_discarded >= 1
        && acc.faults.records_torn >= 1;

    artifact.acceptance(
        "mid-flush crash",
        Some(object! {
            "p": p_acc,
            "scenario": "mid-flush TearRecord on server 0 (power-cut during revocation-journal \
                         append), restart after 2 rejections",
            "journal_replays": acc.faults.journal_replays,
            "torn_records_discarded": acc.faults.torn_records_discarded,
            "replayed_records": acc.faults.replayed_records,
            "replayed_bytes": acc.faults.replayed_bytes,
            "stale_or_torn_reads": acc.anomalies,
            "byte_identical_no_fault": identical,
            "run": &acc,
            "pass": acc_pass,
        }),
    );
    artifact
}
