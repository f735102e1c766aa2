//! The declared `atomio-pfs` lock order end to end: `lockclass.rs` ranks
//! every class as DESIGN.md documents, and a real lock-driven coherent
//! workload (grants, revocation flushes, cached I/O) runs clean under the
//! debug-build rank check, which panics on any nesting that does not
//! climb the order, on a healthy file system and with a server crashing
//! and recovering under it.

use atomio::check::lexer::{lex, TokKind};
use atomio::prelude::*;
use atomio::vtime::Job;

/// The classes `crates/pfs/src/lockclass.rs` declares, in source order,
/// read from its `OrderedMutex::new("class", rank, …)` tokens.
fn declared_chain() -> Vec<(String, u32)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/pfs/src/lockclass.rs");
    let toks = lex(&std::fs::read_to_string(path).expect("lockclass.rs readable"));
    toks.windows(7)
        .filter(|w| {
            w[0].is_ident("OrderedMutex")
                && w[1].is_punct("::")
                && w[2].is_ident("new")
                && w[3].is_punct("(")
                && w[4].kind == TokKind::Str
                && w[6].kind == TokKind::Num
        })
        .map(|w| {
            let rank = w[6].text.parse().expect("numeric rank");
            (w[4].text.trim_matches('"').to_string(), rank)
        })
        .collect()
}

/// `lockclass.rs` builds all ten classes with exactly the documented
/// literal ranks, no two alike, and DESIGN.md quotes the same chain.
#[test]
fn declared_pfs_chain_is_in_the_class_table() {
    let expected: Vec<(String, u32)> = [
        ("pfs.server_pending", 5),
        ("pfs.lock_state", 10),
        ("pfs.coherence_registry", 12),
        ("pfs.cache", 20),
        ("pfs.files", 30),
        ("pfs.journal", 32),
        ("pfs.server_health", 40),
        ("pfs.server_recovery", 50),
        ("pfs.fault_armed", 52),
        ("pfs.fault_hits", 54),
    ]
    .into_iter()
    .map(|(c, r)| (c.to_string(), r))
    .collect();
    let chain = declared_chain();
    assert_eq!(chain, expected);
    let mut ranks: Vec<u32> = chain.iter().map(|&(_, r)| r).collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks.len(), chain.len(), "two classes share a rank");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md readable");
    let design = design.split_whitespace().collect::<Vec<_>>().join(" ");
    let documented = chain
        .iter()
        .map(|(c, r)| format!("{} ({r})", c.trim_start_matches("pfs.")))
        .collect::<Vec<_>>()
        .join(" → ");
    assert!(
        design.contains(&documented),
        "DESIGN.md does not quote the declared chain `{documented}`"
    );
}

/// The lock-driven coherent profile both workload tests run on.
fn coherent_profile() -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence: CoherenceMode::LockDriven,
        cache: CacheParams {
            enabled: true,
            page_size: 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: atomio::vtime::MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// Two clients on one file of `fs`, both handles open throughout:
/// exclusive grants whose conflicting second phase forces a revocation
/// flush of the rival's write-behind, then shared grants over cached
/// reads, then a sync. Returns the revocations the clients served.
fn run_two_client_workload(fs: &FileSystem) -> u64 {
    let both_open = std::sync::Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    let job = Job::new(2);
    for client in 0..2usize {
        let fs = fs.clone();
        let seat = job.seat(client);
        let both_open = std::sync::Arc::clone(&both_open);
        handles.push(std::thread::spawn(move || {
            let f = fs.open(client, seat.clock().clone(), "order");
            both_open.wait();
            let r = ByteRange::at(client as u64 * 512, 1024);
            let g = f.lock(r, LockMode::Exclusive).unwrap();
            f.write(IoPath::Cached, [(r.start, &vec![client as u8 + 1; 1024])])
                .unwrap();
            g.release();
            let g = f.lock(r, LockMode::Shared).unwrap();
            let mut buf = vec![0u8; 1024];
            f.read(IoPath::Cached, [(r.start, &mut buf)]).unwrap();
            g.release();
            f.try_sync().unwrap();
            // Closing drops the handle's tokens: a rival still running
            // would find nothing left to revoke.
            both_open.wait();
            f.stats().snapshot().revocations_served
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

/// The two-client workload on a healthy file system. Every grant
/// publishes coverage under the manager state through the registry into
/// the holder's cache, and every revocation flushes a cache to the
/// servers; in debug builds a nesting that descends the declared order
/// panics the workload.
#[test]
fn pfs_runtime_lock_order_matches_documented_chain() {
    let fs = FileSystem::new(coherent_profile());
    assert!(
        run_two_client_workload(&fs) > 0,
        "the overlapping phases served no revocation"
    );
}

/// The same workload with server 0 crashing on its first request and
/// restarting after two rejections, so the fault path's nestings run
/// too: cached flushes and syncs reach the crashed server under the
/// cache mutex, take the server health mutex, consult the fault
/// injector's armed plan and hit counters, and queue and replay a
/// recovery. In debug builds each of those acquisitions must climb the
/// declared chain past `pfs.cache`.
#[test]
fn runtime_edges_climb_the_declared_chain() {
    let plan = FaultPlan::none().with(
        FaultSite::ServerRequest { server: 0 },
        1,
        FaultAction::CrashServer {
            restart: RestartPolicy::Rejections(2),
        },
    );
    let fs = FileSystem::with_faults(coherent_profile(), plan);
    let revocations = run_two_client_workload(&fs);
    let faults = fs.fault_stats();
    assert_eq!(faults.faults_injected, 1, "{faults:?}");
    assert!(
        faults.rejections > 0,
        "no request met the crash: {faults:?}"
    );
    assert!(
        faults.journal_replays > 0,
        "the server never recovered: {faults:?}"
    );
    assert!(
        revocations > 0,
        "the overlapping phases served no revocation"
    );
}
