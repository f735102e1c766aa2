//! Planted hangs. Each is a job no rank of which can move, and the job
//! table reports it within a second, naming every rank's wait site (or
//! exit) and virtual clock. The reports are pinned in
//! `tests/golden/deadlock_*.expected`; regenerate them with
//! `UPDATE_GOLDEN=1 cargo test --test deadlock`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use atomio::prelude::*;

/// Compare `got` with `tests/golden/{name}.expected` (or rewrite it under
/// `UPDATE_GOLDEN`).
fn golden(name: &str, got: &str) {
    let path = format!(
        "{}/tests/golden/{name}.expected",
        env!("CARGO_MANIFEST_DIR")
    );
    let got = format!("{got}\n");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write expected file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing — regenerate with UPDATE_GOLDEN=1 cargo test --test deadlock")
    });
    assert_eq!(
        got, expected,
        "the report drifted from {path}; if intended, regenerate with UPDATE_GOLDEN=1"
    );
}

fn message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Run `job`, which must panic within a second; its panic message.
fn fails_fast(job: impl FnOnce()) -> String {
    let t0 = Instant::now();
    let err = catch_unwind(AssertUnwindSafe(job)).expect_err("the hang must be reported");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "reported after {took:?}");
    message(&*err)
}

/// (a) Rank 0 calls `barrier` where rank 1 calls `allgather`: neither can
/// join the other's round.
#[test]
fn mismatched_collectives_are_reported() {
    let report = fails_fast(|| {
        run(2, NetCost::fast_test(), |c| {
            c.compute(100 * (c.rank() as u64 + 1));
            if c.rank() == 0 {
                c.barrier();
            } else {
                c.allgather(1u64);
            }
        });
    });
    golden("deadlock_mismatched_collectives", &report);
}

/// (b) Each rank holds its own stripe of files `a` and `b`, then asks for
/// its partner's stripe of one of them through the collective handshake
/// (register, barrier, wait): rank 0 in `b`, rank 1 in `a`. Each waits
/// behind a lock the other holds.
#[test]
fn a_two_file_lock_cycle_through_the_handshake_is_reported() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let report = fails_fast(|| {
        run(2, fs.profile().net.clone(), |c| {
            let me = c.rank();
            let files = ["a", "b"].map(|name| fs.open(me, c.clock().clone(), name));
            let stripe = |rank: usize| ByteRange::at(64 * rank as u64, 64);
            // Rank 0 locks first, so in each file its lock is 0 and rank
            // 1's is 1.
            let mut held = Vec::new();
            for turn in 0..2 {
                if turn == me {
                    for f in &files {
                        held.push(f.lock(stripe(me), LockMode::Exclusive).unwrap());
                    }
                }
                c.barrier();
            }
            let theirs = StridedSet::from_range(stripe(1 - me));
            let taken = files[1 - me].lock_set_two_phase(&theirs, LockMode::Exclusive, || {
                c.barrier();
            });
            drop((taken, held));
        });
    });
    golden("deadlock_two_file_lock_cycle", &report);
}

/// (c) Rank 2 panics before a barrier the other three wait in. `run`
/// re-raises rank 2's own panic; the report reaches the parked ranks, and
/// rank 0, the lowest, carries it whole.
#[test]
fn a_rank_that_panics_before_a_barrier_is_reported() {
    let report = Mutex::new(String::new());
    let cause = fails_fast(|| {
        run(4, NetCost::fast_test(), |c| {
            c.compute(10 * c.rank() as u64);
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            if let Err(echo) = catch_unwind(AssertUnwindSafe(|| c.barrier())) {
                if c.rank() == 0 {
                    *report.lock().unwrap() = message(&*echo);
                }
                resume_unwind(echo);
            }
        });
    });
    assert_eq!(cause, "rank 2 exploded");
    golden("deadlock_rank_panicked", &report.into_inner().unwrap());
}
