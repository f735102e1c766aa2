use std::sync::Arc;

use crate::collective::CollState;
use crate::comm::Comm;
use atomio_vtime::{Job, NetCost};

/// Shared state of one communicator.
pub(crate) struct Shared {
    pub nprocs: usize,
    pub net: NetCost,
    pub coll: CollState,
}

impl Shared {
    pub(crate) fn new(nprocs: usize, net: NetCost) -> Arc<Self> {
        Arc::new(Shared {
            nprocs,
            net,
            coll: CollState::new(nprocs),
        })
    }
}

/// Launch an `nprocs`-rank job: spawn one OS thread per rank, run `f` with
/// that rank's [`Comm`], and return the per-rank results in rank order.
///
/// This is the stand-in for `mpirun -np <nprocs>`. Each rank's clock is its
/// slot in the job's [`Job`] table, which its thread leaves `Exited` when
/// it returns or unwinds; a wait that can never be satisfied is reported
/// as a [`Deadlock`](atomio_vtime::Deadlock) within milliseconds (see the
/// table's docs). A panic on any rank is propagated to the caller after
/// every rank is joined (matching the "job aborts" behaviour of a failed
/// MPI process): the first rank, in rank order, that panicked on its own,
/// else the deadlock report that woke the parked ranks.
pub fn run<R, F>(nprocs: usize, net: NetCost, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Send + Sync,
{
    assert!(nprocs > 0, "need at least one rank");
    let job = Job::new(nprocs);
    let shared = Shared::new(nprocs, net);
    let f = &f;
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nprocs)
            .map(|rank| {
                let seat = job.seat(rank);
                let comm = Comm::world(rank, Arc::clone(&shared), seat.clock().clone());
                scope.spawn(move || {
                    let _seat = seat;
                    f(comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // A rank parked when the job deadlocked only echoes the report; any
    // other panic is a cause.
    let report = job.deadlock();
    let echoes = |rank: usize| report.as_ref().is_some_and(|d| d.parked(rank));
    let mut out = Vec::with_capacity(nprocs);
    for (rank, joined) in joined.into_iter().enumerate() {
        match joined {
            Ok(r) => out.push(r),
            Err(payload) if !echoes(rank) => std::panic::resume_unwind(payload),
            Err(_) => {}
        }
    }
    if let Some(report) = report {
        std::panic::resume_unwind(Box::new(report.to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_ranks_in_order() {
        let out = run(6, NetCost::fast_test(), |c| (c.rank(), c.size()));
        assert_eq!(out, (0..6).map(|r| (r, 6)).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_job() {
        let out = run(1, NetCost::fast_test(), |c| c.rank());
        assert_eq!(out, vec![0]);
    }

    /// The healthy ranks wait in a barrier rank 2 never reaches: the
    /// table reports it as soon as all three park, and `run` re-raises rank
    /// 2's own panic, not the report that woke the others.
    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn propagates_rank_panics() {
        run(4, NetCost::fast_test(), |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            c.barrier();
            c.rank()
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_zero_ranks() {
        run(0, NetCost::fast_test(), |c| c.rank());
    }
}
