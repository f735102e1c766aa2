use std::sync::Arc;

use crate::collective::CollState;
use crate::comm::Comm;
use atomio_vtime::NetCost;

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
/// This is the stand-in for `mpirun -np <nprocs>`. A panic on any rank is
/// propagated to the caller after the other ranks are joined (matching the
/// "job aborts" behaviour of a failed MPI process).
pub fn run<R, F>(nprocs: usize, net: NetCost, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Send + Sync,
{
    assert!(nprocs > 0, "need at least one rank");
    let shared = Shared::new(nprocs, net);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nprocs)
            .map(|rank| {
                let comm = Comm::world(rank, Arc::clone(&shared));
                scope.spawn(move || f(comm))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
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

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn propagates_rank_panics() {
        run(4, NetCost::fast_test(), |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            c.rank()
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_zero_ranks() {
        run(0, NetCost::fast_test(), |c| c.rank());
    }
}
