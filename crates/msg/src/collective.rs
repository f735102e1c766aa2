use std::any::Any;
use std::time::Duration;

use atomio_vtime::{VNanos, WireSize};
use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;

/// Vector-variant collectives used by the two-phase collective-I/O
/// subsystem. They live here, next to the rendezvous machinery, because
/// their cost accounting is what distinguishes them: the wire charge is the
/// *sum of the actual per-destination payloads*, so a skewed redistribution
/// (everything bound for one aggregator) costs what it should.
impl Comm {
    /// Personalized all-to-all with per-destination counts (like
    /// `MPI_Alltoallv`): element `j` of this rank's `items` — a possibly
    /// empty `Vec<T>` — is delivered to rank `j`; element `i` of the result
    /// is the (possibly empty) contribution rank `i` sent here.
    ///
    /// **Sparse fast path:** only ranks that actually send something to
    /// *another* rank (any non-empty bucket but their own) count toward the
    /// latency tree — the round is charged `collective_ns(active, 0)`, not
    /// `collective_ns(p, 0)` — and neither empty buckets nor the
    /// self-addressed one contribute wire bytes. Leaders-only exchanges
    /// with mostly-empty count vectors therefore stop paying the full-P
    /// rendezvous price.
    ///
    /// Buckets are handed over **by move**: the bucket rank `i` addressed to
    /// rank `j` has exactly one reader, so `j` takes it out of `i`'s
    /// deposited contribution under the round mutex — no element is cloned,
    /// and `T` need not be `Clone`.
    pub fn alltoallv<T: Send + WireSize + 'static>(&self, items: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            items.len(),
            self.size(),
            "alltoallv needs one (possibly empty) bucket per destination"
        );
        let link = self.net().link.clone();
        let me = self.rank();
        // Only what is addressed to *another* rank is on the wire: the
        // self-addressed bucket is handed over by move like the rest, but
        // it never leaves this rank. Ranks with nothing for anyone else
        // contribute zero wire bytes and are excluded from the rendezvous'
        // active count; senders pay the outer count-vector header plus
        // their non-empty remote buckets.
        let remote: usize = items
            .iter()
            .enumerate()
            .filter(|&(j, b)| j != me && !b.is_empty())
            .map(|(_, b)| b.wire_size())
            .sum();
        let bytes = if remote == 0 { 0 } else { 8 + remote };
        self.rendezvous(
            "alltoallv",
            items,
            bytes,
            move |max, total, active| {
                max + link.collective_ns(active, 0) + link.payload_ns(total as u64)
            },
            move |slots| {
                slots
                    .iter_mut()
                    .map(|s| {
                        let buckets = s
                            .as_mut()
                            .expect("collective slot filled")
                            .downcast_mut::<Vec<Vec<T>>>()
                            .expect("collective type mismatch across ranks");
                        std::mem::take(&mut buckets[me])
                    })
                    .collect()
            },
        )
    }

    /// Gather variable-length contributions at `root` (like `MPI_Gatherv`):
    /// the root receives every rank's `Vec<T>` in rank order; other ranks
    /// get `None`. Zero-length contributions are fine. The root is the only
    /// reader, so it takes every contribution by move.
    pub fn gatherv<T: Send + WireSize + 'static>(
        &self,
        root: usize,
        value: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size());
        let link = self.net().link.clone();
        let p = self.size();
        let me = self.rank();
        let bytes = value.wire_size();
        self.rendezvous(
            "gatherv",
            value,
            bytes,
            move |max, total, _| max + link.collective_ns(p, 0) + link.payload_ns(total as u64),
            move |slots| {
                (me == root).then(|| {
                    slots
                        .iter_mut()
                        .map(|s| {
                            *s.take()
                                .expect("collective slot filled")
                                .downcast::<Vec<T>>()
                                .expect("collective type mismatch across ranks")
                        })
                        .collect()
                })
            },
        )
    }
}

/// Rendezvous state for one communicator's collectives.
///
/// Collectives are executed as a shared-memory rendezvous (every rank
/// deposits its contribution, the last arrival computes the round's virtual
/// finish time, every rank reads what it needs) while the *cost* charged to
/// the clocks models the usual log₂(P) tree algorithms. MPI semantics —
/// all ranks must call collectives in the same order — are inherited
/// naturally from the generation counter.
pub(crate) struct CollState {
    inner: Mutex<Round>,
    cv: Condvar,
}

struct Round {
    gen: u64,
    arrived: usize,
    leavers: usize,
    complete: bool,
    max_clock: VNanos,
    total_bytes: usize,
    /// Ranks that contributed a non-zero wire payload this round — the
    /// population a sparse-aware cost model (alltoallv) charges latency for.
    active: usize,
    finish: VNanos,
    slots: Vec<Option<Box<dyn Any + Send>>>,
}

const COLLECTIVE_TIMEOUT: Duration = Duration::from_secs(60);

impl CollState {
    pub fn new(nprocs: usize) -> Self {
        CollState {
            inner: Mutex::new(Round {
                gen: 0,
                arrived: 0,
                leavers: 0,
                complete: false,
                max_clock: 0,
                total_bytes: 0,
                active: 0,
                finish: 0,
                slots: (0..nprocs).map(|_| None).collect(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Execute one collective round.
    ///
    /// * `now` — the caller's virtual arrival time;
    /// * `bytes` — the caller's contribution size on the wire;
    /// * `cost` — computes the round's finish time from (max arrival clock,
    ///   total bytes, count of ranks with non-zero bytes); evaluated once,
    ///   by the last arrival;
    /// * `read` — extracts this rank's result from the deposited slots,
    ///   under the round mutex; it may move out whatever no other rank
    ///   reads (the slots are cleared when the last rank leaves).
    ///
    /// Returns `(result, finish_time)`; the caller must advance its clock to
    /// the finish time.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI collective signature
    pub fn rendezvous<T, R>(
        &self,
        rank: usize,
        nprocs: usize,
        now: VNanos,
        bytes: usize,
        contribution: T,
        cost: impl FnOnce(VNanos, usize, usize) -> VNanos,
        read: impl FnOnce(&mut [Option<Box<dyn Any + Send>>]) -> R,
    ) -> (R, VNanos)
    where
        T: Send + 'static,
    {
        let mut g = self.inner.lock();

        // A previous round may still be draining (stragglers reading
        // results); wait for it to be recycled before joining the next one.
        while g.complete {
            self.wait(&mut g, rank, "prior collective to drain");
        }

        let my_gen = g.gen;
        debug_assert!(
            g.slots[rank].is_none(),
            "rank {rank} double-entered a collective"
        );
        g.slots[rank] = Some(Box::new(contribution));
        g.arrived += 1;
        g.max_clock = g.max_clock.max(now);
        g.total_bytes += bytes;
        if bytes > 0 {
            g.active += 1;
        }

        if g.arrived == nprocs {
            g.finish = cost(g.max_clock, g.total_bytes, g.active);
            g.complete = true;
            self.cv.notify_all();
        } else {
            while !(g.complete && g.gen == my_gen) {
                self.wait(&mut g, rank, "collective partners");
            }
        }

        let result = read(&mut g.slots);
        let finish = g.finish;

        g.leavers += 1;
        if g.leavers == nprocs {
            g.gen += 1;
            g.arrived = 0;
            g.leavers = 0;
            g.complete = false;
            g.max_clock = 0;
            g.total_bytes = 0;
            g.active = 0;
            for s in g.slots.iter_mut() {
                *s = None;
            }
            self.cv.notify_all();
        }
        (result, finish)
    }

    fn wait(&self, g: &mut parking_lot::MutexGuard<'_, Round>, rank: usize, what: &str) {
        if self.cv.wait_for(g, COLLECTIVE_TIMEOUT).timed_out() {
            panic!(
                "rank {rank}: waited {COLLECTIVE_TIMEOUT:?} for {what} — likely deadlock \
                 (mismatched collective calls across ranks?)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, NetCost};

    #[test]
    fn alltoallv_transposes_ragged_matrix() {
        // Rank r sends j+1 copies of `r*10 + j` to rank j.
        let out = run(3, NetCost::fast_test(), |c| {
            let items: Vec<Vec<u64>> = (0..3)
                .map(|j| vec![(c.rank() * 10 + j) as u64; j + 1])
                .collect();
            c.alltoallv(items)
        });
        for (j, got) in out.iter().enumerate() {
            let want: Vec<Vec<u64>> = (0..3)
                .map(|src| vec![(src * 10 + j) as u64; j + 1])
                .collect();
            assert_eq!(got, &want, "rank {j}");
        }
    }

    #[test]
    fn alltoallv_zero_length_contributions() {
        // Only rank 0 sends anything, and only to rank 2.
        let out = run(3, NetCost::fast_test(), |c| {
            let mut items: Vec<Vec<u8>> = vec![Vec::new(); 3];
            if c.rank() == 0 {
                items[2] = vec![7, 8, 9];
            }
            c.alltoallv(items)
        });
        assert_eq!(out[2][0], vec![7, 8, 9]);
        assert!(out[0].iter().all(Vec::is_empty));
        assert!(out[1].iter().all(Vec::is_empty));
        assert!(out[2][1].is_empty() && out[2][2].is_empty());
    }

    #[test]
    fn alltoallv_single_rank_is_identity() {
        let out = run(1, NetCost::fast_test(), |c| {
            c.alltoallv(vec![vec![1u32, 2, 3]])
        });
        assert_eq!(out[0], vec![vec![1, 2, 3]]);
    }

    #[test]
    fn alltoallv_cost_scales_with_bytes() {
        let net = NetCost::new(atomio_vtime::LinkCost::new(100, 1e9));
        let time_for = |n: usize| {
            run(4, net.clone(), move |c| {
                let items: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; n]).collect();
                c.alltoallv(items);
                c.clock().now()
            })[0]
        };
        assert!(time_for(1 << 18) > time_for(16));
    }

    #[test]
    fn alltoallv_sparse_charges_only_active_ranks() {
        // 8 ranks, but only ranks 0 and 1 exchange data; the other six are
        // idle (all-empty buckets). The latency tree is charged for the two
        // active ranks, not all eight.
        let link = atomio_vtime::LinkCost::new(100, 1e9);
        let net = NetCost::new(link.clone());
        let out = run(8, net, move |c| {
            let mut items: Vec<Vec<u8>> = vec![Vec::new(); 8];
            if c.rank() < 2 {
                items[1 - c.rank()] = vec![c.rank() as u8; 64];
            }
            let got = c.alltoallv(items);
            if c.rank() < 2 {
                assert_eq!(got[1 - c.rank()], vec![(1 - c.rank()) as u8; 64]);
            }
            c.clock().now()
        });
        // Each active rank ships one 64-byte bucket: 8 (count vector)
        // + 8 + 64 on the wire; idle ranks ship nothing.
        let total = 2 * (8 + 8 + 64);
        let want = link.collective_ns(2, 0) + link.payload_ns(total);
        assert!(out.iter().all(|&t| t == want), "{out:?} != {want}");
        // Strictly cheaper than the dense-rendezvous charge it replaces.
        assert!(want < link.collective_ns(8, 0) + link.payload_ns(total));
    }

    #[test]
    fn alltoallv_dense_charge_covers_every_remote_bucket() {
        // Every rank sends to every rank: the charge is the dense price,
        // collective_ns(p) plus each rank's three *remote* buckets — the
        // fourth, addressed to itself, never touches a wire.
        let link = atomio_vtime::LinkCost::new(100, 1e9);
        let net = NetCost::new(link.clone());
        let out = run(4, net, move |c| {
            let items: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 32]).collect();
            c.alltoallv(items);
            c.clock().now()
        });
        let per_rank = 8 + 3 * (8 + 32); // outer header + three remote buckets
        let want = link.collective_ns(4, 0) + link.payload_ns(4 * per_rank);
        assert!(out.iter().all(|&t| t == want), "{out:?} != {want}");
    }

    #[test]
    fn alltoallv_self_bucket_is_free_and_does_not_make_a_rank_active() {
        // Rank 0 keeps 1000 bytes and sends 64 to rank 1; rank 1 keeps 500
        // bytes and sends nothing; ranks 2 and 3 are idle. The self buckets
        // are delivered (by move) but cost nothing, and rank 1 — whose only
        // non-empty bucket is its own — is not active:
        // span = collective_ns(active) + payload_ns(headers + non-self bytes).
        let link = atomio_vtime::LinkCost::new(100, 1e9);
        let net = NetCost::new(link.clone());
        let out = run(4, net, move |c| {
            let mut items: Vec<Vec<u8>> = vec![Vec::new(); 4];
            match c.rank() {
                0 => {
                    items[0] = vec![1; 1000];
                    items[1] = vec![2; 64];
                }
                1 => items[1] = vec![3; 500],
                _ => {}
            }
            (c.alltoallv(items), c.clock().now())
        });
        assert_eq!(out[0].0[0], vec![1; 1000]);
        assert_eq!(out[1].0[0], vec![2; 64]);
        assert_eq!(out[1].0[1], vec![3; 500]);
        let want = link.collective_ns(1, 0) + link.payload_ns(8 + 8 + 64);
        assert!(out.iter().all(|o| o.1 == want), "{out:?} != {want}");
    }

    #[test]
    fn kept_collectives_finish_at_their_cost_formula() {
        // Skewed arrivals: every rank leaves at the slowest arrival plus the
        // span its collective's cost closure prices (alltoallv is pinned
        // above). Rank r contributes a vector of r + 1 bytes.
        let link = atomio_vtime::LinkCost::new(100, 1e9);
        let p = 4;
        let skew: [u64; 4] = [0, 5_000, 300, 42_000];
        let wire = |r: usize| (8 + r + 1) as u64;
        let all: u64 = (0..p).map(wire).sum();
        type Call = fn(&crate::Comm);
        let table: [(&str, Call, u64); 4] = [
            ("barrier", |c| c.barrier(), link.collective_ns(p, 16)),
            (
                "allgather",
                |c| drop(c.allgather(vec![0u8; c.rank() + 1])),
                link.collective_ns(p, 0) + link.payload_ns(all),
            ),
            (
                "bcast",
                |c| drop(c.bcast(2, (c.rank() == 2).then(|| vec![0u8; 3]))),
                link.collective_ns(p, wire(2)),
            ),
            // The root's own vector is priced as wire bytes, though it never
            // leaves the root (alltoallv's self bucket rides free). ROADMAP
            // item 3 settles both rules together.
            (
                "gatherv",
                |c| drop(c.gatherv(1, vec![0u8; c.rank() + 1])),
                link.collective_ns(p, 0) + link.payload_ns(all),
            ),
        ];
        for (name, call, span) in table {
            let out = run(p, NetCost::new(link.clone()), move |c| {
                c.compute(skew[c.rank()]);
                call(&c);
                c.clock().now()
            });
            let want = 42_000 + span;
            assert!(out.iter().all(|&t| t == want), "{name}: {out:?} != {want}");
        }
    }

    #[test]
    fn gatherv_collects_ragged_contributions_at_root() {
        let out = run(4, NetCost::fast_test(), |c| {
            c.gatherv(2, vec![c.rank() as u8; c.rank()])
        });
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
        assert_eq!(
            out[2].as_ref().unwrap(),
            &vec![vec![], vec![1], vec![2, 2], vec![3, 3, 3]]
        );
    }

    /// A payload that owns its bytes and cannot be cloned: the vector
    /// collectives must hand it over by move.
    #[derive(Debug, PartialEq)]
    struct Owned(Vec<u8>);

    impl atomio_vtime::WireSize for Owned {
        fn wire_size(&self) -> usize {
            self.0.wire_size()
        }
    }

    #[test]
    fn alltoallv_moves_a_payload_that_is_not_clone() {
        // Rank r sends rank j one `Owned` of r+1 bytes stamped r*10 + j.
        let out = run(3, NetCost::fast_test(), |c| {
            let items: Vec<Vec<Owned>> = (0..3)
                .map(|j| vec![Owned(vec![(c.rank() * 10 + j) as u8; c.rank() + 1])])
                .collect();
            c.alltoallv(items)
        });
        for (j, got) in out.iter().enumerate() {
            let want: Vec<Vec<Owned>> = (0..3)
                .map(|src| vec![Owned(vec![(src * 10 + j) as u8; src + 1])])
                .collect();
            assert_eq!(got, &want, "rank {j}");
        }
    }

    #[test]
    fn gatherv_moves_a_payload_that_is_not_clone() {
        let out = run(3, NetCost::fast_test(), |c| {
            c.gatherv(1, vec![Owned(vec![c.rank() as u8; 4])])
        });
        assert!(out[0].is_none() && out[2].is_none());
        let want: Vec<Vec<Owned>> = (0..3).map(|r| vec![Owned(vec![r as u8; 4])]).collect();
        assert_eq!(out[1].as_ref().unwrap(), &want);
    }

    #[test]
    fn gatherv_zero_length_everywhere() {
        let out = run(3, NetCost::fast_test(), |c| c.gatherv(0, Vec::<u64>::new()));
        assert_eq!(out[0].as_ref().unwrap(), &vec![Vec::<u64>::new(); 3]);
    }

    #[test]
    fn gatherv_single_rank_communicator() {
        let out = run(1, NetCost::fast_test(), |c| c.gatherv(0, vec![42u64]));
        assert_eq!(out[0].as_ref().unwrap(), &vec![vec![42]]);
    }
}
