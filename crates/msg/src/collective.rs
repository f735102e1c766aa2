use std::any::Any;

use atomio_vtime::{Clock, LinkClass, NetCost, VNanos, Wait, Waiters, Wakeup, WireSize};
use parking_lot::Mutex;

use crate::comm::Comm;

/// The deposited contributions of one collective round, one slot per rank.
pub(crate) type Slots = [Option<Box<dyn Any + Send>>];

/// The contribution rank `i` deposited, by reference.
pub(crate) fn slot_ref<T: 'static>(slots: &Slots, i: usize) -> &T {
    slots[i]
        .as_ref()
        .expect("collective slot filled")
        .downcast_ref::<T>()
        .expect("collective type mismatch across ranks")
}

/// What one rank's endpoint moves in one collective, per link class
/// (indexed by `LinkClass as usize`). The last arrival fills one per rank
/// from the deposits; the price reads all of them, each rank's trace span
/// its own.
#[derive(Debug, Default, Clone)]
pub(crate) struct Endpoint {
    pub send: [u64; 2],
    pub recv: [u64; 2],
}

impl Endpoint {
    /// Every byte this rank puts on a wire.
    pub(crate) fn sent(&self) -> u64 {
        self.send.iter().sum()
    }

    /// The endpoint's serialisation: on each class the larger of what it
    /// sends and what it receives, at that class's rate. The two classes
    /// run concurrently, so the slower one is the span.
    fn span_ns(&self, net: &NetCost) -> VNanos {
        let per_class = LinkClass::ALL.map(|c| {
            let i = c as usize;
            net.link_of(c).payload_ns(self.send[i].max(self.recv[i]))
        });
        per_class[0].max(per_class[1])
    }
}

/// Vector-variant collectives used by the two-phase collective-I/O
/// subsystem, and the switched-fabric price every payload-carrying
/// collective pays.
///
/// **The price.** Disjoint transfers overlap on a switched fabric, so a
/// collective is bound by its busiest *endpoint*, not by the sum of every
/// byte. The last arrival holds every deposit and derives from them each
/// rank's send and receive bytes per [`LinkClass`] (what a rank addresses
/// to itself is free). A rank's span is, on each class, the larger of its
/// send and receive serialisation at that class's rate, and the slower of
/// the two classes. The collective ends at the slowest arrival, plus a
/// latency tree on `link`, plus the largest span. Receive-side incast —
/// every rank shipping to one aggregator or one root — is therefore
/// priced at the receiver.
impl Comm {
    /// Count `bytes` moving from rank `from` to rank `to`, on their link
    /// class.
    fn carry(&self, at: &mut [Endpoint], from: usize, to: usize, bytes: u64) {
        let class = self.link_class(from, to) as usize;
        at[from].send[class] += bytes;
        at[to].recv[class] += bytes;
    }

    /// When a collective whose endpoints moved `at` finishes, for ranks
    /// that arrived by `max`, behind a latency tree over `tree` ranks.
    pub(crate) fn switched_finish(&self, max: VNanos, tree: usize, at: &[Endpoint]) -> VNanos {
        let net = self.net();
        let span = at.iter().map(|e| e.span_ns(net)).max().unwrap_or(0);
        max + net.link.collective_ns(tree, 0) + span
    }

    /// Personalized all-to-all with per-destination counts (like
    /// `MPI_Alltoallv`): element `j` of this rank's `items` — a possibly
    /// empty `Vec<T>` — is delivered to rank `j`; element `i` of the result
    /// is the (possibly empty) contribution rank `i` sent here.
    ///
    /// Priced per endpoint (see above): rank `i` sends each non-empty
    /// bucket addressed to *another* rank, its count vector (8 bytes)
    /// riding the first of them, and receives each one addressed to it.
    /// Neither empty buckets nor the self-addressed one are on the wire,
    /// and the latency tree spans only the ranks that send, so
    /// leaders-only exchanges with mostly-empty count vectors do not pay
    /// the full-P rendezvous price.
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
        let me = self.rank();
        self.rendezvous(
            "alltoallv",
            items,
            |max, slots, at| {
                for i in 0..self.size() {
                    let mut header = 8;
                    for (j, bucket) in slot_ref::<Vec<Vec<T>>>(slots, i).iter().enumerate() {
                        if j != i && !bucket.is_empty() {
                            let bytes = std::mem::take(&mut header) + bucket.wire_size() as u64;
                            self.carry(at, i, j, bytes);
                        }
                    }
                }
                let senders = at.iter().filter(|e| e.sent() > 0).count();
                self.switched_finish(max, senders, at)
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
    ///
    /// Priced per endpoint: every other rank sends its vector and the root
    /// receives them all — its incast is the receive term. The root's own
    /// vector never leaves it, so it is free. The latency tree spans all P
    /// ranks, the root included.
    pub fn gatherv<T: Send + WireSize + 'static>(
        &self,
        root: usize,
        value: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size());
        let me = self.rank();
        self.rendezvous(
            "gatherv",
            value,
            |max, slots, at| {
                for i in (0..self.size()).filter(|&i| i != root) {
                    let bytes = slot_ref::<Vec<T>>(slots, i).wire_size() as u64;
                    self.carry(at, i, root, bytes);
                }
                self.switched_finish(max, self.size(), at)
            },
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
/// finish time from every deposit, every rank reads what it needs) while
/// the *cost* charged to the clocks models a switched fabric with log₂(P)
/// latency trees. MPI semantics — all ranks must call collectives in the
/// same order — are inherited naturally from the generation counter. A rank
/// that calls a different collective than the round under way parks for
/// good, and the job table reports the mismatch with every rank's call.
pub(crate) struct CollState {
    inner: Mutex<Round>,
}

struct Round {
    gen: u64,
    /// The collective this round runs, named by its first arrival.
    op: &'static str,
    arrived: usize,
    leavers: usize,
    complete: bool,
    max_clock: VNanos,
    finish: VNanos,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    endpoints: Vec<Endpoint>,
    /// Ranks parked until the round completes or drains.
    parked: Waiters,
}

impl CollState {
    pub(crate) fn new(nprocs: usize) -> Self {
        CollState {
            inner: Mutex::new(Round {
                gen: 0,
                op: "",
                arrived: 0,
                leavers: 0,
                complete: false,
                max_clock: 0,
                finish: 0,
                slots: (0..nprocs).map(|_| None).collect(),
                endpoints: vec![Endpoint::default(); nprocs],
                parked: Waiters::default(),
            }),
        }
    }

    /// Execute one collective round.
    ///
    /// * `op` — the collective's name: every rank of a round must call the
    ///   same one, and it is the site a waiting rank parks at;
    /// * `clock` — the caller's clock: its reading is the virtual arrival
    ///   time, and it parks the rank while it waits;
    /// * `cost` — computes the round's finish time from the max arrival
    ///   clock and every rank's deposit, filling in each rank's
    ///   [`Endpoint`] (all zero on entry); evaluated once, by the last
    ///   arrival, under the round mutex;
    /// * `read` — extracts this rank's result from the deposited slots,
    ///   under the round mutex; it may move out whatever no other rank
    ///   reads (the slots are cleared when the last rank leaves).
    ///
    /// Returns `(result, finish_time, bytes this rank sent)`; the caller
    /// must advance its clock to the finish time.
    pub(crate) fn rendezvous<T, R>(
        &self,
        op: &'static str,
        rank: usize,
        clock: &Clock,
        contribution: T,
        cost: impl FnOnce(VNanos, &Slots, &mut [Endpoint]) -> VNanos,
        read: impl FnOnce(&mut Slots) -> R,
    ) -> (R, VNanos, u64)
    where
        T: Send + 'static,
    {
        // Declared before the guard: the ranks this call wakes are
        // unparked once the round mutex is released.
        let mut woken = Wakeup::default();
        let mut g = self.inner.lock();
        let nprocs = g.slots.len();

        // A previous round may still be draining (stragglers reading
        // results); wait for it to be recycled before joining the next
        // one. A round of another collective is one no call of this rank
        // can join.
        while g.complete || (g.arrived > 0 && g.op != op) {
            clock.park(&mut g, |r| &mut r.parked, Wait::at(op));
        }

        let my_gen = g.gen;
        debug_assert!(
            g.slots[rank].is_none(),
            "rank {rank} double-entered a collective"
        );
        g.op = op;
        g.slots[rank] = Some(Box::new(contribution));
        g.arrived += 1;
        g.max_clock = g.max_clock.max(clock.now());

        if g.arrived == nprocs {
            let round = &mut *g;
            round.finish = cost(round.max_clock, &round.slots, &mut round.endpoints);
            g.complete = true;
            g.parked.wake_all(&mut woken);
        } else {
            while !(g.complete && g.gen == my_gen) {
                clock.park(&mut g, |r| &mut r.parked, Wait::at(op));
            }
        }

        let result = read(&mut g.slots);
        let finish = g.finish;
        let sent = g.endpoints[rank].sent();

        g.leavers += 1;
        if g.leavers == nprocs {
            g.gen += 1;
            g.arrived = 0;
            g.leavers = 0;
            g.complete = false;
            g.max_clock = 0;
            for s in g.slots.iter_mut() {
                *s = None;
            }
            g.endpoints.fill(Endpoint::default());
            g.parked.wake_all(&mut woken);
        }
        (result, finish, sent)
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, NetCost};
    use atomio_vtime::{LinkCost, NodeTopology};

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

    /// Every rank's clock after one `alltoallv` in which rank `i` sends
    /// `counts[i][j]` bytes to rank `j`, on a world handle placed by
    /// `topo` (none: every pair on `link`).
    fn alltoallv_clocks(
        net: NetCost,
        topo: Option<NodeTopology>,
        counts: &[Vec<usize>],
    ) -> Vec<u64> {
        run(counts.len(), net, |c| {
            let c = match topo {
                Some(topo) => c.placed(topo),
                None => c,
            };
            let items = counts[c.rank()].iter().map(|&n| vec![0u8; n]).collect();
            c.alltoallv(items);
            c.clock().now()
        })
    }

    #[test]
    fn alltoallv_incast_is_priced_at_the_receiver() {
        // Ranks 1..=3 each send rank 0 100 bytes (a 108-byte bucket and
        // the 8-byte count vector): the senders' spans overlap, rank 0
        // receives all three in series.
        let link = LinkCost::new(100, 1e9);
        let mut counts = vec![vec![0; 4]; 4];
        for row in &mut counts[1..] {
            row[0] = 100;
        }
        let out = alltoallv_clocks(NetCost::new(link.clone()), None, &counts);
        let want = link.collective_ns(3, 0) + link.payload_ns(3 * (8 + 108));
        assert!(out.iter().all(|&t| t == want), "{out:?} != {want}");
        // Every byte crosses the receiver, so incast is as dear as the one
        // bus was; only disjoint transfers overlap.
    }

    #[test]
    fn alltoallv_on_one_node_is_priced_on_the_intra_link() {
        // Every rank sends every other rank 32 bytes, all on one node:
        // each endpoint sends and receives three 40-byte buckets at the
        // intra-node rate; the latency tree stays on `link`. Rank 0 is the
        // busiest: ranks 1..=3 each address their first bucket, and with it
        // their 8-byte count vector, to rank 0.
        let (link, intra) = (LinkCost::new(100, 1e9), LinkCost::new(10, 4e9));
        let net = NetCost::new(link.clone()).with_intra_link(intra.clone());
        let counts: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 0 } else { 32 }).collect())
            .collect();
        let out = alltoallv_clocks(net, Some(NodeTopology::single_node(4)), &counts);
        let want = link.collective_ns(4, 0) + intra.payload_ns(3 * (40 + 8));
        assert!(out.iter().all(|&t| t == want), "{out:?} != {want}");
    }

    #[test]
    fn alltoallv_mixed_classes_end_at_the_slower_class_of_the_busiest_endpoint() {
        // Two nodes of two. Rank 0 sends 8 000 bytes to rank 1 (intra), its
        // count vector with them, and 200 to rank 2 (inter); rank 3 sends
        // 500 to rank 0 (inter). Rank 0's endpoint carries 8 016 intra
        // bytes and max(208, 516) inter bytes concurrently; rank 1
        // receives the 8 016, rank 2 the 208, rank 3 sends 516. Two ranks
        // send.
        let (link, intra) = (LinkCost::new(100, 1e9), LinkCost::new(10, 4e9));
        let net = NetCost::new(link.clone()).with_intra_link(intra.clone());
        let mut counts = vec![vec![0; 4]; 4];
        counts[0][1] = 8_000;
        counts[0][2] = 200;
        counts[3][0] = 500;
        let out = alltoallv_clocks(net, Some(NodeTopology::new(4, 2)), &counts);
        let span = intra.payload_ns(8_016).max(link.payload_ns(516));
        assert_eq!(span, intra.payload_ns(8_016), "the intra class dominates");
        let want = link.collective_ns(2, 0) + span;
        assert!(out.iter().all(|&t| t == want), "{out:?} != {want}");
    }

    #[test]
    fn alltoallv_self_bucket_is_free_and_does_not_make_a_rank_active() {
        // Rank 0 keeps 1000 bytes and sends 64 to rank 1; rank 1 keeps 500
        // bytes and sends nothing; ranks 2 and 3 are idle. The self buckets
        // are delivered (by move) but cost nothing, and rank 1 — whose only
        // non-empty bucket is its own — is not active:
        // span = collective_ns(active) + payload_ns(the count vector and
        // the one 72-byte bucket).
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
            // Rank 0 receives the most: everything but its own vector.
            (
                "allgather",
                |c| drop(c.allgather(vec![0u8; c.rank() + 1])),
                link.collective_ns(p, 0) + link.payload_ns(all - wire(0)),
            ),
            (
                "bcast",
                |c| drop(c.bcast(2, (c.rank() == 2).then(|| vec![0u8; 3]))),
                link.collective_ns(p, wire(2)),
            ),
            // The root's incast; its own vector never leaves it, so it is
            // not on the wire. The latency tree still spans all P ranks.
            (
                "gatherv",
                |c| drop(c.gatherv(1, vec![0u8; c.rank() + 1])),
                link.collective_ns(p, 0) + link.payload_ns(all - wire(1)),
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

    /// A toy LCG: uniform-enough draws below `n` for the seeded tests.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// Each re-priced collective ends no later than the one-bus price it
    /// replaced — `collective_ns` plus `payload_ns` of every wire byte on
    /// `link`, recomputed here — on every preset, for random ragged
    /// bucket matrices, P in 1..=16 and random placements.
    #[test]
    fn no_collective_is_dearer_than_one_bus() {
        let presets = [
            NetCost::myrinet(),
            NetCost::numalink(),
            NetCost::colony(),
            NetCost::fast_test(),
        ];
        for seed in 0..32u64 {
            let mut rng = Lcg(seed);
            let p = 1 + rng.below(16) as usize;
            let topo = NodeTopology::new(p, 1 + rng.below(p as u64) as usize);
            let root = rng.below(p as u64) as usize;
            let counts: Vec<Vec<usize>> = (0..p)
                .map(|_| {
                    let mut draw = || match rng.below(3) {
                        0 => 0,
                        _ => rng.below(20_000) as usize,
                    };
                    (0..p).map(|_| draw()).collect()
                })
                .collect();
            let own: Vec<usize> = (0..p).map(|_| rng.below(20_000) as usize).collect();

            // The one-bus charges: alltoallv a count vector plus the
            // non-empty remote buckets of each sender, the latency tree over
            // the senders; gatherv and allgather every rank's vector, the
            // root's included, over a tree of all P.
            let remote = |i: usize| -> u64 {
                let buckets = (0..p).filter(|&j| j != i && counts[i][j] > 0);
                buckets.map(|j| 8 + counts[i][j] as u64).sum()
            };
            let senders = (0..p).filter(|&i| remote(i) > 0).count();
            let exchanged: u64 = (0..p)
                .filter(|&i| remote(i) > 0)
                .map(|i| 8 + remote(i))
                .sum();
            let vectors: u64 = own.iter().map(|&n| 8 + n as u64).sum();

            for net in &presets {
                let out = run(p, net.clone(), |c| {
                    let c = c.placed(topo);
                    let me = c.rank();
                    c.alltoallv(counts[me].iter().map(|&n| vec![0u8; n]).collect());
                    let a = c.clock().now();
                    c.gatherv(root, vec![0u8; own[me]]);
                    let g = c.clock().now();
                    c.allgather(vec![0u8; own[me]]);
                    [a, g - a, c.clock().now() - g]
                });
                let link = &net.link;
                let bus = [
                    link.collective_ns(senders, 0) + link.payload_ns(exchanged),
                    link.collective_ns(p, 0) + link.payload_ns(vectors),
                    link.collective_ns(p, 0) + link.payload_ns(vectors),
                ];
                for (name, i) in [("alltoallv", 0), ("gatherv", 1), ("allgather", 2)] {
                    assert!(
                        out.iter().all(|o| o[i] <= bus[i]),
                        "seed {seed}, {net:?}: {name} took {} > {}",
                        out[0][i],
                        bus[i]
                    );
                }
            }
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
