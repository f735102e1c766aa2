use std::sync::Arc;

use atomio_trace::{Category, TraceSink, Tracer, Track};
use atomio_vtime::{Clock, LinkClass, WireSize};

use crate::collective::{slot_ref, Endpoint, Slots};
use crate::runtime::Shared;
use atomio_vtime::{NetCost, NodeTopology};

/// A communicator handle owned by one rank — the MPI subset the paper's
/// strategies need.
///
/// All operations charge virtual time to this rank's [`Clock`]. Collective
/// calls must be made by every rank of the communicator in the same order
/// (MPI semantics); a mismatch parks the ranks for good, and the job table
/// reports it as a deadlock naming each rank's collective.
pub struct Comm {
    rank: usize,
    size: usize,
    world_rank: usize,
    /// World ranks of this communicator's members, ascending by local rank.
    /// `None` for the world communicator (where local rank == world rank).
    /// Sub-communicator collectives publish this list as repeated `mem`
    /// trace args so the happens-before checker can pair up concurrent
    /// collectives group by group.
    members: Option<Arc<Vec<usize>>>,
    /// Where this handle puts its ranks on nodes, which decides each
    /// pair's link class ([`Comm::link_class`]). `None` — the world and
    /// leader communicators — puts every pair on `link`.
    placement: Option<NodeTopology>,
    clock: Clock,
    shared: Arc<Shared>,
    /// Per-rank event recorder; every collective emits a `Category::Comm`
    /// span through it. Free until [`Comm::bind_tracer`] attaches a sink.
    tracer: Tracer,
}

/// Internal payload for `split`: ships the new group's shared state through
/// an allgather slot.
#[derive(Clone)]
struct SharedHandle(Arc<Shared>);

impl WireSize for SharedHandle {
    fn wire_size(&self) -> usize {
        8
    }
}

impl Comm {
    pub(crate) fn world(rank: usize, shared: Arc<Shared>, clock: Clock) -> Self {
        Comm {
            rank,
            size: shared.nprocs,
            world_rank: rank,
            members: None,
            placement: None,
            clock,
            shared,
            tracer: Tracer::disabled(),
        }
    }

    /// This rank's id in this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank this process had in the original (world) communicator.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// This rank's event tracer (home track = the world rank).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach `sink` to this rank's tracer: collectives (and anything else
    /// sharing the tracer via [`Tracer::bind_like`]) start recording onto
    /// the rank's track.
    pub fn bind_tracer(&self, sink: Arc<dyn TraceSink>) {
        self.tracer.bind(Track::Rank(self.world_rank), sink);
    }

    /// The communicator's network cost model.
    pub fn net(&self) -> &NetCost {
        &self.shared.net
    }

    /// Charge local compute time to this rank.
    pub fn compute(&self, ns: u64) {
        self.clock.advance(ns);
    }

    /// This communicator placed on `topo`: a handle on the same ranks,
    /// clock, tracer and collectives whose payload between two ranks
    /// `topo` puts on one node is priced on `intra_link`. Every rank must
    /// enter a collective through a handle with the same placement, as
    /// with any collective argument.
    pub fn placed(&self, topo: NodeTopology) -> Comm {
        assert_eq!(topo.nprocs(), self.size, "a placement covers every rank");
        Comm {
            rank: self.rank,
            size: self.size,
            world_rank: self.world_rank,
            members: self.members.clone(),
            placement: Some(topo),
            clock: self.clock.clone(),
            shared: Arc::clone(&self.shared),
            tracer: self.tracer.clone(),
        }
    }

    /// The link class between ranks `a` and `b` of this communicator:
    /// intra-node where its placement puts both on one node, `link` for
    /// every other pair and on a communicator with no placement. The one
    /// rule the collectives' prices and the two-phase `wire_*_bytes`
    /// meters share.
    pub fn link_class(&self, a: usize, b: usize) -> LinkClass {
        match &self.placement {
            Some(topo) if topo.same_node(a, b) => LinkClass::Intra,
            _ => LinkClass::Inter,
        }
    }

    /// Synchronize all ranks; afterwards every clock reads the same time.
    pub fn barrier(&self) {
        self.rendezvous(
            "barrier",
            (),
            |max, _, at| {
                // Every rank's 16-byte token, on the tree over `link`.
                for e in at {
                    e.send[LinkClass::Inter as usize] = 16;
                }
                max + self.net().link.collective_ns(self.size, 16)
            },
            |_| (),
        );
    }

    /// Every rank contributes one value; every rank receives all values in
    /// rank order. Contributions may differ in size (allgatherv).
    ///
    /// Priced per endpoint like [`Comm::alltoallv`]: a rank receives every
    /// value but its own, each on its pair's link class, and injects its
    /// own once on each class it has peers on. The latency tree spans all
    /// P ranks.
    pub fn allgather<T: Clone + Send + WireSize + 'static>(&self, value: T) -> Vec<T> {
        self.rendezvous(
            "allgather",
            value.clone(),
            |max, slots, at| {
                for j in 0..self.size {
                    let bytes = slot_ref::<T>(slots, j).wire_size() as u64;
                    for r in (0..self.size).filter(|&r| r != j) {
                        let class = self.link_class(j, r) as usize;
                        at[j].send[class] = bytes;
                        at[r].recv[class] += bytes;
                    }
                }
                self.switched_finish(max, self.size, at)
            },
            |slots| {
                (0..self.size)
                    .map(|i| slot_ref::<T>(slots, i).clone())
                    .collect()
            },
        )
    }

    /// Root's value is distributed to all ranks. Non-root ranks pass `None`.
    /// Priced as a log₂(P) tree that moves the value in every round.
    pub fn bcast<T: Clone + Send + WireSize + 'static>(&self, root: usize, value: Option<T>) -> T {
        assert!(root < self.size);
        assert_eq!(
            self.rank == root,
            value.is_some(),
            "exactly the root must supply the broadcast value"
        );
        self.rendezvous(
            "bcast",
            value,
            |max, slots, at| {
                let value = slot_ref::<Option<T>>(slots, root);
                let bytes = value.as_ref().map_or(0, WireSize::wire_size) as u64;
                at[root].send[LinkClass::Inter as usize] = bytes;
                max + self.net().link.collective_ns(self.size, bytes)
            },
            |slots| {
                slot_ref::<Option<T>>(slots, root)
                    .clone()
                    .expect("root deposited Some")
            },
        )
    }

    /// Split into sub-communicators by `color` (like `MPI_Comm_split` with
    /// key = rank). Returns this rank's communicator within its color group.
    pub fn split(&self, color: u64) -> Comm {
        self.split_opt(Some(color)).expect("color provided")
    }

    /// Like [`Comm::split`], but ranks passing `None` opt out of every group
    /// (MPI's `MPI_UNDEFINED`) and receive `None`. Every rank of this
    /// communicator must still make the call — it is itself collective.
    pub(crate) fn split_opt(&self, color: Option<u64>) -> Option<Comm> {
        self.split_with_net(color, self.shared.net.clone())
    }

    /// One communicator per node of `topo` (which describes how **this**
    /// communicator's ranks map onto nodes, so it is colored by local
    /// rank): the local lanes intra-node aggregation runs over. The
    /// sub-communicator's link model is the parent's *intra-node* link
    /// class and it places every pair on one node, so its collectives
    /// charge shared-memory prices.
    pub fn split_node(&self, topo: &NodeTopology) -> Comm {
        let mut net = self.shared.net.clone();
        net.link = net.intra_link.clone();
        let mut node = self
            .split_with_net(Some(topo.node_of(self.rank) as u64), net)
            .expect("color provided");
        node.placement = Some(NodeTopology::single_node(node.size));
        node
    }

    /// One communicator spanning the node leaders of `topo` (interpreted
    /// over this communicator's local ranks): the ranks that run the
    /// inter-node exchange on behalf of their node. Non-leaders get `None`
    /// (but still participate in the split's collectives). Keeps the
    /// parent's inter-node link model and no placement: every pair of
    /// leaders is on `link`.
    pub fn split_leaders(&self, topo: &NodeTopology) -> Option<Comm> {
        self.split_opt(topo.is_leader(self.rank).then_some(0))
    }

    fn split_with_net(&self, color: Option<u64>, net: NetCost) -> Option<Comm> {
        // Gather (color, world rank) so members can be named by world rank
        // even when splitting an already-split communicator.
        let cards = self.allgather((color, self.world_rank as u64));
        let members: Vec<usize> = (0..self.size)
            .filter(|&r| color.is_some() && cards[r].0 == color)
            .collect();
        let new_rank = members.iter().position(|&r| r == self.rank);

        // The lowest-ranked member of each color allocates the group state;
        // everyone picks their group leader's allocation out of the gather.
        // Opted-out ranks still join this allgather (the call is collective)
        // and contribute an empty slot.
        let handle = (new_rank == Some(0)).then(|| SharedHandle(Shared::new(members.len(), net)));
        let handles = self.allgather(handle);
        let new_rank = new_rank?;
        let shared = handles[members[0]].clone().expect("leader allocated").0;
        let world_members: Vec<usize> = members.iter().map(|&r| cards[r].1 as usize).collect();

        Some(Comm {
            rank: new_rank,
            size: members.len(),
            world_rank: self.world_rank,
            members: Some(Arc::new(world_members)),
            placement: None,
            clock: self.clock.clone(),
            shared,
            // The sub-communicator inherits the rank's recorder, so its
            // collectives land on the same track.
            tracer: self.tracer.clone(),
        })
    }

    /// Run one collective: deposit `contribution`, advance the clock to the
    /// finish `cost` computes from the slowest arrival and every deposit,
    /// and record a `Category::Comm` span carrying the bytes this rank's
    /// [`Endpoint`] sent — the count the price was made of.
    pub(crate) fn rendezvous<T, R>(
        &self,
        name: &'static str,
        contribution: T,
        cost: impl FnOnce(u64, &Slots, &mut [Endpoint]) -> u64,
        read: impl FnOnce(&mut Slots) -> R,
    ) -> R
    where
        T: Send + 'static,
    {
        let start = self.clock.now();
        let (r, finish, bytes) =
            self.shared
                .coll
                .rendezvous(name, self.rank, &self.clock, contribution, cost, read);
        self.clock.advance_to(finish);
        if self.tracer.is_enabled() {
            match &self.members {
                None => self
                    .tracer
                    .span(Category::Comm, name, start, finish, &[("bytes", bytes)]),
                // Sub-communicator spans name their group so trace checkers
                // can align collectives per group instead of globally.
                Some(ms) => {
                    let mut args = Vec::with_capacity(1 + ms.len());
                    args.push(("bytes", bytes));
                    args.extend(ms.iter().map(|&m| ("mem", m as u64)));
                    self.tracer.span(Category::Comm, name, start, finish, &args);
                }
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn barrier_aligns_clocks() {
        let clocks = run(4, NetCost::fast_test(), |c| {
            c.compute(c.rank() as u64 * 1000); // skewed arrival
            c.barrier();
            c.clock().now()
        });
        assert!(clocks.iter().all(|&t| t == clocks[0]), "{clocks:?}");
        assert!(clocks[0] >= 3000, "barrier waits for the slowest rank");
    }

    #[test]
    fn allgather_in_rank_order() {
        let out = run(4, NetCost::fast_test(), |c| {
            c.allgather((c.rank() as u64) * 2)
        });
        for got in out {
            assert_eq!(got, vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn allgather_variable_sizes() {
        let out = run(3, NetCost::fast_test(), |c| {
            c.allgather(vec![c.rank() as u8; c.rank() + 1])
        });
        assert_eq!(out[0], vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = run(4, NetCost::fast_test(), |c| {
            let v = (c.rank() == 2).then(|| String::from("hello"));
            c.bcast(2, v)
        });
        assert!(out.iter().all(|s| s == "hello"));
    }

    #[test]
    fn repeated_collectives_generations() {
        run(4, NetCost::fast_test(), |c| {
            for i in 0..50u64 {
                let v = c.allgather(i + c.rank() as u64);
                assert_eq!(v.len(), 4);
                assert_eq!(v[0], i);
            }
        });
    }

    #[test]
    fn split_into_even_odd_groups() {
        let out = run(6, NetCost::fast_test(), |c| {
            let sub = c.split((c.rank() % 2) as u64);
            let members = sub.allgather(c.rank() as u64);
            (sub.rank(), sub.size(), members, sub.world_rank())
        });
        assert_eq!(out[0], (0, 3, vec![0, 2, 4], 0));
        assert_eq!(out[3], (1, 3, vec![1, 3, 5], 3));
        assert_eq!(out[5], (2, 3, vec![1, 3, 5], 5));
    }

    #[test]
    fn split_opt_excludes_undefined_ranks() {
        let out = run(5, NetCost::fast_test(), |c| {
            // Ranks 0, 2, 4 form a group; 1 and 3 opt out (MPI_UNDEFINED).
            let sub = c.split_opt((c.rank() % 2 == 0).then_some(7));
            match sub {
                Some(s) => {
                    let members = s.allgather(s.world_rank() as u64);
                    Some((s.rank(), s.size(), members))
                }
                None => None,
            }
        });
        assert_eq!(out[0], Some((0, 3, vec![0, 2, 4])));
        assert_eq!(out[1], None);
        assert_eq!(out[4], Some((2, 3, vec![0, 2, 4])));
    }

    #[test]
    fn split_node_uses_intra_link_and_maps_world_ranks() {
        use atomio_vtime::{LinkCost, NodeTopology};
        let net =
            NetCost::new(LinkCost::new(10_000, 100e6)).with_intra_link(LinkCost::new(100, 10e9));
        let out = run(4, net, |c| {
            let topo = NodeTopology::new(4, 2);
            let node = c.split_node(&topo);
            let leaders = c.split_leaders(&topo);
            let members = node.allgather(c.world_rank() as u64);
            (
                node.size(),
                members,
                node.net().link.latency_ns,
                leaders.map(|l| (l.rank(), l.size())),
            )
        });
        assert_eq!(out[0].1, vec![0, 1]);
        assert_eq!(out[3].1, vec![2, 3]);
        // Node communicator collectives run at intra-node prices.
        assert!(out.iter().all(|o| o.2 == 100));
        assert_eq!(out[0].3, Some((0, 2)));
        assert_eq!(out[2].3, Some((1, 2)));
        assert_eq!(out[1].3, None);
        assert!(out.iter().all(|o| o.0 == 2));
    }

    #[test]
    fn a_placement_decides_the_link_class_of_each_pair() {
        let topo = NodeTopology::new(4, 2);
        run(4, NetCost::fast_test(), |c| {
            let placed = c.placed(topo);
            assert_eq!(placed.link_class(0, 1), LinkClass::Intra);
            assert_eq!(placed.link_class(1, 2), LinkClass::Inter);
            assert_eq!(c.link_class(0, 1), LinkClass::Inter, "no placement");
            let node = c.split_node(&topo);
            assert_eq!(node.link_class(0, 1), LinkClass::Intra);
            if let Some(leaders) = c.split_leaders(&topo) {
                assert_eq!(leaders.link_class(0, 1), LinkClass::Inter);
            }
        });
    }

    #[test]
    fn allgather_cost_scales_with_bytes() {
        // Two jobs that differ only in payload size: the bigger one ends later.
        let small = run(
            4,
            NetCost::new(atomio_vtime::LinkCost::new(100, 1e9)),
            |c| {
                c.allgather(vec![0u8; 16]);
                c.clock().now()
            },
        );
        let big = run(
            4,
            NetCost::new(atomio_vtime::LinkCost::new(100, 1e9)),
            |c| {
                c.allgather(vec![0u8; 1 << 20]);
                c.clock().now()
            },
        );
        assert!(big[0] > small[0]);
    }
}
