use std::any::Any;
use std::sync::Arc;

use atomio_trace::{Category, TraceSink, Tracer, Track};
use atomio_vtime::{Clock, WireSize};

use crate::runtime::Shared;
use atomio_vtime::{NetCost, NodeTopology};

/// A communicator handle owned by one rank — the MPI subset the paper's
/// strategies need.
///
/// All operations charge virtual time to this rank's [`Clock`]. Collective
/// calls must be made by every rank of the communicator in the same order
/// (MPI semantics); a mismatch is detected as a timeout and panics.
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
    pub(crate) fn world(rank: usize, shared: Arc<Shared>) -> Self {
        Comm {
            rank,
            size: shared.nprocs,
            world_rank: rank,
            members: None,
            clock: Clock::new(),
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

    /// World rank of this communicator's local rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        debug_assert!(r < self.size);
        match &self.members {
            Some(m) => m[r],
            None => r,
        }
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

    /// Synchronize all ranks; afterwards every clock reads the same time.
    pub fn barrier(&self) {
        let link = self.shared.net.link.clone();
        let p = self.size;
        self.rendezvous(
            "barrier",
            (),
            16,
            move |max, _, _| max + link.collective_ns(p, 16),
            |_| (),
        );
    }

    /// Every rank contributes one value; every rank receives all values in
    /// rank order. Contributions may differ in size (allgatherv).
    pub fn allgather<T: Clone + Send + WireSize + 'static>(&self, value: T) -> Vec<T> {
        let link = self.shared.net.link.clone();
        let p = self.size;
        self.rendezvous(
            "allgather",
            value.clone(),
            value.wire_size(),
            move |max, total, _| max + link.collective_ns(p, 0) + link.payload_ns(total as u64),
            |slots| slots.iter().map(|s| clone_slot::<T>(s)).collect(),
        )
    }

    /// Root's value is distributed to all ranks. Non-root ranks pass `None`.
    pub fn bcast<T: Clone + Send + WireSize + 'static>(&self, root: usize, value: Option<T>) -> T {
        assert!(root < self.size);
        assert_eq!(
            self.rank == root,
            value.is_some(),
            "exactly the root must supply the broadcast value"
        );
        let link = self.shared.net.link.clone();
        let p = self.size;
        let bytes = value.as_ref().map_or(0, WireSize::wire_size);
        self.rendezvous(
            "bcast",
            value,
            bytes,
            move |max, total, _| max + link.collective_ns(p, total as u64),
            move |slots| clone_slot::<Option<T>>(&slots[root]).expect("root deposited Some"),
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
    pub fn split_opt(&self, color: Option<u64>) -> Option<Comm> {
        self.split_with_net(color, self.shared.net.clone())
    }

    /// One communicator per node of `topo` (which describes how **this**
    /// communicator's ranks map onto nodes, so it is colored by local
    /// rank): the local lanes intra-node aggregation runs over. The
    /// sub-communicator's link model is the parent's *intra-node* link
    /// class, so its collectives charge shared-memory prices.
    pub fn split_node(&self, topo: &NodeTopology) -> Comm {
        let mut net = self.shared.net.clone();
        net.link = net.intra_link.clone();
        self.split_with_net(Some(topo.node_of(self.rank) as u64), net)
            .expect("color provided")
    }

    /// One communicator spanning the node leaders of `topo` (interpreted
    /// over this communicator's local ranks): the ranks that run the
    /// inter-node exchange on behalf of their node. Non-leaders get `None`
    /// (but still participate in the split's collectives). Keeps the
    /// parent's inter-node link model.
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
            clock: self.clock.clone(),
            shared,
            // The sub-communicator inherits the rank's recorder, so its
            // collectives land on the same track.
            tracer: self.tracer.clone(),
        })
    }

    pub(crate) fn rendezvous<T, R>(
        &self,
        name: &'static str,
        contribution: T,
        bytes: usize,
        cost: impl FnOnce(u64, usize, usize) -> u64,
        read: impl FnOnce(&mut [Option<Box<dyn Any + Send>>]) -> R,
    ) -> R
    where
        T: Send + 'static,
    {
        let start = self.clock.now();
        let (r, finish) = self.shared.coll.rendezvous(
            self.rank,
            self.size,
            start,
            bytes,
            contribution,
            cost,
            read,
        );
        self.clock.advance_to(finish);
        if self.tracer.is_enabled() {
            match &self.members {
                None => self.tracer.span(
                    Category::Comm,
                    name,
                    start,
                    finish,
                    &[("bytes", bytes as u64)],
                ),
                // Sub-communicator spans name their group so trace checkers
                // can align collectives per group instead of globally.
                Some(ms) => {
                    let mut args = Vec::with_capacity(1 + ms.len());
                    args.push(("bytes", bytes as u64));
                    args.extend(ms.iter().map(|&m| ("mem", m as u64)));
                    self.tracer.span(Category::Comm, name, start, finish, &args);
                }
            }
        }
        r
    }
}

fn clone_slot<T: Clone + 'static>(slot: &Option<Box<dyn Any + Send>>) -> T {
    slot.as_ref()
        .expect("collective slot filled")
        .downcast_ref::<T>()
        .expect("collective type mismatch across ranks")
        .clone()
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
                    Some((s.rank(), s.size(), members, s.world_rank_of(2)))
                }
                None => None,
            }
        });
        assert_eq!(out[0], Some((0, 3, vec![0, 2, 4], 4)));
        assert_eq!(out[1], None);
        assert_eq!(out[4], Some((2, 3, vec![0, 2, 4], 4)));
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
    fn allgather_cost_scales_with_bytes() {
        // Two jobs differing only in payload size: bigger payload, later clock.
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
