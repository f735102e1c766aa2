/// Placement of ranks onto physical nodes: `ranks_per_node` consecutive
/// ranks share a node (block placement, the default of every scheduler the
/// paper's platforms used). Rank `r` lives on node `r / ranks_per_node`,
/// and the **node leader** is the node's lowest rank — the rank intra-node
/// aggregation funnels through before anything crosses the expensive
/// inter-node link.
///
/// The last node may be partially filled when `nprocs` is not a multiple
/// of `ranks_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTopology {
    nprocs: usize,
    ranks_per_node: usize,
}

impl NodeTopology {
    pub fn new(nprocs: usize, ranks_per_node: usize) -> Self {
        assert!(nprocs >= 1, "topology needs at least one rank");
        assert!(ranks_per_node >= 1, "nodes hold at least one rank");
        NodeTopology {
            nprocs,
            ranks_per_node,
        }
    }

    /// Everything on one node: every link is intra-node, every rank sees
    /// rank 0 as its leader. The degenerate topology that reproduces the
    /// pre-topology (flat) behavior.
    pub fn single_node(nprocs: usize) -> Self {
        NodeTopology::new(nprocs, nprocs.max(1))
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of (possibly partially filled) nodes.
    pub fn nodes(&self) -> usize {
        self.nprocs.div_ceil(self.ranks_per_node)
    }

    /// Node housing `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.nprocs);
        rank / self.ranks_per_node
    }

    /// The leader (lowest rank) of `rank`'s node.
    pub(crate) fn leader_of(&self, rank: usize) -> usize {
        self.node_of(rank) * self.ranks_per_node
    }

    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_maps_ranks_to_nodes() {
        let t = NodeTopology::new(10, 4); // nodes: [0..4), [4..8), [8..10)
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(9), 2);
        assert_eq!(t.leader_of(6), 4);
        assert!(t.is_leader(8));
        assert!(!t.is_leader(9));
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    fn single_node_topology_has_one_leader() {
        let t = NodeTopology::single_node(6);
        assert_eq!(t.nodes(), 1);
        for r in 0..6 {
            assert_eq!(t.leader_of(r), 0);
            assert!(t.same_node(0, r));
        }
    }
}
