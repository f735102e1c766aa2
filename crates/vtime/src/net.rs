use crate::LinkCost;

/// Which of a communicator's two link models carries a transfer between
/// two of its ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Both ranks share a node: [`NetCost::intra_link`].
    Intra = 0,
    /// Different nodes, or a communicator that knows no placement:
    /// [`NetCost::link`].
    Inter = 1,
}

impl LinkClass {
    /// Both classes, in discriminant order.
    pub const ALL: [LinkClass; 2] = [LinkClass::Intra, LinkClass::Inter];
}

/// Network cost parameters for one communicator.
#[derive(Debug, Clone, PartialEq)]
pub struct NetCost {
    /// Point-to-point link model between **different nodes** (latency +
    /// bandwidth). This is the cost every pre-topology call site charges.
    pub link: LinkCost,
    /// Point-to-point link model between ranks on the **same node**
    /// (shared memory / NUMA interconnect). Defaults to `link` in
    /// [`NetCost::new`], so topology-oblivious communicators are
    /// unchanged; the platform presets override it with the much cheaper
    /// intra-node parameters of their era's SMP nodes.
    pub intra_link: LinkCost,
}

impl NetCost {
    pub fn new(link: LinkCost) -> Self {
        NetCost {
            intra_link: link.clone(),
            link,
        }
    }

    /// Replace the intra-node link model (builder style).
    pub fn with_intra_link(mut self, intra_link: LinkCost) -> Self {
        self.intra_link = intra_link;
        self
    }

    /// The link model of `class`.
    pub fn link_of(&self, class: LinkClass) -> &LinkCost {
        match class {
            LinkClass::Intra => &self.intra_link,
            LinkClass::Inter => &self.link,
        }
    }

    /// Myrinet-class cluster interconnect (ASCI Cplant, Table 1):
    /// ~18 µs latency, ~140 MB/s; intra-node shared memory on the
    /// Alpha-based nodes at ~1 µs / ~500 MB/s.
    pub fn myrinet() -> Self {
        NetCost::new(LinkCost::new(18_000, 140e6)).with_intra_link(LinkCost::new(1_000, 500e6))
    }

    /// NUMAlink-class shared-memory interconnect (SGI Origin 2000):
    /// ~1 µs latency, ~600 MB/s. The Origin is a single NUMA machine, so
    /// intra- and inter-"node" hops share one link class.
    pub fn numalink() -> Self {
        NetCost::new(LinkCost::new(1_000, 600e6))
    }

    /// Colony-switch-class interconnect (IBM SP Blue Horizon):
    /// ~20 µs latency, ~350 MB/s; intra-node shared memory on the 8-way
    /// POWER3 SMP nodes at ~800 ns / ~1 GB/s.
    pub fn colony() -> Self {
        NetCost::new(LinkCost::new(20_000, 350e6)).with_intra_link(LinkCost::new(800, 1e9))
    }

    /// Cheap, fast parameters for unit tests.
    pub fn fast_test() -> Self {
        NetCost::new(LinkCost::new(100, 10e9)).with_intra_link(LinkCost::new(10, 40e9))
    }
}

impl Default for NetCost {
    fn default() -> Self {
        NetCost::fast_test()
    }
}
