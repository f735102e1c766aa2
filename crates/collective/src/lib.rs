//! Two-phase collective I/O with aggregator file domains.
//!
//! The paper's three strategies (file locking, graph coloring, process-rank
//! ordering) all leave every rank writing its own non-contiguous view; they
//! differ only in how the overlaps are serialized. Two-phase collective I/O
//! (Thakur, Gropp & Lusk, "Optimizing Noncontiguous Accesses in MPI-IO";
//! del Rosario, Bordawekar & Choudhary's original two-phase scheme) removes
//! the overlap *by construction* instead:
//!
//! 1. **View exchange** — ranks allgather their flattened file-view
//!    footprints, so everyone agrees on the aggregate file extent;
//! 2. **File domains** — the extent is partitioned into A ≤ P contiguous,
//!    stripe-aligned *file domains*, each owned by one aggregator rank.
//!    Aggregator placement is node-aware (Kang et al., "Improving MPI
//!    Collective I/O Performance With Intra-node Request Aggregation"):
//!    aggregators spread across nodes before doubling up within one, which
//!    fixes how many each node seats. *Which* rank owns *which* domain
//!    follows the footprints of step 1: each domain goes to the candidate
//!    already holding the most of its bytes (greedy by |held ∩ domain|,
//!    one domain per rank, no node over its seats), and to rank order when
//!    that holds as much — the paper's handshaking idea, deciding from the
//!    negotiation what need not be sent, applied to placement;
//! 3. **Redistribution** — every rank first *surrenders* the bytes a higher
//!    rank also writes (process-rank ordering, §3.3.2; the `surrender`
//!    module is the one implementation `Strategy::RankOrdering` uses too:
//!    one sweep from the highest rank down, in which each rank keeps its
//!    footprint minus the union above it and that union grows by what the
//!    rank keeps),
//!    then an `alltoallv` moves the surviving pieces to the aggregators
//!    owning them. The highest rank wins every overlap — the serialization
//!    `atomio-core::verify` accepts — and no losing byte crosses a wire;
//! 4. **I/O** — each aggregator issues a few large contiguous writes for
//!    its domain, straight from the buffers the pieces arrived in: it sorts
//!    the pieces by offset (`exchange::gather`), moving references or
//!    `Vec`s but copying no byte, and the file prices each run as one
//!    request per server it touches while streaming it to them a stripe
//!    row at a time. The pieces it routed to itself never touch a wire —
//!    they are slices of the caller's buffer — so they leave before the
//!    `alltoallv`. Domains are disjoint, so the writes need **no locks, no
//!    ordering phases and no barriers beyond the closing drain**: MPI
//!    atomicity comes free.
//!
//! The cost is one extra pass of the footprint union over the network
//! (charged through the `alltoallv` virtual-time model) against far fewer,
//! far larger server requests — the classic collective-buffering trade.
//!
//! The redistribution comes in two schedules ([`ExchangeSchedule`]) of
//! **one round loop** (the `staged` module): the **pipelined multi-tier**
//! schedule, where each node's ranks first coalesce their pieces at a node
//! leader over the cheap intra-node link, only leaders run the inter-node
//! exchange, and the redistribution proceeds in stripe-aligned rounds whose
//! writes are retired `depth` rounds behind — on the return of a later
//! round's exchange, never on a barrier — overlapping communication with
//! file I/O; and the classic **flat** single-tier `alltoallv`, which is the
//! same loop with every rank its own leader and each domain one round.
//! Both surrender first, ship each byte of the union once and produce
//! byte-identical files. [`two_phase_read`] runs the same loop the other
//! way, surrendering nothing and asking nothing: the aggregators answer
//! from the negotiated footprints with slices of their run buffers.

mod domain;
mod exchange;
mod staged;
mod surrender;
mod two_phase;

pub use domain::{partition_domains, FileDomain};
pub use staged::{two_phase_read, two_phase_write};
pub use surrender::{higher_union_strided, surviving_pieces_strided};
pub use two_phase::{ExchangeSchedule, TwoPhaseConfig, TwoPhaseReadReport, TwoPhaseReport};
