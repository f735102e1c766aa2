//! The two-phase entry points and their round loop, one loop under both
//! [`ExchangeSchedule`]s and in both directions: negotiate, cut the domains
//! into rounds, then per round funnel through the node tier and exchange. A write routes, submits
//! its own batch, exchanges, retires, submits the received batch and
//! drains; a read asks, serves and answers.
//!
//! Each round an aggregator writes in two batches under the round's epoch.
//! What it routed to itself — its own surviving pieces, still slices of the
//! caller's buffer, and on pipelined what its node-mates gathered to it for
//! its domain — never touches a wire, so it leaves before the exchange;
//! what the exchange delivers leaves when it returns. The two are disjoint
//! after the surrender, ride the one NIC in call order and retire together.
//!
//! [`ExchangeSchedule::Pipelined`] funnels each node's pieces to its leader
//! over the intra-node link (Kang et al.), runs the exchange over the
//! leaders only (a `log₂(nodes)` latency tree), and writes behind with no
//! barrier: aggregators submit round `k`'s writes under epoch `k` and
//! retire them `depth` rounds later. Nothing fences a retirement: when
//! round `k`'s exchange returns, every leader has entered it and therefore
//! deposited all of its rounds `< k`, so settling through epoch `k-1`
//! replays a set that is a function of the program, whatever faster leaders
//! have already submitted for round `k` (see
//! [`ServerSet`](atomio_pfs::ServerSet) for the epoch contract).
//!
//! [`ExchangeSchedule::Flat`] is the degenerate schedule of the same loop:
//! every rank is its own leader on the world communicator (no split, no
//! node tier, a world `allgather` negotiation), placed on the nodes so its
//! exchange prices a node-mate's bucket on the intra-node link, and the
//! whole domain is one round, so the loop body runs once: submit own,
//! exchange, submit received, barrier, settle, barrier.
//!
//! A write surrenders before anything moves (the rank-ordering rule of
//! [`surviving_pieces_strided`]), so no tier deduplicates, tags or orders
//! anything and every byte of the union rides each link class at most
//! once; each domain goes to the candidate holding the most of what
//! survives (`cut_domains`). A read surrenders nothing, so ownership
//! follows the raw footprints. Its requests — one `(offset, length)` per
//! part of a segment inside a domain — funnel to the leader and cross in
//! the leaders' exchange; each aggregator reads its round's requested runs
//! with one closed-loop vector read, and the replies, slices of the run
//! buffers, travel back the same way, the leader handing each node-mate its
//! own. A byte is copied from the servers into a run buffer and from its
//! reply into the caller's buffer, nowhere else. A closed-loop read cannot
//! overlap a later round, so a read's rounds run one after another.

use std::ops::Range;
use std::sync::Arc;

use atomio_dtype::ViewSegment;
use atomio_interval::{ByteRange, StridedSet};
use atomio_msg::Comm;
use atomio_pfs::{FsError, PosixFile};
use atomio_trace::Category;
use atomio_vtime::{NodeTopology, WireSize};

use crate::domain::FileDomain;
use crate::exchange::{gather, lend, route_segments, split, Piece};
use crate::surrender::{higher_union_strided, surviving_footprints, surviving_pieces_strided};
use crate::two_phase::{
    cut_domains, extent_of, ExchangeSchedule, Owners, TwoPhaseConfig, TwoPhaseReadReport,
    TwoPhaseReport,
};

/// A read request: `(file offset, length)` of one part of a segment inside
/// one domain.
type Request = (u64, u64);

/// An aggregator's answer to one read request: its bytes, as a slice of the
/// buffer the aggregator read the request's run into, or that run's error.
#[derive(Debug, Clone)]
enum Reply {
    Bytes(Arc<[u8]>, Range<usize>),
    Failed(FsError),
}

impl WireSize for Reply {
    fn wire_size(&self) -> usize {
        match self {
            // The request's offset, a length word and the bytes.
            Reply::Bytes(_, at) => 16 + at.len(),
            // The request's offset and an error code.
            Reply::Failed(_) => 16,
        }
    }
}

/// Default round size when `round_stripes` is 0: stripe units per server
/// per round.
const DEFAULT_ROUND_STRIPES: u64 = 4;

/// Sort `tagged` items into `n` buckets by tag, each in arrival order.
fn bucket<T>(tagged: impl Iterator<Item = (u64, T)>, n: usize) -> Vec<Vec<T>> {
    let mut buckets: Vec<Vec<T>> = std::iter::repeat_with(Vec::new).take(n).collect();
    for (dest, item) in tagged {
        buckets[dest as usize].push(item);
    }
    buckets
}

/// What both directions agree on before their first round.
struct Plan {
    /// The node lane (pipelined only).
    node: Option<Comm>,
    /// The exchange communicator: on flat the world itself, placed on the
    /// nodes so that its exchange prices each pair on the link class that
    /// carries it; on pipelined the leaders (`None` below a leader).
    exchange: Option<Comm>,
    /// Maps an aggregator's world rank to its index on `exchange`.
    stride: usize,
    domains: Vec<FileDomain>,
    /// Bytes of each domain a round covers.
    round_bytes: u64,
    /// Write-behind depth: rounds of server writes in flight after a
    /// submit (0: retire everything at the drain).
    depth: usize,
    rounds: usize,
}

impl Plan {
    /// Round `k`'s slice of every domain that reaches it.
    fn round(&self, k: usize) -> Vec<FileDomain> {
        let slice = |d: &FileDomain| {
            let start = d.range.start + k as u64 * self.round_bytes;
            (start < d.range.end).then(|| FileDomain {
                rank: d.rank,
                range: ByteRange::new(start, (start + self.round_bytes).min(d.range.end)),
            })
        };
        self.domains.iter().filter_map(slice).collect()
    }
}

/// Phase 0 of either direction: negotiation, domain ownership and the
/// round cut. Flat allgathers every footprint over the world. Pipelined
/// stays hierarchical: footprints are allgathered inside the node; the
/// leaders allgather one *union* per node across the network, choose the
/// owners from those unions (for a write, from what each node keeps of its
/// own) and broadcast to their node the span, the owners and, for a write,
/// the union of every higher node. No per-rank footprint crosses a node
/// boundary, and block placement puts every higher rank on this node or a
/// higher one, so that is all the surrender rule needs.
///
/// Returns the plan (`None` when no rank has a byte, after a barrier that
/// leaves the clocks aligned) and the union of every higher rank's
/// footprint, which a write surrenders (empty for a read).
fn negotiate(
    comm: &Comm,
    file: &PosixFile,
    cfg: &TwoPhaseConfig,
    segments: &[ViewSegment],
    write: bool,
) -> (Option<Plan>, StridedSet) {
    assert!(
        segments
            .windows(2)
            .all(|w| w[0].file_end() <= w[1].file_off),
        "two-phase I/O needs ascending, non-overlapping segments (as FileView::segments yields)"
    );
    let rpn = cfg.ranks_per_node.max(1);
    let topo = NodeTopology::new(comm.size(), rpn);
    let (node, exchange, stride) = match cfg.schedule {
        ExchangeSchedule::Flat => (None, Some(comm.placed(topo)), 1),
        ExchangeSchedule::Pipelined { .. } => {
            (Some(comm.split_node(&topo)), comm.split_leaders(&topo), rpn)
        }
    };
    // On the pipelined schedule aggregators are clamped to the node count
    // so every aggregator is a node leader and no I/O re-crosses the
    // network.
    let cap = node.as_ref().map_or(comm.size(), |_| topo.nodes());
    // A write surrenders to every higher rank and owns by what survives; a
    // read keeps every footprint whole.
    let above = |fps: &[StridedSet], me| match write {
        true => higher_union_strided(fps, me),
        false => StridedSet::new(),
    };
    let held = |fps: &[StridedSet]| Owners::Held {
        held: match write {
            true => surviving_footprints(fps),
            false => fps.to_vec(),
        },
        stride,
    };

    let t0 = comm.clock().now();
    let footprint = StridedSet::from_sorted_extents(segments.iter().map(|s| (s.file_off, s.len)));
    let (extent, owners, higher) = match &node {
        None => {
            let all = comm.allgather(footprint);
            (extent_of(&all), held(&all), above(&all, comm.rank()))
        }
        Some(node) => {
            let mut footprints = node.allgather(footprint);
            let from_leaders = exchange.as_ref().map(|l| {
                let node_union = footprints[0].union(&higher_union_strided(&footprints, 0));
                let node_unions = l.allgather(node_union);
                let extent = extent_of(&node_unions);
                let owners: Vec<usize> = extent.map_or_else(Vec::new, |extent| {
                    let held = held(&node_unions);
                    let domains = cut_domains(comm.size(), file, cfg, extent, cap, &held);
                    domains.iter().map(|d| d.rank).collect()
                });
                (extent, owners, above(&node_unions, l.rank()))
            });
            let (extent, owners, higher_nodes) = node.bcast(0, from_leaders);
            footprints.push(higher_nodes);
            let higher = above(&footprints, node.rank());
            (extent, Owners::Chosen(owners), higher)
        }
    };
    let Some(extent) = extent else {
        comm.barrier(); // nobody has data this round; leave clocks aligned
        return (None, higher);
    };
    let domains = cut_domains(comm.size(), file, cfg, extent, cap, &owners);
    comm.tracer().span(
        Category::Exchange,
        "negotiate domains",
        t0,
        comm.clock().now(),
        &[("aggregators", domains.len() as u64)],
    );

    // Rounds: flat ships every domain whole; pipelined cuts them into
    // `round_stripes` stripe rows per round — `round_stripes` units of each
    // domain on every server, one request per server.
    let max_len = domains.iter().map(|d| d.range.len()).max().unwrap_or(0);
    let (round_bytes, depth) = match cfg.schedule {
        ExchangeSchedule::Flat => (max_len.max(1), 0),
        ExchangeSchedule::Pipelined {
            round_stripes,
            depth,
        } => {
            let stripes = match round_stripes {
                0 => DEFAULT_ROUND_STRIPES,
                n => n as u64,
            };
            let row = file.stripe_unit() * file.server_count() as u64;
            (stripes * row, depth as usize)
        }
    };
    let rounds = max_len.div_ceil(round_bytes).max(1) as usize;
    let plan = Plan {
        node,
        exchange,
        stride,
        domains,
        round_bytes,
        depth,
        rounds,
    };
    (Some(plan), higher)
}

/// The write step: put an aggregator's pieces of round `k` in file order,
/// hand them to the file as they are and account their bytes in `report`.
/// Returns the batch's ticket and the runs it wrote; the caller counts runs
/// over everything the round wrote, so a run split across two batches
/// counts once.
///
/// They leave through [`PosixFile::submit_writes`] under epoch `k`: on a
/// healthy file system one deferred batch whose ticket comes back for the
/// round loop to retire; under a fault plan synchronously, with no ticket,
/// and a dead server surfaces as a report entry — never a panic or a write
/// through it. Either way every piece whose servers are up is on storage
/// when this returns, and a piece passed by value is already freed.
fn submit_runs<T: AsRef<[u8]>>(
    comm: &Comm,
    file: &PosixFile,
    pieces: impl Iterator<Item = (u64, T)>,
    k: usize,
    report: &mut TwoPhaseReport,
) -> (Option<u64>, Vec<ByteRange>) {
    let t_w = comm.clock().now();
    let batch = gather(pieces);
    report.bytes_written += batch.bytes;
    let ticket = if batch.writes.is_empty() {
        None
    } else {
        file.submit_writes(batch.writes, k as u64, false)
            .unwrap_or_else(|e| {
                report.write_errors += 1;
                report.first_error.get_or_insert(e);
                None
            })
    };
    comm.tracer().span(
        Category::Exchange,
        "round write",
        t_w,
        comm.clock().now(),
        &[("round", k as u64), ("bytes", batch.bytes)],
    );
    (ticket, batch.runs)
}

/// One collective, MPI-atomic write through two-phase redistribution.
///
/// All ranks of `comm` must call this together (it is built from
/// collectives). `segments` is this rank's request mapped through its file
/// view; `buf` holds the data, whose first byte is logical stream offset
/// `base`.
///
/// Issues **zero lock requests**: domains are disjoint by construction, so
/// the aggregators' writes cannot conflict, and overlapped user data was
/// already surrendered to the highest rank (paper §3.3.2) *before* the
/// exchange — every byte of the union is shipped and written exactly once.
/// Both [`ExchangeSchedule`]s run this module's one round loop.
pub fn two_phase_write(
    comm: &Comm,
    file: &PosixFile,
    segments: &[ViewSegment],
    buf: &[u8],
    base: u64,
    cfg: &TwoPhaseConfig,
) -> TwoPhaseReport {
    let (plan, higher) = negotiate(comm, file, cfg, segments, true);
    let pieces = surviving_pieces_strided(segments, &higher);
    let len = |segs: &[ViewSegment]| segs.iter().map(|s| s.len).sum::<u64>();
    let mut report = TwoPhaseReport {
        conflict_bytes: len(segments) - len(&pieces),
        ..TwoPhaseReport::default()
    };
    let Some(plan) = plan else { return report };
    let (node, leaders) = (plan.node.as_ref(), plan.exchange.as_ref());
    report.aggregator_count = plan.domains.len();
    let owned = plan.domains.iter().find(|d| d.rank == comm.rank());
    report.domain = owned.map(|d| d.range);
    report.rounds = plan.rounds;

    // Two tickets per round — the aggregator's own pieces and the received
    // ones — open until the round is retired. Under a fault plan the write
    // step is synchronous and leaves none, so nothing is ever pending and
    // nothing is retired.
    let mut tickets: Vec<[Option<u64>; 2]> = vec![[None; 2]; plan.rounds];
    // Redistribution payload per link class, intra then inter: each byte is
    // metered on the class that carries it (`Comm::link_class`, the rule
    // the exchange prices it by), so both schedules report on one meter.
    let mut metered = [0u64; 2];

    for k in 0..plan.rounds {
        // Route this round's pieces: what falls in this rank's own domain
        // stays in `buf`, the rest is copied into one bucket per world rank.
        // Flat hands the buckets to the exchange as they are.
        let t_agg = comm.clock().now();
        let (mine, outgoing) =
            route_segments(comm.rank(), comm.size(), &pieces, buf, base, &plan.round(k));
        let sent = outgoing.iter().flatten().map(|p| p.1.len());
        let payload = mine.iter().map(|p| p.1.len()).chain(sent).sum::<usize>() as u64;
        report.bytes_shipped += payload;
        let mut out_buckets = match node {
            None => outgoing,
            Some(node) => {
                // Tier 1: funnel the pieces to the node leader, tagged with
                // the exchange index of the owning aggregator (aggregators
                // are leaders by construction, so only a leader keeps any
                // back). Non-leaders pay the intra-node link; the leader's
                // own pieces never leave its memory.
                let tagged: Vec<(u64, Piece)> = outgoing
                    .into_iter()
                    .enumerate()
                    .flat_map(|(dst, bucket)| {
                        let li = (dst / plan.stride) as u64;
                        bucket.into_iter().map(move |piece| (li, piece))
                    })
                    .collect();
                if node.rank() != 0 {
                    metered[node.link_class(node.rank(), 0) as usize] += payload;
                }
                let node_pieces = node.gatherv(0, tagged);
                comm.tracer().span(
                    Category::Exchange,
                    "aggregate",
                    t_agg,
                    comm.clock().now(),
                    &[("round", k as u64), ("bytes", payload)],
                );
                // The leader sorts its node's pieces by destination — each
                // one a `Vec` move, so nothing is charged; below it there is
                // nothing to sort.
                let gathered = node_pieces.into_iter().flatten().flatten();
                bucket(gathered, leaders.map_or(0, Comm::size))
            }
        };
        let Some(l) = leaders else { continue };

        // What an aggregator routed to itself never touches a wire, so it
        // does not wait for the exchange: it leaves for the servers now,
        // under epoch `k` — its own pieces straight from `buf`, on
        // pipelined with what its node-mates gathered to it for its domain.
        let own = std::mem::take(&mut out_buckets[l.rank()]);
        let own_batch = mine.into_iter().chain(own.iter().map(lend));
        let (own_ticket, mut runs) = submit_runs(comm, file, own_batch, k, &mut report);
        drop(own);

        // The exchange, of the rest.
        let t_ex = comm.clock().now();
        let mut wire = 0u64;
        for (j, bucket) in out_buckets.iter().enumerate() {
            let n: u64 = bucket.iter().map(|p| p.1.len() as u64).sum();
            wire += n;
            metered[l.link_class(l.rank(), j) as usize] += n;
        }
        let incoming = l.alltoallv(out_buckets);
        comm.tracer().span(
            Category::Exchange,
            "exchange round",
            t_ex,
            comm.clock().now(),
            &[("round", k as u64), ("bytes", wire)],
        );

        // Retire the round that fell out of the write-behind window. Every
        // leader entered exchange `k` to let it return, so every round
        // `< k` is deposited: settling through `k - 1` needs no barrier.
        if plan.depth > 0 && k >= plan.depth {
            for t in tickets[k - plan.depth].iter_mut().filter_map(Option::take) {
                file.complete_writes(t, k as u64 - 1);
            }
        }

        // Aggregation: nothing that arrives overlaps the own pieces or each
        // other, so the received pieces are put in file order and leave as
        // they came, under the same epoch, each freed once it is applied.
        let arrived = incoming.into_iter().flatten();
        let (ticket, received) = submit_runs(comm, file, arrived, k, &mut report);
        tickets[k] = [own_ticket, ticket];
        // The two batches' runs are disjoint: a run of their union starts
        // wherever one does not touch the run before it.
        runs.extend(received);
        runs.sort_unstable_by_key(|r| r.start);
        let joined = runs.windows(2).filter(|w| w[0].end == w[1].start).count();
        report.write_runs += runs.len() - joined;
    }

    // Drain: once every leader has submitted its last round, retire every
    // still-open ticket in submission order, then realign the whole
    // communicator.
    if let Some(l) = leaders {
        let t_d = comm.clock().now();
        l.barrier();
        for t in tickets.into_iter().flatten().flatten() {
            file.complete_writes(t, u64::MAX);
        }
        comm.tracer()
            .span(Category::Exchange, "drain", t_d, comm.clock().now(), &[]);
    }
    comm.barrier();

    [report.wire_intra_bytes, report.wire_inter_bytes] = metered;
    let stats = file.stats();
    stats.add(&stats.wire_intra_bytes, report.wire_intra_bytes);
    stats.add(&stats.wire_inter_bytes, report.wire_inter_bytes);
    report
}

/// The read step: read the union of the `incoming` requests, as its maximal
/// runs, each into a buffer of its own, built in one allocation, with one
/// closed-loop vector read that resumes past a failed run — and answer each
/// request, per source in request order, with its slice of its run's buffer
/// or its run's error.
fn serve(
    file: &PosixFile,
    incoming: &[Vec<Request>],
    report: &mut TwoPhaseReadReport,
) -> Vec<Vec<Reply>> {
    let requested = incoming.iter().flatten().map(|r| ByteRange::at(r.0, r.1));
    let runs: Vec<ByteRange> = StridedSet::from_ranges(requested).iter().collect();
    let zeroed = |r: &ByteRange| std::iter::repeat_n(0u8, r.len() as usize).collect();
    let mut buffers: Vec<Arc<[u8]>> = runs.iter().map(zeroed).collect();
    let fresh = |b| Arc::get_mut(b).expect("a new buffer has one owner");
    let starts = runs.iter().map(|r| r.start);
    let mut reads: Vec<(u64, &mut [u8])> = starts.zip(buffers.iter_mut().map(fresh)).collect();
    let mut failed: Vec<Option<FsError>> = vec![None; runs.len()];
    file.preadv_direct_past_failures(&mut reads, |i, e| failed[i] = Some(e));
    report.read_runs += runs.len();
    report.read_errors += failed.iter().flatten().count();
    let read = runs.iter().zip(&failed).filter(|(_, e)| e.is_none());
    report.bytes_read_from_servers += read.map(|(r, _)| r.len()).sum::<u64>();
    let answer = |&(off, len): &Request| {
        // A request is contiguous and part of the union, so it lies inside
        // exactly one run.
        let i = runs.partition_point(|r| r.end <= off);
        match &failed[i] {
            None => {
                let at = (off - runs[i].start) as usize;
                Reply::Bytes(Arc::clone(&buffers[i]), at..at + len as usize)
            }
            Some(e) => Reply::Failed(e.clone()),
        }
    };
    let answer_all = |asked: &Vec<Request>| asked.iter().map(answer).collect();
    incoming.iter().map(answer_all).collect()
}

/// One collective read through the aggregators, the write's round loop
/// run the other way: the same negotiation, domains, rounds and node tier
/// under `cfg.schedule`, with ownership following the raw footprints,
/// since a read surrenders nothing. Each round the ranks' requests travel
/// to the owning aggregators, each aggregator reads its round's requested
/// runs, each into a buffer of its own, with one closed-loop vector read
/// ([`PosixFile::preadv_direct_past_failures`]), and the replies — slices
/// of those buffers, never copies — travel back the same way into `buf`,
/// whose first byte is logical stream offset `base`.
///
/// `segments` must be ascending and non-overlapping in file offset — the
/// form [`FileView::segments`](atomio_dtype::FileView::segments) produces —
/// so that each reply maps back to exactly one segment.
///
/// Under fault injection every rank still completes the call: an
/// aggregator whose run fails answers that run's requests with the error,
/// which lands in the requesters' [`TwoPhaseReadReport::first_error`], and
/// still reads the runs after it.
pub fn two_phase_read(
    comm: &Comm,
    file: &PosixFile,
    segments: &[ViewSegment],
    buf: &mut [u8],
    base: u64,
    cfg: &TwoPhaseConfig,
) -> TwoPhaseReadReport {
    let mut report = TwoPhaseReadReport::default();
    let Some(plan) = negotiate(comm, file, cfg, segments, false).0 else {
        return report;
    };
    report.aggregator_count = plan.domains.len();
    for k in 0..plan.rounds {
        let t_r = comm.clock().now();
        let round = plan.round(k);
        // Ask: one request per part of a segment inside a domain, tagged
        // with the exchange index of its owner. A node's requests meet at
        // its leader; on flat every rank leads itself.
        let asked: Vec<(u64, Request)> = split(segments, &round)
            .map(|(rank, part, _)| ((rank / plan.stride) as u64, (part.start, part.len())))
            .collect();
        let gathered = match &plan.node {
            None => Some(vec![asked]),
            Some(node) => node.gatherv(0, asked),
        };
        // Serve: the leaders exchange the requests, each aggregator answers
        // what it was asked, and the answers cross back in the requests'
        // order, so the leader can hand each node-mate its own replies in
        // the order that mate asked.
        let handed = plan.exchange.as_ref().zip(gathered).map(|(l, gathered)| {
            let requests = bucket(gathered.iter().flatten().copied(), l.size());
            let answers = serve(file, &l.alltoallv(requests), &mut report);
            let answered = l.alltoallv(answers);
            let mut answered: Vec<_> = answered.into_iter().map(Vec::into_iter).collect();
            let mut reply_to = |&(li, _): &(u64, Request)| {
                answered[li as usize].next().expect("one reply per request")
            };
            let replies = |asked: &Vec<(u64, Request)>| asked.iter().map(&mut reply_to).collect();
            gathered.iter().map(replies).collect::<Vec<Vec<Reply>>>()
        });
        let replies: Vec<Reply> = match &plan.node {
            None => handed.into_iter().flatten().flatten().collect(),
            Some(node) => {
                let mates = handed.unwrap_or_else(|| vec![Vec::new(); node.size()]);
                node.alltoallv(mates).swap_remove(0)
            }
        };
        // Place each reply where this rank asked for it.
        for ((_, _, logical), reply) in split(segments, &round).zip(replies) {
            match reply {
                Reply::Bytes(run, at) => {
                    let rel = (logical - base) as usize;
                    buf[rel..rel + at.len()].copy_from_slice(&run[at]);
                }
                Reply::Failed(e) => {
                    report.first_error.get_or_insert(e);
                }
            }
        }
        comm.tracer().span(
            Category::Exchange,
            "read round",
            t_r,
            comm.clock().now(),
            &[("round", k as u64)],
        );
    }
    comm.barrier();
    report
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use atomio_pfs::{FileSystem, PlatformProfile};
    use atomio_trace::{MemorySink, TraceSink};
    use atomio_vtime::LinkClass;

    use super::*;
    use crate::two_phase::ExchangeSchedule;

    const P: usize = 8;
    const RPN: usize = 4;
    const BLOCK: u64 = 8 * 1024; // 2 fast_test stripes
    const HALO: u64 = 4 * 1024;

    /// Rank `r` writes `[r·B − halo, (r+1)·B + halo)` clipped to the file —
    /// with a halo every interior block boundary is overlapped by two
    /// ranks; returns every rank's end clock and report. With a `sink`
    /// every rank records its collectives and batch submissions into it.
    fn clocked_write(
        fs: &FileSystem,
        name: &str,
        halo: u64,
        schedule: ExchangeSchedule,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Vec<(u64, TwoPhaseReport)> {
        let name = name.to_string();
        atomio_msg::run(P, fs.profile().net.clone(), move |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), &name);
            if let Some(sink) = &sink {
                comm.bind_tracer(Arc::clone(sink));
                file.tracer().bind_like(comm.tracer());
            }
            let start = (comm.rank() as u64 * BLOCK).saturating_sub(halo);
            let end = ((comm.rank() as u64 + 1) * BLOCK + halo).min(P as u64 * BLOCK);
            let segs = vec![ViewSegment {
                file_off: start,
                logical_off: 0,
                len: end - start,
            }];
            let buf = vec![(comm.rank() + 1) as u8; (end - start) as usize];
            let cfg = TwoPhaseConfig {
                aggregators: None,
                ranks_per_node: RPN,
                schedule,
            };
            let report = two_phase_write(&comm, &file, &segs, &buf, 0, &cfg);
            (comm.clock().now(), report)
        })
    }

    /// The halo case, reports only.
    fn write_all(fs: &FileSystem, name: &str, schedule: ExchangeSchedule) -> Vec<TwoPhaseReport> {
        let out = clocked_write(fs, name, HALO, schedule, None);
        out.into_iter().map(|(_, report)| report).collect()
    }

    #[test]
    fn pipelined_is_byte_identical_to_flat() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let flat = write_all(&fs, "flat", ExchangeSchedule::Flat);
        for (rs, depth) in [(1u32, 1u32), (1, 2), (2, 0), (0, 3)] {
            let name = format!("pipe_{rs}_{depth}");
            let pipe = write_all(
                &fs,
                &name,
                ExchangeSchedule::Pipelined {
                    round_stripes: rs,
                    depth,
                },
            );
            assert_eq!(
                fs.snapshot("flat").unwrap(),
                fs.snapshot(&name).unwrap(),
                "round_stripes={rs} depth={depth}"
            );
            // Every byte of the union written exactly once, whatever the
            // round decomposition.
            let written: u64 = pipe.iter().map(|r| r.bytes_written).sum();
            assert_eq!(written, P as u64 * BLOCK);
            // Total overlap volume is schedule-invariant.
            let flat_conflicts: u64 = flat.iter().map(|r| r.conflict_bytes).sum();
            let pipe_conflicts: u64 = pipe.iter().map(|r| r.conflict_bytes).sum();
            assert_eq!(flat_conflicts, pipe_conflicts);
            assert!(pipe.iter().all(|r| r.write_errors == 0));
        }
    }

    /// Every rank writes the whole extent (maximal overlap): all but the
    /// highest rank surrender everything.
    fn write_full_extent(
        fs: &FileSystem,
        name: &str,
        schedule: ExchangeSchedule,
    ) -> Vec<TwoPhaseReport> {
        let name = name.to_string();
        atomio_msg::run(P, fs.profile().net.clone(), move |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), &name);
            let total = P as u64 * BLOCK;
            let segs = vec![ViewSegment {
                file_off: 0,
                logical_off: 0,
                len: total,
            }];
            let buf = vec![(comm.rank() + 1) as u8; total as usize];
            let cfg = TwoPhaseConfig {
                aggregators: None,
                ranks_per_node: RPN,
                schedule,
            };
            two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
        })
    }

    #[test]
    fn no_schedule_puts_a_byte_of_the_union_on_the_fabric_twice() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let flat = write_full_extent(&fs, "wf", ExchangeSchedule::Flat);
        let pipe = write_full_extent(
            &fs,
            "wp",
            ExchangeSchedule::Pipelined {
                round_stripes: 2,
                depth: 2,
            },
        );
        assert_eq!(fs.snapshot("wf").unwrap(), fs.snapshot("wp").unwrap());
        for (name, reports) in [("flat", &flat), ("pipelined", &pipe)] {
            let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
            let shipped: u64 = reports.iter().map(|r| r.bytes_shipped).sum();
            let inter: u64 = reports.iter().map(|r| r.wire_inter_bytes).sum();
            assert_eq!(written, P as u64 * BLOCK, "{name}");
            assert_eq!(shipped, written, "{name}: the union is shipped once");
            assert!(inter <= written, "{name}: {inter} inter-node bytes");
            // Only the highest rank still has anything to ship.
            assert!(
                reports[..P - 1].iter().all(|r| r.bytes_shipped == 0),
                "{name}"
            );
        }
        // The winner is not a leader, so the node tier carried its bytes.
        assert!(pipe.iter().map(|r| r.wire_intra_bytes).sum::<u64>() > 0);
    }

    #[test]
    fn pipelined_splits_work_into_rounds() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let pipe = write_all(
            &fs,
            "rounds",
            ExchangeSchedule::Pipelined {
                round_stripes: 1,
                depth: 2,
            },
        );
        // 64 KiB over 2 aggregators = 32 KiB domains; a one-stripe round is
        // one 16 KiB stripe row of each domain (a unit on each of the four
        // servers) → 2.
        assert!(pipe.iter().all(|r| r.rounds == 2), "{:?}", pipe[0].rounds);
        // Aggregators issued one write per round, not one monolith.
        let agg_runs = pipe.iter().map(|r| r.write_runs).max().unwrap();
        assert!(agg_runs >= 2, "expected per-round writes, got {agg_runs}");
    }

    #[test]
    fn empty_request_is_a_clean_noop() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let reports = atomio_msg::run(4, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "nothing");
            let cfg = TwoPhaseConfig {
                aggregators: None,
                ranks_per_node: 2,
                schedule: ExchangeSchedule::Pipelined {
                    round_stripes: 0,
                    depth: 2,
                },
            };
            two_phase_write(&comm, &file, &[], &[], 0, &cfg)
        });
        assert!(reports
            .iter()
            .all(|r| r.aggregator_count == 0 && r.bytes_written == 0 && r.rounds == 0));
    }

    /// Both schedules, for the fault tests: the fault-aware write step is
    /// shared, so each must hold on either.
    const SCHEDULES: [(&str, ExchangeSchedule); 2] = [
        ("flat", ExchangeSchedule::Flat),
        (
            "pipelined",
            ExchangeSchedule::Pipelined {
                round_stripes: 1,
                depth: 2,
            },
        ),
    ];

    /// The shared-header checkpoint in miniature: 8 ranks, 2 per node, all
    /// writing a 32 KiB header — exactly the first of the four domains, and
    /// rank 7's after the surrender — plus a 12 KiB block of their own in a
    /// seeded slot. Ownership follows the holdings on both schedules. Every
    /// traced `alltoallv` ends where the price rebuilt from the bytes each
    /// pair of its ranks moves puts it, and the `wire_*_bytes` meters count
    /// that payload on the same link classes: the meter is the price.
    #[test]
    fn a_shared_header_is_served_by_the_node_that_holds_it() {
        use atomio_trace::Track;
        const RANKS: usize = 8;
        const PER_NODE: usize = 2;
        const HEADER: u64 = 32 * 1024;
        const OWN: u64 = 12 * 1024;
        const TOTAL: u64 = HEADER + RANKS as u64 * OWN;
        for seed in 1..=4u64 {
            // Fisher–Yates over a toy LCG: `slot[r]` is where rank r's
            // block lands behind the header.
            let mut slot: Vec<u64> = (0..RANKS as u64).collect();
            let mut state = seed;
            for i in (1..RANKS).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                slot.swap(i, (state >> 33) as usize % (i + 1));
            }
            let block = |r: usize| ByteRange::at(HEADER + slot[r] * OWN, OWN);
            let mut expected = vec![RANKS as u8; TOTAL as usize];
            for r in 0..RANKS {
                expected[block(r).start as usize..block(r).end as usize].fill(r as u8 + 1);
            }

            for (name, schedule) in SCHEDULES {
                let fs = FileSystem::new(PlatformProfile::fast_test());
                let sink = Arc::new(MemorySink::new());
                let reports = atomio_msg::run(RANKS, fs.profile().net.clone(), |comm| {
                    comm.bind_tracer(sink.clone());
                    let me = comm.rank();
                    let file = fs.open(me, comm.clock().clone(), name);
                    let segs = [
                        ViewSegment {
                            file_off: 0,
                            logical_off: 0,
                            len: HEADER,
                        },
                        ViewSegment {
                            file_off: block(me).start,
                            logical_off: HEADER,
                            len: OWN,
                        },
                    ];
                    let buf = vec![me as u8 + 1; (HEADER + OWN) as usize];
                    let cfg = TwoPhaseConfig {
                        aggregators: None,
                        ranks_per_node: PER_NODE,
                        schedule,
                    };
                    two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
                });
                let what = format!("{name}, seed {seed}");
                assert_eq!(fs.snapshot(name).unwrap(), expected, "{what}");
                let sum =
                    |field: fn(&TwoPhaseReport) -> u64| reports.iter().map(field).sum::<u64>();
                assert_eq!(sum(|r| r.bytes_written), TOTAL, "{what}");
                assert_eq!(sum(|r| r.bytes_shipped), TOTAL, "{what}");

                // One owner map on every rank: all count the same domains,
                // and the ones they claim tile the extent.
                assert!(reports.iter().all(|r| r.aggregator_count == 4), "{what}");
                let mut claimed: Vec<(ByteRange, usize)> = (0..RANKS)
                    .filter_map(|r| reports[r].domain.map(|d| (d, r)))
                    .collect();
                claimed.sort_unstable_by_key(|c| c.0.start);
                let tiles: Vec<ByteRange> = claimed.iter().map(|c| c.0).collect();
                let quarter = |i: u64| ByteRange::at(i * TOTAL / 4, TOTAL / 4);
                assert_eq!(tiles, (0..4).map(quarter).collect::<Vec<_>>(), "{what}");

                // Rank 7's node serves the header — rank 7 itself on flat,
                // its leader on pipelined — and at most one domain.
                let nodes: Vec<usize> = claimed.iter().map(|c| c.1 / PER_NODE).collect();
                assert_eq!(nodes[0], (RANKS - 1) / PER_NODE, "{what}");
                assert!((1..4).all(|i| !nodes[..i].contains(&nodes[i])), "{what}");
                // So no header byte crosses the fabric: what does is exactly
                // the block bytes lying in a domain another node owns.
                let crossing: u64 = (0..RANKS)
                    .flat_map(|r| {
                        let away = claimed
                            .iter()
                            .filter(move |c| c.1 / PER_NODE != r / PER_NODE);
                        away.filter_map(move |c| c.0.intersect(&block(r)))
                    })
                    .map(|piece| piece.len())
                    .sum();
                assert_eq!(sum(|r| r.wire_inter_bytes), crossing, "{what}");

                // The exchange's price, rebuilt from the bytes each pair of
                // its ranks moves. Flat runs one exchange over every rank,
                // placed on the nodes; pipelined one per stripe round over
                // the leaders, every pair across nodes, a round being one
                // stripe row of each domain. A bucket is its
                // length word plus, per piece, offset, length word and bytes;
                // a sender's first bucket also carries its count vector.
                let flat = schedule == ExchangeSchedule::Flat;
                let survivors = |r: usize| {
                    let header = (r == RANKS - 1).then(|| ByteRange::at(0, HEADER));
                    header.into_iter().chain([block(r)])
                };
                let (n, per, round) = if flat {
                    (RANKS, 1, TOTAL / 4)
                } else {
                    let servers = fs.servers();
                    let row = servers.stripe_unit() * servers.server_count() as u64;
                    (RANKS / PER_NODE, PER_NODE, row)
                };
                let class = |x: usize, y: usize| {
                    if flat && x / PER_NODE == y / PER_NODE {
                        LinkClass::Intra
                    } else {
                        LinkClass::Inter
                    }
                };
                let net = &fs.profile().net;
                let events = sink.snapshot();
                let mut metered = [0u64; 2];
                for k in 0..(TOTAL / 4).div_ceil(round) {
                    let mut sent = vec![vec![0u64; n]; n];
                    for x in 0..n {
                        for &(domain, owner) in &claimed {
                            let y = owner / per;
                            let end = (domain.start + (k + 1) * round).min(domain.end);
                            let chunk = ByteRange::new(domain.start + k * round, end);
                            let pieces: Vec<u64> = (x * per..(x + 1) * per)
                                .flat_map(survivors)
                                .filter_map(|s| s.intersect(&chunk))
                                .map(|piece| piece.len())
                                .collect();
                            if x != y && !pieces.is_empty() {
                                sent[x][y] += 8 + pieces.iter().map(|len| 16 + len).sum::<u64>();
                                metered[class(x, y) as usize] += pieces.iter().sum::<u64>();
                            }
                        }
                        if let Some(first) = sent[x].iter_mut().find(|b| **b > 0) {
                            *first += 8;
                        }
                    }
                    let active = sent.iter().filter(|row| row.iter().any(|&b| b > 0));
                    let span = (0..n).map(|r| {
                        let per_class = LinkClass::ALL.map(|c| {
                            let out = (0..n).filter(|&y| class(r, y) == c).map(|y| sent[r][y]);
                            let inn = (0..n).filter(|&x| class(x, r) == c).map(|x| sent[x][r]);
                            net.link_of(c).payload_ns(out.sum::<u64>().max(inn.sum()))
                        });
                        per_class[0].max(per_class[1])
                    });
                    let price = net.link.collective_ns(active.count(), 0) + span.max().unwrap();
                    // Round k's exchange on each participant's track.
                    let traced: Vec<(u64, u64)> = (0..n)
                        .map(|x| {
                            let mut on = events.iter().filter(|ev| {
                                ev.name == "alltoallv" && ev.track == Track::Rank(x * per)
                            });
                            let ev = on.nth(k as usize).expect("one exchange per round");
                            (ev.start, ev.start + ev.dur.unwrap())
                        })
                        .collect();
                    let entry = traced.iter().map(|t| t.0).max().unwrap();
                    assert!(
                        traced.iter().all(|t| t.1 == entry + price),
                        "{what}, round {k}: {traced:?}, price {price}"
                    );
                }
                let [intra, inter] = metered;
                assert_eq!(inter, sum(|r| r.wire_inter_bytes), "{what}");
                if flat {
                    assert_eq!(intra, sum(|r| r.wire_intra_bytes), "{what}");
                }
            }
        }
    }

    /// Torn round: a server crashes under an aggregator's mid-run write.
    /// The fault-aware path writes synchronously, the client's retry/backoff
    /// loop rides out the rejections, and the finished file is still
    /// byte-identical to a fault-free flat run.
    #[test]
    fn torn_round_crash_recovers_and_matches_flat() {
        use atomio_pfs::{FaultAction, FaultPlan, FaultSite, RestartPolicy};
        let clean = FileSystem::new(PlatformProfile::fast_test());
        write_all(&clean, "ref", ExchangeSchedule::Flat);

        for (name, schedule) in SCHEDULES {
            // Server 0 holds one stripe of every 16 KiB: it serves one
            // aggregator write per flat domain (four in all), and with
            // 1-stripe rounds and two aggregators the round writes of rounds
            // 0 and 4. Either way its 3rd request is an aggregator write in
            // the middle of the sequence.
            let plan = FaultPlan::none().with(
                FaultSite::ServerRequest { server: 0 },
                3,
                FaultAction::CrashServer {
                    restart: RestartPolicy::Rejections(2),
                },
            );
            let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
            let reports = write_all(&fs, "torn", schedule);
            assert_eq!(
                clean.snapshot("ref").unwrap(),
                fs.snapshot("torn").unwrap(),
                "{name}: crash + recovery must not change the file image"
            );
            assert!(
                reports.iter().all(|r| r.write_errors == 0),
                "{name}: recovered writes must not surface as errors"
            );
            let fstats = fs.fault_stats();
            assert_eq!(
                fstats.server_crashes, 1,
                "{name}: the planned crash must fire"
            );
            assert!(
                fstats.rejections >= 2,
                "{name}: the crash must actually reject work"
            );
        }
    }

    /// A server that never comes back: the write path must surface typed
    /// errors through the report — no panics, no hangs, no writing through
    /// the dead server, and every healthy rank still completes the
    /// collective.
    #[test]
    fn unrecoverable_crash_surfaces_write_errors() {
        use atomio_pfs::{FaultAction, FaultPlan, FaultSite, RestartPolicy};
        for (name, schedule) in SCHEDULES {
            let plan = FaultPlan::none().with(
                FaultSite::ServerRequest { server: 1 },
                2,
                FaultAction::CrashServer {
                    restart: RestartPolicy::Manual,
                },
            );
            let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
            let reports = write_all(&fs, "dead", schedule);
            let errors: usize = reports.iter().map(|r| r.write_errors).sum();
            assert!(
                errors >= 1,
                "{name}: a dead server must be reported, got {reports:?}"
            );
        }
    }

    /// The early batch under a crash: 4 ranks, 2 per node, two aggregators.
    /// Ranks 0 and 1 write a 4 KiB unit each of the first domain (servers 0
    /// and 1), rank 3 the whole second one. Rank 0 owns the first domain on
    /// either schedule, so its own batch — its own unit, on pipelined the
    /// node's whole share of the domain, one round — is the first request
    /// server 0 ever sees. Crash server 0 there: for good, rank 0 reports
    /// the error, everyone completes promptly and everything off server 0
    /// lands; with a restart, the file is the fault-free one.
    #[test]
    fn a_crash_under_the_own_batch_is_reported_and_recovered() {
        use atomio_pfs::{FaultAction, FaultPlan, FaultSite, RestartPolicy};
        const UNIT: u64 = 4 * 1024;
        let write = |fs: &FileSystem, name: &str, schedule| {
            atomio_msg::run(4, fs.profile().net.clone(), |comm| {
                let file = fs.open(comm.rank(), comm.clock().clone(), name);
                let (file_off, len) = match comm.rank() {
                    0 => (0, UNIT),
                    1 => (UNIT, UNIT),
                    2 => (0, 0),
                    _ => (2 * UNIT, 2 * UNIT),
                };
                let segs = [ViewSegment {
                    file_off,
                    logical_off: 0,
                    len,
                }];
                let buf = vec![comm.rank() as u8 + 1; len as usize];
                let cfg = TwoPhaseConfig {
                    aggregators: Some(2),
                    ranks_per_node: 2,
                    schedule,
                };
                two_phase_write(&comm, &file, &segs[..(len > 0) as usize], &buf, 0, &cfg)
            })
        };
        let clean = FileSystem::new(PlatformProfile::fast_test());
        write(&clean, "ref", ExchangeSchedule::Flat);
        let expected = clean.snapshot("ref").unwrap().to_vec();

        for (name, schedule) in SCHEDULES {
            for restart in [RestartPolicy::Manual, RestartPolicy::Rejections(2)] {
                let what = format!("{name}, {restart:?}");
                let plan = FaultPlan::none().with(
                    FaultSite::ServerRequest { server: 0 },
                    1,
                    FaultAction::CrashServer { restart },
                );
                let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
                let started = std::time::Instant::now();
                let reports = write(&fs, "crash", schedule);
                assert!(
                    started.elapsed().as_secs() < 5,
                    "{what}: took {:?}",
                    started.elapsed()
                );
                assert_eq!(fs.fault_stats().server_crashes, 1, "{what}");
                assert_eq!(
                    reports[0].domain,
                    Some(ByteRange::at(0, 2 * UNIT)),
                    "{what}"
                );
                let errors: Vec<usize> = reports.iter().map(|r| r.write_errors).collect();
                let snap = fs.snapshot("crash").unwrap().to_vec();
                if restart == RestartPolicy::Manual {
                    assert!(errors[0] > 0, "{what}: {errors:?}");
                    assert!(reports[0].first_error.is_some(), "{what}");
                    assert_eq!(errors[1..], [0, 0, 0], "{what}");
                    // Everything off server 0 still landed — on pipelined
                    // rank 1's unit rides the failed own batch behind rank
                    // 0's, and a batch attempts every entry.
                    assert_eq!(snap[UNIT as usize..], expected[UNIT as usize..], "{what}");
                } else {
                    assert_eq!(errors, [0; 4], "{what}");
                    assert_eq!(snap, expected, "{what}");
                }
            }
        }
    }

    #[test]
    fn one_rank_per_node_still_matches_flat() {
        // Degenerate topology: every rank its own leader; the node tier is
        // a self-gather and the leader exchange spans everyone.
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let run_one = |fs: &FileSystem, name: &str, schedule| {
            let name = name.to_string();
            atomio_msg::run(4, fs.profile().net.clone(), move |comm| {
                let file = fs.open(comm.rank(), comm.clock().clone(), &name);
                let segs = vec![ViewSegment {
                    file_off: comm.rank() as u64 * 6000,
                    logical_off: 0,
                    len: 9000, // overlaps the next rank by 3000
                }];
                let buf = vec![(comm.rank() + 10) as u8; 9000];
                let cfg = TwoPhaseConfig {
                    aggregators: Some(2),
                    ranks_per_node: 1,
                    schedule,
                };
                two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
            })
        };
        run_one(&fs, "f1", ExchangeSchedule::Flat);
        run_one(
            &fs,
            "p1",
            ExchangeSchedule::Pipelined {
                round_stripes: 1,
                depth: 1,
            },
        );
        assert_eq!(fs.snapshot("f1").unwrap(), fs.snapshot("p1").unwrap());
    }
    /// Flat's clocks, from the cost model: an owner's own pieces leave at
    /// exchange entry `n`, the pieces it receives once the exchange ends at
    /// `e` and its NIC is free, and every 16 KiB domain is one stripe row,
    /// so each server piece is one 4 KiB stripe unit. The aggregators keep
    /// two seats per node and every domain goes to the rank holding most of
    /// it:
    ///
    /// * halo — ranks keep 4, 8, 8, 8, 8, 8, 8, 12 KiB after surrender.
    ///   Owners 1, 3, 5 hold the middle two units of their domain (servers
    ///   1, 2) and receive its head (server 0) and tail (server 3); owner 7
    ///   holds its last three units (servers 1–3) and receives its head.
    /// * disjoint — every rank keeps its 8 KiB block. Owners 0, 2, 4, 6
    ///   hold their domain's first half (servers 0, 1) and receive the
    ///   second (servers 2, 3) from the next rank.
    ///
    /// Every rank ends on one clock: the last server piece, its ack, and
    /// the closing barrier. Each batch is its call's first extent and pays
    /// no `client_op_ns` to issue; a second extent in one batch does. So
    /// against writing the whole domain after the exchange, as one request
    /// per owner, the early batch costs nothing on the NIC and saves the
    /// exchange's span: both cases win, disjoint by exactly that span.
    #[test]
    fn flat_clocks_follow_from_the_own_and_the_received_batches() {
        const UNIT: u64 = 4 * 1024;
        let p = PlatformProfile::fast_test();
        let send = |bytes: u64| p.client_link.payload_ns(bytes);
        let (lat, svc) = (p.client_link.latency_ns, p.serve.service_ns(UNIT));
        // One server takes its one-unit pieces in arrival order.
        let queue = |mut arrivals: Vec<u64>| {
            arrivals.sort_unstable();
            arrivals.into_iter().fold(0, |free, a| free.max(a) + svc)
        };
        let close = lat + p.net.link.collective_ns(P, 16);
        for (name, halo, owners) in [("halo", HALO, [1, 3, 5, 7]), ("disjoint", 0, [0, 2, 4, 6])] {
            let fs = FileSystem::new(PlatformProfile::fast_test());
            let sink = Arc::new(MemorySink::new());
            let out = clocked_write(&fs, name, halo, ExchangeSchedule::Flat, Some(sink.clone()));
            let exchanges: Vec<(u64, u64)> = sink
                .snapshot()
                .iter()
                .filter(|ev| ev.name == "alltoallv")
                .map(|ev| (ev.start, ev.start + ev.dur.unwrap()))
                .collect();
            assert_eq!(exchanges.len(), P, "{name}");
            assert!(exchanges.iter().all(|&x| x == exchanges[0]), "{name}");
            let (n, e) = exchanges[0];
            // The exchange ends while every own batch is still being
            // injected, so the received pieces follow it back to back.
            assert!(e < n + send(2 * UNIT), "{name}");
            // Arrival of a request that leaves after `before` on the NIC.
            let at = |before: u64| n + before + lat;
            let servers = if halo > 0 {
                // The received head and tail are two extents: the tail pays
                // `client_op_ns` to issue.
                let (own, own7) = (send(2 * UNIT), send(3 * UNIT));
                let head = vec![at(own + send(UNIT)); 3];
                let tail = own + 2 * send(UNIT) + p.client_op_ns;
                vec![
                    [head, vec![at(own7 + send(UNIT))]].concat(),
                    [vec![at(own); 3], vec![at(own7)]].concat(),
                    [vec![at(own); 3], vec![at(own7)]].concat(),
                    [vec![at(own7)], vec![at(tail); 3]].concat(),
                ]
            } else {
                let half = send(2 * UNIT);
                let (own, received) = (vec![at(half); 4], vec![at(2 * half); 4]);
                vec![own.clone(), own, received.clone(), received]
            };
            let end = servers.into_iter().map(queue).max().unwrap() + close;
            let clocks: Vec<u64> = out.iter().map(|o| o.0).collect();
            assert_eq!(clocks, vec![end; P], "{name}");
            let whole_domain_after_exchange = e + send(4 * UNIT) + lat + 4 * svc + close;
            assert!(end < whole_domain_after_exchange, "{name}");
            if halo == 0 {
                assert_eq!(end + (e - n), whole_domain_after_exchange, "{name}");
            }

            assert!(out.iter().all(|o| o.1.rounds == 1), "{name}");
            let served: Vec<usize> = (0..P).filter(|&r| out[r].1.domain.is_some()).collect();
            assert_eq!(served, owners, "{name}");
            // Own and received pieces tile each domain: one run, however
            // many batches carried it.
            let runs: Vec<usize> = out.iter().map(|o| o.1.write_runs).collect();
            let expected: Vec<usize> = (0..P).map(|r| owners.contains(&r) as usize).collect();
            assert_eq!(runs, expected, "{name}");
        }
    }

    /// An aggregator holding its whole domain writes it while the exchange
    /// runs: its servers finish at exchange entry plus its own injection,
    /// the latency and the service, however slow the exchange is. The
    /// aggregator holding none of its domain writes only after the
    /// exchange, so its servers finish later the slower it is.
    #[test]
    fn a_domain_its_owner_holds_is_written_while_the_exchange_runs() {
        use atomio_trace::Track;
        use atomio_vtime::LinkCost;
        // Two aggregators, two 8 KiB domains: servers 0, 1 and 2, 3.
        const HALF: u64 = 8 * 1024;
        let mut lags = Vec::new();
        for slow in [1u64, 100] {
            let mut profile = PlatformProfile::fast_test();
            profile.net.link = LinkCost::new(100 * slow, 10e9 / slow as f64);
            // Each batch is its call's first extent: no `client_op_ns`.
            let inject = profile.client_link.payload_ns(HALF);
            let service = profile.serve.service_ns(HALF / 2);
            let write = inject + profile.client_link.latency_ns + service;
            let fs = FileSystem::new(profile);
            let sink = Arc::new(MemorySink::new());
            fs.bind_tracer(sink.clone());
            let reports = atomio_msg::run(2, fs.profile().net.clone(), |comm| {
                comm.bind_tracer(sink.clone());
                let file = fs.open(comm.rank(), comm.clock().clone(), "held");
                // Rank 0 writes the whole extent, rank 1 nothing.
                let len = if comm.rank() == 0 { 2 * HALF } else { 0 };
                let segs = [ViewSegment {
                    file_off: 0,
                    logical_off: 0,
                    len,
                }];
                let segs = &segs[..(len > 0) as usize];
                let buf = vec![1u8; len as usize];
                two_phase_write(&comm, &file, segs, &buf, 0, &TwoPhaseConfig::default())
            });
            let domains: Vec<Option<ByteRange>> = reports.iter().map(|r| r.domain).collect();
            assert_eq!(
                domains,
                [
                    Some(ByteRange::at(0, HALF)),
                    Some(ByteRange::at(HALF, HALF))
                ]
            );
            assert_eq!(fs.snapshot("held").unwrap(), vec![1u8; 2 * HALF as usize]);

            let events = sink.snapshot();
            let ex = events.iter().find(|ev| ev.name == "alltoallv").unwrap();
            let (n, e) = (ex.start, ex.start + ex.dur.unwrap());
            let served = |server| -> Vec<u64> {
                let on = events.iter().filter(|ev| ev.track == Track::Server(server));
                on.map(|ev| ev.start + ev.dur.unwrap()).collect()
            };
            for server in [0, 1] {
                assert_eq!(served(server), [n + write], "slow {slow}, server {server}");
            }
            for server in [2, 3] {
                assert_eq!(served(server), [e + write], "slow {slow}, server {server}");
            }
            lags.push(e - n);
        }
        assert!(
            lags[1] > lags[0] + 10_000,
            "the slow exchange must be slower: {lags:?}"
        );
    }

    /// Perturbs the real-time schedule from inside the run: every traced
    /// event — each collective as it returns, each batch just before it is
    /// deposited with the servers — draws a seeded yield, short sleep or
    /// nothing, on the recording rank's own thread.
    struct Jitter {
        seed: u64,
        events: AtomicU64,
    }

    impl TraceSink for Jitter {
        fn record(&self, _ev: atomio_trace::TraceEvent) {
            let n = self.events.fetch_add(1, Ordering::Relaxed);
            // splitmix64 of (seed, event index).
            let mut z = (self.seed << 32 | n).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            match (z >> 33) % 8 {
                0 => std::thread::sleep(std::time::Duration::from_micros(20 + (z & 63))),
                1..=3 => std::thread::yield_now(),
                _ => {}
            }
        }
    }

    /// The retirement needs no barrier: whatever the host scheduler does
    /// between the collectives and the submits, every rank ends on the same
    /// clock with the same report and the file holds the same bytes. (Drop
    /// the epoch filter from `ServerSet::settle_through` and a fast
    /// leader's next round leaks into a slow leader's replay: this fails.)
    /// Flat deposits two batches per aggregator — its own pieces before the
    /// exchange, the received ones after it — ahead of its drain barrier.
    #[test]
    fn round_loop_clocks_do_not_depend_on_the_host_schedule() {
        let pipelined = [1u32, 2, 0].map(|depth| ExchangeSchedule::Pipelined {
            round_stripes: 1,
            depth,
        });
        for schedule in [ExchangeSchedule::Flat].into_iter().chain(pipelined) {
            let run_once = |seed: u64| {
                let fs = FileSystem::new(PlatformProfile::fast_test());
                let sink = Arc::new(Jitter {
                    seed,
                    events: AtomicU64::new(0),
                });
                let out = clocked_write(&fs, "jit", HALO, schedule, Some(sink));
                assert_eq!(fs.servers().pending_requests(), 0);
                (format!("{out:?}"), fs.snapshot("jit").unwrap())
            };
            let reference = run_once(0);
            for seed in 1..50 {
                assert_eq!(run_once(seed), reference, "{schedule:?}, seed {seed}");
            }
        }
    }

    /// Under a fault plan — even one that never fires — both schedules take
    /// the synchronous write step: no batch is deposited, so no ticket and
    /// no epoch can be left pending across a crash/replay cycle.
    #[test]
    fn an_armed_fault_plan_keeps_every_write_synchronous() {
        use atomio_pfs::{FaultAction, FaultPlan, FaultSite, RestartPolicy};
        let clean = FileSystem::new(PlatformProfile::fast_test());
        write_all(&clean, "ref", ExchangeSchedule::Flat);
        for (name, schedule) in SCHEDULES {
            let plan = FaultPlan::none().with(
                FaultSite::ServerRequest { server: 0 },
                1_000_000,
                FaultAction::CrashServer {
                    restart: RestartPolicy::Manual,
                },
            );
            let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
            let sink = Arc::new(MemorySink::new());
            let out = clocked_write(&fs, "armed", HALO, schedule, Some(sink.clone()));
            assert!(out.iter().all(|o| o.1.write_errors == 0), "{name}");
            assert_eq!(fs.servers().pending_requests(), 0, "{name}");
            let events = sink.snapshot();
            assert!(events.iter().all(|e| e.name != "batch write"), "{name}");
            assert!(events.iter().any(|e| e.name == "direct write"), "{name}");
            assert_eq!(clean.snapshot("ref"), fs.snapshot("armed"), "{name}");
        }
    }
}
