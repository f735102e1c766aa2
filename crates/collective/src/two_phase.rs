//! The two-phase collective write/read drivers.

use atomio_dtype::ViewSegment;
use atomio_interval::{ByteRange, IntervalSet, StridedSet};
use atomio_msg::Comm;
use atomio_pfs::PosixFile;
use atomio_trace::Category;
use atomio_vtime::NodeTopology;

use crate::choose_aggregators;
use crate::domain::{domain_of, partition_domains, FileDomain};
use crate::exchange::{gather, route_segments, Gathered, Piece};
use crate::surrender::surrender;

/// How the redistribution phase is scheduled across the node topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeSchedule {
    /// Classic single-tier two-phase: one flat `alltoallv` over all P
    /// ranks, then one monolithic write phase. The reference schedule the
    /// pipelined variants must match byte for byte.
    Flat,
    /// Multi-tier: each node's ranks first funnel their pieces to the node
    /// leader over the cheap intra-node link, only the leaders run the
    /// inter-node exchange, and the whole redistribution is cut into
    /// stripe-aligned *rounds* so round `k`'s exchange overlaps round
    /// `k-1`'s aggregator write.
    Pipelined {
        /// Stripe units per round (`0` means the default of 4). Smaller
        /// rounds pipeline more finely but pay more per-round collectives.
        round_stripes: u32,
        /// Write-behind depth: how many rounds of server writes may be in
        /// flight before the leaders stop and retire the oldest. `1`
        /// serializes write-behind (strict tiering, no overlap), `2`
        /// double-buffers, `0` means unbounded (retire everything at the
        /// end).
        depth: u32,
    },
}

/// Tuning knobs of the two-phase subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPhaseConfig {
    /// Number of aggregator ranks, clamped to `[1, P]`. `None` uses one
    /// aggregator per simulated I/O server (capped at P) — enough to keep
    /// every server streaming without over-subscribing them.
    ///
    /// The pipelined schedule additionally clamps to the node count, so
    /// every aggregator is a node leader.
    pub aggregators: Option<usize>,
    /// Ranks per node, for node-aware aggregator placement (Kang et al.).
    /// With the threads-as-ranks runtime this is a modeling input; 1 means
    /// every rank is its own node and aggregators are simply ranks `0..A`.
    pub ranks_per_node: usize,
    /// Redistribution schedule; see [`ExchangeSchedule`].
    pub schedule: ExchangeSchedule,
}

impl Default for TwoPhaseConfig {
    fn default() -> Self {
        TwoPhaseConfig {
            aggregators: None,
            ranks_per_node: 1,
            schedule: ExchangeSchedule::Flat,
        }
    }
}

/// Per-rank accounting of one two-phase collective write.
#[derive(Debug, Clone, Default)]
pub struct TwoPhaseReport {
    /// Aggregators that received a (non-empty) file domain this round.
    pub aggregator_count: usize,
    /// This rank's file domain, when it served as an aggregator.
    pub domain: Option<ByteRange>,
    /// Bytes this rank put into redistribution: its request minus what it
    /// surrendered to higher ranks, including any part routed to itself.
    /// Summed over ranks this equals `bytes_written` summed over ranks.
    pub bytes_shipped: u64,
    /// Bytes this rank wrote to the servers as an aggregator (0 for pure
    /// compute ranks). Summed over ranks this equals the union coverage —
    /// each overlapped byte is written exactly once.
    pub bytes_written: u64,
    /// Contiguous write runs this rank issued (the "large writes"): maximal
    /// file-contiguous extents, however many received pieces make one up —
    /// runs, not pieces. Each leaves as one wire request per stripe row.
    pub write_runs: usize,
    /// Bytes of this rank's request that a higher rank also writes and
    /// that it therefore surrendered before shipping anything. Summed over
    /// ranks this is the overlap volume, Σ|F_r| − |∪F_r|, on any schedule.
    pub conflict_bytes: u64,
    /// Redistribution payload bytes this rank put on *intra-node* links
    /// (sender and receiver share a node; self-destined bytes count
    /// nowhere). Zero on the flat schedule with 1 rank per node.
    pub wire_intra_bytes: u64,
    /// Redistribution payload bytes this rank put on *inter-node* links —
    /// the traffic the multi-tier schedule exists to shrink.
    pub wire_inter_bytes: u64,
    /// Exchange rounds executed (1 on the flat schedule).
    pub rounds: usize,
    /// Server-write errors this rank absorbed under fault injection, on
    /// either schedule (the fault-aware slow path reports rather than
    /// panics; 0 when healthy).
    pub write_errors: usize,
}

/// Per-rank accounting of one two-phase collective read.
#[derive(Debug, Clone)]
pub struct TwoPhaseReadReport {
    pub aggregator_count: usize,
    /// Bytes this rank read from the servers as an aggregator.
    pub bytes_read_from_servers: u64,
    /// Contiguous read runs this rank issued.
    pub read_runs: usize,
}

/// The aggregate file extent of `footprints`; `None` when all are empty.
pub(crate) fn extent_of(footprints: &[StridedSet]) -> Option<ByteRange> {
    let spans = footprints.iter().filter_map(StridedSet::span);
    spans.reduce(|a, b| ByteRange::new(a.start.min(b.start), a.end.max(b.end)))
}

/// Every rank's footprint, in rank order, and the file domains cut from
/// their aggregate extent.
fn plan_domains(
    comm: &Comm,
    file: &PosixFile,
    segments: &[ViewSegment],
    cfg: &TwoPhaseConfig,
) -> (Vec<StridedSet>, Vec<FileDomain>) {
    // Phase 0: exchange flattened views, run-length-compressed. The
    // allgather's wire charge is the *compressed* encoding — O(trains) per
    // rank, not O(rows) — so the modeled §3.4 negotiation overhead scales
    // with the access description, exactly like the handshaking strategies.
    let footprint = StridedSet::from_sorted_extents(segments.iter().map(|s| (s.file_off, s.len)));
    let all = comm.allgather(footprint);
    let Some(extent) = extent_of(&all) else {
        return (all, Vec::new()); // nobody has data this round
    };
    let want = cfg
        .aggregators
        .unwrap_or_else(|| file.server_count().max(1));
    let aggregators = choose_aggregators(comm.size(), want, cfg.ranks_per_node);
    let domains = partition_domains(extent, &aggregators, file.stripe_unit());
    (all, domains)
}

/// The write step both schedules share: hand an aggregator's gathered
/// pieces to the file as they are and account them in `report`.
///
/// On a healthy file system they leave as one deferred batch
/// ([`PosixFile::pwrite_batch`]) whose ticket comes back for the caller to
/// retire behind its barrier. Under a fault plan nothing may stay in flight
/// across a crash/replay cycle and a dead server must surface as a report
/// entry, never a panic or a write through it: the pieces go through the
/// synchronous, retrying request path instead and there is no ticket.
pub(crate) fn submit_runs(
    file: &PosixFile,
    gathered: &Gathered<'_>,
    report: &mut TwoPhaseReport,
) -> Option<u64> {
    report.bytes_written += gathered.bytes;
    report.write_runs += gathered.runs;
    if gathered.writes.is_empty() {
        return None;
    }
    if file.faults_active() {
        if file.try_pwritev_direct(&gathered.writes).is_err() {
            report.write_errors += 1;
        }
        return None;
    }
    Some(file.pwrite_batch(&gathered.writes))
}

/// One collective, MPI-atomic write through two-phase redistribution.
///
/// All ranks of `comm` must call this together (it is built from
/// collectives and barriers). `segments` is this rank's request mapped
/// through its file view; `buf` holds the data, whose first byte is logical
/// stream offset `base`.
///
/// Issues **zero lock requests**: domains are disjoint by construction, so
/// the aggregators' writes cannot conflict, and overlapped user data was
/// already surrendered to the highest rank (paper §3.3.2) *before* the
/// exchange — every byte of the union is shipped and written exactly once.
pub fn two_phase_write(
    comm: &Comm,
    file: &PosixFile,
    segments: &[ViewSegment],
    buf: &[u8],
    base: u64,
    cfg: &TwoPhaseConfig,
) -> TwoPhaseReport {
    assert!(
        segments
            .windows(2)
            .all(|w| w[0].file_end() <= w[1].file_off),
        "two_phase_write needs ascending, non-overlapping segments (as FileView::segments yields)"
    );
    if let ExchangeSchedule::Pipelined {
        round_stripes,
        depth,
    } = cfg.schedule
    {
        return crate::staged::staged_write(
            comm,
            file,
            segments,
            buf,
            base,
            cfg,
            round_stripes,
            depth,
        );
    }
    let t0 = comm.clock().now();
    let (footprints, domains) = plan_domains(comm, file, segments, cfg);
    comm.tracer().span(
        Category::Exchange,
        "negotiate domains",
        t0,
        comm.clock().now(),
        &[("aggregators", domains.len() as u64)],
    );

    // Phase 1: redistribution. This rank first surrenders every byte a
    // higher rank also writes (the rank-ordering rule, on the footprints
    // the negotiation already gathered); what survives travels to the
    // aggregator owning its file domain, and the alltoallv charges virtual
    // time for exactly that volume.
    let t1 = comm.clock().now();
    let (pieces, conflict_bytes) = surrender(segments, &footprints, comm.rank());
    let outgoing = route_segments(comm.size(), &pieces, buf, base, &domains);
    let bytes_shipped: u64 = outgoing.iter().flatten().map(|(_, d)| d.len() as u64).sum();
    // Classify the shipped volume by link class (self-destined bytes never
    // touch a wire) so flat and pipelined runs compare on the same meter.
    let topo = NodeTopology::new(comm.size(), cfg.ranks_per_node.max(1));
    let (mut wire_intra, mut wire_inter) = (0u64, 0u64);
    for (dst, bucket) in outgoing.iter().enumerate() {
        if dst == comm.rank() {
            continue;
        }
        let n: u64 = bucket.iter().map(|(_, d)| d.len() as u64).sum();
        if topo.same_node(comm.rank(), dst) {
            wire_intra += n;
        } else {
            wire_inter += n;
        }
    }
    let stats = file.stats();
    stats.add(&stats.wire_intra_bytes, wire_intra);
    stats.add(&stats.wire_inter_bytes, wire_inter);
    let incoming = comm.alltoallv(outgoing);

    // Phase 2: aggregation. Nothing that arrives overlaps, so there is
    // nothing to resolve and nothing to stage: the received pieces are put
    // in file order by reference and leave from the buffers they came in.
    let gathered = gather(incoming.iter().flatten());
    comm.tracer().span(
        Category::Exchange,
        "exchange",
        t1,
        comm.clock().now(),
        &[("bytes", bytes_shipped)],
    );

    // Phase 3: large contiguous writes, one per covered run, streamed to the
    // servers a stripe row at a time. Every rank — aggregator or not — walks
    // the same submit/settle handshake so the deferred server timing stays
    // deterministic.
    let mut report = TwoPhaseReport {
        aggregator_count: domains.len(),
        domain: domains
            .iter()
            .find(|d| d.rank == comm.rank())
            .map(|d| d.range),
        bytes_shipped,
        conflict_bytes,
        wire_intra_bytes: wire_intra,
        wire_inter_bytes: wire_inter,
        rounds: 1,
        ..TwoPhaseReport::default()
    };
    let t2 = comm.clock().now();
    let ticket = submit_runs(file, &gathered, &mut report);
    comm.barrier();
    if let Some(ticket) = ticket {
        file.complete_writes(ticket);
    }
    comm.barrier();
    comm.tracer().span(
        Category::Exchange,
        "write phase",
        t2,
        comm.clock().now(),
        &[("bytes", report.bytes_written)],
    );
    report
}

/// One collective read through the aggregators: each aggregator fetches its
/// domain's requested coverage with large contiguous reads, then scatters
/// the pieces back to the requesting ranks.
///
/// `segments` must be ascending and non-overlapping in file offset — the
/// form [`FileView::segments`](atomio_dtype::FileView::segments) produces —
/// so that each returned piece maps back to exactly one segment.
pub fn two_phase_read(
    comm: &Comm,
    file: &PosixFile,
    segments: &[ViewSegment],
    buf: &mut [u8],
    base: u64,
    cfg: &TwoPhaseConfig,
) -> TwoPhaseReadReport {
    assert!(
        segments
            .windows(2)
            .all(|w| w[0].file_end() <= w[1].file_off),
        "two_phase_read needs ascending, non-overlapping segments (as FileView::segments yields)"
    );
    let t0 = comm.clock().now();
    let (_, domains) = plan_domains(comm, file, segments, cfg);
    comm.tracer().span(
        Category::Exchange,
        "negotiate domains",
        t0,
        comm.clock().now(),
        &[("aggregators", domains.len() as u64)],
    );
    let t1 = comm.clock().now();

    // Phase 1: ship (offset, len) requests to the owning aggregators.
    let mut requests: Vec<Vec<(u64, u64)>> = vec![Vec::new(); comm.size()];
    for seg in segments {
        let mut off = seg.file_off;
        let end = seg.file_end();
        while off < end {
            let Some(di) = domain_of(&domains, off) else {
                // Outside every domain: hop to the next domain boundary.
                match next_domain_start(&domains, off) {
                    Some(start) if start < end => {
                        off = start;
                        continue;
                    }
                    _ => break,
                }
            };
            let dom = &domains[di];
            let take = end.min(dom.range.end) - off;
            requests[dom.rank].push((off, take));
            off += take;
        }
    }
    let incoming_requests = comm.alltoallv(requests);

    // Phase 2: aggregators read the union of requested ranges in few large
    // accesses, then answer each request from the staged buffer.
    let mine = domains.iter().find(|d| d.rank == comm.rank());
    let mut report = TwoPhaseReadReport {
        aggregator_count: domains.len(),
        bytes_read_from_servers: 0,
        read_runs: 0,
    };
    let mut replies: Vec<Vec<Piece>> = vec![Vec::new(); comm.size()];
    if mine.is_some() {
        // Stage per covered run (not per domain extent — see the write path).
        let coverage =
            IntervalSet::from_extents(incoming_requests.iter().flatten().map(|&(o, l)| (o, l)));
        let mut staged: Vec<(ByteRange, Vec<u8>)> = coverage
            .iter()
            .map(|r| (*r, vec![0u8; r.len() as usize]))
            .collect();
        for (run, data) in staged.iter_mut() {
            file.pread_direct(run.start, data);
            report.bytes_read_from_servers += run.len();
            report.read_runs += 1;
        }
        for (src, reqs) in incoming_requests.iter().enumerate() {
            for &(off, len) in reqs {
                // A request is contiguous and part of the union, so it lies
                // inside exactly one coverage run.
                let ri = coverage.runs().partition_point(|r| r.end <= off);
                let (run, data) = &staged[ri];
                let rel = (off - run.start) as usize;
                replies[src].push((off, data[rel..rel + len as usize].to_vec()));
            }
        }
        comm.compute(
            file.profile()
                .cache
                .mem
                .copy_ns(report.bytes_read_from_servers),
        );
    }
    let incoming_data = comm.alltoallv(replies);
    comm.tracer().span(
        Category::Exchange,
        "read exchange",
        t1,
        comm.clock().now(),
        &[("bytes", report.bytes_read_from_servers)],
    );
    let t2 = comm.clock().now();

    // Phase 3: place received pieces into the user buffer via the segment
    // map (segments are ascending in file offset, pieces were split per
    // segment, so each piece lies inside exactly one segment).
    for bucket in &incoming_data {
        for (off, data) in bucket {
            let idx = segments.partition_point(|s| s.file_end() <= *off);
            let seg = segments
                .get(idx)
                .filter(|s| s.file_off <= *off && *off + data.len() as u64 <= s.file_end())
                .expect("returned piece must lie inside one requested segment");
            let rel = (seg.logical_off + (off - seg.file_off) - base) as usize;
            buf[rel..rel + data.len()].copy_from_slice(data);
        }
    }
    comm.barrier();
    comm.tracer()
        .span(Category::Exchange, "scatter", t2, comm.clock().now(), &[]);
    report
}

/// Start offset of the first domain beginning strictly after `off`, if any.
fn next_domain_start(domains: &[FileDomain], off: u64) -> Option<u64> {
    let idx = domains.partition_point(|d| d.range.start <= off);
    domains.get(idx).map(|d| d.range.start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_msg::run;
    use atomio_pfs::{FileSystem, PlatformProfile};

    /// Two ranks, overlapping contiguous views: [0, 150) and [100, 250).
    fn overlap_segments(rank: usize) -> Vec<ViewSegment> {
        match rank {
            0 => vec![ViewSegment {
                file_off: 0,
                logical_off: 0,
                len: 150,
            }],
            _ => vec![ViewSegment {
                file_off: 100,
                logical_off: 0,
                len: 150,
            }],
        }
    }

    #[test]
    fn overlap_is_surrendered_to_the_highest_rank_before_shipping() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let reports = run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "tp");
            let segs = overlap_segments(comm.rank());
            let buf = vec![(comm.rank() + 1) as u8; 150];
            two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default())
        });
        let snap = fs.snapshot("tp").unwrap();
        assert_eq!(snap.len(), 250);
        assert!(snap[..100].iter().all(|&b| b == 1), "rank 0 exclusive");
        assert!(
            snap[100..150].iter().all(|&b| b == 2),
            "overlap: rank 1 wins"
        );
        assert!(snap[150..].iter().all(|&b| b == 2), "rank 1 exclusive");
        // Each byte written once.
        let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
        assert_eq!(written, 250);
        // Rank 0 gave up the 50 overlapped bytes and shipped the rest; rank
        // 1 shipped its whole request.
        let per_rank: Vec<(u64, u64)> = reports
            .iter()
            .map(|r| (r.bytes_shipped, r.conflict_bytes))
            .collect();
        assert_eq!(per_rank, vec![(100, 50), (150, 0)]);
    }

    #[test]
    fn fully_surrendered_rank_ships_nothing_and_the_collective_completes() {
        // Rank 1's request lies inside rank 2's: every byte of it loses.
        let request = |rank: usize| -> (u64, u64) {
            match rank {
                0 => (0, 8192),
                1 => (6000, 4000),
                _ => (4096, 8192),
            }
        };
        for (name, schedule, ranks_per_node) in [
            ("gone_flat", ExchangeSchedule::Flat, 1),
            (
                "gone_pipe",
                ExchangeSchedule::Pipelined {
                    round_stripes: 1,
                    depth: 2,
                },
                2,
            ),
        ] {
            let fs = FileSystem::new(PlatformProfile::fast_test());
            let cfg = TwoPhaseConfig {
                aggregators: None,
                ranks_per_node,
                schedule,
            };
            let reports = run(3, fs.profile().net.clone(), |comm| {
                let file = fs.open(comm.rank(), comm.clock().clone(), name);
                let (file_off, len) = request(comm.rank());
                let segs = vec![ViewSegment {
                    file_off,
                    logical_off: 0,
                    len,
                }];
                let buf = vec![(comm.rank() + 1) as u8; len as usize];
                two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
            });
            assert_eq!(reports[1].bytes_shipped, 0, "{name}");
            assert_eq!(reports[1].conflict_bytes, 4000, "{name}");
            let snap = fs.snapshot(name).unwrap();
            assert_eq!(snap.len(), 12288, "{name}");
            assert!(snap[..4096].iter().all(|&b| b == 1), "{name}");
            assert!(snap[4096..].iter().all(|&b| b == 3), "{name}");
            let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
            assert_eq!(written, 12288, "{name}");
        }
    }

    #[test]
    fn alltoallv_is_charged_for_the_union_not_for_every_copy() {
        use atomio_trace::{MemorySink, TraceSink};
        use atomio_vtime::LinkCost;
        use std::sync::Arc;
        // Ranks 0..=2 all write [0, 64 KiB), rank 3 writes [64 KiB, 128 KiB):
        // ranks 0 and 1 surrender everything, so two senders are active and
        // the wire carries the union once. The four default aggregators own
        // 32 KiB each, so each sender ships two 32 KiB pieces.
        const LEN: u64 = 64 * 1024;
        let mut profile = PlatformProfile::fast_test();
        profile.net.link = LinkCost::new(5_000, 1.0e9);
        let link = profile.net.link.clone();
        let fs = FileSystem::new(profile);
        let sink = Arc::new(MemorySink::new());
        let reports = run(4, fs.profile().net.clone(), |comm| {
            comm.bind_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
            let file = fs.open(comm.rank(), comm.clock().clone(), "cost");
            let segs = vec![ViewSegment {
                file_off: (comm.rank() as u64 / 3) * LEN,
                logical_off: 0,
                len: LEN,
            }];
            let buf = vec![comm.rank() as u8; LEN as usize];
            two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default())
        });
        let shipped: Vec<u64> = reports.iter().map(|r| r.bytes_shipped).collect();
        assert_eq!(shipped, vec![0, 0, LEN, LEN]);
        // Headers, per active sender: its count vector (8), then per
        // non-empty bucket its length (8) and per piece its offset and byte
        // count (8 + 8).
        let headers = 2 * (8 + 2 * (8 + 16));
        let expected = link.collective_ns(2, 0) + link.payload_ns(headers + 2 * LEN);
        let exchanges: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter(|e| e.name == "alltoallv")
            .collect();
        assert_eq!(exchanges.len(), 4);
        for e in exchanges {
            assert_eq!(e.dur, Some(expected), "{e:?}");
        }
    }

    #[test]
    fn zero_lock_requests() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let stats = run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "locks");
            let segs = overlap_segments(comm.rank());
            let buf = vec![7u8; 150];
            two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default());
            file.stats().snapshot()
        });
        assert!(stats.iter().all(|s| s.lock_acquires == 0));
    }

    #[test]
    fn works_on_lockless_platform() {
        // The whole point: Cplant/ENFS has no locks, two-phase needs none.
        let fs = FileSystem::new(PlatformProfile::cplant());
        run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "enfs");
            let segs = overlap_segments(comm.rank());
            let buf = vec![(comm.rank() + 1) as u8; 150];
            two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default());
        });
        let snap = fs.snapshot("enfs").unwrap();
        assert!(snap[100..150].iter().all(|&b| b == 2));
    }

    #[test]
    fn aggregator_count_respects_config() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        for want in [1usize, 2, 4] {
            let name = format!("agg{want}");
            let cfg = TwoPhaseConfig {
                aggregators: Some(want),
                ..TwoPhaseConfig::default()
            };
            let reports = run(4, fs.profile().net.clone(), |comm| {
                let file = fs.open(comm.rank(), comm.clock().clone(), &name);
                // Disjoint 64 KiB block per rank: extent 256 KiB, enough
                // stripes for every aggregator to get a domain.
                let segs = vec![ViewSegment {
                    file_off: comm.rank() as u64 * 65_536,
                    logical_off: 0,
                    len: 65_536,
                }];
                let buf = vec![1u8; 65_536];
                two_phase_write(&comm, &file, &segs, &buf, 0, &cfg)
            });
            assert!(
                reports.iter().all(|r| r.aggregator_count == want),
                "want {want}"
            );
            let writers = reports.iter().filter(|r| r.bytes_written > 0).count();
            assert_eq!(writers, want);
        }
    }

    #[test]
    fn sparse_view_over_huge_extent_stages_only_covered_bytes() {
        // Two 1-byte writes a terabyte apart: the aggregate extent is ~1 TiB
        // but staging is per covered run, so this must complete instantly
        // without attempting domain-sized allocations.
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let reports = run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "sparse");
            let segs = vec![ViewSegment {
                file_off: comm.rank() as u64 * (1u64 << 40),
                logical_off: 0,
                len: 1,
            }];
            let buf = vec![(comm.rank() + 1) as u8; 1];
            two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default())
        });
        let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
        assert_eq!(written, 2);
        assert!(reports.iter().all(|r| r.conflict_bytes == 0));
    }

    #[test]
    fn empty_request_everywhere_is_a_clean_noop() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let reports = run(3, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "empty");
            two_phase_write(&comm, &file, &[], &[], 0, &TwoPhaseConfig::default())
        });
        assert!(reports
            .iter()
            .all(|r| r.aggregator_count == 0 && r.bytes_written == 0));
    }

    #[test]
    fn single_rank_roundtrip_write_then_read() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let out = run(1, fs.profile().net.clone(), |comm| {
            let file = fs.open(0, comm.clock().clone(), "rt");
            let segs = vec![
                ViewSegment {
                    file_off: 10,
                    logical_off: 0,
                    len: 20,
                },
                ViewSegment {
                    file_off: 50,
                    logical_off: 20,
                    len: 20,
                },
            ];
            let data: Vec<u8> = (0..40).collect();
            two_phase_write(&comm, &file, &segs, &data, 0, &TwoPhaseConfig::default());
            let mut back = vec![0u8; 40];
            two_phase_read(
                &comm,
                &file,
                &segs,
                &mut back,
                0,
                &TwoPhaseConfig::default(),
            );
            (data, back)
        });
        let (data, back) = &out[0];
        assert_eq!(data, back);
    }

    #[test]
    fn collective_read_scatters_to_all_ranks() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        // Seed the file: byte at offset o is o % 251.
        {
            let f = fs.open(0, atomio_vtime::Clock::new(), "scatter");
            let data: Vec<u8> = (0..300u64).map(|o| (o % 251) as u8).collect();
            f.pwrite_direct(0, &data);
        }
        let out = run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "scatter");
            let segs = overlap_segments(comm.rank());
            let mut buf = vec![0u8; 150];
            let rep = two_phase_read(&comm, &file, &segs, &mut buf, 0, &TwoPhaseConfig::default());
            (buf, rep)
        });
        for (rank, (buf, _)) in out.iter().enumerate() {
            let start = if rank == 0 { 0u64 } else { 100 };
            for (i, &b) in buf.iter().enumerate() {
                assert_eq!(b, ((start + i as u64) % 251) as u8, "rank {rank} byte {i}");
            }
        }
        // Reads were aggregated: each aggregator read contiguous runs.
        let total_runs: usize = out.iter().map(|(_, r)| r.read_runs).sum();
        assert!(total_runs <= fs.profile().sim_servers.max(2));
    }

    #[test]
    fn virtual_time_advances_with_shipped_volume() {
        // Doubling the data volume must cost more virtual time.
        let time_for = |n: u64| {
            let fs = FileSystem::new(PlatformProfile::ibm_sp());
            let out = run(2, fs.profile().net.clone(), move |comm| {
                let file = fs.open(comm.rank(), comm.clock().clone(), "t");
                let segs = vec![ViewSegment {
                    file_off: comm.rank() as u64 * n,
                    logical_off: 0,
                    len: n,
                }];
                let buf = vec![1u8; n as usize];
                two_phase_write(&comm, &file, &segs, &buf, 0, &TwoPhaseConfig::default());
                comm.clock().now()
            });
            out.into_iter().max().unwrap()
        };
        assert!(time_for(1 << 22) > time_for(1 << 16));
    }
}
