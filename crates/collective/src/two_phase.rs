//! The two-phase configuration, reports and domain cut; the entry points
//! and the one round loop they share live in the `staged` module.

use atomio_interval::{ByteRange, StridedSet};
use atomio_pfs::{FsError, PosixFile};
use atomio_vtime::NodeTopology;

use crate::domain::choose_aggregators;
use crate::domain::{own_by_locality, partition_domains, FileDomain};

/// How the redistribution phase is scheduled across the node topology, in
/// either direction. Both schedules are the same round loop, write
/// byte-identical files and read the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeSchedule {
    /// Classic single-tier two-phase, the degenerate schedule of the loop:
    /// every rank is its own leader on the world communicator and each
    /// file domain is one round, so there is one flat `alltoallv` over all
    /// P ranks. An aggregator's own pieces are written while it runs, the
    /// received ones after it, and both retire behind one barrier.
    Flat,
    /// Multi-tier: each node's ranks first funnel their pieces to the node
    /// leader over the cheap intra-node link, only the leaders run the
    /// inter-node exchange, and the whole redistribution is cut into
    /// stripe-aligned *rounds* whose aggregator writes stay in flight
    /// behind the following rounds' exchanges.
    Pipelined {
        /// Stripe units *per server* per round (`0` means the default of
        /// 4): a round is `round_stripes` stripe rows of each domain, so
        /// every server gets `round_stripes` units of each aggregator's
        /// domain as one request. Smaller rounds pipeline more finely but
        /// pay more per-round collectives and more server `per_op`s.
        round_stripes: u32,
        /// Write-behind depth: rounds of server writes in flight after a
        /// submit. Round `k - depth` retires when round `k`'s exchange
        /// returns — that rendezvous proves every leader has deposited its
        /// earlier rounds, so no barrier is needed. `1` keeps one round in
        /// flight, `2` double-buffers, `0` means unbounded (retire
        /// everything at the end). A read ignores it: a closed-loop read
        /// cannot overlap a later round, so its rounds run one by one.
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
    ///
    /// The count — and through `choose_aggregators` the count per node —
    /// is all this fixes. Which ranks serve, and which domain each gets,
    /// follows the footprints of the call: a domain goes to the candidate
    /// already holding the most of it, in rank order when nobody holds
    /// more than the rank-order owner does.
    pub aggregators: Option<usize>,
    /// Ranks per node, for node-aware aggregator placement (Kang et al.).
    /// With the threads-as-ranks runtime this is a modeling input; 1 means
    /// every rank is its own node and aggregators are simply ranks `0..A`.
    pub ranks_per_node: usize,
    /// Redistribution schedule of both directions; see [`ExchangeSchedule`].
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
    /// This rank's file domain, when it served as an aggregator — the one
    /// it already held the most of, not the one its rank order would give
    /// it. Every rank computes (or, below a node leader, is told) the same
    /// owner map, so the `domain`s of one call are disjoint and tile the
    /// aggregate extent.
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
    /// runs, not pieces. A run inside one batch is one extent: it pays one
    /// `per_op` on each server it touches while it streams by stripe row.
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
    /// the traffic the multi-tier schedule and ownership by locality exist
    /// to shrink: a piece whose holder (flat) or whose holder's node leader
    /// (pipelined) owns its domain is self-addressed at the exchange and
    /// counts on neither meter.
    pub wire_inter_bytes: u64,
    /// Exchange rounds executed (1 on the flat schedule; 0 when no rank had
    /// anything to write).
    pub rounds: usize,
    /// Server-write errors this rank absorbed under fault injection, on
    /// either schedule (the fault-aware slow path reports rather than
    /// panics; 0 when healthy).
    pub write_errors: usize,
    /// The first of those errors, for callers that return a typed one.
    pub first_error: Option<FsError>,
}

/// Per-rank accounting of one two-phase collective read.
#[derive(Debug, Clone, Default)]
pub struct TwoPhaseReadReport {
    /// Aggregators that received a (non-empty) file domain.
    pub aggregator_count: usize,
    /// Bytes this rank read from the servers as an aggregator.
    pub bytes_read_from_servers: u64,
    /// Contiguous read runs this rank issued.
    pub read_runs: usize,
    /// Runs this rank failed to read as an aggregator under fault
    /// injection (0 when healthy). Every reply cut from a failed run
    /// carries its error, so the collective still completes.
    pub read_errors: usize,
    /// The first error behind bytes this rank reads, whichever
    /// aggregator's run it came from — the error the caller returns.
    pub first_error: Option<FsError>,
}

/// The aggregate file extent of `footprints`; `None` when all are empty.
pub(crate) fn extent_of(footprints: &[StridedSet]) -> Option<ByteRange> {
    let spans = footprints.iter().filter_map(StridedSet::span);
    spans.reduce(|a, b| ByteRange::new(a.start.min(b.start), a.end.max(b.end)))
}

/// What decides which aggregator owns which file domain.
#[derive(Debug)]
pub(crate) enum Owners {
    /// The bytes each candidate already holds — candidate `i` is rank
    /// `i * stride` of the caller's communicator: the rule is applied here.
    Held {
        held: Vec<StridedSet>,
        stride: usize,
    },
    /// The owners a node leader chose by that rule, in file order.
    Chosen(Vec<usize>),
}

/// Cut `extent` into one stripe-aligned file domain per aggregator: as many
/// aggregators as `cfg` asks for (default: one per I/O server), at most
/// `cap`, placed node-aware — and then give each domain to the aggregator
/// candidate that already holds the most of it
/// ([`own_by_locality`]; rank order when holdings are uniform).
pub(crate) fn cut_domains(
    nprocs: usize,
    file: &PosixFile,
    cfg: &TwoPhaseConfig,
    extent: ByteRange,
    cap: usize,
    owners: &Owners,
) -> Vec<FileDomain> {
    let want = cfg
        .aggregators
        .unwrap_or_else(|| file.server_count().max(1))
        .clamp(1, cap);
    let aggregators = choose_aggregators(nprocs, want, cfg.ranks_per_node);
    let mut domains = partition_domains(extent, &aggregators, file.stripe_unit());
    match owners {
        Owners::Held { held, stride } => {
            let topo = NodeTopology::new(nprocs, cfg.ranks_per_node.max(1));
            own_by_locality(&mut domains, &aggregators, held, *stride, &topo);
        }
        Owners::Chosen(ranks) => {
            assert_eq!(ranks.len(), domains.len(), "one chosen owner per domain");
            for (dom, &rank) in domains.iter_mut().zip(ranks) {
                dom.rank = rank;
            }
        }
    }
    domains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::{two_phase_read, two_phase_write};
    use atomio_dtype::ViewSegment;
    use atomio_msg::run;
    use atomio_pfs::{FileSystem, IoPath, PlatformProfile};

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
        let snap = fs.snapshot("tp").unwrap().to_vec();
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
            let snap = fs.snapshot(name).unwrap().to_vec();
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
        // the wire carries the union at most once. The four default
        // aggregators own 32 KiB each, so each sender holds two whole
        // domains and serves one of them itself.
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
        // Ownership by locality: rank 3 keeps its own fourth domain (equal
        // weights prefer the arriving owner), rank 2 takes the first, and
        // the two domains left over go to the spare aggregators 0 and 1. So
        // each sender hands one 32 KiB piece to itself — no wire — and ships
        // the other: rank 2 to rank 0 and rank 3 to rank 1, side by side on
        // a switched fabric. The busiest endpoint moves one bucket: the
        // sender's count vector (8), the bucket's length (8), the piece's
        // offset and byte count (8 + 8), the piece.
        let owners: Vec<Option<ByteRange>> = reports.iter().map(|r| r.domain).collect();
        let domain = |i: u64| Some(ByteRange::at(i * (LEN / 2), LEN / 2));
        assert_eq!(owners, vec![domain(1), domain(2), domain(0), domain(3)]);
        let bucket = 8 + 8 + 16 + LEN / 2;
        let expected = link.collective_ns(2, 0) + link.payload_ns(bucket);
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
    fn a_failed_aggregator_run_is_answered_with_its_error_and_later_runs_are_read() {
        use atomio_pfs::{FaultAction, FaultPlan, FaultSite, RestartPolicy};
        use atomio_vtime::Clock;
        // One aggregator reads two runs: rank 0's [0, 512) on server 0,
        // which crashes on its first request for good, then rank 1's
        // [4096, 4608) on server 1.
        let plan = FaultPlan::none().with(
            FaultSite::ServerRequest { server: 0 },
            1,
            FaultAction::CrashServer {
                restart: RestartPolicy::Manual,
            },
        );
        let fs = FileSystem::with_faults(PlatformProfile::fast_test(), plan);
        let seed = fs.open(0, Clock::new(), "rd");
        seed.write(IoPath::Direct, [(4096, &[7u8; 512])]).unwrap();
        let cfg = TwoPhaseConfig {
            aggregators: Some(1),
            ..TwoPhaseConfig::default()
        };
        // `run` returns once every rank has.
        let outcomes = run(2, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "rd");
            let segs = vec![ViewSegment {
                file_off: comm.rank() as u64 * 4096,
                logical_off: 0,
                len: 512,
            }];
            let mut buf = vec![0u8; 512];
            let report = two_phase_read(&comm, &file, &segs, &mut buf, 0, &cfg);
            (report, buf)
        });
        let aggregator: Vec<&TwoPhaseReadReport> = outcomes
            .iter()
            .map(|(r, _)| r)
            .filter(|r| r.read_runs > 0)
            .collect();
        let [agg] = aggregator[..] else {
            panic!("one aggregator: {outcomes:?}")
        };
        assert_eq!((agg.read_runs, agg.read_errors), (2, 1));
        assert_eq!(agg.bytes_read_from_servers, 512);
        let (failed, lost) = &outcomes[0];
        assert!(matches!(
            failed.first_error,
            Some(FsError::RetriesExhausted { server: 0, .. })
        ));
        assert_eq!(lost, &vec![0u8; 512]);
        let (healthy, read) = &outcomes[1];
        assert!(healthy.first_error.is_none());
        assert_eq!(read, &vec![7u8; 512]);
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
        let snap = fs.snapshot("enfs").unwrap().to_vec();
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
                // Touches its predecessor in the file and continues it in
                // the stream: one run, one reply spanning both segments.
                ViewSegment {
                    file_off: 70,
                    logical_off: 40,
                    len: 10,
                },
            ];
            let data: Vec<u8> = (0..50).collect();
            two_phase_write(&comm, &file, &segs, &data, 0, &TwoPhaseConfig::default());
            let mut back = vec![0u8; 50];
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
    fn roundtrip_under_an_owner_map_that_follows_the_footprints() {
        // 16 stripe units, four 4-unit domains. Rank 3 asks for all of
        // domain 0 plus unit 12; ranks 0..=2 for units 13..=15. Domain 0
        // goes to rank 3, the last domain — rank 3 arrived with it but is
        // taken — to rank 0, and the two nobody touches to the spare
        // aggregators: owners (3, 1, 2, 0), on the write and on the read.
        const UNIT: u64 = 4096;
        let segments = |rank: usize| -> Vec<ViewSegment> {
            let own = ViewSegment {
                file_off: (12 + (rank as u64 + 1) % 4) * UNIT,
                logical_off: 0,
                len: UNIT,
            };
            let domain0 = ViewSegment {
                file_off: 0,
                logical_off: 0,
                len: 4 * UNIT,
            };
            match rank {
                3 => vec![
                    domain0,
                    ViewSegment {
                        logical_off: 4 * UNIT,
                        ..own
                    },
                ],
                _ => vec![own],
            }
        };
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let out = run(4, fs.profile().net.clone(), |comm| {
            let file = fs.open(comm.rank(), comm.clock().clone(), "owners");
            let segs = segments(comm.rank());
            let len: u64 = segs.iter().map(|s| s.len).sum();
            let data: Vec<u8> = (0..len)
                .map(|i| (i % 249) as u8 + comm.rank() as u8)
                .collect();
            let cfg = TwoPhaseConfig::default();
            let wrote = two_phase_write(&comm, &file, &segs, &data, 0, &cfg);
            let mut back = vec![0u8; len as usize];
            let read = two_phase_read(&comm, &file, &segs, &mut back, 0, &cfg);
            assert_eq!(back, data, "rank {}", comm.rank());
            (wrote, read)
        });
        let domain = |i: u64| Some(ByteRange::at(i * 4 * UNIT, 4 * UNIT));
        let owned: Vec<Option<ByteRange>> = out.iter().map(|o| o.0.domain).collect();
        assert_eq!(owned, vec![domain(3), domain(1), domain(2), domain(0)]);
        // The read's owners follow what was asked for in the same way:
        // rank 3 reads domain 0, rank 0 the four requested units of the
        // last domain, and nobody asked for anything in between.
        let read: Vec<u64> = out.iter().map(|o| o.1.bytes_read_from_servers).collect();
        assert_eq!(read, vec![4 * UNIT, 0, 0, 4 * UNIT]);
    }

    #[test]
    fn collective_read_scatters_to_all_ranks() {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        // Seed the file: byte at offset o is o % 251.
        {
            let f = fs.open(0, atomio_vtime::Clock::new(), "scatter");
            let data: Vec<u8> = (0..300u64).map(|o| (o % 251) as u8).collect();
            f.write(IoPath::Direct, [(0, &data)]).unwrap();
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
