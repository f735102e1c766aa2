//! Aggregation bench: the flat single-tier `alltoallv` redistribution vs
//! the **multi-tier, pipelined** exchange schedules of
//! [`ExchangeSchedule::Pipelined`] on a shared-header checkpoint workload
//! with heavy cross-node overlap: every rank rewrites the file's common
//! header region (application metadata all ranks agree on) and then its
//! own private block. The header is where MPI atomicity matters — P
//! overlapping copies, highest rank must win every byte. Every schedule
//! applies the paper's surrender rule before shipping, so only the highest
//! rank's copy of the header ever enters the exchange.
//!
//! Three schedule points per P:
//!
//! * **flat** — the single-round exchange of `ExchangeSchedule::Flat`:
//!   one world-sized `alltoallv`, with each aggregator's own pieces
//!   written while it runs and the received ones after it;
//! * **tiered** — `Pipelined { depth: 1 }`: node leaders coalesce their
//!   node's requests over the intra-node links before the leaders-only
//!   exchange, and one round of file writes stays in flight behind each
//!   exchange;
//! * **pipelined** — `Pipelined { depth: 2 }`: the same multi-tier
//!   exchange, double-buffered — round `k-2`'s aggregator writes retire on
//!   the return of round `k`'s exchange, with no barrier in between.
//!
//! The platform is the test profile with ranks packed 16 to a node
//! (smoke: 4) and the network re-balanced so an exchange of the whole
//! request volume and the file writes cost the same order of virtual time.
//!
//! Run with `cargo run --release -p atomio-bench --bin artifacts -- --write
//! aggregation aggregation_smoke` (`BENCH_aggregation.json` and its smoke
//! golden, both compared by `--check`). Asserted in every mode at every P:
//! byte-identical files, the footprint union shipped and written once
//! (`bytes_shipped == bytes_written`),
//! `conflict_bytes == (P - 1) * header`, and no link class carrying more
//! than `bytes_shipped` (flat: intra and inter together; a piece its
//! holder serves itself rides no wire). The full-scale acceptance adds, at
//! every P, `makespan(pipelined) <= makespan(flat)` and more pipelined
//! rounds than its write-behind depth, so a round retires on a later
//! round's exchange (the one-round smoke geometry is exempt). After its
//! write, every run reads each rank's footprint back through
//! `two_phase_read` under the same schedule and asserts the final image's
//! bytes (the header as the highest rank wrote it) and the union read from
//! the servers exactly once; its `read_back` counters are gated with the
//! rest. The trace records the pipelined run, read-back included, at the
//! smallest P, for the happens-before check.

use std::sync::Arc;

use crate::{counters, makespan, object, ratio, run_traced, Artifact, Scale, Value};
use atomio_collective::{
    two_phase_read, two_phase_write, ExchangeSchedule, TwoPhaseConfig, TwoPhaseReadReport,
    TwoPhaseReport,
};
use atomio_dtype::ViewSegment;
use atomio_pfs::{FileSystem, PlatformProfile, Snapshot};
use atomio_trace::{MemorySink, TraceSink, Track};
use atomio_vtime::{LinkCost, VNanos};
use atomio_workloads::pattern;

/// One exchange-schedule point of the comparison.
#[derive(Debug, Clone, Copy)]
struct Mode {
    key: &'static str,
    schedule: ExchangeSchedule,
}

#[rustfmt::skip]
const MODES: [Mode; 3] = [
    Mode { key: "flat", schedule: ExchangeSchedule::Flat },
    Mode { key: "tiered", schedule: ExchangeSchedule::Pipelined { round_stripes: 4, depth: 1 } },
    Mode { key: "pipelined", schedule: ExchangeSchedule::Pipelined { round_stripes: 4, depth: 2 } },
];

counters! {
    /// Aggregate counters of one whole run (all ranks).
    struct Totals {
        makespan_ns: VNanos,
        bytes_shipped: u64,
        bytes_written: u64,
        wire_intra_bytes: u64,
        wire_inter_bytes: u64,
        conflict_bytes: u64,
        rounds: usize,
        write_runs: usize,
    }
}

counters! {
    /// The byte-checked read-back of one run (all ranks). Counts only: its
    /// aggregators read closed-loop, and the servers book concurrent
    /// closed-loop requests in host arrival order, so its makespan is not
    /// reproducible run to run.
    struct ReadBack {
        bytes_checked: u64,
        bytes_read_from_servers: u64,
        read_runs: usize,
    }
}

/// The comparison platform: the test profile with the network re-balanced
/// so shipping the whole request volume and the aggregators' file writes
/// are the same order of magnitude (inter-node fabric at 2 GB/s against
/// 4 servers x 1 GB/s), with shared-memory-class intra-node links.
fn bench_profile() -> PlatformProfile {
    let mut p = PlatformProfile::fast_test();
    p.net.link = LinkCost::new(5_000, 2.0e9);
    p.net.intra_link = LinkCost::new(100, 32.0e9);
    p
}

/// Every rank writes the shared `[0, header)` region plus its private
/// block at `header + rank * block`.
fn segments_of(rank: usize, header: u64, block: u64) -> Vec<ViewSegment> {
    vec![
        ViewSegment {
            file_off: 0,
            logical_off: 0,
            len: header,
        },
        ViewSegment {
            file_off: header + rank as u64 * block,
            logical_off: header,
            len: block,
        },
    ]
}

/// Run the shared-header workload under one schedule, `p` ranks packed
/// `ranks_per_node` to a node, then read every rank's footprint back under
/// the same schedule; returns the totals, the read-back's counters and the
/// final file bytes.
fn run_mode(
    (header, block): (u64, u64),
    ranks_per_node: usize,
    p: usize,
    mode: Mode,
    name: &str,
    sink: Option<&Arc<MemorySink>>,
) -> (Totals, ReadBack, Snapshot) {
    let fs = FileSystem::new(bench_profile());
    type Out = (VNanos, VNanos, TwoPhaseReport, TwoPhaseReadReport);
    let out: Vec<Out> = run_traced(p, &fs, sink, |comm| {
        let file = fs.open(comm.rank(), comm.clock().clone(), name);
        if let Some(s) = sink {
            let s = Arc::clone(s) as Arc<dyn TraceSink>;
            file.tracer().bind(Track::Rank(comm.rank()), s);
        }
        let segs = segments_of(comm.rank(), header, block);
        // The segments tile the buffer in order: each byte is its rank's
        // stamp at its file offset.
        let pat = pattern::rank_stamp(comm.rank());
        let buf: Vec<u8> = segs
            .iter()
            .flat_map(|s| (s.file_off..s.file_off + s.len).map(&pat))
            .collect();
        let tp = TwoPhaseConfig {
            aggregators: None,
            ranks_per_node,
            schedule: mode.schedule,
        };
        comm.barrier();
        let start = comm.clock().now();
        let report = two_phase_write(&comm, &file, &segs, &buf, 0, &tp);
        let end = comm.clock().now();
        // The header holds the highest rank's stamp, the block this rank's.
        let winner = pattern::rank_stamp(p - 1);
        let image = |o: u64| if o < header { winner(o) } else { pat(o) };
        let expected: Vec<u8> = segs
            .iter()
            .flat_map(|s| (s.file_off..s.file_off + s.len).map(image))
            .collect();
        let mut back = vec![0u8; expected.len()];
        let read = two_phase_read(&comm, &file, &segs, &mut back, 0, &tp);
        assert!(
            back == expected,
            "{name}: rank {} read back other bytes",
            comm.rank()
        );
        (start, end, report, read)
    });
    let mut t = Totals {
        makespan_ns: makespan(out.iter().map(|(s, e, ..)| (*s, *e))),
        ..Totals::default()
    };
    let mut rb = ReadBack::default();
    for (_, _, _, r) in &out {
        rb.bytes_checked += header + block;
        rb.bytes_read_from_servers += r.bytes_read_from_servers;
        rb.read_runs += r.read_runs;
        assert_eq!(
            r.read_errors, 0,
            "{name}: fault-free read-back reported errors"
        );
    }
    assert_eq!(
        rb.bytes_read_from_servers,
        header + p as u64 * block,
        "{name}: the read-back must read the footprint union from the servers once"
    );
    for (_, _, r, _) in &out {
        t.bytes_shipped += r.bytes_shipped;
        t.bytes_written += r.bytes_written;
        t.wire_intra_bytes += r.wire_intra_bytes;
        t.wire_inter_bytes += r.wire_inter_bytes;
        t.conflict_bytes += r.conflict_bytes;
        t.rounds = t.rounds.max(r.rounds);
        t.write_runs += r.write_runs;
        assert_eq!(r.write_errors, 0, "{name}: fault-free run reported errors");
    }
    // The union is shipped and written exactly once, whatever the
    // schedule, and what the ranks surrendered is the overlap volume.
    assert_eq!(
        t.bytes_written,
        header + p as u64 * block,
        "{name}: bytes written must equal the footprint union"
    );
    assert_eq!(
        t.bytes_shipped, t.bytes_written,
        "{name}: a surrendered byte was shipped"
    );
    assert_eq!(
        t.conflict_bytes,
        (p as u64 - 1) * header,
        "{name}: surrendered bytes must equal the header overlap"
    );
    // A shipped byte rides each link class at most once — on the one-tier
    // flat schedule one link in all; the multi-tier modes funnel it to its
    // leader first and may then send it across — and a piece its holder
    // serves itself rides none.
    let hops = match mode.schedule {
        ExchangeSchedule::Flat => t.wire_intra_bytes + t.wire_inter_bytes,
        ExchangeSchedule::Pipelined { .. } => t.wire_intra_bytes.max(t.wire_inter_bytes),
    };
    assert!(
        hops <= t.bytes_shipped,
        "{name}: {} intra and {} inter wire bytes for {} shipped",
        t.wire_intra_bytes,
        t.wire_inter_bytes,
        t.bytes_shipped
    );
    let snap = fs.snapshot(name).expect("file written");
    (t, rb, snap)
}

/// The totals `key`'s mode produced in one panel.
fn totals_of(row: &[(Mode, Totals, ReadBack)], key: &str) -> Totals {
    let mode = row.iter().find(|(m, ..)| m.key == key);
    mode.expect("every mode runs in every panel").1
}

/// The aggregation scenario at `scale`, its pipelined run at the smallest
/// P recording into `trace`.
pub(crate) fn aggregation(scale: Scale, trace: Option<&Arc<MemorySink>>) -> Artifact {
    let smoke = scale == Scale::Smoke;
    let (header, block, ranks_per_node, procs) = if smoke {
        (16 * 1024, 8 * 1024, 4, vec![8])
    } else {
        (64 * 1024, 16 * 1024, 16, vec![64, 256, 1024])
    };

    type Panel = (usize, Vec<(Mode, Totals, ReadBack)>);
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &procs {
        let mut row = Vec::new();
        let mut reference: Option<Snapshot> = None;
        for mode in MODES {
            let name = format!("agg-{p}-{}", mode.key);
            let traced = mode.key == "pipelined" && p == procs[0];
            let sink = trace.filter(|_| traced);
            let (t, rb, snap) = run_mode((header, block), ranks_per_node, p, mode, &name, sink);
            // All three schedules surrender to the highest rank: the
            // scenario doubles as an equivalence check.
            let first = reference.get_or_insert_with(|| snap.clone());
            assert_eq!(
                first, &snap,
                "{name}: contents differ from the flat schedule"
            );
            row.push((mode, t, rb));
        }
        panels.push((p, row));
    }

    let mut artifact = Artifact::new("aggregation");
    artifact
        .field(
            "workload",
            "shared-header checkpoint: every rank atomically rewrites the common file header (P \
             overlapping copies, highest rank wins) plus its private block, via two-phase \
             collective I/O",
        )
        .field(
            "geometry",
            object! {
                "header_bytes": header,
                "block_bytes": block,
                "ranks_per_node": ranks_per_node,
                "smoke": smoke,
            },
        )
        .field(
            "modes",
            object! {
                "flat": "single-tier world alltoallv, monolithic exchange then write",
                "tiered": "intra-node aggregation + leaders-only exchange, one round of writes \
                           in flight (depth 1)",
                "pipelined": "multi-tier exchange, double-buffered rounds (depth 2): round \
                              k-2's writes retire when round k's exchange returns",
            },
        )
        .field(
            "note",
            "wire_inter_bytes counts payload crossing the node-to-node fabric; \
             wire_intra_bytes counts payload on the shared-memory links. Every rank surrenders \
             the bytes a higher rank overwrites before anything is shipped, so in every mode \
             bytes_shipped equals bytes_written and conflict_bytes is the overlap volume; each \
             file domain goes to the aggregator candidate already holding the most of it (flat: \
             any rank, by its own surviving bytes; multi-tier: a node leader, by what its node \
             keeps of its union), and a piece its holder serves itself counts on no wire, so \
             the modes differ in wire bytes. Every collective is priced on a switched fabric \
             and ends at its busiest endpoint per link class, each byte on the class it is \
             metered on: flat's single alltoallv pays each aggregator's receive, at intra-node \
             rates from its node-mates, while the multi-tier modes pay one gatherv and one \
             leaders' alltoallv per round and retire each round's writes on a later round's \
             exchange instead of a barrier",
        );
    // What a mode gains on flat: fabric bytes kept off the wire, makespan.
    let vs_flat = |flat: &Totals, t: &Totals| {
        (
            Value::fixed(ratio(flat.wire_inter_bytes, t.wire_inter_bytes), 2),
            Value::fixed(ratio(flat.makespan_ns, t.makespan_ns), 2),
        )
    };
    for (p, row) in &panels {
        let flat = totals_of(row, "flat");
        let modes = row.iter().map(|(mode, t, rb)| {
            let (inter_reduction, speedup) = vs_flat(&flat, t);
            let point = object! {
                "totals": t,
                "inter_byte_reduction": inter_reduction,
                "makespan_speedup": speedup,
                "read_back": rb,
            };
            (mode.key, point)
        });
        artifact.panel(object! {"p": *p}, modes);
    }

    // Acceptance: `run_mode` asserted union-once shipping and the overlap
    // volume in every mode at every P and the panel loop the byte identity;
    // at full scale the pipelined schedule must also be no slower than flat
    // at every P, with more rounds than its write-behind depth, so a round
    // retires on a later round's exchange.
    let pass = panels.iter().all(|(_, row)| {
        let (flat, pipe) = (totals_of(row, "flat"), totals_of(row, "pipelined"));
        let retires = row
            .iter()
            .all(|(mode, t, _)| match (mode.key, mode.schedule) {
                ("pipelined", ExchangeSchedule::Pipelined { depth, .. }) => {
                    t.rounds > depth as usize
                }
                _ => true,
            });
        pipe.makespan_ns <= flat.makespan_ns && retires
    });
    let acceptance = panels.iter().find(|(p, _)| *p == 256 && !smoke);
    artifact.acceptance(
        "P=256",
        acceptance.map(|(p, row)| {
            let pipe = totals_of(row, "pipelined");
            let (inter_reduction, speedup) = vs_flat(&totals_of(row, "flat"), &pipe);
            object! {
                "p": *p,
                "metric": "byte identity across the three modes; bytes_shipped == \
                           bytes_written, conflict_bytes == (P - 1) * header and no link class \
                           carrying more than bytes_shipped (flat: both together) in every mode \
                           at every P; makespan(pipelined) <= makespan(flat) at every P",
                "byte_identical": true,
                "shipped_equals_written": true,
                "read_back_identical": true,
                "conflict_bytes": pipe.conflict_bytes,
                "inter_byte_reduction": inter_reduction,
                "makespan_speedup": speedup,
                "pass": pass,
            }
        }),
    );
    artifact
}
