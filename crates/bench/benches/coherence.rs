//! Cache-coherence bench: Bypass vs CloseToOpen vs LockDriven on the
//! reader-writer workloads ([`ReaderWriter`]) under GPFS-style tokens.
//!
//! Three data paths for atomic `Strategy::FileLocking(Exact)` I/O:
//!
//! * **bypass** — `IoPath::Direct`: ROMIO behaviour, every access goes to
//!   the servers ("while a file region is locked, all read/write requests
//!   to it will directly go to the file server");
//! * **close_to_open** — `IoPath::Cached` with blanket coherence: every
//!   atomic access is bracketed by `sync` + full-cache `invalidate` (§3),
//!   so warm bytes are thrown away before they can be re-used;
//! * **lock_driven** — `IoPath::Cached` under
//!   `CoherenceMode::LockDriven`: a held token confers cache-validity
//!   rights, conflicting acquisitions revoke (flushing + invalidating
//!   exactly the contested ranges), re-reads hit warm pages, and no
//!   blanket invalidation ever runs.
//!
//! Two panels per process count: **checkpoint-then-reread** (conflict-free
//! re-reads — the cache-friendliness axis) and **producer-consumer**
//! (token ping-pong every round — the revocation-correctness axis; every
//! read asserts the exact current-round stamp, so a stale byte fails the
//! run).
//!
//! Emits `BENCH_coherence.json`. Acceptance (full geometry, P = 8,
//! checkpoint-then-reread): lock-driven cached atomic I/O must issue
//! **≥ 5× fewer server read requests** than the direct bypass path
//! (compared as counts, `lock_driven × 5 ≤ bypass`, so a mode that issues
//! none passes without a quotient), with byte-identical, checker-verified
//! file contents across all three modes and zero stale reads observed
//! anywhere.
//!
//! **Cost model for revocation flushes:** a revocation-triggered flush is
//! a first-class write. Its bytes *occupy the I/O-server horizons* (they
//! appear in `server_service` and delay later requests to the same
//! servers, exactly like an explicit `sync`), and the revoking *acquirer*
//! is charged the flat `token_revoke_ns` plus `token_revoke_byte_ns` per
//! flushed write-behind byte — the holder's clock may be anywhere, so the
//! wait is billed where it is actually suffered. Large write-behind
//! transfers therefore no longer ride free under `lock_driven`: makespans
//! are comparable across all three modes, and the *request-count* metrics
//! (`server_read_requests`, which the acceptance compares) count real requests
//! on every path.
//!
//! Run with `cargo bench -p atomio-bench --bench coherence` (flags:
//! [`atomio_bench::Args`]); `--trace` records the revocation-heavy run —
//! lock-driven coherence on the producer-consumer ping-pong at the
//! smallest P — as a Perfetto-loadable timeline.

use std::sync::Arc;

use atomio_bench::{counters, makespan, object, ratio, reduction, Args, Artifact, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, IoPath, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_msg::run;
use atomio_pfs::{
    CacheParams, CoherenceMode, FileSystem, LatencySnapshot, LockKind, PlatformProfile,
};
use atomio_trace::{MemorySink, TraceSink};
use atomio_vtime::VNanos;
use atomio_workloads::{ReaderWriter, RwPreset};

/// One coherence mode of the comparison.
#[derive(Debug, Clone, Copy)]
struct Mode {
    key: &'static str,
    io_path: IoPath,
    coherence: CoherenceMode,
}

const MODES: [Mode; 3] = [
    Mode {
        key: "bypass",
        io_path: IoPath::Direct,
        coherence: CoherenceMode::CloseToOpen,
    },
    Mode {
        key: "close_to_open",
        io_path: IoPath::Cached,
        coherence: CoherenceMode::CloseToOpen,
    },
    Mode {
        key: "lock_driven",
        io_path: IoPath::Cached,
        coherence: CoherenceMode::LockDriven,
    },
];

/// GPFS-flavoured test platform: distributed tokens over fast_test
/// timing, with a cache large enough to hold a rank's working set and a
/// write-behind threshold the blocks stay under.
fn profile(coherence: CoherenceMode) -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence,
        cache: CacheParams {
            enabled: true,
            page_size: 4 * 1024,
            read_ahead_pages: 2,
            write_behind_limit: 1024 * 1024,
            max_bytes: 4 * 1024 * 1024,
            mem: atomio_vtime::MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

counters! {
    /// Aggregate counters of one whole run (all ranks).
    struct Totals {
        makespan_ns: VNanos,
        server_read_requests: u64,
        server_write_requests: u64,
        cache_hit_bytes: u64,
        coherent_hit_bytes: u64,
        flushed_bytes: u64,
        revocations_served: u64,
        revoke_flushed_bytes: u64,
        coherence_invalidated_bytes: u64,
        stale_reads: u64,
    }
}

/// Run one reader-writer workload under one mode; returns the totals, the
/// latency histograms, and the final (synced) file bytes. When `sink` is
/// given, every rank's and server's events are recorded into it.
fn run_mode(
    spec: ReaderWriter,
    mode: Mode,
    name: &str,
    sink: Option<&Arc<MemorySink>>,
) -> (Totals, LatencySnapshot, Vec<u8>) {
    let fs = FileSystem::new(profile(mode.coherence));
    if let Some(s) = sink {
        fs.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
    }
    let sink = sink.cloned();
    let out = run(spec.p, fs.profile().net.clone(), |comm| {
        if let Some(s) = &sink {
            comm.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
        }
        let rank = comm.rank();
        let own = spec.owner_range(rank);
        let read = spec.read_range(rank);
        let target = spec.read_target(rank);
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
            LockGranularity::Exact,
        )))
        .unwrap();
        file.set_io_path(mode.io_path);
        comm.barrier();
        let start = comm.clock().now();
        let mut stale = 0u64;
        for round in 0..spec.rounds {
            let data = vec![spec.stamp(rank, round); spec.block as usize];
            file.write_at(own.start, &data).unwrap();
            // The barrier publishes "round `round` written everywhere":
            // any read now serving an older stamp is a stale read.
            comm.barrier();
            let want = spec.stamp(target, round);
            let mut buf = vec![0u8; spec.block as usize];
            for _ in 0..spec.rereads {
                file.read_at(read.start, &mut buf).unwrap();
                stale += buf.iter().filter(|&&b| b != want).count() as u64;
            }
            comm.barrier();
        }
        let end = comm.clock().now();
        let close = file.close().unwrap();
        (start, end, close.stats, stale)
    });
    let mut t = Totals {
        makespan_ns: makespan(out.iter().map(|(s, e, _, _)| (*s, *e))),
        ..Totals::default()
    };
    for (_, _, s, stale) in &out {
        t.server_read_requests += s.server_read_requests;
        t.server_write_requests += s.server_write_requests;
        t.cache_hit_bytes += s.cache_hit_bytes;
        t.coherent_hit_bytes += s.coherent_hit_bytes;
        t.flushed_bytes += s.flushed_bytes;
        t.revocations_served += s.revocations_served;
        t.revoke_flushed_bytes += s.revoke_flushed_bytes;
        t.coherence_invalidated_bytes += s.coherence_invalidated_bytes;
        t.stale_reads += stale;
    }
    assert_eq!(
        t.stale_reads, 0,
        "{name}: a reader observed a stale (pre-round) byte"
    );
    let latency = fs.latency_snapshot();
    let snap = fs.snapshot(name).expect("file written");
    assert_eq!(
        snap,
        spec.expected_final(),
        "{name}: final contents differ from the model"
    );
    // Checker pass: the final state must be exactly one writer's stamp per
    // owned block — the verifier reconstructs who wrote what.
    let views = spec.all_views();
    let patterns: Vec<_> = (0..spec.p)
        .map(|r| {
            let v = spec.stamp(r, spec.rounds - 1);
            move |_off: u64| v
        })
        .collect();
    let rep = check_mpi_atomicity(&snap, &views, &patterns);
    assert!(rep.is_atomic(), "{name}: not MPI-atomic: {rep:?}");
    (t, latency, snap)
}

/// The totals `key`'s mode produced in one panel.
fn totals_of(row: &[(Mode, Totals, LatencySnapshot)], key: &str) -> Totals {
    let mode = row.iter().find(|(m, _, _)| m.key == key);
    mode.expect("every mode runs in every panel").1
}

fn main() {
    let args = Args::parse("coherence");
    let (block, rounds, rereads, procs) = if args.smoke {
        (8 * 1024, 2, 2, vec![4])
    } else {
        (64 * 1024, 4, 4, vec![4, 8])
    };
    // All three modes share the platform's revocation cost model; quote it
    // in the header and JSON so the flushed-byte freight is interpretable.
    let revoke_byte_ns = profile(CoherenceMode::LockDriven).token_revoke_byte_ns;
    println!(
        "coherence bench: reader-writer rounds, {block} B blocks x {rounds} rounds x {rereads} \
         rereads{}",
        if args.smoke { " [smoke]" } else { "" }
    );
    println!(
        "revocation cost model: token_revoke_ns flat + {revoke_byte_ns} ns per flushed byte, \
         charged to the acquirer"
    );

    /// One (process count, preset) panel: per-mode totals and latency.
    type Panel = (usize, RwPreset, Vec<(Mode, Totals, LatencySnapshot)>);
    let presets = [RwPreset::CheckpointReread, RwPreset::ProducerConsumer];
    let trace = args.trace_file();
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &procs {
        for preset in presets {
            let spec =
                ReaderWriter::new(p, block, rounds, rereads, preset).expect("valid geometry");
            let mut row = Vec::new();
            let mut reference: Option<Vec<u8>> = None;
            for mode in MODES {
                let name = format!("coh-{p}-{}-{}", preset.label(), mode.key);
                let traced = mode.key == "lock_driven"
                    && preset == RwPreset::ProducerConsumer
                    && p == procs[0];
                let sink = trace.as_ref().filter(|_| traced).map(|t| t.sink());
                let (t, lat, snap) = run_mode(spec, mode, &name, sink);
                match &reference {
                    Some(r) => assert_eq!(
                        r,
                        &snap,
                        "P={p} {}: {} contents differ from bypass",
                        preset.label(),
                        mode.key
                    ),
                    None => reference = Some(snap),
                }
                println!(
                    "P={p:<3} {:>22} {:>14}  {}",
                    preset.label(),
                    mode.key,
                    Value::from(&t)
                );
                row.push((mode, t, lat));
            }
            // Producer-consumer under lock-driven coherence must actually
            // exercise the revocation path (token ping-pong every round).
            if preset == RwPreset::ProducerConsumer {
                let ld = totals_of(&row, "lock_driven");
                assert!(
                    ld.revocations_served > 0,
                    "P={p}: producer-consumer must serve revocations"
                );
                assert!(
                    ld.revoke_flushed_bytes > 0,
                    "P={p}: revocations must flush the producers' write-behind data"
                );
            }
            panels.push((p, preset, row));
        }
    }
    if let Some(t) = &trace {
        t.export();
    }

    let mut artifact = Artifact::new(&args);
    artifact
        .field(
            "workload",
            "reader-writer rounds over rank-owned blocks under GPFS-style distributed tokens; \
             atomic independent FileLocking(Exact) I/O; every read asserts the exact \
             current-round stamp (stale bytes fail the run)",
        )
        .field(
            "geometry",
            object! {"block": block, "rounds": rounds, "rereads": rereads, "smoke": args.smoke},
        )
        .field(
            "cost_model",
            object! {
                "token_revoke_byte_ns": Value::Number(revoke_byte_ns.to_string()),
                "note": "a revocation flush charges the acquirer token_revoke_ns plus this per \
                         flushed write-behind byte, and the flushed bytes occupy the I/O-server \
                         horizons like any other write (they appear in server_service and delay \
                         later requests)",
            },
        )
        .field(
            "modes",
            object! {
                "bypass": "IoPath::Direct — ROMIO-style, every access hits the servers",
                "close_to_open": "IoPath::Cached + blanket sync/invalidate around every atomic \
                                  access",
                "lock_driven": "IoPath::Cached + CoherenceMode::LockDriven — tokens confer \
                                cache-validity rights, revocation flushes/invalidates exactly \
                                the revoked ranges",
            },
        );
    for (p, preset, row) in &panels {
        let bypass = totals_of(row, "bypass");
        let modes = row.iter().map(|(mode, t, lat)| {
            let point = object! {
                "totals": t,
                "server_read_reduction":
                    reduction(bypass.server_read_requests, t.server_read_requests),
                "makespan_speedup": Value::fixed(ratio(bypass.makespan_ns, t.makespan_ns), 2),
                "latency": object! {
                    "grant_wait": &lat.grant_wait,
                    "revoke_flush": &lat.revoke_flush,
                    "server_service": &lat.server_service,
                },
            };
            (mode.key, point)
        });
        artifact.panel(object! {"p": *p, "preset": preset.label()}, modes);
    }

    // Acceptance: P = 8 checkpoint-then-reread at full geometry —
    // lock-driven cached atomic I/O must cut server read requests >= 5x
    // vs the direct bypass path (compared as counts, so a mode that issues
    // none passes without a quotient), with zero stale reads anywhere.
    let acceptance = panels
        .iter()
        .find(|(p, preset, _)| *p == 8 && *preset == RwPreset::CheckpointReread && !args.smoke)
        .map(|(_, _, row)| {
            let (bypass, ld) = (totals_of(row, "bypass"), totals_of(row, "lock_driven"));
            (bypass.server_read_requests, ld.server_read_requests)
        });
    artifact.acceptance(
        "P=8",
        acceptance.map(|(bypass, lock_driven)| {
            object! {
                "p": 8usize,
                "preset": "checkpoint-then-reread",
                "metric": "bypass / lock_driven server read requests (pass: lock_driven x 5 \
                           <= bypass)",
                "bypass_server_read_requests": bypass,
                "lock_driven_server_read_requests": lock_driven,
                "reduction": reduction(bypass, lock_driven),
                "threshold": Value::fixed(5.0, 1),
                "byte_identical": true,
                "stale_reads": 0u64,
                "pass": lock_driven * 5 <= bypass,
            }
        }),
    );
    artifact.write();
    if let Some((bypass, lock_driven)) = acceptance {
        assert!(
            lock_driven * 5 <= bypass,
            "acceptance: lock-driven cached atomic I/O must issue >= 5x fewer server \
             read requests than bypass's {bypass} at P=8 checkpoint-then-reread, got \
             {lock_driven}"
        );
    }
}
