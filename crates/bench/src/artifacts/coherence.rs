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
//! Run with `cargo run --release -p atomio-bench --bin artifacts --
//! --write coherence` (`BENCH_coherence.json`); `--check` runs
//! `coherence_smoke`. Acceptance (full geometry, P = 8,
//! checkpoint-then-reread): lock-driven cached atomic I/O must issue
//! **≥ 5× fewer server read requests** than the bypass path
//! (`lock_driven × 5 ≤ bypass`), with byte-identical, checker-verified
//! files across the three modes and no stale read.
//!
//! **Cost model for revocation flushes:** a revocation-triggered flush is
//! a first-class write that occupies the I/O-server horizons, and the
//! revoking *acquirer* pays `token_revoke_ns` plus `token_revoke_byte_ns`
//! per flushed write-behind byte, so makespans compare across all three
//! modes (the artifact's `cost_model` quotes it).
//!
//! The trace records the revocation-heavy run: lock-driven coherence on
//! the producer-consumer ping-pong at the smallest P.

use std::sync::Arc;

use super::gpfs_cached;
use crate::{counters, makespan, object, ratio, reduction, run_traced, Artifact, Scale, Value};
use atomio_core::verify::check_mpi_atomicity;
use atomio_core::{Atomicity, IoPath, LockGranularity, MpiFile, OpenMode, Strategy};
use atomio_pfs::{CoherenceMode, FileSystem, LatencySnapshot, PlatformProfile};
use atomio_trace::MemorySink;
use atomio_vtime::VNanos;
use atomio_workloads::{ReaderWriter, RwPreset};

/// One coherence mode of the comparison.
#[derive(Debug, Clone, Copy)]
struct Mode {
    key: &'static str,
    io_path: IoPath,
    coherence: CoherenceMode,
}

#[rustfmt::skip]
const MODES: [Mode; 3] = [
    Mode { key: "bypass", io_path: IoPath::Direct, coherence: CoherenceMode::CloseToOpen },
    Mode { key: "close_to_open", io_path: IoPath::Cached, coherence: CoherenceMode::CloseToOpen },
    Mode { key: "lock_driven", io_path: IoPath::Cached, coherence: CoherenceMode::LockDriven },
];

/// The GPFS-flavoured platform with a write-behind threshold the blocks
/// stay under.
fn profile(coherence: CoherenceMode) -> PlatformProfile {
    gpfs_cached(coherence, 1024 * 1024)
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

/// Run one reader-writer workload under one mode and check its final
/// (synced) file against the model; returns the totals and the latency
/// histograms. When `sink` is given, every rank's and server's events are
/// recorded into it.
fn run_mode(
    spec: ReaderWriter,
    mode: Mode,
    name: &str,
    sink: Option<&Arc<MemorySink>>,
) -> (Totals, LatencySnapshot) {
    let fs = FileSystem::new(profile(mode.coherence));
    let out = run_traced(spec.p, &fs, sink, |comm| {
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
    (t, latency)
}

/// The totals `key`'s mode produced in one panel.
fn totals_of(row: &[(Mode, Totals, LatencySnapshot)], key: &str) -> Totals {
    let mode = row.iter().find(|(m, _, _)| m.key == key);
    mode.expect("every mode runs in every panel").1
}

/// The coherence scenario at `scale`, its traced run recording into
/// `trace`.
pub(crate) fn coherence(scale: Scale, trace: Option<&Arc<MemorySink>>) -> Artifact {
    let smoke = scale == Scale::Smoke;
    let (block, rounds, rereads, procs) = if smoke {
        (8 * 1024, 2, 2, vec![4])
    } else {
        (64 * 1024, 4, 4, vec![4, 8])
    };
    // All three modes share the platform's revocation cost model; quote it
    // in the JSON so the flushed-byte freight is interpretable.
    let revoke_byte_ns = profile(CoherenceMode::LockDriven).token_revoke_byte_ns;

    /// One (process count, preset) panel: per-mode totals and latency.
    type Panel = (usize, RwPreset, Vec<(Mode, Totals, LatencySnapshot)>);
    let presets = [RwPreset::CheckpointReread, RwPreset::ProducerConsumer];
    let mut panels: Vec<Panel> = Vec::new();
    for &p in &procs {
        for preset in presets {
            let spec =
                ReaderWriter::new(p, block, rounds, rereads, preset).expect("valid geometry");
            // `run_mode` holds every mode's file to the model: byte
            // identity across the modes follows.
            let mut row = Vec::new();
            for mode in MODES {
                let name = format!("coh-{p}-{}-{}", preset.label(), mode.key);
                let traced = mode.key == "lock_driven"
                    && preset == RwPreset::ProducerConsumer
                    && p == procs[0];
                let sink = trace.filter(|_| traced);
                let (t, lat) = run_mode(spec, mode, &name, sink);
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

    let mut artifact = Artifact::new("coherence");
    artifact
        .field(
            "workload",
            "reader-writer rounds over rank-owned blocks under GPFS-style distributed tokens; \
             atomic independent FileLocking(Exact) I/O; every read asserts the exact \
             current-round stamp (stale bytes fail the run)",
        )
        .field(
            "geometry",
            object! {"block": block, "rounds": rounds, "rereads": rereads, "smoke": smoke},
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
        .find(|(p, preset, _)| *p == 8 && *preset == RwPreset::CheckpointReread && !smoke);
    let acceptance = acceptance.map(|(_, _, row)| {
        let bypass = totals_of(row, "bypass").server_read_requests;
        let lock_driven = totals_of(row, "lock_driven").server_read_requests;
        object! {
            "p": 8usize,
            "preset": "checkpoint-then-reread",
            "metric": "bypass / lock_driven server read requests (pass: lock_driven x 5 <= \
                       bypass)",
            "bypass_server_read_requests": bypass,
            "lock_driven_server_read_requests": lock_driven,
            "reduction": reduction(bypass, lock_driven),
            "threshold": Value::fixed(5.0, 1),
            "byte_identical": true,
            "stale_reads": 0u64,
            "pass": lock_driven * 5 <= bypass,
        }
    });
    artifact.acceptance("P=8", acceptance);
    artifact
}
