//! Shared helpers for the integration tests.

// Each integration-test binary uses a different subset of these helpers.
#![allow(dead_code)]

use atomio::prelude::*;

/// Run the column-wise concurrent write of the paper's experiments on `fs`:
/// every rank builds its subarray view, fills a rank-stamped buffer, and
/// calls a collective write with the given atomicity. Returns the per-rank
/// write reports.
pub(crate) fn run_colwise(
    fs: &FileSystem,
    name: &str,
    spec: ColWise,
    atomicity: Atomicity,
    io_path: IoPath,
) -> Vec<WriteReport> {
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_io_path(io_path);
        file.set_atomicity(atomicity).unwrap();
        comm.barrier(); // align starts so makespans are comparable
        let report = file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
        report
    })
}

/// Verify the final file of a column-wise run.
pub(crate) fn check_colwise(fs: &FileSystem, name: &str, spec: ColWise) -> verify::AtomicityReport {
    let snap = fs.snapshot(name).expect("file written");
    verify::check_mpi_atomicity(&snap, &spec.all_views(), &pattern::rank_stamps(spec.p))
}

/// Aggregate bandwidth in MiB/s over the reports' makespan.
pub(crate) fn bandwidth(reports: &[WriteReport]) -> f64 {
    let start = reports.iter().map(|r| r.start).min().unwrap();
    let end = reports.iter().map(|r| r.end).max().unwrap();
    let bytes: u64 = reports.iter().map(|r| r.bytes_written).sum();
    bandwidth_mibps(bytes, end - start)
}
