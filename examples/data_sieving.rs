//! Data sieving: independent noncontiguous atomic writes.
//!
//! Four ranks write a column-wise partitioned array through *independent*
//! `MPI_File_write_at` calls — no collective, so no view exchange and none
//! of the paper's handshaking strategies apply (§5). The example compares
//! server-request and lock traffic of per-run locking against the
//! data-sieving engine across window sizes, verifies MPI atomicity, and
//! finishes by demonstrating the §2.1 read-modify-write hazard that makes
//! *unlocked* sieved writes unsafe.
//!
//! ```text
//! cargo run --release --example data_sieving
//! ```

use atomio::prelude::*;

fn main() {
    let (m, n, p, r) = (1024u64, 4096u64, 4usize, 16u64);
    let spec = ColWise::new(m, n, p, r).expect("valid geometry");
    println!("data sieving: {m} x {n} array, {p} ranks, R = {r} ghost columns");
    println!(
        "each rank: {} noncontiguous runs of ~{} bytes\n",
        m,
        n / p as u64 + r
    );

    // --- per-run locking: the naive independent-atomicity baseline -------
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let base: Vec<_> = run(p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let posix = fs.open(comm.rank(), comm.clock().clone(), "per-run");
        for seg in part.view.segments(0, buf.len() as u64) {
            let guard = posix
                .lock(ByteRange::at(seg.file_off, seg.len), LockMode::Exclusive)
                .expect("lockful platform");
            let data = &buf[seg.logical_off as usize..][..seg.len as usize];
            posix.try_pwrite_direct(seg.file_off, data).unwrap();
            guard.release();
        }
        posix.stats().snapshot()
    });
    let base_writes: u64 = base.iter().map(|s| s.server_write_requests).sum();
    let base_locks: u64 = base.iter().map(|s| s.lock_acquires).sum();
    println!(
        "{:>18}  {:>9} {:>9} {:>9}",
        "mode", "wr_reqs", "rd_reqs", "locks"
    );
    println!(
        "{:>18}  {:>9} {:>9} {:>9}",
        "per-run locking", base_writes, 0, base_locks
    );

    // --- sieving sweep ----------------------------------------------------
    for buffer in [64u64 << 10, 512 << 10, 4 << 20] {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        let name = format!("sieve-{buffer}");
        let stats: Vec<_> = run(p, fs.profile().net.clone(), |comm| {
            let part = spec.partition(comm.rank());
            let buf = part.fill(pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, &name, OpenMode::ReadWrite).unwrap();
            file.set_view(0, part.filetype.clone()).unwrap();
            file.set_sieve_config(SieveConfig {
                buffer_size: buffer,
                ..SieveConfig::default()
            });
            file.set_atomicity(Atomicity::Atomic(Strategy::DataSieving))
                .unwrap();
            file.write_at(0, &buf).unwrap();
            file.close().unwrap().stats
        });
        let wr: u64 = stats.iter().map(|s| s.server_write_requests).sum();
        let rd: u64 = stats.iter().map(|s| s.server_read_requests).sum();
        let lk: u64 = stats.iter().map(|s| s.lock_acquires).sum();
        let rep = verify::check_mpi_atomicity(
            &fs.snapshot(&name).unwrap(),
            &spec.all_views(),
            &pattern::rank_stamps(p),
        );
        assert!(rep.is_atomic(), "{rep:?}");
        println!(
            "{:>18}  {:>9} {:>9} {:>9}   ({:.0}x fewer writes, atomic ✓)",
            format!("sieve {}K", buffer >> 10),
            wr,
            rd,
            lk,
            base_writes as f64 / wr as f64
        );
    }

    // --- the hazard: unlocked RMW loses concurrent updates ----------------
    println!("\nunlocked RMW hazard (paper §2.1), disjoint independent writers:");
    let w = IndependentStrided::new(2, 64, 64, 256, 0).expect("valid geometry");
    let mut attempts = 0;
    loop {
        attempts += 1;
        let fs = FileSystem::new(PlatformProfile::cplant()); // lockless ENFS
        run(w.p, fs.profile().net.clone(), |comm| {
            let buf = w.fill(comm.rank(), pattern::rank_stamp(comm.rank()));
            let mut file = MpiFile::open(&comm, &fs, "torn", OpenMode::ReadWrite).unwrap();
            file.set_view(w.disp(comm.rank()), w.filetype()).unwrap();
            file.set_sieve_config(SieveConfig {
                buffer_size: 2 << 10,
                ..SieveConfig::default()
            });
            comm.barrier();
            // Non-atomic sieved write: RMW with no lock around it.
            file.write_at_sieved(0, &buf).unwrap();
            file.close().unwrap();
        });
        let rep = verify::check_mpi_atomicity(
            &fs.snapshot("torn").unwrap(),
            &w.all_views(),
            &pattern::rank_stamps(w.p),
        );
        if !rep.is_atomic() {
            println!(
                "  attempt {attempts}: torn result — {} exclusive region(s) hold a \
                 neighbour's stale hole bytes",
                rep.exclusive_mismatches.len()
            );
            break;
        }
        if attempts >= 40 {
            println!("  no violation in {attempts} attempts (try again — the race is real)");
            break;
        }
    }
    println!("  => atomic mode spans the RMW with one exclusive lock; ENFS (no locks) refuses it");
}
