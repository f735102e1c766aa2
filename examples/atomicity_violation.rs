//! Figure 2 of the paper, live: what the overlapped region of two
//! column-wise writers looks like in (a) MPI atomic mode, (b) non-atomic
//! mode on a POSIX-compliant file system, and (c) non-atomic mode without
//! even POSIX per-call atomicity.
//!
//! ```text
//! cargo run --release --example atomicity_violation
//! ```

use atomio::prelude::*;

/// Two ranks, column-wise split with an overlapped band in the middle.
const M: u64 = 16; // rows (kept small so the picture fits a terminal)
const N: u64 = 64; // columns
const R: u64 = 16; // overlapped columns

fn run_mode(atomicity: Atomicity, posix_atomic: bool, name: &str) -> (Vec<u8>, ColWise) {
    let spec = ColWise::new(M, N, 2, R).unwrap();
    let mut profile = PlatformProfile::fast_test();
    profile.posix_atomic_calls = posix_atomic;
    // Let non-atomic writes interleave every few bytes so the effect is
    // visible inside a single row of this tiny demo array.
    profile.nonatomic_chunk = 8;
    let fs = FileSystem::new(profile.clone());
    run(2, profile.net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, name, OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(atomicity).unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();
        file.close().unwrap();
    });
    (fs.snapshot(name).unwrap().to_vec(), spec)
}

/// Render the file as M rows; `0` = rank 0's byte, `1` = rank 1's, `?` = mixed garbage.
fn picture(file: &[u8]) -> String {
    let s0 = pattern::stamp_byte(0);
    let s1 = pattern::stamp_byte(1);
    let mut out = String::new();
    for row in 0..M {
        out.push_str("    ");
        for col in 0..N {
            let b = file[(row * N + col) as usize];
            out.push(if b == s0 {
                '0'
            } else if b == s1 {
                '1'
            } else {
                '?'
            });
        }
        out.push('\n');
    }
    out
}

fn report(label: &str, file: &[u8], spec: &ColWise) {
    let check = verify::check_mpi_atomicity(file, &spec.all_views(), &pattern::rank_stamps(2));
    println!("{label}");
    println!("{}", picture(file));
    println!(
        "    verdict: {:?} ({} overlapped regions, {} byte-mixed)\n",
        check.outcome(),
        check.overlapped_regions,
        check.interleaved_regions.len()
    );
}

fn main() {
    println!(
        "Two ranks write a {M}x{N} array column-wise; columns {}..{} are \
         written by BOTH ranks.\n",
        N / 2 - R / 2,
        N / 2 + R / 2
    );

    // (a) Atomic mode: the overlapped band is uniformly one rank's data.
    let (file, spec) = run_mode(
        Atomicity::Atomic(Strategy::RankOrdering),
        true,
        "atomic.dat",
    );
    report("(a) MPI atomic mode (process-rank ordering):", &file, &spec);

    // (b) Non-atomic on a POSIX file system: each row is atomic, but rows
    // flip between winners — the interleaved columns of Figure 2. Retry a
    // few times in case the scheduler serendipitously serializes.
    for attempt in 0.. {
        let (file, spec) = run_mode(Atomicity::NonAtomic, true, "nonatomic.dat");
        let check = verify::check_mpi_atomicity(&file, &spec.all_views(), &pattern::rank_stamps(2));
        if check.outcome() != verify::Outcome::MpiAtomic || attempt > 20 {
            report(
                "(b) non-atomic mode, POSIX-atomic write() calls:",
                &file,
                &spec,
            );
            break;
        }
    }

    // (c) Non-atomic without POSIX call atomicity: bytes mix inside a row.
    for attempt in 0.. {
        let (file, spec) = run_mode(Atomicity::NonAtomic, false, "raw.dat");
        let check = verify::check_mpi_atomicity(&file, &spec.all_views(), &pattern::rank_stamps(2));
        if check.outcome() == verify::Outcome::Interleaved || attempt > 20 {
            report(
                "(c) non-atomic mode, no POSIX call atomicity:",
                &file,
                &spec,
            );
            break;
        }
    }

    println!(
        "Legend: 0/1 = byte written by that rank, ? = unwritten or mixed.\n\
         (b) violates MPI atomicity across rows; (c) can violate even POSIX\n\
         per-call atomicity. Both are fixed by any of the three strategies."
    );
}
