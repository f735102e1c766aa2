//! The atomicity checker reads a [`Snapshot`] in place, one 64 KiB block
//! at a time, and must report exactly what it reports on the same bytes
//! flattened into a vector. The generated footprints and images put
//! regions across block edges, into holes and past the end of the file.

use atomio::pfs::{Snapshot, Storage};
use atomio::prelude::*;
use proptest::prelude::{prop, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::{prop_assert_eq, proptest};

const BLOCK: u64 = 64 * 1024;
const P: usize = 3;

/// Rank `r`'s byte at `offset`: position-dependent, and different from
/// every other rank's at every offset.
fn pattern(r: usize) -> impl Fn(u64) -> u8 {
    move |o| (o as u8).wrapping_mul(3).wrapping_add(85 * r as u8)
}

/// An offset within 300 bytes of the block edge at `3k + 1` blocks (k <
/// 3): the edges at 1, 4 and 7 blocks leave blocks 2 and 5 holes.
fn near_edge() -> impl PropStrategy<Value = u64> {
    (0u64..3, 0u64..600).prop_map(|(k, shift)| (3 * k + 1) * BLOCK - 300 + shift)
}

/// Runs of up to 9 000 bytes that start near an edge: most cross it, and
/// some span several of the checker's compare buffers.
fn arb_footprint() -> impl PropStrategy<Value = IntervalSet> {
    prop::collection::vec((near_edge(), 1u64..9000), 1..5).prop_map(IntervalSet::from_extents)
}

/// The checker's report over `image`, rendered for comparison.
fn report<I: verify::FileImage + ?Sized>(image: &I, fps: &[IntervalSet]) -> String {
    let patterns: Vec<_> = (0..fps.len()).map(pattern).collect();
    format!("{:?}", verify::check_mpi_atomicity(image, fps, &patterns))
}

/// Write rank `r`'s bytes over all of `fp`.
fn write_rank(s: &Storage, fp: &IntervalSet, r: usize) {
    let pat = pattern(r);
    for run in fp.iter() {
        let data: Vec<u8> = (run.start..run.end).map(&pat).collect();
        s.write_atomic(run.start, &data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_and_its_copy_report_alike(
        fps in prop::collection::vec(arb_footprint(), P),
        writes in prop::collection::vec(0usize..P, 0..=P + 1),
        planted in prop::collection::vec((near_edge(), 0u8..=255), 0..4),
        cut in (0u8..2, near_edge()),
    ) {
        let s = Storage::new();
        for &r in &writes {
            write_rank(&s, &fps[r], r);
        }
        for &(at, byte) in &planted {
            s.write_atomic(at, &[byte]);
        }
        if cut.0 == 1 && cut.1 < s.len() {
            s.truncate(cut.1);
        }
        let snap: Snapshot = s.snapshot();
        prop_assert_eq!(report(&snap, &fps), report(&snap.to_vec(), &fps));
    }
}

#[test]
fn an_interleaving_across_a_block_edge_is_found() {
    // Both ranks cover [BLOCK - 100, BLOCK + 100). Each block's half holds
    // one rank's bytes, so each chunk alone matches a writer; the region
    // as a whole matches none.
    let fps = vec![IntervalSet::from_extents([(BLOCK - 100, 200)]); 2];
    let s = Storage::new();
    write_rank(&s, &IntervalSet::from_extents([(BLOCK - 100, 100)]), 0);
    write_rank(&s, &IntervalSet::from_extents([(BLOCK, 100)]), 1);
    let patterns: Vec<_> = (0..2).map(pattern).collect();
    let snap = s.snapshot();
    let rep = verify::check_mpi_atomicity(&snap, &fps, &patterns);
    assert_eq!(rep.outcome(), verify::Outcome::Interleaved);
    assert_eq!(rep.interleaved_regions, [ByteRange::at(BLOCK - 100, 200)]);
    assert_eq!(report(&snap, &fps), report(&snap.to_vec(), &fps));
}
