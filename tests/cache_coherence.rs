//! The cache-coherence hazards of paper §3: write-behind hides data until a
//! sync; read-ahead serves stale data until an invalidate; the handshaking
//! strategies must (and do) handle both on the cached I/O path.

mod common;

use atomio::prelude::*;
use common::{check_colwise, run_colwise};

#[test]
fn cached_strategies_remain_atomic() {
    // Graph coloring and rank ordering with the client cache enabled:
    // sync-after-write + invalidate keep the result correct.
    let spec = ColWise::new(64, 512, 4, 8).unwrap();
    for strategy in [Strategy::GraphColoring, Strategy::RankOrdering] {
        let fs = FileSystem::new(PlatformProfile::fast_test());
        run_colwise(
            &fs,
            "cached",
            spec,
            Atomicity::Atomic(strategy),
            IoPath::Cached,
        );
        let rep = check_colwise(&fs, "cached", spec);
        assert!(rep.is_atomic(), "{strategy} cached: {rep:?}");
    }
}

#[test]
fn write_behind_hides_data_until_sync() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let flushed = run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "wb", OpenMode::ReadWrite).unwrap();
        file.set_io_path(IoPath::Cached);
        if comm.rank() == 0 {
            // Small write stays under the write-behind threshold.
            file.write_at(0, b"hidden").unwrap();
            let before = fs.snapshot("wb").unwrap();
            comm.barrier();
            file.sync().unwrap();
            comm.barrier();
            let after = fs.snapshot("wb").unwrap();
            (before, after)
        } else {
            comm.barrier();
            comm.barrier();
            (Vec::new(), Vec::new())
        }
    });
    let (before, after) = &flushed[0];
    assert!(
        before.is_empty() || before.iter().all(|&b| b == 0),
        "unsynced write-behind data must be invisible on the servers"
    );
    assert_eq!(&after[..6], b"hidden");
}

#[test]
fn stale_read_without_invalidate_fresh_with() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let results = run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "stale", OpenMode::ReadWrite).unwrap();
        file.set_io_path(IoPath::Cached);
        let mut out = (0u8, 0u8);
        if comm.rank() == 1 {
            comm.barrier(); // writer published 0xAA
                            // Prime the reader's cache with the original contents.
            let mut buf = [0u8; 4];
            file.read_at(0, &mut buf).unwrap();
            assert_eq!(buf[0], 0xAA);
            comm.barrier(); // reader primed
            comm.barrier(); // writer published 0xBB
                            // Read again WITHOUT invalidating: must still see the old data.
            let mut stale = [0u8; 4];
            file.read_at(0, &mut stale).unwrap();
            // Now invalidate and see the fresh data.
            file.posix().try_invalidate().unwrap();
            let mut fresh = [0u8; 4];
            file.read_at(0, &mut fresh).unwrap();
            out = (stale[0], fresh[0]);
        } else {
            file.write_at(0, &[0xAAu8; 4]).unwrap();
            file.sync().unwrap();
            comm.barrier(); // writer published 0xAA
            comm.barrier(); // reader primed
            file.write_at(0, &[0xBBu8; 4]).unwrap();
            file.sync().unwrap();
            comm.barrier(); // writer published 0xBB
        }
        file.close().unwrap();
        out
    });
    let (stale, fresh) = results[1];
    assert_eq!(stale, 0xAA, "cached page must serve the stale value");
    assert_eq!(fresh, 0xBB, "after invalidate the fresh value must appear");
}

#[test]
fn skipping_the_sync_step_breaks_visibility() {
    // Ablation: a "rank ordering" that forgets the §3-mandated sync leaves
    // data in write-behind buffers; the file on the servers is incomplete.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = ColWise::new(16, 128, 2, 4).unwrap();
    run(spec.p, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::rank_stamp(comm.rank()));
        let file = fs.open(comm.world_rank(), comm.clock().clone(), "nosync");
        // Write every view segment through the cache and deliberately skip
        // sync. Buffers are small enough to stay under write-behind limits.
        for seg in part.view.segments(0, part.data_bytes()) {
            let lo = seg.logical_off as usize;
            file.try_pwrite(seg.file_off, &buf[lo..lo + seg.len as usize])
                .unwrap();
        }
        comm.barrier();
    });
    let snap = fs.snapshot("nosync").unwrap_or_default();
    let written: u64 = snap.iter().filter(|&&b| b != 0).count() as u64;
    assert!(
        written < spec.file_bytes(),
        "without sync, some data must still be stuck in client caches"
    );
}

#[test]
fn read_ahead_populates_cache() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        let file = fs.open(0, comm.clock().clone(), "ra");
        file.try_pwrite_direct(0, &vec![5u8; 8 * 1024]).unwrap();
        let mut buf = [0u8; 16];
        file.try_pread(0, &mut buf).unwrap(); // miss: fetches window incl. read-ahead
        let miss1 = file.stats().snapshot().cache_miss_bytes;
        let mut buf2 = [0u8; 512];
        file.try_pread(1024, &mut buf2).unwrap(); // within the read-ahead window: hit
        let s = file.stats().snapshot();
        assert_eq!(
            s.cache_miss_bytes, miss1,
            "read-ahead window must absorb the 2nd read"
        );
        assert!(s.cache_hit_bytes >= 512);
        assert!(buf2.iter().all(|&b| b == 5));
    });
}

#[test]
fn cached_write_costs_less_vtime_than_direct_until_sync() {
    let fs = FileSystem::new(PlatformProfile::cplant());
    run(1, fs.profile().net.clone(), |comm| {
        let cached = fs.open(0, comm.clock().clone(), "c");
        let t0 = comm.clock().now();
        cached.try_pwrite(0, &vec![1u8; 16 * 1024]).unwrap();
        let t_cached = comm.clock().now() - t0;

        let direct = fs.open(0, comm.clock().clone(), "d");
        let t1 = comm.clock().now();
        direct.try_pwrite_direct(0, &vec![1u8; 16 * 1024]).unwrap();
        let t_direct = comm.clock().now() - t1;
        assert!(
            t_cached < t_direct / 2,
            "buffered write ({t_cached}ns) should be much cheaper than direct ({t_direct}ns)"
        );
    });
}
