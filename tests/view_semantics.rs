//! MPI file-view semantics end to end: displacements, tiling, read-back
//! through views, and the default contiguous view.

use atomio::prelude::*;

#[test]
fn write_then_read_back_through_view() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let spec = ColWise::new(16, 128, 4, 4).unwrap();
    let ok = run(4, fs.profile().net.clone(), |comm| {
        let part = spec.partition(comm.rank());
        let buf = part.fill(pattern::offset_stamp(comm.rank()));
        let mut file = MpiFile::open(&comm, &fs, "rb", OpenMode::ReadWrite).unwrap();
        file.set_view(0, part.filetype.clone()).unwrap();
        file.set_atomicity(Atomicity::Atomic(Strategy::RankOrdering))
            .unwrap();
        comm.barrier();
        file.write_at_all(0, &buf).unwrap();

        // Read the whole view back: the bytes this rank OWNS (not
        // surrendered) must match what it wrote; surrendered bytes hold the
        // higher rank's pattern.
        let mut out = vec![0u8; buf.len()];
        file.read_at_all(0, &mut out).unwrap();
        let my = pattern::offset_stamp(comm.rank());
        let higher = pattern::offset_stamp(comm.rank() + 1);
        let segs = part.view.segments(0, part.data_bytes());
        let mut all_ok = true;
        for seg in segs {
            for i in 0..seg.len {
                let got = out[(seg.logical_off + i) as usize];
                let off = seg.file_off + i;
                if got != my(off) && got != higher(off) {
                    all_ok = false;
                }
            }
        }
        file.close().unwrap();
        all_ok
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn displacement_shifts_the_whole_view() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let disp = 1000u64;
    run(1, fs.profile().net.clone(), |comm| {
        let ft =
            Datatype::subarray(&[4, 8], &[4, 2], &[0, 3], ArrayOrder::C, Datatype::byte()).unwrap();
        let mut file = MpiFile::open(&comm, &fs, "disp", OpenMode::ReadWrite).unwrap();
        file.set_view(disp, ft).unwrap();
        file.write_at_all(0, &[7u8; 8]).unwrap();
        file.close().unwrap();
    });
    let snap = fs.snapshot("disp").unwrap().to_vec();
    // First view byte = disp + row 0, col 3.
    assert_eq!(snap[disp as usize + 3], 7);
    assert_eq!(snap[disp as usize + 11], 7);
    assert!(snap[..disp as usize].iter().all(|&b| b == 0));
}

#[test]
fn default_view_is_contiguous_bytes() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "def", OpenMode::ReadWrite).unwrap();
        file.write_at_all(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        file.read_at_all(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        file.close().unwrap();
    });
    assert_eq!(fs.file_len("def"), Some(15));
}

#[test]
fn offset_walks_tiles() {
    // Writing at a logical offset beyond one filetype tile lands in the
    // next tiling repetition of the filetype.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        // Tile: 2 data bytes, extent 8.
        let ft =
            Datatype::resized(0, 8, Datatype::contiguous(2, Datatype::byte()).unwrap()).unwrap();
        let mut file = MpiFile::open(&comm, &fs, "tile", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        file.write_at_all(3, b"AB").unwrap(); // logical 3..5 -> tiles 1 and 2
        file.close().unwrap();
    });
    let snap = fs.snapshot("tile").unwrap().to_vec();
    assert_eq!(snap[9], b'A'); // tile 1, second byte (logical 3)
    assert_eq!(snap[16], b'B'); // tile 2, first byte (logical 4)
}

#[test]
fn partial_tile_requests() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let collected = run(1, fs.profile().net.clone(), |comm| {
        let ft =
            Datatype::subarray(&[4, 8], &[4, 4], &[0, 2], ArrayOrder::C, Datatype::byte()).unwrap();
        let mut file = MpiFile::open(&comm, &fs, "part", OpenMode::ReadWrite).unwrap();
        file.set_view(0, ft).unwrap();
        // Write only half the view (2 of 4 rows).
        let report = file.write_at_all(0, &[9u8; 8]).unwrap();
        file.close().unwrap();
        report.segments
    });
    assert_eq!(collected[0], 2);
    let snap = fs.snapshot("part").unwrap().to_vec();
    assert_eq!(snap.len() as u64, 8 + 6); // row 1 cols 2..6 end at offset 14
    assert_eq!(&snap[2..6], &[9u8; 4]);
    assert_eq!(&snap[10..14], &[9u8; 4]);
}

#[test]
fn invalid_view_is_rejected_collectively() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(2, fs.profile().net.clone(), |comm| {
        let bad = Datatype::hindexed(vec![(1, 8), (1, 0)], Datatype::int32()).unwrap();
        let mut file = MpiFile::open(&comm, &fs, "bad", OpenMode::ReadWrite).unwrap();
        let e = file.set_view(0, bad).unwrap_err();
        assert!(matches!(e, atomio::core::Error::View(_)));
        // The old view must still be usable after the failed set_view.
        file.write_at_all(0, b"ok").unwrap();
        file.close().unwrap();
    });
    assert_eq!(&fs.snapshot("bad").unwrap().to_vec()[..2], b"ok");
}

#[test]
fn etype_offsets_count_elements_not_bytes() {
    // MPI_File_set_view with an INT etype: write_at(offset) skips
    // `offset` 4-byte elements of the view's stream.
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        // View = one column block of a 4x4 INT array (ints 2..4 of each row).
        let ft = Datatype::subarray(&[4, 4], &[4, 2], &[0, 2], ArrayOrder::C, Datatype::int32())
            .unwrap();
        let mut file = MpiFile::open(&comm, &fs, "etype", OpenMode::ReadWrite).unwrap();
        file.set_view_with_etype(0, &Datatype::int32(), ft).unwrap();
        // Skip 2 etypes (= row 0 of the block), write 2 ints into row 1.
        file.write_at_all(2, &[0xAB; 8]).unwrap();
        let mut buf = [0u8; 8];
        file.read_at_all(2, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 8]);
        file.close().unwrap();
    });
    let snap = fs.snapshot("etype").unwrap().to_vec();
    // Row 1 of the 4x4 int array starts at byte 16; cols 2..4 at bytes 24..32.
    assert!(snap[..24].iter().all(|&b| b == 0));
    assert_eq!(&snap[24..32], &[0xAB; 8]);
}

#[test]
fn etype_mismatched_filetype_rejected() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    run(1, fs.profile().net.clone(), |comm| {
        // 3 bytes of data per tile is not a whole number of 4-byte etypes.
        let ft = Datatype::contiguous(3, Datatype::byte()).unwrap();
        let mut file = MpiFile::open(&comm, &fs, "mis", OpenMode::ReadWrite).unwrap();
        let e = file
            .set_view_with_etype(0, &Datatype::int32(), ft)
            .unwrap_err();
        assert!(matches!(e, atomio::core::Error::View(_)));
    });
}

#[test]
fn close_reports_totals() {
    let fs = FileSystem::new(PlatformProfile::fast_test());
    let reports = run(2, fs.profile().net.clone(), |comm| {
        let mut file = MpiFile::open(&comm, &fs, "tot", OpenMode::ReadWrite).unwrap();
        file.write_at_all(comm.rank() as u64 * 100, &[1u8; 64])
            .unwrap();
        let mut buf = [0u8; 16];
        file.read_at_all(0, &mut buf).unwrap();
        file.close().unwrap()
    });
    for r in &reports {
        assert_eq!(r.bytes_written, 64);
        assert_eq!(r.bytes_read, 16);
        assert!(r.end_vtime > 0);
    }
}
