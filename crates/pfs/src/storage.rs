// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_types,
    reason = "the block map and the atomicity gate are RwLocks, reader-parallel by design, \
              and OrderedMutex wraps a mutex only. Storage locks are leaves, taken with no \
              other lock held and never nested, so they need no rank in the lock order"
)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::BytesMut;
use parking_lot::RwLock;

/// Block size of the sparse store. Unwritten blocks read as zeroes, like
/// holes in a Unix file.
pub(crate) const BLOCK_SIZE: u64 = 64 * 1024;

/// Chunk granularity at which *non-atomic* writes are applied. Two racing
/// non-atomic writers can interleave at this granularity, which is how the
/// simulator exhibits the intra-call interleaving POSIX atomicity forbids.
pub(crate) const NONATOMIC_CHUNK: u64 = 4 * 1024;

/// The real bytes of one file: a sparse block store shared by all simulated
/// clients.
///
/// Two application modes (paper §2.1):
/// * **POSIX-atomic** — the whole multi-byte write is applied under an
///   exclusive gate, so a concurrent reader/writer sees all or none of it.
/// * **Non-atomic** — the write is applied in `NONATOMIC_CHUNK`-byte pieces
///   with scheduling yields in between, so concurrent writes to the same
///   region genuinely interleave (the "undefined result" the standard
///   warns about).
#[derive(Debug, Default)]
pub struct Storage {
    blocks: RwLock<HashMap<u64, BytesMut>>,
    len: AtomicU64,
    /// Exclusive gate giving single-call atomicity to writes (and
    /// consistent snapshots to atomic reads).
    gate: RwLock<()>,
}

impl Storage {
    pub fn new() -> Self {
        Storage::default()
    }

    /// Current file length (the max end offset ever written).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply one write call atomically (POSIX semantics).
    pub fn write_atomic(&self, offset: u64, data: &[u8]) {
        let _g = self.gate.write();
        self.apply(offset, data);
    }

    /// Apply one write call non-atomically: chunked at `chunk` bytes with
    /// yields in between, so racing writers interleave.
    pub(crate) fn write_nonatomic(&self, offset: u64, data: &[u8], chunk: u64) {
        let chunk = chunk.max(1) as usize;
        let mut off = offset;
        for piece in data.chunks(chunk) {
            {
                let _g = self.gate.read();
                self.apply(off, piece);
            }
            off += piece.len() as u64;
            std::thread::yield_now();
        }
    }

    /// Apply several segments as one atomic operation — the
    /// `lio_listio`-with-atomicity extension discussed in paper §3.2.
    pub(crate) fn write_listio_atomic(&self, segments: &[(u64, &[u8])]) {
        let _g = self.gate.write();
        for (off, data) in segments {
            self.apply(*off, data);
        }
    }

    /// Read with single-call atomicity (consistent with atomic writes).
    pub fn read_atomic(&self, offset: u64, buf: &mut [u8]) {
        let _g = self.gate.read();
        self.fetch(offset, buf);
    }

    /// Copy of the whole file (for verification). Takes the gate so the
    /// snapshot is consistent with atomic writes.
    pub fn snapshot(&self) -> Vec<u8> {
        let _g = self.gate.write();
        let mut out = vec![0u8; self.len() as usize];
        self.fetch(0, &mut out);
        out
    }

    /// Set the file length to exactly `new_len`, discarding data beyond it.
    pub fn truncate(&self, new_len: u64) {
        let _g = self.gate.write();
        let mut blocks = self.blocks.write();
        blocks.retain(|&b, _| b * BLOCK_SIZE < new_len);
        if let Some(buf) = blocks.get_mut(&(new_len / BLOCK_SIZE)) {
            let keep = (new_len % BLOCK_SIZE) as usize;
            buf[keep..].fill(0);
        }
        self.len.store(new_len, Ordering::Release);
    }

    fn apply(&self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut blocks = self.blocks.write();
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor as u64;
            let block_idx = abs / BLOCK_SIZE;
            let in_block = (abs % BLOCK_SIZE) as usize;
            let take = data.len() - cursor;
            let take = take.min(BLOCK_SIZE as usize - in_block);
            let block = blocks
                .entry(block_idx)
                .or_insert_with(|| BytesMut::zeroed(BLOCK_SIZE as usize));
            block[in_block..in_block + take].copy_from_slice(&data[cursor..cursor + take]);
            cursor += take;
        }
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::AcqRel);
    }

    fn fetch(&self, offset: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let blocks = self.blocks.read();
        let mut cursor = 0usize;
        while cursor < buf.len() {
            let abs = offset + cursor as u64;
            let block_idx = abs / BLOCK_SIZE;
            let in_block = (abs % BLOCK_SIZE) as usize;
            let take = (buf.len() - cursor).min(BLOCK_SIZE as usize - in_block);
            match blocks.get(&block_idx) {
                Some(block) => {
                    buf[cursor..cursor + take].copy_from_slice(&block[in_block..in_block + take]);
                }
                None => buf[cursor..cursor + take].fill(0),
            }
            cursor += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn write_then_read_roundtrip() {
        let s = Storage::new();
        s.write_atomic(10, b"hello");
        let mut buf = [0u8; 5];
        s.read_atomic(10, &mut buf);
        assert_eq!(&buf, b"hello");
        assert_eq!(s.len(), 15);
    }

    #[test]
    fn holes_read_as_zero() {
        let s = Storage::new();
        s.write_atomic(BLOCK_SIZE * 2, b"x");
        let mut buf = [9u8; 4];
        s.read_atomic(0, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn spans_block_boundaries() {
        let s = Storage::new();
        let data: Vec<u8> = (0..=255)
            .cycle()
            .take(3 * BLOCK_SIZE as usize)
            .map(|x| x as u8)
            .collect();
        let off = BLOCK_SIZE - 17;
        s.write_atomic(off, &data);
        let mut buf = vec![0u8; data.len()];
        s.read_atomic(off, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn snapshot_covers_whole_file() {
        let s = Storage::new();
        s.write_atomic(0, b"abc");
        s.write_atomic(100, b"xyz");
        let snap = s.snapshot();
        assert_eq!(snap.len(), 103);
        assert_eq!(&snap[0..3], b"abc");
        assert_eq!(&snap[100..103], b"xyz");
        assert!(snap[3..100].iter().all(|&b| b == 0));
    }

    #[test]
    fn truncate_discards_and_zeroes() {
        let s = Storage::new();
        s.write_atomic(0, &vec![7u8; 2 * BLOCK_SIZE as usize]);
        s.truncate(BLOCK_SIZE + 10);
        assert_eq!(s.len(), BLOCK_SIZE + 10);
        // Re-extend and confirm the tail was zeroed.
        s.write_atomic(2 * BLOCK_SIZE, b"z");
        let snap = s.snapshot();
        assert_eq!(snap[BLOCK_SIZE as usize + 9], 7);
        assert_eq!(snap[BLOCK_SIZE as usize + 10], 0);
    }

    #[test]
    fn atomic_writes_never_interleave() {
        // Two threads repeatedly write the same range with distinct fill
        // bytes; under write_atomic every read must observe a uniform value.
        let s = Arc::new(Storage::new());
        let len = 8 * 1024usize;
        let writers: Vec<_> = [0x11u8, 0x22]
            .into_iter()
            .map(|fill| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let data = vec![fill; len];
                    for _ in 0..50 {
                        s.write_atomic(0, &data);
                    }
                })
            })
            .collect();
        let mut saw_mixed = false;
        for _ in 0..200 {
            let mut buf = vec![0u8; len];
            s.read_atomic(0, &mut buf);
            let first = buf[0];
            if first != 0 && buf.iter().any(|&b| b != first) {
                saw_mixed = true;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert!(!saw_mixed, "atomic write was observed partially applied");
    }

    #[test]
    fn nonatomic_writes_can_interleave() {
        // With chunked non-atomic application, two racing writers over a
        // large range virtually always leave a mixed result somewhere in
        // repeated trials.
        let s = Arc::new(Storage::new());
        let len = 512 * 1024usize;
        let mut saw_mixed = false;
        for _trial in 0..20 {
            // Release both writers together; otherwise a fast host can run
            // the first thread to completion before the second even spawns.
            let start = Arc::new(std::sync::Barrier::new(2));
            let writers: Vec<_> = [0xAAu8, 0xBB]
                .into_iter()
                .map(|fill| {
                    let s = Arc::clone(&s);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        s.write_nonatomic(0, &vec![fill; len], NONATOMIC_CHUNK)
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            let snap = s.snapshot();
            let first = snap[0];
            if snap.iter().any(|&b| b != first) {
                saw_mixed = true;
                break;
            }
        }
        assert!(
            saw_mixed,
            "non-atomic writes never interleaved in 20 trials"
        );
    }

    #[test]
    fn listio_applies_all_segments_atomically() {
        let s = Storage::new();
        s.write_listio_atomic(&[(0, b"ab".as_slice()), (10, b"cd".as_slice())]);
        let snap = s.snapshot();
        assert_eq!(&snap[0..2], b"ab");
        assert_eq!(&snap[10..12], b"cd");
    }
}
