// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_types,
    reason = "the block map and the atomicity gate are RwLocks, reader-parallel by design, \
              and OrderedMutex wraps a mutex only. Storage locks are leaves, taken with no \
              other lock held and never nested, so they need no rank in the lock order"
)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Block size of the sparse store. Unwritten blocks read as zeroes, like
/// holes in a Unix file.
pub(crate) const BLOCK_SIZE: u64 = 64 * 1024;
const BLOCK: usize = BLOCK_SIZE as usize;

/// What a hole reads as.
static ZEROES: [u8; BLOCK] = [0; BLOCK];

/// Chunk granularity at which *non-atomic* writes are applied. Two racing
/// non-atomic writers can interleave at this granularity, which is how the
/// simulator exhibits the intra-call interleaving POSIX atomicity forbids.
pub(crate) const NONATOMIC_CHUNK: u64 = 4 * 1024;

/// One block of bytes (one allocation), shared by the storage and every
/// snapshot that holds it; `None` is a hole.
type Block = Option<Arc<[u8]>>;

/// A zeroed block: one allocation.
fn zero_block() -> Arc<[u8]> {
    std::iter::repeat_n(0u8, BLOCK).collect()
}

/// Write `data` at `offset` into `blocks`: a hole gets a zeroed block, and
/// a block another holder shares is copied first (`Arc::make_mut`).
fn write_blocks(blocks: &mut Vec<Block>, offset: u64, data: &[u8]) {
    let need = (offset + data.len() as u64).div_ceil(BLOCK_SIZE) as usize;
    if blocks.len() < need {
        blocks.resize(need, None);
    }
    let mut cursor = 0usize;
    while cursor < data.len() {
        let abs = offset + cursor as u64;
        let at = (abs % BLOCK_SIZE) as usize;
        let take = (data.len() - cursor).min(BLOCK - at);
        let block = blocks[(abs / BLOCK_SIZE) as usize].get_or_insert_with(zero_block);
        Arc::make_mut(block)[at..at + take].copy_from_slice(&data[cursor..cursor + take]);
        cursor += take;
    }
}

/// The bytes of `[start, end)` in order, borrowed in place: one chunk per
/// block touched, a hole's (or a missing block's) from [`ZEROES`].
fn chunks(blocks: &[Block], start: u64, end: u64) -> impl Iterator<Item = &[u8]> {
    let touched = if start < end {
        start / BLOCK_SIZE..end.div_ceil(BLOCK_SIZE)
    } else {
        0..0
    };
    touched.map(move |b| {
        let base = b * BLOCK_SIZE;
        let bytes: &[u8] = match blocks.get(b as usize) {
            Some(Some(block)) => block,
            _ => &ZEROES,
        };
        &bytes[(start.max(base) - base) as usize..(end.min(base + BLOCK_SIZE) - base) as usize]
    })
}

/// The real bytes of one file: a sparse block store shared by all simulated
/// clients. Blocks are reference-counted and copy-on-write, so a
/// [`Snapshot`] shares them instead of copying the file.
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
    /// Block `i` holds bytes `[i, i + 1) * BLOCK_SIZE`.
    blocks: RwLock<Vec<Block>>,
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
        let blocks = self.blocks.read();
        let mut at = 0;
        for chunk in chunks(&blocks, offset, offset + buf.len() as u64) {
            buf[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        }
    }

    /// The whole file as a [`Snapshot`], consistent with atomic writes (it
    /// takes the gate). It costs one reference per block and copies no
    /// byte; a later write copies only the block it touches.
    pub fn snapshot(&self) -> Snapshot {
        let _g = self.gate.write();
        Snapshot {
            blocks: self.blocks.read().clone(),
            len: self.len(),
        }
    }

    /// Set the file length to exactly `new_len`, discarding data beyond it.
    pub fn truncate(&self, new_len: u64) {
        let _g = self.gate.write();
        let mut blocks = self.blocks.write();
        blocks.truncate(new_len.div_ceil(BLOCK_SIZE) as usize);
        if let Some(Some(block)) = blocks.get_mut((new_len / BLOCK_SIZE) as usize) {
            Arc::make_mut(block)[(new_len % BLOCK_SIZE) as usize..].fill(0);
        }
        self.len.store(new_len, Ordering::Release);
    }

    fn apply(&self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut blocks = self.blocks.write();
        write_blocks(&mut blocks, offset, data);
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::AcqRel);
    }
}

/// A file's bytes at one instant, sharing the file's blocks: taking it
/// copies block references, and a block is copied only when the file (or
/// the snapshot itself) writes it afterwards. It is read in place, a block
/// at a time ([`Snapshot::chunks`]); comparing it never flattens it, and
/// [`Snapshot::to_vec`] is the one copy.
#[derive(Clone, Default)]
pub struct Snapshot {
    blocks: Vec<Block>,
    len: u64,
}

impl Snapshot {
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of `[start, end)`, clipped to the snapshot, in order and in
    /// place: one chunk per 64 KiB block touched, a hole's read as zeroes.
    pub fn chunks(&self, start: u64, end: u64) -> impl Iterator<Item = &[u8]> {
        chunks(&self.blocks, start.min(self.len), end.min(self.len))
    }

    /// The bytes as one contiguous vector: a full copy.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len as usize);
        for chunk in self.chunks(0, self.len) {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The first byte, writable (its block is copied if shared), or `None`
    /// when empty.
    pub fn first_mut(&mut self) -> Option<&mut u8> {
        if self.len == 0 {
            return None;
        }
        if self.blocks.is_empty() {
            self.blocks.push(None);
        }
        Arc::make_mut(self.blocks[0].get_or_insert_with(zero_block)).first_mut()
    }

    /// Write `data` at `offset` into this snapshot only (a journal record
    /// that is durable but not yet applied), extending it as needed.
    pub(crate) fn overlay(&mut self, offset: u64, data: &[u8]) {
        write_blocks(&mut self.blocks, offset, data);
        self.len = self.len.max(offset + data.len() as u64);
    }
}

/// Prints like the `Vec<u8>` it stands for.
impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.chunks(0, self.len).flatten())
            .finish()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        // Equal lengths tile into equal chunks; a shared block is equal.
        self.len == other.len
            && self
                .chunks(0, self.len)
                .zip(other.chunks(0, other.len))
                .all(|(a, b)| std::ptr::eq(a, b) || a == b)
    }
}

impl PartialEq<[u8]> for Snapshot {
    fn eq(&self, other: &[u8]) -> bool {
        let mut rest = other;
        self.len == other.len() as u64
            && self.chunks(0, self.len).all(|chunk| {
                let (head, tail) = rest.split_at(chunk.len());
                rest = tail;
                head == chunk
            })
    }
}

impl PartialEq<Vec<u8>> for Snapshot {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Snapshot {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let snap = s.snapshot().to_vec();
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
        let snap = s.snapshot().to_vec();
        assert_eq!(snap[BLOCK_SIZE as usize + 9], 7);
        assert_eq!(snap[BLOCK_SIZE as usize + 10], 0);
    }

    /// Whether block `i` of the storage and of `snap` is one allocation.
    fn shared(s: &Storage, snap: &Snapshot, i: usize) -> bool {
        match (&s.blocks.read()[i], &snap.blocks[i]) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn snapshot_shares_every_block() {
        let s = Storage::new();
        s.write_atomic(0, &vec![1u8; 2 * BLOCK]);
        s.write_atomic(3 * BLOCK_SIZE, b"tail");
        let snap = s.snapshot();
        assert_eq!(snap.blocks.len(), 4);
        assert!([0, 1, 3].iter().all(|&i| shared(&s, &snap, i)));
        assert!(snap.blocks[2].is_none(), "a hole stays a hole");
        assert_eq!(snap.chunks(0, snap.len()).count(), 4);
    }

    #[test]
    fn a_write_copies_only_the_block_it_touches() {
        let s = Storage::new();
        s.write_atomic(0, &vec![1u8; 3 * BLOCK]);
        let snap = s.snapshot();
        s.write_atomic(BLOCK_SIZE + 5, b"x");
        assert!(shared(&s, &snap, 0) && shared(&s, &snap, 2));
        assert!(!shared(&s, &snap, 1), "the written block was copied");
        // Unshared again, the next write to it copies nothing.
        let copy = s.blocks.read()[1].as_ref().map(|b| b.as_ptr());
        s.write_atomic(BLOCK_SIZE + 6, b"y");
        assert_eq!(s.blocks.read()[1].as_ref().map(|b| b.as_ptr()), copy);
    }

    #[test]
    fn a_held_snapshot_keeps_its_bytes() {
        let s = Storage::new();
        let before: Vec<u8> = (0..2 * BLOCK + 100).map(|i| i as u8).collect();
        s.write_atomic(0, &before);
        let held = s.snapshot();
        s.write_atomic(10, b"overwritten");
        s.truncate(BLOCK_SIZE + 7);
        // A journal overlay lands in its own snapshot only.
        let mut overlaid = s.snapshot();
        overlaid.overlay(3 * BLOCK_SIZE, b"journal");
        assert_eq!(overlaid.len(), 3 * BLOCK_SIZE + 7);
        assert_eq!(overlaid.to_vec()[3 * BLOCK..], *b"journal");
        assert_eq!(s.len(), BLOCK_SIZE + 7, "the overlay never reaches storage");
        assert_eq!(s.blocks.read().len(), 2);
        assert_ne!(s.snapshot(), overlaid);
        // So does a flipped byte.
        *overlaid.first_mut().unwrap() ^= 0xFF;
        let mut first = [0u8];
        s.read_atomic(0, &mut first);
        assert_eq!(first, [before[0]]);
        assert_eq!(held, before, "the held snapshot reads its own bytes");
    }

    #[test]
    fn holes_compare_as_zeroes() {
        let s = Storage::new();
        s.write_atomic(2 * BLOCK_SIZE, b"z");
        let mut want = vec![0u8; 2 * BLOCK + 1];
        want[2 * BLOCK] = b'z';
        assert_eq!(s.snapshot(), want);
        assert_eq!(Snapshot::default(), Vec::new());
        assert_eq!(Snapshot::default().first_mut(), None);
        // A length with no block behind it: the flipped byte gets one.
        let extended = Storage::new();
        extended.truncate(10);
        let mut snap = extended.snapshot();
        *snap.first_mut().unwrap() = 1;
        assert_eq!(snap.to_vec(), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(extended.snapshot(), &[0u8; 10]);
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
            let snap = s.snapshot().to_vec();
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
        let snap = s.snapshot().to_vec();
        assert_eq!(&snap[0..2], b"ab");
        assert_eq!(&snap[10..12], b"cd");
    }
}
