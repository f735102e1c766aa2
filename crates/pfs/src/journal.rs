//! Write-ahead revocation journal: the durability half of the lock-driven
//! coherence protocol.
//!
//! PR 5's visibility contract said dirty write-behind data reaches the
//! servers when a conflicting acquisition revokes the holder's token or
//! the writer syncs — and implicitly assumed both always *finish*. With
//! fault injection they may not: a server can die between accepting a
//! flush and applying it. The journal turns the visibility contract into a
//! durability contract: every revocation flush and writer sync **appends
//! an intent record first** (epoch, offset, bytes), and only then mutates
//! the server blocks. A server killed mid-flush recovers by replaying
//! committed records and discarding torn ones:
//!
//! * record committed + applied → apply again on replay (idempotent);
//! * record committed, server died before apply → replay lands it — the
//!   flush succeeded the moment the commit did;
//! * record torn (died mid-append) → replay discards it; the flusher saw
//!   an error and still holds the bytes, so it re-appends after recovery.
//!
//! One journal per file, shared by all clients (a real system would home
//! journal segments per server; the per-file granularity keeps replay
//! single-pass without changing what is recoverable). Readers consult it
//! too: a read overlapping a pending intent replays first, so a committed
//! record whose byte range spans a *healthy* server can never be read
//! around while its home server is down.

// R1: fault-reachable code returns `FsError`; it never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use atomio_check::OrderedMutex;
use atomio_interval::ByteRange;

use crate::lockclass;
use crate::storage::Storage;

/// One intent record: `data` to land at `offset`, stamped with a
/// monotonically increasing `epoch` (the replay order). A torn record —
/// the append died partway — keeps its intended length for diagnostics but
/// has no recoverable payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalRecord {
    pub epoch: u64,
    pub offset: u64,
    pub data: Vec<u8>,
    /// `false` = torn: the append never completed, the payload is garbage
    /// and replay must discard it.
    pub committed: bool,
}

impl JournalRecord {
    pub(crate) fn range(&self) -> ByteRange {
        ByteRange::at(self.offset, self.data.len() as u64)
    }
}

/// What one replay pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayReport {
    /// Committed records applied to the block store.
    pub applied_records: u64,
    /// Bytes those records carried.
    pub applied_bytes: u64,
    /// Torn records discarded.
    pub torn_discarded: u64,
}

#[derive(Debug, Default)]
struct JState {
    records: Vec<JournalRecord>,
    next_epoch: u64,
}

/// The per-file write-ahead journal. `pending` mirrors the record count in
/// a relaxed atomic so the read-path gate costs one load when the journal
/// is empty — the permanent state of a fault-free run.
#[derive(Debug)]
pub(crate) struct RevocationJournal {
    state: OrderedMutex<JState>,
    pending: AtomicU64,
}

impl Default for RevocationJournal {
    fn default() -> Self {
        RevocationJournal {
            state: lockclass::journal(JState::default()),
            pending: AtomicU64::new(0),
        }
    }
}

impl RevocationJournal {
    pub(crate) fn new() -> Self {
        RevocationJournal::default()
    }

    /// Records currently pending (committed-but-unapplied or torn).
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Append a committed intent record; returns its epoch. The caller
    /// must either apply the bytes and [`RevocationJournal::mark_applied`]
    /// the epoch, or leave the record for recovery replay to land.
    pub(crate) fn append_committed(&self, offset: u64, data: &[u8]) -> u64 {
        let mut st = self.state.lock();
        st.next_epoch += 1;
        let epoch = st.next_epoch;
        st.records.push(JournalRecord {
            epoch,
            offset,
            data: data.to_vec(),
            committed: true,
        });
        self.pending.fetch_add(1, Ordering::Release);
        epoch
    }

    /// Record a torn append: the crash cut the record short, so its
    /// payload is unrecoverable and replay will discard it. `intended_len`
    /// is kept (as a zero payload of that length's range start) purely so
    /// the record is visible to diagnostics; it never reaches storage.
    pub(crate) fn append_torn(&self, offset: u64, intended_len: u64) {
        let mut st = self.state.lock();
        st.next_epoch += 1;
        let epoch = st.next_epoch;
        st.records.push(JournalRecord {
            epoch,
            offset,
            data: vec![0; intended_len as usize],
            committed: false,
        });
        self.pending.fetch_add(1, Ordering::Release);
    }

    /// Remove a record the caller has just applied to storage. No-op if a
    /// concurrent replay already consumed it (replay and flusher applying
    /// the same committed bytes twice is idempotent by construction).
    pub(crate) fn mark_applied(&self, epoch: u64) {
        let mut st = self.state.lock();
        if let Some(pos) = st.records.iter().position(|r| r.epoch == epoch) {
            st.records.swap_remove(pos);
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    /// Whether any pending record overlaps `range` — the read-path gate.
    pub(crate) fn overlaps(&self, range: ByteRange) -> bool {
        if self.pending() == 0 || range.is_empty() {
            return false;
        }
        self.state
            .lock()
            .records
            .iter()
            .any(|r| r.range().overlaps(&range))
    }

    /// Recovery replay: apply every committed record to `storage` in epoch
    /// order, discard every torn one, and clear the journal. Idempotent
    /// re-application is safe — a record's bytes may already be on disk if
    /// the crash hit after the apply.
    pub(crate) fn replay(&self, storage: &Storage) -> ReplayReport {
        let records = {
            let mut st = self.state.lock();
            self.pending.store(0, Ordering::Release);
            std::mem::take(&mut st.records)
        };
        let mut report = ReplayReport::default();
        let mut records = records;
        records.sort_by_key(|r| r.epoch);
        for r in records {
            if r.committed {
                storage.write_atomic(r.offset, &r.data);
                report.applied_records += 1;
                report.applied_bytes += r.data.len() as u64;
            } else {
                report.torn_discarded += 1;
            }
        }
        report
    }

    /// Pending records, oldest first (diagnostics and tests).
    pub(crate) fn pending_records(&self) -> Vec<JournalRecord> {
        let mut recs = self.state.lock().records.clone();
        recs.sort_by_key(|r| r.epoch);
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_apply_mark_leaves_nothing_pending() {
        let j = RevocationJournal::new();
        let s = Storage::new();
        let e = j.append_committed(10, b"hello");
        assert_eq!(j.pending(), 1);
        s.write_atomic(10, b"hello");
        j.mark_applied(e);
        assert_eq!(j.pending(), 0);
        assert_eq!(j.replay(&s), ReplayReport::default());
    }

    #[test]
    fn replay_lands_committed_records_in_epoch_order() {
        let j = RevocationJournal::new();
        let s = Storage::new();
        // Two committed intents to the same range, neither applied (the
        // server died between commit and apply, twice): replay must land
        // the *later* epoch's bytes.
        j.append_committed(0, b"aaaa");
        j.append_committed(0, b"bbbb");
        let rep = j.replay(&s);
        assert_eq!(rep.applied_records, 2);
        assert_eq!(rep.applied_bytes, 8);
        assert_eq!(rep.torn_discarded, 0);
        assert_eq!(&s.snapshot().to_vec()[..4], b"bbbb");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn replay_discards_torn_final_record() {
        // The acceptance scenario in miniature: a committed record, then a
        // torn final record (the crash hit mid-append). Replay applies the
        // first, discards the second, and the torn bytes never reach
        // storage.
        let j = RevocationJournal::new();
        let s = Storage::new();
        s.write_atomic(0, b"oldoldold");
        j.append_committed(0, b"new");
        j.append_torn(3, 6);
        assert!(j.overlaps(ByteRange::new(4, 5)));
        let rep = j.replay(&s);
        assert_eq!(rep.applied_records, 1);
        assert_eq!(rep.torn_discarded, 1);
        let snap = s.snapshot().to_vec();
        assert_eq!(&snap[..3], b"new", "committed record replayed");
        assert_eq!(&snap[3..9], b"oldold", "torn record must not land");
        assert!(!j.overlaps(ByteRange::new(0, 9)), "journal drained");
    }

    #[test]
    fn replay_is_idempotent_with_already_applied_bytes() {
        let j = RevocationJournal::new();
        let s = Storage::new();
        j.append_committed(5, b"xyz");
        s.write_atomic(5, b"xyz"); // applied, but crash before mark_applied
        let rep = j.replay(&s);
        assert_eq!(rep.applied_records, 1);
        assert_eq!(&s.snapshot().to_vec()[5..8], b"xyz");
    }

    #[test]
    fn overlap_gate_is_byte_accurate() {
        let j = RevocationJournal::new();
        j.append_committed(100, &[1; 10]);
        assert!(j.overlaps(ByteRange::new(105, 106)));
        assert!(!j.overlaps(ByteRange::new(0, 100)));
        assert!(!j.overlaps(ByteRange::new(110, 200)));
    }
}
