use atomio_interval::{ByteRange, StridedSet};

use crate::layout::WorkloadError;

/// Which reader-writer interaction pattern a [`ReaderWriter`] round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwPreset {
    /// Checkpoint-then-reread: every round, each rank writes its own
    /// disjoint block (the checkpoint) and then re-reads **its own** block
    /// `rereads` times (verification / restart reads). The access pattern
    /// is conflict-free, so under lock-driven coherence each rank's token
    /// is acquired once and every re-read is served from its warm cache —
    /// the workload where blanket close-to-open invalidation hurts most.
    CheckpointReread,
    /// Producer-consumer ring: every round, each rank writes its own block
    /// and then reads its **left neighbour's** block (rank `r` consumes
    /// what rank `r-1 mod p` produced this round). Every round forces the
    /// consumer's acquisition to revoke the producer's token — flushing
    /// the producer's write-behind data and invalidating exactly the
    /// contested block — so the revocation protocol itself is on the hot
    /// path, and any coherence bug surfaces as a stale (previous-round)
    /// stamp.
    ProducerConsumer,
}

impl RwPreset {
    pub fn label(&self) -> &'static str {
        match self {
            RwPreset::CheckpointReread => "checkpoint-then-reread",
            RwPreset::ProducerConsumer => "producer-consumer",
        }
    }
}

/// Mixed reader-writer workload over `p` ranks owning disjoint contiguous
/// blocks of a shared file — the access shapes the coherence subsystem is
/// evaluated on (see [`RwPreset`]). Unlike the array-decomposition
/// workloads, the interesting axis here is *temporal*: who re-reads or
/// consumes which bytes when, and which accesses conflict across rounds.
///
/// File layout: rank `r`'s block is `[r·block, (r+1)·block)`; a round
/// rewrites every block in place with a round-stamped pattern
/// ([`ReaderWriter::stamp`]), so a reader can tell exactly which round's
/// data (and whose) it observed — a stale read is detectable by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderWriter {
    /// Ranks.
    pub p: usize,
    /// Bytes per rank-owned block.
    pub block: u64,
    /// Write(+read) rounds.
    pub rounds: u64,
    /// Reads of the target block per round (≥ 1).
    pub rereads: u64,
    /// Interaction pattern.
    pub preset: RwPreset,
}

impl ReaderWriter {
    pub fn new(
        p: usize,
        block: u64,
        rounds: u64,
        rereads: u64,
        preset: RwPreset,
    ) -> Result<Self, WorkloadError> {
        if p == 0 {
            return Err(WorkloadError::NoProcesses);
        }
        for (what, got) in [("block", block), ("rounds", rounds), ("rereads", rereads)] {
            if got == 0 {
                return Err(WorkloadError::Invalid {
                    what,
                    got,
                    constraint: "must be at least 1",
                });
            }
        }
        // Stamps encode (writer, round) in one byte; keep them unambiguous.
        if p as u64 * rounds > 250 {
            return Err(WorkloadError::Invalid {
                what: "p * rounds",
                got: p as u64 * rounds,
                constraint: "must be <= 250 so every (writer, round) stamp fits one \
                             unambiguous byte",
            });
        }
        Ok(ReaderWriter {
            p,
            block,
            rounds,
            rereads,
            preset,
        })
    }

    /// Total file bytes.
    pub fn file_bytes(&self) -> u64 {
        self.p as u64 * self.block
    }

    /// The block `rank` owns (and writes every round).
    pub fn owner_range(&self, rank: usize) -> ByteRange {
        assert!(rank < self.p);
        ByteRange::at(rank as u64 * self.block, self.block)
    }

    /// The block `rank` reads in a round: its own for
    /// [`RwPreset::CheckpointReread`], its left neighbour's for
    /// [`RwPreset::ProducerConsumer`].
    pub fn read_range(&self, rank: usize) -> ByteRange {
        match self.preset {
            RwPreset::CheckpointReread => self.owner_range(rank),
            RwPreset::ProducerConsumer => self.owner_range((rank + self.p - 1) % self.p),
        }
    }

    /// The rank whose block `rank` reads in a round.
    pub fn read_target(&self, rank: usize) -> usize {
        match self.preset {
            RwPreset::CheckpointReread => rank,
            RwPreset::ProducerConsumer => (rank + self.p - 1) % self.p,
        }
    }

    /// The byte every cell of `writer`'s block holds after `round`
    /// (0-based): distinct for every `(writer, round)` pair and never 0
    /// (so "round -1" — never written — is distinguishable too).
    pub fn stamp(&self, writer: usize, round: u64) -> u8 {
        (1 + round * self.p as u64 + writer as u64) as u8
    }

    /// Every rank's owned footprint, in rank order (for the atomicity
    /// checker).
    pub fn all_views(&self) -> Vec<StridedSet> {
        (0..self.p)
            .map(|r| StridedSet::from_range(self.owner_range(r)))
            .collect()
    }

    /// The expected whole-file contents after `rounds` complete rounds.
    pub fn expected_final(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.file_bytes() as usize];
        for r in 0..self.p {
            let range = self.owner_range(r);
            let v = self.stamp(r, self.rounds - 1);
            out[range.start as usize..range.end as usize].fill(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_reads_own_block() {
        let w = ReaderWriter::new(4, 1024, 3, 2, RwPreset::CheckpointReread).unwrap();
        assert_eq!(w.file_bytes(), 4096);
        for r in 0..4 {
            assert_eq!(w.read_range(r), w.owner_range(r));
            assert_eq!(w.read_target(r), r);
        }
        // Owned blocks are disjoint and tile the file.
        let union = w
            .all_views()
            .iter()
            .fold(StridedSet::new(), |acc, v| acc.union(v));
        assert_eq!(union.run_count(), 1);
        assert_eq!(union.total_len(), 4096);
    }

    #[test]
    fn producer_consumer_reads_left_neighbour() {
        let w = ReaderWriter::new(4, 512, 2, 1, RwPreset::ProducerConsumer).unwrap();
        assert_eq!(w.read_target(0), 3);
        assert_eq!(w.read_target(1), 0);
        assert_eq!(w.read_range(2), w.owner_range(1));
    }

    #[test]
    fn stamps_are_unique_and_nonzero() {
        let w = ReaderWriter::new(5, 64, 7, 1, RwPreset::CheckpointReread).unwrap();
        let mut seen = std::collections::HashSet::new();
        for round in 0..w.rounds {
            for rank in 0..w.p {
                let s = w.stamp(rank, round);
                assert_ne!(s, 0);
                assert!(seen.insert(s), "stamp collision for ({rank}, {round})");
            }
        }
    }

    #[test]
    fn expected_final_reflects_last_round() {
        let w = ReaderWriter::new(2, 4, 3, 1, RwPreset::CheckpointReread).unwrap();
        let f = w.expected_final();
        assert_eq!(&f[0..4], &[w.stamp(0, 2); 4][..]);
        assert_eq!(&f[4..8], &[w.stamp(1, 2); 4][..]);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReaderWriter::new(0, 1, 1, 1, RwPreset::CheckpointReread).is_err());
        assert!(ReaderWriter::new(2, 0, 1, 1, RwPreset::CheckpointReread).is_err());
        assert!(ReaderWriter::new(2, 8, 1, 0, RwPreset::CheckpointReread).is_err());
        // Too many (writer, round) pairs for one-byte stamps.
        assert!(ReaderWriter::new(16, 8, 64, 1, RwPreset::CheckpointReread).is_err());
    }
}
