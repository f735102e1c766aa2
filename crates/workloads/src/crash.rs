use crate::layout::WorkloadError;
use crate::rw::{ReaderWriter, RwPreset};

/// What a verification read observed when it did **not** see the bytes the
/// round contract promises. The classification is what makes fault runs
/// debuggable: a `Stale` read points at a lost or unreplayed flush, a
/// `Torn` read at a non-atomic recovery (some bytes replayed, some not),
/// and `Corrupt` at bytes no round ever wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAnomaly {
    /// Every byte is uniform but carries an *earlier* round's stamp of the
    /// expected writer: the read landed before (or instead of) the round's
    /// flush — the classic lost-revocation / unreplayed-journal symptom.
    Stale {
        /// Rounds behind the expected stamp (≥ 1).
        rounds_behind: u64,
        got: u8,
        expected: u8,
    },
    /// The buffer mixes two or more stamps: recovery (or a crashed flush)
    /// applied only part of the block — exactly the §2.1 torn outcome the
    /// write-ahead journal exists to prevent.
    Torn {
        /// Offset (within the read) of the first byte that disagreed with
        /// the byte at offset 0.
        first_differing: u64,
        stamps: (u8, u8),
    },
    /// Uniform, but not any stamp this writer ever produced.
    Corrupt { got: u8, expected: u8 },
}

impl std::fmt::Display for ReadAnomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadAnomaly::Stale {
                rounds_behind,
                got,
                expected,
            } => write!(
                f,
                "stale read: stamp {got:#04x} is {rounds_behind} round(s) behind expected \
                 {expected:#04x}"
            ),
            ReadAnomaly::Torn {
                first_differing,
                stamps,
            } => write!(
                f,
                "torn read: stamps {:#04x} and {:#04x} mixed (first divergence at byte {})",
                stamps.0, stamps.1, first_differing
            ),
            ReadAnomaly::Corrupt { got, expected } => {
                write!(
                    f,
                    "corrupt read: {got:#04x} is no stamp (expected {expected:#04x})"
                )
            }
        }
    }
}

impl std::error::Error for ReadAnomaly {}

/// Crash-recovery workload: [`ReaderWriter`]'s round-stamped
/// checkpoint-then-reread rounds run *under a fault schedule* — server
/// crashes mid-flush, torn journal appends, dropped revocations, client
/// deaths — with a checker that classifies every verification read as
/// clean, stale, torn or corrupt ([`ReadAnomaly`]).
///
/// The workload itself stays file-system-agnostic: it owns the geometry,
/// the stamp algebra and the checker, plus the `(seed, faults)` pair the
/// harness feeds to `FaultPlan::seeded` (atomio-pfs) so a run is fully
/// reproducible from this one struct. The atomicity contract under test:
/// after recovery, **every** read must return some *complete* round's
/// stamp — faults may cost time (retries, replays) and may legitimately
/// lose *un-synced* write-behind data of a killed client, but they must
/// never manufacture a torn or corrupt block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecovery {
    /// The underlying round-stamped reader-writer geometry.
    pub rw: ReaderWriter,
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Number of fault events to schedule (0 = fault-free control run,
    /// which must be byte-identical to plain [`ReaderWriter`]).
    pub faults: usize,
}

impl CrashRecovery {
    /// Checkpoint-then-reread geometry (the restart-file pattern crash
    /// recovery is about) with a seeded fault schedule.
    pub fn new(
        p: usize,
        block: u64,
        rounds: u64,
        rereads: u64,
        seed: u64,
        faults: usize,
    ) -> Result<Self, WorkloadError> {
        Ok(CrashRecovery {
            rw: ReaderWriter::new(p, block, rounds, rereads, RwPreset::CheckpointReread)?,
            seed,
            faults,
        })
    }

    /// Decode a stamp byte back to its `(writer, round)` pair; `None` for
    /// 0 (never written) and for values past the last round.
    pub(crate) fn decode(&self, stamp: u8) -> Option<(usize, u64)> {
        let v = (stamp as u64).checked_sub(1)?;
        let (writer, round) = ((v % self.rw.p as u64) as usize, v / self.rw.p as u64);
        (round < self.rw.rounds).then_some((writer, round))
    }

    /// Classify one verification read: `rank` re-read its round-`round`
    /// checkpoint and got `data`. `Ok(())` iff every byte carries exactly
    /// this round's stamp.
    pub fn verify_read(&self, rank: usize, round: u64, data: &[u8]) -> Result<(), ReadAnomaly> {
        let expected = self.rw.stamp(self.rw.read_target(rank), round);
        let first = match data.first() {
            None => return Ok(()),
            Some(&b) => b,
        };
        if let Some(pos) = data.iter().position(|&b| b != first) {
            return Err(ReadAnomaly::Torn {
                first_differing: pos as u64,
                stamps: (first, data[pos]),
            });
        }
        if first == expected {
            return Ok(());
        }
        match self.decode(first) {
            Some((w, r)) if w == self.rw.read_target(rank) && r < round => {
                Err(ReadAnomaly::Stale {
                    rounds_behind: round - r,
                    got: first,
                    expected,
                })
            }
            _ => Err(ReadAnomaly::Corrupt {
                got: first,
                expected,
            }),
        }
    }

    /// Classify a whole-file snapshot taken after recovery: every rank's
    /// block must hold **some** complete round's stamp of its owner (a
    /// crash may roll a killed client's un-synced round back, never tear
    /// one). Returns the per-rank round each block survived at.
    ///
    /// The image is read in place: `chunks(start, end)` yields the bytes of
    /// `[start, end)` in order, in as many pieces as the image keeps them
    /// (a snapshot's blocks, or one slice). Panics when the image ends
    /// inside a block.
    pub fn verify_snapshot<'a, C>(
        &self,
        chunks: impl Fn(u64, u64) -> C,
    ) -> Result<Vec<u64>, (usize, ReadAnomaly)>
    where
        C: IntoIterator<Item = &'a [u8]>,
    {
        let mut survived = Vec::with_capacity(self.rw.p);
        for rank in 0..self.rw.p {
            let range = self.rw.owner_range(rank);
            let (mut first, mut seen) = (None, 0u64);
            for chunk in chunks(range.start, range.end) {
                let Some(&lead) = chunk.first() else { continue };
                let first = *first.get_or_insert(lead);
                if let Some(pos) = chunk.iter().position(|&b| b != first) {
                    return Err((
                        rank,
                        ReadAnomaly::Torn {
                            first_differing: seen + pos as u64,
                            stamps: (first, chunk[pos]),
                        },
                    ));
                }
                seen += chunk.len() as u64;
            }
            assert_eq!(
                seen,
                range.len(),
                "the image ends inside rank {rank}'s block"
            );
            match first.and_then(|stamp| self.decode(stamp)) {
                Some((w, r)) if w == rank => survived.push(r),
                _ => {
                    return Err((
                        rank,
                        ReadAnomaly::Corrupt {
                            got: first.unwrap_or_default(),
                            expected: self.rw.stamp(rank, self.rw.rounds - 1),
                        },
                    ))
                }
            }
        }
        Ok(survived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CrashRecovery {
        CrashRecovery::new(4, 64, 3, 2, 0xC0FFEE, 5).unwrap()
    }

    #[test]
    fn decode_inverts_stamp() {
        let c = spec();
        for round in 0..c.rw.rounds {
            for rank in 0..c.rw.p {
                assert_eq!(c.decode(c.rw.stamp(rank, round)), Some((rank, round)));
            }
        }
        assert_eq!(c.decode(0), None);
        assert_eq!(c.decode(c.rw.stamp(c.rw.p - 1, c.rw.rounds - 1) + 1), None);
    }

    #[test]
    fn clean_read_passes() {
        let c = spec();
        let buf = vec![c.rw.stamp(1, 2); 64];
        assert_eq!(c.verify_read(1, 2, &buf), Ok(()));
    }

    #[test]
    fn stale_read_is_classified_with_lag() {
        let c = spec();
        let buf = vec![c.rw.stamp(2, 0); 64];
        match c.verify_read(2, 2, &buf) {
            Err(ReadAnomaly::Stale { rounds_behind, .. }) => assert_eq!(rounds_behind, 2),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn torn_read_reports_divergence_point() {
        let c = spec();
        let mut buf = vec![c.rw.stamp(0, 1); 64];
        buf[40..].fill(c.rw.stamp(0, 0));
        match c.verify_read(0, 1, &buf) {
            Err(ReadAnomaly::Torn {
                first_differing, ..
            }) => assert_eq!(first_differing, 40),
            other => panic!("expected torn, got {other:?}"),
        }
    }

    #[test]
    fn foreign_stamp_is_corrupt_not_stale() {
        let c = spec();
        // Rank 3's earlier stamp in rank 0's checkpoint is corruption, not
        // staleness: rank 0 never wrote it.
        let buf = vec![c.rw.stamp(3, 0); 64];
        assert!(matches!(
            c.verify_read(0, 1, &buf),
            Err(ReadAnomaly::Corrupt { .. })
        ));
    }

    #[test]
    fn snapshot_checker_accepts_rolled_back_rounds() {
        let c = spec();
        let mut snap = c.rw.expected_final();
        // Rank 2's block rolled back to round 0 (its client died before
        // syncing later rounds): legal, reported as survived-at-0.
        let range = c.rw.owner_range(2);
        snap[range.start as usize..range.end as usize].fill(c.rw.stamp(2, 0));
        assert_eq!(c.verify_snapshot(slice(&snap)).unwrap(), vec![2, 2, 0, 2]);
        // But a torn block is never legal.
        snap[range.start as usize] = c.rw.stamp(2, 1);
        assert!(matches!(
            c.verify_snapshot(slice(&snap)),
            Err((2, ReadAnomaly::Torn { .. }))
        ));
    }

    /// A chunk source answered from one slice.
    fn slice<'a>(image: &'a [u8]) -> impl Fn(u64, u64) -> [&'a [u8]; 1] + 'a {
        move |start, end| [&image[start as usize..end as usize]]
    }

    #[test]
    fn snapshot_checker_reads_a_block_in_pieces() {
        let c = spec();
        let mut snap = c.rw.expected_final();
        let range = c.rw.owner_range(1);
        let pieces = |start: u64, end: u64| snap[start as usize..end as usize].chunks(24);
        assert_eq!(c.verify_snapshot(pieces).unwrap(), vec![2, 2, 2, 2]);
        // The divergence is placed within the block, not within its piece.
        snap[range.start as usize + 50] = c.rw.stamp(1, 0);
        let pieces = |start: u64, end: u64| snap[start as usize..end as usize].chunks(24);
        assert_eq!(
            c.verify_snapshot(pieces),
            Err((
                1,
                ReadAnomaly::Torn {
                    first_differing: 50,
                    stamps: (c.rw.stamp(1, 2), c.rw.stamp(1, 0)),
                }
            ))
        );
    }
}
