//! Verification fill patterns.
//!
//! Each rank writes bytes that encode *who wrote them*, so the atomicity
//! verifier can decide, for every overlapped region, which rank's data
//! survived. Patterns must be pairwise distinct at every file offset;
//! both generators below guarantee that for up to 251 ranks.

/// Constant per-rank stamp: every byte rank `r` writes is `stamp_byte(r)`.
pub fn rank_stamp(rank: usize) -> impl Fn(u64) -> u8 + Clone {
    let b = stamp_byte(rank);
    move |_offset| b
}

/// The stamp byte for `rank` (distinct for ranks 0..=250, never 0 so
/// unwritten zero bytes are distinguishable).
pub fn stamp_byte(rank: usize) -> u8 {
    (rank % 251 + 1) as u8
}

/// Stamps for all ranks `0..p`, in rank order.
pub fn rank_stamps(p: usize) -> Vec<impl Fn(u64) -> u8 + Clone> {
    (0..p).map(rank_stamp).collect()
}

/// Position-dependent pattern: mixes the file offset into the byte while
/// keeping ranks pairwise distinct at every offset. Catches bugs a
/// constant stamp cannot (e.g. data written to the wrong offset).
pub fn offset_stamp(rank: usize) -> impl Fn(u64) -> u8 + Clone {
    let salt = (rank % 251) as u64;
    move |offset| {
        let h = offset.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        // 251 is prime: adding distinct salts mod 251 keeps ranks distinct
        // at every offset, and +1 keeps the byte nonzero.
        ((h % 251 + salt) % 251 + 1) as u8
    }
}

/// Offset-stamps for all ranks `0..p`.
pub fn offset_stamps(p: usize) -> Vec<impl Fn(u64) -> u8 + Clone> {
    (0..p).map(offset_stamp).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_distinct_and_nonzero() {
        let stamps: Vec<u8> = (0..251).map(stamp_byte).collect();
        for (i, &a) in stamps.iter().enumerate() {
            assert_ne!(a, 0);
            for &b in &stamps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn offset_stamps_distinct_across_ranks_at_every_offset() {
        let pats: Vec<_> = offset_stamps(16);
        for offset in (0..10_000u64).step_by(97) {
            let vals: Vec<u8> = pats.iter().map(|p| p(offset)).collect();
            for i in 0..vals.len() {
                for j in (i + 1)..vals.len() {
                    assert_ne!(vals[i], vals[j], "offset {offset}: ranks {i},{j} collide");
                }
            }
        }
    }

    #[test]
    fn offset_stamp_varies_with_position() {
        let p = offset_stamp(3);
        let distinct: std::collections::HashSet<u8> = (0..1000).map(&p).collect();
        assert!(distinct.len() > 50, "pattern should vary with offset");
    }
}
