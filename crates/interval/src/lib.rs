//! Byte-range interval algebra.
//!
//! File views, byte-range locks, overlap matrices and the rank-ordering
//! strategy's view subtraction all reduce to set algebra over half-open byte
//! ranges `[start, end)`. [`IntervalSet`] keeps a canonical form — sorted,
//! disjoint, non-empty, maximally coalesced runs — so equality is structural
//! and every operation is a linear merge.

//! [`StridedSet`] adds a run-length-compressed periodic representation —
//! sorted trains of `(start, len, stride, count)` — so the regular
//! footprints of array partitionings cost O(trains) to describe, exchange
//! and negotiate instead of O(rows), with lossless promotion to and from
//! the dense form. Its form is canonical too — the maximal runs, cut
//! greedily into arithmetic progressions, and a stretch that repeats
//! period after period folded into one comb per run — so `==` and the
//! `WireSize` it is charged are functions of the byte set alone.
//!
//! The rule between the two forms: a canonical [`StridedSet`] is what is
//! shipped or compared — lock requests, revocation messages, negotiation
//! footprints, wire charges. State that grows grant by grant — a lock
//! domain's release times and token owners, a cache's coverage — is a
//! [`RunMap`], which rewrites only the runs an update meets instead of
//! recompressing the whole set.

mod range;
mod runmap;
mod set;
mod strided;

pub use range::ByteRange;
pub use runmap::RunMap;
pub use set::IntervalSet;
pub use strided::{StridedSet, Train};
