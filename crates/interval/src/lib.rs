//! Byte-range interval algebra.
//!
//! File views, byte-range locks, overlap matrices and the rank-ordering
//! strategy's view subtraction all reduce to set algebra over half-open byte
//! ranges `[start, end)` ([`ByteRange`]). A byte set has one of two roles,
//! and each role has one type:
//!
//! - A set that is **shipped or compared** — a lock request, a revocation
//!   message, a negotiation footprint, a wire charge, the atomicity
//!   oracle's footprints — is a canonical [`StridedSet`]: sorted trains of
//!   `(start, len, stride, count)`, so the regular footprints of array
//!   partitionings cost O(trains) to describe, exchange and negotiate
//!   instead of O(rows). The form is a function of the byte set alone —
//!   the maximal runs, cut greedily into arithmetic progressions, and a
//!   stretch that repeats period after period folded into one comb per
//!   run — so `==` and the `WireSize` it is charged are set properties.
//!   [`StridedSet::from_ranges`] builds one from any ranges, and
//!   [`StridedSet::iter`] walks its maximal runs in order.
//! - **State** that grows update by update — a lock domain's release times
//!   and token owners, a cache's coverage, valid and dirty bytes — is a
//!   [`RunMap`], which rewrites only the runs an update meets instead of
//!   recompressing the whole set.
//!
//! [`IntervalSet`] is not a third type: it is an alias of [`StridedSet`].

mod range;
mod runmap;
mod strided;

pub use range::ByteRange;
pub use runmap::RunMap;
pub use strided::{StridedSet, Train};

/// The name the frozen benchmark package spells for a footprint
/// (`all_views() -> Vec<IntervalSet>`, the `interval.*` probes); it exists
/// only for that package, and goes when the package next changes to say
/// [`StridedSet`]. Library code, tests and examples name `StridedSet`.
pub type IntervalSet = StridedSet;
