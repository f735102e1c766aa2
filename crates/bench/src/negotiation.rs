//! The view-negotiation kernel, measured dense vs. strided.
//!
//! One *negotiation* = everything the handshaking strategies do before a
//! byte of data moves: build every rank's file-view footprint, materialize
//! the allgather exchange (each rank receives a copy of every footprint),
//! build the overlap graph, and recompute every rank's view under
//! rank ordering (higher-rank union + segment subtraction). The paper's
//! §3.4 argues this overhead must scale with the access *description*; the
//! dense pipeline scales with the row count instead. Both pipelines are
//! measured single-threaded on identical geometry so the comparison is the
//! algorithmic cost, not scheduler noise.

use std::time::Instant;

use atomio_core::{
    greedy_color, higher_union, higher_union_strided, surviving_pieces, surviving_pieces_strided,
    OverlapMatrix,
};
use atomio_dtype::ViewSegment;
use atomio_interval::{IntervalSet, StridedSet};
use atomio_trace::{json::Value, object};
use atomio_vtime::WireSize;
use atomio_workloads::ColWise;

/// Which footprint representation a measurement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    Dense,
    Strided,
}

impl Repr {
    pub fn label(&self) -> &'static str {
        match self {
            Repr::Dense => "dense",
            Repr::Strided => "strided",
        }
    }
}

/// Host-time cost of one negotiation, phase by phase, plus the modeled
/// wire volume of the view exchange.
#[derive(Debug, Clone, Copy)]
pub struct NegotiationCost {
    /// Build all P footprints from the views.
    pub footprint_ns: u64,
    /// Materialize the allgather: every rank receives every footprint.
    pub exchange_ns: u64,
    /// Overlap matrix + greedy coloring.
    pub overlap_ns: u64,
    /// Per-rank rank-ordering view recomputation.
    pub recompute_ns: u64,
    /// Bytes one rank's footprint description puts on the wire, summed
    /// over ranks (what the allgather is charged in virtual time).
    pub wire_bytes: u64,
    /// Description units exchanged (runs for dense, trains for strided).
    pub description_units: u64,
    /// Colors of the resulting overlap graph (sanity: must match across
    /// representations).
    pub colors: usize,
    /// Total surviving bytes after rank-ordering recomputation (sanity).
    pub surviving_bytes: u64,
}

impl NegotiationCost {
    /// The acceptance metric: footprint construction + overlap-graph build.
    pub fn build_plus_overlap_ns(&self) -> u64 {
        self.footprint_ns + self.overlap_ns
    }

    pub fn total_ns(&self) -> u64 {
        self.footprint_ns + self.exchange_ns + self.overlap_ns + self.recompute_ns
    }
}

/// The phase costs as `BENCH_negotiation.json` records them (the two
/// sanity fields the bench asserts on are left out).
impl From<&NegotiationCost> for Value {
    fn from(c: &NegotiationCost) -> Value {
        object! {
            "footprint_ns": c.footprint_ns,
            "exchange_ns": c.exchange_ns,
            "overlap_graph_ns": c.overlap_ns,
            "view_recompute_ns": c.recompute_ns,
            "total_ns": c.total_ns(),
            "wire_bytes": c.wire_bytes,
            "description_units": c.description_units,
            "colors": c.colors,
        }
    }
}

/// Measure one negotiation of the paper's column-wise geometry (M×N bytes,
/// P ranks, R overlapped columns) with the given representation.
pub fn measure_negotiation(m: u64, n: u64, p: usize, r: u64, repr: Repr) -> NegotiationCost {
    let spec = ColWise::new(m, n, p, r).expect("valid geometry");
    let parts: Vec<_> = (0..p).map(|k| spec.partition(k)).collect();
    // Segment lists are needed for the data movement whatever the
    // representation; they are not part of the negotiation cost.
    let segments: Vec<Vec<ViewSegment>> = parts
        .iter()
        .map(|pt| pt.view.segments(0, pt.data_bytes()))
        .collect();

    match repr {
        Repr::Dense => {
            let t = Instant::now();
            let fps: Vec<IntervalSet> = parts
                .iter()
                .map(|pt| pt.view.footprint(pt.data_bytes()))
                .collect();
            let footprint_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let exchanged: Vec<Vec<IntervalSet>> = (0..p).map(|_| fps.clone()).collect();
            let exchange_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let w = OverlapMatrix::from_footprints(&exchanged[0]);
            let colors = greedy_color(&w);
            let overlap_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let mut surviving_bytes = 0u64;
            for (me, segs) in segments.iter().enumerate() {
                let surrendered = higher_union(&exchanged[me], me);
                let pieces = surviving_pieces(segs, &surrendered);
                surviving_bytes += pieces.iter().map(|s| s.len).sum::<u64>();
            }
            let recompute_ns = t.elapsed().as_nanos() as u64;

            NegotiationCost {
                footprint_ns,
                exchange_ns,
                overlap_ns,
                recompute_ns,
                wire_bytes: fps.iter().map(|f| f.wire_size() as u64).sum(),
                description_units: fps.iter().map(|f| f.run_count() as u64).sum(),
                colors: colors.iter().max().map_or(0, |c| c + 1),
                surviving_bytes,
            }
        }
        Repr::Strided => {
            let t = Instant::now();
            let fps: Vec<StridedSet> = parts
                .iter()
                .map(|pt| pt.view.strided_footprint(pt.data_bytes()))
                .collect();
            let footprint_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let exchanged: Vec<Vec<StridedSet>> = (0..p).map(|_| fps.clone()).collect();
            let exchange_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let w = OverlapMatrix::from_strided(&exchanged[0]);
            let colors = greedy_color(&w);
            let overlap_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let mut surviving_bytes = 0u64;
            for (me, segs) in segments.iter().enumerate() {
                let surrendered = higher_union_strided(&exchanged[me], me);
                let pieces = surviving_pieces_strided(segs, &surrendered);
                surviving_bytes += pieces.iter().map(|s| s.len).sum::<u64>();
            }
            let recompute_ns = t.elapsed().as_nanos() as u64;

            NegotiationCost {
                footprint_ns,
                exchange_ns,
                overlap_ns,
                recompute_ns,
                wire_bytes: fps.iter().map(|f| f.wire_size() as u64).sum(),
                description_units: fps.iter().map(|f| f.train_count() as u64).sum(),
                colors: colors.iter().max().map_or(0, |c| c + 1),
                surviving_bytes,
            }
        }
    }
}

/// Best-of-`iters` measurement (minimum per phase is taken jointly by
/// total; the phases of the winning iteration are reported).
pub fn measure_best(m: u64, n: u64, p: usize, r: u64, repr: Repr, iters: u32) -> NegotiationCost {
    let mut best: Option<NegotiationCost> = None;
    for _ in 0..iters.max(1) {
        let c = measure_negotiation(m, n, p, r, repr);
        if best.is_none_or(|b| c.total_ns() < b.total_ns()) {
            best = Some(c);
        }
    }
    best.expect("at least one iteration")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_strided_negotiations_agree() {
        for p in [2usize, 4, 7] {
            let d = measure_negotiation(32, 448, p, 8, Repr::Dense);
            let s = measure_negotiation(32, 448, p, 8, Repr::Strided);
            assert_eq!(d.colors, s.colors, "P={p}");
            assert_eq!(d.surviving_bytes, s.surviving_bytes, "P={p}");
            // Rank ordering writes each byte exactly once.
            assert_eq!(s.surviving_bytes, 32 * 448, "P={p}");
            assert!(s.wire_bytes <= d.wire_bytes, "P={p}");
        }
    }

    #[test]
    fn strided_description_is_row_count_independent() {
        let small = measure_negotiation(8, 448, 4, 8, Repr::Strided);
        let tall = measure_negotiation(256, 448, 4, 8, Repr::Strided);
        assert_eq!(
            small.description_units, tall.description_units,
            "trains must not grow with M"
        );
        let dense_tall = measure_negotiation(256, 448, 4, 8, Repr::Dense);
        assert_eq!(dense_tall.description_units, 256 * 4, "one run per row");
    }
}
