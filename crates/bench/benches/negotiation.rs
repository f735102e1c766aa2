//! Negotiation bench: footprint build + view exchange + overlap graph +
//! rank-ordering view recomputation at the paper's geometry (M = N = 4096,
//! P ∈ {4, 16, 64}), dense `IntervalSet` vs. strided `StridedSet`
//! pipelines, plus a machine-readable `BENCH_negotiation.json` artifact
//! recording the speedups and wire compression.
//!
//! Run with `cargo bench -p atomio-bench --bench negotiation` (flags:
//! [`atomio_bench::Args`]). Host time: the digits move run to run, so the
//! artifact is validated in CI, not `cmp`-gated.

use atomio_bench::negotiation::{measure_best, NegotiationCost, Repr};
use atomio_bench::{object, ratio, Args, Artifact, Value};

struct PointRow {
    p: usize,
    dense: NegotiationCost,
    strided: NegotiationCost,
}

impl PointRow {
    fn speedup_build_plus_overlap(&self) -> f64 {
        ratio(
            self.dense.build_plus_overlap_ns(),
            self.strided.build_plus_overlap_ns(),
        )
    }

    fn speedup_total(&self) -> f64 {
        ratio(self.dense.total_ns(), self.strided.total_ns())
    }

    fn wire_compression(&self) -> f64 {
        ratio(self.dense.wire_bytes, self.strided.wire_bytes)
    }
}

fn main() {
    let args = Args::parse("negotiation");
    let (m, n, procs) = if args.smoke {
        (256, 256, vec![4, 8])
    } else {
        (4096, 4096, vec![4, 16, 64])
    };
    let (r, iters) = (16, 3);
    println!(
        "negotiation bench: M={m} N={n} R={r} (column-wise), best of {iters} iterations{}",
        if args.smoke { " [smoke]" } else { "" }
    );

    let mut rows: Vec<PointRow> = Vec::new();
    for &p in &procs {
        let dense = measure_best(m, n, p, r, Repr::Dense, iters);
        let strided = measure_best(m, n, p, r, Repr::Strided, iters);
        for (repr, c) in [("dense", &dense), ("strided", &strided)] {
            println!("P={p:<3} {repr:>8}  {}", Value::from(c));
        }
        assert_eq!(
            dense.colors, strided.colors,
            "P={p}: representations disagree on the overlap graph"
        );
        assert_eq!(
            dense.surviving_bytes, strided.surviving_bytes,
            "P={p}: representations disagree on recomputed views"
        );
        let row = PointRow { p, dense, strided };
        println!(
            "      -> build+overlap speedup {:.1}x, total {:.1}x, wire compression {:.1}x",
            row.speedup_build_plus_overlap(),
            row.speedup_total(),
            row.wire_compression()
        );
        rows.push(row);
    }

    let mut artifact = Artifact::new(&args);
    artifact
        .field(
            "workload",
            "column-wise M×N byte array, R overlapped columns, one footprint run per row when \
             dense",
        )
        .field(
            "geometry",
            object! {"m": m, "n": n, "r": r, "smoke": args.smoke},
        )
        .field(
            "phases",
            Value::array([
                "footprint build",
                "allgather exchange materialization",
                "overlap graph + coloring",
                "rank-ordering view recompute",
            ]),
        );
    for row in &rows {
        artifact.panel(
            object! {"p": row.p},
            [
                ("dense", Value::from(&row.dense)),
                ("strided", Value::from(&row.strided)),
                (
                    "speedup_build_plus_overlap",
                    Value::fixed(row.speedup_build_plus_overlap(), 2),
                ),
                ("speedup_total", Value::fixed(row.speedup_total(), 2)),
                ("wire_compression", Value::fixed(row.wire_compression(), 2)),
            ],
        );
    }

    // The acceptance point: P = 16 at full geometry (absent in smoke runs).
    let acceptance = rows.iter().find(|r| r.p == 16 && !args.smoke);
    let acceptance = acceptance.map(PointRow::speedup_build_plus_overlap);
    artifact.acceptance(
        "P=16",
        acceptance.map(|speedup| {
            object! {
                "p": 16usize,
                "metric": "footprint build + overlap graph, dense/strided",
                "speedup": Value::fixed(speedup, 2),
                "threshold": Value::fixed(10.0, 1),
                "pass": speedup >= 10.0,
            }
        }),
    );
    artifact.write();
    if let Some(speedup) = acceptance {
        assert!(
            speedup >= 10.0,
            "acceptance: strided footprint+overlap must be >= 10x faster at P=16, got \
             {speedup:.2}x"
        );
    }
}
