//! Figure 8's panel loop: every strategy at every P of the paper, on each
//! platform and array size, shape-checked panel by panel. The `figure8`
//! bin prints it; `--check` compares its smoke scale (M/8) with
//! `tests/golden/figure8_quick.csv` byte for byte.

use std::sync::Arc;

use atomio_core::{IoPath, TwoPhaseConfig};
use atomio_pfs::PlatformProfile;
use atomio_trace::MemorySink;

use crate::{
    check_shape, measure_colwise_two_phase, strategies_for, Point, Scale, CSV_HEADER, DEFAULT_R,
    PAPER_PROCS, PAPER_SIZES,
};

/// One panel: one platform and array size, every strategy at every P.
pub struct Panel {
    pub profile: PlatformProfile,
    pub m: u64,
    pub n: u64,
    /// The paper's name for the array size (the smoke scale keeps it).
    pub label: &'static str,
    pub points: Vec<Point>,
    /// The paper's shape claims this panel breaks ([`check_shape`]).
    pub failures: Vec<String>,
}

/// The nine panels of one Figure 8 run.
pub struct Figure8 {
    pub panels: Vec<Panel>,
}

impl Figure8 {
    /// `figure8.csv`: [`CSV_HEADER`], then one row per point.
    pub fn csv(&self) -> String {
        let rows = self.panels.iter().flat_map(|panel| &panel.points);
        let rows = rows.map(|pt| pt.csv_row() + "\n");
        format!("{CSV_HEADER}\n") + &rows.collect::<String>()
    }

    /// Every panel's shape failures, each prefixed with its panel.
    pub fn failures(&self) -> Vec<String> {
        let panels = self.panels.iter();
        let each = panels.flat_map(|p| p.failures.iter().map(move |f| (p, f)));
        each.map(|(p, f)| format!("{} {}: {f}", p.profile.name, p.label))
            .collect()
    }
}

/// Run Figure 8 at `scale` (`Smoke` divides M by 8). With `trace`, the
/// first panel's P = 4 points (every strategy on the first platform and
/// size) record into it: one readable timeline instead of 100+ overlaid
/// runs.
pub fn figure8(scale: Scale, trace: Option<&Arc<MemorySink>>) -> Figure8 {
    let sizes = PAPER_SIZES.map(|(m, n, label)| match scale {
        Scale::Smoke => (m / 8, n, label),
        Scale::Full => (m, n, label),
    });
    let mut panels = Vec::new();
    for profile in PlatformProfile::paper_platforms() {
        for (m, n, label) in sizes {
            let mut points = Vec::new();
            for p in PAPER_PROCS {
                for strategy in strategies_for(&profile) {
                    let sink = trace.filter(|_| panels.is_empty() && p == PAPER_PROCS[0]);
                    points.push(measure_colwise_two_phase(
                        &profile,
                        m,
                        n,
                        p,
                        DEFAULT_R,
                        Some(strategy),
                        IoPath::Direct,
                        TwoPhaseConfig::default(),
                        sink,
                    ));
                }
            }
            let failures = check_shape(&points);
            panels.push(Panel {
                profile: profile.clone(),
                m,
                n,
                label,
                points,
                failures,
            });
        }
    }
    Figure8 { panels }
}
