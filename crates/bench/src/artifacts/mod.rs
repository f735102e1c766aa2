//! The checked-in artifacts, one table of [`ROWS`], and the scenarios
//! that regenerate them. The `artifacts` bin runs the table: `--check`
//! regenerates every row, checks each one's acceptance and compares each
//! gated one with its checked-in file byte for byte, `--write <name>...`
//! re-records rows.

use std::sync::Arc;

use atomio_check::check_chrome_json;
use atomio_pfs::{CacheParams, CoherenceMode, LockKind, PlatformProfile};
use atomio_trace::{validate_chrome_trace, MemorySink};
use atomio_vtime::MemCost;

use crate::{Artifact, Scale};

mod aggregation;
mod coherence;
mod figure8;
mod locking;
mod recovery;
mod sieving;

pub use figure8::{figure8, Figure8, Panel};

/// The scenario a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Figure8,
    Sieving,
    Locking,
    Coherence,
    Recovery,
    Aggregation,
}

/// One artifact: the scenario and scale that regenerate it, the file it
/// is checked in as (none for a smoke run nothing compares), and whether
/// `--check` compares the two byte for byte. An ungated row's makespans
/// follow host scheduling, so only its counts may be quoted.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub scenario: Scenario,
    pub scale: Scale,
    pub checked_in: Option<&'static str>,
    pub gated: bool,
}

const fn row(
    name: &'static str,
    scenario: Scenario,
    scale: Scale,
    checked_in: Option<&'static str>,
    gated: bool,
) -> Row {
    Row {
        name,
        scenario,
        scale,
        checked_in,
        gated,
    }
}

/// Every artifact, in the order `--check` regenerates them.
#[rustfmt::skip]
pub const ROWS: [Row; 11] = {
    use Scale::{Full, Smoke};
    use Scenario::*;
    [
        row("figure8_quick", Figure8, Smoke, Some("tests/golden/figure8_quick.csv"), true),
        row("locking_smoke", Locking, Smoke, Some("tests/golden/locking_smoke.json"), true),
        row("locking", Locking, Full, Some("BENCH_locking.json"), true),
        row("aggregation_smoke", Aggregation, Smoke, Some("tests/golden/aggregation_smoke.json"), true),
        row("aggregation", Aggregation, Full, Some("BENCH_aggregation.json"), true),
        row("sieving_smoke", Sieving, Smoke, None, false),
        row("sieving", Sieving, Full, Some("BENCH_sieving.json"), false),
        row("coherence_smoke", Coherence, Smoke, None, false),
        row("coherence", Coherence, Full, Some("BENCH_coherence.json"), false),
        row("recovery_smoke", Recovery, Smoke, None, false),
        row("recovery", Recovery, Full, Some("BENCH_recovery.json"), false),
    ]
};

/// GPFS-flavoured test platform: distributed tokens over `fast_test`
/// timing and a 4 MiB cache of 4 KiB pages that writes behind from
/// `write_behind_limit` dirty bytes.
fn gpfs_cached(coherence: CoherenceMode, write_behind_limit: u64) -> PlatformProfile {
    PlatformProfile {
        lock_kind: LockKind::Distributed,
        coherence,
        cache: CacheParams {
            enabled: true,
            page_size: 4 * 1024,
            read_ahead_pages: 2,
            write_behind_limit,
            max_bytes: 4 * 1024 * 1024,
            mem: MemCost::new(1.0e9),
        },
        ..PlatformProfile::fast_test()
    }
}

/// What a recorded trace must pass: the Chrome-trace shape Perfetto
/// reads, and with `Hb` also the happens-before race check (every
/// conflicting access pair ordered by grant-release, revocation-flush or
/// collective edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCheck {
    Chrome,
    Hb,
}

impl TraceCheck {
    pub fn check(self, json: &str) -> Result<(), String> {
        validate_chrome_trace(json)?;
        if self == TraceCheck::Hb {
            let report = check_chrome_json(json)?;
            if !report.findings.is_empty() {
                return Err(report.to_string());
            }
        }
        Ok(())
    }
}

impl Row {
    /// The row's file under `target/artifacts/`.
    pub fn file_name(&self) -> String {
        let ext = self.checked_in.and_then(|f| f.rsplit_once('.'));
        format!("{}.{}", self.name, ext.map_or("json", |(_, ext)| ext))
    }

    /// The check the row's trace goes through; `None` for a row that
    /// records none. Smoke rows only: a full-scale timeline is too large
    /// to be worth writing.
    pub fn trace_check(&self) -> Option<TraceCheck> {
        match (self.scale, self.scenario) {
            (Scale::Smoke, Scenario::Coherence | Scenario::Recovery) => Some(TraceCheck::Chrome),
            (Scale::Smoke, Scenario::Aggregation) => Some(TraceCheck::Hb),
            _ => None,
        }
    }

    /// Regenerate the row: its bytes and its acceptance failures. The
    /// scenario's traced run records into `trace`.
    pub fn run(&self, trace: Option<&Arc<MemorySink>>) -> (String, Vec<String>) {
        let rendered = |a: Artifact| (a.render(), a.failures());
        match self.scenario {
            Scenario::Figure8 => {
                let f = figure8(self.scale, trace);
                (f.csv(), f.failures())
            }
            Scenario::Sieving => rendered(sieving::sieving(self.scale)),
            Scenario::Locking => rendered(locking::locking(self.scale)),
            Scenario::Coherence => rendered(coherence::coherence(self.scale, trace)),
            Scenario::Recovery => rendered(recovery::recovery(self.scale, trace)),
            Scenario::Aggregation => rendered(aggregation::aggregation(self.scale, trace)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use super::*;

    /// The table and the checked-in artifacts match one to one: every
    /// `BENCH_*.json`, `tests/golden/*_smoke.json` and
    /// `tests/golden/figure8_quick.csv` is one row's file, and every row's
    /// file exists. A scenario that only printed would have nothing to
    /// compare a later run against.
    #[test]
    fn the_table_names_every_checked_in_artifact_once() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let files = |dir: &str| {
            let entries = std::fs::read_dir(root.join(dir)).unwrap();
            entries.map(|e| e.unwrap().file_name().into_string().unwrap())
        };
        let mut on_disk: BTreeSet<String> = files(".")
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        on_disk.extend(
            files("tests/golden")
                .filter(|n| n.ends_with("_smoke.json") || n == "figure8_quick.csv")
                .map(|n| format!("tests/golden/{n}")),
        );
        let in_table: Vec<&str> = ROWS.iter().filter_map(|r| r.checked_in).collect();
        let unique: BTreeSet<String> = in_table.iter().map(|s| s.to_string()).collect();
        assert_eq!(unique.len(), in_table.len(), "a file is two rows'");
        assert_eq!(unique, on_disk);

        let names: BTreeSet<&str> = ROWS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), ROWS.len(), "row names are unique");
        // The gate set: these five files, compared byte for byte.
        let gated: Vec<&str> = ROWS.iter().filter(|r| r.gated).map(|r| r.name).collect();
        assert_eq!(
            gated,
            [
                "figure8_quick",
                "locking_smoke",
                "locking",
                "aggregation_smoke",
                "aggregation"
            ]
        );
        assert!(ROWS.iter().all(|r| !r.gated || r.checked_in.is_some()));
    }

    #[test]
    fn trace_checks_refuse_what_they_should() {
        let empty = r#"{"traceEvents": []}"#;
        assert_eq!(TraceCheck::Chrome.check(empty), Ok(()));
        assert_eq!(TraceCheck::Hb.check(empty), Ok(()));
        assert!(TraceCheck::Chrome.check("[]").is_err());
        let racy = include_str!("../../../../tests/golden/hb_unlocked_rmw.json");
        assert_eq!(TraceCheck::Chrome.check(racy), Ok(()));
        assert!(TraceCheck::Hb.check(racy).is_err());
    }
}
