//! What the benches that emit a `BENCH_<name>.json` share: the three
//! command-line flags, the `--trace` recorder, the makespan and ratio
//! arithmetic, and the artifact's frame. A bench builds its scenario,
//! runs it, and describes the result as [`Value`]s; where the file goes,
//! how it is laid out and when it is written is decided here, once.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use atomio_trace::json::Value;
use atomio_trace::{object, MemorySink};
use atomio_vtime::VNanos;

/// The flags of an artifact bench: `--smoke` (CI geometry), `--out <path>`
/// (default `BENCH_<bench>.json` at the workspace root) and
/// `--trace <path>` (Chrome trace of the run the bench singles out).
#[derive(Debug, PartialEq)]
pub struct Args {
    bench: &'static str,
    pub smoke: bool,
    pub out: PathBuf,
    pub trace: Option<PathBuf>,
}

impl Args {
    /// The process's arguments; an unknown flag or a flag without its path
    /// is a usage error (exit 2), not a run that overwrites the checked-in
    /// artifact.
    pub fn parse(bench: &'static str) -> Args {
        Args::parse_from(bench, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    fn parse_from(
        bench: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let usage = format!(
            "usage: cargo bench -p atomio-bench --bench {bench} -- \
             [--smoke] [--out <path>] [--trace <path>]"
        );
        let (mut smoke, mut out, mut trace) = (false, None, None);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let slot = match a.as_str() {
                "--smoke" => {
                    smoke = true;
                    continue;
                }
                "--out" => &mut out,
                "--trace" => &mut trace,
                // `cargo bench` appends `--bench`; a bare word is a filter.
                "--bench" => continue,
                f if f.starts_with("--") => return Err(format!("unknown flag {f}; {usage}")),
                _ => continue,
            };
            // `cargo bench` appends its own `--bench` after the user's
            // arguments, so a trailing `--out` is followed by a flag.
            let path = args.next().filter(|p| !p.starts_with("--"));
            *slot = Some(path.ok_or_else(|| format!("{a} needs a path; {usage}"))?);
        }
        let out = out.map_or_else(
            || {
                let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
                let root = root.expect("crates/bench sits two levels below the workspace root");
                root.join(format!("BENCH_{bench}.json"))
            },
            PathBuf::from,
        );
        Ok(Args {
            bench,
            smoke,
            out,
            trace: trace.map(PathBuf::from),
        })
    }

    /// The recorder behind `--trace`, if the flag was given.
    pub fn trace_file(&self) -> Option<TraceFile> {
        self.trace.clone().map(|path| TraceFile {
            path,
            sink: Arc::new(MemorySink::new()),
        })
    }
}

/// A sink the traced run binds, exported as one Chrome-trace file.
pub struct TraceFile {
    path: PathBuf,
    sink: Arc<MemorySink>,
}

impl TraceFile {
    pub fn sink(&self) -> &Arc<MemorySink> {
        &self.sink
    }

    pub fn export(&self) {
        std::fs::write(&self.path, self.sink.export_chrome()).expect("write Chrome trace JSON");
        println!(
            "wrote {} ({} events) — load it at https://ui.perfetto.dev",
            self.path.display(),
            self.sink.len()
        );
    }
}

/// Virtual makespan of one run: latest end minus earliest start over the
/// ranks' `(start, end)` clock readings.
pub fn makespan(spans: impl IntoIterator<Item = (VNanos, VNanos)>) -> VNanos {
    let (start, end) = spans
        .into_iter()
        .fold((VNanos::MAX, 0), |(s, e), (s1, e1)| (s.min(s1), e.max(e1)));
    end.saturating_sub(start)
}

/// `num / den` for a reduction or speedup column; a zero denominator (the
/// mode removed every such event) counts as one. Where a mode can remove
/// every event, write [`reduction`] instead.
pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// `num / den` as a two-decimal reduction column — `null` over a zero
/// base, where there is no quotient to report.
pub fn reduction(num: u64, den: u64) -> Value {
    match den {
        0 => Value::Null,
        _ => Value::fixed(ratio(num, den), 2),
    }
}

/// A counter set declared once: the struct a bench accumulates into and,
/// from the same field list, its JSON object (keys are the field names,
/// in declaration order).
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default)]
        struct $name {
            $($(#[$fmeta])* $field: $ty),*
        }

        impl From<&$name> for $crate::Value {
            fn from(t: &$name) -> Self {
                $crate::Value::object([
                    $((stringify!($field), $crate::Value::from(t.$field))),*
                ])
            }
        }
    };
}

/// One `BENCH_<name>.json`: ordered top-level fields, then `"points"`,
/// then `"acceptance"`. Top-level members and points take a line each;
/// everything below them is printed inline.
pub struct Artifact {
    out: PathBuf,
    fields: Vec<(String, Value)>,
    points: Vec<String>,
    acceptance: Value,
}

impl Artifact {
    pub fn new(args: &Args) -> Artifact {
        Artifact {
            out: args.out.clone(),
            fields: vec![("bench".to_string(), args.bench.into())],
            points: Vec::new(),
            acceptance: Value::Null,
        }
    }

    pub fn field(&mut self, key: &str, value: impl Into<Value>) -> &mut Artifact {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// A point that fits one line.
    pub fn row(&mut self, point: Value) {
        self.points.push(format!("    {point}"));
    }

    /// A point printed as a panel: `head`'s members open it, then one line
    /// per member of `lines` (a mode's results, or a derived figure).
    pub fn panel<K: Into<String>>(
        &mut self,
        head: Value,
        lines: impl IntoIterator<Item = (K, Value)>,
    ) {
        let head = head.to_string();
        let head = head.strip_suffix('}').expect("a panel's head is an object");
        let lines: Vec<String> = lines
            .into_iter()
            .map(|(k, v)| format!("     {}: {v}", Value::String(k.into())))
            .collect();
        let lines = lines.join(",\n");
        self.points.push(format!("    {head},\n{lines}\n    }}"));
    }

    /// The acceptance object — or, when the geometry that was run does not
    /// contain the acceptance point `at` (a smoke run), a note saying so.
    pub fn acceptance(&mut self, at: &str, result: Option<Value>) {
        self.acceptance = result.unwrap_or_else(|| {
            let note = format!("smoke geometry; run without --smoke for the {at} acceptance point");
            object! {"note": note.as_str()}
        });
    }

    pub fn render(&self) -> String {
        let mut json = String::from("{\n");
        for (k, v) in &self.fields {
            json += &format!("  {}: {v},\n", Value::String(k.clone()));
        }
        json += &format!("  \"points\": [\n{}\n  ],\n", self.points.join(",\n"));
        json += &format!("  \"acceptance\": {}\n}}\n", self.acceptance);
        json
    }

    /// Write the file. Benches call this before asserting their acceptance
    /// thresholds, so a failing run leaves its numbers behind.
    pub fn write(&self) {
        std::fs::write(&self.out, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.out.display()));
        println!("wrote {}", self.out.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from("locking", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_and_a_flag_without_its_path_is_refused() {
        let smoke = parse(&["--smoke"]).unwrap();
        assert!(smoke.smoke && smoke.trace.is_none());
        assert!(smoke.out.ends_with("BENCH_locking.json"));
        assert!(smoke.out.parent().unwrap().join("Cargo.lock").exists());

        let out = parse(&["--out", "x"]).unwrap();
        assert_eq!((out.smoke, out.out.as_path()), (false, "x".as_ref()));
        assert_eq!(parse(&["--bench", "--out", "x"]).unwrap(), out);
        assert_eq!(parse(&["--out", "x", "filter", "--bench"]).unwrap(), out);
        let traced = parse(&["--trace", "t", "--smoke", "--out", "x"]).unwrap();
        assert_eq!(traced.trace.as_deref(), Some("t".as_ref()));

        // `cargo bench` appends its own `--bench`: a path-less `--out` must
        // not take it for the path.
        for bad in [
            &["--out"][..],
            &["--smoke", "--trace"],
            &["--smoke", "--out", "--bench"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("needs a path") && !err.contains('\n'), "{err}");
        }
        // A mistyped flag would otherwise run the full geometry and
        // overwrite the checked-in artifact.
        for bad in [&["--out=x"][..], &["--smokee"], &["--smoke", "--trace=t"]] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.starts_with("unknown flag --") && !err.contains('\n'),
                "{err}"
            );
        }
    }

    /// Every bench in the manifest writes a checked-in `BENCH_<name>.json`
    /// through [`Artifact`]: a bench that only prints has nothing to
    /// compare a later run against.
    #[test]
    fn every_bench_writes_a_checked_in_artifact() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate_dir.ancestors().nth(2).unwrap();
        let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap();
        let mut lines = manifest.lines();
        let mut benches = Vec::new();
        while let Some(line) = lines.next() {
            if line.trim() == "[[bench]]" {
                let name = lines.next().and_then(|l| l.strip_prefix("name = "));
                benches.push(name.expect("`name` opens a [[bench]]").trim_matches('"'));
            }
        }
        assert!(!benches.is_empty());
        for name in benches {
            let artifact = root.join(format!("BENCH_{name}.json"));
            assert!(artifact.exists(), "bench {name}: no {}", artifact.display());
            let source = crate_dir.join(format!("benches/{name}.rs"));
            let source = std::fs::read_to_string(&source).unwrap();
            assert!(
                source.contains("Artifact::new("),
                "bench {name} writes no artifact"
            );
        }
    }

    #[test]
    fn makespan_and_ratio() {
        assert_eq!(makespan([(5, 9), (3, 7), (4, 12)]), 9);
        assert_eq!(makespan([]), 0);
        assert_eq!(ratio(15, 0), 15.0);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(reduction(15, 0), Value::Null);
        assert_eq!(reduction(0, 0), Value::Null);
        assert_eq!(reduction(3, 4).to_string(), "0.75");
    }

    counters! {
        /// Test counter set.
        struct Totals {
            makespan_ns: VNanos,
            rounds: usize,
        }
    }

    #[test]
    fn artifact_layout_is_pinned() {
        let args = parse(&["--out", "unused"]).unwrap();
        let totals = Totals {
            makespan_ns: 1200,
            rounds: 3,
        };
        let mut a = Artifact::new(&args);
        a.field("workload", "two \"modes\"")
            .field("geometry", object! {"rows": 4u64, "smoke": false});
        a.panel(
            object! {"p": 4usize, "preset": "reread"},
            [
                ("span", object! {"totals": &totals}),
                ("speedup", Value::fixed(ratio(3, 2), 2)),
            ],
        );
        a.row(object! {"p": 8usize, "slowdown": Value::fixed(1.0, 3)});
        a.acceptance("P=16", Some(object! {"pass": true}));
        assert_eq!(
            a.render(),
            r#"{
  "bench": "locking",
  "workload": "two \"modes\"",
  "geometry": {"rows": 4, "smoke": false},
  "points": [
    {"p": 4, "preset": "reread",
     "span": {"totals": {"makespan_ns": 1200, "rounds": 3}},
     "speedup": 1.50
    },
    {"p": 8, "slowdown": 1.000}
  ],
  "acceptance": {"pass": true}
}
"#
        );
        atomio_trace::validate_json(&a.render()).unwrap();

        a.acceptance("P=16", None);
        assert!(a.render().ends_with(
            "  ],\n  \"acceptance\": {\"note\": \"smoke geometry; run without --smoke for the \
             P=16 acceptance point\"}\n}\n"
        ));
    }
}
