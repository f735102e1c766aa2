//! What the scenarios that emit an artifact share: the scale they run
//! at, the makespan and ratio arithmetic, and the artifact's frame. A
//! scenario builds its workload, runs it, and describes the result as
//! [`Value`]s; how the file is laid out is decided here, once, and where
//! it goes by the `artifacts` runner.

use atomio_trace::json::Value;
use atomio_trace::object;
use atomio_vtime::VNanos;

/// The geometry a scenario runs: `Smoke` is the small one CI regenerates
/// in seconds, `Full` the one its acceptance point lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Full,
}

/// Virtual makespan of one run: latest end minus earliest start over the
/// ranks' `(start, end)` clock readings.
pub(crate) fn makespan(spans: impl IntoIterator<Item = (VNanos, VNanos)>) -> VNanos {
    let (start, end) = spans
        .into_iter()
        .fold((VNanos::MAX, 0), |(s, e), (s1, e1)| (s.min(s1), e.max(e1)));
    end.saturating_sub(start)
}

/// `num / den` for a reduction or speedup column; a zero denominator (the
/// mode removed every such event) counts as one. Where a mode can remove
/// every event, write [`reduction`] instead.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// `num / den` as a two-decimal reduction column — `null` over a zero
/// base, where there is no quotient to report.
pub(crate) fn reduction(num: u64, den: u64) -> Value {
    match den {
        0 => Value::Null,
        _ => Value::fixed(ratio(num, den), 2),
    }
}

/// A counter set declared once: the struct a scenario accumulates into
/// and, from the same field list, its JSON object (keys are the field
/// names, in declaration order).
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
pub(crate) use counters;

/// One artifact: ordered top-level fields, then `"points"`, then
/// `"acceptance"`. Top-level members and points take a line each;
/// everything below them is printed inline.
pub(crate) struct Artifact {
    /// The scenario's name, which is also the name of its full-scale row.
    bench: String,
    fields: Vec<(String, Value)>,
    points: Vec<String>,
    acceptance: Value,
}

impl Artifact {
    pub(crate) fn new(bench: &str) -> Artifact {
        Artifact {
            bench: bench.to_string(),
            fields: vec![("bench".to_string(), bench.into())],
            points: Vec::new(),
            acceptance: Value::Null,
        }
    }

    pub(crate) fn field(&mut self, key: &str, value: impl Into<Value>) -> &mut Artifact {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// A point that fits one line.
    pub(crate) fn row(&mut self, point: Value) {
        self.points.push(format!("    {point}"));
    }

    /// A point printed as a panel: `head`'s members open it, then one line
    /// per member of `lines` (a mode's results, or a derived figure).
    pub(crate) fn panel<K: Into<String>>(
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
    /// contain the acceptance point `at` (a smoke run), a note naming the
    /// full-scale row that does.
    pub(crate) fn acceptance(&mut self, at: &str, result: Option<Value>) {
        self.acceptance = result.unwrap_or_else(|| {
            let note = format!(
                "smoke geometry; the {at} acceptance point is in the full-scale row, {}",
                self.bench
            );
            object! {"note": note.as_str()}
        });
    }

    /// The acceptance object, when it says the run did not pass.
    pub(crate) fn failures(&self) -> Vec<String> {
        match self.acceptance.get("pass") {
            Some(Value::Bool(false)) => vec![format!("acceptance: {}", self.acceptance)],
            _ => Vec::new(),
        }
    }

    pub(crate) fn render(&self) -> String {
        let mut json = String::from("{\n");
        for (k, v) in &self.fields {
            json += &format!("  {}: {v},\n", Value::String(k.clone()));
        }
        json += &format!("  \"points\": [\n{}\n  ],\n", self.points.join(",\n"));
        json += &format!("  \"acceptance\": {}\n}}\n", self.acceptance);
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let totals = Totals {
            makespan_ns: 1200,
            rounds: 3,
        };
        let mut a = Artifact::new("locking");
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
        assert!(a.failures().is_empty());
        a.acceptance("P=16", Some(object! {"reduction": 4u64, "pass": false}));
        assert_eq!(
            a.failures(),
            ["acceptance: {\"reduction\": 4, \"pass\": false}"]
        );

        a.acceptance("P=16", None);
        assert!(a.render().ends_with(
            "  ],\n  \"acceptance\": {\"note\": \"smoke geometry; the P=16 acceptance point \
             is in the full-scale row, locking\"}\n}\n"
        ));
    }
}
