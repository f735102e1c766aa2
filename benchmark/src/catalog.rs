//! The metric catalog: `BENCHMARK.json` at the repository root, embedded at
//! build time so names, units and bounds exist in exactly one place. Every
//! run checks what it emits against it — an unknown, duplicate or missing
//! name is an error of the run, not a silent drift.

use std::sync::OnceLock;

use crate::json::{self, Value};

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalog {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn defs(doc: &Value, key: &str) -> Vec<MetricDef> {
    let text = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without \"{k}\""))
            .to_string()
    };
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no \"{key}\""))
        .items()
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e}"));
        Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .expect("BENCHMARK.json: workloads")
                .items()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: defs(&doc, "end_to_end"),
            per_layer: defs(&doc, "per_layer"),
        }
    })
}

/// The metrics of one run, keyed by catalog name.
#[derive(Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    problems: Vec<String>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
            problems: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        match self.defs.iter().position(|d| d.name == name) {
            None => self.problems.push(format!("{name}: not in BENCHMARK.json")),
            Some(i) if self.values[i].is_some() => {
                self.problems.push(format!("{name}: emitted twice"))
            }
            Some(_) if !value.is_finite() => self.problems.push(format!("{name}: not finite")),
            Some(i) => self.values[i] = Some(value),
        }
    }

    /// Every catalog metric with its value, in catalog order, or what is
    /// wrong with the set.
    pub fn finish(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let mut problems = self.problems.clone();
        let mut out = Vec::new();
        for (d, v) in self.defs.iter().zip(&self.values) {
            match v {
                Some(v) => out.push((d, *v)),
                None => problems.push(format!("{}: never emitted", d.name)),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }
}
