//! Regenerate the checked-in artifacts ([`atomio_bench::ROWS`]) in one
//! process.
//!
//! ```text
//! cargo run --release -p atomio-bench --bin artifacts -- --check
//! cargo run --release -p atomio-bench --bin artifacts -- --write <name>...
//! ```
//!
//! `--check` regenerates every gated and every smoke row into
//! `target/artifacts/`, traces included, and fails on a gated row whose
//! bytes differ from its checked-in file, an acceptance failure, a trace
//! that fails its check, or a checked-in JSON artifact that does not
//! parse. A moved field prints as its path (`Value::at`'s syntax, in the
//! regenerated file, or the checked-in one for a field that is gone) with
//! its old → new value, a CSV cell as `row=KEY/COLUMN`, and bytes that
//! moved with no value as "layout". `--write <name>...` regenerates rows
//! over their checked-in files; `UPDATE_GOLDEN=1 cargo test --test
//! docs_numbers` then re-quotes the docs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use atomio_bench::{Row, Scale, ROWS};
use atomio_trace::json::{parse, Value};
use atomio_trace::{validate_json, MemorySink};

const USAGE: &str =
    "usage: cargo run --release -p atomio-bench --bin artifacts -- --check | --write <name>...";

/// The leading columns of a `figure8.csv` row that name its point
/// (platform through strategy); the rest are measured.
const CSV_KEY_COLUMNS: usize = 6;

#[derive(Debug)]
enum Mode {
    Check,
    Write(Vec<&'static Row>),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let row = |name: &String| match ROWS.iter().find(|r| r.name == name) {
        Some(row) if row.checked_in.is_some() => Ok(row),
        Some(_) => Err(format!("{name} has no checked-in file to write")),
        None => Err(format!("no row named {name}; {USAGE}")),
    };
    match args {
        [flag] if flag == "--check" => Ok(Mode::Check),
        [flag, names @ ..] if flag == "--write" && !names.is_empty() => names
            .iter()
            .map(row)
            .collect::<Result<_, _>>()
            .map(Mode::Write),
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("crates/bench sits two levels below the workspace root");
    let out = root.join("target/artifacts");
    std::fs::create_dir_all(&out).expect("create target/artifacts");

    let check = matches!(mode, Mode::Check);
    let rows: Vec<&Row> = match mode {
        Mode::Check => ROWS
            .iter()
            .filter(|r| r.gated || r.scale == Scale::Smoke)
            .collect(),
        Mode::Write(rows) => rows,
    };
    let mut failed = 0;
    for row in rows {
        let start = Instant::now();
        let (text, mut problems) = regenerate(row, &out);
        match (row.checked_in, check) {
            (Some(file), false) => write(root.join(file), &text),
            (Some(file), true) if row.gated => {
                let checked_in = std::fs::read_to_string(root.join(file))
                    .unwrap_or_else(|e| panic!("read {file}: {e}"));
                problems.extend(diff(file, &checked_in, &text));
            }
            _ => {}
        }
        let secs = start.elapsed().as_secs_f64();
        failed += report(&format!("{} ({secs:.1} s)", row.name), &problems);
    }
    let json = ROWS
        .iter()
        .filter_map(|r| r.checked_in.filter(|f| f.ends_with(".json")));
    for file in json.filter(|_| check) {
        let text = std::fs::read_to_string(root.join(file)).map_err(|e| e.to_string());
        let problem = text.and_then(|t| validate_json(&t)).err();
        failed += report(&format!("{file} parses"), problem.as_slice());
    }
    if failed > 0 {
        eprintln!("{failed} check(s) failed");
        std::process::exit(1);
    }
}

/// Print `what`'s verdict; 1 when it failed.
fn report(what: &str, problems: &[String]) -> usize {
    println!(
        "{} {what}",
        if problems.is_empty() { "ok  " } else { "FAIL" }
    );
    for p in problems {
        println!("     {p}");
    }
    usize::from(!problems.is_empty())
}

/// Run `row` and write it, with its trace, under `out`: the bytes, and
/// its acceptance failures plus a trace that fails its check.
fn regenerate(row: &Row, out: &Path) -> (String, Vec<String>) {
    let sink = row.trace_check().map(|_| Arc::new(MemorySink::new()));
    let (text, mut problems) = row.run(sink.as_ref());
    write(out.join(row.file_name()), &text);
    if let (Some(check), Some(sink)) = (row.trace_check(), sink) {
        let path = out.join(format!("{}_trace.json", row.name));
        let trace = sink.export_chrome();
        write(path.clone(), &trace);
        if let Err(e) = check.check(&trace) {
            problems.push(format!("{}: {e}", path.display()));
        }
    }
    (text, problems)
}

fn write(path: PathBuf, text: &str) {
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// What moved between the checked-in `old` and the regenerated `new`
/// copy of `file`, one line per moved field; empty when the bytes match.
fn diff(file: &str, old: &str, new: &str) -> Vec<String> {
    if old == new {
        return Vec::new();
    }
    let read = |text| match file.ends_with(".csv") {
        true => Ok(csv_value(text)),
        false => parse(text).map_err(|e| format!("not JSON: {e}")),
    };
    let moved = match (read(old), read(new)) {
        (Ok(old), Ok(new)) => {
            let mut moved = Vec::new();
            diff_values("", Some(&old), Some(&new), &mut moved);
            moved
        }
        (old, new) => [old.err(), new.err()].into_iter().flatten().collect(),
    };
    match moved.is_empty() {
        true => vec!["layout: the bytes differ, every value is equal".to_string()],
        false => moved,
    }
}

/// A `figure8.csv` as JSON: one object per row, its key columns joined
/// as `row`, then a member per measured column, so a moved cell prints
/// as `row=KEY/COLUMN`.
fn csv_value(text: &str) -> Value {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    Value::array(lines.map(|line| {
        let cells: Vec<&str> = line.split(',').collect();
        let key = cells[..CSV_KEY_COLUMNS.min(cells.len())].join(",");
        let measured = header.iter().zip(cells).skip(CSV_KEY_COLUMNS);
        let measured = measured.map(|(h, c)| (h.to_string(), Value::Number(c.to_string())));
        Value::object(
            [("row".to_string(), Value::String(key))]
                .into_iter()
                .chain(measured),
        )
    }))
}

/// Each leaf that differs, as `PATH: old → new`; a side without it shows
/// `(absent)`. Object members pair by key, array elements by index.
fn diff_values(path: &str, old: Option<&Value>, new: Option<&Value>, out: &mut Vec<String>) {
    let at = |seg: &str| match path {
        "" => seg.to_string(),
        _ => format!("{path}/{seg}"),
    };
    match (old, new) {
        (Some(o @ Value::Object(om)), Some(n @ Value::Object(nm))) => {
            for (k, v) in nm {
                diff_values(&at(k), o.get(k), Some(v), out);
            }
            for (k, v) in om.iter().filter(|(k, _)| n.get(k).is_none()) {
                diff_values(&at(k), Some(v), None, out);
            }
        }
        (Some(Value::Array(oa)), Some(Value::Array(na))) => {
            for i in 0..oa.len().max(na.len()) {
                let seg = segment(if i < na.len() { na } else { oa }, i);
                diff_values(&at(&seg), oa.get(i), na.get(i), out);
            }
        }
        _ if old != new => {
            let show = |v: Option<&Value>| v.map_or("(absent)".to_string(), Value::to_string);
            out.push(format!("{path}: {} → {}", show(old), show(new)));
        }
        _ => {}
    }
}

/// The path segment of `items[i]`: `k=v` on its first member when that
/// names it and no earlier element ([`Value::at`] takes the first match),
/// else its index.
fn segment(items: &[Value], i: usize) -> String {
    let keyed = items[i].entries().first().and_then(|(k, v)| {
        let v = v.scalar().filter(|v| !v.contains('/'))?;
        let named = |it: &Value| it.get(k).and_then(Value::scalar).as_ref() == Some(&v);
        let first = items.iter().position(named) == Some(i);
        (first && !k.contains(['=', '/'])).then(|| format!("{k}={v}"))
    });
    keyed.unwrap_or_else(|| i.to_string())
}

#[cfg(test)]
mod tests {
    use atomio_bench::CSV_HEADER;

    use super::*;

    const OLD: &str = r#"{
  "bench": "locking",
  "geometry": {"rows": 128},
  "points": [
    {"p": 4, "span": {"totals": {"makespan_ns": 592460}}},
    {"p": 16, "span": {"totals": {"makespan_ns": 2344664}}}
  ]
}
"#;

    #[test]
    fn a_diff_names_each_moved_field_by_a_path_that_resolves() {
        let number = OLD.replace("2344664", "2344665");
        let added = OLD.replace(r#""rows": 128"#, r#""rows": 128, "smoke": true"#);
        let layout = OLD.replace(r#"{"rows": 128}"#, r#"{"rows":128}"#);
        let cases = [
            (
                &number,
                "points/p=16/span/totals/makespan_ns: 2344664 → 2344665",
            ),
            (&added, "geometry/smoke: (absent) → true"),
            (&layout, "layout: the bytes differ, every value is equal"),
        ];
        for (new, line) in cases {
            assert_eq!(diff("BENCH_locking.json", OLD, new), [line]);
            if let Some((path, _)) = line
                .split_once(": ")
                .filter(|_| !line.starts_with("layout"))
            {
                parse(new).unwrap().at(path).unwrap();
            }
        }
        assert!(diff("BENCH_locking.json", OLD, OLD).is_empty());
        let removed = OLD.replace(
            ",\n    {\"p\": 16, \"span\": {\"totals\": {\"makespan_ns\": 2344664}}}",
            "",
        );
        assert_eq!(
            diff("BENCH_locking.json", OLD, &removed),
            [r#"points/p=16: {"p": 16, "span": {"totals": {"makespan_ns": 2344664}}} → (absent)"#]
        );
        let broken = diff("BENCH_locking.json", OLD, "{");
        assert!(broken[0].starts_with("not JSON: "), "{broken:?}");
    }

    #[test]
    fn a_csv_diff_names_the_row_key_and_the_column() {
        assert_eq!(
            CSV_HEADER.split(',').nth(CSV_KEY_COLUMNS),
            Some("makespan_ns")
        );
        let old =
            format!("{CSV_HEADER}\nIBM SP,512,8192,custom,4,graph-coloring,7,4194304,5.666\n");
        let new = old.replace("5.666", "5.667");
        let moved = diff("tests/golden/figure8_quick.csv", &old, &new);
        let line = "row=IBM SP,512,8192,custom,4,graph-coloring/mibps: 5.666 → 5.667";
        assert_eq!(moved, [line]);
        let (path, _) = line.split_once(": ").unwrap();
        csv_value(&new).at(path).unwrap();
        let layout = old.trim_end();
        assert_eq!(
            diff("tests/golden/figure8_quick.csv", &old, layout),
            ["layout: the bytes differ, every value is equal"]
        );
    }

    #[test]
    fn flags_parse_strictly() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(matches!(parse(&["--check"]), Ok(Mode::Check)));
        let write = parse(&["--write", "locking", "figure8_quick"]).unwrap();
        let names = |m: Mode| match m {
            Mode::Write(rows) => rows.iter().map(|r| r.name).collect::<Vec<_>>(),
            Mode::Check => Vec::new(),
        };
        assert_eq!(names(write), ["locking", "figure8_quick"]);
        for bad in [
            &[][..],
            &["--write"],
            &["--check", "x"],
            &["--help"],
            &["locking"],
        ] {
            assert!(parse(bad).unwrap_err().contains("usage:"), "{bad:?}");
        }
        assert!(parse(&["--write", "lockin"])
            .unwrap_err()
            .contains("no row named lockin"));
        let err = parse(&["--write", "sieving_smoke"]).unwrap_err();
        assert!(err.contains("no checked-in file"), "{err}");
    }
}
