//! Every figure README.md and DESIGN.md quote is read from a checked-in
//! artifact, not typed. A figure is written
//! `<!-- atomio:FILE#PATH -->VALUE`: `FILE` is a checked-in JSON artifact
//! (a row of `atomio_bench::ROWS`), `PATH` walks it as
//! `atomio::trace::json::Value::at` does (`key` takes an object member,
//! `k=v` the first array element whose `k` renders as `v`, an integer an
//! array index) and `VALUE` must be that JSON value as the artifact writes
//! it. A timing may be quoted only from a gated row. Outside code and markers no measured figure (a
//! number with a time or bandwidth unit, or a `×` ratio) may stand
//! unmarked, and DESIGN.md stays at or below 600 lines.
//!
//! After regenerating an artifact, `UPDATE_GOLDEN=1 cargo test --test
//! docs_numbers` rewrites every marked value in place.

use atomio::trace::json::{parse, Value};
use atomio_bench::ROWS;
use std::ops::Range;
use std::path::Path;

const DOCS: [&str; 2] = ["README.md", "DESIGN.md"];
const OPEN: &str = "<!-- atomio:";
const CLOSE: &str = " -->";
const DESIGN_MAX_LINES: usize = 600;

const UNITS: [&str; 7] = ["vns", "ns", "ms", "µs", "MiB/s", "MB/s", "GB/s"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One `<!-- atomio:FILE#PATH -->VALUE` in a document.
struct Marker {
    line: usize,
    /// Byte offset of the marker's `<!--`.
    open: usize,
    file: String,
    path: String,
    /// Byte range of `VALUE` in the document.
    value: Range<usize>,
}

fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// Every marker of `text` outside code, with the span its `VALUE`
/// occupies. A value is a run of ASCII letters, digits and dots, less a
/// sentence's full stop.
fn markers(text: &str) -> Vec<Marker> {
    let text = &without_code(text);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(open) = text[from..].find(OPEN).map(|i| from + i) {
        let body = open + OPEN.len();
        let Some(close) = text[body..].find(CLOSE).map(|i| body + i) else {
            break;
        };
        let start = close + CLOSE.len();
        let run = text[start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
            .map_or(text.len(), |i| start + i);
        let end = start + text[start..run].trim_end_matches('.').len();
        let (file, path) = text[body..close]
            .split_once('#')
            .unwrap_or((&text[body..close], ""));
        out.push(Marker {
            line: line_of(text, open),
            open,
            file: file.to_string(),
            path: path.to_string(),
            value: start..end,
        });
        from = end;
    }
    out
}

/// A field whose value follows a makespan or a host timer.
fn is_timing(path: &str) -> bool {
    let field = path.rsplit('/').next().unwrap_or(path);
    field.ends_with("_ns")
        || ["makespan", "speedup", "slowdown"]
            .iter()
            .any(|w| field.contains(w))
}

/// An artifact, and whether `--check` regenerates it byte for byte.
type Loaded = Result<(Value, bool), String>;

/// The value `m` must show, rendered from its artifact.
fn expected(m: &Marker, load: &dyn Fn(&str) -> Loaded) -> Result<String, String> {
    let (doc, gated) = load(&m.file)?;
    if !gated && is_timing(&m.path) {
        return Err("quotes a timing of an ungated artifact; quote its counts".into());
    }
    let v = doc.at(&m.path)?;
    v.scalar()
        .ok_or_else(|| "resolves to an array or object, not a figure".into())
}

/// `s` as spaces of the same byte length, newlines kept.
fn blank(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '\n' => "\n".to_string(),
            c => " ".repeat(c.len_utf8()),
        })
        .collect()
}

/// `text` with fenced and inline code blanked, so byte offsets into it
/// still index `text`.
fn without_code(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut fenced, mut inline) = (false, false);
    for line in text.split_inclusive('\n') {
        let fence = line.trim_start().starts_with("```");
        fenced ^= fence;
        if fence || fenced {
            out.push_str(&blank(line));
            continue;
        }
        for c in line.chars() {
            let tick = c == '`';
            inline ^= tick;
            let s = c.to_string();
            out.push_str(&if inline || tick { blank(&s) } else { s });
        }
    }
    out
}

/// `text` with code and markers (with their values) blanked.
fn prose(text: &str) -> Vec<char> {
    let mut out = without_code(text);
    for m in markers(text) {
        out.replace_range(m.open..m.value.end, &blank(&text[m.open..m.value.end]));
    }
    out.chars().collect()
}

/// Measured figures standing unmarked in `text`: a number followed by a
/// time or bandwidth unit (`virtual` may sit between), or by a `×` that
/// no digit follows (`4096×4096` is a shape, `16×` a measurement).
fn unmarked_figures(text: &str) -> Vec<(usize, String)> {
    let c = prose(text);
    let at = |i: usize| c.get(i).copied().unwrap_or('\n');
    let space = |i: usize| matches!(at(i), ' ' | '\u{a0}' | '\u{202f}');
    let starts = |i: usize, s: &str| s.chars().enumerate().all(|(n, ch)| at(i + n) == ch);
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        let boundary = i == 0 || !(at(i - 1).is_alphanumeric() || matches!(at(i - 1), '.' | '_'));
        if !(boundary && at(i).is_ascii_digit()) {
            i += 1;
            continue;
        }
        let mut j = i;
        while at(j).is_ascii_digit() || (at(j) == '.' && at(j + 1).is_ascii_digit()) {
            j += 1;
        }
        let after = j + usize::from(space(j));
        let k = after + if starts(after, "virtual ") { 8 } else { 0 };
        let unit = UNITS
            .iter()
            .map(|u| (u, k + u.chars().count()))
            .find(|&(u, end)| starts(k, u) && !at(end).is_alphanumeric());
        let ratio = (at(after) == '×').then_some(after + 1).filter(|&r| {
            let next = (r..).find(|&n| !space(n)).unwrap_or(r);
            !at(next).is_ascii_digit()
        });
        if let Some(end) = unit.map(|(_, end)| end).or(ratio) {
            let line = c[..i].iter().filter(|&&ch| ch == '\n').count() + 1;
            out.push((line, c[i..end].iter().collect()));
        }
        i = j;
    }
    out
}

/// Every finding in document `name`, as `name:line: …`.
fn check(name: &str, text: &str, load: &dyn Fn(&str) -> Loaded) -> Vec<String> {
    let mut out = Vec::new();
    for m in markers(text) {
        let found = &text[m.value.clone()];
        let at = format!("{name}:{}: {}#{}", m.line, m.file, m.path);
        let line_start = text[..m.open].rfind('\n').map_or(0, |i| i + 1);
        if text[line_start..m.open].trim().is_empty() {
            out.push(format!(
                "{at}: starts its line, so Markdown reads it as an HTML block"
            ));
        }
        match expected(&m, load) {
            Ok(want) if want == found => {}
            Ok(want) => out.push(format!(
                "{at}: the artifact has {want}, the doc says {found:?}"
            )),
            Err(why) => out.push(format!("{at}: {why} (the doc says {found:?})")),
        }
    }
    for (line, figure) in unmarked_figures(text) {
        out.push(format!(
            "{name}:{line}: unmarked measured figure {figure:?}"
        ));
    }
    out
}

/// `text` with every resolvable marker's value replaced by the artifact's.
fn update(text: &str, load: &dyn Fn(&str) -> Loaded) -> String {
    let mut out = text.to_string();
    for m in markers(text).iter().rev() {
        if let Ok(want) = expected(m, load) {
            out.replace_range(m.value.clone(), &want);
        }
    }
    out
}

/// A checked-in JSON artifact: a row of the `artifacts` table.
fn load_artifact(file: &str) -> Loaded {
    let row = ROWS
        .iter()
        .find(|r| r.checked_in == Some(file) && file.ends_with(".json"));
    let row = row.ok_or_else(|| format!("`{file}` is not a checked-in artifact"))?;
    let text = std::fs::read_to_string(repo_root().join(file))
        .map_err(|e| format!("cannot read {file}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{file} is not JSON: {e}"))?;
    Ok((doc, row.gated))
}

/// The docs' figures match the artifacts (`UPDATE_GOLDEN=1` rewrites them
/// first), and no measured figure stands unmarked.
#[test]
fn doc_figures_resolve_against_the_artifacts() {
    let regenerate = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut findings = Vec::new();
    let mut quoted = 0;
    for name in DOCS {
        let path = repo_root().join(name);
        let mut text = std::fs::read_to_string(&path).expect("doc readable");
        if regenerate {
            let fresh = update(&text, &load_artifact);
            if fresh != text {
                std::fs::write(&path, &fresh).expect("doc writable");
                text = fresh;
            }
        }
        quoted += markers(&text).len();
        findings.extend(check(name, &text, &load_artifact));
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    assert!(quoted >= 10, "only {quoted} marked figures in {DOCS:?}");
}

#[test]
fn design_stays_at_or_below_its_ceiling() {
    let lines = std::fs::read_to_string(repo_root().join("DESIGN.md"))
        .expect("DESIGN.md readable")
        .lines()
        .count();
    assert!(lines <= DESIGN_MAX_LINES, "DESIGN.md has {lines} lines");
}

const FIXTURE_ARTIFACT: &str = r#"{"points": [
  {"p": 4, "sharded": {"makespan_speedup": 4.00}},
  {"p": 16, "sharded": {"makespan_speedup": 16.01, "totals": {"makespan_ns": 2391024}}}
]}"#;

const FIXTURE_DOC: &str = "\
# Fixture

Right: <!-- atomio:BENCH_fixture.json#points/p=16/sharded/makespan_speedup -->16.01× at P = 16.
Wrong: <!-- atomio:BENCH_fixture.json#points/p=16/sharded/makespan_speedup -->16.00.
Gone: <!-- atomio:BENCH_fixture.json#points/p=64/sharded/makespan_speedup -->64.02.
Index: <!-- atomio:BENCH_fixture.json#points/0/sharded/makespan_speedup -->4.00, a 4096×4096 array, `3.15 ms` and `<!-- atomio:FILE#PATH -->VALUE` in code.
<!-- atomio:BENCH_fixture.json#points/0/sharded/makespan_speedup -->4.00 opens a line.
Typed: the domain was stored whole in 3.15 ms, then 2 virtual ms, 16× faster.

```sh
cargo bench  # 11 s, 2.4 ms
```
";

fn fixture_load(file: &str) -> Loaded {
    match file {
        "BENCH_fixture.json" => Ok((parse(FIXTURE_ARTIFACT)?, true)),
        _ => Err(format!("no fixture {file}")),
    }
}

/// Each check bites on a planted fixture — a wrong value, a path that
/// does not resolve, a marker opening its line, unmarked measured
/// figures — with `file:line`, and leaves the right value, a shape,
/// inline code and fenced code alone.
#[test]
fn each_check_bites_on_a_planted_fixture() {
    let findings = check("fixture.md", FIXTURE_DOC, &fixture_load);
    let expect = [
        "fixture.md:4: BENCH_fixture.json#points/p=16/sharded/makespan_speedup: the artifact has 16.01, the doc says \"16.00\"",
        "fixture.md:5: BENCH_fixture.json#points/p=64/sharded/makespan_speedup: segment `p=64` does not resolve (the doc says \"64.02\")",
        "fixture.md:7: BENCH_fixture.json#points/0/sharded/makespan_speedup: starts its line, so Markdown reads it as an HTML block",
        "fixture.md:8: unmarked measured figure \"3.15 ms\"",
        "fixture.md:8: unmarked measured figure \"2 virtual ms\"",
        "fixture.md:8: unmarked measured figure \"16×\"",
    ];
    assert_eq!(findings, expect);

    let fixed = update(FIXTURE_DOC, &fixture_load);
    let refound = check("fixture.md", &fixed, &fixture_load);
    assert_eq!(
        refound,
        expect[1..],
        "update rewrites only resolvable values"
    );
    assert!(fixed.contains("-->16.01.\nGone"), "{fixed}");
}

/// Only checked-in artifacts may be quoted, and an ungated one only for
/// its counts.
#[test]
fn markers_quote_only_gated_timings() {
    let doc = "a <!-- atomio:Cargo.toml#package -->x\n\
               a <!-- atomio:BENCH_sieving.json#per_run_locking/makespan_ns -->98303168\n\
               a <!-- atomio:BENCH_sieving.json#per_run_locking/lock_acquires -->16384\n";
    let findings = check("fixture.md", doc, &load_artifact);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[0].starts_with("fixture.md:1:") && findings[0].contains("not a checked-in"));
    assert!(findings[1].starts_with("fixture.md:2:") && findings[1].contains("ungated"));
}
