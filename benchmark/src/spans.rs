//! Host-time spans the benchmark records around its calls into the
//! library: name, start, end, parent, and an id shared by everything one
//! (workload, iteration, case, rank) did. Each thread appends to its own
//! log, so recording never contends; a rank's log is adopted into the
//! driver's when the rank is joined.
//!
//! Span tree of one iteration: on the driver track `iteration ⊃ case ⊃
//! {fs_new, spawn_join, snapshot, verify}`; on each rank track `rank ⊃
//! {open, barrier, write, read, close}` with `rank`'s parent the case's
//! `spawn_join`.

use std::fmt::Write as _;
use std::time::Instant;

/// Track 0 is the single-threaded driver; rank `r` records on `1 + r`.
pub const DRIVER_TRACK: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub case: &'static str,
    pub track: u32,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.map_or(0, |e| e - self.start_ns)
    }
}

/// Whether spans are recorded, and the instant they are measured from.
#[derive(Debug, Clone, Copy)]
pub struct SpanClock {
    pub enabled: bool,
    pub epoch: Instant,
}

#[derive(Debug)]
pub struct SpanLog {
    clock: SpanClock,
    track: u32,
    case: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    pub fn new(clock: SpanClock, track: u32, case: &'static str) -> Self {
        SpanLog {
            clock,
            track,
            case,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn clock(&self) -> SpanClock {
        self.clock
    }

    /// Label stamped on the spans opened from now on.
    pub fn set_case(&mut self, case: &'static str) {
        self.case = case;
    }

    fn now(&self) -> u64 {
        self.clock.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.clock.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            case: self.case,
            track: self.track,
            start_ns: self.now(),
            end_ns: None,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.clock.enabled {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = Some(end);
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Append a joined thread's spans; its root spans become children of
    /// `parent`.
    pub fn adopt(&mut self, parent: usize, child: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Every span closed with `end ≥ start`, every child inside its parent.
pub fn check(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end_ns
            .ok_or_else(|| format!("span {i} ({}) never closed", s.name))?;
        if end < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} ({}) has no parent {p}", s.name))?;
            let inside = parent.start_ns <= s.start_ns && parent.end_ns.is_some_and(|pe| end <= pe);
            if !inside {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Where one iteration's host time went, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Duration of the `iteration` span.
    pub iteration_ns: f64,
    /// Self time by span name. Driver-track names are plain sums. A
    /// rank-track call name (`open`, `write`, …) is the mean over the
    /// case's ranks, and `spawn_join` is that span's duration minus those
    /// means — thread start and join, rank code between calls, and skew —
    /// so that the parts of [`Breakdown::parts_sum`] add up to
    /// `iteration_ns` exactly. `other` is the self time of `iteration`
    /// and `case`.
    pub parts: Vec<(&'static str, f64)>,
    /// Duration of every `write` / `read` call span.
    pub write_calls_ns: Vec<f64>,
    pub read_calls_ns: Vec<f64>,
}

impl Breakdown {
    pub fn part(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn parts_sum(&self) -> f64 {
        self.parts.iter().map(|(_, v)| v).sum()
    }

    fn add(&mut self, name: &'static str, v: f64) {
        match self.parts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += v,
            None => self.parts.push((name, v)),
        }
    }
}

/// A span's duration minus the part of it its children cover (children on
/// parallel tracks may overlap each other, hence the sweep).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].start_ns + spans[c].dur()))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Split one iteration's (checked) spans into [`Breakdown`] parts.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut out = Breakdown::default();
    // Ranks under each spawn_join, and the call time they spent in total.
    let mut ranks = vec![0u32; spans.len()];
    let mut calls = vec![0u64; spans.len()];
    let spawn_join_of = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if spans[p].track == DRIVER_TRACK => return p,
            Some(p) => i = p,
            None => unreachable!("rank spans hang off a driver span"),
        }
    };
    for (i, s) in spans.iter().enumerate() {
        if s.track == DRIVER_TRACK {
            continue;
        }
        let sj = spawn_join_of(i);
        if s.parent == Some(sj) {
            ranks[sj] += 1;
        } else {
            calls[sj] += selfs[i];
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let own = selfs[i] as f64;
        if s.track != DRIVER_TRACK {
            let sj = spawn_join_of(i);
            if s.parent != Some(sj) {
                out.add(s.name, own / f64::from(ranks[sj]));
                match s.name {
                    "write" => out.write_calls_ns.push(s.dur() as f64),
                    "read" => out.read_calls_ns.push(s.dur() as f64),
                    _ => {}
                }
            }
            continue;
        }
        match s.name {
            "iteration" => {
                out.iteration_ns += s.dur() as f64;
                out.add("other", own);
            }
            "case" => out.add("other", own),
            "spawn_join" if ranks[i] > 0 => out.add(
                "spawn_join",
                s.dur() as f64 - calls[i] as f64 / f64::from(ranks[i]),
            ),
            name => out.add(name, own),
        }
    }
    out
}

/// Chrome trace-event JSON (loadable in Perfetto): one process per
/// iteration, one thread per track; `args.id` is the shared id
/// `workload/iteration/case/rank`.
pub fn chrome_json(workload: &str, iterations: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (it, spans) in iterations.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let rank = match s.track {
                DRIVER_TRACK => "driver".to_string(),
                t => (t - 1).to_string(),
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{it},\"tid\":{},\"args\":{{\"id\":\"{workload}/{it}/{}/{rank}\",\
                 \"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.track,
                s.case,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            case: "c",
            track,
            start_ns: start,
            end_ns: Some(end),
            parent,
        }
    }

    /// iteration[0,100] ⊃ case[5,95] ⊃ fs_new[5,10], spawn_join[10,70]
    /// (two ranks), snapshot[70,80], verify[80,95].
    fn sample() -> Vec<Span> {
        vec![
            span("iteration", 0, 0, 100, None),
            span("case", 0, 5, 95, Some(0)),
            span("fs_new", 0, 5, 10, Some(1)),
            span("spawn_join", 0, 10, 70, Some(1)),
            span("snapshot", 0, 70, 80, Some(1)),
            span("verify", 0, 80, 95, Some(1)),
            span("rank", 1, 12, 60, Some(3)),
            span("open", 1, 12, 20, Some(6)),
            span("write", 1, 20, 50, Some(6)),
            span("rank", 2, 14, 68, Some(3)),
            span("open", 2, 14, 18, Some(9)),
            span("write", 2, 30, 66, Some(9)),
        ]
    }

    #[test]
    fn parts_sum_to_the_iteration() {
        let spans = sample();
        check(&spans).unwrap();
        let b = breakdown(&spans);
        assert_eq!(b.iteration_ns, 100.0);
        assert_eq!(b.part("fs_new"), 5.0);
        assert_eq!(b.part("other"), 10.0);
        assert_eq!(b.part("open"), 6.0); // (8 + 4) / 2 ranks
        assert_eq!(b.part("write"), 33.0); // (30 + 36) / 2
        assert_eq!(b.part("spawn_join"), 60.0 - 39.0);
        assert_eq!(b.parts_sum(), b.iteration_ns);
        assert_eq!(b.write_calls_ns, vec![30.0, 36.0]);
    }

    #[test]
    fn check_rejects_open_and_escaping_spans() {
        let mut spans = sample();
        spans[8].end_ns = None;
        assert!(check(&spans).unwrap_err().contains("never closed"));
        let mut spans = sample();
        spans[11].end_ns = Some(69);
        assert!(check(&spans).unwrap_err().contains("not inside"));
    }

    #[test]
    fn log_nests_adopts_and_exports() {
        let clock = SpanClock {
            enabled: true,
            epoch: Instant::now(),
        };
        let mut log = SpanLog::new(clock, DRIVER_TRACK, "c");
        let it = log.open("iteration");
        let sj = log.open("spawn_join");
        let mut rank = SpanLog::new(clock, 1, "c");
        let root = rank.open("rank");
        rank.span("write", || std::hint::black_box(1 + 1));
        rank.close(root);
        log.close(sj);
        log.adopt(sj, rank);
        log.close(it);
        let spans = log.take();
        check(&spans).unwrap();
        assert_eq!(spans[2].parent, Some(sj));
        assert_eq!(spans[3].parent, Some(2));
        let json = chrome_json("w", &[spans]);
        atomio_trace::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"id\":\"w/0/c/0\""));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let clock = SpanClock {
            enabled: false,
            epoch: Instant::now(),
        };
        let mut log = SpanLog::new(clock, DRIVER_TRACK, "");
        assert_eq!(log.span("write", || 7), 7);
        assert!(log.take().is_empty());
    }
}
