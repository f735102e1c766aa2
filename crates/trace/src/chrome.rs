//! Chrome-trace-event JSON export (the format Perfetto and `chrome://tracing`
//! load). One "process" per track family — pid 1 = ranks, pid 2 = I/O
//! servers — with one "thread" (row) per rank / server, named via `M`
//! metadata events. Spans become `X` (complete) events, instants become `i`
//! events. Timestamps are microseconds in the file format; virtual
//! nanoseconds are rendered exactly as `ns/1000` with three decimals, so
//! export is fully deterministic (no float formatting involved).

use std::collections::BTreeSet;
use std::fmt::Write;

use crate::json::escape;
use crate::tracer::{TraceEvent, Track};

fn pid_tid(track: Track) -> (u32, usize) {
    match track {
        Track::Rank(r) => (1, r),
        Track::Server(s) => (2, s),
    }
}

/// Nanoseconds rendered as a JSON number of microseconds with exactly three
/// decimals (`1234567` → `1234.567`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn args_json(args: &[(&'static str, u64)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write!(s, "\"{}\":{}", escape(k), v).expect("a String accepts every write");
    }
    s.push('}');
    s
}

/// Export events as a Chrome-trace JSON document.
///
/// Events are sorted by (track, start, longest-span-first, name, args) —
/// a total order over distinct events — so the output of a deterministic
/// virtual-time run is byte-identical regardless of real thread
/// interleaving, and nested spans on one row appear outermost-first.
pub fn export_chrome(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| {
        let (pid, tid) = pid_tid(e.track);
        (
            pid,
            tid,
            e.start,
            std::cmp::Reverse(e.dur.unwrap_or(0)),
            e.name,
            e.cat.label(),
            e.args.clone(),
        )
    });

    let tracks: BTreeSet<(u32, usize)> = sorted.iter().map(|e| pid_tid(e.track)).collect();

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };

    for &pid in &[1u32, 2u32] {
        if !tracks.iter().any(|&(p, _)| p == pid) {
            continue;
        }
        let pname = if pid == 1 { "ranks" } else { "io-servers" };
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ),
        );
        for &(p, tid) in &tracks {
            if p != pid {
                continue;
            }
            let tname = if pid == 1 {
                format!("rank {tid}")
            } else {
                format!("server {tid}")
            };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"name\":\"thread_name\",\"args\":{{\"name\":\"{tname}\"}}}}"
                ),
            );
        }
    }

    for e in sorted {
        let (pid, tid) = pid_tid(e.track);
        let mut ev = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
            escape(e.name),
            e.cat.label(),
            us(e.start),
        );
        match e.dur {
            Some(d) => {
                ev.push_str(",\"ph\":\"X\",\"dur\":");
                ev.push_str(&us(d));
            }
            None => ev.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        if !e.args.is_empty() {
            ev.push_str(",\"args\":");
            ev.push_str(&args_json(&e.args));
        }
        ev.push('}');
        push(&mut out, ev);
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Category;

    fn ev(track: Track, name: &'static str, start: u64, dur: Option<u64>) -> TraceEvent {
        TraceEvent {
            track,
            cat: Category::Lock,
            name,
            start,
            dur,
            args: vec![],
        }
    }

    #[test]
    fn export_is_order_independent() {
        let a = vec![
            ev(Track::Rank(1), "b", 10, Some(5)),
            ev(Track::Rank(0), "a", 0, Some(20)),
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(export_chrome(&a), export_chrome(&b));
    }

    #[test]
    fn export_contains_tracks_and_events() {
        let events = vec![
            ev(Track::Rank(0), "lock wait", 1_500, Some(2_500)),
            ev(Track::Server(2), "service", 0, Some(1_000)),
        ];
        let json = export_chrome(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"ranks\""));
        assert!(json.contains("\"name\":\"io-servers\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"server 2\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        crate::json::validate_chrome_trace(&json).expect("well-formed");
    }

    #[test]
    fn instants_use_instant_phase() {
        let json = export_chrome(&[ev(Track::Rank(0), "release", 42, None)]);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
    }

    #[test]
    fn empty_export_is_valid() {
        let json = export_chrome(&[]);
        crate::json::validate_chrome_trace(&json).expect("well-formed");
    }
}
