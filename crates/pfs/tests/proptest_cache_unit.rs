//! Model-based property test of [`ClientCache`] itself: random sequences
//! of `write`/`fill`/`read`/`take_dirty_runs(_in)`/`invalidate(_range)`
//! checked against a plain `HashMap<u64, u8>` mirror — guarding the
//! byte-accurate range-invalidation API and the eviction fixes.
//!
//! Every drain, in either regime, must return the mirror's drained bytes
//! as their maximal runs, ascending, no two touching: one flush request per
//! run, so a split run would be an extra server request.
//!
//! Two regimes:
//! * **unbounded residency** — the cache must agree with the mirror
//!   *exactly*: same valid set and byte counts, same contents, same dirty
//!   runs;
//! * **tight residency cap** — eviction may drop clean bytes, so the
//!   valid set must be a *subset* of the mirror's, contents must match
//!   wherever the cache claims validity, dirty data must never be lost,
//!   and a range just installed by `fill` must be readable immediately
//!   (the evict-during-fill regression, generalized).

use std::collections::{HashMap, HashSet};

use atomio_interval::ByteRange;
use atomio_pfs::{CacheParams, ClientCache};
use atomio_vtime::MemCost;
use proptest::prelude::*;

const FILE: u64 = 16 * 1024;

#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, len: u64, fill: u8 },
    Fill { off: u64, len: u64, fill: u8 },
    Read { off: u64, len: u64 },
    TakeDirty,
    FlushRange { off: u64, len: u64 },
    InvalidateRange { off: u64, len: u64 },
    Invalidate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..FILE - 512, 1u64..512, any::<u8>())
            .prop_map(|(off, len, fill)| Op::Write { off, len, fill }),
        3 => (0..FILE - 512, 1u64..512, any::<u8>())
            .prop_map(|(off, len, fill)| Op::Fill { off, len, fill }),
        3 => (0..FILE - 512, 1u64..512).prop_map(|(off, len)| Op::Read { off, len }),
        1 => Just(Op::TakeDirty),
        2 => (0..FILE - 512, 1u64..512).prop_map(|(off, len)| Op::FlushRange { off, len }),
        2 => (0..FILE - 512, 1u64..512).prop_map(|(off, len)| Op::InvalidateRange { off, len }),
        1 => Just(Op::Invalidate),
    ]
}

/// The reference model: byte-accurate contents, validity and dirtiness.
#[derive(Default)]
struct Mirror {
    content: HashMap<u64, u8>,
    valid: HashSet<u64>,
    dirty: HashSet<u64>,
}

impl Mirror {
    fn write(&mut self, off: u64, len: u64, fill: u8) {
        for o in off..off + len {
            self.content.insert(o, fill);
            self.valid.insert(o);
            self.dirty.insert(o);
        }
    }

    fn fill(&mut self, off: u64, len: u64, fill: u8) {
        for o in off..off + len {
            if !self.dirty.contains(&o) {
                self.content.insert(o, fill);
            }
            self.valid.insert(o);
        }
    }

    /// Dirty bytes inside `r` become clean; returns them as a map.
    fn drain_dirty(&mut self, r: ByteRange) -> HashMap<u64, u8> {
        let drained: Vec<u64> = self
            .dirty
            .iter()
            .copied()
            .filter(|o| r.contains(*o))
            .collect();
        let mut out = HashMap::new();
        for o in drained {
            self.dirty.remove(&o);
            out.insert(o, self.content[&o]);
        }
        out
    }

    fn invalidate_range(&mut self, r: ByteRange) {
        self.valid.retain(|o| !r.contains(*o));
    }
}

/// The maximal runs of a set of bytes, ascending.
fn runs_of(bytes: impl IntoIterator<Item = u64>) -> Vec<ByteRange> {
    let mut sorted: Vec<u64> = bytes.into_iter().collect();
    sorted.sort_unstable();
    let mut runs: Vec<ByteRange> = Vec::new();
    for b in sorted {
        match runs.last_mut() {
            Some(r) if r.end == b => r.end = b + 1,
            _ => runs.push(ByteRange::new(b, b + 1)),
        }
    }
    runs
}

/// The pieces of `within` that `missing` (ascending, inside it) leaves.
fn present(missing: &[ByteRange], within: ByteRange) -> Vec<ByteRange> {
    let mut out = Vec::new();
    let mut cursor = within.start;
    for m in missing {
        if m.start > cursor {
            out.push(ByteRange::new(cursor, m.start));
        }
        cursor = m.end;
    }
    if cursor < within.end {
        out.push(ByteRange::new(cursor, within.end));
    }
    out
}

/// A drain against the mirror's: the same bytes, as exactly the maximal
/// runs of the drained bytes, ascending — the flush shape the server
/// request count depends on.
fn check_drain(runs: &[(u64, Vec<u8>)], want: HashMap<u64, u8>, what: &str) {
    let shape: Vec<ByteRange> = runs
        .iter()
        .map(|(off, data)| ByteRange::at(*off, data.len() as u64))
        .collect();
    prop_assert!(
        shape.windows(2).all(|w| w[0].end < w[1].start),
        "{} returned runs out of order or touching: {:?}",
        what,
        shape
    );
    prop_assert_eq!(
        &shape,
        &runs_of(want.keys().copied()),
        "{} flush shape",
        what
    );
    let mut got = HashMap::new();
    for (off, data) in runs {
        for (i, &b) in data.iter().enumerate() {
            got.insert(off + i as u64, b);
        }
    }
    prop_assert_eq!(got, want, "{} diverged from model", what);
}

/// Check cache contents against the mirror for every byte the cache
/// claims valid inside `[0, FILE)`; with `exact`, also require the valid
/// sets to be identical (no-eviction regime).
fn check_agreement(cache: &ClientCache, m: &Mirror, exact: bool) {
    let missing = cache.missing(0, FILE);
    prop_assert!(missing.windows(2).all(|w| w[0].end < w[1].start));
    for run in present(&missing, ByteRange::new(0, FILE)) {
        let mut buf = vec![0u8; run.len() as usize];
        cache.read(run.start, &mut buf);
        for (i, &got) in buf.iter().enumerate() {
            let o = run.start + i as u64;
            prop_assert!(
                m.valid.contains(&o),
                "cache claims validity the model never saw at {o}"
            );
            prop_assert_eq!(got, m.content[&o], "content mismatch at {}", o);
        }
    }
    if exact {
        prop_assert_eq!(
            missing,
            present(&runs_of(m.valid.iter().copied()), ByteRange::new(0, FILE))
        );
        prop_assert_eq!(
            cache.valid_bytes(),
            m.valid.len() as u64,
            "valid accounting diverged"
        );
    }
}

fn apply(cache: &mut ClientCache, m: &mut Mirror, op: &Op, exact: bool) {
    match *op {
        Op::Write { off, len, fill } => {
            cache.write(off, &vec![fill; len as usize]);
            m.write(off, len, fill);
        }
        Op::Fill { off, len, fill } => {
            cache.fill(off, &vec![fill; len as usize]);
            m.fill(off, len, fill);
            // The just-installed range must be readable immediately — the
            // evict-during-fill regression, under every random schedule.
            let mut buf = vec![0u8; len as usize];
            cache.read(off, &mut buf);
            for (i, &got) in buf.iter().enumerate() {
                prop_assert_eq!(got, m.content[&(off + i as u64)]);
            }
        }
        Op::Read { off, len } => {
            // Reads must agree wherever the cache claims residency.
            let miss = cache.missing(off, len);
            for run in present(&miss, ByteRange::at(off, len)) {
                let mut buf = vec![0u8; run.len() as usize];
                cache.read(run.start, &mut buf);
                for (i, &got) in buf.iter().enumerate() {
                    prop_assert_eq!(got, m.content[&(run.start + i as u64)]);
                }
            }
            if exact {
                for o in off..off + len {
                    let missed = miss.iter().any(|r| r.contains(o));
                    prop_assert_eq!(missed, !m.valid.contains(&o));
                }
            }
        }
        Op::TakeDirty => {
            let runs = cache.take_dirty_runs();
            check_drain(
                &runs,
                m.drain_dirty(ByteRange::new(0, u64::MAX)),
                "take_dirty_runs",
            );
        }
        Op::FlushRange { off, len } => {
            let r = ByteRange::at(off, len);
            let runs = cache.take_dirty_runs_in(r);
            check_drain(&runs, m.drain_dirty(r), "take_dirty_runs_in");
        }
        Op::InvalidateRange { off, len } => {
            let r = ByteRange::at(off, len);
            // Protocol discipline (what a served revocation does): flush
            // the range first, then drop its validity.
            let runs = cache.take_dirty_runs_in(r);
            check_drain(&runs, m.drain_dirty(r), "take_dirty_runs_in");
            cache.invalidate_range(r);
            m.invalidate_range(r);
            prop_assert_eq!(
                cache.missing(off, len),
                vec![r],
                "invalidated range must be fully missing"
            );
        }
        Op::Invalidate => {
            let runs = cache.take_dirty_runs();
            check_drain(
                &runs,
                m.drain_dirty(ByteRange::new(0, u64::MAX)),
                "take_dirty_runs",
            );
            cache.invalidate();
            m.valid.clear();
        }
    }
    // Dirty bytes are never lost, whatever the residency pressure.
    prop_assert_eq!(
        cache.dirty_bytes(),
        m.dirty.len() as u64,
        "dirty accounting diverged"
    );
}

fn params(max_bytes: u64) -> CacheParams {
    CacheParams {
        enabled: true,
        page_size: 1024,
        read_ahead_pages: 2,
        write_behind_limit: u64::MAX,
        max_bytes,
        mem: MemCost::new(1.0e9),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_mirror_exactly_without_eviction(
        ops in prop::collection::vec(arb_op(), 1..80)
    ) {
        // Cap far above FILE: nothing is ever evicted, agreement is exact.
        let mut cache = ClientCache::new(params(1 << 30));
        let mut m = Mirror::default();
        for op in &ops {
            apply(&mut cache, &mut m, op, true);
            check_agreement(&cache, &m, true);
        }
    }

    #[test]
    fn cache_under_pressure_never_lies(
        ops in prop::collection::vec(arb_op(), 1..80)
    ) {
        // Tight cap (8 pages over a 16 KiB file): eviction constantly
        // drops clean bytes, but the cache may only *forget*, never
        // fabricate — and must never drop dirty data.
        let mut cache = ClientCache::new(params(8 * 1024));
        let mut m = Mirror::default();
        for op in &ops {
            apply(&mut cache, &mut m, op, false);
            check_agreement(&cache, &m, false);
        }
        prop_assert!(cache.resident_bytes() <= 8 * 1024 || cache.dirty_bytes() > 0);
    }
}
