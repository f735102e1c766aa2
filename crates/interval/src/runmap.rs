//! Values over disjoint byte runs: the form for byte-set *state*.

use std::collections::BTreeMap;

use crate::ByteRange;

/// A value per byte over disjoint runs, `start -> (end, value)`: a lock
/// domain's release times or token owners, a cache's coverage. An update
/// rewrites only the runs it meets, in O(log n + runs met), where a
/// canonical [`StridedSet`](crate::StridedSet) would be recompressed whole.
/// Touching runs never hold equal values, so every run is maximal for its
/// value however many updates built the map.
#[derive(Debug, Default)]
pub struct RunMap<V> {
    runs: BTreeMap<u64, (u64, V)>,
}

impl<V: Clone + PartialEq> RunMap<V> {
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Every run with its value, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (ByteRange, &V)> + '_ {
        self.runs_meeting(ByteRange::new(0, u64::MAX))
    }

    /// The runs meeting `r`, unclipped, ascending.
    pub fn runs_meeting(&self, r: ByteRange) -> impl Iterator<Item = (ByteRange, &V)> + '_ {
        // The run straddling `r.start`, if any, then every run starting in `r`.
        let first = match self.runs.range(..=r.start).next_back() {
            Some((&start, &(end, _))) if end > r.start => start,
            _ => r.start,
        };
        let last = if r.is_empty() { first } else { r.end };
        let runs = self.runs.range(first..last);
        runs.map(|(&start, (end, v))| (ByteRange::new(start, *end), v))
    }

    /// The pieces of `r` no run meets, ascending.
    pub fn gaps(&self, r: ByteRange) -> Vec<ByteRange> {
        let mut out = Vec::new();
        let mut cursor = r.start;
        for (run, _) in self.runs_meeting(r) {
            if run.start > cursor {
                out.push(ByteRange::new(cursor, run.start));
            }
            cursor = run.end;
        }
        if cursor < r.end {
            out.push(ByteRange::new(cursor, r.end));
        }
        out
    }

    /// Whether every byte of `r` holds `v`: one maximal run covers `r`.
    pub fn holds(&self, r: ByteRange, v: &V) -> bool {
        r.is_empty()
            || self
                .runs_meeting(r)
                .next()
                .is_some_and(|(run, held)| held == v && run.start <= r.start && run.end >= r.end)
    }

    /// Rewrite every byte of `r`: `f` maps a run's value (`None` over a
    /// gap) to its new one (`None` clears it). A rewritten piece joins the
    /// run it touches when both hold the same value.
    pub fn update(&mut self, r: ByteRange, mut f: impl FnMut(Option<&V>) -> Option<V>) {
        if r.is_empty() {
            return;
        }
        // `last` is the run ending at `at`, if any.
        let mut last = self.split(r.start);
        self.split(r.end);
        let mut at = r.start;
        while at < r.end {
            // Every run starting in `r` now ends inside it.
            let (stop, new) = match self.runs.remove(&at) {
                Some((end, old)) => (end, f(Some(&old))),
                None => {
                    let next = self.runs.range(at..r.end).next();
                    (next.map_or(r.end, |(&start, _)| start), f(None))
                }
            };
            match new {
                None => last = None,
                Some(v) => match last.and_then(|l| self.runs.get_mut(&l)) {
                    Some(run) if run.1 == v => run.0 = stop,
                    _ => {
                        self.runs.insert(at, (stop, v));
                        last = Some(at);
                    }
                },
            }
            at = stop;
        }
        // The run starting at `r.end` may join the last one too.
        let Some(l) = last else { return };
        if let (Some((_, lv)), Some(&(end, ref v))) = (self.runs.get(&l), self.runs.get(&r.end)) {
            if lv == v {
                self.runs.remove(&r.end);
                self.runs.entry(l).and_modify(|run| run.0 = end);
            }
        }
    }

    /// Set every byte of `r` to `v`.
    pub fn insert(&mut self, r: ByteRange, v: V) {
        self.update(r, |_| Some(v.clone()));
    }

    /// Clear every byte of `r`.
    pub fn remove(&mut self, r: ByteRange) {
        self.update(r, |_| None);
    }

    /// Cut the run straddling `at`, if any, so that a run starts at `at`;
    /// returns the start of the run that then ends at `at`, if any.
    fn split(&mut self, at: u64) -> Option<u64> {
        let (&start, (end, v)) = self.runs.range_mut(..at).next_back()?;
        if *end < at {
            return None;
        }
        if *end > at {
            let tail = (std::mem::replace(end, at), v.clone());
            self.runs.insert(at, tail);
        }
        Some(start)
    }
}
