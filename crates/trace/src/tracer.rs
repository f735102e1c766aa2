use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use atomio_vtime::VNanos;
use parking_lot::Mutex;

use crate::sink::TraceSink;

/// Which timeline row an event belongs to. Chrome-trace maps these to
/// (pid, tid) pairs: all ranks under one "ranks" process, all I/O servers
/// under one "io-servers" process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// A simulated MPI rank (world rank).
    Rank(usize),
    /// A simulated I/O server.
    Server(usize),
}

/// Event taxonomy: the category column in the exported trace, and the
/// coarse filter a viewer groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Lock request → grant waits and releases.
    Lock,
    /// Token-revocation coherence: dispatch, flush, invalidate.
    Coherence,
    /// Client page cache: hits, misses, fills, evictions.
    Cache,
    /// Two-phase collective I/O phases (negotiation, exchange, write).
    Exchange,
    /// Per-server request service.
    Server,
    /// Message-passing collectives (barrier, allgather, ...).
    Comm,
    /// Client-side data I/O: direct reads/writes, cached-path requests.
    Io,
    /// Fault injection and recovery: server crashes, rejected requests,
    /// retry backoffs, journal replays, torn-record discards.
    Fault,
}

impl Category {
    pub fn label(self) -> &'static str {
        match self {
            Category::Lock => "lock",
            Category::Coherence => "coherence",
            Category::Cache => "cache",
            Category::Exchange => "exchange",
            Category::Server => "server",
            Category::Comm => "comm",
            Category::Io => "io",
            Category::Fault => "fault",
        }
    }
}

/// One recorded event: a span (`dur = Some`) or an instant (`dur = None`)
/// on a track, in virtual nanoseconds, with optional numeric arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub track: Track,
    pub cat: Category,
    pub name: &'static str,
    pub start: VNanos,
    pub dur: Option<VNanos>,
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Clone)]
struct Bound {
    track: Track,
    sink: Arc<dyn TraceSink>,
}

#[derive(Default)]
struct Slot {
    enabled: AtomicBool,
    bound: Mutex<Option<Bound>>,
}

/// A late-binding recorder handle.
///
/// Subsystems are built with a (cloned) `Tracer` and emit through it
/// unconditionally; nothing is recorded — and nothing is allocated or
/// locked — until [`Tracer::bind`] attaches a [`TraceSink`] and a home
/// [`Track`]. Clones share the binding slot, so a handle cloned into a
/// subsystem at construction starts recording the moment the owner binds.
#[derive(Clone, Default)]
pub struct Tracer {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sink: every emission is a cheap no-op.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer born bound to `track` and `sink`.
    pub fn bound(track: Track, sink: Arc<dyn TraceSink>) -> Self {
        let t = Tracer::default();
        t.bind(track, sink);
        t
    }

    /// Attach a sink; this handle and every clone of it start recording.
    pub fn bind(&self, track: Track, sink: Arc<dyn TraceSink>) {
        *self.slot.bound.lock() = Some(Bound { track, sink });
        self.slot.enabled.store(true, Ordering::Release);
    }

    /// Copy another tracer's binding (track and sink) onto this handle's
    /// slot. No-op if `other` is unbound.
    pub fn bind_like(&self, other: &Tracer) {
        // Clone the binding out before re-locking: holding `other`'s slot
        // while taking ours would nest two `bound` locks (deadlock if two
        // threads ever bind_like each other cross-wise).
        let b = other.slot.bound.lock().clone();
        if let Some(b) = b {
            self.bind(b.track, b.sink);
        }
    }

    pub fn is_enabled(&self) -> bool {
        // Acquire pairs with the Release store in `bind`: a
        // thread that observes `enabled` also observes the bound sink.
        // (The mutex around `bound` already serializes the emit path; the
        // ordering here keeps the fast-path gate self-consistent rather
        // than leaning on the lock it exists to skip.)
        self.slot.enabled.load(Ordering::Acquire)
    }

    fn emit(
        &self,
        track: Option<Track>,
        cat: Category,
        name: &'static str,
        start: VNanos,
        dur: Option<VNanos>,
        args: &[(&'static str, u64)],
    ) {
        let bound = self.slot.bound.lock();
        let Some(b) = &*bound else { return };
        let ev = TraceEvent {
            track: track.unwrap_or(b.track),
            cat,
            name,
            start,
            dur,
            args: args.to_vec(),
        };
        let sink = Arc::clone(&b.sink);
        drop(bound);
        sink.record(ev);
    }

    /// Record a span `[start, end]` on this tracer's home track.
    pub fn span(
        &self,
        cat: Category,
        name: &'static str,
        start: VNanos,
        end: VNanos,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(
            None,
            cat,
            name,
            start,
            Some(end.saturating_sub(start)),
            args,
        );
    }

    /// Record a span on an explicit track (e.g. a server row) regardless of
    /// the home track this tracer was bound with.
    pub fn span_on(
        &self,
        track: Track,
        cat: Category,
        name: &'static str,
        start: VNanos,
        end: VNanos,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(
            Some(track),
            cat,
            name,
            start,
            Some(end.saturating_sub(start)),
            args,
        );
    }

    /// Record an instant event at `at` on this tracer's home track.
    pub fn instant(
        &self,
        cat: Category,
        name: &'static str,
        at: VNanos,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(None, cat, name, at, None, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span(Category::Lock, "wait", 0, 10, &[]);
        t.instant(Category::Cache, "hit", 5, &[]);
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_binding() {
        let t = Tracer::disabled();
        let sub = t.clone(); // handed to a subsystem before binding
        let sink = Arc::new(MemorySink::new());
        t.bind(Track::Rank(2), Arc::clone(&sink) as Arc<dyn TraceSink>);
        sub.span(Category::Lock, "wait", 100, 250, &[("ranges", 3)]);
        let evs = sink.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].track, Track::Rank(2));
        assert_eq!(evs[0].dur, Some(150));
        assert_eq!(evs[0].args, vec![("ranges", 3)]);
    }

    #[test]
    fn span_on_overrides_home_track() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::bound(Track::Rank(0), Arc::clone(&sink) as Arc<dyn TraceSink>);
        t.span_on(Track::Server(3), Category::Server, "service", 10, 30, &[]);
        assert_eq!(sink.drain()[0].track, Track::Server(3));
    }

    #[test]
    fn bind_like_copies_binding() {
        let sink = Arc::new(MemorySink::new());
        let a = Tracer::bound(Track::Rank(1), Arc::clone(&sink) as Arc<dyn TraceSink>);
        let b = Tracer::disabled();
        b.bind_like(&a);
        b.instant(Category::Comm, "barrier", 7, &[]);
        let evs = sink.drain();
        assert_eq!(evs[0].track, Track::Rank(1));
        assert_eq!(evs[0].dur, None);
    }

    /// `bind_like` clones the binding out before re-locking. Nesting the
    /// two slot locks instead deadlocks a self-bind (one shared slot) and
    /// two threads binding each other crosswise, and no lock-order check
    /// sees these mutexes, so the test bounds both with a timeout rather
    /// than hang.
    #[test]
    fn bind_like_never_nests_slot_locks() {
        let sink: Arc<dyn TraceSink> = Arc::new(MemorySink::new());
        let t = Tracer::bound(Track::Rank(0), Arc::clone(&sink));
        let a = Tracer::bound(Track::Rank(1), Arc::clone(&sink));
        let b = Tracer::bound(Track::Rank(2), sink);
        let crosswise = |x: Tracer, y: Tracer| {
            move || {
                for _ in 0..10_000 {
                    x.bind_like(&y);
                }
            }
        };
        let jobs: [Box<dyn FnOnce() + Send>; 3] = [
            Box::new(move || t.bind_like(&t)),
            Box::new(crosswise(a.clone(), b.clone())),
            Box::new(crosswise(b, a)),
        ];
        let (done, finished) = std::sync::mpsc::channel();
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let done = done.clone();
                std::thread::spawn(move || {
                    job();
                    done.send(()).ok();
                })
            })
            .collect();
        for _ in 0..handles.len() {
            finished
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("bind_like deadlocked");
        }
        for h in handles {
            h.join().expect("bind_like thread panicked");
        }
    }
}
