//! Structured tracing for the workspace: nesting wall-time spans,
//! named counters, and machine-readable trace export.
//!
//! The paper's claims are resource claims (rounds, words, space), and
//! `treeemb-mpc` already meters those; this crate records *where
//! wall-clock time goes*. Every MPC round, pipeline stage, and executor
//! job opens a [`Span`]; spans nest per thread and record their wall
//! time plus `u64` arguments (word counts, item counts) into one global
//! collector. The collected events export as
//!
//! * a Chrome `trace_event`-format file ([`export::chrome_trace_json`]),
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * a JSONL stream ([`export::jsonl`]), one event object per line.
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: the
//! reader and writers behind every JSON artifact, trace exports
//! included.
//!
//! **Zero-cost when off.** Tracing is armed either by the
//! `TREEEMB_TRACE=path` environment variable (read once, on first use)
//! or programmatically via [`set_trace_path`] / [`capture_start`]. When
//! disarmed, [`Span::enter`] is a single relaxed atomic load and no
//! allocation, no clock read, and no event storage happens; dynamic
//! span names ([`Span::enter_with`]) take a closure so the `format!`
//! is never evaluated. When the variable is unset and no path was set,
//! [`flush_trace`] writes nothing and returns `None`.
//!
//! Thread-safety: events are buffered per event (one short
//! mutex-protected push at span *end*), so spans opened concurrently on
//! many executor workers interleave without loss; ordering within a
//! thread is by end time, and each event carries a stable per-thread id
//! plus its nesting depth.
//!
//! ```
//! treeemb_obs::capture_start();
//! {
//!     let mut outer = treeemb_obs::span!("pipeline.stage");
//!     outer.arg("items", 3);
//!     let _inner = treeemb_obs::span!("inner.work");
//! }
//! let events = treeemb_obs::drain();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "inner.work"); // inner ends first
//! treeemb_obs::capture_stop();
//! ```

pub mod export;
pub mod json;

use std::borrow::Cow;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: wall-time interval with nested depth.
    Span,
    /// A sampled counter value (monotonic or gauge; the value is in
    /// the first entry of `args`).
    Counter,
    /// A zero-duration marker.
    Mark,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name (span label, counter name).
    pub name: String,
    /// Span, counter, or mark.
    pub kind: EventKind,
    /// Stable small integer id of the recording thread.
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds (0 for counters/marks).
    pub dur_ns: u64,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// Attached integer arguments (word counts, item counts, ...).
    pub args: Vec<(&'static str, u64)>,
}

struct Collector {
    enabled: AtomicBool,
    events: Mutex<Vec<Event>>,
    trace_path: Mutex<Option<PathBuf>>,
}

static ENV_INIT: Once = Once::new();

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        events: Mutex::new(Vec::new()),
        trace_path: Mutex::new(None),
    })
}

/// Arms tracing from `TREEEMB_TRACE=path`, once per process. Called
/// implicitly by every [`enabled`] check; cheap after the first call.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        // lint:allow(env-read): TREEEMB_TRACE arms the tracer itself and
        // is documented in from_env's module docs as living here; obs
        // cannot depend on treeemb-mpc (dependency inversion).
        if let Ok(path) = std::env::var("TREEEMB_TRACE") {
            if !path.is_empty() {
                let c = collector();
                *c.trace_path.lock().expect("obs path lock") = Some(PathBuf::from(path));
                c.enabled.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Whether event collection is armed. The disarmed fast path is one
/// `Once` check plus one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    collector().enabled.load(Ordering::Relaxed)
}

/// Arms in-memory event collection (no file path; use [`drain`]).
pub fn capture_start() {
    init_from_env();
    collector().enabled.store(true, Ordering::Relaxed);
}

/// Disarms event collection. Spans already open still restore their
/// nesting depth but record nothing new after this.
pub fn capture_stop() {
    collector().enabled.store(false, Ordering::Relaxed);
}

/// Sets the trace output path programmatically (e.g. from a
/// `--trace-out` flag) and arms collection; [`flush_trace`] then writes
/// a Chrome-trace file there.
pub fn set_trace_path(path: impl Into<PathBuf>) {
    init_from_env();
    let c = collector();
    *c.trace_path.lock().expect("obs path lock") = Some(path.into());
    c.enabled.store(true, Ordering::Relaxed);
}

/// Takes every event collected so far, leaving the buffer empty.
pub fn drain() -> Vec<Event> {
    std::mem::take(&mut *collector().events.lock().expect("obs event lock"))
}

/// Clones every event collected so far (the buffer keeps accumulating).
pub fn snapshot() -> Vec<Event> {
    collector().events.lock().expect("obs event lock").clone()
}

/// Writes all events collected so far to the configured trace path in
/// Chrome `trace_event` format, returning the path written. Returns
/// `None` — and touches no file — when neither `TREEEMB_TRACE` nor
/// [`set_trace_path`] configured a destination. Safe to call repeatedly:
/// later calls rewrite the file with the fuller event set.
pub fn flush_trace() -> Option<PathBuf> {
    init_from_env();
    let path = collector()
        .trace_path
        .lock()
        .expect("obs path lock")
        .clone()?;
    let events = snapshot();
    if let Err(e) = export::write_chrome_trace(&path, &events) {
        eprintln!("treeemb-obs: failed to write trace {}: {e}", path.display());
        return None;
    }
    Some(path)
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use of the clock).
/// Monotonic; shared by every span and by `Metrics` round timestamps.
#[inline]
pub fn now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Stable small integer id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

fn record(event: Event) {
    collector()
        .events
        .lock()
        .expect("obs event lock")
        .push(event);
}

/// Records a counter sample (rendered as a counter track in Perfetto).
/// No-op when collection is disarmed.
pub fn counter(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        name: name.to_string(),
        kind: EventKind::Counter,
        tid: thread_id(),
        start_ns: now_ns(),
        dur_ns: 0,
        depth: 0,
        args: vec![("value", value)],
    });
}

/// Records a zero-duration marker with arguments. No-op when disarmed.
pub fn mark(name: impl Into<Cow<'static, str>>, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(Event {
        name: name.into().into_owned(),
        kind: EventKind::Mark,
        tid: thread_id(),
        start_ns: now_ns(),
        dur_ns: 0,
        depth: DEPTH.with(Cell::get),
        args: args.to_vec(),
    });
}

/// A RAII wall-time span. Create via [`span!`], [`Span::enter`], or
/// [`Span::enter_with`]; the event is recorded when the guard drops.
/// When collection is disarmed the guard is inert: no name is built, no
/// clock is read, nothing is stored.
pub struct Span {
    /// `None` = inert guard (collection was disarmed at entry).
    name: Option<Cow<'static, str>>,
    start_ns: u64,
    depth: u32,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Opens a span with a static name.
    #[inline]
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Span {
        if !enabled() {
            return Span::inert();
        }
        Span::active(name.into())
    }

    /// Opens a span with a lazily built name; `f` runs only when
    /// collection is armed (so `format!` costs nothing when off).
    #[inline]
    pub fn enter_with(f: impl FnOnce() -> String) -> Span {
        if !enabled() {
            return Span::inert();
        }
        Span::active(Cow::Owned(f()))
    }

    fn inert() -> Span {
        Span {
            name: None,
            start_ns: 0,
            depth: 0,
            args: Vec::new(),
        }
    }

    fn active(name: Cow<'static, str>) -> Span {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            name: Some(name),
            start_ns: now_ns(),
            depth,
            args: Vec::new(),
        }
    }

    /// Whether this guard will record an event on drop.
    pub fn is_active(&self) -> bool {
        self.name.is_some()
    }

    /// Attaches an integer argument (word count, item count, ...).
    /// No-op on an inert guard.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.name.is_some() {
            self.args.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = now_ns();
        record(Event {
            name: name.into_owned(),
            kind: EventKind::Span,
            tid: thread_id(),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            depth: self.depth,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Opens a wall-time [`Span`] guard: `span!("name")` or
/// `span!("name", "items" = n, "words" = w)`. Bind it to a named local
/// (`let _sp = span!(...)`) so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($k:literal = $v:expr),+ $(,)?) => {{
        let mut __sp = $crate::Span::enter($name);
        $(__sp.arg($k, $v as u64);)+
        __sp
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collection state is process-global; tests that arm/disarm it
    // serialize on this lock so they cannot observe each other.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_spans_are_inert_and_free() {
        let _g = test_lock();
        capture_stop();
        drain();
        let mut s = Span::enter("never");
        assert!(!s.is_active());
        s.arg("x", 1);
        drop(s);
        let called = std::cell::Cell::new(false);
        let lazy = Span::enter_with(|| {
            called.set(true);
            "nope".to_string()
        });
        assert!(!lazy.is_active());
        drop(lazy);
        assert!(!called.get(), "lazy name must not be built when disarmed");
        counter("never.counter", 3);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_record_containment() {
        let _g = test_lock();
        capture_start();
        drain();
        {
            let mut outer = span!("outer");
            outer.arg("items", 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span!("inner", "w" = 3);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        capture_stop();
        let events = drain();
        assert_eq!(events.len(), 2);
        // Events are recorded at span end: inner first.
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(outer.dur_ns >= 2_000_000, "outer covers both sleeps");
        assert_eq!(outer.args, vec![("items", 7)]);
        assert_eq!(inner.args, vec![("w", 3)]);
    }

    #[test]
    fn concurrent_threads_lose_no_spans() {
        let _g = test_lock();
        capture_start();
        drain();
        let per_thread = 64;
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    for i in 0..per_thread {
                        let _sp = span!("concurrent.span", "t" = t, "i" = i);
                    }
                });
            }
        });
        capture_stop();
        let events: Vec<Event> = drain()
            .into_iter()
            .filter(|e| e.name == "concurrent.span")
            .collect();
        assert_eq!(events.len(), 8 * per_thread as usize);
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 8, "each thread keeps a distinct tid");
        // Per-thread order: recorded end times are non-decreasing.
        for tid in tids {
            let ends: Vec<u64> = events
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.start_ns + e.dur_ns)
                .collect();
            assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn flush_without_destination_writes_nothing() {
        let _g = test_lock();
        // No TREEEMB_TRACE in the test environment and no explicit path
        // configured: flush must not create any file.
        // lint:allow(env-read): probing whether the ambient environment
        // invalidates this test's premise, not configuring anything.
        if std::env::var("TREEEMB_TRACE").is_ok() {
            return; // environment overrides the premise; skip
        }
        capture_start();
        {
            let _sp = span!("will.not.be.written");
        }
        capture_stop();
        assert!(flush_trace().is_none());
        drain();
    }

    #[test]
    fn counters_and_marks_record_values() {
        let _g = test_lock();
        capture_start();
        drain();
        counter("exec.tasks", 42);
        mark("round.accounted", &[("sent_words", 9)]);
        capture_stop();
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Counter);
        assert_eq!(events[0].args, vec![("value", 42)]);
        assert_eq!(events[1].kind, EventKind::Mark);
        assert_eq!(events[1].args, vec![("sent_words", 9)]);
    }
}
