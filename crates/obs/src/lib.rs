//! First-party tracing and metrics for the k-core engine.
//!
//! The container has no crates.io access, so this crate is a small,
//! dependency-free substitute for the `tracing` + `tracing-chrome`
//! stack: callsite macros ([`span!`], [`counter!`]) record
//! into lock-free per-thread ring buffers and callsite-static counter
//! cells, and [`TraceReport::capture`] snapshots everything into one
//! report that exports Chrome Trace Event Format
//! ([`TraceReport::chrome_trace`], loadable in `chrome://tracing` or
//! Perfetto).
//!
//! # Runtime gating and the overhead contract
//!
//! Everything is gated by the `KCORE_TRACE` environment variable
//! (read once, overridable in-process via [`set_level`]):
//!
//! * `off` (default) — the macros evaluate a single relaxed atomic
//!   load and a predictable branch, then do **nothing**: no
//!   thread-local access, no clock read, no allocation. The per-thread
//!   ring buffers are allocated lazily on a thread's *first recorded
//!   span*, so a process that never enables tracing never allocates
//!   a buffer at all (asserted by `tests/off_noop.rs`).
//! * `spans` — everything is live. A span records two fixed-size ring
//!   slots (begin/end) with one monotonic clock read each; a
//!   [`counter!`] is one relaxed `fetch_add` on a callsite-static cell.
//!   Instrumentation in the engine is placed at round / subround /
//!   phase granularity — never per-vertex — so even `spans` costs
//!   O(rounds) clock reads per decomposition.
//!
//! Unknown `KCORE_TRACE` values panic with the valid set.
//!
//! # Ring-buffer design
//!
//! Each recording thread owns a [`ring::ThreadBuffer`]: a fixed-power-
//! of-two ring of 24-byte slots, each slot three `AtomicU64`s
//! (timestamp-nanos, packed `name_id | kind`, argument). The owning
//! thread is the only writer: it fills the slot with relaxed stores,
//! then *publishes* by bumping the write cursor with `Release`. A
//! capture ([`TraceReport::capture`]) acquires the cursor and reads
//! slots with relaxed loads — every slot at an index below the
//! acquired cursor is fully written, and torn reads are impossible by
//! construction because every word is individually atomic. On
//! overflow the ring keeps the newest records and counts the
//! overwritten ones (`dropped` in the report); capture is intended to
//! run at quiescence (after a decomposition returns), which the
//! read-side contract documents rather than enforces.
//!
//! A capture does not consume what it reads: the rings and counters
//! keep their contents, so a second capture reports every earlier
//! record again. [`reset`] clears them and starts a new window.
//!
//! Span/counter names are `&'static str`s interned once per callsite
//! into a global table ([`registry`]); records carry the `u32` id, so
//! the hot path never touches the string or any lock after the first
//! hit at a callsite.
//!
//! # Run statistics live elsewhere
//!
//! This crate records *timelines* and a few counters that have no
//! other home (triangle-kernel choices, build shards). Per-run
//! quantities — rounds, subrounds, burdened span, sampling and VGC
//! counts, scheduler steals, maintenance region sizes — are carried
//! only by the stats structs returned with each run (`RunStats`,
//! `MaintainStats`, `SchedulerStats`), never copied in here.

pub mod registry;
pub mod report;
pub mod ring;

pub use report::{SpanAgg, ThreadTrace, TraceRecord, TraceReport};
pub use ring::RecordKind;

use kcore_check::sync::atomic::{AtomicU8, Ordering};

/// Tracing level, parsed from `KCORE_TRACE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; macros are branch-only no-ops.
    Off = 0,
    /// Full span timeline plus counters.
    Spans = 1,
}

impl Level {
    /// Human name, as accepted by `KCORE_TRACE`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Spans => "spans",
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

#[cold]
fn init_level_from_env() -> u8 {
    let parsed = match std::env::var("KCORE_TRACE") {
        Ok(raw) => match raw.trim() {
            "" | "off" | "0" => Level::Off,
            "spans" => Level::Spans,
            other => panic!("KCORE_TRACE: unknown level {other:?} (valid: off, spans)"),
        },
        Err(_) => Level::Off,
    };
    // A concurrent set_level or env init may have raced us; first
    // writer wins so the level is stable for the whole process.
    match LEVEL.compare_exchange(LEVEL_UNSET, parsed as u8, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => parsed as u8,
        Err(current) => current,
    }
}

/// The active [`Level`]. First call parses `KCORE_TRACE`.
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    let raw = if raw == LEVEL_UNSET { init_level_from_env() } else { raw };
    match raw {
        1 => Level::Spans,
        _ => Level::Off,
    }
}

/// Hot-path gate: is `at` (or anything stronger) enabled?
#[inline(always)]
pub fn enabled(at: Level) -> bool {
    level() >= at
}

/// Override the level in-process (tests, programmatic enables).
///
/// Takes precedence over `KCORE_TRACE` from the moment it is called;
/// already-recorded data is kept (use [`reset`] to discard it).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Discard all recorded spans and counters, starting a new capture
/// window.
///
/// Thread buffers stay allocated (they are reused), but their
/// contents and the dropped-record tallies are cleared. A
/// [`TraceReport::capture`] leaves them as they are, so call this
/// between captures that should not repeat each other's records.
pub fn reset() {
    ring::reset_all();
    registry::reset_counters();
}

/// A RAII span: records a begin slot when armed, an end slot on drop.
///
/// Built by the [`span!`] macro; construct directly only via
/// [`SpanGuard::begin_dyn`] for names not known at the callsite.
#[must_use = "a span ends when the guard drops"]
pub struct SpanGuard {
    id: u32,
    armed: bool,
}

impl SpanGuard {
    #[doc(hidden)]
    #[inline]
    pub fn begin(id: &'static registry::NameId, name: &'static str, arg: u64) -> SpanGuard {
        if !enabled(Level::Spans) {
            return SpanGuard { id: 0, armed: false };
        }
        let id = id.get(name);
        ring::record(RecordKind::Begin, id, arg);
        SpanGuard { id, armed: true }
    }

    /// Slow-path span for dynamic (but still interned-by-content)
    /// names, e.g. a problem's `name()`. One registry lookup per
    /// call; use once-per-run, not in loops.
    #[inline]
    pub fn begin_dyn(name: &str, arg: u64) -> SpanGuard {
        if !enabled(Level::Spans) {
            return SpanGuard { id: 0, armed: false };
        }
        let id = registry::intern_dynamic(name);
        ring::record(RecordKind::Begin, id, arg);
        SpanGuard { id, armed: true }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            ring::record(RecordKind::End, self.id, 0);
        }
    }
}

/// Open a named span for the enclosing scope.
///
/// `span!("name")` or `span!("name", arg)` — the optional `arg` is a
/// `u64` payload shown in the Chrome trace (frontier sizes, k, batch
/// sizes). Returns a [`SpanGuard`]; bind it (`let _s = span!(..)`) so
/// it ends where the scope does.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static __KCORE_OBS_ID: $crate::registry::NameId = $crate::registry::NameId::new();
        $crate::SpanGuard::begin(&__KCORE_OBS_ID, $name, $arg as u64)
    }};
}

/// Bump a named counter by `delta`: one relaxed `fetch_add` on a
/// callsite-static cell, live at `KCORE_TRACE=spans`. Only for
/// quantities with no stats-struct home; read them back from
/// [`TraceReport::counters`].
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        if $crate::enabled($crate::Level::Spans) {
            static __KCORE_OBS_CELL: $crate::registry::CounterCell =
                $crate::registry::CounterCell::new($name);
            __KCORE_OBS_CELL.add($delta as u64);
        }
    }};
}

/// Run `f`, always returning its elapsed wall-clock nanos, and record
/// a span around it when spans are enabled.
///
/// For call sites that need the duration *regardless* of the trace
/// level (e.g. `MaintainStats` phase nanos): the measurement is
/// unconditional, only the timeline record is gated.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let guard = SpanGuard::begin_dyn(name, 0);
    let start = std::time::Instant::now();
    let out = f();
    let nanos = start.elapsed().as_nanos() as u64;
    drop(guard);
    (out, nanos)
}

/// Number of per-thread ring buffers allocated so far (test hook for
/// the "off allocates nothing" contract).
pub fn thread_buffer_count() -> usize {
    ring::buffer_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_macro_accumulates_at_spans() {
        let _g = serial();
        set_level(Level::Spans);
        reset();
        counter!("test.counter", 3);
        counter!("test.counter", 4);
        let report = TraceReport::capture();
        assert!(report.counters.iter().any(|(n, v)| n == "test.counter" && *v == 7));
        set_level(Level::Off);
    }

    #[test]
    fn spans_nest_and_count() {
        let _g = serial();
        set_level(Level::Spans);
        reset();
        kcore_check::thread::spawn(|| {
            let _outer = span!("test.outer");
            for i in 0..3 {
                let _inner = span!("test.inner", i);
            }
        })
        .join()
        .unwrap();
        let report = TraceReport::capture();
        assert_eq!(report.span_count("test.outer"), 1);
        assert_eq!(report.span_count("test.inner"), 3);
        let chrome = report.chrome_trace();
        assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"ph\":\"E\""));
        set_level(Level::Off);
    }

    #[test]
    fn capture_is_a_snapshot_and_reset_starts_a_new_window() {
        let _g = serial();
        set_level(Level::Spans);
        reset();
        kcore_check::thread::spawn(|| {
            for i in 0..4 {
                let _s = span!("test.window", i);
            }
        })
        .join()
        .unwrap();
        let first = TraceReport::capture();
        let second = TraceReport::capture();
        assert_eq!(first.span_count("test.window"), 4);
        assert_eq!(second.span_count("test.window"), 4, "a capture must not consume the rings");
        reset();
        assert_eq!(TraceReport::capture().span_count("test.window"), 0);
        set_level(Level::Off);
    }
}
