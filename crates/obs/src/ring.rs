//! Lock-free per-thread ring buffers.
//!
//! One [`ThreadBuffer`] per recording thread, allocated lazily on the
//! thread's first record and leaked into a global list (buffers are
//! reused for the process lifetime; [`reset_all`] clears contents,
//! not allocations). The owner is the single producer:
//!
//! 1. relaxed-store the three record words into `slots[pos % CAP]`,
//! 2. `Release`-store `pos + 1` into the write cursor.
//!
//! A drain `Acquire`-loads the cursor and relaxed-loads every slot
//! below it: the release/acquire edge orders the slot stores before
//! the cursor value, and each word is individually atomic, so a
//! reader never sees a torn record. Records landing *during* a drain
//! can be missed or half-ordered across threads — the contract is
//! drain-at-quiescence (after the instrumented run returns), which
//! every in-tree capture site honors.
//!
//! On wrap the newest record wins and the overwritten one is counted
//! as dropped (`pos` keeps the total ever written, so
//! `pos.saturating_sub(CAP)` is the drop count).
//!
//! Checker contract (see `model_tests`, compiled under
//! `RUSTFLAGS="--cfg kcore_check"`): the Release publish of the write
//! cursor paired with the drain's Acquire load is the only edge
//! ordering slot words before the cursor value — both sides are
//! registered mutation sites (`ring.push.pos.release`,
//! `ring.drain.pos.acquire`), and weakening either to Relaxed lets a
//! concurrent drain return records with stale words.

use kcore_check::mutate;
use kcore_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use kcore_check::sync::Mutex;
use std::time::Instant;

/// Ring capacity in records. 32Ki records × 24 bytes = 768KiB per
/// recording thread — enough for every round/subround/phase span of
/// the largest in-tree bench run without wrapping. (Model tests build
/// tiny rings via `with_capacity` instead of shrinking this constant,
/// so instrumented builds trace real runs unchanged.)
pub const CAPACITY: usize = 1 << 15;

/// What a record marks. Packed into the low byte of word 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Span open (Chrome `ph:"B"`).
    Begin = 0,
    /// Span close (Chrome `ph:"E"`).
    End = 1,
}

struct Slot {
    nanos: AtomicU64,
    packed: AtomicU64,
    arg: AtomicU64,
}

/// A single-producer ring owned by one thread.
pub struct ThreadBuffer {
    /// Dense trace-thread id (registration order), stable across
    /// [`reset_all`].
    tid: u32,
    /// Total records ever written; write cursor is `pos % CAPACITY`.
    pos: AtomicUsize,
    slots: Box<[Slot]>,
}

impl ThreadBuffer {
    fn new(tid: u32) -> &'static ThreadBuffer {
        Self::with_capacity(tid, CAPACITY)
    }

    /// Capacity-parameterized constructor so model tests can exercise
    /// wraparound with a handful of pushes.
    fn with_capacity(tid: u32, cap: usize) -> &'static ThreadBuffer {
        let slots = (0..cap)
            .map(|_| Slot {
                nanos: AtomicU64::new(0),
                packed: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::leak(Box::new(ThreadBuffer { tid, pos: AtomicUsize::new(0), slots }))
    }

    #[inline]
    fn push(&self, nanos: u64, name_id: u32, kind: RecordKind, arg: u64) {
        let cap = self.slots.len();
        let pos = self.pos.load(Ordering::Relaxed);
        let slot = &self.slots[pos % cap];
        slot.nanos.store(nanos, Ordering::Relaxed);
        slot.packed.store(((name_id as u64) << 8) | kind as u64, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        self.pos.store(pos + 1, mutate::ordering("ring.push.pos.release", Ordering::Release));
    }

    /// Drain: `(tid, records oldest-first, dropped count)`.
    fn drain(&self) -> (u32, Vec<RawRecord>, u64) {
        let cap = self.slots.len();
        let pos = self.pos.load(mutate::ordering("ring.drain.pos.acquire", Ordering::Acquire));
        let dropped = pos.saturating_sub(cap) as u64;
        let start = pos.saturating_sub(cap);
        let mut out = Vec::with_capacity(pos - start);
        for i in start..pos {
            let slot = &self.slots[i % cap];
            let packed = slot.packed.load(Ordering::Relaxed);
            let kind = match packed & 0xff {
                0 => RecordKind::Begin,
                _ => RecordKind::End,
            };
            out.push(RawRecord {
                nanos: slot.nanos.load(Ordering::Relaxed),
                name_id: (packed >> 8) as u32,
                kind,
                arg: slot.arg.load(Ordering::Relaxed),
            });
        }
        (self.tid, out, dropped)
    }
}

/// A decoded record, name still as interned id.
#[derive(Clone, Copy, Debug)]
pub struct RawRecord {
    pub nanos: u64,
    pub name_id: u32,
    pub kind: RecordKind,
    pub arg: u64,
}

static BUFFERS: Mutex<Vec<&'static ThreadBuffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: std::cell::Cell<Option<&'static ThreadBuffer>> =
        const { std::cell::Cell::new(None) };
}

#[cold]
fn register_local() -> &'static ThreadBuffer {
    let mut buffers = BUFFERS.lock().unwrap();
    let buf = ThreadBuffer::new(buffers.len() as u32);
    buffers.push(buf);
    LOCAL.with(|l| l.set(Some(buf)));
    buf
}

/// Monotonic process epoch; all record timestamps are nanos since the
/// first record ever taken.
fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Record one slot on the calling thread's buffer (allocating it on
/// first use). Callers gate on [`crate::enabled`] first.
#[inline]
pub fn record(kind: RecordKind, name_id: u32, arg: u64) {
    let buf = LOCAL.with(|l| l.get()).unwrap_or_else(register_local);
    buf.push(epoch().elapsed().as_nanos() as u64, name_id, kind, arg);
}

/// Drain every registered buffer: `(tid, records, dropped)` per
/// thread. Intended to run at quiescence.
pub fn drain_all() -> Vec<(u32, Vec<RawRecord>, u64)> {
    BUFFERS.lock().unwrap().iter().map(|b| b.drain()).collect()
}

/// Clear every buffer's contents (allocations are kept).
pub fn reset_all() {
    for buf in BUFFERS.lock().unwrap().iter() {
        buf.pos.store(0, Ordering::Release);
    }
}

/// How many thread buffers exist (test hook).
pub fn buffer_count() -> usize {
    BUFFERS.lock().unwrap().len()
}

/// The calling thread's dense trace id, if it has recorded anything.
pub fn current_tid() -> Option<u32> {
    LOCAL.with(|l| l.get()).map(|b| b.tid)
}

/// Model-checked tests of the Release-publish / Acquire-drain edge,
/// compiled only under the instrumented facade. Buffers are built
/// directly (one fresh leaked allocation per execution) instead of
/// through the global registry, whose process-wide state would couple
/// executions together.
#[cfg(all(test, kcore_check))]
mod model_tests {
    use super::*;
    use kcore_check::{thread, Checker};

    /// Pushes record `k` with all three words derived from `k`, so any
    /// drained record whose words disagree was read across the torn
    /// reserve-to-publish window.
    fn push_kth(buf: &ThreadBuffer, k: u64) {
        buf.push(k, k as u32, RecordKind::Begin, k * 100);
    }

    fn assert_consistent(records: &[RawRecord]) {
        for (i, r) in records.iter().enumerate() {
            let k = i as u64 + 1;
            assert!(
                r.nanos == k && r.name_id as u64 == k && r.arg == k * 100,
                "record {i} has torn or stale words: {r:?}"
            );
        }
    }

    /// Model ring capacity: big enough not to wrap in the two-record
    /// tests, small enough that the wrap test needs only six pushes.
    const MODEL_CAP: usize = 4;

    /// A drain racing the producer must return a consistent prefix:
    /// every record below the cursor it observed is fully published.
    fn concurrent_drain_is_prefix_consistent() {
        let buf = ThreadBuffer::with_capacity(0, MODEL_CAP);
        let t = thread::spawn(move || {
            push_kth(buf, 1);
            push_kth(buf, 2);
        });
        let (_, records, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        assert!(records.len() <= 2, "drained more than was pushed");
        assert_consistent(&records);
        t.join().unwrap();
    }

    #[test]
    fn ring_concurrent_drain_passes() {
        Checker::new().check(concurrent_drain_is_prefix_consistent);
    }

    /// Wrap accounting at the model capacity: two overwritten records
    /// are counted dropped and the survivors come back oldest-first.
    #[test]
    fn ring_wraparound_drop_count() {
        Checker::new().check(|| {
            let buf = ThreadBuffer::with_capacity(0, MODEL_CAP);
            let t = thread::spawn(move || {
                for k in 1..=(MODEL_CAP as u64 + 2) {
                    push_kth(buf, k);
                }
            });
            t.join().unwrap();
            let (_, records, dropped) = buf.drain();
            assert_eq!(dropped, 2);
            assert_eq!(records.len(), MODEL_CAP);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.nanos, i as u64 + 3, "wrapped drain out of order: {records:?}");
            }
        });
    }

    /// Mutation teeth: a Relaxed cursor publish lets the drain observe
    /// the cursor without the slot words.
    #[test]
    fn mutation_ring_push_pos_release_has_teeth() {
        let _weaken = mutate::weaken("ring.push.pos.release");
        let report = Checker::new().check_fails(concurrent_drain_is_prefix_consistent);
        assert!(report.contains("torn or stale"), "unexpected report: {report}");
    }

    /// Mutation teeth: a Relaxed drain-side cursor load severs the
    /// same edge from the reader's end.
    #[test]
    fn mutation_ring_drain_pos_acquire_has_teeth() {
        let _weaken = mutate::weaken("ring.drain.pos.acquire");
        let report = Checker::new().check_fails(concurrent_drain_is_prefix_consistent);
        assert!(report.contains("torn or stale"), "unexpected report: {report}");
    }
}
