//! Offline shim for the `rayon` API subset this workspace uses.
//!
//! The build environment has no access to crates.io, so this crate
//! stands in for rayon behind the same paths (`rayon::prelude::*`,
//! `ThreadPoolBuilder`, `join`, `current_num_threads`). Unlike the
//! earlier revisions of this shim — which spawned scoped OS threads per
//! operation over statically partitioned blocks — scheduling now runs
//! on a **persistent work-stealing pool**: one Chase–Lev deque per
//! worker (the `deque` module), lazy binary splitting of index ranges, and a
//! global injector (the `registry` module). A parallel operation submits one
//! task covering its whole index space; executors peel halves off onto
//! their own deques down to a grain, so skewed workloads (power-law
//! frontiers where a few blocks hold most of the work) rebalance by
//! stealing instead of serializing on one thread.
//!
//! Thread-count semantics: the lazily created global pool is sized by
//! `RAYON_NUM_THREADS` / `available_parallelism`; every
//! [`ThreadPool`] owns its own equally real pool, and
//! [`ThreadPool::install`] runs the closure *on a pool worker* (as the
//! real rayon does), so its parallel operations — nested ones included
//! — stay on that pool and inherit its thread count. The old
//! per-operation design stored the install override in a `thread_local`
//! that spawned workers did not inherit, silently reverting nested
//! calls to the machine default; workers now carry their registry, so
//! the count cannot be lost. [`join`] reuses pool workers — the second
//! closure becomes a stealable task — instead of spawning an OS thread
//! per call.
//!
//! Supported surface:
//! * `into_par_iter()` on integer ranges, `par_iter()` on slices/`Vec`
//! * adapters: `map`, `filter`, `filter_map`, `enumerate`,
//!   `with_max_len`
//! * consumers: `collect` (into `Vec`), `for_each`, `count`, `sum`,
//!   `max`, `min`, `any`, `all`
//! * `par_sort_unstable` on slices (join-based parallel mergesort)
//! * `ThreadPoolBuilder` / `ThreadPool::install`, `current_num_threads`,
//!   `join`
//! * [`stats`] — steal/split counters (shim-specific; consumed by
//!   `kcore_parallel::pool`)
//!
//! Swap back to the real rayon by editing the workspace
//! `[workspace.dependencies]` entry; call sites need no changes (only
//! the shim-specific [`stats`] consumers would need gating).

mod deque;
mod registry;

use kcore_check::cell::UnsafeCell;
use kcore_check::sync::atomic::{AtomicUsize, Ordering};
use kcore_check::sync::{Arc, Mutex};
use registry::{Latch, RegistryShared, Task};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Scheduler introspection: process-wide and per-worker
/// steal/split/park/wake counters. Not part of the real rayon API —
/// consumers must gate on the shim.
pub mod stats {
    pub use crate::registry::WorkerSnapshot;

    /// Monotonic counters since process start, summed over every
    /// registry (global pool and explicit [`crate::ThreadPool`]s).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Snapshot {
        /// Tasks taken from another worker's deque.
        pub steals: u64,
        /// Range tasks halved to publish stealable work.
        pub splits: u64,
        /// Worker sleep episodes entered (condvar parks).
        pub parks: u64,
        /// Worker sleep episodes returned from; `wakes <= parks`
        /// always, with equality once a pool is idle or shut down.
        pub wakes: u64,
    }

    /// Reads the current counter values.
    pub fn snapshot() -> Snapshot {
        Snapshot {
            steals: crate::registry::steal_count(),
            splits: crate::registry::split_count(),
            parks: crate::registry::park_count(),
            wakes: crate::registry::wake_count(),
        }
    }

    /// Per-worker tallies of the *effective* registry: the calling
    /// worker's own pool on a pool thread (e.g. inside
    /// [`crate::ThreadPool::install`]), else the lazily created
    /// global pool. Indexed by worker.
    pub fn per_worker() -> Vec<WorkerSnapshot> {
        crate::effective_registry().worker_snapshots()
    }
}

/// Sources shorter than this run on the calling thread: scheduling costs
/// more than it saves.
///
/// The cutoff counts *items*, not work: it assumes an item is cheap. A
/// loop over a few heavy items — one per shard, arc block or vertex
/// bucket, each worth milliseconds — falls under it and runs on one
/// core however many workers the pool has. Such coarse loops must set
/// [`IndexedParallelIterator::with_max_len`], which skips this cutoff.
const MIN_PAR_LEN: usize = 2048;

/// Target number of grain-sized leaf tasks per worker. More leaves mean
/// finer stealing granularity at slightly higher task overhead.
const TASKS_PER_THREAD: usize = 8;

/// Smallest range a task is split down to.
const MIN_GRAIN: usize = 128;

/// Number of worker threads parallel operations on this thread will use.
///
/// Like the real rayon, the `RAYON_NUM_THREADS` environment variable
/// overrides the machine default (useful to force the multi-threaded
/// code paths on single-core runners and vice versa). On a pool worker
/// (including inside [`ThreadPool::install`], whose closure runs on
/// one) this is the owning pool's thread count.
pub fn current_num_threads() -> usize {
    if let Some((worker, _)) = registry::current_worker() {
        return worker.num_threads();
    }
    default_threads()
}

pub(crate) fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The registry new jobs from this thread are submitted to: the
/// worker's own registry on a pool thread, else the global one.
fn effective_registry() -> Arc<RegistryShared> {
    if let Some((worker, _)) = registry::current_worker() {
        return worker;
    }
    registry::global_registry()
}

// ---- block jobs ------------------------------------------------------

/// Shared state of one `run_blocks` invocation, referenced (type-erased)
/// by every task of the job. The submitting thread keeps it alive on its
/// stack until the latch fires, which happens only after every index has
/// been executed — so the erased references never dangle. The latch
/// itself is `Arc`-owned: the finishing executor holds its own clone
/// across [`Latch::set`], which outlives the job's stack frame (see the
/// latch's lifetime protocol).
struct BlockJob<'f, R> {
    f: &'f (dyn Fn(Range<usize>) -> R + Sync),
    /// `(range start, result)` per executed leaf; sorted on completion.
    results: Mutex<Vec<(usize, R)>>,
    /// Indices not yet executed; the job is done at zero.
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    latch: Arc<Latch>,
}

unsafe fn run_block<R: Send>(job: *const (), lo: usize, hi: usize) {
    let job = unsafe { &*(job as *const BlockJob<'_, R>) };
    match catch_unwind(AssertUnwindSafe(|| (job.f)(lo..hi))) {
        Ok(result) => {
            job.results.lock().expect("block job poisoned").push((lo, result));
        }
        Err(payload) => {
            let mut first = job.panic.lock().expect("block job poisoned");
            if first.is_none() {
                *first = Some(payload);
            }
        }
    }
    // Clone BEFORE the decrement: once `remaining` hits zero and `set`
    // stores `done`, the submitting thread may free `job` at any moment.
    // The owned clone keeps the latch alive through `set`'s notify; `job`
    // itself must not be touched past the final decrement.
    let latch = job.latch.clone();
    if job.remaining.fetch_sub(hi - lo, Ordering::AcqRel) == hi - lo {
        latch.set();
    }
}

/// Runs `f` over `0..n` on the effective pool as one splittable job and
/// returns the per-leaf results ordered by range start (a partition of
/// the source). Falls back to a single inline call when parallelism
/// cannot pay off.
///
/// `max_len` is the source's [`ParallelIterator::max_len`]: when set,
/// leaves hold at most that many indices and the [`MIN_PAR_LEN`]
/// cutoff does not apply.
fn run_blocks<R: Send>(
    n: usize,
    max_len: Option<usize>,
    f: &(dyn Fn(Range<usize>) -> R + Sync),
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let threads = current_num_threads();
    if threads <= 1 || (max_len.is_none() && n < MIN_PAR_LEN) {
        return vec![f(0..n)];
    }
    let grain = (n / (threads * TASKS_PER_THREAD))
        .max(MIN_GRAIN)
        .min(max_len.map_or(usize::MAX, |max| max.max(1)));
    if n <= grain {
        // A single leaf: skip the pool round trip. Unreachable without
        // `max_len`, since `n >= MIN_PAR_LEN` exceeds the default grain.
        return vec![f(0..n)];
    }
    let job = BlockJob {
        f,
        results: Mutex::new(Vec::new()),
        remaining: AtomicUsize::new(n),
        panic: Mutex::new(None),
        latch: Arc::new(Latch::new()),
    };
    let task = Task {
        job: &job as *const BlockJob<'_, R> as *const (),
        runner: run_block::<R>,
        lo: 0,
        hi: n,
        grain,
    };
    let pool = effective_registry();
    match registry::current_worker() {
        Some((worker, index)) if Arc::ptr_eq(&worker, &pool) => {
            // Nested call on a pool worker: seed our own deque and keep
            // executing (our job's tasks, or anyone else's) until done.
            // With the deque full, split what fits and run the rest here.
            if let Err(task) = worker.push_local(index, task) {
                registry::execute(&worker, index, task);
            }
            registry::work_until(&worker, index, || job.latch.probe());
        }
        _ => {
            pool.inject(task);
            job.latch.wait();
        }
    }
    if let Some(payload) = job.panic.into_inner().expect("block job poisoned") {
        resume_unwind(payload);
    }
    let mut results = job.results.into_inner().expect("block job poisoned");
    results.sort_unstable_by_key(|&(lo, _)| lo);
    results.into_iter().map(|(_, r)| r).collect()
}

// ---- join ------------------------------------------------------------

/// Shared state of one `join` call's second closure, referenced
/// (type-erased) by the task handed to the pool. The latch is
/// `Arc`-owned so the executor can outlive the caller's stack frame
/// while notifying (see the latch's lifetime protocol).
struct JoinJob<B, RB> {
    closure: UnsafeCell<Option<B>>,
    result: UnsafeCell<Option<RB>>,
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    latch: Arc<Latch>,
}

// SAFETY: the cells are touched by exactly one executor (whoever runs
// the task), and the caller reads them only after the latch's
// release/acquire handshake.
unsafe impl<B: Send, RB: Send> Sync for JoinJob<B, RB> {}

unsafe fn run_join<B, RB>(job: *const (), _lo: usize, _hi: usize)
where
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let job = unsafe { &*(job as *const JoinJob<B, RB>) };
    let closure =
        job.closure.with_mut(|p| unsafe { (*p).take() }).expect("join task executed twice");
    match catch_unwind(AssertUnwindSafe(closure)) {
        Ok(result) => job.result.with_mut(|p| unsafe { *p = Some(result) }),
        Err(payload) => job.panic.with_mut(|p| unsafe { *p = Some(payload) }),
    }
    // Owned clone across `set`: the caller may free `job` the instant
    // `done` becomes visible, while `set` is still notifying.
    let latch = job.latch.clone();
    latch.set();
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// `b` becomes a stealable pool task; `a` runs on the calling thread.
/// On a worker, `b` goes onto the worker's own deque (and is usually
/// popped right back — the cheap fork–join fast path); from outside the
/// pool it is injected. No OS thread is spawned either way.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let job = JoinJob::<B, RB> {
        closure: UnsafeCell::new(Some(b)),
        result: UnsafeCell::new(None),
        panic: UnsafeCell::new(None),
        latch: Arc::new(Latch::new()),
    };
    let job_ptr = &job as *const JoinJob<B, RB> as *const ();
    let task = Task { job: job_ptr, runner: run_join::<B, RB>, lo: 0, hi: 0, grain: 0 };
    let pool = effective_registry();
    let ra = match registry::current_worker() {
        Some((worker, index)) if Arc::ptr_eq(&worker, &pool) => {
            if worker.push_local(index, task).is_err() {
                // Deque full (pathological nesting): run sequentially.
                let ra = a();
                unsafe { run_join::<B, RB>(job_ptr, 0, 0) };
                return unpack_join(Ok(ra), &job);
            }
            let ra = catch_unwind(AssertUnwindSafe(a));
            // Reclaim `b`: pop our deque back down to it. Anything above
            // it is other jobs' pending work pushed while we executed
            // `a` — run it, it cannot be ours. If the deque runs out,
            // `b` was stolen (or already ran in a nested wait): keep the
            // pool busy until its latch fires.
            while !job.latch.probe() {
                match worker.take_local(index) {
                    Some(t) if std::ptr::eq(t.job, job_ptr) => {
                        registry::execute(&worker, index, t);
                        break;
                    }
                    Some(t) => registry::execute(&worker, index, t),
                    None => {
                        registry::work_until(&worker, index, || job.latch.probe());
                        break;
                    }
                }
            }
            ra
        }
        _ => {
            pool.inject(task);
            let ra = catch_unwind(AssertUnwindSafe(a));
            job.latch.wait();
            ra
        }
    };
    unpack_join(ra, &job)
}

/// Resolves a `join` call once both branches have settled: `a`'s panic
/// wins (it happened first), then `b`'s, then both results.
fn unpack_join<B, RA, RB>(ra: Result<RA, Box<dyn Any + Send>>, job: &JoinJob<B, RB>) -> (RA, RB) {
    let ra = match ra {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    };
    if let Some(payload) = job.panic.with_mut(|p| unsafe { (*p).take() }) {
        resume_unwind(payload);
    }
    let rb =
        job.result.with_mut(|p| unsafe { (*p).take() }).expect("join: second branch never ran");
    (ra, rb)
}

// ---- thread pools ----------------------------------------------------

/// Error type for [`ThreadPoolBuilder::build`]; never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` means "use the default" (as in rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool { registry: registry::Registry::new(n) })
    }
}

/// A real pool: `num_threads` persistent workers with their own deques.
/// Dropping the pool joins its workers.
pub struct ThreadPool {
    registry: registry::Registry,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.registry.shared.num_threads()
    }

    /// Executes `op` **on a pool worker** (as the real rayon does) and
    /// returns its result; the caller blocks meanwhile. Every parallel
    /// operation `op` issues therefore takes the cheap worker path —
    /// pushed on the worker's own deque and executed in place, with no
    /// cross-thread wakeup per operation — and inherits this pool's
    /// thread count, nested or not. Called from a worker of this very
    /// pool, `op` just runs in place.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some((worker, _)) = registry::current_worker() {
            if Arc::ptr_eq(&worker, &self.registry.shared) {
                return op();
            }
        }
        let job = JoinJob::<OP, R> {
            closure: UnsafeCell::new(Some(op)),
            result: UnsafeCell::new(None),
            panic: UnsafeCell::new(None),
            latch: Arc::new(Latch::new()),
        };
        let task = Task {
            job: &job as *const JoinJob<OP, R> as *const (),
            runner: run_join::<OP, R>,
            lo: 0,
            hi: 0,
            grain: 0,
        };
        self.registry.shared.inject(task);
        job.latch.wait();
        unpack_join(Ok(()), &job).1
    }
}

/// The core shim trait. Every iterator is backed by an indexed source of
/// known length; `drive` evaluates one contiguous block of source
/// indices sequentially, feeding produced items to `sink` in order.
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    /// Length of the underlying indexed source (items *before* any
    /// filtering).
    fn source_len(&self) -> usize;

    /// Evaluates source indices `range`, pushing each produced item into
    /// `sink` in source order.
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(Self::Item));

    /// Largest source range one leaf task may cover, as set by
    /// [`IndexedParallelIterator::with_max_len`]; `None` keeps the
    /// default schedule. Adapters report their base's value.
    fn max_len(&self) -> Option<usize> {
        None
    }

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter { base: self, pred }
    }

    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            self.drive(range, &mut |item| f(item))
        });
    }

    fn count(self) -> usize {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            let mut c = 0usize;
            self.drive(range, &mut |_| c += 1);
            c
        })
        .into_iter()
        .sum()
    }

    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            // Fold incrementally through the two Sum impls — no
            // per-block buffer of the items.
            let mut acc: Option<S> = None;
            self.drive(range, &mut |item| {
                let one = std::iter::once(item).sum::<S>();
                acc = Some(match acc.take() {
                    None => one,
                    Some(a) => [a, one].into_iter().sum::<S>(),
                });
            });
            acc
        })
        .into_iter()
        .flatten()
        .sum()
    }

    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            let mut best: Option<Self::Item> = None;
            self.drive(range, &mut |item| {
                if best.as_ref().is_none_or(|b| *b < item) {
                    best = Some(item);
                }
            });
            best
        })
        .into_iter()
        .flatten()
        .max()
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            let mut best: Option<Self::Item> = None;
            self.drive(range, &mut |item| {
                if best.as_ref().is_none_or(|b| *b > item) {
                    best = Some(item);
                }
            });
            best
        })
        .into_iter()
        .flatten()
        .min()
    }

    fn any<P>(self, pred: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Send + Sync,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            let mut hit = false;
            self.drive(range, &mut |item| hit = hit || pred(item));
            hit
        })
        .into_iter()
        .any(|b| b)
    }

    fn all<P>(self, pred: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Send + Sync,
    {
        run_blocks(self.source_len(), self.max_len(), &|range| {
            let mut ok = true;
            self.drive(range, &mut |item| ok = ok && pred(item));
            ok
        })
        .into_iter()
        .all(|b| b)
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Marker + helpers for iterators whose items correspond 1:1, in order,
/// to source indices (no filtering upstream).
pub trait IndexedParallelIterator: ParallelIterator {
    fn len(&self) -> usize {
        self.source_len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Splits the source down to leaves of at most `max` items, as
    /// rayon's method of the same name does. It also lifts the shim's
    /// inline cutoff for sources under 2048 items, so a loop over
    /// a few dozen heavy items forks across the pool. `max == 0` counts
    /// as 1.
    fn with_max_len(self, max: usize) -> MaxLen<Self> {
        MaxLen { base: self, max }
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let blocks = run_blocks(iter.source_len(), iter.max_len(), &|range| {
            let mut items = Vec::new();
            iter.drive(range, &mut |item| items.push(item));
            items
        });
        let mut out = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
        for b in blocks {
            out.extend(b);
        }
        out
    }
}

// ---- sources ---------------------------------------------------------

/// Parallel iterator over an integer range.
pub struct IterRange<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = IterRange<$t>;
            fn into_par_iter(self) -> IterRange<$t> {
                let len = if self.end > self.start { (self.end - self.start) as usize } else { 0 };
                IterRange { start: self.start, len }
            }
        }

        impl ParallelIterator for IterRange<$t> {
            type Item = $t;
            fn source_len(&self) -> usize {
                self.len
            }
            fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut($t)) {
                for i in range {
                    sink(self.start + i as $t);
                }
            }
        }

        impl IndexedParallelIterator for IterRange<$t> {}
    )*};
}

impl_range_par_iter!(u32, u64, usize);

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn source_len(&self) -> usize {
        self.slice.len()
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(&'a T)) {
        for item in &self.slice[range] {
            sink(item);
        }
    }
}

impl<T: Sync> IndexedParallelIterator for SliceIter<'_, T> {}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

// ---- adapters --------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn max_len(&self) -> Option<usize> {
        self.base.max_len()
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(R)) {
        self.base.drive(range, &mut |item| sink((self.f)(item)));
    }
}

impl<I, F, R> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    F: Fn(I::Item) -> R + Send + Sync,
    R: Send,
{
}

pub struct Filter<I, P> {
    base: I,
    pred: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Send + Sync,
{
    type Item = I::Item;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn max_len(&self) -> Option<usize> {
        self.base.max_len()
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(I::Item)) {
        self.base.drive(range, &mut |item| {
            if (self.pred)(&item) {
                sink(item);
            }
        });
    }
}

pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for FilterMap<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    type Item = R;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn max_len(&self) -> Option<usize> {
        self.base.max_len()
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(R)) {
        self.base.drive(range, &mut |item| {
            if let Some(mapped) = (self.f)(item) {
                sink(mapped);
            }
        });
    }
}

pub struct MaxLen<I> {
    base: I,
    max: usize,
}

impl<I: IndexedParallelIterator> ParallelIterator for MaxLen<I> {
    type Item = I::Item;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn max_len(&self) -> Option<usize> {
        Some(self.max)
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(I::Item)) {
        self.base.drive(range, sink);
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for MaxLen<I> {}

pub struct Enumerate<I> {
    base: I,
}

impl<I> ParallelIterator for Enumerate<I>
where
    I: IndexedParallelIterator,
{
    type Item = (usize, I::Item);
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn max_len(&self) -> Option<usize> {
        self.base.max_len()
    }
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut((usize, I::Item))) {
        // Indexed upstream: items map 1:1 to source indices, so the
        // global index is the block-local position plus the block start.
        let mut idx = range.start;
        self.base.drive(range, &mut |item| {
            sink((idx, item));
            idx += 1;
        });
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {}

// ---- parallel sort ---------------------------------------------------

pub trait ParallelSliceMut<T: Send> {
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

/// Raw pointer that may cross threads; the mergesort recursion hands
/// each branch a disjoint region.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Send` wrapper, not the raw pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: the recursion below only ever touches disjoint index ranges
// through copies of the same pointer.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        let n = self.len();
        let threads = current_num_threads();
        if threads <= 1 || n < MIN_PAR_LEN {
            self.sort_unstable();
            return;
        }
        // Join-based parallel mergesort through a scratch buffer.
        // Elements are moved bitwise (never dropped): scratch keeps
        // len = 0 and is used as raw storage only. A panicking `Ord`
        // impl during the merge would leak/duplicate elements of a
        // non-Copy `T`; all users in this workspace sort Copy types.
        let mut scratch: Vec<T> = Vec::with_capacity(n);
        let grain = (n / (threads * 2)).max(MIN_PAR_LEN / 2);
        // SAFETY: base and scratch are disjoint allocations of n slots.
        unsafe { par_merge_sort(self.as_mut_ptr(), scratch.as_mut_ptr(), 0, n, grain) };
    }
}

/// Sorts `base[lo..hi]`: recursively sorts both halves (in parallel via
/// [`join`]) and merges them through `tmp[lo..hi]`.
///
/// # Safety
///
/// `base` and `tmp` must each be valid for reads/writes over `lo..hi`
/// and must not overlap; no other thread may touch that region of
/// either for the duration of the call.
unsafe fn par_merge_sort<T: Ord + Send>(
    base: *mut T,
    tmp: *mut T,
    lo: usize,
    hi: usize,
    grain: usize,
) {
    let len = hi - lo;
    if len <= grain {
        unsafe { std::slice::from_raw_parts_mut(base.add(lo), len) }.sort_unstable();
        return;
    }
    let mid = lo + len / 2;
    let base_ptr = SendPtr(base);
    let tmp_ptr = SendPtr(tmp);
    join(
        // SAFETY: the two branches own disjoint ranges of both buffers.
        move || unsafe { par_merge_sort(base_ptr.get(), tmp_ptr.get(), lo, mid, grain) },
        move || unsafe { par_merge_sort(base_ptr.get(), tmp_ptr.get(), mid, hi, grain) },
    );
    unsafe { merge_runs(base, tmp, lo, mid, hi) };
}

/// Merges the sorted runs `base[lo..mid]` and `base[mid..hi]` in place,
/// using `tmp[lo..hi]` as scratch (so sibling merges in the parallel
/// recursion touch disjoint scratch regions).
///
/// # Safety
///
/// `base` and `tmp` must be valid for reads/writes over `lo..hi`, and
/// the two allocations must not overlap.
unsafe fn merge_runs<T: Ord>(base: *mut T, tmp: *mut T, lo: usize, mid: usize, hi: usize) {
    let mut i = lo;
    let mut j = mid;
    let mut k = lo;
    while i < mid && j < hi {
        if *base.add(j) < *base.add(i) {
            std::ptr::copy_nonoverlapping(base.add(j), tmp.add(k), 1);
            j += 1;
        } else {
            std::ptr::copy_nonoverlapping(base.add(i), tmp.add(k), 1);
            i += 1;
        }
        k += 1;
    }
    if i < mid {
        std::ptr::copy_nonoverlapping(base.add(i), tmp.add(k), mid - i);
        k += mid - i;
    }
    if j < hi {
        std::ptr::copy_nonoverlapping(base.add(j), tmp.add(k), hi - j);
        k += hi - j;
    }
    std::ptr::copy_nonoverlapping(tmp.add(lo), base.add(lo), k - lo);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_collect_preserves_order() {
        let v: Vec<u32> = (0u32..10_000).into_par_iter().collect();
        assert_eq!(v, (0u32..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn map_filter_chain() {
        let v: Vec<usize> =
            (0usize..10_000).into_par_iter().map(|i| i * 2).filter(|&x| x % 3 == 0).collect();
        let want: Vec<usize> = (0usize..10_000).map(|i| i * 2).filter(|&x| x % 3 == 0).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn slice_enumerate_matches_sequential() {
        let data: Vec<u32> = (0..5000u32).rev().collect();
        let got: Vec<(usize, u32)> = data.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        let want: Vec<(usize, u32)> = data.iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reductions() {
        assert_eq!((0u64..1_000).into_par_iter().sum::<u64>(), 499_500);
        assert_eq!((0u32..9_999).into_par_iter().max(), Some(9_998));
        assert_eq!((0u32..9_999).into_par_iter().min(), Some(0));
        assert_eq!((0usize..10_000).into_par_iter().filter(|&i| i % 7 == 0).count(), 1429);
        assert!((0u32..10_000).into_par_iter().any(|i| i == 9_999));
        assert!(!(0u32..10_000).into_par_iter().any(|i| i == 10_000));
        assert!((0u32..10_000).into_par_iter().all(|i| i < 10_000));
    }

    #[test]
    fn par_sort_matches_std_sort() {
        let mut v: Vec<u64> = (0..100_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let mut want = v.clone();
        want.sort_unstable();
        v.par_sort_unstable();
        assert_eq!(v, want);
    }

    #[test]
    fn par_sort_under_forced_threads() {
        // Force the multi-threaded merge path even on 1-CPU machines.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let mut v: Vec<u32> = (0..50_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let mut want = v.clone();
            want.sort_unstable();
            v.par_sort_unstable();
            assert_eq!(v, want);
        });
    }

    #[test]
    fn high_thread_count_never_overruns_the_source() {
        // Regression (static-partition era): trailing blocks computed
        // from the thread count used to run past the end of the source.
        // The splitting scheduler partitions `0..n` by construction, but
        // keep the boundary case covered.
        let pool = ThreadPoolBuilder::new().num_threads(64).build().unwrap();
        pool.install(|| {
            let data: Vec<u32> = (0..2500u32).collect();
            let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
            assert_eq!(doubled.len(), 2500);
            assert_eq!(doubled[2499], 4998);
            assert_eq!(data.par_iter().map(|&x| x as u64).sum::<u64>(), 2499 * 2500 / 2);
        });
    }

    #[test]
    fn sum_of_empty_and_filtered_blocks() {
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        pool.install(|| {
            assert_eq!((0u64..0).into_par_iter().sum::<u64>(), 0);
            // Whole blocks filter to nothing; their accumulators stay empty.
            assert_eq!((0u64..10_000).into_par_iter().filter(|&x| x == 1).sum::<u64>(), 1);
        });
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn join_returns_both() {
        assert_eq!(join(|| 1 + 1, || "x"), (2, "x"));
    }

    #[test]
    fn workers_inherit_pool_thread_count() {
        // Regression: the per-operation design stored the install
        // override in a plain thread_local that spawned workers did not
        // inherit, so nested parallel calls inside a worker closure
        // reverted to the machine default. Workers now carry their
        // registry: every leaf must observe the pool's thread count.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let counts: Vec<usize> = pool.install(|| {
            (0..2 * MIN_PAR_LEN).into_par_iter().map(|_| current_num_threads()).collect()
        });
        assert!(counts.iter().all(|&c| c == 3), "a worker saw the wrong thread count");
    }

    #[test]
    fn nested_parallel_ops_stay_in_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let total: u64 = pool.install(|| {
            (0..4 * MIN_PAR_LEN as u64)
                .into_par_iter()
                .map(|_| {
                    // Nested op from (usually) a worker thread; must see
                    // 2 threads and produce the exact sum.
                    assert_eq!(current_num_threads(), 2);
                    1u64
                })
                .sum()
        });
        assert_eq!(total, 4 * MIN_PAR_LEN as u64);
    }

    fn pool_splits() -> u64 {
        stats::per_worker().iter().map(|w| w.splits).sum()
    }

    #[test]
    fn short_sources_without_max_len_run_inline() {
        // Counted on the pool's own workers, so concurrent tests on
        // other pools cannot disturb the tally.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            let caller = std::thread::current().id();
            let before = pool_splits();
            let ids: Vec<_> =
                (0..60usize).into_par_iter().map(|_| std::thread::current().id()).collect();
            assert_eq!(pool_splits(), before, "a short loop split");
            assert!(ids.iter().all(|&id| id == caller), "a short loop left the caller");
        });
    }

    #[test]
    fn with_max_len_splits_short_sources() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (splits, leaves) = pool.install(|| {
            let before = pool_splits();
            let leaves = run_blocks(60, Some(1), &|range| range.len());
            (pool_splits() - before, leaves)
        });
        assert!(splits > 0, "with_max_len(1) over 60 items never split");
        assert_eq!(leaves, vec![1; 60], "a leaf exceeded max_len");
    }

    #[test]
    fn with_max_len_preserves_collect_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            for max in [0, 1, 3, 64, 10_000] {
                let got: Vec<(usize, u32)> = (0u32..60)
                    .into_par_iter()
                    .with_max_len(max)
                    .map(|x| x * 3)
                    .filter(|&x| x % 2 == 0)
                    .collect::<Vec<_>>()
                    .par_iter()
                    .with_max_len(max)
                    .enumerate()
                    .map(|(i, &x)| (i, x))
                    .collect();
                let want: Vec<(usize, u32)> =
                    (0u32..60).map(|x| x * 3).filter(|&x| x % 2 == 0).enumerate().collect();
                assert_eq!(got, want, "max_len {max}");
                let sum: u64 = (0u64..60).into_par_iter().with_max_len(max).sum();
                assert_eq!(sum, 59 * 60 / 2);
            }
        });
    }

    #[test]
    fn steal_and_split_counters_advance() {
        let before = stats::snapshot();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let sum: u64 = (0..100_000u64).into_par_iter().map(|x| x % 7).sum();
            assert_eq!(sum, (0..100_000u64).map(|x| x % 7).sum());
        });
        let after = stats::snapshot();
        assert!(after.splits > before.splits, "large jobs must split");
    }
}
