//! The persistent work-stealing runtime behind the shim's public API.
//!
//! A [`Registry`] owns a set of worker threads, one Chase–Lev deque per
//! worker, and a global injector queue. Parallel operations submit
//! *tasks* — erased `(job pointer, runner fn, index range)` triples —
//! and workers execute them, splitting large ranges in half as they go
//! so idle workers always find something to steal. There is one lazily
//! created global registry (sized by `RAYON_NUM_THREADS` /
//! `available_parallelism`), plus one registry per [`crate::ThreadPool`].
//!
//! Scheduling protocol:
//! * Block jobs enter as a single task covering the whole index range.
//!   Whoever executes a task first peels halves off onto its own deque
//!   until the remaining piece is at or below the job's grain, then runs
//!   it. Untouched halves are exactly what thieves steal — on a balanced
//!   workload the owner pops them back itself (cheap LIFO `take`), on a
//!   skewed one they migrate to idle workers, which re-split them
//!   locally. This is the lazy binary splitting that makes power-law
//!   frontiers load-balance instead of serializing on one thread.
//! * `join` pushes its second closure as a stealable task and runs the
//!   first inline; see [`crate::join`].
//! * Idle workers search own deque → injector → other deques, then
//!   park on a generation-stamped condvar. Producers bump the
//!   generation only when a sleeper is registered (Dekker-style
//!   store/load fencing keeps the handshake missed-wakeup-free).
//!
//! The [`steal_count`]/[`split_count`]/[`park_count`]/[`wake_count`]
//! totals (and the per-worker breakdowns on each registry) feed
//! `kcore_parallel::pool::scheduler_stats`.

use crate::deque::Deque;
use kcore_check::mutate;
use kcore_check::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use kcore_check::sync::{Arc, Condvar, Mutex};
use kcore_check::thread;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Process-wide count of successful steals (tasks taken from another
/// worker's deque).
static STEALS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of task splits (a range task halved to publish
/// stealable work).
static SPLITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of worker sleep episodes (a worker committing to
/// the condvar after finding no work).
static PARKS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of workers returning from a sleep episode.
static WAKES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the scheduler's global counters.
pub fn steal_count() -> u64 {
    STEALS.load(Ordering::Relaxed)
}

/// See [`steal_count`].
pub fn split_count() -> u64 {
    SPLITS.load(Ordering::Relaxed)
}

/// See [`steal_count`].
pub fn park_count() -> u64 {
    PARKS.load(Ordering::Relaxed)
}

/// See [`steal_count`].
pub fn wake_count() -> u64 {
    WAKES.load(Ordering::Relaxed)
}

/// Per-worker scheduler tallies, one set per deque of a registry.
/// The process-wide statics above are the sums of these across every
/// registry ever created.
#[derive(Default)]
pub(crate) struct WorkerCounters {
    steals: AtomicU64,
    splits: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

/// Plain-value copy of one worker's `WorkerCounters`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Tasks this worker took from a sibling's deque.
    pub steals: u64,
    /// Range tasks this worker halved to publish stealable work.
    pub splits: u64,
    /// Sleep episodes (condvar waits) this worker entered.
    pub parks: u64,
    /// Sleep episodes this worker returned from.
    pub wakes: u64,
}

/// A unit of schedulable work: an erased job pointer plus the index
/// range to run. `grain == 0` marks an unsplittable task (a `join`
/// closure); block tasks carry the job's grain so any holder — owner or
/// thief — can keep splitting.
#[derive(Clone, Copy)]
pub(crate) struct Task {
    pub(crate) job: *const (),
    pub(crate) runner: unsafe fn(*const (), usize, usize),
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) grain: usize,
}

// SAFETY: a Task is only constructed from jobs whose closures are
// `Sync` (block jobs) or `Send` (join jobs), and the submitting thread
// blocks until every task of the job has finished executing, so the
// erased pointer never dangles while reachable from a queue.
unsafe impl Send for Task {}

/// One-shot completion flag with blocking wait.
///
/// Lifetime protocol: jobs hold the latch in an `Arc`, and the thread
/// that completes a job must clone that `Arc` *before* the step that can
/// make [`Latch::probe`]/[`Latch::wait`] return (the final `remaining`
/// decrement, or `set` itself). The waiter frees the job — typically a
/// stack frame — as soon as `done` reads true, which races the tail of
/// `set` (condvar lock + notify); the completer's own clone keeps the
/// latch alive through that window, so `set` never touches freed memory.
///
/// Checker contract (see `model_tests`): the Release store in [`set`]
/// paired with the Acquire load in [`probe`] is what publishes the
/// job's results to a probing waiter — both sides are registered
/// mutation sites (`latch.done.release`, `latch.probe.acquire`) and
/// weakening either to Relaxed makes the payload read a detected data
/// race. The clone-before-set lifetime rule is enforced as a
/// use-after-free regression test (the PR 3 bug shape).
pub(crate) struct Latch {
    done: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    pub(crate) fn new() -> Self {
        Self { done: AtomicBool::new(false), lock: Mutex::new(()), cv: Condvar::new() }
    }

    pub(crate) fn probe(&self) -> bool {
        self.done.load(mutate::ordering("latch.probe.acquire", Ordering::Acquire))
    }

    /// Marks the latch done and wakes blocked waiters. Callers must own
    /// an `Arc` keeping `self` alive (see the type docs): waiters may
    /// free the enclosing job the instant the store becomes visible.
    pub(crate) fn set(&self) {
        // Store inside the critical section: a `wait`er that read
        // done=false under the lock is guaranteed to be parked on the
        // condvar before the store+notify happen, so no wakeup is lost.
        let _guard = self.lock.lock().expect("latch lock poisoned");
        self.done.store(true, mutate::ordering("latch.done.release", Ordering::Release));
        self.cv.notify_all();
    }

    /// Blocks the calling thread until [`Latch::set`].
    pub(crate) fn wait(&self) {
        let mut guard = self.lock.lock().expect("latch lock poisoned");
        while !self.done.load(Ordering::Acquire) {
            guard = self.cv.wait(guard).expect("latch lock poisoned");
        }
    }
}

/// Sleep/wake state shared by a registry's workers.
struct Sleep {
    /// Wakeup generation; bumped under the lock whenever new work may
    /// concern a sleeper.
    generation: Mutex<u64>,
    cv: Condvar,
    /// Number of workers at or past the sleep handshake.
    sleepers: AtomicUsize,
}

pub(crate) struct RegistryShared {
    threads: usize,
    deques: Vec<Deque>,
    /// Per-worker steal/split/park/wake tallies, indexed like `deques`.
    workers: Vec<WorkerCounters>,
    injected: Mutex<VecDeque<Task>>,
    /// Fast-path emptiness check for the injector (len of `injected`).
    injected_len: AtomicUsize,
    sleep: Sleep,
    shutdown: AtomicBool,
}

impl RegistryShared {
    /// Worker-thread count this registry was built for; doubles as the
    /// parallelism degree of jobs submitted to it.
    pub(crate) fn num_threads(&self) -> usize {
        self.threads
    }

    /// Publishes `task` on worker `index`'s own deque and wakes any
    /// sleepers. Must be called from that worker's thread. Fails when
    /// the deque is full.
    pub(crate) fn push_local(&self, index: usize, task: Task) -> Result<(), Task> {
        self.deques[index].push(task)?;
        self.signal_stealable();
        Ok(())
    }

    /// Pops the newest task from worker `index`'s own deque. Must be
    /// called from that worker's thread.
    pub(crate) fn take_local(&self, index: usize) -> Option<Task> {
        self.deques[index].take()
    }

    fn pop_injected(&self) -> Option<Task> {
        if self.injected_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = self.injected.lock().expect("injector poisoned");
        let task = q.pop_front();
        self.injected_len.store(q.len(), Ordering::Relaxed);
        task
    }

    /// Queues a task from outside any worker and wakes the pool.
    pub(crate) fn inject(&self, task: Task) {
        {
            let mut q = self.injected.lock().expect("injector poisoned");
            q.push_back(task);
            self.injected_len.store(q.len(), Ordering::Relaxed);
        }
        // Unconditional wake: injection is once-per-operation, not hot.
        let mut generation = self.sleep.generation.lock().expect("sleep lock poisoned");
        *generation = generation.wrapping_add(1);
        self.sleep.cv.notify_all();
    }

    /// Wakes sleepers after work was made stealable (split-push). The
    /// SeqCst fence pairs with the one in the worker's sleep handshake:
    /// either the producer sees the registered sleeper, or the sleeper's
    /// post-registration recheck sees the pushed task.
    pub(crate) fn signal_stealable(&self) {
        fence(Ordering::SeqCst);
        if self.sleep.sleepers.load(Ordering::Relaxed) > 0 {
            let mut generation = self.sleep.generation.lock().expect("sleep lock poisoned");
            *generation = generation.wrapping_add(1);
            // One new task, one woken thief: waking the whole pool for
            // every split just burns context switches (notably on
            // single-core machines, where a woken thief preempts the
            // worker producing the work).
            self.sleep.cv.notify_one();
        }
    }

    /// Steals from any worker of this registry. Used by members after
    /// their own deque and the injector come up empty. There is no
    /// cross-pool stealing: a worker of pool A blocked in pool B's
    /// `install` waits on the latch without helping B, so mutually
    /// recursive `install` between two pools can deadlock if every
    /// worker of each pool blocks on the other (no workspace call site
    /// nests pools this way).
    fn steal_any(&self, thief: usize) -> Option<Task> {
        let n = self.deques.len();
        for off in 0..n {
            if let Some(task) = self.deques[(thief + 1 + off) % n].steal() {
                STEALS.fetch_add(1, Ordering::Relaxed);
                self.workers[thief].steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    /// Plain-value copy of every worker's tallies (indexed by worker).
    pub(crate) fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers
            .iter()
            .map(|w| WorkerSnapshot {
                steals: w.steals.load(Ordering::Relaxed),
                splits: w.splits.load(Ordering::Relaxed),
                parks: w.parks.load(Ordering::Relaxed),
                wakes: w.wakes.load(Ordering::Relaxed),
            })
            .collect()
    }
}

thread_local! {
    /// Set for the lifetime of a worker thread: its registry and index.
    static WORKER: std::cell::RefCell<Option<(Arc<RegistryShared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The registry the current thread belongs to, if it is a pool worker.
pub(crate) fn current_worker() -> Option<(Arc<RegistryShared>, usize)> {
    WORKER.with(|w| w.borrow().clone())
}

/// Splits `task` down to its grain, publishing the upper halves on the
/// deque `deques[index]` (which must be owned by the calling thread),
/// then runs the remaining piece. No piece it runs exceeds the grain.
pub(crate) fn execute(shared: &RegistryShared, index: usize, mut task: Task) {
    while task.grain > 0 && task.hi - task.lo > task.grain {
        let mid = task.lo + (task.hi - task.lo) / 2;
        let upper = Task { lo: mid, ..task };
        match shared.deques[index].push(upper) {
            Ok(()) => {
                SPLITS.fetch_add(1, Ordering::Relaxed);
                shared.workers[index].splits.fetch_add(1, Ordering::Relaxed);
                task.hi = mid;
                shared.signal_stealable();
            }
            // Deque full (pathological nesting): run one grain-sized
            // leaf here, then retry; the rest keeps the job incomplete.
            Err(_) => {
                unsafe { (task.runner)(task.job, task.lo, task.lo + task.grain) };
                task.lo += task.grain;
            }
        }
    }
    unsafe { (task.runner)(task.job, task.lo, task.hi) };
}

/// Worker-side task search: own deque (LIFO), then the injector, then
/// steals from siblings.
pub(crate) fn find_task(shared: &RegistryShared, index: usize) -> Option<Task> {
    if let Some(task) = shared.deques[index].take() {
        return Some(task);
    }
    if let Some(task) = shared.pop_injected() {
        return Some(task);
    }
    shared.steal_any(index)
}

/// Runs tasks until `done` reports true. Must be called on the worker
/// thread owning `deques[index]`; used by nested waits so a blocked
/// worker keeps the pool productive instead of deadlocking it.
pub(crate) fn work_until(shared: &RegistryShared, index: usize, done: impl Fn() -> bool) {
    while !done() {
        match find_task(shared, index) {
            Some(task) => execute(shared, index, task),
            // Remaining tasks are in flight on other workers; let them
            // run (they may be timesharing this core).
            None => thread::yield_now(),
        }
    }
}

fn worker_main(shared: Arc<RegistryShared>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((shared.clone(), index)));
    loop {
        if let Some(task) = find_task(&shared, index) {
            execute(&shared, index, task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Sleep handshake. Register, fence, recheck, then wait for a
        // generation bump. See `signal_stealable` for the pairing.
        shared.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if let Some(task) = find_task(&shared, index) {
            shared.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            execute(&shared, index, task);
            continue;
        }
        let generation = *shared.sleep.generation.lock().expect("sleep lock poisoned");
        // A producer may have bumped the generation between the recheck
        // above and the read; its task is visible now (release/acquire
        // via the lock), so check one more time before committing.
        if let Some(task) = find_task(&shared, index) {
            shared.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            execute(&shared, index, task);
            continue;
        }
        // One park/wake pair per committed sleep episode (spurious
        // condvar wakeups inside the loop are not separate episodes).
        PARKS.fetch_add(1, Ordering::Relaxed);
        shared.workers[index].parks.fetch_add(1, Ordering::Relaxed);
        let mut guard = shared.sleep.generation.lock().expect("sleep lock poisoned");
        while *guard == generation && !shared.shutdown.load(Ordering::Acquire) {
            guard = shared.sleep.cv.wait(guard).expect("sleep lock poisoned");
        }
        drop(guard);
        WAKES.fetch_add(1, Ordering::Relaxed);
        shared.workers[index].wakes.fetch_add(1, Ordering::Relaxed);
        shared.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    WORKER.with(|w| *w.borrow_mut() = None);
}

/// A worker pool: shared scheduling state plus owned join handles.
pub(crate) struct Registry {
    pub(crate) shared: Arc<RegistryShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Registry {
    /// Spawns `threads` workers.
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(RegistryShared {
            threads,
            deques: (0..threads).map(|_| Deque::new()).collect(),
            workers: (0..threads).map(|_| WorkerCounters::default()).collect(),
            injected: Mutex::new(VecDeque::new()),
            injected_len: AtomicUsize::new(0),
            sleep: Sleep {
                generation: Mutex::new(0),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("rayon-shim-{index}"))
                    .spawn(move || worker_main(shared, index))
                    .expect("rayon-shim: failed to spawn worker")
            })
            .collect();
        Self { shared, handles }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut generation = self.shared.sleep.generation.lock().expect("sleep lock poisoned");
            *generation = generation.wrapping_add(1);
            self.shared.sleep.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Model-checked tests of the latch protocol, compiled only under the
/// instrumented facade (`RUSTFLAGS="--cfg kcore_check"`). These pin the
/// two properties the runtime leans on:
///
/// * publication — a waiter that observes [`Latch::probe`] `== true`
///   also observes every write the completer made before [`Latch::set`]
///   (Release store / Acquire load pairing; both sides have mutation
///   teeth);
/// * lifetime — the completer must own an `Arc` handle on the latch
///   (the PR 3 use-after-free regression: a completer touching a latch
///   it does not own dies the moment the waiter frees it).
#[cfg(all(test, kcore_check, not(any(miri, kcore_tsan))))]
mod model_tests {
    use super::Latch;
    use kcore_check::cell::UnsafeCell;
    use kcore_check::hint::spin_loop;
    use kcore_check::sync::Arc;
    use kcore_check::{mutate, thread, Checker};

    /// Writer fills a payload and `set`s the latch; reader spins on
    /// `probe` and then reads the payload. The exact shape `join` and
    /// block jobs rely on when the submitting thread polls instead of
    /// parking.
    fn probe_publishes_payload() {
        let payload = Arc::new(UnsafeCell::new(0u64));
        let latch = Arc::new(Latch::new());
        let (p2, l2) = (payload.clone(), latch.clone());
        let t = thread::spawn(move || {
            p2.with_mut(|p| unsafe { *p = 7 });
            l2.set();
        });
        while !latch.probe() {
            spin_loop();
        }
        let v = payload.with(|p| unsafe { *p });
        assert_eq!(v, 7, "probe observed done but not the completer's payload");
        t.join().unwrap();
    }

    #[test]
    fn latch_probe_publishes_payload() {
        Checker::new().check(probe_publishes_payload);
    }

    /// The blocking path: `wait` must never sleep through a `set`
    /// (store + notify inside the critical section), in any schedule.
    /// A lost wakeup would surface as a model deadlock.
    #[test]
    fn latch_wait_never_misses_set() {
        Checker::new().check(|| {
            let latch = Arc::new(Latch::new());
            let l2 = latch.clone();
            let t = thread::spawn(move || l2.set());
            latch.wait();
            assert!(latch.probe());
            t.join().unwrap();
        });
    }

    /// PR 3 regression, buggy shape: the completer holds only a raw
    /// pointer, so when the waiter frees the latch right after `probe`
    /// flips, the tail of `set` (notify under the latch mutex) touches
    /// freed memory. The checker must find that schedule.
    #[test]
    fn latch_completer_without_handle_is_use_after_free() {
        let report = Checker::new().check_fails(|| {
            let latch = Arc::new(Latch::new());
            let p = &*latch as *const Latch as usize;
            let t = thread::spawn(move || {
                // SAFETY: deliberately unsound — models the pre-fix
                // protocol where the completer does not own the latch.
                unsafe { (*(p as *const Latch)).set() };
            });
            while !latch.probe() {
                spin_loop();
            }
            drop(latch);
            t.join().unwrap();
        });
        assert!(report.contains("use-after-free"), "unexpected report: {report}");
    }

    /// The fixed protocol: the completer clones the `Arc` before `set`,
    /// so the waiter-side free can never strand it. Every schedule is
    /// clean.
    #[test]
    fn latch_completer_with_handle_passes() {
        Checker::new().check(|| {
            let latch = Arc::new(Latch::new());
            let l2 = latch.clone();
            let t = thread::spawn(move || l2.set());
            while !latch.probe() {
                spin_loop();
            }
            drop(latch);
            t.join().unwrap();
        });
    }

    /// Mutation teeth: weakening the `set`-side Release store to
    /// Relaxed severs the publication edge — the payload read races.
    #[test]
    fn mutation_latch_done_release_has_teeth() {
        let _weaken = mutate::weaken("latch.done.release");
        let report = Checker::new().check_fails(probe_publishes_payload);
        assert!(report.contains("data race"), "unexpected report: {report}");
    }

    /// Mutation teeth: weakening the `probe`-side Acquire load to
    /// Relaxed severs the same edge from the reader's end.
    #[test]
    fn mutation_latch_probe_acquire_has_teeth() {
        let _weaken = mutate::weaken("latch.probe.acquire");
        let report = Checker::new().check_fails(probe_publishes_payload);
        assert!(report.contains("data race"), "unexpected report: {report}");
    }
}

/// The process-global registry, created on first use and never torn
/// down. Sized by `RAYON_NUM_THREADS` / `available_parallelism` (via
/// [`crate::default_threads`]).
pub(crate) fn global_registry() -> Arc<RegistryShared> {
    static GLOBAL: OnceLock<Arc<RegistryShared>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let registry = Registry::new(crate::default_threads());
            let shared = registry.shared.clone();
            // Leak the handles: global workers live for the process.
            std::mem::forget(registry);
            shared
        })
        .clone()
}
