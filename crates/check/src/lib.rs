//! `kcore-check` — first-party deterministic concurrency model checker
//! (in the spirit of loom/CDSChecker, no external dependencies) plus
//! the **sync facade** the workspace's lock-free primitives are written
//! against.
//!
//! # The facade
//!
//! Production code imports atomics, `UnsafeCell`, fences, spin hints,
//! and thread spawn/yield from [`sync`]/[`cell`]/[`hint`]/[`thread`]
//! here instead of `std`. In a normal build these are zero-cost
//! aliases (plain re-exports and `#[inline(always)]`
//! `#[repr(transparent)]` wrappers). Compiled with
//! `RUSTFLAGS="--cfg kcore_check"`, they route to the instrumented
//! [`checked`] types, which a [`Checker`] can then drive through every
//! interesting interleaving:
//!
//! ```text
//! RUSTFLAGS="--cfg kcore_check" cargo test -p rayon -p crossbeam -p kcore-obs
//! ```
//!
//! # The checker
//!
//! [`Checker::check`] runs a closure once per schedule under a
//! cooperative scheduler (bounded-exhaustive DFS with a CHESS-style
//! preemption bound and conflict-prioritized alternatives). Atomics
//! keep per-location store histories with release/acquire vector
//! clocks, so loads *observe* stale values that the memory model
//! permits — assertion failures, data races on `UnsafeCell`s,
//! use-after-free of retired [`checked::Arc`] allocations, deadlocks,
//! and lost wakeups all fail the execution, and the panic report
//! carries a replayable schedule (`KCORE_CHECK_REPLAY`).
//!
//! Knobs (env): `KCORE_CHECK_MAX_SCHEDULES` (default 20000),
//! `KCORE_CHECK_PREEMPTIONS` (default 3), `KCORE_CHECK_MAX_STEPS`
//! (default 50000), `KCORE_CHECK_REPLAY` (comma-separated choice list
//! from a failure report).
//!
//! # The mutation harness
//!
//! Each ported primitive names its load-bearing orderings through
//! [`mutate::ordering`] — e.g. the Chase–Lev publication fence is
//! `mutate::ordering("deque.push.publish", Ordering::Release)`. Under
//! `cfg(kcore_check)` a test can `mutate::weaken` one site to
//! `Relaxed`; the acceptance bar is that at least one model test then
//! fails for every site in the table, proving the checker actually
//! guards each contract. In normal builds `mutate::ordering` is an
//! `#[inline(always)]` passthrough of the default.

#![forbid(unsafe_op_in_unsafe_fn)]
// This crate *implements* the facade, so it is the one place allowed
// to name the raw std concurrency types the workspace lint gate bans.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod clock;
mod exec;
mod explore;

pub mod checked;

pub use explore::Checker;

/// Explores `f` with default bounds, panicking with a replayable
/// schedule on the first failing interleaving.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::new().check(f)
}

/// Zero-cost (or instrumented, under `cfg(kcore_check)`) aliases of the
/// `std::sync` concurrency vocabulary. This is the only module
/// production code should import atomics and locks from.
pub mod sync {
    pub mod atomic {
        #[cfg(kcore_check)]
        pub use crate::checked::{
            fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        };
        pub use std::sync::atomic::Ordering;
        #[cfg(not(kcore_check))]
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        };
    }

    #[cfg(kcore_check)]
    pub use crate::checked::{Arc, Condvar, Mutex, MutexGuard};
    #[cfg(not(kcore_check))]
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};
}

/// `UnsafeCell` with the loom-style `with`/`with_mut` access API, so
/// the same call sites are instrumentable under `cfg(kcore_check)`.
pub mod cell {
    #[cfg(kcore_check)]
    pub use crate::checked::UnsafeCell;

    #[cfg(not(kcore_check))]
    mod zero_cost {
        /// Transparent wrapper over [`std::cell::UnsafeCell`]; every
        /// method is an `#[inline(always)]` forwarder.
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

        // SAFETY: same contract as the std type it wraps; callers
        // uphold exclusion (and prove it under kcore_check).
        unsafe impl<T: ?Sized + Send> Send for UnsafeCell<T> {}
        unsafe impl<T: ?Sized + Send> Sync for UnsafeCell<T> {}

        impl<T> UnsafeCell<T> {
            #[inline(always)]
            pub const fn new(value: T) -> Self {
                Self(std::cell::UnsafeCell::new(value))
            }

            #[inline(always)]
            pub fn into_inner(self) -> T {
                self.0.into_inner()
            }
        }

        impl<T: ?Sized> UnsafeCell<T> {
            #[inline(always)]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.0.get())
            }

            #[inline(always)]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.0.get())
            }

            #[inline(always)]
            pub fn get_mut(&mut self) -> &mut T {
                // SAFETY: `&mut self` guarantees exclusivity.
                unsafe { &mut *self.0.get() }
            }
        }
    }
    #[cfg(not(kcore_check))]
    pub use zero_cost::UnsafeCell;
}

pub mod hint {
    #[cfg(kcore_check)]
    pub use crate::checked::spin_loop;
    #[cfg(not(kcore_check))]
    pub use std::hint::spin_loop;
}

pub mod thread {
    #[cfg(kcore_check)]
    pub use crate::checked::thread::{spawn, yield_now, Builder, JoinHandle};
    #[cfg(not(kcore_check))]
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
}

/// Checker annotations for accesses whose correctness argument is not
/// plain happens-before. Zero-cost in normal builds.
pub mod annotate {
    /// Marks a *speculative* read: the Chase–Lev steal reads the slot
    /// before the `top` CAS confirms ownership, so the read may race a
    /// concurrent `take` — benign only because a losing CAS discards
    /// the value. Inside a model, a race observed in this scope is
    /// deferred instead of failing immediately.
    #[cfg(kcore_check)]
    pub fn speculative<R>(f: impl FnOnce() -> R) -> R {
        if let Some((e, t)) = crate::exec::current() {
            e.begin_speculation(t);
        }
        f()
    }

    /// Delivers the deferred verdict: `used == true` (the validating
    /// CAS succeeded) turns an observed race into a model failure;
    /// `used == false` discards it. Must follow every
    /// [`speculative`] scope on all paths.
    #[cfg(kcore_check)]
    pub fn commit_speculation(used: bool) {
        if let Some((e, t)) = crate::exec::current() {
            e.commit_speculation(t, used);
        }
    }

    #[cfg(not(kcore_check))]
    #[inline(always)]
    pub fn speculative<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    #[cfg(not(kcore_check))]
    #[inline(always)]
    pub fn commit_speculation(_used: bool) {}
}

/// Test-only ordering mutation table. Every load-bearing `Ordering` in
/// the ported primitives is declared through [`mutate::ordering`] with
/// a stable site name; `mutate::weaken` (only under
/// `cfg(kcore_check)`) downgrades one site to `Relaxed` for the
/// duration of a guard, and the model-test suite must then catch the
/// resulting bug.
///
/// Seeded sites:
///
/// | site | default | primitive |
/// |------|---------|-----------|
/// | `deque.push.publish`     | `Release` fence | Chase–Lev push → steal visibility |
/// | `deque.take.fence`       | `SeqCst` fence  | Chase–Lev take/steal arbitration |
/// | `segq.push.ready.release`| `Release` store | SegQueue slot publication |
/// | `segq.pop.ready.acquire` | `Acquire` load  | SegQueue slot consumption |
/// | `latch.done.release`     | `Release` store | latch completion publication |
/// | `latch.probe.acquire`    | `Acquire` load  | latch completion observation |
/// | `ring.push.pos.release`  | `Release` store | obs ring slot publication |
/// | `ring.drain.pos.acquire` | `Acquire` load  | obs ring drain |
pub mod mutate {
    use std::sync::atomic::Ordering;

    /// Resolves the effective ordering for a named site. Passthrough in
    /// normal builds; consults the weakened-site table under
    /// `cfg(kcore_check)`.
    #[cfg(not(kcore_check))]
    #[inline(always)]
    pub fn ordering(_site: &'static str, default: Ordering) -> Ordering {
        default
    }

    #[cfg(kcore_check)]
    pub fn ordering(site: &'static str, default: Ordering) -> Ordering {
        if state::is_weakened(site) {
            Ordering::Relaxed
        } else {
            default
        }
    }

    /// Downgrades `site` to `Relaxed` until the guard drops. Takes a
    /// process-global writer lock: explorations without a mutation hold
    /// the reader side, so a weakened site can never leak into an
    /// unrelated concurrently-running model test.
    #[cfg(kcore_check)]
    pub fn weaken(site: &'static str) -> MutationGuard {
        state::weaken(site)
    }

    #[cfg(kcore_check)]
    pub use state::MutationGuard;

    #[cfg(kcore_check)]
    pub(crate) mod state {
        use std::collections::HashSet;
        use std::sync::{Mutex, OnceLock, RwLock, RwLockWriteGuard};

        struct Table {
            gate: RwLock<()>,
            weakened: Mutex<HashSet<&'static str>>,
        }

        fn table() -> &'static Table {
            static T: OnceLock<Table> = OnceLock::new();
            T.get_or_init(|| Table { gate: RwLock::new(()), weakened: Mutex::new(HashSet::new()) })
        }

        thread_local! {
            static HOLDS_WRITE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }

        pub(crate) fn is_weakened(site: &'static str) -> bool {
            table().weakened.lock().unwrap_or_else(|p| p.into_inner()).contains(site)
        }

        /// Reader-side guard taken by every exploration not itself
        /// running under a mutation (see [`crate::explore`]).
        pub(crate) fn shared_guard() -> Option<std::sync::RwLockReadGuard<'static, ()>> {
            if HOLDS_WRITE.with(|h| h.get()) {
                None
            } else {
                Some(table().gate.read().unwrap_or_else(|p| p.into_inner()))
            }
        }

        pub struct MutationGuard {
            site: &'static str,
            _write: RwLockWriteGuard<'static, ()>,
        }

        pub(crate) fn weaken(site: &'static str) -> MutationGuard {
            let write = table().gate.write().unwrap_or_else(|p| p.into_inner());
            HOLDS_WRITE.with(|h| h.set(true));
            table().weakened.lock().unwrap_or_else(|p| p.into_inner()).insert(site);
            MutationGuard { site, _write: write }
        }

        impl Drop for MutationGuard {
            fn drop(&mut self) {
                table().weakened.lock().unwrap_or_else(|p| p.into_inner()).remove(self.site);
                HOLDS_WRITE.with(|h| h.set(false));
            }
        }
    }
}
