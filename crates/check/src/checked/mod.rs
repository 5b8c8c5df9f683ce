//! Instrumented counterparts of the `std` concurrency vocabulary.
//!
//! Every type here routes its operations through the active model
//! execution (the crate's `exec` module) when one exists on the current thread,
//! and falls back to the real `std` behavior otherwise — so a binary
//! compiled against these types still runs correctly outside a model,
//! and the checker's own self-tests run under plain `cargo test`.
//!
//! Production code should not name this module: it uses the
//! [`crate::sync`] facade, which aliases `std` unless the build sets
//! `--cfg kcore_check`.

mod atomic;
mod cell;
mod sync_impl;
pub mod thread;

pub use atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
};
pub use cell::UnsafeCell;
pub use sync_impl::{Arc, Condvar, Mutex, MutexGuard};

/// Instrumented [`std::hint::spin_loop`]: a voluntary scheduling point
/// inside a model, the real pause hint otherwise. Spin-wait loops MUST
/// go through this (or [`thread::yield_now`]) so bounded-spin loops
/// cannot livelock the model scheduler.
#[inline]
pub fn spin_loop() {
    match crate::exec::current() {
        Some((e, t)) => e.yield_op(t, true),
        None => std::hint::spin_loop(),
    }
}
