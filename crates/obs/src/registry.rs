//! Name interning and the global counter table.
//!
//! Hot paths touch only callsite-static atomics: a [`NameId`] caches
//! its interned id after one registration, and a [`CounterCell`] is a
//! plain `AtomicU64` that registers itself into the global table on
//! first use. The `Mutex`-guarded tables are reached once per
//! *callsite* (or per dynamic name), never per record.

use kcore_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use kcore_check::sync::Mutex;
use std::collections::BTreeMap;

/// Interned-name table. Ids are indices; names are `'static` (dynamic
/// names are leaked once on first intern, bounded by distinct names).
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Resolve an interned id back to its name.
pub fn name_of(id: u32) -> &'static str {
    NAMES.lock().unwrap().get(id as usize).copied().unwrap_or("?")
}

fn intern_locked(name: &'static str) -> u32 {
    let mut names = NAMES.lock().unwrap();
    if let Some(pos) = names.iter().position(|n| *n == name) {
        return pos as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

/// Intern a name not backed by a callsite static. Leaks unseen names.
pub fn intern_dynamic(name: &str) -> u32 {
    {
        let names = NAMES.lock().unwrap();
        if let Some(pos) = names.iter().position(|n| *n == name) {
            return pos as u32;
        }
    }
    intern_locked(Box::leak(name.to_owned().into_boxed_str()))
}

/// A callsite-static cached name id (see [`crate::span!`]).
pub struct NameId {
    /// 0 = unregistered; otherwise interned id + 1.
    cell: AtomicU32,
}

impl NameId {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        NameId { cell: AtomicU32::new(0) }
    }

    /// The interned id for `name`, registering on first call.
    #[inline]
    pub fn get(&self, name: &'static str) -> u32 {
        match self.cell.load(Ordering::Relaxed) {
            0 => self.register(name),
            n => n - 1,
        }
    }

    #[cold]
    fn register(&self, name: &'static str) -> u32 {
        let id = intern_locked(name);
        self.cell.store(id + 1, Ordering::Relaxed);
        id
    }
}

/// A callsite-static metrics counter (see [`crate::counter!`]).
pub struct CounterCell {
    name: &'static str,
    value: AtomicU64,
    /// 0 = not yet in the global table, 1 = registered.
    registered: AtomicU32,
}

static COUNTERS: Mutex<Vec<&'static CounterCell>> = Mutex::new(Vec::new());

impl CounterCell {
    pub const fn new(name: &'static str) -> Self {
        CounterCell { name, value: AtomicU64::new(0), registered: AtomicU32::new(0) }
    }

    #[inline]
    pub fn add(&'static self, delta: u64) {
        if self.registered.load(Ordering::Relaxed) == 0 {
            self.register();
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        let mut table = COUNTERS.lock().unwrap();
        // Two threads can race to the first add; the lock makes the
        // push exclusive and the flag idempotent.
        if self.registered.load(Ordering::Relaxed) == 0 {
            table.push(self);
            self.registered.store(1, Ordering::Relaxed);
        }
    }
}

/// Sorted `(name, value)` snapshot of all live counters. Counters
/// from distinct callsites sharing a name are summed.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    let table = COUNTERS.lock().unwrap();
    let mut merged: BTreeMap<&'static str, u64> = BTreeMap::new();
    for cell in table.iter() {
        *merged.entry(cell.name).or_insert(0) += cell.value.load(Ordering::Relaxed);
    }
    merged.into_iter().map(|(n, v)| (n.to_owned(), v)).collect()
}

/// Zero all counters (keeps registrations).
pub fn reset_counters() {
    for cell in COUNTERS.lock().unwrap().iter() {
        cell.value.store(0, Ordering::Relaxed);
    }
}
