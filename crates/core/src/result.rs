//! Decomposition output.
//!
//! Each problem returns its own result type with inherent accessors
//! (every one exposes its run counters as `stats()`); this module holds
//! the k-core one. [`CorenessResult`] is *versioned and updatable in
//! place*: batch-dynamic maintenance ([`crate::maintain::DynamicGraph`])
//! keeps one standing result per graph and splices re-peeled coreness
//! values into it, bumping [`CorenessResult::version`] per batch. The
//! coreness array is copy-on-write ([`std::sync::Arc`]): readers holding
//! a [`CorenessResult::shared`] handle keep the snapshot they took while
//! the maintainer splices into its own (possibly cloned) copy.

use kcore_parallel::RunStats;
use rayon::prelude::*;
use std::sync::Arc;

/// The result of a k-core decomposition: per-vertex coreness plus the
/// run's instrumentation counters, versioned for in-place maintenance.
#[derive(Debug, Clone, Default)]
pub struct CorenessResult {
    coreness: Arc<Vec<u32>>,
    version: u64,
    stats: RunStats,
}

impl CorenessResult {
    pub(crate) fn new(coreness: Vec<u32>, stats: RunStats) -> Self {
        Self { coreness: Arc::new(coreness), version: 0, stats }
    }

    /// Coreness of every vertex, indexed by vertex id.
    pub fn coreness(&self) -> &[u32] {
        &self.coreness
    }

    /// Cheap shared handle to the coreness array as of this version.
    /// Later splices copy-on-write, leaving the handle's snapshot
    /// untouched.
    pub fn shared(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.coreness)
    }

    /// Consumes the result, returning the coreness array (cloning only
    /// if a [`CorenessResult::shared`] handle is still alive).
    pub fn into_coreness(self) -> Vec<u32> {
        Arc::try_unwrap(self.coreness).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Update counter: 0 as produced by a decomposition run, bumped by
    /// every [`CorenessResult::splice`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Splices updated coreness values in place, growing the vertex
    /// universe to `new_len` first (new vertices start at coreness 0),
    /// and bumps the version. Copy-on-write: a shared handle taken
    /// before the splice keeps observing the pre-splice snapshot.
    ///
    /// Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if `new_len` shrinks the array or an update is out of
    /// range.
    pub fn splice<I>(&mut self, new_len: usize, updates: I) -> u64
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        assert!(new_len >= self.coreness.len(), "splice cannot shrink the vertex universe");
        let coreness = Arc::make_mut(&mut self.coreness);
        coreness.resize(new_len, 0);
        for (v, c) in updates {
            coreness[v as usize] = c;
        }
        self.version += 1;
        self.version
    }

    /// Replaces the run counters (maintenance installs the counters of
    /// the re-peel that produced the latest splice).
    pub(crate) fn set_stats(&mut self, stats: RunStats) {
        self.stats = stats;
    }

    /// The degeneracy `k_max`: the largest coreness of any vertex
    /// (0 for the empty graph).
    pub fn kmax(&self) -> u32 {
        self.coreness.par_iter().map(|&c| c).max().unwrap_or(0)
    }

    /// Number of vertices decomposed.
    pub fn num_vertices(&self) -> usize {
        self.coreness.len()
    }

    /// Number of vertices with coreness at least `k` (the k-core size).
    pub fn core_size(&self, k: u32) -> usize {
        self.coreness.par_iter().filter(|&&c| c >= k).count()
    }

    /// Run counters (rounds, subrounds, work, burdened span, ...).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmax_of_empty_is_zero() {
        let r = CorenessResult::default();
        assert_eq!(r.kmax(), 0);
        assert_eq!(r.num_vertices(), 0);
        assert_eq!(r.version(), 0);
    }

    #[test]
    fn kmax_and_core_sizes() {
        let r = CorenessResult::new(vec![0, 1, 1, 2, 3, 3], RunStats::default());
        assert_eq!(r.kmax(), 3);
        assert_eq!(r.num_vertices(), 6);
        assert_eq!(r.core_size(0), 6);
        assert_eq!(r.core_size(1), 5);
        assert_eq!(r.core_size(2), 3);
        assert_eq!(r.core_size(3), 2);
        assert_eq!(r.core_size(4), 0);
        assert_eq!(r.coreness(), &[0, 1, 1, 2, 3, 3]);
        assert_eq!(r.into_coreness(), vec![0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn splice_updates_grow_and_bump_version() {
        let mut r = CorenessResult::new(vec![1, 2, 2], RunStats::default());
        assert_eq!(r.splice(5, [(1, 3), (4, 1)]), 1);
        assert_eq!(r.coreness(), &[1, 3, 2, 0, 1]);
        assert_eq!(r.splice(5, []), 2);
        assert_eq!(r.version(), 2);
    }

    #[test]
    fn splice_is_copy_on_write_for_shared_readers() {
        let mut r = CorenessResult::new(vec![1, 2, 2], RunStats::default());
        let snapshot = r.shared();
        r.splice(3, [(0, 9)]);
        assert_eq!(snapshot.as_slice(), &[1, 2, 2], "reader keeps its version");
        assert_eq!(r.coreness(), &[9, 2, 2]);
        drop(snapshot);
        assert_eq!(r.into_coreness(), vec![9, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "shrink")]
    fn splice_rejects_shrinking() {
        let mut r = CorenessResult::new(vec![1, 2], RunStats::default());
        r.splice(1, []);
    }
}
