//! Thread-pool helpers and scheduler instrumentation for the
//! scalability experiments.
//!
//! The paper's Fig. 10 sweeps core counts (1, 2, 4, …, 96h). Rayon's
//! global pool is process-wide, so the sweep runs each configuration in
//! a dedicated local pool via [`with_threads`]. The work-stealing
//! runtime under the rayon shim exposes steal/split counters
//! ([`scheduler_stats`], [`scheduler_delta`]) so the benchmarks can
//! report *how* a skewed frontier was balanced, not just how fast it
//! ran.

/// Runs `f` inside a rayon pool with exactly `threads` worker threads.
///
/// Nested rayon operations inside `f` — including ones issued from the
/// pool's own worker threads — use that pool. Panics from `f` propagate.
pub fn with_threads<T, F>(threads: usize, f: F) -> T
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    assert!(threads >= 1, "need at least one thread");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

/// Number of threads rayon would use by default on this machine.
pub fn default_threads() -> usize {
    rayon::current_num_threads()
}

/// Work-stealing scheduler counters (monotonic, process-wide).
///
/// `steals` counts tasks taken from another worker's deque; `splits`
/// counts range tasks halved to publish stealable work; `parks`/`wakes`
/// count worker sleep episodes entered/exited on the idle condvar. All
/// come from the offline rayon shim's runtime — when swapping in the
/// real rayon crate, this module is the one shim-specific consumer to
/// gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Tasks executed by a worker other than the one that published them.
    pub steals: u64,
    /// Task splits performed to expose stealable work.
    pub splits: u64,
    /// Worker sleep episodes entered (no work found anywhere).
    pub parks: u64,
    /// Worker sleep episodes exited; `wakes <= parks` always.
    pub wakes: u64,
}

/// Per-worker scheduler tallies (same fields as [`SchedulerStats`]),
/// indexed by worker, re-exported from the shim runtime.
pub use rayon::stats::WorkerSnapshot as WorkerStats;

/// Reads the scheduler counters accumulated since process start.
pub fn scheduler_stats() -> SchedulerStats {
    let snap = rayon::stats::snapshot();
    SchedulerStats {
        steals: snap.steals,
        splits: snap.splits,
        parks: snap.parks,
        wakes: snap.wakes,
    }
}

/// Per-worker tallies of the effective pool: the calling worker's own
/// pool inside [`with_threads`], else the global one. The process-wide
/// [`scheduler_stats`] totals are the sums of these over *all* pools
/// ever created.
pub fn per_worker_stats() -> Vec<WorkerStats> {
    rayon::stats::per_worker()
}

/// Runs `f` and returns its result along with the steal/split activity
/// it caused. Counter deltas include any concurrent parallel work in
/// the process; callers that need attribution should run alone (as the
/// benchmarks do).
pub fn scheduler_delta<T>(f: impl FnOnce() -> T) -> (T, SchedulerStats) {
    let before = scheduler_stats();
    let result = f();
    let after = scheduler_stats();
    (
        result,
        SchedulerStats {
            steals: after.steals - before.steals,
            splits: after.splits - before.splits,
            parks: after.parks - before.parks,
            wakes: after.wakes - before.wakes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{pack_index, split_at_min, split_at_min_reference};
    use rayon::prelude::*;

    #[test]
    fn with_threads_controls_pool_size() {
        for t in [1usize, 2, 4] {
            let inside = with_threads(t, rayon::current_num_threads);
            assert_eq!(inside, t);
        }
    }

    #[test]
    fn parallel_work_runs_in_local_pool() {
        let sum: u64 = with_threads(2, || (0..1_000u64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        with_threads(0, || ());
    }

    #[test]
    fn worker_threads_see_pool_thread_count() {
        // Regression for the install-override bug: nested parallel
        // calls issued from worker threads must inherit the pool's
        // thread count, not the machine default.
        let counts: Vec<usize> = with_threads(3, || {
            (0u32..1 << 14).into_par_iter().map(|_| rayon::current_num_threads()).collect()
        });
        assert!(counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn scheduler_delta_counts_splits_under_parallelism() {
        // The job's own pool counts its splits; the process-wide delta
        // around it also sees every test running alongside, so it can
        // only be larger.
        let ((sum, own), delta) = scheduler_delta(|| {
            with_threads(4, || {
                let sum = (0..200_000u64).into_par_iter().map(|x| x ^ 1).sum::<u64>();
                (sum, per_worker_stats().iter().map(|w| w.splits).sum::<u64>())
            })
        });
        assert_eq!(sum, (0..200_000u64).map(|x| x ^ 1).sum::<u64>());
        assert!(own > 0, "a 200k-element job on 4 threads must split");
        assert!(delta.splits >= own, "the delta {} misses the pool's {own} splits", delta.splits);
    }

    #[test]
    fn with_max_len_forks_short_coarse_loops() {
        // 60 items sit under the shim's inline cutoff; `with_max_len`
        // must still split them across the pool.
        let (sum, splits) =
            splits_on_two_workers(|| (0..60u64).into_par_iter().with_max_len(1).sum::<u64>());
        assert_eq!(sum, 59 * 60 / 2);
        assert!(splits > 0, "with_max_len(1) over 60 items must split");
    }

    /// Input of three blocks and a bit: one item per block sits far
    /// under the shim's inline cutoff, so only `with_max_len` forks it.
    const THREE_BLOCKS: usize = 3 * crate::primitives::BLOCK + 17;

    /// Runs `f` on a fresh 2-worker pool and returns the splits that
    /// pool made. Unlike [`scheduler_delta`]'s process-wide count, no
    /// test running alongside can leak a split into it.
    fn splits_on_two_workers<T: Send>(f: impl FnOnce() -> T + Send) -> (T, u64) {
        with_threads(2, || {
            let out = f();
            (out, per_worker_stats().iter().map(|w| w.splits).sum())
        })
    }

    #[test]
    fn pack_index_forks_across_its_blocks() {
        let input: Vec<u32> =
            (0..THREE_BLOCKS as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let keep = |x: &u32| x.is_multiple_of(3);
        let (indices, splits) =
            splits_on_two_workers(|| pack_index(input.len(), |i| keep(&input[i])));
        let want: Vec<u32> =
            (0..THREE_BLOCKS as u32).filter(|&i| keep(&input[i as usize])).collect();
        assert_eq!(indices, want);
        assert!(splits > 0, "pack_index over {THREE_BLOCKS} items must split");
    }

    #[test]
    fn split_at_min_forks_across_its_blocks() {
        let input: Vec<u32> = (0..THREE_BLOCKS as u32).collect();
        let key = |&v: &u32| (v % 7 != 0).then_some(5 + v.wrapping_mul(2654435761) % 13);
        let (split, splits) = splits_on_two_workers(|| split_at_min(&input, 100, key));
        assert_eq!(split, split_at_min_reference(&input, 100, key));
        assert_eq!(split.key, 5);
        assert!(splits > 0, "split_at_min over {THREE_BLOCKS} items must split");
    }

    #[test]
    fn per_worker_tallies_cover_the_effective_pool() {
        let per = with_threads(3, || {
            let _: u64 = (0..200_000u64).into_par_iter().map(|x| x | 1).sum();
            per_worker_stats()
        });
        assert_eq!(per.len(), 3, "one tally set per worker");
        let total = scheduler_stats();
        let splits: u64 = per.iter().map(|w| w.splits).sum();
        let steals: u64 = per.iter().map(|w| w.steals).sum();
        assert!(splits <= total.splits && steals <= total.steals);
        for w in &per {
            assert!(w.wakes <= w.parks, "a wake can only follow its park");
        }
    }

    #[test]
    fn wakes_never_exceed_parks() {
        with_threads(2, || (0..100_000u64).into_par_iter().map(|x| x ^ 3).sum::<u64>());
        let s = scheduler_stats();
        assert!(s.wakes <= s.parks);
    }

    #[test]
    fn scheduler_stats_are_monotonic() {
        let a = scheduler_stats();
        with_threads(2, || {
            let _: u64 = (0..100_000u64).into_par_iter().sum();
        });
        let b = scheduler_stats();
        assert!(b.steals >= a.steals && b.splits >= a.splits);
    }
}
