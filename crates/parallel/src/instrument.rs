//! Scheduling and contention instrumentation — the Cilkview substitute.
//!
//! The paper analyzes parallelism through the **burdened span** (Sec. 2):
//! every fork/join (in practice, every global synchronization between
//! peeling subrounds) is charged a burden ω = 15 000 — Cilkview's default
//! — on top of unit costs for ordinary operations. The original paper
//! measures this with Cilkview on OpenCilk binaries; this reproduction
//! cannot run Cilkview, so the algorithms themselves account the same
//! quantity: each subround contributes `syncs · ω + chain` where `chain`
//! is the longest sequential dependency executed inside the subround
//! (the VGC local-search length; 1 without VGC). This reproduces the
//! paper's formulas `Õ(ρω)` (plain) and `Õ(ρ′(ω + L))` (VGC)
//! over the *measured* round structure — exactly what Fig. 9 plots.
//!
//! [`RunStats`] collects those counters plus the sampling and VGC
//! counts; [`TechniqueCounters`] is their atomic in-flight form, merged
//! into [`RunStats`] between rounds.

use kcore_check::sync::atomic::{AtomicU64, Ordering};

/// Burden charged per global synchronization (Cilkview's default ω).
pub const OMEGA: u64 = 15_000;

/// Atomic running maximum.
#[derive(Debug, Default)]
pub struct AtomicMax(AtomicU64);

impl AtomicMax {
    /// Creates a maximum tracker starting at 0.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Raises the maximum to at least `v`.
    #[inline]
    pub fn update(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to 0.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Counters describing one decomposition run. Returned by every
/// algorithm in the `kcore` crate; the benchmark harness turns these
/// into the paper's Figs. 7, 9, 10 and the contention discussion.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Peeling rounds opened. A round opens only at a key that holds a
    /// live element (or that a technique must check), so this is the
    /// number of distinct settle keys, not the largest one.
    pub rounds: u64,
    /// Integer keys a peel passed without opening a round: no live
    /// element held them. `rounds + keys_skipped` is one past the last
    /// round's key, the count of a peel that visits every key.
    pub keys_skipped: u64,
    /// Total subrounds ρ (Tab. 2's peeling complexity when VGC is off).
    ///
    /// With VGC on and more than one worker, this count depends on the
    /// schedule. A chase that reaches its `chain_limit` spills the rest
    /// of its chain to the hash bag for the next subround, and which
    /// task reaches an element first, so how far each chain runs, is
    /// decided by the thread interleaving. One binary on one input can
    /// then read different counts from run to run (the benchmark's
    /// traced `highcore` k-core reads 5 or 6). A pinned count holds
    /// only on one worker or without VGC (`Techniques::default()`, as
    /// the `PR4_STATS` snapshot runs). The settle keys, so the output,
    /// do not depend on it.
    pub subrounds: u64,
    /// Global synchronization points (≥ subrounds; a two-phase subround
    /// has 2: settle, then rule; one that settles every element still
    /// live skips the rule and has 1).
    pub global_syncs: u64,
    /// Operation-count proxy for work W: vertices touched + arcs
    /// traversed + active-set scans.
    pub work: u64,
    /// Burdened-span estimate: Σ per subround (syncs·ω + longest chain).
    pub burdened_span: u64,
    /// Largest frontier observed.
    pub max_frontier: usize,
    /// Longest VGC local-search chain observed anywhere in the run.
    pub peak_chain: u64,
    /// Subround count per round (Fig. 7's y/x-axis data).
    pub subrounds_per_round: Vec<u32>,
    /// Number of vertices that ever entered sample mode.
    pub sampled_vertices: u64,
    /// Exact recounts of sample-mode vertices. Equal to
    /// [`RunStats::validate_calls`]: end-of-round validation is the only
    /// recount. Kept because benchmark reports still carry the field.
    pub resamples: u64,
    /// End-of-round exact recounts of sample-mode vertices; at most one
    /// per sampled vertex.
    pub validate_calls: u64,
    /// Adjacency entries read by exact recounts: at most Σ d(v) over
    /// the sampled vertices.
    pub recount_arcs: u64,
    /// Run restarts. Always 0: every sampling settle is exact, so no
    /// run repeats. Kept because benchmark reports still carry the field.
    pub restarts: u64,
}

impl RunStats {
    /// Records one subround: its synchronization count and the longest
    /// sequential chain executed within it.
    pub fn record_subround(&mut self, syncs: u64, longest_chain: u64) {
        self.subrounds += 1;
        self.global_syncs += syncs;
        self.burdened_span += syncs * OMEGA + longest_chain;
        self.peak_chain = self.peak_chain.max(longest_chain);
    }

    /// Closes a round that consisted of `subrounds` subrounds.
    pub fn record_round(&mut self, subrounds: u32) {
        self.rounds += 1;
        self.subrounds_per_round.push(subrounds);
    }

    /// Predicted parallel time on `p` cores under the work–span model
    /// `T_p ≈ W/p + S_b` (in abstract operation units). Used by the
    /// scalability experiment to recover speedup *shape* on hardware
    /// with fewer cores than the paper's testbed.
    pub fn predicted_time(&self, p: u64) -> u64 {
        assert!(p > 0, "core count must be positive");
        self.work / p + self.burdened_span
    }

    /// Predicted self-relative speedup on `p` cores; 1.0 for an empty
    /// run, whose predicted time is 0 on any core count.
    pub fn predicted_speedup(&self, p: u64) -> f64 {
        match self.predicted_time(p) {
            0 => 1.0,
            tp => self.predicted_time(1) as f64 / tp as f64,
        }
    }
}

/// Atomic counters shared by the worker threads of one peeling run,
/// merged into [`RunStats`] between rounds. The sampling scheme's
/// end-of-round validation bumps the recount counters; VGC
/// feeds the per-subround settle count, chased-work proxy, and longest
/// local chain.
#[derive(Debug, Default)]
pub struct TechniqueCounters {
    /// End-of-round validation recounts: the only recounts of
    /// sample-mode vertices, so they also fill [`RunStats::resamples`].
    pub validate_calls: AtomicU64,
    /// Adjacency entries read by exact recounts.
    pub recount_arcs: AtomicU64,
    /// Vertices settled in the current subround beyond the frontier
    /// itself (VGC chases). Reset per subround.
    pub chased: AtomicU64,
    /// Work proxy for chased vertices (vertices + arcs). Reset per
    /// subround.
    pub chased_work: AtomicU64,
    /// Longest sequential chase chain in the current subround. Reset per
    /// subround.
    pub chain: AtomicMax,
}

impl TechniqueCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the per-subround counters (`chased`, `chased_work`,
    /// `chain`); the run-long sampling counters keep accumulating.
    pub fn reset_subround(&self) {
        self.chased.store(0, Ordering::Relaxed);
        self.chased_work.store(0, Ordering::Relaxed);
        self.chain.reset();
    }

    /// Folds the run-long sampling counters into `stats`.
    pub fn merge_sampling_into(&self, stats: &mut RunStats) {
        let validate_calls = self.validate_calls.load(Ordering::Relaxed);
        stats.resamples += validate_calls;
        stats.validate_calls += validate_calls;
        stats.recount_arcs += self.recount_arcs.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn atomic_max_tracks_maximum() {
        let m = AtomicMax::new();
        (0..1000u64).into_par_iter().for_each(|i| m.update(i));
        assert_eq!(m.get(), 999);
        m.reset();
        assert_eq!(m.get(), 0);
    }

    #[test]
    fn subround_accounting() {
        let mut s = RunStats::default();
        s.record_subround(1, 10);
        s.record_subround(1, 50);
        s.record_round(2);
        assert_eq!(s.subrounds, 2);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.burdened_span, 2 * OMEGA + 60);
        assert_eq!(s.peak_chain, 50);
        assert_eq!(s.subrounds_per_round, vec![2]);
    }

    #[test]
    fn two_phase_subrounds_charge_more_syncs() {
        let mut fused = RunStats::default();
        let mut two_phase = RunStats::default();
        for _ in 0..10 {
            fused.record_subround(1, 1);
            two_phase.record_subround(2, 1);
        }
        assert_eq!(two_phase.global_syncs, 2 * fused.global_syncs);
        assert!(two_phase.burdened_span > fused.burdened_span);
        assert_eq!(two_phase.burdened_span, 10 * (2 * OMEGA + 1));
    }

    #[test]
    fn predicted_time_decreases_with_cores_until_span_bound() {
        let mut s = RunStats { work: 1_000_000, ..Default::default() };
        s.record_subround(1, 0);
        let t1 = s.predicted_time(1);
        let t4 = s.predicted_time(4);
        let t_inf = s.predicted_time(u64::MAX);
        assert!(t1 > t4);
        assert!(t4 > t_inf);
        assert_eq!(t_inf, s.burdened_span);
        assert!(s.predicted_speedup(4) > 1.0);
        // An empty run predicts time 0 everywhere: no speedup, not NaN.
        assert_eq!(RunStats::default().predicted_speedup(2), 1.0);
    }

    #[test]
    fn technique_counters_merge_and_reset() {
        let c = TechniqueCounters::new();
        (0..100u64).into_par_iter().for_each(|i| {
            if i % 2 == 0 {
                c.validate_calls.fetch_add(1, Ordering::Relaxed);
                c.recount_arcs.fetch_add(3, Ordering::Relaxed);
            }
            c.chased.fetch_add(1, Ordering::Relaxed);
            c.chain.update(i);
        });
        let mut stats = RunStats::default();
        c.merge_sampling_into(&mut stats);
        assert_eq!(stats.resamples, 50, "validation is the only recount");
        assert_eq!(stats.validate_calls, 50);
        assert_eq!(stats.recount_arcs, 150);
        assert_eq!(c.chain.get(), 99);
        c.reset_subround();
        assert_eq!(c.chased.load(Ordering::Relaxed), 0);
        assert_eq!(c.chain.get(), 0);
        // Sampling counters survive subround resets.
        assert_eq!(c.validate_calls.load(Ordering::Relaxed), 50);
    }
}
