//! The sampling scheme (paper Sec. 4.1).
//!
//! Peeling a high-priority element's incidence list funnels thousands
//! of atomic decrements into one cache line — the contention hotspot
//! the paper measures in Sec. 4.1.5. The sampling scheme removes it: an
//! element whose initial priority reaches the configured threshold
//! enters **sample mode** and stops maintaining an exact priority.
//! Instead it tracks the number of *sampled* live incident elements,
//! where each incidence is in the sample with probability `2^-r`,
//! decided by a deterministic endpoint hash. A removal then touches the
//! shared counter only for sampled incidences — a `2^r`-fold contention
//! reduction. Nothing but removals writes the counter, so between
//! subrounds it is exactly the number of live sampled incidences: a
//! lower bound on the live priority.
//!
//! The scheme applies to [`crate::Incidence::Unit`] problems (each dead
//! incident element costs one unit, so the sampled counter estimates
//! the live priority); the engine gates it off for snapshot rules. For
//! k-core the "incidences" are exactly the graph's edges, matching the
//! paper's presentation.
//!
//! ## One exact recount per sampled element
//!
//! Exactness is restored by **end-of-round validation**: when a round's
//! frontier drains, every live sample-mode element whose sampled
//! counter has fallen to the round `k` is recounted exactly
//! ([`kcore_parallel::RunStats::validate_calls`]). The others are
//! skipped soundly, since the counter counts a subset of the live
//! incidences and so `approx > k` proves the live priority is above
//! `k`. The recount runs in the sequential gap between subrounds, so it
//! is exact, and it ends the element's sample mode either way:
//!
//! * live count `<= k`: the element belongs to round `k` and re-opens
//!   it. It keeps its sample-mode flag for good, so removals never
//!   decrement its stale stored priority, which is above the clamp;
//! * live count `> k`: the stored priority becomes the exact count and
//!   the flag clears, so its later removals take the plain clamped
//!   decrement of [`super::vgc::peel_from`]. No removal runs in the gap,
//!   so no worker sees the flag change mid-walk.
//!
//! Each sampled element is therefore recounted at most once, and the
//! recount work is at most `Σ d(v)` over the sampled elements
//! ([`kcore_parallel::RunStats::recount_arcs`]).
//!
//! Validation establishes the **round-start invariant**: when round `k`
//! opens, every live element has true priority `>= k`, and an element
//! still in sample mode was never recounted, so its stored priority is
//! its initial one, an upper bound on the true one. A sample-mode
//! element the bucket structure surfaces in round `k`'s initial
//! frontier (stored priority `k`) therefore has true priority exactly
//! `k` and settles without a recount; debug builds check it
//! ([`SamplingState::debug_assert_frontier_exact`]). A sample-mode
//! element is thus **never peeled on approximate evidence**: every
//! settle is exact, which is how the scheme stays oracle-identical
//! while shedding contention. The paper also keeps sampled counters in
//! per-thread shards before they hit the shared counter; we take the
//! hit on the shared atomic directly.

use super::engine::{UnitIncidence, UNSET};
use crate::config::Sampling;
use kcore_buckets::BucketStructure;
use kcore_check::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use kcore_obs::span;
use kcore_parallel::primitives::pack_index;
use kcore_parallel::TechniqueCounters;
use rayon::prelude::*;

/// Per-run state of the sampling scheme.
pub(crate) struct SamplingState {
    cfg: Sampling,
    /// `2^rate_log2 - 1`: an incidence is sampled iff its hash ANDs to
    /// zero.
    mask: u64,
    /// Per-element sample-mode flag. Only the sequential gaps write it,
    /// so concurrent removals read a fixed value within a subround;
    /// `Relaxed` suffices because the subround fork/join orders the
    /// gap's writes before every read.
    sample_mode: Vec<AtomicBool>,
    /// Sampled live incidences per element (sample-mode only). Only
    /// removals touch it, so in the sequential gaps it is exact — and a
    /// lower bound on the live priority.
    approx: Vec<AtomicU32>,
    /// Elements in sample mode, pruned of dead and recounted ones as
    /// each end-of-round validation starts.
    sampled: Vec<u32>,
}

impl SamplingState {
    /// Builds sample-mode state for every element whose initial
    /// priority reaches the threshold; `None` when no element qualifies
    /// (the run then skips the sampling hooks entirely). An element
    /// whose initial priority is not its incidence count (a re-peel's
    /// region vertex with support from outside the region) stays exact:
    /// recounts measure incidences.
    pub(crate) fn build(
        inc: &dyn UnitIncidence,
        init_priorities: &[u32],
        cfg: Sampling,
    ) -> Option<Self> {
        let n = init_priorities.len();
        let eligible = |v: usize| {
            let d = init_priorities[v];
            d >= cfg.threshold && inc.num_incident(v as u32) == d as usize
        };
        let sampled = pack_index(n, eligible);
        if sampled.is_empty() {
            return None;
        }
        let mask = (1u64 << cfg.rate_log2) - 1;
        let sample_mode = (0..n).map(|v| AtomicBool::new(eligible(v))).collect();
        let approx: Vec<AtomicU32> = (0..n as u32)
            .into_par_iter()
            .map(|v| {
                let mut count = 0u32;
                if eligible(v as usize) {
                    // Streaming walk: no incident slice is held, so this
                    // is safe on decode-on-the-fly backends.
                    inc.for_each_incident(v, &mut |u| {
                        if edge_sampled(v, u, cfg.seed, mask) {
                            count += 1;
                        }
                    });
                }
                AtomicU32::new(count)
            })
            .collect();
        Some(Self { cfg, mask, sample_mode, approx, sampled })
    }

    /// Number of elements that entered sample mode.
    pub(crate) fn num_sampled(&self) -> usize {
        self.sampled.len()
    }

    /// Whether removals targeting `u` take the sampled path. Settled
    /// sample-mode elements keep the flag: their stored priority is a
    /// stale upper bound the exact decrement path must not touch.
    #[inline]
    pub(crate) fn in_sample_mode(&self, u: u32) -> bool {
        self.sample_mode[u as usize].load(Ordering::Relaxed)
    }

    /// Processes the removal of incidence `(src, u)` for a sample-mode
    /// `u`: decrements the sampled counter if the incidence is in the
    /// sample. Each incidence is removed once, so the counter cannot
    /// underflow.
    #[inline]
    pub(crate) fn on_neighbor_removed(&self, src: u32, u: u32) {
        if edge_sampled(src, u, self.cfg.seed, self.mask) {
            self.approx[u as usize].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Debug-build check of the round-start invariant (see the module
    /// docs): every sample-mode element in round `k`'s initial frontier
    /// has live priority exactly `k`. Runs in the sequential gap before
    /// the round's first subround.
    pub(crate) fn debug_assert_frontier_exact(
        &self,
        frontier: &[u32],
        k: u32,
        inc: &dyn UnitIncidence,
        settled: &[AtomicU32],
    ) {
        debug_assert_eq!(
            frontier
                .iter()
                .find(|&&v| self.in_sample_mode(v) && self.count_live(v, inc, settled, false) != k),
            None,
            "a sample-mode element surfaced in round {k}'s frontier with a live count other than {k}"
        );
    }

    /// End-of-round validation: exactly re-counts the live sample-mode
    /// elements whose sampled counter has fallen to `k` and returns the
    /// ones whose true priority already reached it — they re-open the
    /// round. The others leave sample mode with their exact priority
    /// stored. Runs in the sequential gap, so counts are exact and the
    /// flag flips while no removal reads it.
    pub(crate) fn validate_round_end(
        &mut self,
        k: u32,
        inc: &dyn UnitIncidence,
        prio: &[AtomicU32],
        settled: &[AtomicU32],
        bucket: &dyn BucketStructure,
        counters: &TechniqueCounters,
    ) -> Vec<u32> {
        self.sampled.retain(|&v| {
            settled[v as usize].load(Ordering::Relaxed) == UNSET
                && self.sample_mode[v as usize].load(Ordering::Relaxed)
        });
        let _validate = span!("sampling.validate_round_end", self.sampled.len());
        let this = &*self;
        this.sampled
            .par_iter()
            .filter_map(|&v| {
                let approx = this.approx[v as usize].load(Ordering::Relaxed);
                if approx > k {
                    return None;
                }
                counters.validate_calls.fetch_add(1, Ordering::Relaxed);
                counters.resamples.fetch_add(1, Ordering::Relaxed);
                counters.recount_arcs.fetch_add(inc.num_incident(v) as u64, Ordering::Relaxed);
                let exact = this.count_live(v, inc, settled, false);
                debug_assert_eq!(approx, this.count_live(v, inc, settled, true));
                if exact <= k {
                    return Some(v);
                }
                if let Some(old) = store_decreased(&prio[v as usize], exact) {
                    bucket.on_decrease(v, old, exact, k);
                }
                this.sample_mode[v as usize].store(false, Ordering::Relaxed);
                None
            })
            .collect()
    }

    /// Live incidences of `v` — all of them, or only the sampled ones.
    /// Called only in the sequential gaps, so the count is exact.
    fn count_live(
        &self,
        v: u32,
        inc: &dyn UnitIncidence,
        settled: &[AtomicU32],
        sampled_only: bool,
    ) -> u32 {
        let mut live = 0u32;
        inc.for_each_incident(v, &mut |w| {
            if settled[w as usize].load(Ordering::Relaxed) == UNSET
                && (!sampled_only || edge_sampled(v, w, self.cfg.seed, self.mask))
            {
                live += 1;
            }
        });
        live
    }
}

/// Monotonically-decreasing store of a recounted priority, returning
/// the replaced value. The guard keeps bucket notifications distinct
/// (each stored value is strictly smaller than the last) and the stored
/// value an upper bound.
fn store_decreased(slot: &AtomicU32, exact: u32) -> Option<u32> {
    slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| (exact < d).then_some(exact)).ok()
}

/// Whether incidence `{a, b}` is in the sample: a SplitMix64-style mix
/// of the sorted id pair and the seed, accepted when the low
/// `rate_log2` bits clear. Deterministic, so the init count and every
/// removal agree on the sample without storing it.
#[inline]
fn edge_sampled(a: u32, b: u32, seed: u64, mask: u64) -> bool {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let mut h = ((lo as u64) << 32 | hi as u64) ^ seed;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h & mask == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::gen;

    #[test]
    fn edge_sampling_is_symmetric_and_deterministic() {
        let mask = (1u64 << 2) - 1;
        for (a, b) in [(0u32, 1u32), (5, 900), (123_456, 7)] {
            assert_eq!(edge_sampled(a, b, 42, mask), edge_sampled(b, a, 42, mask));
            assert_eq!(edge_sampled(a, b, 42, mask), edge_sampled(a, b, 42, mask));
        }
    }

    #[test]
    fn edge_sampling_rate_is_roughly_two_to_minus_r() {
        for r in [1u32, 2, 3] {
            let mask = (1u64 << r) - 1;
            let hits = (0..40_000u32).filter(|&i| edge_sampled(i, i + 1, 7, mask)).count();
            let expect = 40_000 >> r;
            assert!(
                hits > expect / 2 && hits < expect * 2,
                "rate 2^-{r}: {hits} hits vs expected ~{expect}"
            );
        }
    }

    #[test]
    fn build_samples_only_above_threshold() {
        let g = gen::star(50); // hub degree 49, leaves degree 1
        let degrees = g.degrees();
        let s = SamplingState::build(&g, &degrees, Sampling::with_threshold(10)).unwrap();
        assert_eq!(s.num_sampled(), 1);
        assert!(s.in_sample_mode(0), "the hub is vertex 0");
        assert!(!s.in_sample_mode(1));
        // The hub's sampled count reflects the hash sample of its edges.
        let approx = s.approx[0].load(Ordering::Relaxed);
        assert!(approx <= 49);
        let manual =
            (1..50u32).filter(|&leaf| edge_sampled(0, leaf, s.cfg.seed, s.mask)).count() as u32;
        assert_eq!(approx, manual);
    }

    #[test]
    fn build_returns_none_when_nothing_qualifies() {
        let g = gen::path(10);
        let degrees = g.degrees();
        assert!(SamplingState::build(&g, &degrees, Sampling::with_threshold(100)).is_none());
    }

    #[test]
    fn store_decreased_is_monotone() {
        let slot = AtomicU32::new(10);
        assert_eq!(store_decreased(&slot, 7), Some(10));
        assert_eq!(store_decreased(&slot, 7), None, "equal values must not re-notify");
        assert_eq!(store_decreased(&slot, 9), None, "increases must be rejected");
        assert_eq!(store_decreased(&slot, 3), Some(7));
        assert_eq!(slot.load(Ordering::Relaxed), 3);
    }
}
