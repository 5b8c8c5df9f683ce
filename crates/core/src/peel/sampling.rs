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
//! Exactness is restored by exact recounts of the true priority
//! ([`kcore_parallel::RunStats::resamples`]):
//!
//! * **Trigger recounts** fire inside a subround when the sampled
//!   counter crosses the trigger watermark (see below) or bottoms out at
//!   zero. A recount at `<= k` means the element belongs to the current
//!   round: it is claimed and joins the next subround through the hash
//!   bag. A recount above `k` refreshes the stored priority
//!   (monotonically decreasing) and re-files the element in the bucket
//!   structure.
//! * **End-of-round validation** re-counts sample-mode elements when a
//!   round's frontier drains
//!   ([`kcore_parallel::RunStats::validate_calls`]). It skips only those
//!   that provably stay above the round: *clean* elements (no incidence
//!   removed since their last end-of-round recount, so the stored
//!   priority is exact) and those whose sampled counter alone exceeds
//!   `k` (it counts a subset of the live incidences). Every other live
//!   one is recounted, so a round that kills no hub neighbour costs no
//!   recount.
//!
//! End-of-round validation establishes the **round-start invariant**:
//! when round `k` opens, every live element has true priority `>= k`,
//! and the stored priority of a sample-mode element is an upper bound on
//! its true one. A sample-mode element the bucket structure surfaces in
//! round `k`'s initial frontier (stored priority `k`) therefore has
//! true priority exactly `k`, and the **frontier claim** marks it
//! without another recount (debug builds still recount and assert it).
//! A sample-mode element is thus **never peeled on approximate
//! evidence**: every settle is exact, which is how the scheme stays
//! oracle-identical while shedding contention.
//!
//! ## Trigger watermark
//!
//! With sampling rate `2^-r`, an element of true live priority `d` has
//! a sampled counter concentrated around `d / 2^r`. The trigger sits at
//! the expected counter of the round boundary plus a Chernoff-style
//! `O(√(μ log n))` deviation, the shape of the paper's watermarks, plus
//! a flat [`SLACK`]:
//!
//! `((k+1) >> r) + ceil(√(3 · ((k+1) >> r) · log₂ n)) + SLACK`.
//!
//! The watermark only schedules mid-round recounts, which let a hub
//! settle within the round its priority reaches `k` instead of
//! re-opening the round at its end. It is not a correctness bound: a
//! crossing it misses is caught by end-of-round validation. The paper
//! also keeps sampled counters in per-thread shards before they hit the
//! shared counter; we take the hit on the shared atomic directly.

use super::engine::{OnlineCtx, PeelProblem, UnitIncidence, UNSET};
use crate::config::Sampling;
use kcore_buckets::BucketStructure;
use kcore_check::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use kcore_obs::span;
use kcore_parallel::primitives::pack_index;
use kcore_parallel::TechniqueCounters;
use rayon::prelude::*;

/// Element tracks its exact priority (the plain Alg. 1 path).
const EXACT: u8 = 0;
/// Element tracks the sampled counter; the stored priority holds the
/// last exact recount (an upper bound on the live value).
const SAMPLED: u8 = 1;
/// A worker holds the element's recount token.
const RECOUNT: u8 = 2;
/// An exact recount confirmed the element peels in the current round;
/// it sits in the frontier or hash bag and takes no further recounts.
const CLAIMED: u8 = 3;

/// Flat term of the trigger watermark on top of the Chernoff deviation:
/// more mid-round recounts, fewer round re-openings at round end.
const SLACK: u32 = 32;

/// Per-run state of the sampling scheme.
pub(crate) struct SamplingState {
    cfg: Sampling,
    /// `2^rate_log2 - 1`: an incidence is sampled iff its hash ANDs to
    /// zero.
    mask: u64,
    /// `ceil(log2 n)` of the element universe — the deviation term's
    /// `log n` factor.
    log2_n: u32,
    /// Per-element mode (see the `EXACT` … `CLAIMED` constants).
    state: Vec<AtomicU8>,
    /// Sampled live incidences per element (sample-mode only). Only
    /// removals touch it, so in the sequential gaps it is exact — and a
    /// lower bound on the live priority.
    approx: Vec<AtomicU32>,
    /// Elements that lost an incidence since their last gap recount
    /// (all start clean: initial priorities are exact). A clean
    /// element's stored priority is its live priority.
    dirty: Vec<AtomicBool>,
    /// Elements that entered sample mode, pruned of dead entries at
    /// each end-of-round validation.
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
        let log2_n = (usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1).max(1);
        let state: Vec<AtomicU8> =
            (0..n).map(|v| AtomicU8::new(if eligible(v) { SAMPLED } else { EXACT })).collect();
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
        let dirty = (0..n).map(|_| AtomicBool::new(false)).collect();
        Some(Self { cfg, mask, log2_n, state, approx, dirty, sampled })
    }

    /// Number of elements that entered sample mode.
    pub(crate) fn num_sampled(&self) -> usize {
        self.sampled.len()
    }

    /// Whether removals targeting `u` take the sampled path. `RECOUNT`
    /// and `CLAIMED` count as sampled: their exact priority is never
    /// maintained, so the exact decrement path must not touch them.
    #[inline]
    pub(crate) fn in_sample_mode(&self, u: u32) -> bool {
        self.state[u as usize].load(Ordering::Relaxed) != EXACT
    }

    /// Processes the removal of incidence `(src, u)` for a sample-mode
    /// `u`: mark `u` dirty, decrement the sampled counter if the
    /// incidence is in the sample, and recount exactly when the counter
    /// crosses the trigger watermark (or bottoms out — past zero the
    /// approximation carries no signal).
    #[inline]
    pub(crate) fn on_neighbor_removed<P: PeelProblem>(
        &self,
        src: u32,
        u: u32,
        k: u32,
        ctx: &OnlineCtx<'_, P>,
    ) {
        // Load first: a hub takes one write per validation, not one per
        // removal.
        let dirty = &self.dirty[u as usize];
        if !dirty.load(Ordering::Relaxed) {
            dirty.store(true, Ordering::Relaxed);
        }
        if !edge_sampled(src, u, self.cfg.seed, self.mask) {
            return;
        }
        // Each incidence is removed once, so the counter cannot
        // underflow.
        let now = self.approx[u as usize].fetch_sub(1, Ordering::Relaxed) - 1;
        // `==` rather than `<=`: the counter only decreases, so this
        // fires once per crossing instead of on every removal below the
        // watermark.
        if now == self.trigger_watermark(k) || now == 0 {
            self.recount_in_round(u, k, ctx);
        }
    }

    /// Claims the recount token for `u` and re-counts exactly,
    /// mid-round.
    fn recount_in_round<P: PeelProblem>(&self, u: u32, k: u32, ctx: &OnlineCtx<'_, P>) {
        if self.state[u as usize]
            .compare_exchange(SAMPLED, RECOUNT, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Someone else is recounting, or the element is already
            // claimed for this round.
            return;
        }
        ctx.counters.resamples.fetch_add(1, Ordering::Relaxed);
        let exact = self.count_live(u, ctx.inc, ctx.settled, false);
        if exact <= k {
            // The round-start invariant puts the priority at >= k when
            // the round opened, so the drop to <= k happened during this
            // round: the settle round is k. Claim before inserting so no
            // second recount (or a stale bucket copy) can double-peel.
            ctx.bag.insert(u);
            self.state[u as usize].store(CLAIMED, Ordering::Relaxed);
        } else {
            // A missed concurrent settle overstates `exact`, so `u`
            // stays dirty: only a gap recount may clean it.
            if let Some(old) = store_decreased(&ctx.prio[u as usize], exact) {
                ctx.bucket.on_decrease(u, old, exact, k);
            }
            self.state[u as usize].store(SAMPLED, Ordering::Relaxed);
        }
    }

    /// Claims every sample-mode element in a round's initial frontier
    /// so no mid-round recount peels it a second time. By the round-start
    /// invariant (see the module docs) its true priority is exactly `k`,
    /// so no recount is needed; debug builds recount to check it. Runs
    /// in the sequential gap between rounds.
    pub(crate) fn claim_frontier(
        &self,
        frontier: &[u32],
        k: u32,
        inc: &dyn UnitIncidence,
        settled: &[AtomicU32],
    ) {
        frontier.par_iter().for_each(|&v| {
            let state = self.state[v as usize].load(Ordering::Relaxed);
            debug_assert_ne!(state, CLAIMED, "claimed elements settle within their round");
            if state == SAMPLED {
                debug_assert_eq!(self.count_live(v, inc, settled, false), k);
                self.state[v as usize].store(CLAIMED, Ordering::Relaxed);
            }
        });
    }

    /// End-of-round validation: exactly re-counts live sample-mode
    /// elements that could settle at `k` and returns the ones whose true
    /// priority already reached it — they re-open the round. Runs in the
    /// sequential gap, so counts are exact. Two skips are sound, so the
    /// round-start invariant holds for the next round:
    ///
    /// * a clean element's stored priority is its live priority, and
    ///   the bucket structure already holds it above `k`;
    /// * `approx` counts a subset of the live incidences, so
    ///   `approx > k` proves the live priority is above `k`.
    pub(crate) fn validate_round_end(
        &mut self,
        k: u32,
        inc: &dyn UnitIncidence,
        prio: &[AtomicU32],
        settled: &[AtomicU32],
        bucket: &dyn BucketStructure,
        counters: &TechniqueCounters,
    ) -> Vec<u32> {
        self.sampled.retain(|&v| settled[v as usize].load(Ordering::Relaxed) == UNSET);
        let _validate = span!("sampling.validate_round_end", self.sampled.len());
        let this = &*self;
        this.sampled
            .par_iter()
            .filter_map(|&v| {
                let approx = this.approx[v as usize].load(Ordering::Relaxed);
                if this.state[v as usize].load(Ordering::Relaxed) != SAMPLED
                    || approx > k
                    || !this.dirty[v as usize].load(Ordering::Relaxed)
                {
                    return None;
                }
                counters.validate_calls.fetch_add(1, Ordering::Relaxed);
                counters.resamples.fetch_add(1, Ordering::Relaxed);
                let exact = this.count_live(v, inc, settled, false);
                debug_assert_eq!(approx, this.count_live(v, inc, settled, true));
                this.dirty[v as usize].store(false, Ordering::Relaxed);
                if exact <= k {
                    this.state[v as usize].store(CLAIMED, Ordering::Relaxed);
                    Some(v)
                } else {
                    if let Some(old) = store_decreased(&prio[v as usize], exact) {
                        bucket.on_decrease(v, old, exact, k);
                    }
                    None
                }
            })
            .collect()
    }

    /// Live incidences of `v` — all of them, or only the sampled ones.
    /// During a subround a concurrent settle can be missed — counted as
    /// still alive — so the result only ever *over*states the truth,
    /// which keeps the stored priority an upper bound; in the sequential
    /// gaps it is exact.
    fn count_live(
        &self,
        v: u32,
        inc: &dyn UnitIncidence,
        settled: &[AtomicU32],
        sampled_only: bool,
    ) -> u32 {
        let mut live = 0u32;
        // Streaming walk: recounts fire *inside* a neighbor walk of the
        // peel loop (`on_neighbor_removed` → `recount_in_round`), so the
        // outer `incident` slice is live — the buffer-free form is
        // required here on decode-on-the-fly backends.
        inc.for_each_incident(v, &mut |w| {
            if settled[w as usize].load(Ordering::Relaxed) == UNSET
                && (!sampled_only || edge_sampled(v, w, self.cfg.seed, self.mask))
            {
                live += 1;
            }
        });
        live
    }

    /// Sampled-counter level at which a mid-round removal triggers a
    /// recount: the expected counter at the round boundary, plus the
    /// Chernoff deviation term, plus [`SLACK`] (see the module docs).
    fn trigger_watermark(&self, k: u32) -> u32 {
        let base = (k + 1) >> self.cfg.rate_log2;
        base + deviation(base, self.log2_n) + SLACK
    }
}

/// Chernoff deviation `ceil(√(3 · base · log₂ n))`: a counter with mean
/// `base` stays within this of its mean with probability `1 - n^-Ω(1)`.
fn deviation(base: u32, log2_n: u32) -> u32 {
    ceil_sqrt(3 * base as u64 * log2_n as u64)
}

/// `ceil(√x)` over integers (no float rounding surprises).
fn ceil_sqrt(x: u64) -> u32 {
    let s = x.isqrt();
    (s + u64::from(s * s < x)) as u32
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

    #[test]
    fn ceil_sqrt_is_exact() {
        assert_eq!(ceil_sqrt(0), 0);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(36), 6);
        assert_eq!(ceil_sqrt(37), 7);
        for x in 0..2000u64 {
            let s = ceil_sqrt(x) as u64;
            assert!(s * s >= x && (s == 0 || (s - 1) * (s - 1) < x), "x = {x}");
        }
    }

    #[test]
    fn watermarks_scale_with_round_deviation_and_slack() {
        let g = gen::star(40); // n = 40 -> log2_n = 6
        let degrees = g.degrees();
        let cfg = Sampling { rate_log2: 2, ..Sampling::with_threshold(10) };
        let s = SamplingState::build(&g, &degrees, cfg).unwrap();
        assert_eq!(s.log2_n, 6);
        // Round 0: base = 1 >> 2 = 0, so no deviation term — only slack.
        assert_eq!(s.trigger_watermark(0), SLACK);
        // Round 7: base = 8 >> 2 = 2, deviation = ceil(sqrt(3*2*6)) = 6.
        assert_eq!(s.trigger_watermark(7), 2 + 6 + SLACK);
    }

    #[test]
    fn coarse_rate_leaves_only_the_slack_at_small_rounds() {
        // A coarse rate gives small rounds base 0 and therefore no
        // deviation term either: the trigger sits at the flat slack.
        let g = gen::star(40);
        let degrees = g.degrees();
        let cfg = Sampling { rate_log2: 3, ..Sampling::with_threshold(10) };
        let s = SamplingState::build(&g, &degrees, cfg).unwrap();
        assert_eq!(s.trigger_watermark(0), SLACK);
        assert_eq!(s.trigger_watermark(6), SLACK);
        assert!(s.trigger_watermark(15) >= SLACK + 2, "base 2 brings the deviation with it");
    }
}
