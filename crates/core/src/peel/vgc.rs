//! Vertical granularity control (paper Sec. 4.2) and the fused
//! settle-and-decrement hot path of the engine's fused step.
//!
//! On sparse inputs most subrounds move a handful of elements: the
//! global synchronization between subrounds (burden ω in the span
//! model) dwarfs the peeling itself, and the round dissolves into a
//! long chain of tiny fork–joins. VGC collapses them *vertically*: when
//! a worker's clamped decrement moves an incident element down to the
//! current round, the worker keeps going — it settles that element
//! immediately and expands it in the same task, chasing the local peel
//! chain sequentially instead of bouncing each hop through the hash
//! bag.
//!
//! The chase is bounded by [`crate::Vgc::chain_limit`]: past the bound,
//! discovered elements spill to the hash bag and the next subround
//! picks them up, so one worker can never serialize more than `L`
//! settles. The subround's longest chase is the `chain` term of the
//! burdened span (`Õ(ρ′(ω + L))`, Tab. 2) and feeds
//! [`kcore_parallel::RunStats::peak_chain`].
//!
//! Correctness is unchanged from Alg. 1: the clamped decrement already
//! guarantees a unique thread moves each element to `k`, and that
//! thread peeling it immediately (instead of a later subround) only
//! reorders work within the round — the settle round at round `k` is
//! `k` either way. This is exactly why the fused step is restricted
//! to [`crate::Incidence::Unit`] problems: unit decrements over static
//! lists commute, so no settle barrier is needed.

use super::engine::{clamped_update, OnlineCtx, PeelProblem};
use kcore_check::sync::atomic::Ordering;
use kcore_obs::{counter, gauge_max};

/// Settles `v` at round `round`, processes its removals, and — with
/// VGC enabled (`ctx.chain_limit > 0`) — chases the local peel chain
/// up to the chain bound. The plain framework is the `chain_limit == 0`
/// case: every discovered element goes straight to the hash bag.
///
/// `floor` is the round's clamp value: equal to `round` under
/// [`crate::RoundPolicy::MinBucket`], the round's peel threshold under
/// [`crate::RoundPolicy::Threshold`] — there an element dragged down to
/// the *threshold* settles in the current round even though its
/// recorded settle round is the round index.
pub(crate) fn peel_from<P: PeelProblem>(ctx: &OnlineCtx<'_, P>, v: u32, round: u32, floor: u32) {
    let mut pending: Vec<u32> = Vec::new();
    let mut chased = 0u64;
    let mut chased_work = 0u64;
    let limit = ctx.chain_limit as u64;
    let mut cur = v;
    loop {
        ctx.settled[cur as usize].store(round, Ordering::Relaxed);
        ctx.problem.on_settle(cur, round);
        for &u in ctx.inc.incident(cur) {
            if let Some(s) = ctx.sampling {
                if s.in_sample_mode(u) {
                    s.on_neighbor_removed(cur, u, floor, ctx);
                    continue;
                }
            }
            // Clamped decrement: only while above the floor. Dead
            // elements already sit at or below it, so the guard also
            // excludes them.
            if let Some((prev, stored)) = clamped_update(&ctx.prio[u as usize], floor, |d| d - 1) {
                if stored == floor {
                    // This thread moved u to the floor: u is peeled
                    // exactly once — chased locally under VGC, else via
                    // the bag.
                    if chased < limit {
                        pending.push(u);
                    } else {
                        ctx.bag.insert(u);
                    }
                } else {
                    ctx.bucket.on_decrease(u, prev, stored, floor);
                }
            }
        }
        match pending.pop() {
            Some(next) if chased < limit => {
                chased += 1;
                chased_work += 1 + ctx.inc.num_incident(next) as u64;
                cur = next;
            }
            Some(next) => {
                // Chain budget exhausted mid-expansion: spill the rest.
                ctx.bag.insert(next);
                for u in pending.drain(..) {
                    ctx.bag.insert(u);
                }
                break;
            }
            None => break,
        }
    }
    if chased > 0 {
        counter!(ctx.counters.chased, "vgc.chased", chased);
        counter!(ctx.counters.chased_work, "vgc.chased_work", chased_work);
        gauge_max!(ctx.counters.chain, "vgc.chain", chased);
    }
}
