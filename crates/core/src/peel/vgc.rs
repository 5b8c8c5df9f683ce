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
//! The spill makes the subround count depend on the schedule. Each
//! element dragged down to `k` is chased by whichever task moved it
//! there, and with several workers the interleaving decides which task
//! that is and how long its chain has grown when it does. So a chase
//! can reach the limit on one run and not on the next, and its spill
//! adds a subround or not: [`kcore_parallel::RunStats::subrounds`] (and
//! the counts derived from it) can differ between runs of one binary on
//! one input. Pin them only on one worker or with VGC off
//! ([`crate::Techniques::default()`]). Settle rounds do not change.
//!
//! Correctness is unchanged from Alg. 1: the clamped decrement already
//! guarantees a unique thread moves each element to `k`, and that
//! thread peeling it immediately (instead of a later subround) only
//! reorders work within the round — the settle round at round `k` is
//! `k` either way. This is exactly why the fused step is restricted
//! to [`crate::Incidence::Unit`] problems: unit decrements over static
//! lists commute, so no settle barrier is needed.

use super::engine::{clamped_update, OnlineCtx};
use kcore_buckets::BucketStructure;
use kcore_check::sync::atomic::Ordering;

/// Settles `v` at round `k`, processes its removals, and — with
/// VGC enabled (`ctx.chain_limit > 0`) — chases the local peel chain
/// up to the chain bound. The plain framework is the `chain_limit == 0`
/// case: every discovered element goes straight to the hash bag.
pub(crate) fn peel_from(ctx: &OnlineCtx<'_>, v: u32, k: u32) {
    let mut pending: Vec<u32> = Vec::new();
    let mut chased = 0u64;
    let mut chased_work = 0u64;
    let limit = ctx.chain_limit as u64;
    let mut cur = v;
    loop {
        ctx.settled[cur as usize].store(k, Ordering::Relaxed);
        for &u in ctx.inc.incident(cur) {
            if let Some(s) = ctx.sampling {
                if s.in_sample_mode(u) {
                    s.on_neighbor_removed(cur, u);
                    continue;
                }
            }
            // Clamped decrement: only while above k. Dead elements
            // already sit at or below it, so the guard also excludes
            // them.
            if let Some((prev, stored)) = clamped_update(&ctx.prio[u as usize], k, |d| d - 1) {
                if stored == k {
                    // This thread moved u to k: u is peeled
                    // exactly once — chased locally under VGC, else via
                    // the bag.
                    if chased < limit {
                        pending.push(u);
                    } else {
                        ctx.bag.insert(u);
                    }
                } else {
                    ctx.bucket.on_decrease(u, prev, stored, k);
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
        ctx.counters.chased.fetch_add(chased, Ordering::Relaxed);
        ctx.counters.chased_work.fetch_add(chased_work, Ordering::Relaxed);
        ctx.counters.chain.update(chased);
    }
}
