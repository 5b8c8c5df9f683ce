//! (k,h)-core decomposition as a [`PeelProblem`] — the recompute-flavor
//! client, with priorities that drop by *many* units per death.
//!
//! The **(k,h)-core** (distance-generalized core decomposition) is the
//! maximal subgraph in which every vertex has at least `k` vertices
//! within distance `h` — its *h-hop degree*, counted through surviving
//! vertices only. For `h = 1` this is exactly the k-core; for larger
//! `h` the priority is an h-index-style quantity that cannot be
//! maintained by unit decrements: removing one vertex can disconnect
//! whole branches of a ball, collapsing a neighbor's h-hop degree by
//! an arbitrary amount. The peel therefore runs on
//! [`Incidence::Recompute`]: when a vertex dies, every vertex whose
//! ball could have contained it (the static h-hop ball around the
//! death — a superset of the affected set) gets its priority
//! *recomputed* from scratch over the survivors, and the engine's
//! generalized CAS clamp enforces the monotone decrease.
//!
//! The h-hop degree is monotone in the surviving set (removing
//! vertices only removes paths), so the standard generalized-core
//! argument applies: round-`k` peeling yields each vertex's
//! **kh-coreness** — the largest `k` such that it belongs to the
//! (k,h)-core — and the decomposition is deterministic because every
//! recompute is a pure function of the engine's settle snapshot.
//!
//! [`sequential_kh_coreness`] is the oracle: a recount peeler that
//! maintains no incremental state at all, so a parallel bookkeeping
//! bug cannot be mirrored.

use crate::peel::engine::{Incidence, PeelProblem, RecomputeRule, SettleView};
use kcore_graph::CsrGraph;
use kcore_parallel::RunStats;
use rayon::prelude::*;
use std::cell::RefCell;

/// One thread's ball-BFS scratch: visited stamps, the BFS queue, and
/// the current epoch (see [`with_ball_scratch`]).
struct BallScratch {
    stamps: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl BallScratch {
    const fn new() -> Self {
        Self { stamps: Vec::new(), queue: Vec::new(), epoch: 0 }
    }
}

thread_local! {
    /// Epoch-stamped visited buffers shared by every ball BFS on a
    /// worker: `stamps[v] == epoch` means "visited in the current
    /// call", so a fresh traversal costs one epoch bump instead of an
    /// `O(n)` clear/allocation. Two independent traversals can nest on
    /// one thread (a target-emission BFS triggers recompute BFSes from
    /// inside the engine's emit callback), so each level borrows its
    /// own buffer: index 0 for target emission, 1 for recomputes.
    static BALL_SCRATCH: [RefCell<BallScratch>; 2] =
        const { [RefCell::new(BallScratch::new()), RefCell::new(BallScratch::new())] };
}

/// Runs `body` with this thread's ball-BFS scratch at nesting `level`:
/// a visited-stamp array sized to `n`, a queue, and the fresh epoch.
fn with_ball_scratch<R>(
    level: usize,
    n: usize,
    body: impl FnOnce(&mut [u32], &mut Vec<u32>, u32) -> R,
) -> R {
    BALL_SCRATCH.with(|cells| {
        let mut scratch = cells[level].borrow_mut();
        let BallScratch { stamps, queue, epoch } = &mut *scratch;
        if stamps.len() < n {
            stamps.resize(n, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            // Epoch wrap: stale stamps could collide; reset once per
            // 2^32 traversals.
            stamps.fill(0);
            *epoch = 1;
        }
        queue.clear();
        body(stamps, queue, *epoch)
    })
}

/// Number of vertices within distance `h` of `v` (excluding `v`),
/// counting only vertices for which `alive` holds and walking only
/// through such vertices. `v` itself is assumed alive by the caller.
/// `O(|ball|)` per call via the thread-local epoch-stamped scratch.
fn ball_size<F: Fn(u32) -> bool>(g: &CsrGraph, v: u32, h: u32, alive: &F) -> u32 {
    if h == 1 {
        // The common fast path: the 1-hop ball is the live degree.
        return g.neighbors(v).iter().filter(|&&u| alive(u)).count() as u32;
    }
    with_ball_scratch(1, g.num_vertices(), |stamps, queue, epoch| {
        stamps[v as usize] = epoch;
        queue.push(v);
        let mut count = 0u32;
        // BFS by levels over the scratch queue: `lo..hi` is the
        // current depth's slice.
        let (mut lo, mut hi) = (0usize, 1usize);
        for _ in 0..h {
            for i in lo..hi {
                let u = queue[i];
                for &w in g.neighbors(u) {
                    if stamps[w as usize] != epoch && alive(w) {
                        stamps[w as usize] = epoch;
                        count += 1;
                        queue.push(w);
                    }
                }
            }
            (lo, hi) = (hi, queue.len());
            if lo == hi {
                break;
            }
        }
        count
    })
}

/// The (k,h)-core decomposition problem over one graph.
///
/// All four bucket strategies apply; sampling does not apply to
/// recomputed priorities, and VGC is ignored by the two-phase step.
pub(crate) struct KhCoreProblem<'g> {
    pub(crate) g: &'g CsrGraph,
    pub(crate) h: u32,
}

impl KhCoreProblem<'_> {
    /// Emits every vertex within distance `depth` of `v` exactly once
    /// (a visited-bounded BFS, not a walk enumeration — `O(|ball|)`
    /// emit calls per death). Walked over the *static* graph: a
    /// superset of the affected set is allowed, and using the original
    /// adjacency keeps the target list independent of racing settles.
    fn emit_ball(&self, v: u32, depth: u32, emit: &mut dyn FnMut(u32)) {
        with_ball_scratch(0, self.g.num_vertices(), |stamps, queue, epoch| {
            stamps[v as usize] = epoch;
            queue.push(v);
            let (mut lo, mut hi) = (0usize, 1usize);
            for _ in 0..depth {
                for i in lo..hi {
                    // Index instead of iterate: `emit` may re-enter
                    // scratch level 1, never this one.
                    let u = queue[i];
                    for &w in self.g.neighbors(u) {
                        if stamps[w as usize] != epoch {
                            stamps[w as usize] = epoch;
                            queue.push(w);
                        }
                    }
                }
                for &w in &queue[hi..] {
                    emit(w);
                }
                (lo, hi) = (hi, queue.len());
                if lo == hi {
                    break;
                }
            }
        });
    }
}

impl PeelProblem for KhCoreProblem<'_> {
    type Output = KhCoreResult;

    fn name(&self) -> &'static str {
        "kh-core"
    }

    fn num_elements(&self) -> usize {
        self.g.num_vertices()
    }

    fn init_priorities(&self) -> Vec<u32> {
        (0..self.g.num_vertices() as u32)
            .into_par_iter()
            .map(|v| ball_size(self.g, v, self.h, &|_| true))
            .collect()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Recompute(self)
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> KhCoreResult {
        KhCoreResult { kh_coreness: rounds, h: self.h, stats }
    }
}

impl RecomputeRule for KhCoreProblem<'_> {
    fn for_each_target(&self, e: u32, emit: &mut dyn FnMut(u32)) {
        // A death at distance <= h can shrink a ball, and every path it
        // sat on starts within the static h-hop ball around it.
        self.emit_ball(e, self.h, emit);
    }

    fn recompute(&self, t: u32, view: &SettleView<'_>) -> u32 {
        ball_size(self.g, t, self.h, &|u| view.alive(u))
    }
}

/// The result of a (k,h)-core decomposition.
#[derive(Debug, Clone)]
pub struct KhCoreResult {
    kh_coreness: Vec<u32>,
    h: u32,
    stats: RunStats,
}

impl KhCoreResult {
    /// Every vertex's kh-coreness: the largest `k` with the vertex in
    /// the (k,h)-core. For `h = 1` this is the classical coreness.
    pub fn kh_coreness(&self) -> &[u32] {
        &self.kh_coreness
    }

    /// The hop bound the decomposition ran with.
    pub fn h(&self) -> u32 {
        self.h
    }

    /// Number of vertices decomposed.
    pub fn num_vertices(&self) -> usize {
        self.kh_coreness.len()
    }

    /// The largest kh-coreness of any vertex.
    pub fn kmax(&self) -> u32 {
        self.kh_coreness.iter().copied().max().unwrap_or(0)
    }

    /// Membership of the (k,h)-core (`true` = kh-coreness `>= k`).
    pub fn members(&self, k: u32) -> Vec<bool> {
        self.kh_coreness.iter().map(|&c| c >= k).collect()
    }

    /// Run counters (rounds, subrounds, work, burdened span, ...).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// Sequential recount oracle for the (k,h)-core decomposition.
///
/// Maintains no incremental state: every peel decision re-counts the
/// candidate's h-hop ball over the current survivor set. `O(n)`
/// recounts per removal, each a depth-`h` BFS — strictly for
/// test-sized graphs.
pub fn sequential_kh_coreness(g: &CsrGraph, h: u32) -> Vec<u32> {
    assert!(h > 0, "the (k,h)-core needs a positive hop bound h");
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    let mut coreness = vec![0u32; n];
    let mut removed = 0usize;
    let mut k = 0u32;
    while removed < n {
        'peel: loop {
            for v in 0..n as u32 {
                if alive[v as usize] && ball_size(g, v, h, &|u| alive[u as usize]) <= k {
                    alive[v as usize] = false;
                    coreness[v as usize] = k;
                    removed += 1;
                    continue 'peel;
                }
            }
            break;
        }
        k += 1;
    }
    coreness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{Sampling, Techniques};
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_graph::{gen, GraphBuilder};

    #[test]
    fn h1_is_exactly_the_k_core() {
        for (label, g) in [
            ("ba", gen::barabasi_albert(300, 3, 7)),
            ("grid", gen::grid2d(18, 15)),
            ("planted", gen::planted_core(200, 2, 40, 9)),
            ("hcns", gen::hcns(30)),
        ] {
            let want = bz_coreness(&g);
            for strategy in BucketStrategy::ALL {
                let got =
                    Decomposition::khcore(&g, 1).config(Config::with_strategy(strategy)).run();
                assert_eq!(got.kh_coreness(), want.as_slice(), "{label} under {strategy}");
            }
        }
    }

    #[test]
    fn h2_matches_the_recount_oracle_on_families() {
        for (label, g) in [
            ("path", gen::path(25)),
            ("cycle", gen::cycle(18)),
            ("grid", gen::grid2d(6, 6)),
            ("ba", gen::barabasi_albert(40, 2, 3)),
            ("planted", gen::planted_core(35, 2, 10, 5)),
        ] {
            let want = sequential_kh_coreness(&g, 2);
            for strategy in BucketStrategy::ALL {
                let got =
                    Decomposition::khcore(&g, 2).config(Config::with_strategy(strategy)).run();
                assert_eq!(got.kh_coreness(), want.as_slice(), "{label} under {strategy}");
            }
        }
    }

    #[test]
    fn kh_coreness_grows_with_h() {
        // Balls are nested in h, so priorities — and the cores — only
        // grow with the hop bound.
        let g = gen::barabasi_albert(60, 2, 11);
        let h1 = Decomposition::khcore(&g, 1).config(Config::default()).run();
        let h2 = Decomposition::khcore(&g, 2).config(Config::default()).run();
        let h3 = Decomposition::khcore(&g, 3).config(Config::default()).run();
        for v in 0..g.num_vertices() {
            assert!(h1.kh_coreness()[v] <= h2.kh_coreness()[v], "vertex {v}: h=1 vs h=2");
            assert!(h2.kh_coreness()[v] <= h3.kh_coreness()[v], "vertex {v}: h=2 vs h=3");
        }
        assert!(h2.kmax() > h1.kmax(), "2-hop balls must open deeper cores on a BA graph");
    }

    #[test]
    fn star_and_complete_sanity() {
        // K_n: everyone is within one hop of everyone — kh-coreness is
        // n-1 for every h.
        for h in [1u32, 2, 3] {
            let r = Decomposition::khcore(&gen::complete(9), h).config(Config::default()).run();
            assert!(r.kh_coreness().iter().all(|&c| c == 8), "K9 at h = {h}");
        }
        // A star at h = 2: every leaf sees the hub plus the other
        // leaves, the hub sees the leaves — the whole star is one
        // (n-1, 2)-core.
        let r = Decomposition::khcore(&gen::star(12), 2).config(Config::default()).run();
        assert_eq!(r.kh_coreness(), sequential_kh_coreness(&gen::star(12), 2).as_slice());
        assert!(r.kh_coreness().iter().all(|&c| c == 11), "the star collapses in one round");
    }

    #[test]
    fn deterministic_for_fixed_input() {
        let g = gen::rmat(7, 5, 0.57, 0.19, 0.19, 2);
        let a = Decomposition::khcore(&g, 2).config(Config::default()).run();
        let b = Decomposition::khcore(&g, 2).config(Config::default()).run();
        assert_eq!(a.kh_coreness(), b.kh_coreness());
        assert_eq!(a.stats().subrounds, b.stats().subrounds);
    }

    #[test]
    fn empty_and_isolated() {
        let r = Decomposition::khcore(&CsrGraph::empty(), 2).config(Config::default()).run();
        assert_eq!(r.num_vertices(), 0);
        let r =
            Decomposition::khcore(&GraphBuilder::new(4).build(), 2).config(Config::default()).run();
        assert_eq!(r.kh_coreness(), &[0; 4]);
    }

    #[test]
    fn two_phase_subrounds_charge_two_syncs() {
        let g = gen::planted_core(60, 2, 12, 3);
        let r = Decomposition::khcore(&g, 2).config(Config::default()).run();
        let s = r.stats();
        assert!(s.subrounds > 0);
        assert_eq!(s.global_syncs, 2 * s.subrounds, "settle + recompute phases");
    }

    #[test]
    #[should_panic(expected = "Incidence::Recompute does not support the sampling technique")]
    fn explicit_sampling_is_rejected() {
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(4)), ..Techniques::default() };
        let _ = Decomposition::khcore(&gen::path(10), 2)
            .config(Config::with_techniques(techniques))
            .run();
    }
}
