//! Helpers of the offline (Julienne-style) histogram peeling.
//!
//! The fused and two-phase steps discover `DecreaseKey`s with
//! per-target atomic decrements. The engine's offline step (Julienne's
//! `Peel`, the paper's online/offline ablation axis for
//! [`crate::Incidence::Unit`] problems) avoids them: per subround it
//! settles the frontier, **gathers** every decrement the frontier
//! causes into one list `L` with duplicates ([`gather_live`]),
//! **histograms** `L` into `(element, multiplicity)` pairs
//! ([`kcore_parallel::histogram::histogram_auto`]; the paper uses a
//! parallel semisort here), and **applies** each multiplicity as one
//! bulk decrement clamped at the round. The price is three global syncs
//! per subround instead of one (Fig. 9's online/offline gap).
//!
//! [`range_membership`] reuses the machinery for the *range* form: to
//! extract one k-core, every element of priority `< k` is pulled in a
//! single pack and the cascade needs no round ordering at all — the
//! serving path for individual core queries
//! ([`crate::Decomposition::members`]).

use super::engine::{UnitIncidence, UNSET};
use kcore_check::sync::atomic::{AtomicU32, Ordering};
use kcore_parallel::histogram::histogram_auto;
use kcore_parallel::primitives::pack_index;
use rayon::prelude::*;

/// Membership of the priority-`k` core by offline **range** peeling:
/// one bulk extraction of every element below `k`, then histogram
/// cascades until a fixpoint. No round ordering — removal order does
/// not affect the fixpoint — so the whole sub-`k` range peels as one
/// wave, which is why this is far cheaper than a full decomposition for
/// one query. Unit incidences only (the query is "degree at least `k`
/// within the surviving set").
pub(crate) fn range_membership(
    inc: &dyn UnitIncidence,
    init_priorities: &[u32],
    k: u32,
) -> Vec<bool> {
    let n = init_priorities.len();
    if n == 0 {
        return Vec::new();
    }
    let prio: Vec<AtomicU32> = init_priorities.iter().map(|&d| AtomicU32::new(d)).collect();
    // Reuse the settle array as the peeled marker (0 = peeled).
    let peeled: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    let mut frontier = pack_index(n, |v| init_priorities[v] < k);
    while !frontier.is_empty() {
        frontier.par_iter().for_each(|&v| peeled[v as usize].store(0, Ordering::Relaxed));
        let gathered = gather_live(inc, &frontier, &peeled);
        let hist = histogram_auto(gathered, n);
        frontier = hist
            .par_iter()
            .filter_map(|&(u, c)| {
                let u = u as usize;
                if peeled[u].load(Ordering::Relaxed) != UNSET {
                    return None;
                }
                let d = prio[u].load(Ordering::Relaxed);
                let nd = d.saturating_sub(c);
                prio[u].store(nd, Ordering::Relaxed);
                // Only the crossing below k enters the frontier, so each
                // element cascades at most once.
                (d >= k && nd < k).then_some(u as u32)
            })
            .collect();
    }
    peeled.iter().map(|m| m.load(Ordering::Relaxed) == UNSET).collect()
}

/// Every still-live incident element of the frontier, with duplicates —
/// the list `L` of Julienne's `Peel`. The settle phase completed before
/// this runs, so liveness reads are stable and the result is
/// deterministic.
pub(crate) fn gather_live(
    inc: &dyn UnitIncidence,
    frontier: &[u32],
    settled: &[AtomicU32],
) -> Vec<u32> {
    let per_elem: Vec<Vec<u32>> = frontier
        .par_iter()
        .map(|&v| {
            inc.incident(v)
                .iter()
                .copied()
                .filter(|&u| settled[u as usize].load(Ordering::Relaxed) == UNSET)
                .collect()
        })
        .collect();
    flatten(per_elem)
}

fn flatten(parts: Vec<Vec<u32>>) -> Vec<u32> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Techniques;
    use crate::{Config, Decomposition};
    use kcore_graph::{gen, CsrGraph};

    #[test]
    fn offline_is_deterministic() {
        let g = gen::barabasi_albert(500, 3, 9);
        let config = Config::with_techniques(Techniques::offline());
        let a = Decomposition::kcore(&g).config(config).run();
        let b = Decomposition::kcore(&g).config(config).run();
        assert_eq!(a.coreness(), b.coreness());
        assert_eq!(a.stats().subrounds, b.stats().subrounds);
    }

    #[test]
    fn membership_of_trivial_cores() {
        let g = gen::path(10);
        let members = range_membership(&g, &g.degrees(), 0);
        assert!(members.iter().all(|&m| m), "the 0-core is everything");
        let members = range_membership(&g, &g.degrees(), 2);
        assert!(members.iter().all(|&m| !m), "a path has no 2-core");
    }

    #[test]
    fn membership_cascade_crosses_the_whole_graph() {
        // A path with a triangle at the end: the 2-core is exactly the
        // triangle, and finding it requires the removal cascade to run
        // down the entire path.
        let mut edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, i + 1)).collect();
        edges.push((20, 21));
        edges.push((21, 22));
        edges.push((22, 20));
        let g = kcore_graph::GraphBuilder::new(23).edges(edges).build();
        let members = range_membership(&g, &g.degrees(), 2);
        for (v, &member) in members.iter().enumerate() {
            assert_eq!(member, v >= 20, "vertex {v}: only the triangle is in the 2-core");
        }
    }

    #[test]
    fn empty_graph_membership() {
        let g = CsrGraph::empty();
        assert!(range_membership(&g, &g.degrees(), 3).is_empty());
    }
}
