//! Affected-region computation: the confinement theorem for edge
//! batches, sharpened by traversal-style candidate elimination.
//!
//! After a batch of `b` applied edge changes, only a confined region of
//! the graph can change coreness. The classical single-edge theorem
//! (insert `{u, v}`: only vertices with coreness `min(c(u), c(v))`,
//! connected to the cheaper endpoint through same-coreness vertices, can
//! move — and by at most one) generalizes to batches:
//!
//! * **Magnitude.** Applying one edge changes any coreness by at most 1,
//!   so `b` edges change any coreness by at most `b`.
//! * **Level range.** Fix a level `k` and look at the vertices that
//!   *gained* the `k`-core: `H = K_k(G') ∖ K_k(G)`. If some connected
//!   component `C` of `H` (under updated-graph edges) contained no
//!   endpoint of a changed edge, every vertex of `C` would have had its
//!   `≥ k` supporting neighbors (all inside `C ∪ K_k(G)`) already in the
//!   old graph — making `C ∪ K_k(G)` a subgraph of min-degree `k` in the
//!   old graph, contradicting `C ∩ K_k(G) = ∅`. So every component of
//!   gained vertices touches a changed-edge endpoint `e`; since `e`
//!   itself gained the level, `k ≤ c_old(e) + b ≤ c_hi + b`, and every
//!   vertex `w` on the connecting path satisfies
//!   `c_old(w) ∈ [k − b, k − 1] ⊆ [c_lo − (b−1), c_hi + (b−1)]`, where
//!   `[c_lo, c_hi]` spans the old corenesses of the changed-edge
//!   endpoints.
//!
//! A BFS from all endpoints of all applied changes (the *seeds*),
//! expanding into vertices with old coreness in range, is sound but
//! loose: on graphs with near-uniform coreness — scale-free graphs, or
//! road graphs where nearly every vertex has coreness 2 — the in-range
//! set is the whole graph. Two elimination arguments prune the region
//! down to (a superset of) the vertices that can actually move, each
//! side running only when the batch can move coreness in its direction:
//!
//! * **Gain elimination** (runs only when the batch inserted edges —
//!   deletions never raise coreness). A vertex `w` that gains a level
//!   ends at some `k ≥ c_old(w) + 1`, so it needs at least
//!   `c_old(w) + 1` updated-graph neighbors with new coreness `≥ k`.
//!   Such a neighbor `y` either already had `c_old(y) > c_old(w)`, or is
//!   itself a gainer reaching level `≥ c_old(w) + 1` — hence has
//!   `c_old(y) ∈ [c_old(w) + 1 − b, c_old(w)]` (magnitude bound) and
//!   updated degree above `c_old(w)` (nobody reaches a level past
//!   their degree). A candidate's *qualified count* is its number of
//!   neighbors passing exactly that test; a candidate whose count drops
//!   to `≤ c_old(w)` is eliminated and withdraws its unit from the
//!   counts of the in-window neighbors it qualified for. True gainers
//!   survive: were the first true gainer ever eliminated, its
//!   `≥ c_old(w) + 1` supporters would all still be counted at that
//!   moment, a contradiction. (Counting a neighbor that has not been
//!   examined as qualified is a sound overcount — it can only keep
//!   extra vertices alive.)
//! * **Loss cascade** (needs no BFS at all). A vertex `w` keeps
//!   coreness `c_old(w)` if it retains `c_old(w)` updated-graph
//!   neighbors that themselves keep coreness `≥ c_old(w)`. A neighbor
//!   `y` with `c_old(y) ≥ c_old(w) + b` supports `w` *unconditionally*
//!   — the magnitude bound caps its drop at `b` — so only losses inside
//!   the window `c_old(y) − c_old(w) < b` can hurt `w` (for `b = 1`
//!   this is the classical same-level rule). Support counts are
//!   computed lazily, starting from the changed endpoints: deleted
//!   edges are already off the adjacency, so seeds start deficient
//!   exactly when a deletion cost them support. A vertex whose support
//!   falls below `c_old(w)` joins the loss set `L` and withdraws its
//!   unit from every in-window neighbor it was supporting, touching
//!   that neighbor (and paying its `O(deg)` count) only then.
//!   Untouched vertices provably keep their old support — every
//!   deleted edge ends in a seed, and every `L`-join touches all
//!   in-window neighbors it supported. Soundness of the fixpoint: for
//!   every `k`, take `U = {w ∉ L : c_old(w) ≥ k} ∪ K_k(G')`. Each
//!   non-`L` member's counted supporters are either non-`L` with
//!   `c_old ≥ c_old(w) ≥ k` (in `U`) or out-of-window vertices whose
//!   new coreness is at least `c_old(w) ≥ k` by the magnitude bound
//!   (in `K_k(G')`), so `G'[U]` has min degree `≥ k` and no non-`L`
//!   vertex lost level `k`.
//!
//! # The lazy gain search
//!
//! The gain side does not sweep the range. It counts a vertex only when
//! a *survivor* (counted, eligible, not eliminated) reaches it: starting
//! from the seeds, a survivor is *expanded* by reaching each uncounted
//! in-range neighbor, and one pass over a reached vertex's adjacency
//! checks its degree, computes its qualified count and notes its
//! in-range neighbors. The count includes uncounted neighbors (they have
//! withdrawn nothing) but leaves out eliminated ones: their withdrawal
//! ran before this count existed, so counting them would keep a
//! non-gainer alive for good. A count that is too low runs the
//! elimination cascade at once, before the next reach. Counts therefore
//! only ever overcount a gainer's support, and no true gainer is
//! eliminated.
//!
//! Expansion only follows survivors still connected, through
//! survivors, to a surviving seed. That is sound by the component
//! argument above: every gainer is joined to a changed endpoint through
//! gainers, and every gainer survives, so a search through survivors
//! from the seeds reaches them all. The connectivity check is
//! incremental: each reached vertex records the survivor that reached
//! it, and a queued vertex whose nearest such links include an
//! eliminated one is not expanded. When the queue drains — a *phase*
//! ends — one scan from the surviving seeds through survivors finds the
//! connected survivors exactly and re-queues those not yet expanded (a
//! vertex whose link died may still be connected another way). The
//! search stops at the first phase end with none: no seed-connected
//! survivor borders an uncounted in-range vertex. Each phase but the
//! last expands at least one vertex, since nothing is eliminated until
//! something is reached.
//!
//! The gain part of the region is that connected survivor set. Each of
//! its members has every in-range neighbor counted, so the set passes
//! the elimination test of an eager sweep that counts every in-range
//! vertex the range BFS reaches: it lies inside the eager sweep's
//! survivors, so the lazy region is never larger than the eager one.
//!
//! On power-law and planted-core graphs the search does not prune: it
//! goes on to count 70-100% of what the eager sweep counts, and paying
//! to expand and scan on top would make it dearer than the sweep. Once
//! it has counted an eighth of the universe, it finishes as the sweep:
//! every in-range neighbor a count noted is reached in turn, survivor
//! or not, each in the same single pass. The survivors then have all
//! their in-range neighbors counted, so they still lie inside the eager
//! sweep's survivors, and they are returned without a scan.
//!
//! Both prunes are conservative in the right direction (extra members
//! cost re-peel work, never correctness: the re-peel recomputes exact
//! values for whatever region it is given, provided the region covers
//! every vertex that moves). The loss side costs `O(Σ deg)` over the
//! vertices it actually touches — for a small deletion batch that
//! changes nothing, a handful of adjacency scans. The gain side costs
//! `O(Σ deg)` over the vertices it counts or expands, plus one scan of
//! the connected survivors per phase. The final region is the loss set
//! plus the gain side's survivors — typically empty or a handful of
//! vertices for a small batch, even where the range covers the graph.
//!
//! All per-vertex state lives in a [`Scratch`] the caller keeps across
//! batches, so no batch allocates or clears anything of the universe's
//! size.

use kcore_graph::{OverlayGraph, VertexId};

// Per-vertex flag bits of a [`Scratch`]. The loss cascade sets the first
// three, the gain search the rest.
/// Loss side: support counted.
const COMPUTED: u8 = 1;
/// Loss side: in the loss set.
const LOST: u8 = 1 << 1;
/// Loss side: withdrew its support from its neighbors.
const POPPED: u8 = 1 << 2;
/// Gain side: reached, so degree-checked and (if eligible) counted.
const REACHED: u8 = 1 << 3;
/// Gain side: eliminated or ineligible; never a survivor again. Counts
/// only change inside a cascade, and a cascade withdraws every vertex
/// it eliminates before it returns, so outside one this also means the
/// vertex's units are withdrawn.
const DEAD: u8 = 1 << 4;
/// Gain side: every in-range neighbor has been reached.
const EXPANDED: u8 = 1 << 5;
/// Gain side: an in-range neighbor of a counted vertex, queued for the
/// eager sweep should the search turn into it.
const DISCOVERED: u8 = 1 << 6;
/// Gain side: found by the running phase-end scan.
const SCANNED: u8 = 1 << 7;

/// Per-vertex scratch of [`affected_region`], kept by the caller across
/// batches so a batch pays for the vertices it touches, never for the
/// universe: 9 bytes per vertex, cleared through the list of vertices
/// the previous batch flagged.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    flags: Vec<u8>,
    /// Loss-side support or gain-side qualified count. Written when a
    /// vertex is first counted, before any read, so never cleared.
    count: Vec<u32>,
    /// Gain side: the survivor that reached the vertex, or that the
    /// last phase-end scan found it from. A seed is its own parent.
    parent: Vec<VertexId>,
    /// Vertices whose flags are non-zero.
    dirty: Vec<VertexId>,
}

impl Scratch {
    /// Clears the previous batch's flags and grows to `n` vertices.
    fn prepare(&mut self, n: usize) {
        for v in self.dirty.drain(..) {
            self.flags[v as usize] = 0;
        }
        if self.flags.len() < n {
            self.flags.resize(n, 0);
            self.count.resize(n, 0);
            self.parent.resize(n, 0);
        }
    }

    #[inline]
    fn has(&self, v: VertexId, bits: u8) -> bool {
        self.flags[v as usize] & bits != 0
    }

    #[inline]
    fn mark(&mut self, v: VertexId, bits: u8) {
        let flags = &mut self.flags[v as usize];
        if *flags == 0 {
            self.dirty.push(v);
        }
        *flags |= bits;
    }
}

/// The confined region a batch of edge changes can affect.
pub(crate) struct Region {
    /// Affected vertices, sorted ascending by original id. Every vertex
    /// whose coreness differs between the old and updated graph is in
    /// here (the converse need not hold).
    pub(crate) vertices: Vec<VertexId>,
    /// Number of seeds (distinct endpoints of applied changes).
    pub(crate) seeds: usize,
    /// Vertices examined before elimination: those whose qualified
    /// neighbors the gain search counted, or those whose support the
    /// loss cascade counted — whichever pool was larger.
    pub(crate) candidates: usize,
    /// Inclusive old-coreness range the gain search expands through.
    pub(crate) lo: u32,
    /// See [`Region::lo`].
    pub(crate) hi: u32,
}

/// Old coreness of `v`, treating vertices beyond the recorded universe
/// (grown by this batch) as coreness 0 — correct, since they had no
/// edges before the batch.
#[inline]
pub(crate) fn old_coreness(coreness: &[u32], v: VertexId) -> u32 {
    coreness.get(v as usize).copied().unwrap_or(0)
}

/// Computes the affected region on the *updated* logical graph `g`.
///
/// `coreness` is the pre-batch coreness array (possibly shorter than
/// `g.num_vertices()` when the batch grew the universe); `changed` lists
/// the applied edge changes — inserts and deletes alike, as endpoint
/// pairs. `has_inserts` tells the gain side whether it can skip (a
/// delete-only batch never raises any coreness). `scratch` holds the
/// per-vertex state between calls.
pub(crate) fn affected_region(
    g: &OverlayGraph,
    coreness: &[u32],
    changed: &[(VertexId, VertexId)],
    has_inserts: bool,
    scratch: &mut Scratch,
) -> Region {
    debug_assert!(!changed.is_empty(), "no applied changes — nothing to confine");
    let b = changed.len() as u32;
    let slack = b - 1;
    let (mut c_lo, mut c_hi) = (u32::MAX, 0u32);
    for &(u, v) in changed {
        let (cu, cv) = (old_coreness(coreness, u), old_coreness(coreness, v));
        c_lo = c_lo.min(cu.min(cv));
        c_hi = c_hi.max(cu.max(cv));
    }
    let lo = c_lo.saturating_sub(slack);
    let hi = c_hi.saturating_add(slack);

    let mut seeds: Vec<VertexId> = changed.iter().flat_map(|&(u, v)| [u, v]).collect();
    seeds.sort_unstable();
    seeds.dedup();

    scratch.prepare(g.num_vertices());
    let (mut vertices, touched) = loss_cascade(g, coreness, b, &seeds, scratch);
    let mut reached = 0;
    if has_inserts {
        let mut search = GainSearch {
            g,
            coreness,
            b,
            lo,
            hi,
            s: scratch,
            worklist: Vec::new(),
            discovered: Vec::new(),
            reached: 0,
        };
        vertices.extend(search.run(&seeds));
        reached = search.reached;
    }

    vertices.sort_unstable();
    vertices.dedup();
    Region { vertices, seeds: seeds.len(), candidates: reached.max(touched), lo, hi }
}

/// The loss cascade: lazy support counts from the seeds outward.
/// Returns the loss set and the number of vertices whose support it
/// counted.
fn loss_cascade(
    g: &OverlayGraph,
    coreness: &[u32],
    b: u32,
    seeds: &[VertexId],
    s: &mut Scratch,
) -> (Vec<VertexId>, usize) {
    // A popped member has already withdrawn its unit everywhere, so
    // fresh counts exclude it; pending (pushed, unpopped) members still
    // count and withdraw on their own pop — each unit exactly once.
    // A popped neighbor withdraws support only from inside the window:
    // above it, the magnitude bound keeps it a supporter regardless.
    let fresh_support = |v: VertexId, flags: &[u8]| {
        let cv = old_coreness(coreness, v);
        g.neighbors(v)
            .iter()
            .filter(|&&y| {
                let cy = old_coreness(coreness, y);
                cy >= cv && !(flags[y as usize] & POPPED != 0 && cy - cv < b)
            })
            .count() as u32
    };
    let mut touched = 0usize;
    let mut losses: Vec<VertexId> = Vec::new();
    let mut worklist: Vec<VertexId> = Vec::new();
    for &v in seeds {
        s.mark(v, COMPUTED);
        touched += 1;
        s.count[v as usize] = fresh_support(v, &s.flags);
        if s.count[v as usize] < old_coreness(coreness, v) {
            s.mark(v, LOST);
            losses.push(v);
            worklist.push(v);
        }
    }
    while let Some(v) = worklist.pop() {
        s.mark(v, POPPED);
        let cv = old_coreness(coreness, v);
        for &w in g.neighbors(v) {
            let cw = old_coreness(coreness, w);
            if s.has(w, LOST) || cw > cv || cv - cw >= b {
                continue; // already lost, not supported by v, or out of
                          // the window (v's drop can't take it below cw)
            }
            if !s.has(w, COMPUTED) {
                s.mark(w, COMPUTED);
                touched += 1;
                s.count[w as usize] = fresh_support(w, &s.flags);
            } else {
                s.count[w as usize] -= 1;
            }
            if s.count[w as usize] < cw {
                s.mark(w, LOST);
                losses.push(w);
                worklist.push(w);
            }
        }
    }
    (losses, touched)
}

/// Links toward the seeds a queued vertex checks before it expands.
/// Eliminations cluster near the search frontier, so a short walk
/// catches nearly every broken link (on road graphs 8 steps count within
/// 10% of an unbounded walk) while each check stays `O(1)` on long
/// chains of survivors.
const LINK_CHECK: usize = 8;

/// Share of the universe past which the lazy search finishes as the
/// eager sweep. A search that has counted more than `1 / SWEEP_SHARE`
/// of all vertices is not pruning: on power-law and planted-core graphs
/// it goes on to count 70-100% of what the sweep counts, and there the
/// sweep's one pass per vertex beats expanding survivors and scanning
/// for the connected ones on top. A pruning search counts tens of
/// vertices per seed, far below the share on all but tiny graphs.
const SWEEP_SHARE: usize = 8;

/// The lazy gain search of one batch (see the module docs).
struct GainSearch<'a> {
    g: &'a OverlayGraph,
    coreness: &'a [u32],
    b: u32,
    lo: u32,
    hi: u32,
    s: &'a mut Scratch,
    /// Eliminated vertices whose withdrawal is pending.
    worklist: Vec<VertexId>,
    /// Vertices marked [`DISCOVERED`], in order.
    discovered: Vec<VertexId>,
    /// Vertices reached so far.
    reached: usize,
}

impl GainSearch<'_> {
    /// Whether `y` (old coreness `cy`) counts toward `w`'s qualified
    /// count only as a possible gainer: a same-or-lower neighbor inside
    /// the window whose updated degree allows level `cw + 1`. Exactly
    /// these units are withdrawn when `y` is eliminated.
    #[inline]
    fn gainer_unit(&self, cw: u32, y: VertexId, cy: u32) -> bool {
        cy <= cw && cw - cy < self.b && self.g.degree(y) as u32 > cw
    }

    /// Reaches `v` from the survivor `parent` (itself, for a seed):
    /// counts its qualified neighbors in one pass that also discovers
    /// its in-range neighbors, and, if they are too few, runs the
    /// elimination cascade before returning.
    fn reach(&mut self, v: VertexId, parent: VertexId) {
        self.s.mark(v, REACHED);
        self.s.parent[v as usize] = parent;
        self.reached += 1;
        let cv = old_coreness(self.coreness, v);
        if self.g.degree(v) as u32 <= cv {
            // Too few neighbors to gain. It is no gainer unit for anyone
            // either (its degree is at most `cv`), so it has nothing to
            // withdraw, and it never needs its neighbors reached.
            self.s.mark(v, DEAD);
            return;
        }
        // An uncounted neighbor counts (it has withdrawn nothing yet);
        // an eliminated one does not: its withdrawal already ran, so its
        // unit would never be taken back.
        let mut q = 0u32;
        for &y in self.g.neighbors(v) {
            let cy = old_coreness(self.coreness, y);
            if cy > cv || (self.gainer_unit(cv, y, cy) && !self.s.has(y, DEAD)) {
                q += 1;
            }
            if !self.s.has(y, REACHED | DISCOVERED) && (self.lo..=self.hi).contains(&cy) {
                self.s.mark(y, DISCOVERED);
                self.discovered.push(y);
            }
        }
        self.s.count[v as usize] = q;
        if q <= cv {
            self.s.mark(v, DEAD);
            self.worklist.push(v);
            self.cascade();
        }
    }

    /// Withdraws every pending eliminated vertex's units, eliminating
    /// whoever drops to too few.
    fn cascade(&mut self) {
        let g = self.g;
        while let Some(v) = self.worklist.pop() {
            let cv = old_coreness(self.coreness, v);
            let dv = g.degree(v) as u32;
            for &w in g.neighbors(v) {
                if self.s.flags[w as usize] & (REACHED | DEAD) != REACHED {
                    continue; // uncounted, or eliminated already
                }
                // v was a gainer unit of w (see `gainer_unit`).
                let cw = old_coreness(self.coreness, w);
                if cv > cw || cw - cv >= self.b || dv <= cw {
                    continue;
                }
                self.s.count[w as usize] -= 1;
                if self.s.count[w as usize] <= cw {
                    self.s.mark(w, DEAD);
                    self.worklist.push(w);
                }
            }
        }
    }

    /// Whether `v` and its nearest [`LINK_CHECK`] links toward the seeds
    /// all survive. Past that depth a broken link goes unnoticed, which
    /// only lets a disconnected survivor expand: it costs work, never
    /// soundness, since the phase-end scan decides membership.
    fn linked(&self, mut v: VertexId) -> bool {
        for _ in 0..LINK_CHECK {
            if self.s.has(v, DEAD) {
                return false;
            }
            let p = self.s.parent[v as usize];
            if p == v {
                return true;
            }
            v = p;
        }
        true
    }

    /// Runs the search in phases; returns the survivors connected
    /// through survivors to a surviving seed, or, if it turns into the
    /// eager sweep, every survivor.
    fn run(&mut self, seeds: &[VertexId]) -> Vec<VertexId> {
        let g = self.g;
        let sweep_past = g.num_vertices() / SWEEP_SHARE;
        // Every vertex reached so far, in order; `head` is the next to
        // expand. The phase-end scan appends the vertices it re-aims.
        let mut queue = Vec::with_capacity(seeds.len());
        for &s in seeds {
            self.reach(s, s);
            queue.push(s);
        }
        let mut head = 0;
        loop {
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                // A vertex whose parent was eliminated may have lost its
                // link to the seeds; the phase-end scan re-aims it if not.
                if self.s.has(v, EXPANDED) || !self.linked(v) {
                    continue;
                }
                for &y in g.neighbors(v) {
                    let cy = old_coreness(self.coreness, y);
                    if self.s.has(y, REACHED) || cy < self.lo || cy > self.hi {
                        continue;
                    }
                    self.reach(y, v);
                    queue.push(y);
                    if self.reached > sweep_past {
                        return self.sweep(queue);
                    }
                    if self.s.has(v, DEAD) {
                        break; // the rest of v's neighbors wait for a survivor
                    }
                }
                if !self.s.has(v, DEAD) {
                    self.s.mark(v, EXPANDED);
                }
            }
            let members = self.scan(seeds, &mut queue);
            if head == queue.len() {
                return members;
            }
        }
    }

    /// Finishes the search as the eager sweep: every discovered vertex
    /// is reached, survivor or not, so every in-range vertex that a
    /// counted vertex borders gets counted. `reached` lists every vertex
    /// the lazy search reached. Each counted survivor then has all its
    /// in-range neighbors counted, so the survivors pass the eager
    /// sweep's test as they are, and no scan is needed.
    fn sweep(&mut self, reached: Vec<VertexId>) -> Vec<VertexId> {
        let mut head = 0;
        while head < self.discovered.len() {
            let v = self.discovered[head];
            head += 1;
            if !self.s.has(v, REACHED) {
                self.reach(v, v);
            }
        }
        let mut survivors = reached;
        survivors.append(&mut self.discovered);
        survivors.retain(|&v| self.s.flags[v as usize] & (REACHED | DEAD) == REACHED);
        survivors
    }

    /// Finds the survivors connected through survivors to a surviving
    /// seed, and queues those not yet expanded, each with the member it
    /// was found from as its parent.
    fn scan(&mut self, seeds: &[VertexId], queue: &mut Vec<VertexId>) -> Vec<VertexId> {
        let g = self.g;
        let mut members: Vec<VertexId> = Vec::new();
        for &s in seeds {
            if !self.s.has(s, DEAD) {
                self.s.mark(s, SCANNED);
                members.push(s);
            }
        }
        let mut head = 0;
        while head < members.len() {
            let v = members[head];
            head += 1;
            if !self.s.has(v, EXPANDED) {
                queue.push(v); // its parent died before it expanded
            }
            for &w in g.neighbors(v) {
                if self.s.flags[w as usize] & (REACHED | DEAD | SCANNED) == REACHED {
                    self.s.mark(w, SCANNED);
                    self.s.parent[w as usize] = v;
                    members.push(w);
                }
            }
        }
        for &v in &members {
            self.s.flags[v as usize] &= !SCANNED;
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use kcore_graph::{gen, CsrGraph, GraphBuilder};
    use proptest::prelude::*;

    fn fresh_region(
        g: &OverlayGraph,
        coreness: &[u32],
        changed: &[(VertexId, VertexId)],
        has_inserts: bool,
    ) -> Region {
        affected_region(g, coreness, changed, has_inserts, &mut Scratch::default())
    }

    /// A triangle (coreness 2) with a pendant path `2-3-…-9`
    /// (coreness 1 — pendant, so the path never closes into a 2-core).
    fn lollipop() -> OverlayGraph {
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            b.push_edge(u, v);
        }
        for v in 2..9 {
            b.push_edge(v, v + 1);
        }
        OverlayGraph::new(b.build())
    }

    #[test]
    fn single_insert_confines_to_one_coreness_level() {
        let mut g = lollipop();
        let coreness = crate::bz::bz_coreness(g.base());
        assert!(g.insert_edge(4, 6));
        let region = fresh_region(&g, &coreness, &[(4, 6)], true);
        assert_eq!((region.lo, region.hi), (1, 1), "b = 1 leaves no slack");
        assert_eq!(region.seeds, 2);
        // The level-1 path is reachable, the level-2 triangle is not.
        assert!(region.candidates < g.num_vertices());
        // The chord closes cycle 4-5-6; vertex 3 also survives the gain
        // fixpoint (its triangle neighbor plus an in-set neighbor keep
        // it qualified) — a sound superset of the true gainers {4,5,6}.
        assert_eq!(region.vertices, vec![3, 4, 5, 6]);
    }

    #[test]
    fn batches_widen_the_range() {
        let mut g = lollipop();
        let coreness = crate::bz::bz_coreness(g.base());
        assert!(g.insert_edge(4, 6));
        assert!(g.insert_edge(5, 7));
        let region = fresh_region(&g, &coreness, &[(4, 6), (5, 7)], true);
        assert_eq!((region.lo, region.hi), (0, 2), "b = 2 adds one level of slack each way");
        assert_eq!(region.seeds, 4);
        // The two chords interleave over path 4..=7; all of it can move.
        assert!([4u32, 5, 6, 7].iter().all(|v| region.vertices.contains(v)));
    }

    #[test]
    fn deleted_edge_cascades_nowhere_on_a_path() {
        let mut g = lollipop();
        let coreness = crate::bz::bz_coreness(g.base());
        // Deleting a path edge disconnects the two halves, but each
        // endpoint keeps a level-1 neighbor: nobody loses coreness, and
        // the loss cascade certifies it after touching only the seeds.
        assert!(g.delete_edge(5, 6));
        let region = fresh_region(&g, &coreness, &[(5, 6)], false);
        assert_eq!(region.seeds, 2);
        assert_eq!(region.candidates, 2, "only the endpoints were examined");
        assert!(region.vertices.is_empty(), "path vertices all keep coreness 1");
    }

    #[test]
    fn deletion_that_breaks_a_core_keeps_the_losers() {
        let mut g = lollipop();
        let coreness = crate::bz::bz_coreness(g.base());
        // Deleting a triangle edge drops the whole triangle to the
        // pendant path's level.
        assert!(g.delete_edge(0, 1));
        let region = fresh_region(&g, &coreness, &[(0, 1)], false);
        assert_eq!(region.vertices, vec![0, 1, 2]);
    }

    #[test]
    fn grown_vertices_count_as_coreness_zero() {
        let mut g = lollipop();
        let coreness = crate::bz::bz_coreness(g.base());
        assert!(g.insert_edge(9, 20));
        let region = fresh_region(&g, &coreness, &[(9, 20)], true);
        assert_eq!((region.lo, region.hi), (0, 1), "grown endpoint counts as coreness 0");
        assert_eq!(region.vertices, vec![20], "only the grown vertex gains (coreness 1)");
    }

    /// The eager gain sweep the lazy search replaced, kept as the
    /// reference the lazy region must stay inside: one range BFS that
    /// counts every candidate it visits, then the elimination cascade
    /// over all of them. The loss side is shared.
    fn eager_region(
        g: &OverlayGraph,
        coreness: &[u32],
        changed: &[(VertexId, VertexId)],
        has_inserts: bool,
    ) -> Vec<VertexId> {
        let loss = fresh_region(g, coreness, changed, false);
        let mut vertices = loss.vertices;
        if !has_inserts {
            return vertices;
        }
        let (lo, hi, b) = (loss.lo, loss.hi, changed.len() as u32);
        let n = g.num_vertices();
        let in_window = |cw: u32, cy: u32| cy <= cw && cw - cy < b;
        let mut visited = vec![false; n];
        let mut in_g = vec![false; n];
        let mut qualified = vec![0u32; n];
        let mut queue: Vec<VertexId> = changed.iter().flat_map(|&(u, v)| [u, v]).collect();
        queue.sort_unstable();
        queue.dedup();
        for &s in &queue {
            visited[s as usize] = true;
        }
        let mut worklist: Vec<VertexId> = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let cv = old_coreness(coreness, v);
            let eligible = g.degree(v) as u32 > cv;
            let mut q = 0u32;
            for &y in g.neighbors(v) {
                let cy = old_coreness(coreness, y);
                if !visited[y as usize] && (lo..=hi).contains(&cy) {
                    visited[y as usize] = true;
                    queue.push(y);
                }
                if eligible && (cy > cv || (in_window(cv, cy) && g.degree(y) as u32 > cv)) {
                    q += 1;
                }
            }
            if eligible {
                in_g[v as usize] = true;
                qualified[v as usize] = q;
                if q <= cv {
                    worklist.push(v);
                }
            }
        }
        while let Some(v) = worklist.pop() {
            if !std::mem::replace(&mut in_g[v as usize], false) {
                continue;
            }
            let cv = old_coreness(coreness, v);
            let dv = g.degree(v) as u32;
            for &w in g.neighbors(v) {
                let cw = old_coreness(coreness, w);
                if in_g[w as usize] && in_window(cw, cv) && dv > cw {
                    qualified[w as usize] -= 1;
                    if qualified[w as usize] <= cw {
                        worklist.push(w);
                    }
                }
            }
        }
        vertices.extend(queue.into_iter().filter(|&v| in_g[v as usize]));
        vertices.sort_unstable();
        vertices.dedup();
        vertices
    }

    /// Applies `deletes`, then `inserts`, to `g`; computes the region
    /// with the reused `scratch`; and checks that it lies inside the
    /// eager sweep's region and holds every vertex whose coreness moved.
    /// Returns the region and the vertices that moved, or `None` if no
    /// change applied.
    fn apply_and_check(
        g: &mut OverlayGraph,
        scratch: &mut Scratch,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
    ) -> Option<(Region, Vec<VertexId>)> {
        let old = bz_coreness(&g.to_csr());
        let mut changed: Vec<_> =
            deletes.iter().copied().filter(|&(u, v)| g.delete_edge(u, v)).collect();
        let deleted = changed.len();
        changed.extend(inserts.iter().copied().filter(|&(u, v)| g.insert_edge(u, v)));
        if changed.is_empty() {
            return None;
        }
        let has_inserts = changed.len() > deleted;
        let region = affected_region(g, &old, &changed, has_inserts, scratch);
        let eager = eager_region(g, &old, &changed, has_inserts);
        for v in &region.vertices {
            assert!(eager.binary_search(v).is_ok(), "{v} is in the lazy region only");
        }
        let new = bz_coreness(&g.to_csr());
        let moved: Vec<VertexId> =
            (0..new.len() as u32).filter(|&v| old_coreness(&old, v) != new[v as usize]).collect();
        for v in &moved {
            assert!(region.vertices.binary_search(v).is_ok(), "{v} moved outside the region");
        }
        Some((region, moved))
    }

    /// Edges whose deletion drops an endpoint out of its core: the
    /// endpoint of smaller coreness `c` has exactly `c` neighbors of
    /// coreness `≥ c`.
    fn tight_edges(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
        let core = bz_coreness(g);
        let support = |u: VertexId| {
            let c = core[u as usize];
            g.neighbors(u).iter().filter(|&&w| core[w as usize] >= c).count() as u32
        };
        let tight = |u: VertexId, v: VertexId| {
            let (cu, cv) = (core[u as usize], core[v as usize]);
            (cu <= cv && support(u) == cu) || (cv <= cu && support(v) == cv)
        };
        g.edges().filter(|&(u, v)| tight(u, v)).collect()
    }

    #[test]
    fn restoring_tight_road_edges_counts_a_sliver_of_the_graph() {
        // Nearly every vertex of a road graph has coreness 2, so the
        // range covers the graph and an eager sweep counts all of it;
        // the restore must count only what the surviving seeds reach.
        for seed in 1..=5 {
            let base = gen::road(60, 60, 0.15, 0.05, seed);
            let n = base.num_vertices();
            let tight = tight_edges(&base);
            let batch: Vec<_> = tight.iter().step_by(tight.len() / 4).take(4).copied().collect();
            let mut g = OverlayGraph::new(base);
            let mut scratch = Scratch::default();
            let (_, lowered) = apply_and_check(&mut g, &mut scratch, &[], &batch).unwrap();
            assert!(!lowered.is_empty(), "deleting tight edges lowers some coreness");
            let (region, raised) = apply_and_check(&mut g, &mut scratch, &batch, &[]).unwrap();
            assert_eq!(raised, lowered, "the restore raises exactly what the delete lowered");
            assert!(region.lo <= 1 && region.hi >= 3, "the range spans the graph's levels");
            assert!(
                region.candidates <= n / 10,
                "seed {seed}: the restore counted {} of {n} vertices",
                region.candidates
            );
        }
    }

    /// `edges` on `n` vertices, inside a universe of `8 * n`: the
    /// isolated padding keeps the search below its sweep share, so the
    /// lazy path runs to the end.
    fn padded(n: usize, edges: &[(VertexId, VertexId)]) -> OverlayGraph {
        OverlayGraph::new(GraphBuilder::new(8 * n).edges(edges.iter().copied()).build())
    }

    #[test]
    fn eliminated_neighbors_stay_out_of_later_counts() {
        // Old coreness [2, 2, 1, 1, 2]; the inserts raise 2 and 3 to 2.
        let mut g = padded(5, &[(0, 1), (0, 2), (0, 4), (1, 3), (1, 4)]);
        let old = bz_coreness(&g.to_csr());
        assert!(g.insert_edge(4, 3) && g.insert_edge(3, 2));
        let region = fresh_region(&g, &old, &[(4, 3), (3, 2)], true);
        // Expanding seed 2 counts 0, which is eliminated and takes seed 4
        // with it before seed 3 reaches 1. Counting those two would give
        // 1 three qualified neighbors and keep it, though it stays at 2.
        assert_eq!(region.vertices, vec![2, 3]);
    }

    #[test]
    fn a_gainer_behind_a_dead_link_is_reached_in_the_next_phase() {
        // Old coreness [2, 3, 3, 3, 3, 2, 3, 2, 3]; inserting 1-5 and 5-4
        // raises 0, 5 and 7 to 3.
        let edges = [
            (0, 4),
            (0, 5),
            (0, 7),
            (1, 3),
            (1, 4),
            (1, 6),
            (2, 3),
            (2, 4),
            (2, 6),
            (2, 7),
            (3, 4),
            (3, 8),
            (4, 8),
            (5, 6),
            (6, 8),
            (7, 8),
        ];
        let mut g = padded(9, &edges);
        let mut scratch = Scratch::default();
        let (region, raised) =
            apply_and_check(&mut g, &mut scratch, &[(1, 5), (5, 4)], &[]).unwrap();
        assert_eq!(raised, vec![0, 5, 7]);
        // Seed 4 reaches 0 and 2; counting 2 eliminates 3, 6, 1 and 4, so
        // 0's link is dead when it comes up and the first phase ends
        // without expanding it. The scan finds 0 connected through seed
        // 5 and re-queues it; only its expansion reaches 7.
        assert_eq!(region.vertices, vec![0, 5, 7]);
    }

    /// A mid-size graph: a road grid of 20-40 vertices per side or an
    /// rmat graph of scale 8-10, alone in its universe (so the search
    /// soon finishes as the sweep) or padded to 8 times its size (so the
    /// lazy search runs to the end, in more than one phase at times).
    fn arb_mid_size() -> impl Strategy<Value = OverlayGraph> {
        ((any::<bool>(), any::<bool>()), 20usize..41, 8u32..11, any::<u64>()).prop_map(
            |((road, pad), side, scale, seed)| {
                let g = if road {
                    gen::road(side, side, 0.15, 0.05, seed)
                } else {
                    gen::rmat(scale, 8, 0.57, 0.19, 0.19, seed)
                };
                let edges: Vec<_> = g.edges().collect();
                if pad {
                    padded(g.num_vertices(), &edges)
                } else {
                    OverlayGraph::new(g)
                }
            },
        )
    }

    proptest! {
        #[test]
        fn mid_size_lazy_region_lies_between_the_movers_and_the_eager_sweep(
            base in arb_mid_size(),
            size in 16usize..65,
            start in any::<u64>(),
            picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        ) {
            // Delete a spread-out batch and restore it, then one mixed
            // batch of random inserts and deletes; one scratch serves
            // every batch.
            let edges: Vec<_> = base.edges().collect();
            // Mixed inserts land among the graph's own vertices, not the padding.
            let n = edges.iter().map(|&(u, v)| u.max(v)).max().map_or(1, |m| m as u64 + 1);
            let stride = (edges.len() / size).max(1);
            let batch: Vec<_> = (0..size)
                .map(|i| edges[(start as usize + i * stride) % edges.len()])
                .collect();
            let mut g = base;
            let mut scratch = Scratch::default();
            apply_and_check(&mut g, &mut scratch, &[], &batch);
            apply_and_check(&mut g, &mut scratch, &batch, &[]);
            let inserts: Vec<_> =
                picks.iter().map(|&(a, b)| ((a % n) as u32, (b % n) as u32)).collect();
            let deletes: Vec<_> =
                picks.iter().map(|&(a, _)| edges[(a % edges.len() as u64) as usize]).collect();
            apply_and_check(&mut g, &mut scratch, &inserts, &deletes[..deletes.len() / 2]);
        }
    }
}
