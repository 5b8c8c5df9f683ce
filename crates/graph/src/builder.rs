//! Edge-list to CSR construction.
//!
//! Two construction paths share one finishing pipeline:
//!
//! * [`GraphBuilder`] — the convenience builder: accepts arbitrary
//!   (possibly directed, duplicated, self-looping) edge lists held in
//!   one `Vec`, symmetrizes, and finishes through the counting sort.
//! * [`StreamBuilder`] — the large-input path: ingests edges in bounded
//!   shards (~[`SHARD_ARCS`] arcs each) so ingestion never holds one
//!   giant arc vector, then counting-sorts the shards in parallel
//!   straight into CSR. `io::read_edge_list` streams through it.
//!
//! The finishing pipeline ([`from_symmetric_arcs`]) is a two-level
//! parallel counting sort by source. A one-level scatter (one cursor
//! per vertex) touches a random cache line per arc, which loses to a
//! cache-oblivious comparison sort on big vertex sets; so the arcs are
//! first partitioned, block by block, by *source bucket* (ranges of
//! 2^8..2^13 consecutive vertices, sized to the pool — writes stream
//! into a few dozen cursors), then each bucket is counting-sorted with
//! bucket-local count/offset arrays that fit in L1/L2, per-vertex
//! sorted, and deduplicated. It replaces the previous global
//! `par_sort_unstable` over all arcs (kept in the bench crate as the
//! A/B baseline of `bench_build`):
//! O(m) moves instead of O(m log m) comparisons, with every phase
//! either streaming or bucket-local.

use crate::csr::{CsrGraph, VertexId};
use kcore_obs::{counter, span};
use kcore_parallel::primitives::{exclusive_scan, SendPtr};
use rayon::prelude::*;

/// Arcs per [`StreamBuilder`] shard (~16 MiB of `(u32, u32)` pairs).
/// Bounds peak ingestion memory per in-flight chunk while keeping
/// shards large enough that per-shard parallel loops stay efficient.
pub const SHARD_ARCS: usize = 1 << 21;

/// Widest counting-sort source bucket (`2^13` vertices). Sized so a
/// bucket's count + cursor arrays (`12 B` per vertex) stay L1/L2-resident
/// while the bucket's arc run is typically L2-resident.
const MAX_BUCKET_VERTS: usize = 1 << 13;

/// Narrowest source bucket (`2^8` vertices): below this the per-bucket
/// scheduling and histogram columns cost more than balance gains.
const MIN_BUCKET_VERTS: usize = 1 << 8;

/// Source buckets wanted per pool worker (see [`bucket_shift`]).
const BUCKETS_PER_WORKER: usize = 8;

/// Partition blocks per pool worker (see [`block_arcs`]).
const BLOCKS_PER_WORKER: usize = 4;

/// Smallest partition block, in arcs.
const MIN_BLOCK_ARCS: usize = 1 << 16;

/// Builder turning edge lists into a [`CsrGraph`].
///
/// ```
/// use kcore_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 0), (1, 2), (2, 2), (2, 3)]) // dup, loop
///     .build();
/// assert_eq!(g.num_edges(), 3); // {0,1}, {1,2}, {2,3}
/// ```
pub struct GraphBuilder {
    n: usize,
    arcs: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count {n} exceeds the u32 id space");
        Self { n, arcs: Vec::new() }
    }

    /// Adds a single undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Adds a batch of undirected edges.
    pub fn edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.push_edge(u, v);
        }
        self
    }

    /// In-place variant of [`GraphBuilder::edge`] for loop-heavy callers.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.arcs.push((u, v));
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Finalizes the graph: symmetrize, drop self-loops, deduplicate,
    /// and pack into CSR.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        // Symmetrize: each undirected edge becomes two arcs.
        let mut arcs = Vec::with_capacity(self.arcs.len() * 2);
        for &(u, v) in &self.arcs {
            if u != v {
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }
        build_from_arcs(n, arcs)
    }
}

/// Streaming CSR builder for inputs too large to buffer whole.
///
/// Edges are symmetrized on push (self-loops dropped) into bounded
/// shards of at most [`SHARD_ARCS`] arcs; [`StreamBuilder::build`]
/// counting-sorts all shards in parallel into the final CSR. Peak
/// transient memory during ingestion is one shard plus the sealed
/// shards — the final arrays are only sized once, at build time.
///
/// ```
/// use kcore_graph::StreamBuilder;
///
/// let mut b = StreamBuilder::growable();
/// b.push_chunk([(0, 1), (1, 2), (2, 0), (2, 2)]); // loop dropped
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// ```
pub struct StreamBuilder {
    n: usize,
    grow: bool,
    shards: Vec<Vec<(VertexId, VertexId)>>,
    current: Vec<(VertexId, VertexId)>,
}

impl StreamBuilder {
    /// A builder for a fixed vertex count `n`; out-of-range edges panic
    /// (same contract as [`GraphBuilder::new`]).
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count {n} exceeds the u32 id space");
        Self { n, grow: false, shards: Vec::new(), current: Vec::new() }
    }

    /// A builder whose vertex count grows to `max_id + 1` as edges
    /// arrive — the right mode for edge-list files with no header.
    pub fn growable() -> Self {
        Self { n: 0, grow: true, shards: Vec::new(), current: Vec::new() }
    }

    /// Pre-declares at least `n` vertices (isolated vertices are legal).
    /// In growable mode the count can still increase past this.
    pub fn reserve_vertices(&mut self, n: usize) {
        assert!(n <= VertexId::MAX as usize, "vertex count {n} exceeds the u32 id space");
        self.n = self.n.max(n);
    }

    /// The current vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Symmetric arcs buffered so far (2x the kept undirected edges).
    pub fn num_buffered_arcs(&self) -> usize {
        self.shards.iter().map(Vec::len).sum::<usize>() + self.current.len()
    }

    /// Adds one undirected edge `{u, v}`; self-loops are dropped.
    #[inline]
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        if self.grow {
            let need = (u.max(v) as usize) + 1;
            if need > self.n {
                self.n = need;
            }
        } else {
            assert!(
                (u as usize) < self.n && (v as usize) < self.n,
                "edge ({u}, {v}) out of range for n = {}",
                self.n
            );
        }
        if u != v {
            if self.current.len() + 2 > SHARD_ARCS {
                self.seal();
            }
            self.current.push((u, v));
            self.current.push((v, u));
        }
    }

    /// Adds a chunk of undirected edges.
    pub fn push_chunk<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.push_edge(u, v);
        }
    }

    fn seal(&mut self) {
        if !self.current.is_empty() {
            counter!("build.shard", 1);
            let cap = self.current.capacity().min(SHARD_ARCS);
            self.shards.push(std::mem::replace(&mut self.current, Vec::with_capacity(cap)));
        }
    }

    /// Finalizes the graph via the parallel counting sort.
    pub fn build(mut self) -> CsrGraph {
        self.seal();
        countsort_build(self.n, self.shards).0
    }
}

/// Builds a CSR graph from an already-symmetric arc list: every
/// undirected edge must appear as both `(u, v)` and `(v, u)`, with no
/// self-loops (duplicates are fine — the build dedups). This is the
/// parallel counting-sort construction path [`GraphBuilder::build`] and
/// [`StreamBuilder::build`] use, exposed for callers that maintain
/// symmetry themselves, such as the delta overlay's compaction
/// ([`crate::OverlayGraph::compact`]).
///
/// Asymmetric input or self-loops produce a graph that violates the
/// [`CsrGraph`] invariants (no memory unsafety; algorithms may return
/// wrong answers) — use [`GraphBuilder`] for untrusted edge lists.
pub fn from_symmetric_arcs(n: usize, arcs: Vec<(VertexId, VertexId)>) -> CsrGraph {
    debug_assert!(arcs.iter().all(|&(u, v)| u != v), "self-loop in symmetric arc list");
    countsort_build(n, vec![arcs]).0
}

// Historical internal name, still used by the `gen` family.
pub(crate) use from_symmetric_arcs as build_from_arcs;

/// Two-level parallel counting sort from symmetric arc shards into CSR.
///
/// * **Partition** (streaming, span `build.partition`): cut the
///   concatenated shards into arc blocks ([`block_arcs`], which ignores
///   shard ends), histogram each block by source bucket
///   ([`bucket_shift`] consecutive vertices per bucket), scan the
///   histograms into per-(block, bucket) cursors, and scatter the arcs
///   into a bucket-grouped array. Each block writes through one cursor
///   per bucket, so the writes stream instead of hitting a random cache
///   line per arc — the failure mode of a one-level counting sort.
/// * **Per-bucket finish** (bucket-local, span `build.dedup`): count per
///   vertex, scan, and scatter inside the bucket's contiguous run
///   (count/cursor arrays are at most `12 B x MAX_BUCKET_VERTS`,
///   cache-resident), then per-vertex `sort_unstable` + in-place dedup.
/// * **Recompact** (span `build.recompact`, only when the dedup dropped
///   an arc): copy the deduped prefixes into the final arrays. With no
///   duplicates the finish output already is the final CSR.
///
/// Blocks and buckets are a few dozen items each, so every loop over
/// them sets `with_max_len(1)` to fork across the pool (see the rayon
/// shim's `MIN_PAR_LEN`). Shards are consumed and freed right after the
/// partition pass, so peak memory is `~12 B`/arc beyond the input, not
/// input + output. The result is bit-identical to the global-sort path
/// (per-vertex sorted, deduplicated adjacency) for every pool width.
///
/// Returns the graph and whether the recompact ran.
fn countsort_build(n: usize, shards: Vec<Vec<(VertexId, VertexId)>>) -> (CsrGraph, bool) {
    let total: usize = shards.iter().map(Vec::len).sum();
    if total == 0 {
        return (CsrGraph::from_parts_unchecked(vec![0; n + 1], Vec::new()), false);
    }
    let _span = span!("build.countsort", total);
    let workers = rayon::current_num_threads();
    let shift = bucket_shift(n, workers);
    let bucket_verts = 1usize << shift;
    let num_buckets = n.div_ceil(bucket_verts);
    let bucket_of = |u: VertexId| (u as usize) >> shift;

    let partition = span!("build.partition", total);
    // Block k covers arcs [k * block, (k + 1) * block) of the shards'
    // concatenation; `block_runs(k)` yields its per-shard slices.
    let block = block_arcs(total, workers);
    let num_blocks = total.div_ceil(block);
    let (shard_starts, _) = exclusive_scan(&shards.iter().map(Vec::len).collect::<Vec<_>>());
    let block_runs = |k: usize| {
        let (lo, hi) = (k * block, ((k + 1) * block).min(total));
        shards.iter().zip(&shard_starts).filter_map(move |(shard, &start)| {
            let (a, b) = (lo.max(start), hi.min(start + shard.len()));
            (a < b).then(|| &shard[a - start..b - start])
        })
    };

    // Partition 1/2: per-block bucket histograms (`block < 2^32`, so the
    // u32 counts cannot wrap), scanned into one write cursor per
    // (block, bucket) — block k's slice of bucket b is
    // [cursors[k][b], cursors[k][b] + hists[k][b]).
    let hists: Vec<Vec<u32>> = (0..num_blocks)
        .into_par_iter()
        .with_max_len(1)
        .map(|k| {
            let mut h = vec![0u32; num_buckets];
            for run in block_runs(k) {
                for &(u, _) in run {
                    h[bucket_of(u)] += 1;
                }
            }
            h
        })
        .collect();
    let mut bucket_counts = vec![0usize; num_buckets];
    for h in &hists {
        for (b, &c) in h.iter().enumerate() {
            bucket_counts[b] += c as usize;
        }
    }
    let (bucket_starts, scanned) = exclusive_scan(&bucket_counts);
    debug_assert_eq!(scanned, total);
    let cursors: Vec<Vec<usize>> = {
        let mut run = bucket_starts.clone();
        hists
            .iter()
            .map(|h| {
                let cur = run.clone();
                for (b, &c) in h.iter().enumerate() {
                    run[b] += c as usize;
                }
                cur
            })
            .collect()
    };

    // Partition 2/2: scatter arcs into the bucket-grouped array, then
    // free the shards — from here on only `bucketed` is needed.
    let mut bucketed: Vec<(VertexId, VertexId)> = Vec::with_capacity(total);
    let bucketed_ptr = SendPtr::new(bucketed.as_mut_ptr());
    (0..num_blocks).into_par_iter().with_max_len(1).for_each(|k| {
        let mut cur = cursors[k].clone();
        for run in block_runs(k) {
            for &(u, v) in run {
                let b = bucket_of(u);
                // SAFETY: the (block, bucket) ranges are disjoint by the
                // cursor construction above and their union is 0..total;
                // each slot is claimed exactly once.
                unsafe { bucketed_ptr.slot(cur[b]).write((u, v)) };
                cur[b] += 1;
            }
        }
    });
    // SAFETY: every slot in 0..total was written exactly once above.
    unsafe { bucketed.set_len(total) };
    drop(shards);
    drop(partition);

    // Per-bucket finish: bucket b exclusively owns the vertex range
    // [b * bucket_verts, (b + 1) * bucket_verts) and the arc run
    // bucketed[bucket_starts[b]..][..bucket_counts[b]], so all the
    // parallel writes below land in disjoint per-bucket ranges.
    let mut raw: Vec<VertexId> = vec![0; total];
    // Start of v's run inside `raw`; one spare slot so that, when the
    // recompact is skipped, the final offsets reuse this buffer.
    let mut raw_offsets = Vec::with_capacity(n + 1);
    raw_offsets.resize(n, 0usize);
    let mut deduped = vec![0usize; n]; // v's neighbor count after dedup
    let raw_ptr = SendPtr::new(raw.as_mut_ptr());
    let roff_ptr = SendPtr::new(raw_offsets.as_mut_ptr());
    let dlen_ptr = SendPtr::new(deduped.as_mut_ptr());
    let kept: usize = {
        let _dedup = span!("build.dedup", n);
        let bucketed_ro: &[(VertexId, VertexId)] = &bucketed;
        (0..num_buckets)
            .into_par_iter()
            .with_max_len(1)
            .map(|b| {
                let lo_v = b * bucket_verts;
                let span_v = bucket_verts.min(n - lo_v);
                let base = bucket_starts[b];
                let arcs = &bucketed_ro[base..base + bucket_counts[b]];
                // SAFETY: bucket b owns vertices lo_v..lo_v + span_v and
                // the raw run base..base + bucket_counts[b]; both exclusive.
                let out = unsafe { std::slice::from_raw_parts_mut(raw_ptr.slot(base), arcs.len()) };
                let roff = unsafe { std::slice::from_raw_parts_mut(roff_ptr.slot(lo_v), span_v) };
                let dlen = unsafe { std::slice::from_raw_parts_mut(dlen_ptr.slot(lo_v), span_v) };
                // Bucket-local count + scan: both arrays are
                // MAX_BUCKET_VERTS entries at most, cache-resident.
                let mut counts = vec![0u32; span_v];
                for &(u, _) in arcs {
                    counts[u as usize - lo_v] += 1;
                }
                let mut cur = vec![0usize; span_v];
                let mut off = 0usize;
                for i in 0..span_v {
                    roff[i] = base + off;
                    cur[i] = off;
                    off += counts[i] as usize;
                }
                for &(u, v) in arcs {
                    let i = u as usize - lo_v;
                    out[cur[i]] = v;
                    cur[i] += 1;
                }
                let mut kept = 0usize;
                for i in 0..span_v {
                    let len = counts[i] as usize;
                    if len == 0 {
                        continue;
                    }
                    let s = &mut out[cur[i] - len..cur[i]];
                    s.sort_unstable();
                    let mut w = 0usize;
                    for r in 0..len {
                        if w == 0 || s[r] != s[w - 1] {
                            s[w] = s[r];
                            w += 1;
                        }
                    }
                    dlen[i] = w;
                    kept += w;
                }
                kept
            })
            .sum()
    };
    drop(bucketed);

    if kept == total {
        // Nothing was dropped: every vertex's run in `raw` is its final
        // adjacency, back to back, so `raw` and `raw_offsets` are the CSR.
        raw_offsets.push(total);
        return (CsrGraph::from_parts_unchecked(raw_offsets, raw), false);
    }

    // Recompact the deduped prefixes into the final arrays. Vertex v's
    // destination offsets[v]..+deduped[v] lies inside its bucket's
    // contiguous destination run, so per-bucket writes stay disjoint.
    let _recompact = span!("build.recompact", kept);
    let (mut offsets, arcs) = exclusive_scan(&deduped);
    let mut edges: Vec<VertexId> = vec![0; arcs];
    let edges_ptr = SendPtr::new(edges.as_mut_ptr());
    let raw_ro: &[VertexId] = &raw;
    let offsets_ro: &[usize] = &offsets;
    let (deduped_ro, raw_offsets_ro): (&[usize], &[usize]) = (&deduped, &raw_offsets);
    (0..num_buckets).into_par_iter().with_max_len(1).for_each(|b| {
        let lo_v = b * bucket_verts;
        let hi_v = (lo_v + bucket_verts).min(n);
        for v in lo_v..hi_v {
            let len = deduped_ro[v];
            if len > 0 {
                // SAFETY: destination ranges offsets[v]..+len are
                // disjoint per vertex and in bounds by the scan.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        raw_ro[raw_offsets_ro[v]..].as_ptr(),
                        edges_ptr.slot(offsets_ro[v]),
                        len,
                    );
                }
            }
        }
    });
    offsets.push(arcs);
    (CsrGraph::from_parts_unchecked(offsets, edges), true)
}

/// Log2 of the vertices per counting-sort source bucket: the largest
/// power-of-two width from [`MIN_BUCKET_VERTS`] to [`MAX_BUCKET_VERTS`]
/// that gives every worker [`BUCKETS_PER_WORKER`] buckets to balance
/// over, so one hub-heavy bucket cannot become the critical path on
/// small graphs. Narrow buckets only when `n` is too small for that.
fn bucket_shift(n: usize, workers: usize) -> u32 {
    let want = BUCKETS_PER_WORKER * workers;
    let mut shift = MAX_BUCKET_VERTS.trailing_zeros();
    while shift > MIN_BUCKET_VERTS.trailing_zeros() && n.div_ceil(1 << shift) < want {
        shift -= 1;
    }
    shift
}

/// Arcs per partition block: [`BLOCKS_PER_WORKER`] blocks per worker,
/// at least [`MIN_BLOCK_ARCS`] so the per-block histograms stay cheap
/// next to the arcs they count, and below `2^32` so a block's u32
/// bucket counts cannot wrap.
fn block_arcs(total: usize, workers: usize) -> usize {
    total.div_ceil(BLOCKS_PER_WORKER * workers).clamp(MIN_BLOCK_ARCS, u32::MAX as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_parallel::pool::with_threads;

    #[test]
    fn deduplicates_and_symmetrizes() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 0), (0, 1), (1, 2)]).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        g.validate();
    }

    #[test]
    fn drops_self_loops() {
        let g = GraphBuilder::new(2).edges([(0, 0), (0, 1), (1, 1)]).build();
        assert_eq!(g.num_edges(), 1);
        g.validate();
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let g = GraphBuilder::new(5).edge(0, 4).build();
        for v in 1..4 {
            assert_eq!(g.degree(v), 0);
        }
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(4), 1);
        g.validate();
    }

    #[test]
    fn build_empty_graph_with_vertices() {
        let g = GraphBuilder::new(10).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
        g.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        GraphBuilder::new(2).edge(0, 2);
    }

    #[test]
    fn large_random_build_is_valid() {
        let g = GraphBuilder::new(1000).edges(lcg_edges(0x243F_6A88_85A3_08D3, 1000, 5000)).build();
        g.validate();
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn stream_builder_matches_graph_builder() {
        let n = 300u32;
        let edges = lcg_edges(0x1234_5678_9ABC_DEF0, n, 10_000);
        let reference = GraphBuilder::new(n as usize).edges(edges.iter().copied()).build();
        let mut sb = StreamBuilder::new(n as usize);
        for chunk in edges.chunks(777) {
            sb.push_chunk(chunk.iter().copied());
        }
        let streamed = sb.build();
        assert_eq!(streamed, reference);
        streamed.validate();
    }

    #[test]
    fn stream_builder_grows_vertex_count() {
        let mut b = StreamBuilder::growable();
        b.push_edge(0, 7);
        b.push_edge(3, 3); // dropped self-loop still grows n
        assert_eq!(b.num_vertices(), 8);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 1);
        g.validate();
    }

    #[test]
    fn stream_builder_seals_multiple_shards() {
        // Force > SHARD_ARCS arcs through a growable builder by pushing
        // a dense-ish random multigraph, then compare with the oracle.
        let n = 2_000u32;
        // 2x arcs after symmetrization => >= 2 shards.
        let edges = lcg_edges(7, n, SHARD_ARCS);
        let mut sb = StreamBuilder::new(n as usize);
        let mut reference = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            sb.push_edge(u, v);
            reference.push_edge(u, v);
        }
        assert!(sb.num_buffered_arcs() > SHARD_ARCS);
        assert_eq!(sb.build(), reference.build());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stream_builder_fixed_n_rejects_out_of_range() {
        StreamBuilder::new(2).push_edge(0, 2);
    }

    /// `m` pseudo-random edges over `0..n` (LCG, so no `rand` here),
    /// loops and repeats included.
    fn lcg_edges(seed: u64, n: u32, m: usize) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..m).map(|_| (next() % n, next() % n)).collect()
    }

    /// `edges` with loops and repeated undirected edges removed.
    fn distinct(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut seen = std::collections::BTreeSet::new();
        edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && seen.insert((u.min(v), u.max(v))))
            .collect()
    }

    /// The symmetric arcs of `edges`, loops dropped, in push order.
    fn arcs_of(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        edges.iter().filter(|&&(u, v)| u != v).flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    /// Counting-sorts `shards` under 1, 2 and 4 workers and checks each
    /// CSR against the `GraphBuilder` reference of `edges`, and whether
    /// the recompact ran.
    fn check_countsort(
        n: usize,
        edges: &[(u32, u32)],
        shards: Vec<Vec<(u32, u32)>>,
        recompact: bool,
    ) {
        let reference = GraphBuilder::new(n).edges(edges.iter().copied()).build();
        reference.validate();
        for threads in [1, 2, 4] {
            let (g, ran) = with_threads(threads, || countsort_build(n, shards.clone()));
            assert_eq!(g, reference, "CSR differs from the reference under {threads} workers");
            assert_eq!(ran, recompact, "recompact ran = {ran} under {threads} workers");
        }
    }

    #[test]
    fn duplicate_free_input_skips_the_recompact() {
        let edges = distinct(&lcg_edges(11, 5_000, 20_000));
        check_countsort(5_000, &edges, vec![arcs_of(&edges)], false);
    }

    #[test]
    fn duplicates_in_one_bucket_run_the_recompact() {
        // n = 3000 gives 256-vertex buckets under 1, 2 and 4 workers.
        // One edge inside bucket 0 repeats, reversed: the dedup drops
        // exactly its two arcs, both in bucket 0.
        let mut edges = distinct(&lcg_edges(12, 3_000, 12_000));
        let (u, v) = *edges.iter().find(|&&(u, v)| u < 256 && v < 256).unwrap();
        edges.push((v, u));
        check_countsort(3_000, &edges, vec![arcs_of(&edges)], true);
        // Several repeats, still all inside bucket 0.
        edges.extend([(1, 2), (2, 1), (3, 200), (3, 200)]);
        check_countsort(3_000, &edges, vec![arcs_of(&edges)], true);
    }

    #[test]
    fn blocks_straddle_shard_ends() {
        // ~300k arcs make several 2^16-arc blocks; the uneven shards,
        // one of them empty, put shard ends inside blocks.
        let edges = lcg_edges(13, 20_000, 150_000);
        let arcs = arcs_of(&edges);
        assert!(arcs.len() > 4 * MIN_BLOCK_ARCS);
        let cuts = [0, 1, 70_001, 70_001, 131_073, 200_003, arcs.len()];
        let shards: Vec<Vec<(u32, u32)>> =
            cuts.windows(2).map(|w| arcs[w[0]..w[1]].to_vec()).collect();
        check_countsort(20_000, &edges, shards.clone(), true);
        let edges = distinct(&edges);
        let arcs = arcs_of(&edges);
        let shards: Vec<Vec<(u32, u32)>> = arcs.chunks(65_535).map(<[_]>::to_vec).collect();
        check_countsort(20_000, &edges, shards, false);
    }

    #[test]
    fn vertex_counts_off_the_bucket_grid() {
        // Below one minimum bucket, and not a multiple of it.
        for (n, seed) in [(1usize, 14), (2, 15), (100, 16), (257, 17), (1_000, 18)] {
            let edges = lcg_edges(seed, n as u32, 4 * n);
            let repeats = arcs_of(&edges).len() > 2 * distinct(&edges).len();
            check_countsort(n, &edges, vec![arcs_of(&edges)], repeats);
            let edges = distinct(&edges);
            check_countsort(n, &edges, vec![arcs_of(&edges)], false);
        }
    }

    #[test]
    fn bucket_width_and_block_size_follow_the_pool() {
        assert_eq!(bucket_shift(490_000, 2), 13);
        assert_eq!(bucket_shift(16_384, 2), 10);
        assert_eq!(bucket_shift(16_384, 1), 11);
        assert_eq!(bucket_shift(100, 4), 8);
        assert_eq!(block_arcs(1_712_598, 2), 214_075);
        assert_eq!(block_arcs(1_000, 2), MIN_BLOCK_ARCS);
        assert_eq!(block_arcs(usize::MAX, 1), u32::MAX as usize);
    }
}
