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
//! first partitioned by *source bucket* (ranges of `BUCKET_VERTS`
//! consecutive vertices — writes stream into a few dozen cursors),
//! then each bucket is counting-sorted with bucket-local count/offset
//! arrays that fit in L1/L2, per-vertex sorted, and deduplicated. It
//! replaces the previous global `par_sort_unstable` over all arcs
//! (kept as [`from_symmetric_arcs_by_sort`] for A/B benchmarking):
//! O(m) moves instead of O(m log m) comparisons, with every phase
//! either streaming or bucket-local.

use crate::csr::{CsrGraph, VertexId};
use kcore_obs::{counter, span};
use kcore_parallel::primitives::exclusive_scan;
use rayon::prelude::*;

/// Arcs per [`StreamBuilder`] shard (~16 MiB of `(u32, u32)` pairs).
/// Bounds peak ingestion memory per in-flight chunk while keeping
/// shards large enough that per-shard parallel loops stay efficient.
pub const SHARD_ARCS: usize = 1 << 21;

/// Vertices per counting-sort source bucket (`2^13`). Sized so a
/// bucket's count + cursor arrays (`8 B` per vertex) stay L1-resident
/// while the bucket's arc run is typically L2-resident.
const BUCKET_VERTS: usize = 1 << 13;

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
        countsort_build(self.n, self.shards)
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
    countsort_build(n, vec![arcs])
}

/// The pre-streaming construction path: global parallel sort over all
/// arcs, then dedup and a sequential CSR fill. Kept as the A/B baseline
/// for `bench_build` and as an oracle in tests — both paths produce
/// bit-identical graphs (sorted, deduplicated per-vertex adjacency).
pub fn from_symmetric_arcs_by_sort(n: usize, mut arcs: Vec<(VertexId, VertexId)>) -> CsrGraph {
    debug_assert!(arcs.iter().all(|&(u, v)| u != v), "self-loop in symmetric arc list");
    arcs.par_sort_unstable();
    arcs.dedup();

    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let edges: Vec<VertexId> = arcs.into_iter().map(|(_, v)| v).collect();
    CsrGraph::from_parts_unchecked(offsets, edges)
}

// Historical internal name, still used by the `gen` family.
pub(crate) use from_symmetric_arcs as build_from_arcs;

/// Raw pointer wrapper for disjoint-range parallel writes (same
/// discipline as `kcore_parallel::primitives`' pack buffers).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: only used with the disjoint-write discipline documented at
// each use site.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Two-level parallel counting sort from symmetric arc shards into CSR.
///
/// * **Partition** (streaming): histogram each shard by source bucket
///   ([`BUCKET_VERTS`] consecutive vertices per bucket), scan the
///   histograms into per-shard cursors, and scatter the arcs into a
///   bucket-grouped array. Each shard writes through one cursor per
///   bucket, so the writes stream instead of hitting a random cache
///   line per arc — the failure mode of a one-level counting sort.
/// * **Per-bucket finish** (bucket-local): count per vertex, scan, and
///   scatter inside the bucket's contiguous run (count/cursor arrays
///   are `8 B x BUCKET_VERTS`, L1-resident), then per-vertex
///   `sort_unstable` + in-place dedup, then recompact into the final
///   arrays.
///
/// Shards are consumed and freed right after the partition pass, so
/// peak memory is `~12 B`/arc beyond the input, not input + output.
/// The result is bit-identical to the global-sort path: per-vertex
/// sorted, deduplicated adjacency.
fn countsort_build(n: usize, shards: Vec<Vec<(VertexId, VertexId)>>) -> CsrGraph {
    let total: usize = shards.iter().map(Vec::len).sum();
    if total == 0 {
        return CsrGraph::from_parts_unchecked(vec![0; n + 1], Vec::new());
    }
    let _span = span!("build.countsort", total);
    let num_buckets = n.div_ceil(BUCKET_VERTS);
    let bucket_of = |u: VertexId| (u as usize) >> BUCKET_VERTS.trailing_zeros();

    // Partition 1/2: per-shard bucket histograms, scanned into one
    // write cursor per (shard, bucket) — shard s's slice of bucket b is
    // [cursors[s][b], cursors[s][b] + hists[s][b]).
    let hists: Vec<Vec<u32>> = shards
        .par_iter()
        .map(|shard| {
            let mut h = vec![0u32; num_buckets];
            for &(u, _) in shard {
                h[bucket_of(u)] += 1;
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
    let bucketed_ptr = SendPtr(bucketed.as_mut_ptr());
    (0..shards.len()).into_par_iter().for_each(|s| {
        let ptr = bucketed_ptr;
        let mut cur = cursors[s].clone();
        for &(u, v) in &shards[s] {
            let b = bucket_of(u);
            // SAFETY: the (shard, bucket) ranges are disjoint by the
            // cursor construction above and their union is 0..total;
            // each slot is claimed exactly once.
            unsafe { *ptr.0.add(cur[b]) = (u, v) };
            cur[b] += 1;
        }
    });
    // SAFETY: every slot in 0..total was written exactly once above.
    unsafe { bucketed.set_len(total) };
    drop(shards);

    // Per-bucket finish: bucket b exclusively owns the vertex range
    // [b * BUCKET_VERTS, (b + 1) * BUCKET_VERTS) and the arc run
    // bucketed[bucket_starts[b]..][..bucket_counts[b]], so all the
    // parallel writes below land in disjoint per-bucket ranges.
    let mut raw: Vec<VertexId> = vec![0; total];
    let mut raw_offsets = vec![0usize; n]; // start of v's run inside `raw`
    let mut deduped = vec![0usize; n]; // v's neighbor count after dedup
    let raw_ptr = SendPtr(raw.as_mut_ptr());
    let roff_ptr = SendPtr(raw_offsets.as_mut_ptr());
    let dlen_ptr = SendPtr(deduped.as_mut_ptr());
    {
        let _dedup = span!("build.dedup", n);
        let bucketed_ro: &[(VertexId, VertexId)] = &bucketed;
        (0..num_buckets).into_par_iter().for_each(|b| {
            let (raw_ptr, roff_ptr, dlen_ptr) = (raw_ptr, roff_ptr, dlen_ptr);
            let lo_v = b * BUCKET_VERTS;
            let span_v = BUCKET_VERTS.min(n - lo_v);
            let base = bucket_starts[b];
            let arcs = &bucketed_ro[base..base + bucket_counts[b]];
            // SAFETY: bucket b owns vertices lo_v..lo_v + span_v and the
            // raw run base..base + bucket_counts[b]; both exclusive.
            let out = unsafe { std::slice::from_raw_parts_mut(raw_ptr.0.add(base), arcs.len()) };
            let roff = unsafe { std::slice::from_raw_parts_mut(roff_ptr.0.add(lo_v), span_v) };
            let dlen = unsafe { std::slice::from_raw_parts_mut(dlen_ptr.0.add(lo_v), span_v) };
            // Bucket-local count + scan: both arrays are BUCKET_VERTS
            // entries at most, L1-resident.
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
            }
        });
    }
    drop(bucketed);

    // Recompact the deduped prefixes into the final arrays. Vertex v's
    // destination offsets[v]..+deduped[v] lies inside its bucket's
    // contiguous destination run, so per-bucket writes stay disjoint.
    let (mut offsets, arcs) = exclusive_scan(&deduped);
    let mut edges: Vec<VertexId> = vec![0; arcs];
    let edges_ptr = SendPtr(edges.as_mut_ptr());
    let raw_ro: &[VertexId] = &raw;
    let offsets_ro: &[usize] = &offsets;
    let (deduped_ro, raw_offsets_ro): (&[usize], &[usize]) = (&deduped, &raw_offsets);
    (0..num_buckets).into_par_iter().for_each(|b| {
        let ptr = edges_ptr;
        let lo_v = b * BUCKET_VERTS;
        let hi_v = (lo_v + BUCKET_VERTS).min(n);
        for v in lo_v..hi_v {
            let len = deduped_ro[v];
            if len > 0 {
                // SAFETY: destination ranges offsets[v]..+len are
                // disjoint per vertex and in bounds by the scan.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        raw_ro[raw_offsets_ro[v]..].as_ptr(),
                        ptr.0.add(offsets_ro[v]),
                        len,
                    );
                }
            }
        }
    });
    offsets.push(arcs);
    CsrGraph::from_parts_unchecked(offsets, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Cheap pseudo-random edges (LCG) without pulling in rand here.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 1000u32;
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..5000 {
            b.push_edge(next() % n, next() % n);
        }
        let g = b.build();
        g.validate();
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn countsort_matches_sort_path_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 500u32;
        let mut arcs = Vec::new();
        for _ in 0..20_000 {
            let (u, v) = (next() % n, next() % n);
            if u != v {
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }
        let a = from_symmetric_arcs(n as usize, arcs.clone());
        let b = from_symmetric_arcs_by_sort(n as usize, arcs);
        assert_eq!(a, b);
        a.validate();
    }

    #[test]
    fn stream_builder_matches_graph_builder() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..10_000).map(|_| (next() % n, next() % n)).collect();
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
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 2_000u32;
        let raw_edges = SHARD_ARCS; // 2x arcs after symmetrization => >= 2 shards
        let mut sb = StreamBuilder::new(n as usize);
        let mut reference = GraphBuilder::new(n as usize);
        for _ in 0..raw_edges {
            let (u, v) = (next() % n, next() % n);
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
}
