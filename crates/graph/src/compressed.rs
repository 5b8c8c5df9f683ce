//! Byte-compressed CSR: per-vertex delta + varint neighbor blocks.
//!
//! [`CompressedCsr`] stores each vertex's sorted neighbor list as a
//! Ligra+-style byte block: the first neighbor is zigzag-varint coded
//! as a signed delta from the vertex's own id, and every subsequent
//! neighbor as the varint gap (≥ 1) to its predecessor. Power-law and
//! mesh-like graphs have small gaps, so most arcs cost one byte instead
//! of the plain backend's four — typically a 2x+ cut in neighbor-array
//! bytes for a modest decode cost during peeling (the trade Ligra+
//! measured, reproduced here by `bench_build`).
//!
//! Two access paths, matching the [`crate::GraphBackend`] contract:
//!
//! * [`CompressedCsr::neighbors`] decodes into a small per-thread
//!   scratch ring and returns a borrowed slice. A caller may hold **at
//!   most one** such slice per thread at a time — the engine's peel
//!   loops do (one frontier vertex's list at a time), and every nested
//!   traversal in `kcore` uses the streaming form instead.
//! * [`CompressedCsr::for_each_neighbor`] decodes inline with no
//!   buffer at all; it nests arbitrarily.
//!
//! Blocks live on the heap ([`CompressedCsr::from_graph`]) or inside a
//! read-only `KCOREGC1` file mapping ([`crate::io::map_compressed`]).

use crate::csr::{CsrGraph, VertexId};
use crate::mmap::{MmapRegion, RawSlice};
use kcore_check::cell::UnsafeCell;
use kcore_obs::span;
use kcore_parallel::primitives::exclusive_scan;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::Arc;

/// How many decoded neighbor lists each thread keeps alive at once.
/// The access contract requires only one; the second slot is margin so
/// a caller that briefly overlaps two decodes (end of one loop, start
/// of the next) still reads valid data.
const RING: usize = 2;

/// Readable zero bytes guaranteed to follow the blocks section, in
/// memory and on disk. [`read_varint_raw`] issues a word-wide load at
/// every varint position, which may touch one byte past a varint that
/// ends the section; the pad keeps that load in bounds. Owned storage
/// over-allocates by this much, the `KCOREGC1` format appends it after
/// the blocks, and the mapped reader verifies it is present.
pub(crate) const BLOCK_PAD: usize = 8;

/// An undirected graph with delta + varint byte-compressed adjacency.
///
/// Logically identical to the [`CsrGraph`] it was encoded from:
/// [`CompressedCsr::decompress`] round-trips exactly, and decomposition
/// results are bit-identical across backends (enforced by the
/// backend-equivalence proptests in `kcore`).
pub struct CompressedCsr {
    n: usize,
    arcs: usize,
    storage: Repr,
}

/// Storage sections: `offsets[v]..offsets[v + 1]` delimits `v`'s byte
/// block inside `blocks`; `degrees[v]` is its neighbor count (kept
/// aside so [`CompressedCsr::degree`] stays O(1) — peel work accounting
/// calls it constantly and must not decode).
enum Repr {
    Owned {
        offsets: Box<[usize]>,
        degrees: Box<[u32]>,
        blocks: Box<[u8]>,
    },
    Mapped {
        #[allow(dead_code)] // owns the mapping the raw slices point into
        region: Arc<MmapRegion>,
        offsets: RawSlice<usize>,
        degrees: RawSlice<u32>,
        blocks: RawSlice<u8>,
    },
}

struct Scratch {
    bufs: [UnsafeCell<Vec<VertexId>>; RING],
    next: Cell<usize>,
}

thread_local! {
    // `const` init: the scratch is reachable through a plain TLS offset
    // with no lazy-init check — `neighbors` runs once per settled
    // vertex, so this is peel-loop hot. The facade `UnsafeCell`
    // instead of `RefCell`: the only mutable access is the
    // non-reentrant body of `neighbors` below, so a borrow counter
    // would be pure overhead (and model runs race-check the accesses).
    static SCRATCH: Scratch = const {
        Scratch {
            bufs: [UnsafeCell::new(Vec::new()), UnsafeCell::new(Vec::new())],
            next: Cell::new(0),
        }
    };
}

#[inline]
fn zigzag_encode(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn zigzag_decode(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint at `p`, returning the value and the advanced
/// pointer. The peel-loop hot path: no bounds checks.
///
/// # Safety
///
/// `p` must point at a well-formed varint within an encoded block —
/// guaranteed for blocks produced by [`encode_list`] and enforced for
/// file-loaded blocks by [`validate_blocks`] at read/map time — and at
/// least two bytes starting at `p` must be readable (the block-section
/// invariant: every varint is followed by another varint or by
/// [`BLOCK_PAD`] trailing bytes).
#[inline]
unsafe fn read_varint_raw(p: *const u8) -> (u64, *const u8) {
    // One unaligned u16 load covers the 1- and 2-byte cases (all gaps
    // on graphs with n < 2^14, and most on larger ones) with an
    // arithmetic select instead of a data-dependent branch — the
    // 1-vs-2-byte mix on real gap streams is close to random, so a
    // branch here mispredicts constantly. The load may touch one byte
    // past a section-final varint; [`BLOCK_PAD`] keeps it in bounds.
    let w = u32::from(p.cast::<u16>().read_unaligned().to_le());
    if w & 0x8080 == 0x8080 {
        return read_varint_cold(p);
    }
    let cont = (w >> 7) & 1; // 1 iff byte 0 has the continuation bit
    let val = (w & 0x7f) | (((w >> 8) & 0x7f) << 7) & 0u32.wrapping_sub(cont);
    (u64::from(val), p.add(1 + cont as usize))
}

/// ≥3-byte varints (gap ≥ 2^14): off the hot path, byte-at-a-time.
///
/// # Safety
///
/// As [`read_varint_raw`]: `p` points at a well-formed varint.
#[cold]
unsafe fn read_varint_cold(mut p: *const u8) -> (u64, *const u8) {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *p;
        p = p.add(1);
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (x, p);
        }
        shift += 7;
    }
}

/// Fully validates file-loaded sections before they are trusted by the
/// unchecked hot-path decoder: every vertex's block must decode with
/// in-bounds reads to exactly `degrees[v]` strictly increasing
/// neighbors in `0..n`, consuming exactly its `offsets` range. Returns
/// a human-readable reason on the first violation.
pub(crate) fn validate_blocks(
    offsets: &[usize],
    degrees: &[u32],
    blocks: &[u8],
) -> Result<(), String> {
    let n = offsets.len() - 1;
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        if start > end || end > blocks.len() {
            return Err(format!("vertex {v}: block range {start}..{end} out of bounds"));
        }
        let block = &blocks[start..end];
        let deg = degrees[v] as usize;
        if deg == 0 {
            if !block.is_empty() {
                return Err(format!("vertex {v}: degree 0 but non-empty block"));
            }
            continue;
        }
        let mut pos = 0usize;
        // `read_varint` indexes `block`, so a varint running off the
        // block tail panics; catchable misbehavior is reported instead
        // by checking the remaining length up front.
        let mut prev: i64 = -1;
        for i in 0..deg {
            let raw = read_varint_checked(block, &mut pos)
                .ok_or_else(|| format!("vertex {v}: block truncated at neighbor {i}"))?;
            let next =
                if i == 0 { zigzag_decode(raw) + i64::from(v as u32) } else { prev + raw as i64 };
            if next <= prev && i > 0 {
                return Err(format!("vertex {v}: non-increasing neighbor at {i}"));
            }
            if next < 0 || next >= n as i64 {
                return Err(format!("vertex {v}: neighbor {next} out of range 0..{n}"));
            }
            prev = next;
        }
        if pos != block.len() {
            return Err(format!("vertex {v}: {} trailing block bytes", block.len() - pos));
        }
    }
    Ok(())
}

/// `read_varint` that reports running off the slice instead of
/// panicking — for validation of untrusted bytes.
fn read_varint_checked(block: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *block.get(*pos)?;
        *pos += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encodes one sorted neighbor list relative to `v` into `out`.
fn encode_list(v: VertexId, nbrs: &[VertexId], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for (i, &u) in nbrs.iter().enumerate() {
        if i == 0 {
            write_varint(out, zigzag_encode(i64::from(u) - i64::from(v)));
        } else {
            write_varint(out, u64::from(u - prev));
        }
        prev = u;
    }
}

impl CompressedCsr {
    /// Encodes `g` (in parallel, chunked by vertex range).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let _span = span!("build.encode", n);
        const CHUNK: usize = 2048;
        let num_chunks = n.div_ceil(CHUNK).max(1);
        // Each chunk encodes its vertex range into one buffer and
        // records per-vertex block lengths.
        let chunks: Vec<(Vec<u8>, Vec<usize>)> = (0..num_chunks)
            .into_par_iter()
            .map(|c| {
                let lo = c * CHUNK;
                let hi = ((c + 1) * CHUNK).min(n);
                let mut bytes = Vec::new();
                let mut lens = Vec::with_capacity(hi - lo);
                for v in lo..hi {
                    let before = bytes.len();
                    encode_list(v as VertexId, g.neighbors(v as VertexId), &mut bytes);
                    lens.push(bytes.len() - before);
                }
                (bytes, lens)
            })
            .collect();

        let per_vertex: Vec<usize> =
            chunks.iter().flat_map(|(_, lens)| lens.iter().copied()).collect();
        let (mut offsets, blocks_len) = exclusive_scan(&per_vertex);
        offsets.push(blocks_len);

        // Stitch the chunk buffers together at their scanned positions.
        // The extra BLOCK_PAD zero bytes back the decoder's word-wide
        // loads (see `read_varint_raw`).
        let mut blocks: Vec<u8> = vec![0; blocks_len + BLOCK_PAD];
        let chunk_starts: Vec<usize> =
            (0..num_chunks).map(|c| offsets[(c * CHUNK).min(n)]).collect();
        let blocks_ptr = SendBytes(blocks.as_mut_ptr());
        chunks.par_iter().enumerate().for_each(|(c, (bytes, _))| {
            let ptr = blocks_ptr;
            // SAFETY: chunk byte ranges [chunk_starts[c], + bytes.len())
            // are disjoint and in bounds — they are consecutive slices
            // of the exclusive scan over per-vertex lengths.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    ptr.0.add(chunk_starts[c]),
                    bytes.len(),
                );
            }
        });

        let degrees: Vec<u32> =
            (0..n).into_par_iter().map(|v| g.degree(v as VertexId) as u32).collect();
        Self {
            n,
            arcs: g.num_arcs(),
            storage: Repr::Owned {
                offsets: offsets.into_boxed_slice(),
                degrees: degrees.into_boxed_slice(),
                blocks: blocks.into_boxed_slice(),
            },
        }
    }

    /// Wraps pre-validated sections of a `KCOREGC1` file mapping (see
    /// [`crate::io::map_compressed`], which checks the header and the
    /// section bounds before calling this).
    pub(crate) fn from_mapped(
        region: Arc<MmapRegion>,
        arcs: usize,
        offsets: RawSlice<usize>,
        degrees: RawSlice<u32>,
        blocks: RawSlice<u8>,
    ) -> Self {
        let n = offsets.as_slice().len() - 1;
        Self { n, arcs, storage: Repr::Mapped { region, offsets, degrees, blocks } }
    }

    /// Rebuilds owned storage from parts (the `KCOREGC1` copying
    /// reader). Trusts the sections like
    /// [`CsrGraph::from_parts_unchecked`] trusts its arrays.
    pub(crate) fn from_parts_unchecked(
        arcs: usize,
        offsets: Vec<usize>,
        degrees: Vec<u32>,
        mut blocks: Vec<u8>,
    ) -> Self {
        let n = offsets.len() - 1;
        // Owned storage always carries the decoder's over-read pad.
        blocks.extend_from_slice(&[0u8; BLOCK_PAD]);
        Self {
            n,
            arcs,
            storage: Repr::Owned {
                offsets: offsets.into_boxed_slice(),
                degrees: degrees.into_boxed_slice(),
                blocks: blocks.into_boxed_slice(),
            },
        }
    }

    /// Whether this graph's sections live in a read-only file mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.storage, Repr::Mapped { .. })
    }

    /// Byte offsets of each vertex's block (`n + 1` entries).
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        match &self.storage {
            Repr::Owned { offsets, .. } => offsets,
            Repr::Mapped { offsets, .. } => offsets.as_slice(),
        }
    }

    /// Per-vertex neighbor counts.
    #[inline]
    pub(crate) fn degree_table(&self) -> &[u32] {
        match &self.storage {
            Repr::Owned { degrees, .. } => degrees,
            Repr::Mapped { degrees, .. } => degrees.as_slice(),
        }
    }

    /// The concatenated varint blocks (excluding the trailing
    /// [`BLOCK_PAD`] over-read margin, which owned storage allocates
    /// inline and mapped storage reads straight from the file).
    #[inline]
    pub(crate) fn blocks(&self) -> &[u8] {
        match &self.storage {
            Repr::Owned { blocks, .. } => &blocks[..blocks.len() - BLOCK_PAD],
            Repr::Mapped { blocks, .. } => blocks.as_slice(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed arcs `m` (twice the undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.arcs / 2
    }

    /// Degree of `v` — an O(1) table lookup, no decoding.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degree_table()[v as usize] as usize
    }

    /// The sorted neighbor list of `v`, decoded into per-thread scratch.
    ///
    /// # Access contract
    ///
    /// The returned slice borrows a thread-local ring slot that is
    /// recycled after `RING` further `neighbors` calls **on the same
    /// thread**. Hold at most one slice per thread at a time; for
    /// nested traversal, use [`CompressedCsr::for_each_neighbor`]
    /// (buffer-free) on the inner loop. The single-slice discipline is
    /// exactly what the peel engine's loops already follow over plain
    /// slices, which is what lets them run unmodified over this
    /// backend.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let deg = self.degree(v);
        if deg == 0 {
            return &[];
        }
        SCRATCH.with(|scratch| {
            let slot = scratch.next.get();
            scratch.next.set((slot + 1) % RING);
            scratch.bufs[slot].with_mut(|ptr| {
                // SAFETY: each ring slot is mutated only inside this
                // non-reentrant body; a previously returned slice
                // aliases the *other* slot (access contract), and even
                // on contract violation it aliases heap data, never
                // the `Vec` header this reference covers.
                let buf = unsafe { &mut *ptr };
                buf.clear();
                buf.reserve(deg);
                // SAFETY (decode_into): `buf` has capacity for `deg`
                // entries; the block is well-formed (encoded here or
                // validated at load).
                unsafe {
                    self.decode_into(v, deg, buf.as_mut_ptr());
                    buf.set_len(deg);
                }
                // SAFETY: the slice points into a thread-local Vec
                // whose allocation stays put until this ring slot is
                // reused by a later `neighbors` call on this thread —
                // which the access contract above forbids while the
                // slice is held; later calls touch the *other* ring
                // slot first.
                unsafe { std::slice::from_raw_parts(buf.as_ptr(), deg) }
            })
        })
    }

    /// Decodes `v`'s block into `out` (which must have room for `deg`
    /// entries) with no per-element checks — the peel hot path.
    ///
    /// # Safety
    ///
    /// `out` must be valid for `deg` writes, and `v`'s block must be
    /// well-formed (true by construction for encoded graphs, enforced
    /// by [`validate_blocks`] for file-loaded ones).
    #[inline]
    unsafe fn decode_into(&self, v: VertexId, deg: usize, out: *mut VertexId) {
        let offsets = self.offsets();
        let mut p = self.blocks().as_ptr().add(offsets[v as usize]);
        let (first, np) = read_varint_raw(p);
        p = np;
        let mut prev = (zigzag_decode(first) + i64::from(v)) as u32;
        *out = prev;
        for i in 1..deg {
            let (gap, np) = read_varint_raw(p);
            p = np;
            prev = prev.wrapping_add(gap as u32);
            *out.add(i) = prev;
        }
    }

    /// Calls `f` for every neighbor of `v` in increasing order, decoding
    /// inline with no scratch buffer. Nests arbitrarily.
    #[inline]
    pub fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        let deg = self.degree(v);
        if deg == 0 {
            return;
        }
        let offsets = self.offsets();
        // SAFETY: blocks are well-formed (encoded here or validated at
        // load), so every varint read stays inside `v`'s block.
        unsafe {
            let mut p = self.blocks().as_ptr().add(offsets[v as usize]);
            let (first, np) = read_varint_raw(p);
            p = np;
            let mut prev = (zigzag_decode(first) + i64::from(v)) as u32;
            f(prev);
            for _ in 1..deg {
                let (gap, np) = read_varint_raw(p);
                p = np;
                prev = prev.wrapping_add(gap as u32);
                f(prev);
            }
        }
    }

    /// Decodes the whole graph back to a plain [`CsrGraph`]. Round-trips
    /// exactly: `CompressedCsr::from_graph(&g).decompress() == g`.
    pub fn decompress(&self) -> CsrGraph {
        let n = self.n;
        let degrees: Vec<usize> = self.degree_table().iter().map(|&d| d as usize).collect();
        let (mut offsets, arcs) = exclusive_scan(&degrees);
        debug_assert_eq!(arcs, self.arcs);
        let mut edges: Vec<VertexId> = vec![0; arcs];
        let edges_ptr = SendU32(edges.as_mut_ptr());
        (0..n).into_par_iter().for_each(|v| {
            let ptr = edges_ptr;
            let mut i = offsets[v];
            // SAFETY: each vertex writes its disjoint range
            // offsets[v]..offsets[v] + degree(v).
            self.for_each_neighbor(v as VertexId, &mut |u| {
                unsafe { *ptr.0.add(i) = u };
                i += 1;
            });
        });
        offsets.push(arcs);
        CsrGraph::from_parts_unchecked(offsets, edges)
    }
}

impl crate::backend::GraphBackend for CompressedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.arcs
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn neighbors_slice(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v)
    }

    #[inline]
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.for_each_neighbor(v, f);
    }

    fn memory(&self) -> crate::stats::MemoryFootprint {
        crate::stats::MemoryFootprint {
            backend: if self.is_mapped() { "compressed-mmap" } else { "compressed" },
            offsets_bytes: std::mem::size_of_val(self.offsets()),
            neighbor_bytes: self.blocks().len(),
            aux_bytes: std::mem::size_of_val(self.degree_table()),
            arcs: self.arcs,
        }
    }
}

impl std::fmt::Debug for CompressedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedCsr")
            .field("n", &self.n)
            .field("arcs", &self.arcs)
            .field("block_bytes", &self.blocks().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Disjoint-range write pointers (same discipline as `builder.rs`).
#[derive(Clone, Copy)]
struct SendBytes(*mut u8);
// SAFETY: disjoint-write discipline documented at the use site.
unsafe impl Send for SendBytes {}
unsafe impl Sync for SendBytes {}

#[derive(Clone, Copy)]
struct SendU32(*mut u32);
// SAFETY: disjoint-write discipline documented at the use site.
unsafe impl Send for SendU32 {}
unsafe impl Sync for SendU32 {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GraphBackend;
    use crate::gen;

    #[test]
    fn varint_zigzag_round_trip() {
        for x in [0i64, 1, -1, 63, -64, 300, -300, i64::from(u32::MAX), -i64::from(u32::MAX)] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag_encode(x));
            let data_len = buf.len();
            // The raw decoder's over-read margin (see BLOCK_PAD).
            buf.push(0);
            let mut pos = 0;
            let checked =
                read_varint_checked(&buf[..data_len], &mut pos).expect("well-formed varint");
            assert_eq!(zigzag_decode(checked), x);
            assert_eq!(pos, data_len);
            // The unchecked hot-path decoder agrees byte for byte.
            let (raw, end) = unsafe { read_varint_raw(buf.as_ptr()) };
            assert_eq!(raw, checked);
            assert_eq!(end as usize - buf.as_ptr() as usize, data_len);
        }
    }

    #[test]
    fn validator_rejects_malformed_blocks() {
        let g = gen::grid2d(4, 4);
        let c = CompressedCsr::from_graph(&g);
        let (offsets, degrees, blocks) =
            (c.offsets().to_vec(), c.degree_table().to_vec(), c.blocks().to_vec());
        assert!(validate_blocks(&offsets, &degrees, &blocks).is_ok());
        // Truncated blocks: a varint runs off its range.
        let short = &blocks[..blocks.len() - 1];
        assert!(validate_blocks(&offsets, &degrees, short).is_err());
        // A flipped continuation bit makes a block over- or under-run.
        let mut flipped = blocks.clone();
        flipped[0] ^= 0x80;
        assert!(validate_blocks(&offsets, &degrees, &flipped).is_err());
        // Degree table lying about the count.
        let mut lying = degrees.clone();
        lying[0] += 1;
        assert!(validate_blocks(&offsets, &lying, &blocks).is_err());
    }

    #[test]
    fn round_trips_every_seed_family() {
        for g in [
            crate::CsrGraph::empty(),
            crate::GraphBuilder::new(4).build(), // isolated vertices only
            gen::grid2d(17, 9),
            gen::barabasi_albert(800, 4, 11),
            gen::rmat(9, 8, 0.57, 0.19, 0.19, 3),
        ] {
            let c = CompressedCsr::from_graph(&g);
            assert_eq!(c.num_vertices(), g.num_vertices());
            assert_eq!(c.num_arcs(), g.num_arcs());
            assert_eq!(c.decompress(), g);
        }
    }

    #[test]
    fn neighbors_match_plain() {
        let g = gen::barabasi_albert(500, 3, 5);
        let c = CompressedCsr::from_graph(&g);
        for v in g.vertices() {
            assert_eq!(c.degree(v), g.degree(v));
            assert_eq!(c.neighbors(v), g.neighbors(v), "vertex {v}");
            let mut streamed = Vec::new();
            c.for_each_neighbor(v, &mut |u| streamed.push(u));
            assert_eq!(streamed, g.neighbors(v), "vertex {v} streamed");
        }
    }

    #[test]
    fn scratch_ring_tolerates_one_overlapping_decode() {
        let g = gen::grid2d(8, 8);
        let c = CompressedCsr::from_graph(&g);
        // One outstanding slice (the contract) stays valid across the
        // next decode thanks to the second ring slot.
        let a = c.neighbors(0);
        let b = c.neighbors(9);
        assert_eq!(a, g.neighbors(0));
        assert_eq!(b, g.neighbors(9));
    }

    #[test]
    fn power_law_compression_beats_30_percent() {
        let g = gen::barabasi_albert(3000, 5, 3);
        let c = CompressedCsr::from_graph(&g);
        let plain = GraphBackend::memory(&g);
        let comp = GraphBackend::memory(&c);
        assert_eq!(plain.arcs, comp.arcs);
        let ratio = comp.neighbor_bytes as f64 / plain.neighbor_bytes as f64;
        assert!(
            ratio <= 0.70,
            "compressed neighbor bytes {} vs plain {} (ratio {ratio:.3}) misses the 30% cut",
            comp.neighbor_bytes,
            plain.neighbor_bytes,
        );
    }

    #[test]
    fn backend_defaults_work_over_compressed() {
        let g = gen::grid2d(12, 5);
        let c = CompressedCsr::from_graph(&g);
        let b: &dyn GraphBackend = &c;
        assert_eq!(b.num_edges(), g.num_edges());
        assert_eq!(b.degrees(), g.degrees());
        let mut edges = Vec::new();
        b.for_each_edge(&mut |u, v| edges.push((u, v)));
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
    }
}
