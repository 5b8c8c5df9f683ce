//! Graph substrate for parallel k-core decomposition.
//!
//! This crate provides everything the decomposition algorithms need from
//! the input side:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   representation of an undirected graph (stored as symmetric arcs).
//! * [`GraphBuilder`] — turns arbitrary edge lists into a [`CsrGraph`],
//!   symmetrizing, deduplicating, and dropping self-loops along the way.
//! * [`StreamBuilder`] — the large-input ingestion path: bounded edge
//!   shards finished by a parallel counting sort, so building never
//!   holds one giant arc vector.
//! * [`GraphBackend`] — the storage seam the k-core peel runs over:
//!   plain CSR or the [`OverlayGraph`] delta view.
//!   The triangle-side types ([`TriangleCtx`], [`EdgeIndex`]) take
//!   [`CsrGraph`] itself — their kernels lean on random access into
//!   raw arc arrays.
//! * [`OverlayGraph`] — a mutable edge-delta overlay over an immutable
//!   CSR base, with threshold compaction through the parallel builder;
//!   the logical-graph type behind batch-dynamic maintenance.
//! * [`gen`] — synthetic generators covering every graph family used in
//!   the paper's evaluation (grids, cubes, meshes, road-like networks,
//!   RMAT / Barabási–Albert power-law graphs, planted-core web-like
//!   graphs, k-NN graphs, and the adversarial HCNS construction).
//! * [`io`] — edge-list text, adjacency-graph text, and the compact
//!   `KCOREGR1` binary format; every reader validates what it reads.
//! * [`stats`] — degree statistics used by the benchmark tables.
//! * [`edges`] / [`triangles`] — the edge-id view ([`EdgeIndex`]) and
//!   parallel triangle primitives that back *edge* peeling (k-truss):
//!   dense undirected-edge ids over the CSR arcs, per-edge triangle
//!   supports, and per-edge triangle enumeration.
//! * [`dodg`] — the fused triangle setup ([`TriangleCtx`]) over the
//!   degree-ordered directed view: one parallel pass builds the edge
//!   ids, the orientation, and the initial supports, and every
//!   intersection dispatches the kernel its list lengths call for
//!   (merge, or a probe of a lazily built hub bitmap).
//!
//! The paper's graphs reach terabyte scale; this crate targets
//! laptop-scale analogs of the same families (the generators in
//! [`gen`]), so vertex ids are [`u32`].

pub mod backend;
pub mod builder;
pub mod csr;
pub mod dodg;
pub mod edges;
pub mod gen;
pub mod io;
pub mod overlay;
pub mod stats;
pub mod triangles;

pub use backend::GraphBackend;
pub use builder::{GraphBuilder, StreamBuilder};
pub use csr::{CsrGraph, VertexId};
pub use dodg::TriangleCtx;
pub use edges::EdgeIndex;
pub use overlay::OverlayGraph;
pub use stats::{GraphStats, MemoryFootprint};
