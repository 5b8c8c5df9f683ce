//! Build-path benchmarks: how a graph gets into memory.
//!
//! * **ingest**: `StreamBuilder` (sharded counting-sort build) vs the
//!   historical collect-then-`par_sort` path, on the same ≥1.2M-edge
//!   synthetic stream, as an interleaved A/B pair so the comparison
//!   shares cache and frequency state. The two paths are asserted
//!   bit-identical once before timing.
//! * **load**: `load_binary` reading the serialized stream graph back,
//!   validation included.

use criterion::{black_box, criterion_group, Criterion};
use kcore_bench::baseline::from_symmetric_arcs_by_sort;
use kcore_graph::builder::StreamBuilder;
use kcore_graph::{io, VertexId};

/// Vertex count of the synthetic stream (power-law-ish degree skew via
/// quadratic collision of a multiplicative hash).
const STREAM_N: usize = 1 << 19;
/// Input edge count of the synthetic stream: 1.25M directed pairs
/// before symmetrization/dedup.
const STREAM_M: usize = 1_250_000;

/// Deterministic pseudo-random edge stream, regenerated identically
/// for every consumer — stands in for a file-backed edge list without
/// timing the parse.
fn stream_edges() -> impl Iterator<Item = (VertexId, VertexId)> {
    let n = STREAM_N as u64;
    (0..STREAM_M as u64).map(move |i| {
        let h1 = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let h2 = i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(31);
        // Square one coordinate's hash down so low ids are hit far more
        // often: a crude power-law source that makes dedup non-trivial.
        let u = ((h1 % n) * (h1 % n)) / n;
        let v = h2 % n;
        (u as VertexId, v as VertexId)
    })
}

fn build_by_stream() -> kcore_graph::CsrGraph {
    let mut sb = StreamBuilder::new(STREAM_N);
    sb.push_chunk(stream_edges());
    sb.build()
}

fn build_by_sort() -> kcore_graph::CsrGraph {
    let mut arcs = Vec::with_capacity(2 * STREAM_M);
    for (u, v) in stream_edges() {
        if u != v {
            arcs.push((u, v));
            arcs.push((v, u));
        }
    }
    from_symmetric_arcs_by_sort(STREAM_N, arcs)
}

fn bench_ingest(c: &mut Criterion) {
    // Both paths must produce the same graph before the race starts.
    let a = build_by_stream();
    let b = build_by_sort();
    assert_eq!(a, b, "counting-sort build diverged from the sort path");
    let m = a.num_edges();
    println!(
        "build/ingest: {STREAM_M} streamed pairs -> n = {}, m = {m} after dedup",
        a.num_vertices()
    );

    // Interleaved A/B: criterion alternates the two bench closures in
    // program order, so both see the same thermal/cache regime.
    c.bench_function("build/ingest/stream-countsort", |bch| {
        bch.iter(|| black_box(build_by_stream()))
    });
    c.bench_function("build/ingest/collect-parsort", |bch| bch.iter(|| black_box(build_by_sort())));
}

fn bench_load(c: &mut Criterion) {
    let g = build_by_stream();
    let dir = std::env::temp_dir().join(format!("kcore-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("bench_build.kcg");
    io::save_binary(&g, &path).expect("save binary");

    c.bench_function("build/load/read-copy", |b| {
        b.iter(|| black_box(io::load_binary(&path).expect("load")))
    });

    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_ingest, bench_load);
kcore_bench::bench_main!(benches);
