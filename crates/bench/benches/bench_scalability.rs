//! Scalability sweep (the paper's Fig. 10 analog): wall-clock runtime
//! under pinned worker-thread counts via
//! `kcore_parallel::pool::with_threads`, techniques on and off, next to
//! the model-predicted self-relative speedup from the run's work /
//! burdened-span counters (`RunStats::predicted_speedup`). The paper
//! sweeps 1..96h cores; this laptop-scale analog recovers the *shape*
//! of the curve — measured time should track the predicted speedup
//! until the machine runs out of cores.
//!
//! The **skewed-frontier sweep** isolates the parallel substrate
//! itself: repeated peel-style passes over a power-law (Barabási–
//! Albert) graph, whose hub vertices cluster at the low end of the
//! index space — the worst case for contiguous static partitioning,
//! where one block holds most of the arc work. The passes run on the
//! rayon shim's persistent Chase–Lev pool (blocks split lazily; idle
//! workers steal), built outside the timing loop exactly as a real
//! decomposition holds it across subrounds, and the steal/split
//! counters from `kcore_parallel::pool::scheduler_delta` are printed
//! next to the timings: with real cores they show the hub block being
//! rebalanced.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, Techniques};
use kcore_graph::{gen, CsrGraph};
use kcore_parallel::pool::{scheduler_delta, with_threads};
use rayon::prelude::*;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const MODEL_CORES: [u64; 6] = [1, 2, 4, 8, 16, 96];

/// Passes per measured iteration of the skewed-frontier sweep — one
/// "pass" stands in for one peeling subround's frontier scan.
const SKEW_PASSES: usize = 20;

fn bench_scalability(c: &mut Criterion) {
    let graphs = [
        ("rmat-s12", gen::rmat(12, 8, 0.57, 0.19, 0.19, 42)),
        ("mesh-80x80", gen::mesh(80, 80)),
        ("ba-10000", gen::barabasi_albert(10_000, 6, 42)),
    ];
    let variants = [("baseline", Techniques::default()), ("techniques", Techniques::all_online())];
    for (gname, g) in &graphs {
        for (vname, techniques) in variants {
            // Model-predicted speedup from one instrumented run: the
            // Fig. 10 curve the measured sweep is compared against.
            let instrumented =
                Decomposition::kcore(g).config(Config::with_techniques(techniques)).run();
            let stats = instrumented.stats();
            let predicted: Vec<String> = MODEL_CORES
                .iter()
                .map(|&p| format!("{p}:{:.2}", stats.predicted_speedup(p)))
                .collect();
            println!("scalability/{gname}/{vname} predicted speedup {}", predicted.join(" "));

            let config = Config::with_techniques(techniques);
            for threads in THREAD_SWEEP {
                c.bench_function(&format!("scalability/{gname}/{vname}/t{threads}"), |b| {
                    // The pool lives outside the timing loop: iterations
                    // measure the decomposition, not thread spawn/join.
                    with_threads(threads, || {
                        b.iter(|| black_box(Decomposition::kcore(g).config(config).run()))
                    })
                });
            }
        }
    }
}

/// Per-vertex frontier work: a neighbor scan whose cost is the vertex's
/// degree — heavily skewed on a power-law graph. Masked to 32 bits so
/// sums over the whole graph stay far from overflow.
#[inline]
fn scan_vertex(g: &CsrGraph, v: u32) -> u64 {
    let mut acc = v as u64;
    for &u in g.neighbors(v) {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u as u64);
    }
    acc & 0xFFFF_FFFF
}

/// The passes on the work-stealing pool (installed by the caller): one
/// splittable task per pass, workers rebalance the hub block by
/// stealing.
fn skewed_stealing(g: &CsrGraph) -> u64 {
    let n = g.num_vertices() as u32;
    let mut total = 0u64;
    for _ in 0..SKEW_PASSES {
        let pass: u64 = (0..n).into_par_iter().map(|v| scan_vertex(g, v)).sum();
        total = total.wrapping_add(pass);
    }
    total
}

fn bench_skewed_frontier(c: &mut Criterion) {
    let g = gen::barabasi_albert(60_000, 8, 7);
    let pass: u64 = g.vertices().map(|v| scan_vertex(&g, v)).sum();
    let expected = SKEW_PASSES as u64 * pass;
    for threads in [2usize, 4] {
        with_threads(threads, || {
            c.bench_function(&format!("skewed-frontier/ba-60000/stealing/t{threads}"), |b| {
                b.iter(|| black_box(skewed_stealing(&g)))
            });
        });
        // The sequential fold's answer, and the balancing activity on record.
        let (check, delta) = scheduler_delta(|| with_threads(threads, || skewed_stealing(&g)));
        assert_eq!(check, expected, "the pool must agree with a sequential fold");
        println!(
            "skewed-frontier/ba-60000/t{threads} steals={} splits={}",
            delta.steals, delta.splits
        );
    }
}

criterion_group!(benches, bench_scalability, bench_skewed_frontier);
kcore_bench::bench_main!(benches);
