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
//! where one block holds most of the arc work. Two schedules of the
//! identical computation are compared at each thread count:
//!
//! * `static-spawn` — the rayon shim's *previous* design, reproduced
//!   verbatim: spawn one scoped OS thread per contiguous equal block,
//!   every pass (no work stealing, no pool reuse);
//! * `stealing` — the shim's persistent Chase–Lev pool (blocks split
//!   lazily; idle workers steal), pool built outside the timing loop
//!   exactly as a real decomposition holds it across subrounds.
//!
//! On a single hardware core the win is the eliminated per-pass
//! spawn/join cost; with real cores the steal counters printed next to
//! the timings turn into wall-clock rebalancing of the hub block as
//! well. Steal/split deltas come from
//! `kcore_parallel::pool::scheduler_delta`.

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
                Decomposition::kcore(g).exact_config(Config::with_techniques(techniques)).run();
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
                        b.iter(|| black_box(Decomposition::kcore(g).exact_config(config).run()))
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

/// One static block, executed through the shim's own sequential drive
/// path: sub-2048 chunks are below the shim's inline threshold, so they
/// always run on the calling thread through the identical dyn-sink
/// iterator machinery. Both schedules therefore pay the same per-item
/// cost, and the comparison isolates *scheduling* — spawn-per-pass
/// static blocks vs the persistent stealing pool.
fn static_block_sum(g: &CsrGraph, lo: usize, hi: usize) -> u64 {
    let mut acc = 0u64;
    let mut a = lo;
    while a < hi {
        let b = (a + 2047).min(hi);
        let part: u64 = (a as u32..b as u32).into_par_iter().map(|v| scan_vertex(g, v)).sum();
        acc = acc.wrapping_add(part);
        a = b;
    }
    acc
}

/// The old shim's schedule, reproduced: per pass, spawn one scoped OS
/// thread per contiguous equal block. Hubs share a block, so the skew
/// serializes there; the spawn/join cost recurs every pass.
fn skewed_static(g: &CsrGraph, threads: usize) -> u64 {
    let n = g.num_vertices();
    let mut total = 0u64;
    for _ in 0..SKEW_PASSES {
        let chunk = n.div_ceil(threads);
        let blocks = n.div_ceil(chunk);
        let mut partials = vec![0u64; blocks];
        std::thread::scope(|s| {
            for (b, slot) in partials.iter_mut().enumerate() {
                let lo = b * chunk;
                let hi = ((b + 1) * chunk).min(n);
                s.spawn(move || *slot = static_block_sum(g, lo, hi));
            }
        });
        for p in &partials {
            total = total.wrapping_add(*p);
        }
    }
    total
}

/// The same computation on the work-stealing pool (installed by the
/// caller): one splittable task per pass, workers rebalance the hub
/// block by stealing.
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
    let expected = skewed_static(&g, 1);
    for threads in [2usize, 4] {
        c.bench_function(&format!("skewed-frontier/ba-60000/static-spawn/t{threads}"), |b| {
            b.iter(|| black_box(skewed_static(&g, threads)))
        });
        with_threads(threads, || {
            c.bench_function(&format!("skewed-frontier/ba-60000/stealing/t{threads}"), |b| {
                b.iter(|| black_box(skewed_stealing(&g)))
            });
        });
        // Same answer either way, and the balancing activity on record.
        let (check, delta) = scheduler_delta(|| with_threads(threads, || skewed_stealing(&g)));
        assert_eq!(check, expected, "schedules must agree on the result");
        println!(
            "skewed-frontier/ba-60000/t{threads} steals={} splits={}",
            delta.steals, delta.splits
        );
    }
}

criterion_group!(benches, bench_scalability, bench_skewed_frontier);
kcore_bench::bench_main!(benches);
