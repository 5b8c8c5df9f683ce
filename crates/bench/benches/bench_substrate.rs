//! Substrate microbenchmarks: pack, scan, and the parallel
//! hash bag — the primitives whose constants dominate the peeling loop.

use criterion::{black_box, criterion_group, Criterion};
use kcore_parallel::primitives::{exclusive_scan, pack_index};
use kcore_parallel::HashBag;

const N: usize = 1 << 16;

fn bench_pack(c: &mut Criterion) {
    c.bench_function("substrate/pack_index/even", |b| {
        b.iter(|| pack_index(black_box(N), |i| i % 2 == 0))
    });
    // The predicate reads a value array, as a frontier extraction
    // reads the live priorities.
    let vals: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    c.bench_function("substrate/pack_index/values", |b| {
        b.iter(|| pack_index(black_box(N), |i| vals[i].is_multiple_of(2)))
    });
}

fn bench_scan(c: &mut Criterion) {
    let counts: Vec<usize> = (0..4096).map(|i| i % 7).collect();
    c.bench_function("substrate/exclusive_scan/4096", |b| {
        b.iter(|| exclusive_scan(black_box(&counts)))
    });
}

fn bench_hashbag(c: &mut Criterion) {
    c.bench_function("substrate/hashbag/insert_extract_64k", |b| {
        b.iter(|| {
            let mut bag = HashBag::new(N);
            for v in 0..N as u32 {
                bag.insert(v);
            }
            black_box(bag.extract_all())
        })
    });
}

criterion_group!(benches, bench_pack, bench_scan, bench_hashbag);
kcore_bench::bench_main!(benches);
