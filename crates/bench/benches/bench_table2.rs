//! Tab. 2 analog: decomposition time and structure (k_max, peeling
//! complexity rho) across every graph family. The timed runs use the
//! default configuration (VGC on); rho is the subround count of the
//! plain framework of Alg. 1, which VGC would collapse.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, Techniques};
use kcore_bench::standard_suite;

fn bench_families(c: &mut Criterion) {
    let plain = Config::with_techniques(Techniques::default());
    for bg in standard_suite() {
        // Print the table row once (n, m, k_max, rho) so bench output
        // doubles as the Tab. 2 data source.
        let result = Decomposition::kcore(&bg.graph).config(plain).run();
        println!(
            "table2: {:<20} n={:<8} m={:<9} kmax={:<5} rho={}",
            bg.name,
            bg.graph.num_vertices(),
            bg.graph.num_edges(),
            result.kmax(),
            result.stats().subrounds,
        );
        c.bench_function(&format!("table2/{}", bg.name), |b| {
            b.iter(|| black_box(Decomposition::kcore(&bg.graph).run()))
        });
    }
}

criterion_group!(benches, bench_families);
kcore_bench::bench_main!(benches);
