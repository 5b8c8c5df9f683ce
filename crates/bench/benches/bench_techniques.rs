//! Technique ablation (the paper's Tab. 3 axes): the plain framework
//! against each Sec. 4 technique alone and the combined online design —
//! plus the sequential BZ baseline that every speedup is judged by.

use criterion::{black_box, criterion_group, Criterion};
use kcore::bz::bz_coreness;
use kcore::{Config, Decomposition, Sampling, Techniques, Vgc};
use kcore_graph::gen;

fn variants() -> Vec<(&'static str, Techniques)> {
    let sampling = Some(Sampling::default());
    let vgc = Some(Vgc::default());
    vec![
        ("baseline", Techniques::default()),
        ("sampling", Techniques { sampling, ..Techniques::default() }),
        ("vgc", Techniques { vgc, ..Techniques::default() }),
        ("sampling+vgc", Techniques { sampling, vgc }),
    ]
}

fn bench_technique_ablation(c: &mut Criterion) {
    let graphs = [
        ("mesh-60x60", gen::mesh(60, 60)),
        ("rmat-s11", gen::rmat(11, 8, 0.57, 0.19, 0.19, 42)),
        ("ba-8000", gen::barabasi_albert(8000, 8, 42)),
    ];
    for (name, g) in &graphs {
        for (vname, techniques) in variants() {
            let config = Config::with_techniques(techniques);
            c.bench_function(&format!("techniques/{name}/{vname}"), |b| {
                b.iter(|| black_box(Decomposition::kcore(g).config(config).run()))
            });
        }
        c.bench_function(&format!("techniques/{name}/bz-sequential"), |b| {
            b.iter(|| black_box(bz_coreness(g)))
        });
    }
}

criterion_group!(benches, bench_technique_ablation);
kcore_bench::bench_main!(benches);
