//! Storage-equivalence matrix: a graph mmapped zero-copy from a
//! `KCOREGR1` file must be observationally identical to the owned CSR
//! it was saved from.
//!
//! * **coreness**, **densest** and **trussness** results must be
//!   *bit-identical* between the owned and the mmapped graph, on the
//!   seed generator families and on proptest-generated messy edge
//!   lists;
//! * the binary **on-disk format** round-trips through real files, and
//!   corrupt or truncated files are rejected with errors by both the
//!   copying reader and the mapper rather than turned into garbage
//!   graphs.
//!
//! The overlay graph, the other storage the k-core peel runs over, is
//! checked against a full recompute by `proptest_maintain`. Runs use
//! `exact_config` so the matrix is deterministic under the
//! `KCORE_TECHNIQUES` CI legs.

use kcore::{Config, Decomposition};
use kcore_graph::{gen, io, CsrGraph, GraphBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

/// Fresh per-test temp path (the file is removed at scope exit).
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("kcore-backends-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir.join(name))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The mmapped twin of `g`, round-tripped through a real file so the
/// zero-copy path runs.
fn mapped(g: &CsrGraph, tag: &str) -> CsrGraph {
    let path = TempPath::new(&format!("{tag}.kcg"));
    io::save_binary(g, &path.0).expect("save binary");
    io::map_binary(&path.0).expect("map binary")
}

fn seed_family() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("empty", CsrGraph::empty()),
        ("isolated", GraphBuilder::new(5).build()),
        ("cycle", gen::cycle(17)),
        ("grid", gen::grid2d(9, 7)),
        ("ba", gen::barabasi_albert(400, 3, 11)),
        ("er", gen::erdos_renyi(200, 600, 5)),
        ("rmat", gen::rmat(9, 8, 0.57, 0.19, 0.19, 3)),
        ("planted", gen::planted_core(200, 2, 40, 9)),
    ]
}

#[test]
fn coreness_is_bit_identical_across_backends() {
    for (tag, g) in seed_family() {
        let mapped = mapped(&g, &format!("core-{tag}"));
        let config = Config::default();
        let plain = Decomposition::kcore(&g).exact_config(config).run();
        let mmap = Decomposition::kcore(&mapped).exact_config(config).run();
        assert_eq!(plain.coreness(), mmap.coreness(), "{tag}: mmapped drifts");
    }
}

#[test]
fn densest_is_bit_identical_across_backends() {
    for (tag, g) in seed_family() {
        let mapped = mapped(&g, &format!("densest-{tag}"));
        let config = Config::default();
        let plain = Decomposition::densest(&g).exact_config(config).run();
        let mmap = Decomposition::densest(&mapped).exact_config(config).run();
        // f64 equality on purpose: the histogram post-pass is
        // deterministic, so the whole density curve must match bitwise.
        assert_eq!(plain.densities(), mmap.densities(), "{tag}: mmapped curve drifts");
        assert_eq!(plain.best_k(), mmap.best_k(), "{tag}: mmapped best_k drifts");
        assert_eq!(plain.members(), mmap.members(), "{tag}: mmapped membership drifts");
    }
}

#[test]
fn trussness_covered_via_decode_roundtrip_and_mmap() {
    for (tag, g) in seed_family() {
        let mapped = mapped(&g, &format!("truss-{tag}"));
        let config = Config::default();
        let plain = Decomposition::ktruss(&g).exact_config(config).run();
        let mmap = Decomposition::ktruss(&mapped).exact_config(config).run();
        assert_eq!(plain.trussness(), mmap.trussness(), "{tag}: mmapped trussness drifts");
    }
}

#[test]
fn corrupt_and_truncated_files_are_rejected() {
    let g = gen::barabasi_albert(60, 3, 2);
    let bin = TempPath::new("corrupt.kcg");
    io::save_binary(&g, &bin.0).expect("save binary");
    let good = std::fs::read(&bin.0).expect("read back binary");

    // Truncation: drop the tail of the payload.
    std::fs::write(&bin.0, &good[..good.len() - 5]).expect("truncate binary");
    assert!(io::load_binary(&bin.0).is_err(), "truncated binary accepted");
    assert!(io::map_binary(&bin.0).is_err(), "truncated binary mapped");

    // Corrupt magic: both readers must refuse.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    std::fs::write(&bin.0, &bad).expect("corrupt");
    assert!(io::load_binary(&bin.0).is_err(), "bad-magic file accepted by load_binary");
    assert!(io::map_binary(&bin.0).is_err(), "bad-magic file accepted by map_binary");
}

/// Arbitrary messy edge list: duplicates and self-loops allowed — the
/// builder normalizes, the backends must agree on the result.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..48).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..200))
            .prop_map(|(n, edges)| GraphBuilder::new(n).edges(edges).build())
    })
}

proptest! {
    #[test]
    fn arbitrary_graphs_agree_across_backends(g in arb_graph(), case in 0u32..u32::MAX) {
        let mapped = mapped(&g, &format!("prop-{case}"));
        prop_assert_eq!(&mapped, &g);

        let config = Config::default();
        let plain = Decomposition::kcore(&g).exact_config(config).run();
        let mmap = Decomposition::kcore(&mapped).exact_config(config).run();
        prop_assert_eq!(plain.coreness(), mmap.coreness());
    }
}
