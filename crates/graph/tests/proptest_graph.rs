//! Property-based tests for the graph substrate: arbitrary edge lists
//! must always produce structurally valid CSR graphs, and every
//! serialization format must round-trip.

use kcore_graph::{gen, io, GraphBuilder, StreamBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy producing an arbitrary (n, edge list) pair with duplicates
/// and self-loops allowed — exactly what GraphBuilder must clean up.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..64).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..256))
    })
}

/// Like [`arb_edges`] but with `n` up to 1200, so the build spans
/// several 256-vertex buckets and a last bucket cut short.
fn arb_wide_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..1200).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..2000))
    })
}

proptest! {
    #[test]
    fn stream_builder_matches_adjacency_oracle(
        (n, edges) in arb_wide_edges(),
        chunks in proptest::collection::vec(1usize..300, 1..8),
    ) {
        // The oracle builds per-vertex neighbour sets directly, with no
        // counting sort in between.
        let mut oracle = vec![BTreeSet::new(); n];
        for &(u, v) in &edges {
            if u != v {
                oracle[u as usize].insert(v);
                oracle[v as usize].insert(u);
            }
        }
        // Push in chunks of the drawn sizes, cycling through them.
        let mut b = StreamBuilder::new(n);
        let mut rest = &edges[..];
        for &len in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            b.push_chunk(chunk.iter().copied());
            rest = tail;
        }
        let g = b.build();
        g.validate();
        prop_assert_eq!(g.num_vertices(), n);
        for (v, want) in oracle.iter().enumerate() {
            prop_assert!(g.neighbors(v as u32).iter().eq(want.iter()), "vertex {}", v);
        }
    }

    #[test]
    fn builder_output_is_always_valid((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        g.validate(); // panics on any invariant violation
    }

    #[test]
    fn builder_is_idempotent((n, edges) in arb_edges()) {
        // Rebuilding from the built graph's own edges is the identity.
        let g = GraphBuilder::new(n).edges(edges).build();
        let h = GraphBuilder::new(n).edges(g.edges()).build();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn degree_sum_equals_arc_count((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, g.num_arcs());
        prop_assert_eq!(g.num_arcs() % 2, 0);
    }

    #[test]
    fn edge_list_round_trips((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let h = io::read_edge_list(&buf[..], n).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn binary_round_trips((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let h = io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn adjacency_graph_round_trips((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let mut buf = Vec::new();
        io::write_adjacency_graph(&g, &mut buf).unwrap();
        let h = io::read_adjacency_graph(&buf[..]).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn induced_subgraph_is_valid_and_monotone(
        (n, edges) in arb_edges(),
        mask_seed in any::<u64>(),
    ) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let keep: Vec<bool> =
            (0..n).map(|v| (mask_seed >> (v % 64)) & 1 == 1).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        sub.validate();
        prop_assert_eq!(sub.num_vertices(), keep.iter().filter(|&&b| b).count());
        prop_assert!(sub.num_edges() <= g.num_edges());
        // Every surviving edge exists in the original graph.
        for (u, v) in sub.edges() {
            prop_assert!(g.has_edge(back[u as usize], back[v as usize]));
        }
    }

    #[test]
    fn erdos_renyi_always_valid(n in 2usize..80, m in 0usize..200, seed in any::<u64>()) {
        let g = gen::erdos_renyi(n, m, seed);
        g.validate();
        prop_assert!(g.num_edges() <= m);
    }

    #[test]
    fn grid_coreness_prerequisites(r in 1usize..12, c in 1usize..12) {
        let g = gen::grid2d(r, c);
        g.validate();
        prop_assert_eq!(g.num_vertices(), r * c);
        prop_assert!(g.max_degree() <= 4);
    }

    #[test]
    fn knn_min_degree(n in 10usize..120, k in 1usize..5, seed in any::<u64>()) {
        let g = gen::knn(n, k, seed);
        g.validate();
        for v in g.vertices() {
            prop_assert!(g.degree(v) >= k);
        }
    }
}
