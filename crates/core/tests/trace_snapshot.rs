//! Span-structure tests for the `kcore-obs` integration: the span tree
//! of a fixed k-core run is pinned (names, nesting, counts — never
//! timings), and the trace's round/subround span counts are required to
//! agree exactly with the engine's own `RunStats` accounting.
//!
//! Tests here force the trace level programmatically, so the
//! `KCORE_TRACE` CI leg cannot change what gets recorded. Each test
//! runs its engine in a dedicated thread and scopes assertions to that
//! thread's trace id; a shared lock serializes them because the
//! recorder is process-global.

use kcore::{sequential_trussness, Config, Decomposition, DynamicGraph, TriangleCtx};
use kcore_graph::triangles::edge_supports;
use kcore_graph::{gen, EdgeIndex};
use kcore_obs::{set_level, Level, TraceReport};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` in a fresh thread with spans enabled and returns its result
/// plus the trace id the thread recorded under.
fn traced<T: Send>(f: impl FnOnce() -> T + Send) -> (T, u32) {
    set_level(Level::Spans);
    kcore_obs::reset();
    std::thread::scope(|s| {
        s.spawn(|| {
            let out = f();
            let tid = TraceReport::current_tid().expect("the run must have recorded spans");
            (out, tid)
        })
        .join()
        .unwrap()
    })
}

#[test]
fn span_tree_of_a_fixed_minbucket_kcore_run_is_pinned() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    let (result, tid) = traced(|| Decomposition::kcore(&g).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    // The default MinBucket unit driver emits one `round` (and one
    // bucket drain) per live k value, one `subround` (and one refile) per
    // frontier wave — exactly the quantities RunStats counts.
    let expected = format!(
        "k-core x1\n\
         \x20 round x{rounds}\n\
         \x20   bucket.drain x{rounds}\n\
         \x20   subround x{subrounds}\n\
         \x20     frontier.refile x{subrounds}\n",
        rounds = stats.rounds,
        subrounds = stats.subrounds,
    );
    assert_eq!(report.span_tree(tid), expected);
}

#[test]
fn ba3000_span_counts_match_run_stats_exactly() {
    let _g = serial();
    // The acceptance instance: a ba-3000 k-core run under
    // KCORE_TRACE=spans must produce a Chrome trace whose round and
    // subround span counts equal RunStats.rounds / .subrounds.
    let g = gen::barabasi_albert(3000, 4, 42);
    let (result, _tid) = traced(|| Decomposition::kcore(&g).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    assert!(stats.rounds > 0 && stats.subrounds > 0);
    assert_eq!(report.span_count("round"), stats.rounds, "round spans vs RunStats.rounds");
    assert_eq!(
        report.span_count("subround"),
        stats.subrounds,
        "subround spans vs RunStats.subrounds"
    );
    assert_eq!(report.dropped, 0, "a ba-3000 run must fit the ring");

    // The same counts must survive the Chrome export verbatim.
    let chrome = report.chrome_trace();
    let begins =
        |name: &str| chrome.matches(&format!("{{\"name\":\"{name}\",\"ph\":\"B\"")).count();
    assert_eq!(begins("round") as u64, stats.rounds);
    assert_eq!(begins("subround") as u64, stats.subrounds);
}

#[test]
fn triangle_setup_counters_match_the_reference_count() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    // The reference recount, not `triangle_count`, which reads the
    // context under test.
    let idx = EdgeIndex::build(&g);
    let expected = edge_supports(&g, &idx).iter().map(|&s| s as u64).sum::<u64>() / 3;
    assert!(expected > 0, "the fixture must have triangles");

    let counter = |report: &TraceReport, name: &str| {
        report.counters.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).sum::<u64>()
    };
    let kernel_calls = |report: &TraceReport| {
        ["tri.kernel.merge", "tri.kernel.bitset"]
            .iter()
            .map(|name| counter(report, name))
            .sum::<u64>()
    };
    set_level(Level::Spans);
    kcore_obs::reset();
    let ctx = TriangleCtx::build(&g);
    let report = TraceReport::capture();
    assert_eq!(counter(&report, "tri.triangles"), expected);
    assert!(kernel_calls(&report) > 0, "every intersection tallies its kernel");

    // The peel over that context: the default dispatch sends the
    // fixture's hub pairs through the hub probe.
    kcore_obs::reset();
    let r = Decomposition::ktruss(&g).with_ctx(&ctx).config(Config::default()).run();
    let report = TraceReport::capture();
    set_level(Level::Off);
    assert!(counter(&report, "tri.bitmap.hit") > 0, "the peel takes hub-probe hits");
    assert_eq!(r.trussness(), sequential_trussness(&g).as_slice());

    kcore_obs::reset();
    let report = TraceReport::capture();
    assert_eq!(counter(&report, "tri.triangles"), 0);
    assert_eq!(kernel_calls(&report), 0);
}

#[test]
fn span_tree_of_a_fixed_ktruss_run_is_pinned() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    // Build the triangle context outside the traced thread, so the
    // tree holds only the peel (the `tri.*` setup spans depend on the
    // intersection kernel).
    let ctx = TriangleCtx::build(&g);
    let (_, tid) =
        traced(|| Decomposition::ktruss(&g).with_ctx(&ctx).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);
    // The two-phase snapshot step: settle, then the rule, per subround.
    // Only edges in a triangle are peeled, so no round opens at key 0.
    // After each rule phase, the subround's deaths bring some live list
    // to half its length (on this graph, in every subround), so it
    // compacts.
    let expected = "\
        k-truss x1\n\
        \x20 round x2\n\
        \x20   bucket.drain x2\n\
        \x20   subround x5\n\
        \x20     settle x5\n\
        \x20     rule x5\n\
        \x20     truss.compact x5\n\
        \x20     frontier.refile x5\n";
    assert_eq!(report.span_tree(tid), expected);
}

#[test]
fn span_tree_of_an_uncached_ktruss_run_is_pinned() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    // No context is supplied, so the run builds its own before the
    // peel: the setup spans (names only; the kernel shows up in the
    // `tri.*` counters, not here) then the same peel tree as above.
    let (_, tid) = traced(|| Decomposition::ktruss(&g).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);
    let expected = "\
        tri.build x1\n\
        \x20 tri.orient x1\n\
        \x20 tri.supports x1\n\
        k-truss x1\n\
        \x20 round x2\n\
        \x20   bucket.drain x2\n\
        \x20   subround x5\n\
        \x20     settle x5\n\
        \x20     rule x5\n\
        \x20     truss.compact x5\n\
        \x20     frontier.refile x5\n";
    assert_eq!(report.span_tree(tid), expected);
}

#[test]
fn span_tree_of_a_fixed_khcore_run_is_pinned() {
    let _g = serial();
    let g = gen::planted_core(120, 2, 15, 9);
    let (_, tid) = traced(|| Decomposition::khcore(&g, 2).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);
    // The two-phase recompute step: settle, then the recompute pass.
    // Rounds open only at the 18 keys that hold a live vertex.
    let expected = "\
        kh-core x1\n\
        \x20 round x18\n\
        \x20   bucket.drain x18\n\
        \x20   subround x34\n\
        \x20     settle x34\n\
        \x20     recompute x34\n\
        \x20     frontier.refile x34\n";
    assert_eq!(report.span_tree(tid), expected);
}

#[test]
fn span_tree_of_a_fixed_approx_densest_run_is_pinned() {
    let _g = serial();
    let g = gen::rmat(9, 8, 0.57, 0.19, 0.19, 5);
    let plain = Config::with_techniques(kcore::Techniques::default());
    let (_, tid) = traced(|| Decomposition::approx_densest(&g, 0.5).config(plain).run());
    let report = TraceReport::capture();
    set_level(Level::Off);
    // The threshold frontier source, under the plain framework: every
    // round scans the live aggregates before its bulk drain.
    let expected = "\
        approx-densest x1\n\
        \x20 round x2\n\
        \x20   aggregates x2\n\
        \x20   bucket.drain x2\n\
        \x20   subround x7\n\
        \x20     frontier.refile x7\n";
    assert_eq!(report.span_tree(tid), expected);
}

/// The span tree of one default-config k-core peel with `stats`.
fn kcore_tree(stats: &kcore_parallel::RunStats) -> String {
    format!(
        "k-core x1\n\
         \x20 round x{rounds}\n\
         \x20   bucket.drain x{rounds}\n\
         \x20   subround x{subrounds}\n\
         \x20     frontier.refile x{subrounds}\n",
        rounds = stats.rounds,
        subrounds = stats.subrounds,
    )
}

#[test]
fn densest_run_records_exactly_the_kcore_tree() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    let (result, tid) = traced(|| Decomposition::densest(&g).config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);
    // Densest subgraph is the k-core peel plus an untraced density
    // post-pass, so it records the k-core tree.
    assert_eq!(report.span_tree(tid), kcore_tree(result.stats()));
}

#[test]
fn dynamic_graph_construction_peels_a_kcore_root() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    let (dynamic, tid) = traced(|| DynamicGraph::new(g, Config::default()));
    let report = TraceReport::capture();
    set_level(Level::Off);
    assert_eq!(report.span_tree(tid), kcore_tree(dynamic.result().stats()));
}
