//! Shared helpers for the benchmark suite.
//!
//! The paper benchmarks laptop-scale analogs of its graph families
//! (see `kcore_graph::gen`); this crate centralizes the instances every
//! bench file uses so Tab. 2 / Tab. 3 style sweeps stay consistent,
//! and provides [`summary`] — the machine-readable results emitter that
//! turns every `cargo bench` run into a `BENCH_results.json` entry so
//! the perf trajectory is tracked across PRs — and [`baseline`], the
//! historical CSR build that `bench_build` races the current one
//! against.
//!
//! Bench binaries end with [`bench_main!`] instead of
//! `criterion_main!`; it runs the groups and then flushes the shim's
//! collected measurements through [`summary::emit`].

use kcore_graph::CsrGraph;

pub mod baseline;

/// A named benchmark instance.
pub struct BenchGraph {
    pub name: &'static str,
    pub graph: CsrGraph,
}

/// The standard small suite: one representative per family, sized so a
/// full sweep stays in CI budget.
pub fn standard_suite() -> Vec<BenchGraph> {
    use kcore_graph::gen;
    vec![
        BenchGraph { name: "grid2d-100x100", graph: gen::grid2d(100, 100) },
        BenchGraph { name: "cube-20x20x20", graph: gen::grid3d(20, 20, 20) },
        BenchGraph { name: "mesh-80x80", graph: gen::mesh(80, 80) },
        BenchGraph { name: "road-100x100", graph: gen::road(100, 100, 0.15, 0.05, 42) },
        BenchGraph { name: "rmat-s12", graph: gen::rmat(12, 8, 0.57, 0.19, 0.19, 42) },
        BenchGraph { name: "ba-5000", graph: gen::barabasi_albert(5000, 4, 42) },
        BenchGraph { name: "knn-4000-k5", graph: gen::knn(4000, 5, 42) },
        BenchGraph { name: "planted-core-2000", graph: gen::planted_core(2000, 3, 80, 42) },
        BenchGraph { name: "hcns-150", graph: gen::hcns(150) },
    ]
}

/// Runs the given criterion groups, then emits the collected
/// measurements as JSON ([`summary::emit`]) and — when `KCORE_TRACE`
/// recorded anything and `KCORE_TRACE_OUT` names a path — a Chrome
/// trace of the run ([`summary::export_trace`]). Drop-in replacement
/// for `criterion_main!` in this workspace's bench binaries.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::summary::emit();
            $crate::summary::export_trace();
        }
    };
}

pub mod summary {
    //! Machine-readable benchmark summaries.
    //!
    //! Every bench binary (via [`crate::bench_main!`]) drains the
    //! criterion shim's measurement log and merges it into a single
    //! `BENCH_results.json` at the workspace root (override the path
    //! with `KCORE_BENCH_JSON`). Entries are keyed by bench binary:
    //! re-running a binary replaces its own entries and leaves the
    //! others, so one `cargo bench` sweep — or several partial ones —
    //! converges to a complete snapshot. CI uploads the file as an
    //! artifact per run, giving the perf trajectory over time.
    //!
    //! The file is a single JSON object with one entry line per
    //! measurement (see [`Entry`]); the merge parser only accepts files
    //! this module wrote (anything else is overwritten wholesale).

    use std::io::Write;
    use std::path::{Path, PathBuf};

    const SCHEMA: &str = "kcore-bench-summary/v1";

    /// One benchmark measurement, as serialized into the results file.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Entry {
        /// Bench binary stem (e.g. `bench_buckets`).
        pub bin: String,
        /// Benchmark id as printed by the harness.
        pub bench: String,
        /// Mean nanoseconds per iteration.
        pub ns_per_iter: u64,
        /// Iterations measured.
        pub iters: u64,
        /// Worker threads the measurement ran with: `RAYON_NUM_THREADS`
        /// when set, else the actual default pool width — never empty.
        pub rayon_threads: String,
        /// `KCORE_TECHNIQUES` at measurement time; `default` when the
        /// override is unset (the baseline configuration).
        pub techniques: String,
    }

    impl Entry {
        fn to_json_line(&self) -> String {
            format!(
                "    {{\"bin\":{},\"bench\":{},\"ns_per_iter\":{},\"iters\":{},\
                 \"rayon_threads\":{},\"techniques\":{}}}",
                json_str(&self.bin),
                json_str(&self.bench),
                self.ns_per_iter,
                self.iters,
                json_str(&self.rayon_threads),
                json_str(&self.techniques),
            )
        }
    }

    /// Drains the criterion shim's reports and merges them into the
    /// results file. Never panics: benchmarks should not fail because
    /// the summary could not be written (a warning goes to stderr).
    pub fn emit() {
        let reports = criterion::take_reports();
        if reports.is_empty() {
            return;
        }
        let bin = current_bin_stem();
        // Resolve the environment to what *effectively* ran, so entries
        // never carry empty fields: an unset thread override means the
        // default pool width, an unset techniques override means the
        // baseline configuration.
        let set = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty());
        let rayon_threads =
            set("RAYON_NUM_THREADS").unwrap_or_else(|| rayon::current_num_threads().to_string());
        let techniques = set("KCORE_TECHNIQUES").unwrap_or_else(|| "default".to_string());
        let entries: Vec<Entry> = reports
            .into_iter()
            .map(|r| Entry {
                bin: bin.clone(),
                bench: r.id,
                ns_per_iter: r.ns_per_iter,
                iters: r.iters,
                rayon_threads: rayon_threads.clone(),
                techniques: techniques.clone(),
            })
            .collect();
        let path = output_path();
        match merge_into(&path, &bin, entries) {
            Ok(total) => eprintln!("bench summary: {total} entries in {}", path.display()),
            Err(e) => eprintln!("bench summary: cannot write {}: {e}", path.display()),
        }
    }

    /// Merges `entries` (all belonging to bench binary `bin`) into the
    /// results file at `path`: an existing entry is replaced only when
    /// this run re-measured the same `(bin, bench)` pair, so a
    /// *filtered* run (`cargo bench --bench b some-substring`) updates
    /// just the benches it executed and the rest of the snapshot
    /// survives. Returns the total entry count written.
    pub fn merge_into(path: &Path, bin: &str, entries: Vec<Entry>) -> std::io::Result<usize> {
        let bin_marker = format!("\"bin\":{}", json_str(bin));
        let fresh: Vec<String> =
            entries.iter().map(|e| format!("\"bench\":{}", json_str(&e.bench))).collect();
        let mut kept: Vec<String> = Vec::new();
        if let Ok(existing) = std::fs::read_to_string(path) {
            if existing.contains(SCHEMA) {
                for line in existing.lines() {
                    let t = line.trim();
                    let replaced =
                        t.contains(&bin_marker) && fresh.iter().any(|m| t.contains(m.as_str()));
                    if t.starts_with('{') && t.contains("\"bench\":") && !replaced {
                        kept.push(format!("    {}", t.trim_end_matches(',')));
                    }
                }
            }
        }
        kept.extend(entries.iter().map(Entry::to_json_line));
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{{")?;
        writeln!(f, "  \"schema\": \"{SCHEMA}\",")?;
        writeln!(f, "  \"results\": [")?;
        writeln!(f, "{}", kept.join(",\n"))?;
        writeln!(f, "  ]")?;
        writeln!(f, "}}")?;
        Ok(kept.len())
    }

    /// Writes the Chrome Trace Event export of everything `kcore-obs`
    /// recorded during this bench binary to the path in
    /// `KCORE_TRACE_OUT`. No-op when the variable is unset; a warning
    /// when it is set but tracing was off (run with
    /// `KCORE_TRACE=spans` to get a timeline). Load the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn export_trace() {
        let Ok(path) = std::env::var("KCORE_TRACE_OUT") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let report = kcore_obs::TraceReport::capture();
        if report.is_empty() {
            eprintln!(
                "bench trace: nothing recorded (KCORE_TRACE={}); writing an empty trace to {path}",
                kcore_obs::level().as_str()
            );
        }
        match std::fs::write(&path, report.chrome_trace()) {
            Ok(()) => eprintln!("bench trace: wrote {path}"),
            Err(e) => eprintln!("bench trace: cannot write {path}: {e}"),
        }
    }

    /// Results path: `KCORE_BENCH_JSON` if set, else
    /// `BENCH_results.json` at the workspace root (found by walking up
    /// from the bench crate's manifest to the directory holding
    /// `Cargo.lock`), else the current directory.
    fn output_path() -> PathBuf {
        if let Ok(p) = std::env::var("KCORE_BENCH_JSON") {
            return PathBuf::from(p);
        }
        let start = std::env::var("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|_| std::env::current_dir())
            .unwrap_or_default();
        let mut dir = start.as_path();
        loop {
            if dir.join("Cargo.lock").exists() {
                return dir.join("BENCH_results.json");
            }
            match dir.parent() {
                Some(p) => dir = p,
                None => return PathBuf::from("BENCH_results.json"),
            }
        }
    }

    /// The running binary's file stem with cargo's trailing `-<hash>`
    /// stripped (e.g. `bench_buckets-1a2b3c` → `bench_buckets`).
    fn current_bin_stem() -> String {
        let exe = std::env::current_exe().unwrap_or_default();
        let stem = exe.file_stem().and_then(|s| s.to_str()).unwrap_or("bench").to_string();
        match stem.rsplit_once('-') {
            Some((name, hash))
                if !name.is_empty()
                    && hash.len() == 16
                    && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                name.to_string()
            }
            _ => stem,
        }
    }

    /// Minimal JSON string encoder (ids are ASCII; escape the basics).
    fn json_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn entry(bin: &str, bench: &str, ns: u64) -> Entry {
            Entry {
                bin: bin.into(),
                bench: bench.into(),
                ns_per_iter: ns,
                iters: 10,
                rayon_threads: String::new(),
                techniques: String::new(),
            }
        }

        #[test]
        fn merge_replaces_remeasured_entries_and_keeps_the_rest() {
            let dir = std::env::temp_dir().join(format!("kcore-bench-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("merge_test.json");
            let _ = std::fs::remove_file(&path);

            let n = merge_into(&path, "a", vec![entry("a", "a/one", 1), entry("a", "a/two", 2)])
                .unwrap();
            assert_eq!(n, 2);
            let n = merge_into(&path, "b", vec![entry("b", "b/one", 3)]).unwrap();
            assert_eq!(n, 3, "b's entry joins a's");
            // A filtered re-run of `a` measuring only a/one: a/one is
            // replaced in place, a/two and b/one survive.
            let n = merge_into(&path, "a", vec![entry("a", "a/one", 9)]).unwrap();
            assert_eq!(n, 3, "only the re-measured entry is replaced");

            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains(SCHEMA));
            assert!(text.contains("a/two") && text.contains("b/one"));
            assert!(text.contains("\"ns_per_iter\":9"), "a/one must carry the fresh value");
            assert!(!text.contains("\"ns_per_iter\":1,"), "the stale a/one value must be gone");
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn merge_overwrites_foreign_files() {
            let dir = std::env::temp_dir().join(format!("kcore-bench-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("foreign_test.json");
            std::fs::write(&path, "not our format at all").unwrap();
            let n = merge_into(&path, "a", vec![entry("a", "a/one", 1)]).unwrap();
            assert_eq!(n, 1);
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains(SCHEMA) && !text.contains("not our format"));
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn json_strings_are_escaped() {
            assert_eq!(json_str("plain/id-1"), "\"plain/id-1\"");
            assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_nonempty_and_valid() {
        let suite = standard_suite();
        assert!(suite.len() >= 5);
        for bg in &suite {
            assert!(bg.graph.num_vertices() > 0, "{} is empty", bg.name);
            bg.graph.validate();
        }
    }
}
