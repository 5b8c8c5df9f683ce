//! Snapshotting recorded data into an exportable report.
//!
//! [`TraceReport::capture`] snapshots every thread buffer plus the
//! counter table without consuming them; [`crate::reset`] clears both
//! and starts a new window. Views:
//!
//! * [`TraceReport::chrome_trace`] — Chrome Trace Event Format JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//! * [`TraceReport::span_aggregates`] — per-span-name counts and total
//!   nanos.
//! * [`TraceReport::span_tree`] — a deterministic text rendering of
//!   the span hierarchy (names, nesting, counts — no timings), which
//!   is what the snapshot test pins.

use crate::registry;
use crate::ring::{self, RecordKind};

/// One decoded record with its name resolved.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    pub nanos: u64,
    pub name: &'static str,
    pub kind: RecordKind,
    pub arg: u64,
}

/// All records from one thread, oldest first.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Dense trace-thread id (buffer registration order).
    pub tid: u32,
    pub records: Vec<TraceRecord>,
}

/// Aggregate for one span name: how often it ran and for how long.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_nanos: u64,
}

/// A snapshot of everything the obs layer recorded since the last
/// [`crate::reset`].
pub struct TraceReport {
    pub threads: Vec<ThreadTrace>,
    pub counters: Vec<(String, u64)>,
    /// Records lost to ring wrap, summed over threads.
    pub dropped: u64,
}

impl TraceReport {
    /// Snapshots all thread buffers and the counter table, leaving
    /// them as they are: a second capture reports every record of the
    /// first again, until [`crate::reset`] starts a new window. Run at
    /// quiescence (no instrumented work in flight) for a coherent
    /// timeline.
    pub fn capture() -> TraceReport {
        let mut threads = Vec::new();
        let mut dropped = 0;
        for (tid, raw, lost) in ring::drain_all() {
            dropped += lost;
            let records = raw
                .iter()
                .map(|r| TraceRecord {
                    nanos: r.nanos,
                    name: registry::name_of(r.name_id),
                    kind: r.kind,
                    arg: r.arg,
                })
                .collect();
            threads.push(ThreadTrace { tid, records });
        }
        TraceReport { threads, counters: registry::counter_snapshot(), dropped }
    }

    /// True if nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.records.is_empty())
            && self.counters.iter().all(|(_, v)| *v == 0)
    }

    /// Number of completed-or-open spans named `name` (counts Begin
    /// records across all threads).
    pub fn span_count(&self, name: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| &t.records)
            .filter(|r| r.kind == RecordKind::Begin && r.name == name)
            .count() as u64
    }

    /// Per-span-name aggregates (count + total nanos of completed
    /// spans), sorted by name.
    pub fn span_aggregates(&self) -> Vec<(String, SpanAgg)> {
        let mut aggs: std::collections::BTreeMap<&str, SpanAgg> = Default::default();
        for t in &self.threads {
            let mut stack: Vec<(&str, u64)> = Vec::new();
            for r in &t.records {
                match r.kind {
                    RecordKind::Begin => {
                        aggs.entry(r.name).or_default().count += 1;
                        stack.push((r.name, r.nanos));
                    }
                    RecordKind::End => {
                        if let Some((name, begin)) = stack.pop() {
                            aggs.entry(name).or_default().total_nanos +=
                                r.nanos.saturating_sub(begin);
                        }
                    }
                }
            }
        }
        aggs.into_iter().map(|(n, a)| (n.to_owned(), a)).collect()
    }

    /// Chrome Trace Event Format. `ts` is microseconds since the
    /// trace epoch; `pid` is always 1; `tid` is the dense trace id.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for t in &self.threads {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"kcore-{}\"}}}}",
                    t.tid, t.tid
                ),
                &mut first,
            );
            for r in &t.records {
                let ts = r.nanos as f64 / 1000.0;
                let ev = match r.kind {
                    RecordKind::Begin => format!(
                        "{{\"name\":{},\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"arg\":{}}}}}",
                        json_str(r.name),
                        t.tid,
                        r.arg
                    ),
                    RecordKind::End => {
                        format!("{{\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}", t.tid)
                    }
                };
                push(ev, &mut first);
            }
        }
        // Counters as a final counter sample each, so the totals are
        // visible on the timeline view too.
        let last_ts =
            self.threads.iter().flat_map(|t| &t.records).map(|r| r.nanos).max().unwrap_or(0) as f64
                / 1000.0;
        for (name, value) in &self.counters {
            push(
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{last_ts:.3},\"pid\":1,\
                     \"args\":{{\"value\":{value}}}}}",
                    json_str(name)
                ),
                &mut first,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Deterministic text rendering of the span hierarchy for one
    /// thread: children are grouped under their parent *by name* with
    /// occurrence counts, so timings and interleavings don't leak in.
    ///
    /// ```text
    /// kcore x1
    ///   round x3
    ///     subround x5
    /// ```
    pub fn span_tree(&self, tid: u32) -> String {
        let mut root = TreeNode::default();
        for t in self.threads.iter().filter(|t| t.tid == tid) {
            let mut path: Vec<&str> = Vec::new();
            for r in &t.records {
                match r.kind {
                    RecordKind::Begin => {
                        path.push(r.name);
                        root.touch(&path);
                    }
                    RecordKind::End => {
                        path.pop();
                    }
                }
            }
        }
        let mut out = String::new();
        root.render(&mut out, 0);
        out
    }

    /// The dense trace id of the calling thread, if it recorded
    /// anything yet. Lets tests scope assertions to their own thread.
    pub fn current_tid() -> Option<u32> {
        ring::current_tid()
    }
}

/// Name-aggregated span tree; insertion-ordered children.
#[derive(Default)]
struct TreeNode {
    children: Vec<(String, u64, TreeNode)>,
}

impl TreeNode {
    fn touch(&mut self, path: &[&str]) {
        let Some((head, rest)) = path.split_first() else { return };
        let child = match self.children.iter_mut().position(|(n, _, _)| n == head) {
            Some(i) => &mut self.children[i],
            None => {
                self.children.push((head.to_string(), 0, TreeNode::default()));
                self.children.last_mut().unwrap()
            }
        };
        if rest.is_empty() {
            child.1 += 1;
        } else {
            child.2.touch(rest);
        }
    }

    fn render(&self, out: &mut String, depth: usize) {
        for (name, count, node) in &self.children {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!("{name} x{count}\n"));
            node.render(out, depth + 1);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
