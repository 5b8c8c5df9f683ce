//! The overhead contract, tested A/B in a dedicated binary (nothing
//! else in this process ever records): with the level forced off, the
//! macros must record nothing and allocate nothing — no thread buffer
//! ever comes into existence. Flipping to `spans` in the same process
//! then proves the very same callsites go live.

use kcore_obs::{counter, set_level, span, Level, TraceReport};

#[test]
fn off_records_nothing_and_allocates_nothing() {
    set_level(Level::Off);
    for i in 0..100u64 {
        let _s = span!("noop.span", i);
        counter!("noop.counter", 1);
    }

    // The obs layer saw none of it: no records, no counters, and — the
    // allocation contract — no per-thread ring buffer was ever created
    // in this process.
    let report = TraceReport::capture();
    assert!(report.is_empty(), "off must record nothing");
    assert!(report.threads.is_empty());
    assert!(report.counters.is_empty());
    assert_eq!(kcore_obs::thread_buffer_count(), 0, "off must not allocate ring buffers");

    // B side: the same callsites record once the level goes up.
    set_level(Level::Spans);
    {
        let _s = span!("noop.span", 1);
        counter!("noop.counter", 1);
    }
    let report = TraceReport::capture();
    assert_eq!(report.span_count("noop.span"), 1);
    assert!(report.counters.iter().any(|(n, v)| n == "noop.counter" && *v == 1));
    assert_eq!(kcore_obs::thread_buffer_count(), 1, "spans allocate exactly this thread's buffer");
    set_level(Level::Off);
}
