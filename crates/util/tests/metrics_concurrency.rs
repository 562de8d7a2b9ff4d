//! Concurrency tests for the lock-free metrics primitives: many
//! threads hammer the same histogram/counter/registry while a reader
//! takes snapshots, and every recorded sample must be accounted for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};

#[test]
fn histogram_hammered_from_many_threads_keeps_invariants() {
    let hist = Arc::new(ConcurrentHistogram::new());
    let threads = 8u64;
    let per_thread = 50_000u64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                // Each thread records a known arithmetic ramp offset by
                // its id, so the merged distribution is deterministic.
                for i in 0..per_thread {
                    hist.record(1 + (i * threads + t) % 10_000);
                }
            });
        }
    });

    let snap = hist.snapshot();
    // Count invariant: not one sample lost, despite striping.
    assert_eq!(snap.count(), threads * per_thread);
    assert_eq!(hist.count(), threads * per_thread);

    // The values are uniform over [1, 10_000]; percentile estimates
    // must be monotone and land in the recorded range (the histogram
    // is bucketed, so allow bucket-boundary slack above the max).
    let p50 = snap.percentile(50.0);
    let p90 = snap.percentile(90.0);
    let p99 = snap.percentile(99.0);
    assert!(snap.min() >= 1, "min {} below recorded range", snap.min());
    assert!(p50 <= p90 && p90 <= p99, "percentiles not monotone");
    assert!(
        (2_500..=7_500).contains(&p50),
        "p50 {p50} implausible for uniform[1,10000]"
    );
    assert!(p99 >= 9_000, "p99 {p99} implausible for uniform[1,10000]");
    assert!(snap.max() >= 9_999, "max {} lost the tail", snap.max());
}

#[test]
fn histogram_snapshots_race_with_writers() {
    let hist = Arc::new(ConcurrentHistogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 8u64;
    let per_thread = 20_000u64;

    std::thread::scope(|scope| {
        // A reader snapshots continuously; each observed count must be
        // monotonically non-decreasing and never exceed the final total.
        {
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let c = hist.snapshot().count();
                    assert!(c >= last, "snapshot count went backwards: {last} -> {c}");
                    assert!(c <= writers * per_thread);
                    last = c;
                }
            });
        }
        for _ in 0..writers {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..per_thread {
                    hist.record(i % 1_000);
                }
            });
        }
        // Writers' scope handles join before the reader is told to stop:
        // spawn a watchdog that flips the flag once all samples landed.
        {
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while hist.count() < writers * per_thread {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(hist.snapshot().count(), writers * per_thread);
}

#[test]
fn registry_counters_and_histograms_hammered_concurrently() {
    let registry = Arc::new(MetricsRegistry::new());
    let threads = 8u64;
    let per_thread = 10_000u64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                // Every thread fetches the same instruments by name —
                // registration is idempotent and hands back the shared
                // primitive.
                let ops = registry.counter("test.ops");
                let lat = registry.histogram("test.latency_ns");
                let depth = registry.gauge("test.depth");
                for i in 0..per_thread {
                    ops.inc();
                    lat.record_duration(Duration::from_nanos(100 + (i * threads + t) % 500));
                    if i % 2 == 0 {
                        depth.add(1);
                    } else {
                        depth.sub(1);
                    }
                }
            });
        }
    });

    let snap = registry.snapshot();
    assert_eq!(snap.counters["test.ops"], threads * per_thread);
    assert_eq!(snap.gauges["test.depth"], 0);
    let h = &snap.histograms["test.latency_ns"];
    assert_eq!(h.count, threads * per_thread);
    assert!(h.min >= 100 && h.p50 >= h.min && h.p99 >= h.p50);
    // The exposition stays coherent under the same snapshot.
    let text = snap.to_text();
    let row = |name: &str| {
        text.lines()
            .find(|l| l.split_whitespace().next() == Some(name))
    };
    let ops = snap.counters["test.ops"];
    assert!(row("test.ops").is_some_and(|l| l.ends_with(&format!(" {ops}"))));
    let columns = format!("count={} sum={} ", h.count, h.sum);
    assert!(row("test.latency_ns").is_some_and(|l| l.contains(&columns)));
}

#[test]
fn counter_add_is_lossless_across_threads() {
    let c = Arc::new(Counter::default());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let c = Arc::clone(&c);
            scope.spawn(move || {
                for i in 0..100_000u64 {
                    if i % 16 == 0 {
                        c.add(3);
                    } else {
                        c.inc();
                    }
                }
            });
        }
    });
    let per = 100_000u64 / 16 * 3 + (100_000 - 100_000 / 16);
    assert_eq!(c.get(), 8 * per);
}
