//! Concurrency semantics of the metric primitives: every record issued by
//! any thread is observed exactly once in the final value, for each metric
//! kind. Runs in its own process, so it owns the global enablement flag;
//! the tests still serialize on a local mutex because the harness runs
//! them on parallel threads.

use std::sync::Mutex;
use std::time::Duration;

use pa_telemetry as telemetry;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn with_enabled_registry(f: impl FnOnce()) {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    f();
    telemetry::set_enabled(false);
}

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counter_adds_are_not_lost_across_threads() {
    with_enabled_registry(|| {
        let c = telemetry::counter("test.conc.counter");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER_THREAD);
    });
}

#[test]
fn histogram_count_and_sum_are_exact_across_threads() {
    with_enabled_registry(|| {
        let h = telemetry::histogram("test.conc.histogram");
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        let n = THREADS as u64 * PER_THREAD;
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), n - 1);
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(bucket_total, n, "every observation lands in one bucket");
    });
}

#[test]
fn timer_spans_from_threads_all_register() {
    with_enabled_registry(|| {
        let spans_per_thread = 50u64;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(move || {
                    for _ in 0..spans_per_thread {
                        let _span = telemetry::span("test.conc.timer");
                    }
                });
            }
        });
        let t = telemetry::timer("test.conc.timer");
        assert_eq!(t.count(), THREADS as u64 * spans_per_thread);
        assert!(t.max_nanos() <= t.total_nanos());
    });
}

#[test]
fn timer_record_accumulates_exactly() {
    with_enabled_registry(|| {
        let t = telemetry::timer("test.conc.timer_exact");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.record(Duration::from_nanos(7));
                    }
                });
            }
        });
        assert_eq!(t.count(), THREADS as u64 * 100);
        assert_eq!(t.total_nanos(), THREADS as u64 * 100 * 7);
        assert_eq!(t.max_nanos(), 7);
    });
}

#[test]
fn series_under_contention_keeps_every_push_up_to_cap() {
    with_enabled_registry(|| {
        let s = telemetry::series("test.conc.series");
        let pushes = (telemetry::SERIES_CAP / THREADS) as u64;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..pushes {
                        s.push(i as f64);
                    }
                });
            }
        });
        assert_eq!(s.values().len(), THREADS * pushes as usize);
        assert_eq!(s.truncated(), 0);
    });
}

#[test]
fn gauge_set_max_converges_to_global_maximum() {
    with_enabled_registry(|| {
        let g = telemetry::gauge("test.conc.gauge");
        std::thread::scope(|scope| {
            for t in 0..THREADS as i64 {
                let g = &g;
                scope.spawn(move || {
                    for i in 0..1000 {
                        g.set_max(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(g.value(), (THREADS as i64 - 1) * 1000 + 999);
    });
}

#[test]
fn concurrent_registration_yields_one_metric_per_name() {
    with_enabled_registry(|| {
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(move || {
                    for _ in 0..100 {
                        telemetry::counter("test.conc.registration").inc();
                    }
                });
            }
        });
        assert_eq!(
            telemetry::counter("test.conc.registration").value(),
            THREADS as u64 * 100,
            "all threads resolved the same counter"
        );
    });
}
