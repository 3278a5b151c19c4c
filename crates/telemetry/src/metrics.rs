//! The metric primitives. All of them are internally synchronized
//! (atomics, or a mutex for [`Series`]) and check the global enablement
//! flag on every record call, so instrumented code can hold handles and
//! record unconditionally.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::registry::enabled;

/// Values beyond this many entries are dropped from a [`Series`] (the
/// `truncated` count records how many); keeps an unbounded trajectory from
/// growing without limit in a long-running process.
pub const SERIES_CAP: usize = 16_384;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Accumulated wall-clock time of a named operation.
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Timer {
    /// Records one observation (no-op while telemetry is disabled).
    pub fn record(&self, elapsed: Duration) {
        if !enabled() {
            return;
        }
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total accumulated nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// Largest single observation in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_nanos.store(0, Ordering::Relaxed);
        self.max_nanos.store(0, Ordering::Relaxed);
    }
}

/// A drop guard that records its lifetime into a [`Timer`].
///
/// Created by [`crate::span`]. While telemetry is disabled the guard is
/// inert: it neither reads the clock nor touches the registry.
#[derive(Debug)]
pub struct Span {
    running: Option<(Arc<Timer>, Instant)>,
}

impl Span {
    pub(crate) fn started(timer: Arc<Timer>) -> Span {
        Span {
            running: Some((timer, Instant::now())),
        }
    }

    pub(crate) fn disabled() -> Span {
        Span { running: None }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.running.take() {
            timer.record(start.elapsed());
        }
    }
}

/// Number of histogram buckets: bucket `i < 64` counts values whose
/// bit-length is `i` (i.e. `v == 0` lands in bucket 0, otherwise bucket
/// `64 - v.leading_zeros()`), giving power-of-two-ish resolution over the
/// whole `u64` range without configuration.
const BUCKETS: usize = 65;

/// A lock-free histogram of `u64` observations with power-of-two buckets.
///
/// Alongside the buckets it tracks count, sum, min and max, so snapshots
/// can report exact means and ranges even though bucket edges are coarse.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a value: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`, saturating).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation (no-op while telemetry is disabled).
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records `times` observations of the same value at the cost of one
    /// (no-op while telemetry is disabled or for `times == 0`).
    pub fn record_n(&self, v: u64, times: u64) {
        if !enabled() || times == 0 {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(times, Ordering::Relaxed);
        self.count.fetch_add(times, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(times), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// increasing bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper_bound(i), c))
            })
            .collect()
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An ordered trajectory of `f64` observations (e.g. the residual after
/// each value-iteration sweep). Pushes past [`SERIES_CAP`] are counted but
/// dropped.
#[derive(Debug, Default)]
pub struct Series {
    values: Mutex<Vec<f64>>,
    truncated: AtomicU64,
}

impl Series {
    /// Appends one observation (no-op while telemetry is disabled).
    pub fn push(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut values = self.values.lock().expect("series mutex poisoned");
        if values.len() < SERIES_CAP {
            values.push(v);
        } else {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of the recorded trajectory.
    pub fn values(&self) -> Vec<f64> {
        self.values.lock().expect("series mutex poisoned").clone()
    }

    /// Number of observations dropped at the cap.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.values.lock().expect("series mutex poisoned").clear();
        self.truncated.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_guard;

    #[test]
    fn bucket_edges_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is >= the value.
        for v in [0u64, 1, 5, 1024, 1 << 40, u64::MAX] {
            assert!(bucket_upper_bound(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = test_guard(false);
        let c = Counter::default();
        c.add(5);
        assert_eq!(c.value(), 0);
        let h = Histogram::default();
        h.record(9);
        assert_eq!(h.count(), 0);
        let s = Series::default();
        s.push(1.0);
        assert!(s.values().is_empty());
        let g = Gauge::default();
        g.set(7);
        g.set_max(9);
        assert_eq!(g.value(), 0);
        let t = Timer::default();
        t.record(Duration::from_millis(1));
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn histogram_tracks_exact_summary() {
        let _g = test_guard(true);
        let h = Histogram::default();
        for v in [0u64, 1, 3, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        let buckets = h.nonzero_buckets();
        // 0 -> le 0; 1 -> le 1; 3,3 -> le 3; 100 -> le 127.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (127, 1)]);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn bulk_records_equal_repeated_records() {
        let _g = test_guard(true);
        let (bulk, single) = (Histogram::default(), Histogram::default());
        bulk.record_n(3, 4);
        bulk.record_n(7, 0);
        bulk.record_n(1, 1);
        for v in [3u64, 3, 3, 3, 1] {
            single.record(v);
        }
        assert_eq!(bulk.count(), single.count());
        assert_eq!(bulk.sum(), single.sum());
        assert_eq!((bulk.min(), bulk.max()), (single.min(), single.max()));
        assert_eq!(bulk.nonzero_buckets(), single.nonzero_buckets());
    }

    #[test]
    fn series_caps_and_counts_truncation() {
        let _g = test_guard(true);
        let s = Series::default();
        for i in 0..(SERIES_CAP + 3) {
            s.push(i as f64);
        }
        assert_eq!(s.values().len(), SERIES_CAP);
        assert_eq!(s.truncated(), 3);
        s.reset();
        assert!(s.values().is_empty());
        assert_eq!(s.truncated(), 0);
    }

    #[test]
    fn gauge_set_max_is_monotone() {
        let _g = test_guard(true);
        let g = Gauge::default();
        g.set_max(4);
        g.set_max(2);
        assert_eq!(g.value(), 4);
        g.add(-1);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn timer_accumulates_and_maxes() {
        let _g = test_guard(true);
        let t = Timer::default();
        t.record(Duration::from_nanos(10));
        t.record(Duration::from_nanos(30));
        assert_eq!(t.count(), 2);
        assert_eq!(t.total_nanos(), 40);
        assert_eq!(t.max_nanos(), 30);
    }
}
