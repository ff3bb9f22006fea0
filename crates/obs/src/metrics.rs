//! The metrics hub: named, labeled atomic counters and fixed-bucket
//! histograms.
//!
//! Design: interning is the only locked operation. A substrate asks the
//! hub for a handle **once** (at construction or connection time) and then
//! updates it with relaxed atomics — the hot paths (crawl workers listing
//! directories, FaaS workers finishing tasks, the transfer loop) never
//! touch a lock. Snapshots walk the registry under a read lock and emit a
//! serde-friendly, deterministically ordered [`MetricsSnapshot`].

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared monotonic counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh standalone counter (not registered in any hub).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` and returns the post-add value. Each concurrent caller
    /// observes a distinct value, so stride decisions ("every Nth
    /// event") derived from the return cannot skip a crossing the way
    /// an add-then-load pair can.
    #[inline]
    pub fn add_fetch(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared up/down gauge: a point-in-time level (staging transfers in
/// flight, queue depth) rather than a monotonic count. Cloning shares the
/// underlying cell, so one handle can be incremented from worker threads
/// while another reads the level.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh standalone gauge (not registered in any hub).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (negative to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sum cells store seconds as microseconds so the histogram stays
/// lock-free; 64 bits of microseconds is ~584 000 years of accumulated
/// observation time.
const SUM_SCALE: f64 = 1e6;

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, ascending; an implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// One cell per finite bucket plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A fixed-bucket histogram of non-negative `f64` observations (seconds,
/// bytes, …). Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram with the given ascending finite bucket bounds; an
    /// overflow bucket is added implicitly.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }))
    }

    /// Records one observation. NaN and negative values clamp to 0.0
    /// (the first bucket); `+inf` lands in the overflow bucket but
    /// contributes nothing to the sum, which must stay finite.
    pub fn observe(&self, value: f64) {
        let v = if value.is_nan() || value < 0.0 {
            0.0
        } else {
            value
        };
        // `position` returns `None` for +inf (no finite bound can hold
        // it), selecting the overflow bucket.
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let sum_v = if v.is_finite() { v } else { 0.0 };
        self.0
            .sum_micros
            .fetch_add((sum_v * SUM_SCALE) as u64, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.0.sum_micros.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts, interpolating linearly within the winning bucket.
    ///
    /// Returns `None` when no observations have been recorded. When the
    /// quantile lands in the overflow bucket the highest finite bound is
    /// returned (the histogram cannot see past its bounds) — callers
    /// deriving deadlines clamp against their own ceiling anyway. The
    /// estimate reads the buckets without a lock, so under concurrent
    /// observation it is approximate; deadline derivation only needs the
    /// right order of magnitude.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let q = q.clamp(0.0, 1.0);
        // One pass over the atomics, no scratch allocation: the adaptive
        // batching controller calls this per endpoint per wave, and the
        // hedging deadline derivation per wave — a `Vec` here was
        // measurable churn. `count` is maintained by `observe`, so the
        // total needs no summing pass either.
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.0.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let upper = match self.0.bounds.get(idx) {
                    Some(&b) => b,
                    // Overflow bucket: best estimate is the last bound.
                    None => return Some(*self.0.bounds.last().expect("bounds non-empty")),
                };
                let lower = if idx == 0 {
                    0.0
                } else {
                    self.0.bounds[idx - 1]
                };
                let into = (rank - (seen - c)) as f64 / c as f64;
                return Some(lower + (upper - lower) * into);
            }
        }
        // Only reachable when a racing `observe` bumped `count` before
        // its bucket; treat the missing observation like overflow.
        Some(*self.0.bounds.last().expect("bounds non-empty"))
    }

    fn sample(&self, name: &str, label: Option<&str>) -> HistogramSample {
        HistogramSample {
            name: name.to_string(),
            label: label.map(str::to_string),
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .0
                .bounds
                .iter()
                .copied()
                .map(Some)
                .chain(std::iter::once(None))
                .zip(self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
                .map(|(bound, count)| BucketSample { bound, count })
                .collect(),
        }
    }
}

/// A counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name, e.g. `faas.ws_requests`.
    pub name: String,
    /// Optional label (endpoint, substrate, …).
    pub label: Option<String>,
    /// The value.
    pub value: u64,
}

/// A gauge's level at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name, e.g. `transfer.in_flight`.
    pub name: String,
    /// Optional label (endpoint, substrate, …).
    pub label: Option<String>,
    /// The level.
    pub value: i64,
}

/// One histogram bucket at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSample {
    /// Inclusive upper bound; `None` for the overflow bucket, which is
    /// always last. (JSON has no infinity: serde_json writes a non-finite
    /// `f64` as `null` and cannot read it back, and `null` is what `None`
    /// writes, so snapshots look the same and now round-trip.)
    pub bound: Option<f64>,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Optional label.
    pub label: Option<String>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Per-bucket counts, ascending by bound.
    pub buckets: Vec<BucketSample>,
}

/// A point-in-time view of every registered metric, deterministically
/// ordered by `(name, label)`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges. `default` so snapshots serialized before gauges
    /// existed still deserialize.
    #[serde(default)]
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The value of counter `name` with no label (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_with(name, None)
    }

    /// The value of counter `name` with the given label (0 when absent).
    pub fn counter_with(&self, name: &str, label: Option<&str>) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label.as_deref() == label)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The sum of counter `name` across every label (including the
    /// unlabeled cell). This is how aggregate views of per-endpoint
    /// metrics (e.g. `crawl.files` labeled by endpoint) are read.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The level of gauge `name` with no label (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauge_with(name, None)
    }

    /// The level of gauge `name` with the given label (0 when absent).
    pub fn gauge_with(&self, name: &str, label: Option<&str>) -> i64 {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label.as_deref() == label)
            .map(|g| g.value)
            .unwrap_or(0)
    }
}

type Key = (String, Option<String>);

/// The registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: RwLock<HashMap<Key, Counter>>,
    gauges: RwLock<HashMap<Key, Gauge>>,
    histograms: RwLock<HashMap<Key, Histogram>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or retrieves) the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, None)
    }

    /// Interns (or retrieves) counter `name` with `label`.
    pub fn counter_with(&self, name: &str, label: Option<&str>) -> Counter {
        let key = (name.to_string(), label.map(str::to_string));
        if let Some(c) = self.counters.read().get(&key) {
            return c.clone();
        }
        self.counters.write().entry(key).or_default().clone()
    }

    /// Interns (or retrieves) the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, None)
    }

    /// Interns (or retrieves) gauge `name` with `label`.
    pub fn gauge_with(&self, name: &str, label: Option<&str>) -> Gauge {
        let key = (name.to_string(), label.map(str::to_string));
        if let Some(g) = self.gauges.read().get(&key) {
            return g.clone();
        }
        self.gauges.write().entry(key).or_default().clone()
    }

    /// Interns (or retrieves) the unlabeled histogram `name` with the
    /// given bucket bounds. Bounds are fixed by the first interning call.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, None, bounds)
    }

    /// Interns (or retrieves) histogram `name` with `label`. Bounds are
    /// fixed by the first interning call; a later call requesting
    /// different bounds gets the original layout (debug builds assert,
    /// so divergent registrations are caught in tests).
    pub fn histogram_with(&self, name: &str, label: Option<&str>, bounds: &[f64]) -> Histogram {
        let key = (name.to_string(), label.map(str::to_string));
        if let Some(h) = self.histograms.read().get(&key) {
            debug_assert_eq!(
                h.0.bounds, bounds,
                "histogram {name:?} (label {label:?}) re-interned with different bounds"
            );
            return h.clone();
        }
        let h = self
            .histograms
            .write()
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .clone();
        debug_assert_eq!(
            h.0.bounds, bounds,
            "histogram {name:?} (label {label:?}) re-interned with different bounds"
        );
        h
    }

    /// The current value of counter `(name, label)`; 0 when never
    /// interned.
    pub fn counter_value(&self, name: &str, label: Option<&str>) -> u64 {
        let key = (name.to_string(), label.map(str::to_string));
        self.counters
            .read()
            .get(&key)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// The current level of gauge `(name, label)`; 0 when never interned.
    pub fn gauge_value(&self, name: &str, label: Option<&str>) -> i64 {
        let key = (name.to_string(), label.map(str::to_string));
        self.gauges.read().get(&key).map(Gauge::get).unwrap_or(0)
    }

    /// A deterministic snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSample> = self
            .counters
            .read()
            .iter()
            .map(|((name, label), c)| CounterSample {
                name: name.clone(),
                label: label.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut gauges: Vec<GaugeSample> = self
            .gauges
            .read()
            .iter()
            .map(|((name, label), g)| GaugeSample {
                name: name.clone(),
                label: label.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut histograms: Vec<HistogramSample> = self
            .histograms
            .read()
            .iter()
            .map(|((name, label), h)| h.sample(name, label.as_deref()))
            .collect();
        histograms.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let hub = MetricsHub::new();
        let a = hub.counter("crawl.files");
        let b = hub.counter("crawl.files");
        a.add(5);
        b.incr();
        assert_eq!(hub.counter_value("crawl.files", None), 6);
        assert_eq!(hub.counter_value("crawl.files", Some("ep-0")), 0);
        hub.counter_with("crawl.files", Some("ep-0")).add(2);
        assert_eq!(hub.counter_value("crawl.files", Some("ep-0")), 2);
        assert_eq!(hub.counter_value("crawl.files", None), 6);
    }

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(h.quantile(0.95), None, "empty histogram has no quantile");
        for _ in 0..90 {
            h.observe(0.5); // bucket [0, 1]
        }
        for _ in 0..10 {
            h.observe(3.0); // bucket (2, 4]
        }
        // p50 sits well inside the first bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.0..=1.0).contains(&p50), "p50 {p50}");
        // p95 lands in the (2, 4] bucket, interpolated.
        let p95 = h.quantile(0.95).unwrap();
        assert!((2.0..=4.0).contains(&p95), "p95 {p95}");
        // Monotone in q.
        assert!(h.quantile(0.99).unwrap() >= p95);
        // Overflow bucket clamps to the last finite bound.
        let o = Histogram::new(&[1.0]);
        o.observe(100.0);
        assert_eq!(o.quantile(0.9), Some(1.0));
    }

    /// The two-pass reference implementation the allocation-free
    /// `quantile` replaced: collect all bucket counts into a `Vec`, sum
    /// for the total, then walk. Kept verbatim so the regression test
    /// below can assert the rewrite changed nothing.
    fn quantile_reference(h: &Histogram, q: f64) -> Option<f64> {
        let q = q.clamp(0.0, 1.0);
        let counts: Vec<u64> =
            h.0.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let upper = match h.0.bounds.get(idx) {
                    Some(&b) => b,
                    None => return Some(*h.0.bounds.last().expect("bounds non-empty")),
                };
                let lower = if idx == 0 { 0.0 } else { h.0.bounds[idx - 1] };
                let into = (rank - (seen - c)) as f64 / c as f64;
                return Some(lower + (upper - lower) * into);
            }
        }
        None
    }

    #[test]
    fn quantile_matches_two_pass_reference() {
        let h = Histogram::new(&[0.01, 0.1, 0.5, 1.0, 5.0, 30.0]);
        // Empty: both say None.
        assert_eq!(h.quantile(0.5), quantile_reference(&h, 0.5));
        // A spread hitting every bucket including overflow, with skew.
        for v in [
            0.001, 0.002, 0.05, 0.05, 0.05, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 2.0, 10.0, 100.0,
        ] {
            h.observe(v);
        }
        for i in 0..101 {
            let q = i as f64 / 100.0;
            assert_eq!(h.quantile(q), quantile_reference(&h, q), "q = {q}");
        }
        // Out-of-range q clamps identically.
        assert_eq!(h.quantile(-1.0), quantile_reference(&h, -1.0));
        assert_eq!(h.quantile(7.0), quantile_reference(&h, 7.0));
        // Single-bucket degenerate histogram.
        let o = Histogram::new(&[1.0]);
        o.observe(0.2);
        o.observe(42.0);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(o.quantile(q), quantile_reference(&o, q), "q = {q}");
        }
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-3);
        let s = h.sample("t", None);
        let counts: Vec<u64> = s.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 2, 1, 1]);
        assert_eq!(s.buckets.last().unwrap().bound, None);
        assert_eq!(s.buckets[2].bound, Some(10.0));
    }

    #[test]
    fn degenerate_observations_are_clamped() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(-3.0);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 3);
        // NaN and negatives clamp to 0.0 (first bucket); +inf overflows.
        let s = h.sample("t", None);
        assert_eq!(s.buckets[0].count, 2);
        assert_eq!(s.buckets[1].count, 1);
        // +inf contributes nothing to the sum, which stays finite.
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn add_fetch_returns_distinct_post_values_under_contention() {
        let c = Counter::new();
        let threads = 8;
        let per_thread = 1_000u64;
        let seen: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let c = c.clone();
                    s.spawn(move || (0..per_thread).map(|_| c.add_fetch(1)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut seen = seen;
        seen.sort_unstable();
        // Every crossing 1..=N observed exactly once across all threads.
        let expected: Vec<u64> = (1..=threads * per_thread).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn gauges_intern_share_and_go_both_ways() {
        let hub = MetricsHub::new();
        let a = hub.gauge("transfer.in_flight");
        let b = hub.gauge("transfer.in_flight");
        a.inc();
        a.inc();
        b.dec();
        assert_eq!(hub.gauge_value("transfer.in_flight", None), 1);
        b.add(-5);
        assert_eq!(a.get(), -4);
        b.set(7);
        assert_eq!(hub.gauge_value("transfer.in_flight", None), 7);
        assert_eq!(hub.gauge_value("absent", None), 0);
        let snap = hub.snapshot();
        assert_eq!(snap.gauge("transfer.in_flight"), 7);
        assert_eq!(snap.gauge_with("transfer.in_flight", Some("ep-0")), 0);
    }

    #[test]
    fn snapshots_without_gauges_still_deserialize() {
        // A snapshot serialized before gauges existed has no `gauges`
        // key; `#[serde(default)]` must fill in an empty vec.
        let json = r#"{"counters":[{"name":"x","label":null,"value":3}],"histograms":[]}"#;
        let snap: MetricsSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(snap.counter("x"), 3);
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.gauge("anything"), 0);
    }

    #[test]
    fn counter_sum_aggregates_across_labels() {
        let hub = MetricsHub::new();
        hub.counter_with("crawl.files", Some("ep-0")).add(3);
        hub.counter_with("crawl.files", Some("ep-1")).add(4);
        hub.counter("crawl.files").add(1);
        hub.counter("other").add(100);
        let snap = hub.snapshot();
        assert_eq!(snap.counter_sum("crawl.files"), 8);
        assert_eq!(snap.counter_sum("absent"), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different bounds")]
    fn divergent_histogram_bounds_are_caught_in_debug() {
        let hub = MetricsHub::new();
        hub.histogram("lat", &[0.5, 2.0]);
        hub.histogram("lat", &[1.0, 4.0]);
    }

    #[test]
    fn snapshot_is_deterministic_and_serde_round_trips() {
        let hub = MetricsHub::new();
        hub.counter_with("b.z", None).add(1);
        hub.counter_with("a.z", Some("ep-1")).add(2);
        hub.counter_with("a.z", Some("ep-0")).add(3);
        hub.histogram("lat", &[0.5, 2.0]).observe(1.0);
        let snap = hub.snapshot();
        let names: Vec<(&str, Option<&str>)> = snap
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.label.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("a.z", Some("ep-0")), ("a.z", Some("ep-1")), ("b.z", None)]
        );
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter_with("a.z", Some("ep-1")), 2);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let hub = std::sync::Arc::new(MetricsHub::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let hub = hub.clone();
                s.spawn(move || {
                    // Re-interning on every iteration also exercises the
                    // read-lock fast path under contention.
                    for i in 0..per_thread {
                        hub.counter("hot").incr();
                        hub.histogram("h", &[0.5]).observe((i % 2) as f64);
                    }
                });
            }
        });
        assert_eq!(hub.counter_value("hot", None), threads * per_thread);
        let snap = hub.snapshot();
        assert_eq!(snap.histograms[0].count, threads * per_thread);
    }

    proptest! {
        #[test]
        fn histogram_count_equals_bucket_sum(values in proptest::collection::vec(0.0f64..100.0, 1..200)) {
            let h = Histogram::new(&[0.1, 1.0, 10.0, 50.0]);
            for &v in &values {
                h.observe(v);
            }
            let s = h.sample("p", None);
            let total: u64 = s.buckets.iter().map(|b| b.count).sum();
            prop_assert_eq!(total, values.len() as u64);
            prop_assert_eq!(s.count, values.len() as u64);
            let expected: f64 = values.iter().sum();
            prop_assert!((s.sum - expected).abs() < 1e-3 * values.len() as f64 + 1e-6);
        }

        #[test]
        fn counters_sum_across_interleavings(adds in proptest::collection::vec(0u64..1000, 1..50)) {
            let hub = MetricsHub::new();
            for &n in &adds {
                hub.counter("x").add(n);
            }
            prop_assert_eq!(hub.counter_value("x", None), adds.iter().sum::<u64>());
        }
    }
}
