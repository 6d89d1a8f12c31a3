//! Process-lifetime metrics: counters, gauges, and log-scale histograms
//! behind a named registry with Prometheus-style text exposition.
//!
//! Handles are cheap `Arc`-backed clones over atomics, so the engine keeps
//! the handle it increments on the hot path while the registry renders the
//! same cells on demand — the human-readable stats and the machine-readable
//! exposition read identical storage and can never drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (with a max-tracking helper for
/// high-water marks).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Raise the gauge by `n` (a level that items enter and leave).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the gauge by `n`; the caller pairs every `sub` with an
    /// earlier `add`, so the level never goes below zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i`
/// (1..=64) holds values whose bit length is `i`, i.e. `2^(i-1) <= v < 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value under the log2 scheme. Deterministic: depends
/// only on the value, never on insertion order or timing.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Concurrent log2-bucketed histogram over `u64` samples (latencies are
/// recorded in nanoseconds).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of every recorded sample (the `_sum` series).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a histogram's state. Merging snapshots is a per-bucket
/// wrapping add — the same arithmetic the atomic `record` path uses — which
/// makes merge associative, commutative, and independent of the order
/// samples were recorded in, even in the (unreachable in practice: 2^64 ns
/// ≈ 585 years) overflow regime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        Self::default()
    }

    /// Combine two snapshots (e.g. from per-worker histograms).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_add(other.buckets[i])),
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket such that at least `q` (0..=1) of
    /// the samples fall at or below it. Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Named registry of metrics. Registration is get-or-create, so handing the
/// same name to two subsystems shares one cell; asking for an existing name
/// with a different kind panics (a wiring bug, not a runtime condition).
///
/// A metric may carry multiple *labeled series*: the `_with` constructors
/// take a pre-rendered Prometheus label body (`endpoint="analyze",
/// status="2xx"` — no braces) and register an independent cell per label
/// set under one metric name. The plain constructors are the empty-label
/// case, so an aggregate series and its labeled splits coexist under the
/// same name — exactly what dashboards migrating from the aggregate need.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<(&'static str, &'static str), Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        labels: &'static str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut map = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let metric = map.entry((name, labels)).or_insert_with(make).clone();
        // One name, one kind, across every label set: Prometheus emits a
        // single TYPE line per name, so a mixed-kind name is a wiring bug.
        for ((other_name, _), other) in map.range((name, "")..) {
            if *other_name != name {
                break;
            }
            assert_eq!(
                other.kind(),
                metric.kind(),
                "metric {name:?} registered with conflicting kinds"
            );
        }
        metric
    }

    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, "")
    }

    /// A counter series under `name` distinguished by `labels` (a rendered
    /// Prometheus label body without braces; empty = the unlabeled series).
    pub fn counter_with(&self, name: &'static str, labels: &'static str) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, "")
    }

    /// A gauge series under `name` distinguished by `labels`.
    pub fn gauge_with(&self, name: &'static str, labels: &'static str) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, "")
    }

    /// A histogram series under `name` distinguished by `labels`.
    pub fn histogram_with(&self, name: &'static str, labels: &'static str) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format: one `# TYPE` line per metric name (sorted), then one line —
    /// or one cumulative bucket block — per labeled series. Histogram
    /// buckets are cumulative and elided past the last non-empty bucket;
    /// the mandatory `+Inf` bucket, `_sum`, and `_count` always close the
    /// block.
    pub fn render_prometheus(&self) -> String {
        let metrics: Vec<((&'static str, &'static str), Metric)> = {
            let map = match self.inner.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            map.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), metric) in metrics {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
                last_name = name;
            }
            // `{labels}` suffix for a plain sample line; empty labels mean
            // a bare series name.
            let series_suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{series_suffix} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{series_suffix} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    // `le` joins any series labels inside one brace pair.
                    let le_prefix = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{labels},")
                    };
                    let last_nonzero = snap.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate().take(last_nonzero + 1) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{le_prefix}le=\"{}\"}} {cumulative}",
                            bucket_upper_bound(i)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {}",
                        snap.count
                    );
                    let _ = writeln!(out, "{name}_sum{series_suffix} {}", snap.sum);
                    let _ = writeln!(out, "{name}_count{series_suffix} {}", snap.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every value lands within its bucket's bounds.
        for v in [0u64, 1, 2, 7, 8, 1000, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn histogram_counts_and_mean() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.mean(), 251.5);
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[10], 1); // 1000
    }

    #[test]
    fn quantile_upper_bound_walks_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1 << 20);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_bound(0.5), 1);
        assert_eq!(snap.quantile_upper_bound(1.0), (1u64 << 21) - 1);
        assert_eq!(HistogramSnapshot::empty().quantile_upper_bound(0.9), 0);
    }

    #[test]
    fn registry_is_get_or_create_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("nvp_test_total");
        let b = reg.counter("nvp_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("nvp_test_gauge");
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_panics_on_kind_mismatch() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("nvp_test_total");
        let _ = reg.gauge("nvp_test_total");
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter("nvp_hits_total").add(5);
        reg.gauge("nvp_workers").set(4);
        let h = reg.histogram("nvp_latency_ns");
        h.record(1);
        h.record(3);
        h.record(900);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE nvp_hits_total counter\nnvp_hits_total 5\n"));
        assert!(text.contains("# TYPE nvp_workers gauge\nnvp_workers 4\n"));
        assert!(text.contains("nvp_latency_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("nvp_latency_ns_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("nvp_latency_ns_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("nvp_latency_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("nvp_latency_ns_sum 904\n"));
        assert!(text.contains("nvp_latency_ns_count 3\n"));
    }

    #[test]
    fn labeled_series_share_one_type_line_and_coexist_with_the_aggregate() {
        let reg = MetricsRegistry::new();
        reg.counter("nvp_req_total").add(3);
        reg.counter_with("nvp_req_total", "endpoint=\"analyze\",status=\"2xx\"")
            .add(2);
        reg.counter_with("nvp_req_total", "endpoint=\"sweep\",status=\"4xx\"")
            .inc();
        reg.histogram_with("nvp_req_ns", "endpoint=\"analyze\"")
            .record(5);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE nvp_req_total counter").count(),
            1,
            "one TYPE line per metric name:\n{text}"
        );
        assert!(text.contains("nvp_req_total 3\n"));
        assert!(text.contains("nvp_req_total{endpoint=\"analyze\",status=\"2xx\"} 2\n"));
        assert!(text.contains("nvp_req_total{endpoint=\"sweep\",status=\"4xx\"} 1\n"));
        // Histogram labels and `le` share one brace pair.
        assert!(text.contains("nvp_req_ns_bucket{endpoint=\"analyze\",le=\"7\"} 1\n"));
        assert!(text.contains("nvp_req_ns_sum{endpoint=\"analyze\"} 5\n"));
        assert!(text.contains("nvp_req_ns_count{endpoint=\"analyze\"} 1\n"));
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn labeled_series_cannot_change_the_kind_of_a_name() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("nvp_mixed");
        let _ = reg.histogram_with("nvp_mixed", "endpoint=\"x\"");
    }

    /// Satellite check for the exposition format itself: *parse* the text
    /// and verify every histogram block is spec-compliant — cumulative
    /// bucket counts that never decrease, a final `+Inf` bucket equal to
    /// `_count`, and `le` bounds strictly increasing.
    #[test]
    fn parsed_exposition_has_monotonic_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("nvp_parse_ns");
        for v in [1u64, 1, 3, 9, 1000, 65_000] {
            h.record(v);
        }
        let labeled = reg.histogram_with("nvp_parse_ns", "endpoint=\"healthz\"");
        for v in [2u64, 4, 4, 4096] {
            labeled.record(v);
        }
        let text = reg.render_prometheus();

        // series label body -> (le bounds, cumulative counts), parsed back
        // out of the exposition text.
        let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            if let Some(rest) = series.strip_prefix("nvp_parse_ns_bucket{") {
                let body = rest.strip_suffix('}').expect("closing brace");
                let (labels, le) = match body.split_once(",le=\"") {
                    Some((labels, le)) => (labels.to_owned(), le),
                    None => (String::new(), body.strip_prefix("le=\"").unwrap()),
                };
                let le = le.strip_suffix('"').expect("closing quote");
                let bound: f64 = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                buckets
                    .entry(labels)
                    .or_default()
                    .push((bound, value.parse().unwrap()));
            } else if let Some(rest) = series.strip_prefix("nvp_parse_ns_count") {
                let labels = rest
                    .strip_prefix('{')
                    .and_then(|r| r.strip_suffix('}'))
                    .unwrap_or("");
                counts.insert(labels.to_owned(), value.parse().unwrap());
            }
        }
        assert_eq!(buckets.len(), 2, "two series expected:\n{text}");
        for (labels, rows) in &buckets {
            assert!(rows.len() >= 2, "series {labels:?} too short");
            for pair in rows.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "series {labels:?}: le bounds not increasing"
                );
                assert!(
                    pair[0].1 <= pair[1].1,
                    "series {labels:?}: cumulative counts decreased"
                );
            }
            let (last_bound, last_count) = *rows.last().unwrap();
            assert!(last_bound.is_infinite(), "series {labels:?}: missing +Inf");
            assert_eq!(
                Some(&last_count),
                counts.get(labels.as_str()),
                "series {labels:?}: +Inf bucket != _count"
            );
        }
        assert_eq!(counts.get(""), Some(&6));
        assert_eq!(counts.get("endpoint=\"healthz\""), Some(&4));
    }
}
