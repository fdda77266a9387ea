//! Zero-dependency observability: a process-local metrics registry.
//!
//! The experiment harness, the planners, and the CLI all want the same
//! three primitives — monotone **counters**, last-value **gauges**, and
//! **histograms** — without pulling an external metrics stack into the
//! build. [`MetricsRegistry`] provides them behind a `&self` API (a
//! `Mutex` guards the interior) so a single registry can be threaded
//! through planner call chains that only hold shared references.
//!
//! Histograms keep three complementary backends per name:
//!
//! * a Welford [`OnlineStats`] accumulator for mean/min/max,
//! * a capped exact-sample reservoir (first [`MAX_EXACT_SAMPLES`]
//!   observations) from which [`Percentiles`] answers quantile queries,
//! * fixed log₂-spaced buckets covering `2⁻³⁰ .. 2³³` seconds-ish scales
//!   so even long runs that overflow the reservoir keep a shape.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a
//! serde-serialisable [`MetricsSnapshot`] with entries sorted by name, so
//! two snapshots of identical histories serialise identically.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rod_geom::{OnlineStats, Percentiles};
use serde::{Deserialize, Serialize};

/// Exact observations kept per histogram for quantile queries; beyond
/// this the buckets and the Welford accumulator still see every value.
pub const MAX_EXACT_SAMPLES: usize = 65_536;

/// Number of log₂-spaced histogram buckets (plus implicit under/overflow
/// clamping into the first/last bucket).
const NUM_BUCKETS: usize = 64;

/// Smallest bucket exponent: bucket 0 holds values below `2^-30`.
const MIN_EXP: i32 = -30;

#[derive(Clone, Debug)]
struct Histogram {
    stats: OnlineStats,
    samples: Vec<f64>,
    buckets: Vec<u64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            // OnlineStats::new(), not ::default(): the derived default
            // zeroes min/max instead of the ±inf sentinels.
            stats: OnlineStats::new(),
            samples: Vec::new(),
            buckets: Vec::new(),
        }
    }

    fn observe(&mut self, x: f64) {
        self.stats.push(x);
        if self.samples.len() < MAX_EXACT_SAMPLES {
            self.samples.push(x);
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
        }
        let idx = if x <= 0.0 {
            0
        } else {
            (x.log2().floor() as i32 - MIN_EXP).clamp(0, NUM_BUCKETS as i32 - 1) as usize
        };
        self.buckets[idx] += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A process-local metrics registry: counters, gauges, and histograms
/// addressed by dotted string names (`"rod.phase1_seconds"`).
///
/// Interior-mutable so it threads through `&self` planner APIs; cloneable
/// snapshots decouple reporting from collection.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only means a panic elsewhere mid-update;
        // metrics are best-effort, so keep serving the data we have.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Increments the counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name` (created at 0 on first use).
    ///
    /// Only the first write to a name allocates its key, so hot-path
    /// counters cost a lookup.
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(count) => *count += n,
            None => {
                inner.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins). Like
    /// [`add`](Self::add), only the first write allocates the key.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records one observation into the histogram `name`. Non-finite
    /// values are dropped (and counted under `obs.dropped_nonfinite`) so
    /// a stray NaN cannot poison the accumulators.
    pub fn observe(&self, name: &str, value: f64) {
        if !value.is_finite() {
            self.incr("obs.dropped_nonfinite");
            return;
        }
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Runs `f`, recording its wall-clock duration in seconds as one
    /// observation of the histogram `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.observe(name, start.elapsed().as_secs_f64());
        out
    }

    /// Current value of a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever written.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty()
    }

    /// Freezes the registry into a serialisable, name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, &value)| CounterEntry {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, &value)| GaugeEntry {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    let pct = Percentiles::from_samples(h.samples.clone());
                    HistogramEntry {
                        name: name.clone(),
                        count: h.stats.count(),
                        mean: h.stats.mean(),
                        min: h.stats.min(),
                        max: h.stats.max(),
                        p50: pct.quantile(0.50),
                        p95: pct.quantile(0.95),
                        p99: pct.quantile(0.99),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &count)| count > 0)
                            .map(|(i, &count)| BucketCount {
                                le: if i == NUM_BUCKETS - 1 {
                                    f64::MAX
                                } else {
                                    f64::powi(2.0, MIN_EXP + 1 + i as i32)
                                },
                                count,
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Cumulative count.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Last written value.
    pub value: f64,
}

/// One non-empty log₂ bucket: `count` observations at most `le`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: f64,
    /// Observations that fell into it.
    pub count: u64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Total observations (including those past the exact-sample cap).
    pub count: u64,
    /// Mean over all observations.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median over the exact-sample reservoir.
    pub p50: Option<f64>,
    /// 95th percentile over the exact-sample reservoir.
    pub p95: Option<f64>,
    /// 99th percentile over the exact-sample reservoir.
    pub p99: Option<f64>,
    /// Non-empty log₂-spaced buckets.
    pub buckets: Vec<BucketCount>,
}

/// A frozen, serialisable view of a [`MetricsRegistry`]; entries are
/// sorted by name so identical histories serialise identically.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterEntry>,
    /// All gauges, name-sorted.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// Renders a compact human-readable report (used by
    /// `rodctl plan --timings`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!("{:<42} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("{:<42} {:.6}\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{:<42} n={} mean={:.6} min={:.6} max={:.6}",
                h.name, h.count, h.mean, h.min, h.max
            ));
            if let (Some(p50), Some(p99)) = (h.p50, h.p99) {
                out.push_str(&format!(" p50={p50:.6} p99={p99:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Attributes thread-pool work to one phase by diffing two
/// [`rod_pool::PoolStats`] snapshots taken around it: `pool.tasks_executed`
/// (counter, jobs run during the phase), `pool.worker_busy_seconds`
/// (gauge, summed worker wall-clock inside jobs — can exceed elapsed
/// time when several workers run), `pool.workers` and `pool.queue_peak`
/// (gauges, pool-lifetime values). All surface through
/// [`MetricsSnapshot::render`] like every other metric.
pub fn record_pool_delta(
    metrics: &MetricsRegistry,
    before: &rod_pool::PoolStats,
    after: &rod_pool::PoolStats,
) {
    metrics.add(
        "pool.tasks_executed",
        after.tasks_executed.saturating_sub(before.tasks_executed),
    );
    metrics.set_gauge(
        "pool.worker_busy_seconds",
        (after.busy_seconds - before.busy_seconds).max(0.0),
    );
    metrics.set_gauge("pool.workers", after.workers as f64);
    metrics.set_gauge("pool.queue_peak", after.queue_peak as f64);
}

/// Attributes feasibility-kernel work to one phase by diffing two
/// [`rod_geom::KernelPathCounts`] snapshots (from
/// `rod_geom::simd::path_counts()`) taken around it. Four counters
/// surface through [`MetricsSnapshot::render`]: `kernel.simd_blocks` /
/// `kernel.scalar_blocks` (point blocks scored by each path) and
/// `kernel.simd_dot_rows` / `kernel.scalar_dot_rows` (`dot_into` rows
/// accumulated by each path). A planning run on an AVX2 host with
/// SIMD enabled reports zero scalar blocks; under `ROD_NO_SIMD=1` (or
/// on hosts without AVX2) the SIMD counters stay zero — which is what
/// the forced-path tests assert.
pub fn record_kernel_path(
    metrics: &MetricsRegistry,
    before: &rod_geom::KernelPathCounts,
    after: &rod_geom::KernelPathCounts,
) {
    metrics.add(
        "kernel.simd_blocks",
        after.simd_blocks.saturating_sub(before.simd_blocks),
    );
    metrics.add(
        "kernel.scalar_blocks",
        after.scalar_blocks.saturating_sub(before.scalar_blocks),
    );
    metrics.add(
        "kernel.simd_dot_rows",
        after.simd_dot_rows.saturating_sub(before.simd_dot_rows),
    );
    metrics.add(
        "kernel.scalar_dot_rows",
        after.scalar_dot_rows.saturating_sub(before.scalar_dot_rows),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_writes_keep_values_and_render_order() {
        let m = MetricsRegistry::new();
        for name in ["ctrl.z", "ctrl.a", "ctrl.m"] {
            m.add(name, 2);
            m.set_gauge(name, 1.5);
        }
        m.add("ctrl.a", 3);
        m.incr("ctrl.a");
        m.set_gauge("ctrl.z", -0.25);
        m.set_gauge("ctrl.z", 4.0);
        assert_eq!(m.counter("ctrl.a"), 6);
        assert_eq!(m.counter("ctrl.m"), 2);
        assert_eq!(m.gauge("ctrl.z"), Some(4.0));
        assert_eq!(m.gauge("ctrl.a"), Some(1.5));
        let snap = m.snapshot();
        let counters: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(counters, [("ctrl.a", 6), ("ctrl.m", 2), ("ctrl.z", 2)]);
        assert_eq!(
            snap.render(),
            format!(
                "{:<42} 6\n{:<42} 2\n{:<42} 2\n\
                 {:<42} 1.500000\n{:<42} 1.500000\n{:<42} 4.000000\n",
                "ctrl.a", "ctrl.m", "ctrl.z", "ctrl.a", "ctrl.m", "ctrl.z"
            )
        );
    }

    #[test]
    fn pool_delta_surfaces_through_render() {
        let m = MetricsRegistry::new();
        let before = rod_pool::PoolStats {
            workers: 2,
            tasks_executed: 10,
            busy_seconds: 1.0,
            queue_peak: 3,
        };
        let after = rod_pool::PoolStats {
            workers: 2,
            tasks_executed: 16,
            busy_seconds: 1.5,
            queue_peak: 4,
        };
        record_pool_delta(&m, &before, &after);
        assert_eq!(m.counter("pool.tasks_executed"), 6);
        assert!((m.gauge("pool.worker_busy_seconds").unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(m.gauge("pool.workers"), Some(2.0));
        let rendered = m.snapshot().render();
        assert!(rendered.contains("pool.tasks_executed"));
        assert!(rendered.contains("pool.worker_busy_seconds"));
    }

    #[test]
    fn kernel_path_delta_surfaces_through_render() {
        let m = MetricsRegistry::new();
        let before = rod_geom::KernelPathCounts {
            simd_blocks: 5,
            scalar_blocks: 2,
            simd_dot_rows: 100,
            scalar_dot_rows: 40,
        };
        let after = rod_geom::KernelPathCounts {
            simd_blocks: 12,
            scalar_blocks: 2,
            simd_dot_rows: 160,
            scalar_dot_rows: 43,
        };
        record_kernel_path(&m, &before, &after);
        assert_eq!(m.counter("kernel.simd_blocks"), 7);
        assert_eq!(m.counter("kernel.scalar_blocks"), 0);
        assert_eq!(m.counter("kernel.simd_dot_rows"), 60);
        assert_eq!(m.counter("kernel.scalar_dot_rows"), 3);
        let rendered = m.snapshot().render();
        assert!(rendered.contains("kernel.simd_blocks"));
        assert!(rendered.contains("kernel.scalar_dot_rows"));
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.incr("a");
        m.add("a", 4);
        m.incr("b");
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_summary() {
        let m = MetricsRegistry::new();
        for i in 1..=100 {
            m.observe("h", i as f64);
        }
        let snap = m.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!(h.name, "h");
        assert_eq!(h.count, 100);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.p50.unwrap() - 50.5).abs() < 1e-9);
        let bucketed: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 100);
    }

    #[test]
    fn nonfinite_observations_are_dropped() {
        let m = MetricsRegistry::new();
        m.observe("h", f64::NAN);
        m.observe("h", f64::INFINITY);
        m.observe("h", 1.0);
        let snap = m.snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(m.counter("obs.dropped_nonfinite"), 2);
    }

    #[test]
    fn time_records_a_duration() {
        let m = MetricsRegistry::new();
        let out = m.time("t", || 42);
        assert_eq!(out, 42);
        let snap = m.snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "t").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.min >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let m = MetricsRegistry::new();
            m.incr("z");
            m.incr("a");
            m.set_gauge("mid", 3.0);
            m.observe("lat", 0.25);
            m.observe("lat", 0.75);
            serde_json::to_string(&m.snapshot()).unwrap()
        };
        let one = build();
        let two = build();
        assert_eq!(one, two);
        let names_in_order = one.find("\"a\"").unwrap() < one.find("\"z\"").unwrap();
        assert!(names_in_order, "counter entries must be name-sorted");
    }

    #[test]
    fn zero_and_negative_values_bucket_safely() {
        let m = MetricsRegistry::new();
        m.observe("h", 0.0);
        m.observe("h", -3.0);
        m.observe("h", 1e300);
        let snap = m.snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.count, 3);
        let bucketed: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 3);
    }
}
