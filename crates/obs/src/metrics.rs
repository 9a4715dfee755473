//! The metrics registry: named atomic counters, gauges, and log2
//! histograms with on-demand text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over atomics; updating one is a handful of relaxed atomic
//! operations and never takes a lock or allocates. The registry itself
//! is a `Mutex<Vec<...>>` touched only at registration (once per
//! metric) and at render time (once per scrape), so contention on the
//! observation path is zero by construction.
//!
//! Histograms use fixed power-of-two buckets: bucket 0 holds the value
//! `0`, bucket `i >= 1` holds values in `[2^(i-1), 2^i)`. Quantiles
//! (p50/p90/p99) and the exact maximum are derived from the buckets at
//! read time — nothing is computed on `observe`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use stems_types::expo;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter handle. Clones share the
/// same underlying value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter detached from any registry (useful in tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge handle. Clones share the same value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge detached from any registry (useful in tests).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram handle for latency/size samples.
/// Clones share the same underlying buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram detached from any registry (useful in tests).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index recording `v`: 0 for `v == 0`, otherwise
    /// `floor(log2(v)) + 1` — bucket `i >= 1` covers `[2^(i-1), 2^i)`.
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive `[low, high]` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// If `i >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == HISTOGRAM_BUCKETS - 1 {
            (1u64 << (i - 1), u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Records one sample. A few relaxed atomic adds; no locks, no
    /// allocation.
    pub fn observe(&self, v: u64) {
        let core = &*self.0;
        core.buckets[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A relaxed snapshot of the per-bucket counts. Under concurrent
    /// observation the snapshot may straddle an in-flight `observe`
    /// (monitoring reads are advisory); quiesced, it is exact.
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.0.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    /// Sum of all recorded values (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The exact largest value recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts by linear interpolation inside the target bucket. Exact
    /// for values that land on bucket boundaries; otherwise accurate to
    /// within the bucket's power-of-two width. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile names.
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = Histogram::bucket_bounds(i);
                // The histogram's max bounds the top bucket tighter
                // than 2^i - 1 ever could.
                let hi = hi.min(self.max());
                let into = (target - seen) as f64 / n as f64;
                return lo as f64 + (hi - lo) as f64 * into;
            }
            seen += n;
        }
        self.max() as f64
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    /// The one static label dimension, fixed at registration.
    label: Option<(&'static str, String)>,
    metric: Metric,
}

/// A named collection of metrics with get-or-register semantics and
/// on-demand text exposition.
///
/// Registration takes the internal lock and may allocate; the returned
/// handles never do either. Metric names should follow the
/// `stems_<noun>_<unit/total>` scheme in `docs/OBSERVABILITY.md`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_register(
        &self,
        name: &str,
        label: Option<(&'static str, &str)>,
        make: impl FnOnce() -> Metric,
        want: &'static str,
    ) -> Metric {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.label.as_ref().map(|(k, v)| (*k, v.as_str())) == label)
        {
            assert!(
                e.metric.type_name() == want,
                "metric {name:?} already registered as a {} (wanted a {want})",
                e.metric.type_name()
            );
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            label: label.map(|(k, v)| (k, v.to_string())),
            metric: metric.clone(),
        });
        metric
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_register(name, None, || Metric::Counter(Counter::new()), "counter") {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// [`MetricsRegistry::counter`] with the static label dimension
    /// (e.g. `("kind", "checksum_mismatch")`). Each distinct label
    /// value is its own counter.
    pub fn counter_with(&self, name: &str, key: &'static str, value: &str) -> Counter {
        match self.get_or_register(
            name,
            Some((key, value)),
            || Metric::Counter(Counter::new()),
            "counter",
        ) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_register(name, None, || Metric::Gauge(Gauge::new()), "gauge") {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_register(
            name,
            None,
            || Metric::Histogram(Histogram::new()),
            "histogram",
        ) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Renders every metric as exposition text lines, in registration
    /// order.
    pub fn render(&self, out: &mut String) {
        self.render_labeled(out, &[]);
    }

    /// [`MetricsRegistry::render`] with extra labels appended to every
    /// line — how a per-tenant registry is rendered into a combined
    /// scrape with `session="N"` attached.
    pub fn render_labeled(&self, out: &mut String, extra: &[(&str, &str)]) {
        let entries = self.entries.lock().unwrap();
        let mut labels: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 2);
        for e in entries.iter() {
            labels.clear();
            if let Some((k, v)) = &e.label {
                labels.push((k, v.as_str()));
            }
            labels.extend_from_slice(extra);
            match &e.metric {
                Metric::Counter(c) => expo::write_sample(out, &e.name, &labels, c.get() as f64),
                Metric::Gauge(g) => expo::write_sample(out, &e.name, &labels, g.get() as f64),
                Metric::Histogram(h) => render_histogram(out, &e.name, &labels, h),
            }
        }
    }
}

/// One histogram renders as `_count`/`_sum`/`_max` lines, three
/// `{quantile="..."}` summary lines, and cumulative `_bucket{le="..."}`
/// lines up to the highest non-empty bucket (plus `+Inf`).
fn render_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let counts = h.snapshot();
    let total: u64 = counts.iter().sum();
    expo::write_sample(out, &format!("{name}_count"), labels, total as f64);
    expo::write_sample(out, &format!("{name}_sum"), labels, h.sum() as f64);
    expo::write_sample(out, &format!("{name}_max"), labels, h.max() as f64);
    for (q, qs) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
        let mut qlabels: Vec<(&str, &str)> = labels.to_vec();
        qlabels.push(("quantile", qs));
        expo::write_sample(out, name, &qlabels, h.quantile(q));
    }
    let highest = counts.iter().rposition(|&n| n > 0);
    let mut cumulative = 0u64;
    if let Some(highest) = highest {
        for (i, &n) in counts.iter().enumerate().take(highest + 1) {
            cumulative += n;
            let le = Histogram::bucket_bounds(i).1.to_string();
            let mut blabels: Vec<(&str, &str)> = labels.to_vec();
            blabels.push(("le", le.as_str()));
            expo::write_sample(out, &format!("{name}_bucket"), &blabels, cumulative as f64);
        }
    }
    let mut blabels: Vec<(&str, &str)> = labels.to_vec();
    blabels.push(("le", "+Inf"));
    expo::write_sample(out, &format!("{name}_bucket"), &blabels, total as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // The satellite bucket-boundary suite: 0 is its own bucket,
        // each power of two starts a new bucket, and the value just
        // below it closes the previous one.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        for shift in 1..63u32 {
            let boundary = 1u64 << shift;
            assert_eq!(
                Histogram::bucket_index(boundary),
                shift as usize + 1,
                "2^{shift} must open bucket {}",
                shift + 1
            );
            assert_eq!(
                Histogram::bucket_index(boundary - 1),
                shift as usize,
                "2^{shift}-1 must close bucket {shift}"
            );
            let (lo, hi) = Histogram::bucket_bounds(shift as usize + 1);
            assert_eq!(lo, boundary);
            if shift < 62 {
                assert_eq!(hi, (boundary << 1) - 1);
            }
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn every_bucket_contains_its_own_bounds() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
        for v in [0, 1, 7, 8, 1000, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2016);
        assert_eq!(h.max(), 1000);
        let counts = h.snapshot();
        assert_eq!(counts[0], 1); // 0
        assert_eq!(counts[1], 1); // 1
        assert_eq!(counts[3], 1); // 7 in [4,8)
        assert_eq!(counts[4], 1); // 8 in [8,16)
        assert_eq!(counts[10], 2); // 1000 in [512,1024)
    }

    #[test]
    fn quantile_estimates_land_inside_the_right_bucket() {
        // The satellite quantile-estimate suite. 100 samples: 50 at 10,
        // 40 at 100, 10 at 5000.
        let h = Histogram::new();
        for _ in 0..50 {
            h.observe(10);
        }
        for _ in 0..40 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(5000);
        }
        let in_bucket_of = |q: f64, v: u64| {
            let est = h.quantile(q);
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(
                est >= lo as f64 && est <= hi as f64,
                "p{q}: estimate {est} outside bucket [{lo}, {hi}] of {v}"
            );
        };
        in_bucket_of(0.50, 10);
        in_bucket_of(0.90, 100);
        in_bucket_of(0.99, 5000);
        // Degenerate and boundary quantiles stay sane.
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        assert!(h.quantile(0.0) >= 8.0 && h.quantile(0.0) <= 16.0);
        // p100 is clamped by the exact recorded max, not the bucket's
        // upper bound.
        assert!(h.quantile(1.0) <= 5000.0);
        // A single-value histogram estimates that value's bucket
        // regardless of q, clamped by max.
        let one = Histogram::new();
        one.observe(12);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = one.quantile(q);
            assert!((8.0..=12.0).contains(&est), "q={q} est={est}");
        }
    }

    #[test]
    fn counter_hammer_from_many_threads_totals_exactly() {
        // The satellite concurrent-counter test: N threads, exact total.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        let reg = MetricsRegistry::new();
        let counter = reg.counter("stems_hammer_total");
        let hist = reg.histogram("stems_hammer_values");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let counter = counter.clone();
                let hist = hist.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.inc();
                        hist.observe(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(hist.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(hist.max(), THREADS as u64 * PER_THREAD - 1);
        // The same name resolves to the same counter afterwards.
        assert_eq!(reg.counter("stems_hammer_total").get(), counter.get());
    }

    #[test]
    fn registry_get_or_register_shares_and_labels_separate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("stems_x_total");
        let b = reg.counter("stems_x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let io = reg.counter_with("stems_wire_errors_total", "kind", "io");
        let crc = reg.counter_with("stems_wire_errors_total", "kind", "checksum_mismatch");
        io.inc();
        crc.add(5);
        assert_eq!(
            reg.counter_with("stems_wire_errors_total", "kind", "io")
                .get(),
            1
        );
        assert_eq!(crc.get(), 5);
        let g = reg.gauge("stems_sessions_open");
        g.set(4);
        g.add(-1);
        assert_eq!(reg.gauge("stems_sessions_open").get(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflicts_are_programmer_errors() {
        let reg = MetricsRegistry::new();
        reg.counter("stems_x_total");
        reg.histogram("stems_x_total");
    }

    #[test]
    fn exposition_renders_in_registration_order_with_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("stems_a_total").add(7);
        reg.gauge("stems_b").set(-2);
        reg.counter_with("stems_c_total", "kind", "io").inc();
        let h = reg.histogram("stems_d_nanos");
        h.observe(3);
        h.observe(300);
        let mut out = String::new();
        reg.render(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "stems_a_total 7");
        assert_eq!(lines[1], "stems_b -2");
        assert_eq!(lines[2], "stems_c_total{kind=\"io\"} 1");
        assert!(out.contains("stems_d_nanos_count 2"));
        assert!(out.contains("stems_d_nanos_sum 303"));
        assert!(out.contains("stems_d_nanos_max 300"));
        assert!(out.contains("stems_d_nanos{quantile=\"0.5\"}"));
        assert!(out.contains("stems_d_nanos_bucket{le=\"+Inf\"} 2"));
        // Extra labels attach to every line, after the static one.
        let mut labeled = String::new();
        reg.render_labeled(&mut labeled, &[("session", "9")]);
        assert!(labeled.contains("stems_a_total{session=\"9\"} 7"));
        assert!(labeled.contains("stems_c_total{kind=\"io\",session=\"9\"} 1"));
    }
}
