//! A sharded, lock-cheap metrics registry.
//!
//! Callers register a *family* (name + help + kind) and then resolve
//! *series* within it (a concrete label set). Resolution takes one shard
//! lock; the returned handle is an `Arc` around plain atomics, so the hot
//! path — `inc`, `add`, `observe` — is entirely lock-free. Sixteen shards
//! keyed by a hash of the full series identity keep resolution cheap even
//! when many HTTP workers mint label sets concurrently.
//!
//! `gather()` produces a deterministic snapshot: families sorted by name,
//! series sorted by label values — so the Prometheus encoder emits a
//! stable text ordering and golden tests can compare exposition output
//! directly.

use crate::hist::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 16;

/// The three metric kinds the registry supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Fixed-boundary power-of-two histogram (see [`crate::hist`]).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn prom_type(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

// Every `Series` lives behind one `Arc`; boxing the (inline-atomic)
// histogram would only add a pointer chase to the `observe` hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SeriesValue {
    Counter(AtomicU64),
    Gauge(AtomicI64),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

/// Handle to a counter series: monotonic, lock-free.
#[derive(Debug, Clone)]
pub struct Counter(Arc<Series>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        match &self.0.value {
            SeriesValue::Counter(v) => {
                v.fetch_add(n, Ordering::Relaxed);
            }
            _ => unreachable!("counter handle always wraps a counter series"),
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match &self.0.value {
            SeriesValue::Counter(v) => v.load(Ordering::Relaxed),
            _ => unreachable!("counter handle always wraps a counter series"),
        }
    }
}

/// Handle to a gauge series: settable, lock-free.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<Series>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        match &self.0.value {
            SeriesValue::Gauge(g) => g.store(v, Ordering::Relaxed),
            _ => unreachable!("gauge handle always wraps a gauge series"),
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        match &self.0.value {
            SeriesValue::Gauge(g) => {
                g.fetch_add(delta, Ordering::Relaxed);
            }
            _ => unreachable!("gauge handle always wraps a gauge series"),
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        match &self.0.value {
            SeriesValue::Gauge(g) => g.load(Ordering::Relaxed),
            _ => unreachable!("gauge handle always wraps a gauge series"),
        }
    }
}

/// Handle to a histogram series: records `u64` observations lock-free.
#[derive(Debug, Clone)]
pub struct Histo(Arc<Series>);

impl Histo {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        match &self.0.value {
            SeriesValue::Histogram(h) => h.record(value),
            _ => unreachable!("histogram handle always wraps a histogram series"),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        match &self.0.value {
            SeriesValue::Histogram(h) => h.count(),
            _ => unreachable!("histogram handle always wraps a histogram series"),
        }
    }

    /// Exact sum of recorded observations (wrapping on u64 overflow).
    pub fn sum(&self) -> u64 {
        match &self.0.value {
            SeriesValue::Histogram(h) => h.sum(),
            _ => unreachable!("histogram handle always wraps a histogram series"),
        }
    }

    /// The bucket-midpoint percentile estimate for quantile `q`.
    pub fn percentile(&self, q: f64) -> u64 {
        match &self.0.value {
            SeriesValue::Histogram(h) => h.percentile(q),
            _ => unreachable!("histogram handle always wraps a histogram series"),
        }
    }
}

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: &'static str,
}

/// A point-in-time copy of one series' value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram buckets (65 power-of-two buckets), exact sum, and count.
    Histogram {
        /// Per-bucket counts, indexed by significant-bit bucket.
        buckets: Vec<u64>,
        /// Exact sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// A point-in-time copy of one series: its label set and value.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// A point-in-time copy of one family: metadata plus all of its series.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric family name.
    pub name: String,
    /// Kind shared by every series in the family.
    pub kind: MetricKind,
    /// Help text.
    pub help: String,
    /// Series sorted by label values.
    pub series: Vec<SeriesSnapshot>,
}

/// The registry: family metadata plus sharded series storage.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
    shards: [Mutex<HashMap<String, Arc<Series>>>; SHARDS],
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    for (k, v) in labels {
        key.push('\u{1}');
        key.push_str(k);
        key.push('\u{2}');
        key.push_str(v);
    }
    key
}

fn shard_of(key: &str) -> usize {
    // FNV-1a; stable across runs so shard assignment is deterministic.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash as usize) % SHARDS
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register_family(&self, name: &'static str, help: &'static str, kind: MetricKind) {
        let mut families = self.families.lock().expect("family table lock");
        let existing = families.entry(name).or_insert(Family { kind, help });
        assert_eq!(
            existing.kind, kind,
            "metric family {name} re-registered with a different kind"
        );
    }

    fn resolve(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesValue,
    ) -> Arc<Series> {
        let key = series_key(name, labels);
        let mut shard = self.shards[shard_of(&key)].lock().expect("series shard");
        Arc::clone(shard.entry(key).or_insert_with(|| {
            Arc::new(Series {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value: make(),
            })
        }))
    }

    /// Resolves (registering on first use) a counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        self.register_family(name, help, MetricKind::Counter);
        Counter(self.resolve(name, labels, || SeriesValue::Counter(AtomicU64::new(0))))
    }

    /// Resolves (registering on first use) a gauge series.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        self.register_family(name, help, MetricKind::Gauge);
        Gauge(self.resolve(name, labels, || SeriesValue::Gauge(AtomicI64::new(0))))
    }

    /// Resolves (registering on first use) a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Histo {
        self.register_family(name, help, MetricKind::Histogram);
        Histo(self.resolve(name, labels, || SeriesValue::Histogram(Histogram::new())))
    }

    /// A deterministic snapshot of every family and series: families
    /// sorted by name, series sorted by label pairs.
    pub fn gather(&self) -> Vec<FamilySnapshot> {
        let families: Vec<(&'static str, Family)> = {
            let table = self.families.lock().expect("family table lock");
            table.iter().map(|(n, f)| (*n, f.clone())).collect()
        };
        // One pass over the shards groups series under their family name.
        let mut by_family: BTreeMap<String, Vec<SeriesSnapshot>> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("series shard");
            for (key, series) in shard.iter() {
                let name = key.split('\u{1}').next().unwrap_or(key).to_string();
                let value = match &series.value {
                    SeriesValue::Counter(v) => SnapshotValue::Counter(v.load(Ordering::Relaxed)),
                    SeriesValue::Gauge(g) => SnapshotValue::Gauge(g.load(Ordering::Relaxed)),
                    SeriesValue::Histogram(h) => SnapshotValue::Histogram {
                        buckets: h.counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                by_family.entry(name).or_default().push(SeriesSnapshot {
                    labels: series.labels.clone(),
                    value,
                });
            }
        }
        families
            .into_iter()
            .map(|(name, family)| {
                let mut series = by_family.remove(name).unwrap_or_default();
                series.sort_by(|a, b| a.labels.cmp(&b.labels));
                FamilySnapshot {
                    name: name.to_string(),
                    kind: family.kind,
                    help: family.help.to_string(),
                    series,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_lock_free_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("jobs_total", "Jobs", &[("tenant", "gold")]);
        let b = registry.counter("jobs_total", "Jobs", &[("tenant", "gold")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same label set resolves to the same series");

        let g = registry.gauge("depth", "Queue depth", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);

        let h = registry.histogram("latency_ns", "Latency", &[]);
        h.observe(600);
        assert_eq!((h.count(), h.sum()), (1, 600));
        assert_eq!(h.percentile(0.5), 767);
    }

    #[test]
    fn gather_is_sorted_and_complete() {
        let registry = Registry::new();
        registry
            .counter("b_total", "B", &[("tenant", "zeta")])
            .inc();
        registry
            .counter("b_total", "B", &[("tenant", "alpha")])
            .add(4);
        registry.gauge("a_gauge", "A", &[]).set(-3);

        let snapshot = registry.gather();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].name, "a_gauge");
        assert_eq!(snapshot[0].series[0].value, SnapshotValue::Gauge(-3));
        assert_eq!(snapshot[1].name, "b_total");
        let tenants: Vec<&str> = snapshot[1]
            .series
            .iter()
            .map(|s| s.labels[0].1.as_str())
            .collect();
        assert_eq!(tenants, ["alpha", "zeta"], "series sorted by label value");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_programming_errors() {
        let registry = Registry::new();
        registry.counter("x_total", "X", &[]);
        registry.gauge("x_total", "X", &[]);
    }

    #[test]
    fn concurrent_resolution_and_updates() {
        let registry = Arc::new(Registry::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let registry = Arc::clone(&registry);
                s.spawn(move || {
                    let tenant = format!("t{}", t % 4);
                    for _ in 0..1_000 {
                        registry
                            .counter("hits_total", "Hits", &[("tenant", &tenant)])
                            .inc();
                    }
                });
            }
        });
        let snapshot = registry.gather();
        let total: u64 = snapshot[0]
            .series
            .iter()
            .map(|s| match s.value {
                SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 8_000);
        assert_eq!(snapshot[0].series.len(), 4);
    }
}
