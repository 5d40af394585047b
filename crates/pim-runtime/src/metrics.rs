//! The runtime's batch totals, exportable as JSON.
//!
//! Two kinds of numbers live here and must not be confused:
//!
//! * **Simulated** quantities (the aggregate [`ExecReport`],
//!   `sim_time_ps`, `sim_energy_fj`) come from the pricing model and are
//!   deterministic per job.
//! * **Host** quantities (the latency histogram, queue depth, steal counts)
//!   are wall-clock observations of the runtime itself and vary run to run.
//!   They are kept out of [`crate::JobOutcome`] precisely so job results
//!   stay byte-identical across schedules and worker counts.
//!
//! The registry keeps totals only, so its memory does not grow with the
//! jobs it has seen. Each per-job fact has one home elsewhere: the report
//! is in the job's [`crate::JobOutcome`]; host latency, queue depth,
//! worker, steal and cache hit are on the job's host span; a serving
//! edge's tenant, request id, timestamps and bill are in its own job table
//! and ledger.

use pim_device::ExecReport;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Simulated nanoseconds → integer picoseconds, rounded once per job.
///
/// f64 sums depend on the order of their terms, and jobs finish in any
/// order; integer sums do not. Quantizing each job once and summing
/// integers makes totals exact under any completion order. This is the
/// one definition of the rounding: the registry's totals and the serving
/// ledger's meter both use it, so the two agree bit for bit.
pub fn quantize_ns_to_ps(ns: f64) -> u64 {
    (ns * 1e3).round() as u64
}

/// Simulated picojoules → integer femtojoules, rounded once per job (see
/// [`quantize_ns_to_ps`]).
pub fn quantize_pj_to_fj(pj: f64) -> u64 {
    (pj * 1e3).round() as u64
}

/// Point-in-time export of the runtime's totals (the JSON schema documented
/// in the README's "Runtime layer" section).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Jobs submitted across all batches.
    pub jobs_submitted: u64,
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that returned an error.
    pub jobs_failed: u64,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses (lowerings performed).
    pub cache_misses: u64,
    /// Distinct schedules resident in the cache.
    pub cache_entries: u64,
    /// Cache *near* hits: full-key misses whose dimension-blind shape key
    /// was seen before, priced incrementally through the shape's price
    /// table instead of cold (see `ScheduleCache::shape_key`).
    pub cache_near_hits: u64,
    /// Request-table rows priced fresh across all near-hit re-pricings
    /// (rows replayed from the memo are the savings).
    pub cache_repriced_rows: u64,
    /// Largest queue depth observed at any dispatch.
    pub max_queue_depth: usize,
    /// Items executed from a stolen deque across all batches.
    pub steals: u64,
    /// Sum of all per-job host latencies, nanoseconds.
    pub total_latency_ns: u64,
    /// Median host latency, nanoseconds (histogram bucket-midpoint
    /// estimate; 0 when no jobs ran).
    pub latency_p50_ns: u64,
    /// 95th-percentile host latency, nanoseconds.
    pub latency_p95_ns: u64,
    /// 99th-percentile host latency, nanoseconds.
    pub latency_p99_ns: u64,
    /// Power-of-two latency histogram: bucket `b` counts jobs whose
    /// latency needs exactly `b` significant bits (i.e. lands in
    /// `[2^(b-1), 2^b)` ns; bucket 0 counts zero-latency jobs). Fixed
    /// bucket bounds keep recording O(1) and merge-friendly; the
    /// percentiles above are computed from this histogram at snapshot
    /// time and are exact to within one power-of-two bucket.
    pub latency_histogram: Vec<u64>,
    /// Simulated totals summed over all successful jobs.
    pub aggregate: ExecReport,
    /// Simulated time over all successful jobs, in picoseconds, each job
    /// quantized once with [`quantize_ns_to_ps`]. Exact under any
    /// completion order, so the serving ledger reconciles against it.
    pub sim_time_ps: u64,
    /// Simulated energy over all successful jobs, in femtojoules, each job
    /// quantized once with [`quantize_pj_to_fj`].
    pub sim_energy_fj: u64,
}

/// The histogram scheme lives in `pim_obs::hist` (it started here and
/// was factored out so the live metrics registry, the serving edge, and
/// this snapshot all share exact bucket semantics — including the
/// bucket-midpoint correction that replaced the upper-bound convention,
/// which over-reported percentiles by up to 2x). These thin aliases keep
/// this module's vocabulary.
use pim_obs::hist::{bucket_of as latency_bucket, percentile, BUCKETS as LATENCY_BUCKETS};

/// Thread-safe collector of the totals the runtime records into. The
/// cache's own counts are not kept here: [`crate::Runtime::metrics`] reads
/// them from the [`crate::ScheduleCache`] that owns them.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    totals: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// Records one finished job: its host latency, the batch's queue depth
    /// at its dispatch, and its report (`None` for failed jobs).
    pub(crate) fn record_job(
        &self,
        latency_ns: u64,
        queue_depth: usize,
        report: Option<&ExecReport>,
    ) {
        let totals = &mut *self.totals.lock().expect("metrics lock");
        totals.jobs_submitted += 1;
        match report {
            Some(r) => {
                totals.jobs_completed += 1;
                totals.sim_time_ps += quantize_ns_to_ps(r.total_ns());
                totals.sim_energy_fj += quantize_pj_to_fj(r.total_pj());
                totals.aggregate.absorb(r);
            }
            None => totals.jobs_failed += 1,
        }
        totals.max_queue_depth = totals.max_queue_depth.max(queue_depth);
        totals.total_latency_ns += latency_ns;
        if totals.latency_histogram.len() < LATENCY_BUCKETS {
            totals.latency_histogram.resize(LATENCY_BUCKETS, 0);
        }
        totals.latency_histogram[latency_bucket(latency_ns)] += 1;
    }

    /// Folds one batch's executor steal count into the totals.
    pub(crate) fn record_steals(&self, steals: u64) {
        self.totals.lock().expect("metrics lock").steals += steals;
    }

    /// Records one cache near hit and the rows it had to price fresh.
    pub(crate) fn record_near_hit(&self, repriced_rows: u64) {
        let totals = &mut *self.totals.lock().expect("metrics lock");
        totals.cache_near_hits += 1;
        totals.cache_repriced_rows += repriced_rows;
    }

    /// A copy of the totals with the latency percentiles filled in. The
    /// cache's hits, misses and entries stay 0 here.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.totals.lock().expect("metrics lock").clone();
        snap.latency_p50_ns = percentile(&snap.latency_histogram, 0.50);
        snap.latency_p95_ns = percentile(&snap.latency_histogram, 0.95);
        snap.latency_p99_ns = percentile(&snap.latency_histogram, 0.99);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_totals() {
        let registry = MetricsRegistry::default();
        let mut report = ExecReport::new();
        report.time.process_ns = 50.0;
        report.energy.compute_pj = 20.0;
        registry.record_job(10, 1, Some(&report));
        registry.record_job(30, 2, Some(&report));
        registry.record_job(5, 0, None);
        registry.record_steals(3);

        let snap = registry.snapshot();
        assert_eq!(snap.jobs_submitted, 3);
        assert_eq!(snap.jobs_completed, 2);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.aggregate.total_ns(), 100.0);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(snap.total_latency_ns, 45);
        assert_eq!(snap.steals, 3);
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let registry = MetricsRegistry::default();
        // 98 fast jobs (~1 us) and 2 slow outliers (~1 ms): p50/p95 must
        // sit in the fast bucket, p99 must reach the outliers.
        for _ in 0..98 {
            registry.record_job(1_000, 0, Some(&ExecReport::new()));
        }
        for _ in 98..100 {
            registry.record_job(1_000_000, 0, Some(&ExecReport::new()));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.latency_histogram.iter().sum::<u64>(), 100);
        // 1_000 has 10 significant bits: bucket 10 spans [512, 1023],
        // midpoint 767.
        assert_eq!(snap.latency_p50_ns, 767);
        assert_eq!(snap.latency_p95_ns, 767);
        // 1_000_000 has 20 significant bits: bucket 20 spans
        // [2^19, 2^20 - 1], midpoint 786_431.
        assert_eq!(snap.latency_p99_ns, 786_431);
        // Percentiles are monotone and land within the right bucket.
        assert!(snap.latency_p50_ns <= snap.latency_p95_ns);
        assert!(snap.latency_p95_ns <= snap.latency_p99_ns);
        assert!((512..1024).contains(&snap.latency_p50_ns));
        assert!((1 << 19..1 << 20).contains(&snap.latency_p99_ns));
    }

    #[test]
    fn latency_percentiles_edge_cases() {
        // Empty registry: all zeros.
        let empty = MetricsRegistry::default().snapshot();
        assert_eq!(
            (
                empty.latency_p50_ns,
                empty.latency_p95_ns,
                empty.latency_p99_ns
            ),
            (0, 0, 0)
        );
        // A single zero-latency job lands in bucket 0.
        let registry = MetricsRegistry::default();
        registry.record_job(0, 0, Some(&ExecReport::new()));
        let snap = registry.snapshot();
        assert_eq!(snap.latency_p99_ns, 0);
        assert_eq!(snap.latency_histogram[0], 1);
        // A single sample: every percentile is that bucket's midpoint,
        // never the inclusive upper bound (the old biased convention).
        let registry = MetricsRegistry::default();
        registry.record_job(600, 0, Some(&ExecReport::new()));
        let snap = registry.snapshot();
        assert_eq!(snap.latency_p50_ns, 767, "midpoint of [512, 1023]");
        assert_eq!(snap.latency_p50_ns, snap.latency_p99_ns);
        // Extreme latency saturates into the last bucket without
        // overflowing; its midpoint sits in the top half of u64 range.
        let registry = MetricsRegistry::default();
        registry.record_job(u64::MAX, 0, Some(&ExecReport::new()));
        let p50 = registry.snapshot().latency_p50_ns;
        assert!((1u64 << 63..u64::MAX).contains(&p50));
    }

    #[test]
    fn integer_totals_are_exact_over_many_jobs() {
        let registry = MetricsRegistry::default();
        let (mut time_ps, mut energy_fj) = (0u64, 0u64);
        let jobs = 549;
        for i in 0..jobs {
            // Every ninth job fails; the rest carry awkward float totals so
            // a per-job rounding difference would show in the sums.
            let report = (i % 9 != 0).then(|| {
                let mut r = ExecReport::new();
                r.time.process_ns = 0.1 + i as f64 * 1.337;
                r.energy.compute_pj = 0.7 + i as f64 * 2.0001;
                r
            });
            registry.record_job(100 + i as u64, i % 5, report.as_ref());
            // An independent fold over every recorded job.
            if let Some(r) = &report {
                time_ps += (r.total_ns() * 1e3).round() as u64;
                energy_fj += (r.total_pj() * 1e3).round() as u64;
            }
        }
        let snap = registry.snapshot();
        assert_eq!((snap.sim_time_ps, snap.sim_energy_fj), (time_ps, energy_fj));
        assert_eq!(snap.jobs_submitted, jobs as u64);
    }

    #[test]
    fn json_round_trips() {
        let registry = MetricsRegistry::default();
        registry.record_job(7, 1, Some(&ExecReport::new()));
        let json = serde_json::to_string_pretty(&registry.snapshot()).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, registry.snapshot());
        assert!(json.contains("\"jobs_completed\": 1"));
    }
}
