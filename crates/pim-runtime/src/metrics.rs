//! Job-level and aggregate runtime metrics, exportable as JSON.
//!
//! Two kinds of numbers live here and must not be confused:
//!
//! * **Simulated** quantities (`sim_time_ns`, `sim_energy_pj`, the
//!   aggregate [`ExecReport`]) come from the pricing model and are
//!   deterministic per job.
//! * **Host** quantities (`latency_ns`, `queue_depth`, steal counts) are
//!   wall-clock observations of the runtime itself and vary run to run.
//!   They are kept out of [`crate::JobOutcome`] precisely so job results
//!   stay byte-identical across schedules and worker counts.
//!
//! The registry's memory is bounded: totals and per-tenant rollups are
//! folded as each job is recorded, and only the most recent
//! [`JOB_ROW_BUDGET`] per-job rows are kept.

use pim_device::ExecReport;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Per-job rows the registry keeps: a window of the most recent jobs.
/// Every total and tenant rollup covers all jobs regardless. Unbounded,
/// the rows of a 17k-job serving run took about 5.7 MiB (of 18 MiB of
/// runtime state; cached schedules were the rest), and every
/// `GET /v1/metrics` scrape cloned and serialized each row into a 4.4 MB
/// body; with 256 rows the body is about 74 KB however long the server
/// runs.
pub const JOB_ROW_BUDGET: usize = 256;

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

/// Metrics for one completed (or failed) job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Index of the job in its batch.
    pub index: usize,
    /// Job display name.
    pub name: String,
    /// Owning tenant (empty for anonymous jobs).
    pub tenant: String,
    /// Correlating request id for jobs submitted through a serving edge
    /// (empty for direct batch runs). Host-side only: it never affects
    /// the job's outcome, schedule, or platform identity.
    pub request_id: String,
    /// Platform display name.
    pub platform: String,
    /// Host wall-clock latency from dispatch to completion, nanoseconds.
    pub latency_ns: u64,
    /// Jobs still queued (batch-wide) when this job was dispatched.
    pub queue_depth: usize,
    /// Worker that executed the job.
    pub worker: usize,
    /// Whether the schedule came from the cache.
    pub cache_hit: bool,
    /// Whether the job probed the cache and missed (i.e. lowered its own
    /// schedule). Host-platform jobs never probe: both flags stay false.
    pub cache_miss: bool,
    /// Whether the job was executed from a stolen deque.
    pub stolen: bool,
    /// Whether the job completed without error.
    pub ok: bool,
    /// Simulated execution time, nanoseconds (0 for failed jobs).
    pub sim_time_ns: f64,
    /// Simulated energy, picojoules (0 for failed jobs).
    pub sim_energy_pj: f64,
}

/// Point-in-time export of the registry (the JSON schema documented in the
/// README's "Runtime layer" section).
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
    /// Per-tenant rollups over every job, sorted by tenant name. Folded as
    /// each job is recorded, so they cover jobs whose rows have left the
    /// window below.
    pub tenants: Vec<TenantMetrics>,
    /// The most recent [`JOB_ROW_BUDGET`] per-job rows, ordered by batch
    /// submission index (rows of equal index stay in completion order).
    pub jobs: Vec<JobMetrics>,
}

/// Rollup of every job one tenant submitted.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Tenant name (empty for anonymous jobs).
    pub tenant: String,
    /// Jobs submitted by this tenant.
    pub jobs_submitted: u64,
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that returned an error.
    pub jobs_failed: u64,
    /// Schedule-cache hits across this tenant's jobs.
    pub cache_hits: u64,
    /// Schedule-cache misses (lowerings performed) for this tenant.
    pub cache_misses: u64,
    /// Jobs executed from a stolen deque.
    pub steals: u64,
    /// Sum of host latencies, nanoseconds.
    pub total_latency_ns: u64,
    /// Simulated time summed over successful jobs, nanoseconds.
    pub sim_time_ns: f64,
    /// Simulated energy summed over successful jobs, picojoules.
    pub sim_energy_pj: f64,
}

impl TenantMetrics {
    /// Folds one recorded job into the rollup.
    fn absorb(&mut self, job: &JobMetrics) {
        self.jobs_submitted += 1;
        if job.ok {
            self.jobs_completed += 1;
        } else {
            self.jobs_failed += 1;
        }
        self.cache_hits += u64::from(job.cache_hit);
        self.cache_misses += u64::from(job.cache_miss);
        self.steals += u64::from(job.stolen);
        self.total_latency_ns += job.latency_ns;
        self.sim_time_ns += job.sim_time_ns;
        self.sim_energy_pj += job.sim_energy_pj;
    }
}

/// The histogram scheme lives in `pim_obs::hist` (it started here and
/// was factored out so the live metrics registry, the serving edge, and
/// this snapshot all share exact bucket semantics — including the
/// bucket-midpoint correction that replaced the upper-bound convention,
/// which over-reported percentiles by up to 2x). These thin aliases keep
/// this module's vocabulary.
use pim_obs::hist::{bucket_of as latency_bucket, percentile, BUCKETS as LATENCY_BUCKETS};

/// Thread-safe collector the runtime records into.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// The registry's state: running totals plus the bounded row window.
#[derive(Debug, Default)]
struct Inner {
    /// Running totals; its `tenants` and `jobs` stay empty (held below).
    totals: MetricsSnapshot,
    /// Per-tenant rollups, folded at record time.
    tenants: BTreeMap<String, TenantMetrics>,
    /// The most recent [`JOB_ROW_BUDGET`] rows, oldest first.
    rows: VecDeque<JobMetrics>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one finished job. `report` is `None` for failed jobs.
    pub fn record_job(&self, mut metrics: JobMetrics, report: Option<&ExecReport>) {
        let mut inner = self.inner.lock().expect("metrics lock");
        let Inner {
            totals,
            tenants,
            rows,
        } = &mut *inner;
        totals.jobs_submitted += 1;
        match report {
            Some(r) => {
                totals.jobs_completed += 1;
                metrics.ok = true;
                metrics.sim_time_ns = r.total_ns();
                metrics.sim_energy_pj = r.total_pj();
                totals.sim_time_ps += quantize_ns_to_ps(metrics.sim_time_ns);
                totals.sim_energy_fj += quantize_pj_to_fj(metrics.sim_energy_pj);
                totals.aggregate.absorb(r);
            }
            None => {
                totals.jobs_failed += 1;
                metrics.ok = false;
            }
        }
        totals.max_queue_depth = totals.max_queue_depth.max(metrics.queue_depth);
        totals.total_latency_ns += metrics.latency_ns;
        if totals.latency_histogram.len() < LATENCY_BUCKETS {
            totals.latency_histogram.resize(LATENCY_BUCKETS, 0);
        }
        totals.latency_histogram[latency_bucket(metrics.latency_ns)] += 1;
        tenants
            .entry(metrics.tenant.clone())
            .or_insert_with(|| TenantMetrics {
                tenant: metrics.tenant.clone(),
                ..TenantMetrics::default()
            })
            .absorb(&metrics);
        if rows.len() == JOB_ROW_BUDGET {
            rows.pop_front();
        }
        rows.push_back(metrics);
    }

    /// Folds one batch's executor steal count into the totals.
    pub fn record_steals(&self, steals: u64) {
        self.inner.lock().expect("metrics lock").totals.steals += steals;
    }

    /// Records one cache near hit and the rows it had to price fresh.
    pub fn record_near_hit(&self, repriced_rows: u64) {
        let totals = &mut self.inner.lock().expect("metrics lock").totals;
        totals.cache_near_hits += 1;
        totals.cache_repriced_rows += repriced_rows;
    }

    /// Updates the cache statistics (overwrites; the cache owns the truth).
    pub fn record_cache(&self, hits: u64, misses: u64, entries: usize) {
        let totals = &mut self.inner.lock().expect("metrics lock").totals;
        totals.cache_hits = hits;
        totals.cache_misses = misses;
        totals.cache_entries = entries as u64;
    }

    /// A copy of the current state, with the retained per-job rows sorted
    /// by batch index (completion order is nondeterministic; the export is
    /// not).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        let mut snap = inner.totals.clone();
        snap.tenants = inner.tenants.values().cloned().collect();
        snap.jobs = inner.rows.iter().cloned().collect();
        drop(inner);
        snap.jobs.sort_by_key(|j| j.index);
        snap.latency_p50_ns = percentile(&snap.latency_histogram, 0.50);
        snap.latency_p95_ns = percentile(&snap.latency_histogram, 0.95);
        snap.latency_p99_ns = percentile(&snap.latency_histogram, 0.99);
        snap
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("metrics serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(index: usize, latency_ns: u64, queue_depth: usize) -> JobMetrics {
        JobMetrics {
            index,
            name: format!("job-{index}"),
            tenant: String::new(),
            request_id: String::new(),
            platform: "StPIM".into(),
            latency_ns,
            queue_depth,
            worker: 0,
            cache_hit: false,
            cache_miss: false,
            stolen: false,
            ok: false,
            sim_time_ns: 0.0,
            sim_energy_pj: 0.0,
        }
    }

    #[test]
    fn tenant_rollups_partition_the_jobs() {
        let registry = MetricsRegistry::new();
        let mut report = ExecReport::new();
        report.time.process_ns = 10.0;
        report.energy.compute_pj = 4.0;
        let mut a0 = metrics(0, 100, 0);
        a0.tenant = "alice".into();
        a0.cache_hit = true;
        let mut a1 = metrics(1, 50, 0);
        a1.tenant = "alice".into();
        a1.cache_miss = true;
        a1.stolen = true;
        let mut b0 = metrics(2, 30, 0);
        b0.tenant = "bob".into();
        registry.record_job(a0, Some(&report));
        registry.record_job(a1, Some(&report));
        registry.record_job(b0, None);

        let snap = registry.snapshot();
        assert_eq!(snap.tenants.len(), 2);
        let alice = &snap.tenants[0];
        assert_eq!(alice.tenant, "alice");
        assert_eq!(
            (
                alice.jobs_submitted,
                alice.jobs_completed,
                alice.jobs_failed
            ),
            (2, 2, 0)
        );
        assert_eq!(
            (alice.cache_hits, alice.cache_misses, alice.steals),
            (1, 1, 1)
        );
        assert_eq!(alice.total_latency_ns, 150);
        assert_eq!(alice.sim_time_ns, 20.0);
        assert_eq!(alice.sim_energy_pj, 8.0);
        let bob = &snap.tenants[1];
        assert_eq!(bob.tenant, "bob");
        assert_eq!(
            (bob.jobs_submitted, bob.jobs_completed, bob.jobs_failed),
            (1, 0, 1)
        );
        // Rollups partition: tenant sums reproduce the global counts.
        assert_eq!(
            snap.tenants.iter().map(|t| t.jobs_submitted).sum::<u64>(),
            snap.jobs_submitted
        );
    }

    #[test]
    fn records_aggregate_and_sorts_jobs() {
        let registry = MetricsRegistry::new();
        let mut report = ExecReport::new();
        report.time.process_ns = 50.0;
        report.energy.compute_pj = 20.0;
        registry.record_job(metrics(1, 10, 1), Some(&report));
        registry.record_job(metrics(0, 30, 2), Some(&report));
        registry.record_job(metrics(2, 5, 0), None);
        registry.record_steals(3);
        registry.record_cache(4, 2, 2);

        let snap = registry.snapshot();
        assert_eq!(snap.jobs_submitted, 3);
        assert_eq!(snap.jobs_completed, 2);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.aggregate.total_ns(), 100.0);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(snap.total_latency_ns, 45);
        assert_eq!(snap.steals, 3);
        assert_eq!((snap.cache_hits, snap.cache_misses), (4, 2));
        let order: Vec<usize> = snap.jobs.iter().map(|j| j.index).collect();
        assert_eq!(order, vec![0, 1, 2], "export is batch-ordered");
        assert!(snap.jobs[0].ok && !snap.jobs[2].ok);
        assert_eq!(snap.jobs[0].sim_time_ns, 50.0);
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let registry = MetricsRegistry::new();
        // 98 fast jobs (~1 us) and 2 slow outliers (~1 ms): p50/p95 must
        // sit in the fast bucket, p99 must reach the outliers.
        for i in 0..98 {
            registry.record_job(metrics(i, 1_000, 0), Some(&ExecReport::new()));
        }
        for i in 98..100 {
            registry.record_job(metrics(i, 1_000_000, 0), Some(&ExecReport::new()));
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
        let empty = MetricsRegistry::new().snapshot();
        assert_eq!(
            (
                empty.latency_p50_ns,
                empty.latency_p95_ns,
                empty.latency_p99_ns
            ),
            (0, 0, 0)
        );
        // A single zero-latency job lands in bucket 0.
        let registry = MetricsRegistry::new();
        registry.record_job(metrics(0, 0, 0), Some(&ExecReport::new()));
        let snap = registry.snapshot();
        assert_eq!(snap.latency_p99_ns, 0);
        assert_eq!(snap.latency_histogram[0], 1);
        // A single sample: every percentile is that bucket's midpoint,
        // never the inclusive upper bound (the old biased convention).
        let registry = MetricsRegistry::new();
        registry.record_job(metrics(0, 600, 0), Some(&ExecReport::new()));
        let snap = registry.snapshot();
        assert_eq!(snap.latency_p50_ns, 767, "midpoint of [512, 1023]");
        assert_eq!(snap.latency_p50_ns, snap.latency_p99_ns);
        // Extreme latency saturates into the last bucket without
        // overflowing; its midpoint sits in the top half of u64 range.
        let registry = MetricsRegistry::new();
        registry.record_job(metrics(0, u64::MAX, 0), Some(&ExecReport::new()));
        let p50 = registry.snapshot().latency_p50_ns;
        assert!((1u64 << 63..u64::MAX).contains(&p50));
    }

    #[test]
    fn rollups_and_integer_totals_cover_jobs_past_the_row_window() {
        let registry = MetricsRegistry::new();
        let tenants = ["alice", "bob", "carol"];
        let mut recorded = Vec::new();
        for i in 0..(2 * JOB_ROW_BUDGET + 37) {
            let mut row = metrics(i, 100 + i as u64, i % 5);
            row.tenant = tenants[i % tenants.len()].to_string();
            row.cache_hit = i % 4 == 0;
            row.cache_miss = i % 4 == 1;
            row.stolen = i % 7 == 0;
            // Every ninth job fails; the rest carry awkward float totals so
            // a per-job rounding difference would show in the sums.
            let report = (i % 9 != 0).then(|| {
                let mut r = ExecReport::new();
                r.time.process_ns = 0.1 + i as f64 * 1.337;
                r.energy.compute_pj = 0.7 + i as f64 * 2.0001;
                r
            });
            registry.record_job(row.clone(), report.as_ref());
            recorded.push((row, report));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.jobs.len(), JOB_ROW_BUDGET, "rows stay at the budget");
        let newest: Vec<usize> = snap.jobs.iter().map(|j| j.index).collect();
        let want: Vec<usize> = (recorded.len() - JOB_ROW_BUDGET..recorded.len()).collect();
        assert_eq!(newest, want, "the window keeps the most recent rows");

        // An independent fold over every recorded job.
        let mut full: BTreeMap<String, TenantMetrics> = BTreeMap::new();
        let (mut time_ps, mut energy_fj) = (0u64, 0u64);
        for (row, report) in &recorded {
            let t = full.entry(row.tenant.clone()).or_default();
            t.tenant = row.tenant.clone();
            t.jobs_submitted += 1;
            t.cache_hits += u64::from(row.cache_hit);
            t.cache_misses += u64::from(row.cache_miss);
            t.steals += u64::from(row.stolen);
            t.total_latency_ns += row.latency_ns;
            match report {
                Some(r) => {
                    t.jobs_completed += 1;
                    t.sim_time_ns += r.total_ns();
                    t.sim_energy_pj += r.total_pj();
                    time_ps += (r.total_ns() * 1e3).round() as u64;
                    energy_fj += (r.total_pj() * 1e3).round() as u64;
                }
                None => t.jobs_failed += 1,
            }
        }
        let full: Vec<TenantMetrics> = full.into_values().collect();
        assert_eq!(snap.tenants, full);
        assert_eq!((snap.sim_time_ps, snap.sim_energy_fj), (time_ps, energy_fj));
        assert_eq!(snap.jobs_submitted, recorded.len() as u64);
    }

    #[test]
    fn json_round_trips() {
        let registry = MetricsRegistry::new();
        registry.record_job(metrics(0, 7, 1), Some(&ExecReport::new()));
        let json = registry.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, registry.snapshot());
        assert!(json.contains("\"jobs_completed\": 1"));
    }
}
