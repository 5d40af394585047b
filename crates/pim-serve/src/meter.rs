//! The metering ledger: cost tiers at admission, consumption at settlement.
//!
//! Pricing follows the multiplier-based model (ROADMAP open item 1): the
//! operator sets a single **base rate** and every job is classified into a
//! cost tier whose price is a multiple of it. The tier is estimated *at
//! admission* from the workload shape alone (FLOP count of the spec — no
//! simulation needed, so the estimate is instant and monotone in workload
//! size), then *reconciled at completion* against the actual simulated
//! consumption from the run report.
//!
//! ## Conservation
//!
//! The ledger's correctness contract is an exact conservation invariant:
//! per-tenant metered totals sum to the ledger's global counters, and the
//! global counters agree with the runtime's own accounting
//! ([`pim_runtime::MetricsSnapshot`]). Operation counts are `u64` and
//! compare exactly. Time and energy are `f64` in the run report, and f64
//! sums are order-dependent — so the ledger meters them as **integers**,
//! quantized once per job (picoseconds / femtojoules, rounded, with the
//! runtime's own [`quantize_ns_to_ps`] / [`quantize_pj_to_fj`]). Integer
//! addition commutes, which makes the per-tenant ↔ global reconciliation
//! exact no matter which order jobs complete in. The raw per-job floats are
//! kept alongside in each meter record, so no precision is lost to the
//! quantization — it exists only to make *sums* order-independent.
//!
//! ## Bounded records
//!
//! Totals are folded at settle and cancel time, so a job's record is not
//! needed for any total afterwards. The server drops it with
//! [`Ledger::evict`] when it evicts the job's own record; pending records
//! are never evicted.

use pim_device::ExecReport;
use pim_runtime::{quantize_ns_to_ps, quantize_pj_to_fj, MetricsSnapshot};
use pim_workloads::WorkloadSpec;
use rm_core::OpCounters;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// A pricing tier: a named multiplier over the base rate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostTier {
    /// Tier name (stable identifiers: `probe`, `small`, `medium`, `large`,
    /// `xlarge`).
    pub name: String,
    /// Price as a multiple of the base rate.
    pub multiplier: u64,
}

/// The tier table: `(name, multiplier, flop ceiling)` — a job lands in the
/// first tier whose ceiling its estimated FLOP count is below. Ceilings
/// are strictly increasing and multipliers strictly increasing, so the
/// estimated price is monotone in workload size (the metering proptests
/// assert this).
pub const TIER_TABLE: [(&str, u64, f64); 5] = [
    ("probe", 1, 1e6),
    ("small", 4, 1e8),
    ("medium", 20, 1e10),
    ("large", 100, 1e12),
    ("xlarge", 500, f64::INFINITY),
];

/// Classifies a workload into its cost tier from shape alone. A cluster
/// job pricing `batch` identical items is `batch ×` the FLOPs of one, so
/// the admission estimate scales with it (the settled bill is reconciled
/// from the actual report either way); a single job passes `1`.
pub fn tier_for(spec: &WorkloadSpec, batch: u64) -> CostTier {
    let flops = spec.profile().flops * batch.max(1) as f64;
    let (name, multiplier, _) = TIER_TABLE
        .iter()
        .find(|(_, _, ceiling)| flops < *ceiling)
        .expect("last ceiling is infinite");
    CostTier {
        name: (*name).to_string(),
        multiplier: *multiplier,
    }
}

/// Metering knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeterConfig {
    /// Price of a tier-1 job, in microcredits.
    pub base_rate_microcredits: u64,
    /// Simulated picoseconds of device time per microcredit of usage
    /// billing.
    pub time_ps_per_microcredit: u64,
    /// Simulated femtojoules of device energy per microcredit of usage
    /// billing.
    pub energy_fj_per_microcredit: u64,
}

impl Default for MeterConfig {
    fn default() -> Self {
        MeterConfig {
            base_rate_microcredits: 10,
            time_ps_per_microcredit: 1_000_000, // 1 µs simulated time
            energy_fj_per_microcredit: 1_000_000, // 1 nJ simulated energy
        }
    }
}

/// Exact (integer) consumption metered for one job or one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Consumption {
    /// Raw operation counters, straight from the run report.
    pub ops: OpCounters,
    /// Simulated time, quantized to picoseconds (rounded once per job).
    pub time_ps: u64,
    /// Simulated energy, quantized to femtojoules (rounded once per job).
    pub energy_fj: u64,
}

impl Consumption {
    /// Quantizes one run report. This is the single place where floats
    /// become metered integers; both the ledger and the conservation
    /// checks must go through it so per-job values agree bit-for-bit.
    pub fn from_report(report: &ExecReport) -> Self {
        Consumption {
            ops: report.counters,
            time_ps: quantize_ns_to_ps(report.total_ns()),
            energy_fj: quantize_pj_to_fj(report.total_pj()),
        }
    }

    /// Field-wise accumulation (exact: all fields are integers).
    pub fn absorb(&mut self, other: &Consumption) {
        self.ops += other.ops;
        self.time_ps += other.time_ps;
        self.energy_fj += other.energy_fj;
    }
}

/// Lifecycle of one job's meter record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeterState {
    /// Admitted; estimate charged, consumption not yet known.
    Pending,
    /// Completed (or failed); actual consumption reconciled.
    Settled,
    /// Cancelled before dispatch; zero consumption, estimate refunded.
    Cancelled,
}

/// The meter record of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeterRecord {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Correlating request id of the HTTP submission that admitted this
    /// job (empty for direct/batch admissions). Telemetry only: never
    /// priced, never part of the conservation invariant.
    pub request_id: String,
    /// Tier assigned at admission from the workload shape.
    pub tier: CostTier,
    /// Up-front price: `tier.multiplier × base rate`, microcredits.
    pub estimated_microcredits: u64,
    /// Where the record is in its lifecycle.
    pub state: MeterState,
    /// Metered consumption (zero until settled; stays zero for cancelled
    /// and failed jobs).
    pub actual: Consumption,
    /// Usage-reconciled price, microcredits: what the consumption cost at
    /// the configured time/energy rates (zero for cancelled/failed jobs,
    /// minimum one base rate for any job that ran).
    pub billed_microcredits: u64,
}

/// Per-tenant running totals.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Tenant name.
    pub tenant: String,
    /// Jobs admitted (each has a meter record).
    pub jobs_admitted: u64,
    /// Jobs settled (completed or failed).
    pub jobs_settled: u64,
    /// Jobs cancelled before dispatch.
    pub jobs_cancelled: u64,
    /// Sum of admission estimates, microcredits (cancelled jobs refunded).
    pub estimated_microcredits: u64,
    /// Sum of usage-reconciled bills, microcredits.
    pub billed_microcredits: u64,
    /// Exact metered consumption across all settled jobs.
    pub consumed: Consumption,
}

/// Point-in-time export of the whole ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// The metering configuration in force.
    pub config: MeterConfig,
    /// Global totals (must equal the sum of `tenants` — see
    /// [`Ledger::check_conservation`]).
    pub global: TenantUsage,
    /// Per-tenant totals, sorted by tenant name.
    pub tenants: Vec<TenantUsage>,
}

/// Thread-safe metering ledger.
#[derive(Debug, Default)]
pub struct Ledger {
    config: MeterConfig,
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    records: HashMap<u64, MeterRecord>,
    tenants: BTreeMap<String, TenantUsage>,
    global: TenantUsage,
}

impl Ledger {
    /// A ledger with the given configuration.
    pub fn new(config: MeterConfig) -> Self {
        Ledger {
            config,
            inner: Mutex::new(LedgerInner::default()),
        }
    }

    /// The metering configuration.
    pub fn config(&self) -> &MeterConfig {
        &self.config
    }

    /// Charges the admission estimate and opens a pending record stamped
    /// with the submitting request's correlation id (empty for direct
    /// admissions). Returns a copy of the record (for the submit
    /// response). The tier estimate scales with `batch` (see [`tier_for`]);
    /// settlement reconciles the actual report either way.
    pub fn admit(
        &self,
        job_id: u64,
        tenant: &str,
        request_id: &str,
        spec: &WorkloadSpec,
        batch: u64,
    ) -> MeterRecord {
        let tier = tier_for(spec, batch);
        let estimated = tier.multiplier * self.config.base_rate_microcredits;
        let record = MeterRecord {
            job_id,
            tenant: tenant.to_string(),
            request_id: request_id.to_string(),
            tier,
            estimated_microcredits: estimated,
            state: MeterState::Pending,
            actual: Consumption::default(),
            billed_microcredits: 0,
        };
        let mut inner = self.inner.lock().expect("ledger lock");
        let account = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantUsage {
                tenant: tenant.to_string(),
                ..TenantUsage::default()
            });
        account.jobs_admitted += 1;
        account.estimated_microcredits += estimated;
        inner.global.jobs_admitted += 1;
        inner.global.estimated_microcredits += estimated;
        inner.records.insert(job_id, record.clone());
        record
    }

    /// Settles a pending record against the job's outcome. `report` is
    /// `None` for failed jobs, which consume (and are billed) nothing.
    /// Returns the settled record; panics if the job was never admitted
    /// (server bug, not client error).
    pub fn settle(&self, job_id: u64, report: Option<&ExecReport>) -> MeterRecord {
        let mut inner = self.inner.lock().expect("ledger lock");
        let (tenant, actual, billed) = {
            let record = inner.records.get(&job_id).expect("settle: job admitted");
            assert_eq!(record.state, MeterState::Pending, "settle: still pending");
            match report {
                Some(r) => {
                    let actual = Consumption::from_report(r);
                    (record.tenant.clone(), actual, self.bill(&actual))
                }
                None => (record.tenant.clone(), Consumption::default(), 0),
            }
        };
        let LedgerInner {
            tenants, global, ..
        } = &mut *inner;
        for account in [tenants.get_mut(&tenant).expect("tenant account"), global] {
            account.jobs_settled += 1;
            account.billed_microcredits += billed;
            account.consumed.absorb(&actual);
        }
        let record = inner
            .records
            .get_mut(&job_id)
            .expect("settle: job admitted");
        record.state = MeterState::Settled;
        record.actual = actual;
        record.billed_microcredits = billed;
        record.clone()
    }

    /// Cancels a pending record (queued job removed before dispatch): the
    /// admission estimate is refunded and nothing is consumed. Returns
    /// `false` if the record is not pending (already settled/cancelled).
    pub fn cancel(&self, job_id: u64) -> bool {
        let mut inner = self.inner.lock().expect("ledger lock");
        let (tenant, estimated) = match inner.records.get_mut(&job_id) {
            Some(record) if record.state == MeterState::Pending => {
                record.state = MeterState::Cancelled;
                (record.tenant.clone(), record.estimated_microcredits)
            }
            _ => return false,
        };
        let LedgerInner {
            tenants, global, ..
        } = &mut *inner;
        for account in [tenants.get_mut(&tenant).expect("tenant account"), global] {
            account.jobs_cancelled += 1;
            account.estimated_microcredits -= estimated;
        }
        true
    }

    /// The usage-reconciled price of `actual` consumption: time plus
    /// energy at the configured rates, with a floor of one base rate for
    /// any job that actually ran (ceil-division, so consumption is never
    /// rounded down to free).
    fn bill(&self, actual: &Consumption) -> u64 {
        let time_units = actual.time_ps.div_ceil(self.config.time_ps_per_microcredit);
        let energy_units = actual
            .energy_fj
            .div_ceil(self.config.energy_fj_per_microcredit);
        (time_units + energy_units).max(self.config.base_rate_microcredits)
    }

    /// Drops a settled or cancelled job's record; the totals already hold
    /// its consumption. Returns whether a record was dropped. Pending
    /// records stay: their job has not finished.
    pub fn evict(&self, job_id: u64) -> bool {
        let mut inner = self.inner.lock().expect("ledger lock");
        match inner.records.get(&job_id) {
            Some(record) if record.state != MeterState::Pending => {
                inner.records.remove(&job_id);
                true
            }
            _ => false,
        }
    }

    /// Meter records currently held: pending jobs plus finished ones not
    /// yet evicted.
    pub fn resident_records(&self) -> usize {
        self.inner.lock().expect("ledger lock").records.len()
    }

    /// The meter record of one job.
    pub fn record(&self, job_id: u64) -> Option<MeterRecord> {
        self.inner
            .lock()
            .expect("ledger lock")
            .records
            .get(&job_id)
            .cloned()
    }

    /// One tenant's running totals.
    pub fn usage(&self, tenant: &str) -> Option<TenantUsage> {
        self.inner
            .lock()
            .expect("ledger lock")
            .tenants
            .get(tenant)
            .cloned()
    }

    /// Full ledger export.
    pub fn summary(&self) -> LedgerSummary {
        let inner = self.inner.lock().expect("ledger lock");
        LedgerSummary {
            config: self.config.clone(),
            global: inner.global.clone(),
            tenants: inner.tenants.values().cloned().collect(),
        }
    }

    /// Checks the conservation invariant against the runtime's snapshot:
    ///
    /// 1. per-tenant totals sum exactly to the ledger's global totals
    ///    (consumption, bills, estimates, and job counts);
    /// 2. the ledger's global operation counters equal the runtime's
    ///    aggregate [`OpCounters`] exactly (both are `u64` sums of the
    ///    same per-job values);
    /// 3. the ledger's global metered time/energy equal the runtime's
    ///    integer totals ([`MetricsSnapshot::sim_time_ps`] and
    ///    [`MetricsSnapshot::sim_energy_fj`]), which use the same per-job
    ///    rounding.
    ///
    /// Holds under cancellation (cancelled jobs never reach the runtime
    /// and meter zero) and drain (every admitted job settles before the
    /// final snapshot). Returns a description of the first violation.
    pub fn check_conservation(&self, snapshot: &MetricsSnapshot) -> Result<(), String> {
        let inner = self.inner.lock().expect("ledger lock");
        let mut tenant_sum = TenantUsage::default();
        for account in inner.tenants.values() {
            tenant_sum.jobs_admitted += account.jobs_admitted;
            tenant_sum.jobs_settled += account.jobs_settled;
            tenant_sum.jobs_cancelled += account.jobs_cancelled;
            tenant_sum.estimated_microcredits += account.estimated_microcredits;
            tenant_sum.billed_microcredits += account.billed_microcredits;
            tenant_sum.consumed.absorb(&account.consumed);
        }
        let global = &inner.global;
        if tenant_sum.consumed != global.consumed {
            return Err(format!(
                "tenant consumption sum {:?} != global {:?}",
                tenant_sum.consumed, global.consumed
            ));
        }
        for (what, a, b) in [
            (
                "jobs_admitted",
                tenant_sum.jobs_admitted,
                global.jobs_admitted,
            ),
            ("jobs_settled", tenant_sum.jobs_settled, global.jobs_settled),
            (
                "jobs_cancelled",
                tenant_sum.jobs_cancelled,
                global.jobs_cancelled,
            ),
            (
                "estimated_microcredits",
                tenant_sum.estimated_microcredits,
                global.estimated_microcredits,
            ),
            (
                "billed_microcredits",
                tenant_sum.billed_microcredits,
                global.billed_microcredits,
            ),
        ] {
            if a != b {
                return Err(format!("tenant {what} sum {a} != global {b}"));
            }
        }

        if global.consumed.ops != snapshot.aggregate.counters {
            return Err(format!(
                "ledger ops {:?} != runtime aggregate {:?}",
                global.consumed.ops, snapshot.aggregate.counters
            ));
        }
        if global.consumed.time_ps != snapshot.sim_time_ps {
            return Err(format!(
                "ledger time {} ps != runtime {} ps",
                global.consumed.time_ps, snapshot.sim_time_ps
            ));
        }
        if global.consumed.energy_fj != snapshot.sim_energy_fj {
            return Err(format!(
                "ledger energy {} fj != runtime {} fj",
                global.consumed.energy_fj, snapshot.sim_energy_fj
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workloads::Kernel;

    fn report(ns: f64, pj: f64) -> ExecReport {
        let mut r = ExecReport::new();
        r.time.process_ns = ns;
        r.energy.compute_pj = pj;
        r.counters.reads = 3;
        r.counters.pim_adds = 7;
        r
    }

    #[test]
    fn tiers_cover_the_workload_range() {
        // A tiny probe lands in tier 1, the full-size BERT model at the top.
        let probe = tier_for(&WorkloadSpec::MatMul { m: 4, k: 4, n: 4 }, 1);
        assert_eq!((probe.name.as_str(), probe.multiplier), ("probe", 1));
        let big = tier_for(&WorkloadSpec::dnn(pim_workloads::DnnKind::Bert), 1);
        assert!(big.multiplier > probe.multiplier);
        // Tier multipliers and ceilings are strictly increasing.
        for pair in TIER_TABLE.windows(2) {
            assert!(pair[0].1 < pair[1].1, "multipliers increase");
            assert!(pair[0].2 < pair[1].2, "ceilings increase");
        }
    }

    #[test]
    fn batched_tier_scales_with_the_batch() {
        let spec = WorkloadSpec::MatMul {
            m: 128,
            k: 128,
            n: 128,
        };
        let one = tier_for(&spec, 1);
        // 128³ gemm is ~4.2 MFLOP (tier `small`); 64 of them cross the
        // 1e8 ceiling into `medium`.
        let many = tier_for(&spec, 64);
        assert!(
            many.multiplier > one.multiplier,
            "batch raises the estimate: {one:?} vs {many:?}"
        );
        // Estimates stay monotone in batch size.
        let mut last = 0;
        for batch in [1, 2, 8, 64, 512] {
            let m = tier_for(&spec, batch).multiplier;
            assert!(m >= last);
            last = m;
        }
    }

    #[test]
    fn admit_settle_reconciles() {
        let ledger = Ledger::new(MeterConfig::default());
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let admitted = ledger.admit(1, "alice", "req-00000001", &spec, 1);
        assert_eq!(admitted.state, MeterState::Pending);
        assert_eq!(
            admitted.estimated_microcredits,
            admitted.tier.multiplier * 10
        );

        let r = report(2_500_000.0, 1_000.0); // 2.5 ms, 1 nJ
        let settled = ledger.settle(1, Some(&r));
        assert_eq!(settled.state, MeterState::Settled);
        assert_eq!(settled.actual.time_ps, 2_500_000_000);
        assert_eq!(settled.actual.energy_fj, 1_000_000);
        // 2500 time units + 1 energy unit at the default rates.
        assert_eq!(settled.billed_microcredits, 2501);
        assert_eq!(settled.actual.ops.reads, 3);

        let usage = ledger.usage("alice").unwrap();
        assert_eq!(usage.jobs_settled, 1);
        assert_eq!(usage.billed_microcredits, 2501);
        assert_eq!(usage.consumed, settled.actual);
    }

    #[test]
    fn failed_jobs_settle_to_zero() {
        let ledger = Ledger::new(MeterConfig::default());
        ledger.admit(
            1,
            "alice",
            "",
            &WorkloadSpec::MatMul { m: 4, k: 4, n: 4 },
            1,
        );
        let settled = ledger.settle(1, None);
        assert_eq!(settled.billed_microcredits, 0);
        assert_eq!(settled.actual, Consumption::default());
        assert_eq!(ledger.usage("alice").unwrap().jobs_settled, 1);
    }

    #[test]
    fn cancel_refunds_the_estimate_once() {
        let ledger = Ledger::new(MeterConfig::default());
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        ledger.admit(1, "alice", "req-00000001", &spec, 1);
        let before = ledger.usage("alice").unwrap().estimated_microcredits;
        assert!(before > 0);
        assert!(ledger.cancel(1), "pending jobs cancel");
        assert!(!ledger.cancel(1), "cancel is not repeatable");
        let usage = ledger.usage("alice").unwrap();
        assert_eq!(usage.estimated_microcredits, 0);
        assert_eq!(usage.jobs_cancelled, 1);
        // A settled job cannot be cancelled.
        ledger.admit(2, "alice", "", &spec, 1);
        ledger.settle(2, Some(&report(10.0, 10.0)));
        assert!(!ledger.cancel(2));
    }

    #[test]
    fn evict_drops_finished_records_and_keeps_totals() {
        let ledger = Ledger::new(MeterConfig::default());
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        for id in 1..=3 {
            ledger.admit(id, "alice", "", &spec, 1);
        }
        ledger.settle(1, Some(&report(10.0, 10.0)));
        assert!(ledger.cancel(2));
        let before = ledger.summary();
        assert!(!ledger.evict(3), "pending records stay");
        assert!(ledger.evict(1) && ledger.evict(2));
        assert!(!ledger.evict(1), "already gone");
        assert_eq!(ledger.resident_records(), 1);
        assert!(ledger.record(1).is_none());
        assert_eq!(ledger.summary(), before, "totals are untouched");
    }

    #[test]
    fn tiny_jobs_are_never_free() {
        let ledger = Ledger::new(MeterConfig::default());
        ledger.admit(1, "a", "", &WorkloadSpec::MatMul { m: 2, k: 2, n: 2 }, 1);
        let settled = ledger.settle(1, Some(&report(0.4, 0.2)));
        assert_eq!(
            settled.billed_microcredits,
            MeterConfig::default().base_rate_microcredits,
            "floor of one base rate"
        );
    }

    #[test]
    fn summary_partitions_by_tenant() {
        let ledger = Ledger::new(MeterConfig::default());
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        ledger.admit(1, "bob", "", &spec, 1);
        ledger.admit(2, "alice", "", &spec, 1);
        ledger.settle(1, Some(&report(100.0, 100.0)));
        ledger.settle(2, Some(&report(200.0, 50.0)));
        let summary = ledger.summary();
        assert_eq!(summary.tenants.len(), 2);
        assert_eq!(summary.tenants[0].tenant, "alice", "sorted by name");
        assert_eq!(
            summary.global.billed_microcredits,
            summary
                .tenants
                .iter()
                .map(|t| t.billed_microcredits)
                .sum::<u64>()
        );
        let json = serde_json::to_string_pretty(&summary).unwrap();
        let back: LedgerSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
