//! Metering properties (ISSUE satellite): the tier estimate is monotone in
//! workload size, and the ledger's conservation invariant holds — exactly,
//! not approximately — for arbitrary job mixes, completion orders,
//! cancellations, and drain.

use pim_baselines::PlatformKind;
use pim_runtime::{quantize_ns_to_ps, quantize_pj_to_fj, Job, Runtime, RuntimeConfig};
use pim_serve::meter::{tier_for, Consumption, Ledger, MeterConfig};
use pim_serve::{api::SubmitRequest, call, AdmissionConfig, ServeConfig, Server};
use pim_workloads::{Kernel, WorkloadSpec};
use proptest::prelude::*;

/// The up-front price of a spec, in microcredits at the default base rate.
fn estimate(spec: &WorkloadSpec) -> u64 {
    tier_for(spec, 1).multiplier * MeterConfig::default().base_rate_microcredits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Monotonicity: a workload with more flops is never estimated cheaper.
    /// (Within one tier the estimate is flat; across tiers it increases —
    /// both satisfy monotone-nondecreasing.)
    #[test]
    fn tier_estimate_is_monotone_in_workload_size(
        m1 in 1usize..2048, k1 in 1usize..2048, n1 in 1usize..2048,
        m2 in 1usize..2048, k2 in 1usize..2048, n2 in 1usize..2048,
    ) {
        let a = WorkloadSpec::MatMul { m: m1, k: k1, n: n1 };
        let b = WorkloadSpec::MatMul { m: m2, k: k2, n: n2 };
        let (small, large) = if a.profile().flops <= b.profile().flops {
            (a, b)
        } else {
            (b, a)
        };
        prop_assert!(
            estimate(&small) <= estimate(&large),
            "flops {} -> {} microcredits, but flops {} -> {}",
            small.profile().flops, estimate(&small),
            large.profile().flops, estimate(&large),
        );
    }

    /// Scaling any one dimension up never lowers the estimate.
    #[test]
    fn tier_estimate_is_monotone_under_scaling(
        m in 1usize..512, k in 1usize..512, n in 1usize..512, factor in 1usize..8,
    ) {
        let base = WorkloadSpec::MatMul { m, k, n };
        let scaled = WorkloadSpec::MatMul { m: m * factor, k, n };
        prop_assert!(estimate(&base) <= estimate(&scaled));
    }

    /// Conservation at the ledger level: an arbitrary mix of jobs across
    /// tenants — some completed, some cancelled before dispatch — always
    /// reconciles exactly against the runtime's own counters, regardless
    /// of completion order. `check_conservation` compares `OpCounters` as
    /// `u64`s and time/energy as per-job-quantized integer sums, so any
    /// drift whatsoever fails.
    #[test]
    fn ledger_reconciles_exactly_against_the_runtime(
        picks in proptest::collection::vec((0usize..3, 0usize..5, 1u32..4), 1..7),
        cancel_mask in 0u64..64,
    ) {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let ledger = Ledger::new(MeterConfig::default());
        let tenants = ["alice", "bob", "carol"];
        let kernels = [Kernel::Gemm, Kernel::Atax, Kernel::Bicg, Kernel::Mvt, Kernel::Gesummv];
        // The outcomes' reports, each quantized once, as the ledger does.
        let (mut outcome_time_ps, mut outcome_energy_fj) = (0u64, 0u64);

        for (job_id, (tenant_idx, kernel_idx, scale_steps)) in picks.iter().enumerate() {
            let job_id = job_id as u64;
            let tenant = tenants[*tenant_idx];
            let spec = WorkloadSpec::polybench(
                kernels[*kernel_idx],
                0.01 * f64::from(*scale_steps),
            );
            ledger.admit(job_id, tenant, "", &spec, 1);
            if cancel_mask & (1 << job_id) != 0 {
                // Cancelled before dispatch: never reaches the runtime.
                prop_assert!(ledger.cancel(job_id));
                continue;
            }
            let job = Job::new(spec, PlatformKind::StPim);
            let batch = runtime.run_batch(&[job]);
            let outcome = &batch.outcomes[0];
            let record = ledger.settle(job_id, outcome.report.as_ref().ok());
            // The record meters exactly the job's report.
            if let Ok(report) = &outcome.report {
                prop_assert_eq!(record.actual, Consumption::from_report(report));
                outcome_time_ps += quantize_ns_to_ps(report.total_ns());
                outcome_energy_fj += quantize_pj_to_fj(report.total_pj());
            }
        }

        let snapshot = runtime.shutdown();
        let conservation = ledger.check_conservation(&snapshot);
        prop_assert!(conservation.is_ok(), "conservation violated: {:?}", conservation);

        // The ledger's metered totals equal the batch outcomes' reports,
        // each quantized once (both sides saw the identical f64s).
        let summary = ledger.summary();
        prop_assert_eq!(summary.global.consumed.time_ps, outcome_time_ps);
        prop_assert_eq!(summary.global.consumed.energy_fj, outcome_energy_fj);
        // And the tenant partition sums to the global exactly.
        let tenant_billed: u64 = summary.tenants.iter().map(|t| t.billed_microcredits).sum();
        prop_assert_eq!(tenant_billed, summary.global.billed_microcredits);
    }
}

/// Conservation through the real service: submit over HTTP, cancel a
/// queued job, drain, and reconcile. Covers the full admission → queue →
/// dispatch → settle → drain path rather than driving the ledger directly.
#[test]
fn conservation_holds_through_the_server_with_cancellation_and_drain() {
    let server = Server::start(ServeConfig {
        dispatch_workers: 2,
        admission: AdmissionConfig {
            max_queued_per_tenant: 32,
            max_inflight_per_tenant: 2,
            max_queued_global: 64,
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut ids = Vec::new();
    for (tenant, m) in [
        ("alice", 16),
        ("bob", 24),
        ("alice", 32),
        ("carol", 40),
        ("bob", 48),
        ("alice", 56),
    ] {
        let request = SubmitRequest {
            tenant: tenant.to_string(),
            job: Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim),
        };
        let (status, _, body) = call(
            &addr,
            "POST",
            "/v1/jobs",
            Some(&serde_json::to_string(&request).unwrap()),
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        let submitted: pim_serve::SubmitResponse = serde_json::from_str(&body).unwrap();
        ids.push(submitted.id);
    }
    // Best-effort cancellation: whichever of these are still queued get
    // refunded; ones already running/completed return 409. Both paths must
    // preserve conservation.
    for id in &ids[3..] {
        let (status, _, _) = call(&addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
        assert!(
            status == 200 || status == 409,
            "unexpected cancel status {status}"
        );
    }

    let (status, _, body) = call(&addr, "POST", "/v1/admin/drain", None).unwrap();
    assert_eq!(status, 200, "{body}");
    server
        .check_conservation()
        .expect("conservation after drain");
    let drained = server.shutdown();
    let settled = drained.ledger.global.jobs_settled;
    let cancelled = drained.ledger.global.jobs_cancelled;
    assert_eq!(
        settled + cancelled,
        ids.len() as u64,
        "every admitted job accounted"
    );
    assert_eq!(
        drained.runtime.jobs_completed, settled,
        "settled == completed"
    );
}
