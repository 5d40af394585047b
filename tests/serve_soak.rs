//! Soak test of the service's memory budgets: more than twice the largest
//! retention budget in tiny jobs, all over HTTP, each a shape the schedule
//! cache has not seen. Every per-job structure on the serving path must
//! plateau at its budget:
//!
//! 1. the resident-size gauges on `/metrics.prom` (finished job records,
//!    ledger records, schedule-cache entries) never exceed their budgets
//!    and end exactly at them;
//! 2. the `/v1/metrics` body stops growing with the number of jobs served;
//! 3. the ledger still reconciles exactly with the runtime
//!    (`check_conservation`), although neither keeps per-job state for
//!    most of the jobs;
//! 4. an evicted job answers 410 Gone, an id never issued 404.

use std::net::SocketAddr;
use std::time::Duration;
use streampim::pim_baselines::PlatformKind;
use streampim::pim_runtime::{Job, SCHEDULE_CACHE_BUDGET};
use streampim::pim_serve::api::{HealthResponse, SubmitRequest, SubmitResponse};
use streampim::pim_serve::{call, ServeConfig, Server, TERMINAL_JOB_BUDGET};
use streampim::pim_workloads::WorkloadSpec;

/// Jobs submitted before waiting for the server to go idle: below the
/// default per-tenant queue cap, so no submission is refused.
const WINDOW: usize = 48;
/// Jobs between two budget checkpoints.
const CHECKPOINT_EVERY: usize = 256;

/// The `i`-th job's shape: a distinct tiny matmul for every `i`.
fn shape(i: usize) -> WorkloadSpec {
    WorkloadSpec::MatMul {
        m: 1 + i % 16,
        k: 1 + (i / 16) % 16,
        n: 1 + i / 256,
    }
}

fn submit(addr: &SocketAddr, i: usize) -> u64 {
    let tenants = ["alice", "bob", "carol"];
    let body = serde_json::to_string(&SubmitRequest {
        tenant: tenants[i % tenants.len()].to_string(),
        job: Job::new(shape(i), PlatformKind::StPim),
    })
    .unwrap();
    let (status, _, body) = call(addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(status, 202, "job {i}: {body}");
    serde_json::from_str::<SubmitResponse>(&body).unwrap().id
}

fn wait_idle(addr: &SocketAddr) {
    for _ in 0..10_000 {
        let (status, _, body) = call(addr, "GET", "/v1/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        if health.queued == 0 && health.in_flight == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("server never went idle");
}

/// The value of an unlabeled gauge in a Prometheus exposition.
fn gauge(exposition: &str, name: &str) -> usize {
    let prefix = format!("{name} ");
    let line = exposition
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("gauge {name} missing"));
    line[prefix.len()..].trim().parse().unwrap()
}

/// The budgeted gauges and their budgets.
fn budgets() -> [(&'static str, usize); 3] {
    [
        ("pim_serve_finished_jobs", TERMINAL_JOB_BUDGET),
        ("pim_serve_ledger_records", TERMINAL_JOB_BUDGET),
        ("pim_runtime_cache_entries", SCHEDULE_CACHE_BUDGET),
    ]
}

#[test]
fn per_job_state_plateaus_at_its_budgets() {
    let largest = budgets().iter().map(|b| b.1).max().unwrap();
    let total = 2 * largest + 200;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // (jobs served, /v1/metrics body bytes) at every checkpoint.
    let mut body_sizes = Vec::new();
    let mut next_checkpoint = CHECKPOINT_EVERY;
    let mut first = None;
    let mut last = 0;
    for start in (0..total).step_by(WINDOW) {
        for i in start..(start + WINDOW).min(total) {
            last = submit(&addr, i);
            first.get_or_insert(last);
        }
        wait_idle(&addr);
        let served = (start + WINDOW).min(total);
        if served >= next_checkpoint || served == total {
            next_checkpoint += CHECKPOINT_EVERY;
            let (status, _, prom) = call(&addr, "GET", "/metrics.prom", None).unwrap();
            assert_eq!(status, 200);
            for (name, budget) in budgets() {
                let resident = gauge(&prom, name);
                assert!(
                    resident <= budget,
                    "{name} = {resident} exceeds its budget {budget} after {served} jobs"
                );
                if served >= 2 * budget {
                    assert_eq!(resident, budget, "{name} after {served} jobs");
                }
            }
            let (status, _, body) = call(&addr, "GET", "/v1/metrics", None).unwrap();
            assert_eq!(status, 200);
            body_sizes.push((served, body.len()));
        }
    }

    // Once every budget is full, the body no longer grows with the job
    // count. It still wobbles as counters and sums gain digits; a row per
    // job would instead add about 300 B per job, several times the whole
    // body by the end.
    let (settled_at, settled) = *body_sizes
        .iter()
        .find(|(served, _)| *served >= largest + CHECKPOINT_EVERY)
        .expect("a checkpoint past the largest budget");
    let (end_at, end) = *body_sizes.last().unwrap();
    assert!(
        end <= settled + settled / 10,
        "/v1/metrics grew from {settled} B at {settled_at} jobs to {end} B at {end_at}: {body_sizes:?}"
    );

    // Evicted jobs are gone, not unknown.
    let first = first.unwrap();
    for path in [
        format!("/v1/jobs/{first}"),
        format!("/v1/jobs/{first}/result"),
    ] {
        let (status, _, body) = call(&addr, "GET", &path, None).unwrap();
        assert_eq!(status, 410, "{path}: {body}");
    }
    let (status, _, body) = call(&addr, "DELETE", &format!("/v1/jobs/{first}"), None).unwrap();
    assert_eq!(status, 410, "{body}");
    let never = last + 1_000;
    let (status, _, body) = call(&addr, "GET", &format!("/v1/jobs/{never}"), None).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = call(&addr, "GET", &format!("/v1/jobs/{last}/result"), None).unwrap();
    assert_eq!(status, 200, "{body}");

    server.check_conservation().unwrap();
    let drained = server.shutdown();
    assert_eq!(drained.runtime.jobs_completed, total as u64);
    assert_eq!(drained.ledger.global.jobs_settled, total as u64);
}
