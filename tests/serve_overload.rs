//! Overload behavior of the service, end to end (ISSUE acceptance
//! criterion): under a concurrent burst that exceeds the admission caps,
//!
//! 1. every submission gets an *explicit* answer — admitted (202) or
//!    rejected (429 with a `Retry-After` hint) — never a silent drop;
//! 2. every admitted job reaches a terminal state — never a hang;
//! 3. every completed job's report is **byte-identical** to running the
//!    same job directly on `pim-runtime`, proving the network edge adds
//!    queueing and metering but never touches results.

use std::net::SocketAddr;
use std::time::Duration;
use streampim::pim_baselines::PlatformKind;
use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};
use streampim::pim_serve::api::{StatusResponse, SubmitRequest, SubmitResponse};
use streampim::pim_serve::{call, AdmissionConfig, JobState, ServeConfig, Server};
use streampim::pim_workloads::WorkloadSpec;

/// A burst job: tenant and matrix size (distinct sizes defeat the schedule
/// cache, so every job does real lowering work).
fn burst_jobs() -> Vec<(&'static str, usize)> {
    let tenants = ["alice", "bob", "carol"];
    (0..24)
        .map(|i| (tenants[i % tenants.len()], 16 + 8 * i))
        .collect()
}

fn submit_body(tenant: &str, m: usize) -> String {
    let request = SubmitRequest {
        tenant: tenant.to_string(),
        job: Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim),
    };
    serde_json::to_string(&request).expect("request serializes")
}

fn poll_terminal(addr: &SocketAddr, id: u64) -> StatusResponse {
    for _ in 0..4_000 {
        let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed: StatusResponse = serde_json::from_str(&body).unwrap();
        if parsed.state.is_terminal() {
            return parsed;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job {id} hung: never reached a terminal state");
}

/// Extracts the raw bytes of the `report` field from a result body. The
/// server assembles the body with exactly these separators, so this is a
/// faithful byte-level extraction, not a parse/re-serialize round trip.
fn raw_report(result_body: &str) -> &str {
    let start = result_body
        .find("\"report\": ")
        .expect("result has a report field")
        + "\"report\": ".len();
    let end = result_body
        .rfind(", \"error\":")
        .expect("error field follows");
    &result_body[start..end]
}

#[test]
fn overload_rejects_explicitly_and_admitted_jobs_match_direct_runs() {
    // Tight caps and a single dispatcher: most of the burst must shed.
    let server = Server::start(ServeConfig {
        dispatch_workers: 1,
        admission: AdmissionConfig {
            max_queued_per_tenant: 2,
            max_inflight_per_tenant: 1,
            max_queued_global: 5,
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Fire the whole burst concurrently.
    let clients: Vec<_> = burst_jobs()
        .into_iter()
        .map(|(tenant, m)| {
            std::thread::spawn(move || {
                let response = call(&addr, "POST", "/v1/jobs", Some(&submit_body(tenant, m)));
                (tenant, m, response)
            })
        })
        .collect();

    let mut admitted: Vec<(u64, &'static str, usize)> = Vec::new();
    let mut rejected = 0usize;
    for client in clients {
        let (tenant, m, response) = client.join().expect("burst client");
        let (status, headers, body) = response.expect("every submission gets a response");
        match status {
            202 => {
                let parsed: SubmitResponse = serde_json::from_str(&body).unwrap();
                assert_eq!(parsed.state, JobState::Queued);
                admitted.push((parsed.id, tenant, m));
            }
            429 => {
                // Explicit rejection: status, machine hint, and header.
                assert!(
                    headers.contains_key("retry-after"),
                    "429 without Retry-After: {body}"
                );
                assert!(body.contains("retry_after_ms"), "429 without hint: {body}");
                rejected += 1;
            }
            other => panic!("submission got unexpected status {other}: {body}"),
        }
    }
    // Nothing silently dropped: every burst job is accounted for, and the
    // tight caps really did shed (cap math: ≤ 5 queued + 3 in flight at
    // any instant, so a 24-wide concurrent burst cannot all fit).
    assert_eq!(admitted.len() + rejected, 24, "every submission answered");
    assert!(rejected > 0, "burst never tripped the caps");
    assert!(!admitted.is_empty(), "burst all rejected — caps too tight");

    // Every admitted job completes (bounded poll = no hangs).
    for (id, _, _) in &admitted {
        let terminal = poll_terminal(&addr, *id);
        assert_eq!(terminal.state, JobState::Completed, "job {id}");
    }

    // Byte-identity: each served report equals a direct pim-runtime run of
    // the identical job on a fresh runtime (fresh = no shared cache, so
    // this also re-proves cache transparency).
    let direct = Runtime::new(RuntimeConfig::default());
    for (id, _, m) in &admitted {
        let (status, _, body) = call(&addr, "GET", &format!("/v1/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let served = raw_report(&body).to_string();

        let job = Job::new(
            WorkloadSpec::MatMul {
                m: *m,
                k: *m,
                n: *m,
            },
            PlatformKind::StPim,
        );
        let outcome = direct.run_batch(&[job]).outcomes.remove(0);
        let report = outcome.report.expect("direct run succeeds");
        let direct_json = serde_json::to_string(&report).unwrap();
        assert_eq!(
            served, direct_json,
            "job {id} (m={m}): served report differs from direct run"
        );
    }

    // Drain and reconcile the meter.
    server
        .check_conservation()
        .expect("conservation under overload");
    let drained = server.shutdown();
    assert_eq!(
        drained.runtime.jobs_completed,
        admitted.len() as u64,
        "exactly the admitted jobs ran"
    );
    assert_eq!(
        drained.ledger.global.jobs_admitted,
        admitted.len() as u64,
        "rejected submissions never touch the ledger"
    );
}

/// Submissions racing a drain either complete normally or get an explicit
/// 503 — and the final ledger accounts for exactly the admitted ones.
#[test]
fn drain_races_are_explicit_too() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    let submitters: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let m = 16 + 8 * i;
                call(&addr, "POST", "/v1/jobs", Some(&submit_body("racer", m)))
            })
        })
        .collect();
    // Drain concurrently with the submissions.
    let drainer = std::thread::spawn(move || call(&addr, "POST", "/v1/admin/drain", None));

    let mut admitted = 0u64;
    for submitter in submitters {
        let (status, _, body) = submitter.join().unwrap().expect("response");
        match status {
            202 => admitted += 1,
            503 => assert!(body.contains("draining"), "{body}"),
            429 => {} // caps can also trip under the burst; still explicit
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    let (status, _, body) = drainer.join().unwrap().expect("drain response");
    assert_eq!(status, 200, "{body}");

    server
        .check_conservation()
        .expect("conservation across drain race");
    let drained = server.shutdown();
    assert_eq!(drained.ledger.global.jobs_admitted, admitted);
    assert_eq!(
        drained.ledger.global.jobs_settled + drained.ledger.global.jobs_cancelled,
        admitted,
        "every admitted job settled before the final snapshot"
    );
}

/// A submit body whose `job` still carries a `tenant` field, as clients
/// written against the older job schema send it, is admitted with that
/// field ignored: the job is billed to the request's tenant, served
/// byte-identically to a direct run, and the job's own tenant string
/// appears in no response or series.
#[test]
fn a_job_naming_its_own_tenant_is_billed_to_the_submitter() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    let plain = submit_body("alice", 16);
    let body = plain.replacen("\"job\":{", "\"job\":{\"tenant\":\"mallory\",", 1);
    assert_ne!(body, plain, "the job object carries the stray field");
    let (status, _, response) = call(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(status, 202, "{response}");
    let submitted: SubmitResponse = serde_json::from_str(&response).unwrap();
    assert_eq!(submitted.tenant, "alice");
    let terminal = poll_terminal(&addr, submitted.id);
    assert_eq!(terminal.state, JobState::Completed);
    assert_eq!(terminal.tenant, "alice");

    let (status, _, result) = call(
        &addr,
        "GET",
        &format!("/v1/jobs/{}/result", submitted.id),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{result}");
    let job = Job::new(
        WorkloadSpec::MatMul {
            m: 16,
            k: 16,
            n: 16,
        },
        PlatformKind::StPim,
    );
    let direct = Runtime::new(RuntimeConfig::default()).run_batch(&[job]);
    let direct = direct.outcomes[0]
        .report
        .as_ref()
        .expect("direct run succeeds");
    assert_eq!(raw_report(&result), serde_json::to_string(direct).unwrap());

    for path in ["/v1/metrics", "/metrics.prom", "/v1/debug/requests"] {
        let (status, _, body) = call(&addr, "GET", path, None).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        assert!(!body.contains("mallory"), "{path} names the ignored tenant");
    }
    let drained = server.shutdown();
    let billed: Vec<_> = drained.ledger.tenants.iter().map(|t| &t.tenant).collect();
    assert_eq!(billed, ["alice"]);
    assert_eq!(drained.ledger.global.jobs_settled, 1);
}
