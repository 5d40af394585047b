//! End-to-end smoke test for the flight recorder and device-health
//! telemetry, run by `make flight-smoke` in CI: boots an in-process server
//! with a deliberately tiny SLO objective so every job breaches, submits a
//! healthy-sized batch, then checks that
//!
//! 1. `GET /v1/debug/requests` serves a valid index with retained records,
//! 2. each retained record is fetchable in full at
//!    `GET /v1/debug/requests/<id>` (spans, attribution, folded stacks),
//! 3. unknown request ids get an explicit 404,
//! 4. `GET /v1/device/health` serves a non-empty per-subarray heatmap,
//! 5. the Prometheus exposition still validates strictly and carries the
//!    flight/device-health families.
//!
//! Exits 0 on success, 1 with a diagnostic on any failure.

use pim_baselines::PlatformKind;
use pim_flight::{FlightIndex, FlightRecord};
use pim_obs::SloConfig;
use pim_runtime::Job;
use pim_serve::api::{JobState, StatusResponse, SubmitRequest, SubmitResponse};
use pim_serve::{call, DeviceHealthResponse, MetricsResponse, ServeConfig, Server};
use pim_workloads::WorkloadSpec;
use std::net::SocketAddr;
use std::time::Duration;

fn fail(what: &str) -> ! {
    eprintln!("flight-smoke FAILED: {what}");
    std::process::exit(1);
}

fn submit_body(tenant: &str, m: usize) -> String {
    let request = SubmitRequest {
        tenant: tenant.to_string(),
        job: Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim),
    };
    serde_json::to_string(&request).expect("request serializes")
}

fn poll_terminal(addr: &SocketAddr, id: u64) -> StatusResponse {
    for _ in 0..2_000 {
        let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None)
            .unwrap_or_else(|e| fail(&format!("poll: {e}")));
        if status != 200 {
            fail(&format!("poll status {status}: {body}"));
        }
        let parsed: StatusResponse =
            serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("poll body: {e}")));
        if parsed.state.is_terminal() {
            return parsed;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    fail("job never reached a terminal state");
}

fn main() {
    // A 1 ns latency objective: every served job breaches its SLO, so the
    // tail sampler must retain every one of them.
    let config = ServeConfig {
        slo: SloConfig {
            latency_objective_ns: 1,
            ..SloConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = server.addr();
    println!("flight-smoke: server on {addr}");

    // 1. Submit a small batch and run it to completion.
    let mut submissions: Vec<SubmitResponse> = Vec::new();
    for i in 0..4u64 {
        let (status, _, body) = call(
            &addr,
            "POST",
            "/v1/jobs",
            Some(&submit_body("flight", 24 + 8 * i as usize)),
        )
        .unwrap_or_else(|e| fail(&format!("submit: {e}")));
        if status != 202 {
            fail(&format!("submit status {status}: {body}"));
        }
        submissions.push(
            serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("submit body: {e}"))),
        );
    }
    for submitted in &submissions {
        let terminal = poll_terminal(&addr, submitted.id);
        if terminal.state != JobState::Completed {
            fail(&format!("job ended {:?}, wanted Completed", terminal.state));
        }
    }
    println!("flight-smoke: {} jobs completed", submissions.len());

    // 2. The debug index must show every job retained (all breached).
    let (status, _, body) = call(&addr, "GET", "/v1/debug/requests", None)
        .unwrap_or_else(|e| fail(&format!("debug index: {e}")));
    if status != 200 {
        fail(&format!("debug index status {status}: {body}"));
    }
    let index: FlightIndex =
        serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("debug index body: {e}")));
    if index.counters.retained < submissions.len() as u64 {
        fail(&format!(
            "retained {} < {} submitted breaches: {body}",
            index.counters.retained,
            submissions.len()
        ));
    }
    if index.retained.is_empty() {
        fail(&format!("index lists no retained records: {body}"));
    }
    for entry in &index.retained {
        if entry.reason != "slo_breach" {
            fail(&format!("unexpected retention reason: {entry:?}"));
        }
        if entry.bytes == 0 {
            fail(&format!("retained entry with zero bytes: {entry:?}"));
        }
    }
    println!(
        "flight-smoke: index lists {} retained records ({} observed, {} bytes resident)",
        index.retained.len(),
        index.counters.observed,
        index.counters.ring_bytes
    );

    // 3. Every submitted request's full record is fetchable by its id and
    // carries the deep diagnostics: per-phase spans, a non-empty
    // attribution profile, and folded stacks.
    for submitted in &submissions {
        let (status, _, body) = call(
            &addr,
            "GET",
            &format!("/v1/debug/requests/{}", submitted.request_id),
            None,
        )
        .unwrap_or_else(|e| fail(&format!("debug record: {e}")));
        if status != 200 {
            fail(&format!(
                "record {} status {status}: {body}",
                submitted.request_id
            ));
        }
        let record: FlightRecord =
            serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("record body: {e}")));
        if record.request_id != submitted.request_id {
            fail(&format!("record id mismatch: {body}"));
        }
        if record.spans.is_empty() {
            fail(&format!("record {} has no spans", submitted.request_id));
        }
        if record.attribution.nodes.is_empty() {
            fail(&format!(
                "record {} has no attribution nodes",
                submitted.request_id
            ));
        }
        if record.folded.is_empty() {
            fail(&format!(
                "record {} has no folded stacks",
                submitted.request_id
            ));
        }
        if record.latency_ns <= record.slo_objective_ns {
            fail(&format!(
                "record {} did not breach: {} <= {}",
                submitted.request_id, record.latency_ns, record.slo_objective_ns
            ));
        }
    }
    println!(
        "flight-smoke: all {} records fetchable with spans + attribution + folded stacks",
        submissions.len()
    );

    // 4. Unknown ids are an explicit 404, not an empty 200.
    let (status, _, body) = call(&addr, "GET", "/v1/debug/requests/req-ffffffff", None)
        .unwrap_or_else(|e| fail(&format!("missing record: {e}")));
    if status != 404 {
        fail(&format!("missing record status {status}: {body}"));
    }

    // 5. The device-health heatmap must be non-empty: the attribution of
    // the served jobs lands in per-subarray wear rows with real shifts.
    let (status, _, body) = call(&addr, "GET", "/v1/device/health", None)
        .unwrap_or_else(|e| fail(&format!("device health: {e}")));
    if status != 200 {
        fail(&format!("device health status {status}: {body}"));
    }
    let health: DeviceHealthResponse =
        serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("device health body: {e}")));
    if health.health.subarrays.is_empty() {
        fail(&format!("heatmap has no subarray rows: {body}"));
    }
    if health.health.totals.shifts == 0 {
        fail(&format!("heatmap totals show no shifts: {body}"));
    }
    println!(
        "flight-smoke: heatmap covers {} subarrays ({} shifts total)",
        health.health.subarrays.len(),
        health.health.totals.shifts
    );

    // 6. /v1/metrics carries the recorder counters; the Prometheus
    // exposition still validates strictly and exports the new families.
    let (status, _, body) =
        call(&addr, "GET", "/v1/metrics", None).unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    if status != 200 {
        fail(&format!("metrics status {status}: {body}"));
    }
    let metrics: MetricsResponse =
        serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("metrics body: {e}")));
    if metrics.flight.observed < submissions.len() as u64 {
        fail(&format!(
            "metrics.flight.observed {} < {}",
            metrics.flight.observed,
            submissions.len()
        ));
    }
    let (status, _, body) = call(&addr, "GET", "/metrics.prom", None)
        .unwrap_or_else(|e| fail(&format!("metrics.prom: {e}")));
    if status != 200 {
        fail(&format!("metrics.prom status {status}: {body}"));
    }
    let stats = pim_obs::prom::validate_exposition(&body)
        .unwrap_or_else(|e| fail(&format!("exposition invalid: {e}\n{body}")));
    for family in [
        "pim_flight_retained_total",
        "pim_flight_summarized_total",
        "pim_flight_evicted_total",
        "pim_flight_ring_bytes",
        "pim_flight_overhead_ns_total",
        "pim_device_health_shifts_total",
    ] {
        if !body.contains(family) {
            fail(&format!("exposition missing {family}"));
        }
    }
    println!(
        "flight-smoke: /metrics.prom valid ({} families, {} series, {} samples)",
        stats.families, stats.series, stats.samples
    );

    // 7. Graceful shutdown.
    let (status, _, body) = call(&addr, "POST", "/v1/admin/drain", None)
        .unwrap_or_else(|e| fail(&format!("drain: {e}")));
    if status != 200 {
        fail(&format!("drain status {status}: {body}"));
    }
    server.shutdown();
    println!("flight-smoke: OK");
}
