//! Observability acceptance suite (ISSUE §7):
//!
//! 1. **Correlation** — one request id minted at the HTTP edge observably
//!    links submit → admission event → queue → runtime job → trace spans
//!    → the settled meter record.
//! 2. **Golden schema** — the shapes of the `/v1/metrics` JSON document,
//!    the `/v1/device/health` body and a retained
//!    `/v1/debug/requests/<id>` record are frozen; adding, removing, or
//!    renaming a field fails this test until the golden is deliberately
//!    updated.
//! 3. **Exposition under load** — every concurrent `/metrics.prom` scrape
//!    taken while a burst of tenants hammers the service parses under the
//!    strict Prometheus text-format validator.
//! 4. **Determinism A/B** — an aggressively *observed* run (collector
//!    sink, concurrent scrapes of every telemetry endpoint) produces
//!    byte-identical `ExecReport`s to an unobserved run and to a direct
//!    `pim-runtime` run: telemetry is host-side only.

use serde::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use streampim::pim_baselines::PlatformKind;
use streampim::pim_obs::prom::validate_exposition;
use streampim::pim_obs::{EventRecord, SloConfig};
use streampim::pim_runtime::{ClusterSpec, Job, MetricsSnapshot, Runtime, RuntimeConfig};
use streampim::pim_serve::api::{
    MetricsResponse, ResultResponse, StatusResponse, SubmitRequest, SubmitResponse,
};
use streampim::pim_serve::{call, AdmissionConfig, JobState, ServeConfig, Server};
use streampim::pim_trace::{Collector, Track};
use streampim::pim_workloads::WorkloadSpec;

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

/// ISSUE acceptance: submit one job over real HTTP and follow its request
/// id through every layer that claims to carry it.
#[test]
fn one_request_id_links_http_submit_to_trace_spans_and_settled_meter() {
    let collector = Arc::new(Collector::new());
    let server = Server::start_with_sink(ServeConfig::default(), collector.clone()).unwrap();
    let addr = server.addr();

    // HTTP submit: the response and the x-request-id header agree.
    let (status, headers, body) =
        call(&addr, "POST", "/v1/jobs", Some(&submit_body("linked", 24))).unwrap();
    assert_eq!(status, 202, "{body}");
    let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
    let rid = submitted.request_id.clone();
    assert!(rid.starts_with("req-"), "minted id: {rid}");
    assert_eq!(headers.get("x-request-id"), Some(&rid), "header vs body");

    // Admission: the meter estimate minted at admission carries the id.
    assert_eq!(submitted.meter.request_id, rid, "admission-time meter");

    // Queue + status: the job record carries it while queued/running.
    let terminal = poll_terminal(&addr, submitted.id);
    assert_eq!(terminal.state, JobState::Completed);
    assert_eq!(terminal.request_id, rid, "status response");

    // Settled meter: the result's meter record still carries it.
    let (status, _, body) = call(
        &addr,
        "GET",
        &format!("/v1/jobs/{}/result", submitted.id),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let result: ResultResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(result.request_id, rid, "result response");
    let meter = result.meter.expect("settled meter");
    assert_eq!(meter.request_id, rid, "settled meter record");
    assert!(meter.billed_microcredits > 0, "meter settled a real bill");

    // Event log: admission and dispatch events carry the id.
    let (status, _, body) = call(&addr, "GET", "/v1/events", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let events: Vec<EventRecord> = body
        .lines()
        .map(|line| serde_json::from_str(line).expect("event line parses"))
        .collect();
    for scope in ["admission", "dispatch"] {
        assert!(
            events
                .iter()
                .any(|e| e.scope == scope && e.request_id == rid),
            "no {scope} event for {rid}: {body}"
        );
    }

    server.shutdown();

    // Trace spans: both the HTTP service span and the runtime job span
    // carry the id — two different tracks, one correlation key.
    let spans = collector.spans();
    let tagged: Vec<_> = spans
        .iter()
        .filter(|s| s.request_id() == Some(rid.as_str()))
        .collect();
    assert!(
        tagged.iter().any(|s| matches!(s.track, Track::Service(_))),
        "no HTTP service span tagged {rid}"
    );
    assert!(
        tagged.iter().any(|s| !matches!(s.track, Track::Service(_))),
        "no runtime/job span tagged {rid} (only {} tagged spans)",
        tagged.len()
    );
}

/// Flattens a JSON document into `path: kind` lines, descending into the
/// first element of each sequence. This is the schema signature the golden
/// below freezes.
fn schema_lines(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Map(entries) => {
            for (key, child) in entries {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                schema_lines(child, &sub, out);
            }
        }
        Value::Seq(items) => match items.first() {
            Some(first) => schema_lines(first, &format!("{path}[]"), out),
            None => out.push(format!("{path}[]: empty")),
        },
        Value::Null => out.push(format!("{path}: null")),
        Value::Bool(_) => out.push(format!("{path}: bool")),
        Value::UInt(_) | Value::Int(_) => out.push(format!("{path}: int")),
        Value::Float(_) => out.push(format!("{path}: float")),
        Value::Str(_) => out.push(format!("{path}: str")),
    }
}

/// The frozen shape of `GET /v1/metrics` after at least one completed job.
/// Deliberate schema changes must update this list (and DESIGN.md §14).
const METRICS_SCHEMA_GOLDEN: &[&str] = &[
    "phase: str",
    "server.submitted: int",
    "server.admitted: int",
    "server.rejected_tenant: int",
    "server.rejected_global: int",
    "server.rejected_drain: int",
    "server.shed_connections: int",
    "server.cancelled: int",
    "runtime.jobs_submitted: int",
    "runtime.jobs_completed: int",
    "runtime.jobs_failed: int",
    "runtime.cache_hits: int",
    "runtime.cache_misses: int",
    "runtime.cache_entries: int",
    "runtime.cache_near_hits: int",
    "runtime.cache_repriced_rows: int",
    "runtime.max_queue_depth: int",
    "runtime.steals: int",
    "runtime.total_latency_ns: int",
    "runtime.latency_p50_ns: int",
    "runtime.latency_p95_ns: int",
    "runtime.latency_p99_ns: int",
    "runtime.latency_histogram[]: int",
    "runtime.aggregate.time.read_ns: float",
    "runtime.aggregate.time.write_ns: float",
    "runtime.aggregate.time.shift_ns: float",
    "runtime.aggregate.time.process_ns: float",
    "runtime.aggregate.time.overlapped_ns: float",
    "runtime.aggregate.energy.read_pj: float",
    "runtime.aggregate.energy.write_pj: float",
    "runtime.aggregate.energy.shift_pj: float",
    "runtime.aggregate.energy.compute_pj: float",
    "runtime.aggregate.energy.other_pj: float",
    "runtime.aggregate.counters.reads: int",
    "runtime.aggregate.counters.writes: int",
    "runtime.aggregate.counters.shifts: int",
    "runtime.aggregate.counters.shift_distance: int",
    "runtime.aggregate.counters.transverse_reads: int",
    "runtime.aggregate.counters.pim_adds: int",
    "runtime.aggregate.counters.pim_muls: int",
    "runtime.aggregate.counters.gate_ops: int",
    "runtime.aggregate.vpc.pim: int",
    "runtime.aggregate.vpc.moves: int",
    "runtime.sim_time_ps: int",
    "runtime.sim_energy_fj: int",
    "ledger.config.base_rate_microcredits: int",
    "ledger.config.time_ps_per_microcredit: int",
    "ledger.config.energy_fj_per_microcredit: int",
    "ledger.global.tenant: str",
    "ledger.global.jobs_admitted: int",
    "ledger.global.jobs_settled: int",
    "ledger.global.jobs_cancelled: int",
    "ledger.global.estimated_microcredits: int",
    "ledger.global.billed_microcredits: int",
    "ledger.global.consumed.ops.reads: int",
    "ledger.global.consumed.ops.writes: int",
    "ledger.global.consumed.ops.shifts: int",
    "ledger.global.consumed.ops.shift_distance: int",
    "ledger.global.consumed.ops.transverse_reads: int",
    "ledger.global.consumed.ops.pim_adds: int",
    "ledger.global.consumed.ops.pim_muls: int",
    "ledger.global.consumed.ops.gate_ops: int",
    "ledger.global.consumed.time_ps: int",
    "ledger.global.consumed.energy_fj: int",
    "ledger.tenants[].tenant: str",
    "ledger.tenants[].jobs_admitted: int",
    "ledger.tenants[].jobs_settled: int",
    "ledger.tenants[].jobs_cancelled: int",
    "ledger.tenants[].estimated_microcredits: int",
    "ledger.tenants[].billed_microcredits: int",
    "ledger.tenants[].consumed.ops.reads: int",
    "ledger.tenants[].consumed.ops.writes: int",
    "ledger.tenants[].consumed.ops.shifts: int",
    "ledger.tenants[].consumed.ops.shift_distance: int",
    "ledger.tenants[].consumed.ops.transverse_reads: int",
    "ledger.tenants[].consumed.ops.pim_adds: int",
    "ledger.tenants[].consumed.ops.pim_muls: int",
    "ledger.tenants[].consumed.ops.gate_ops: int",
    "ledger.tenants[].consumed.time_ps: int",
    "ledger.tenants[].consumed.energy_fj: int",
    "slo.latency_objective_ns: int",
    "slo.objective: float",
    "slo.tenants[].tenant: str",
    "slo.tenants[].good: int",
    "slo.tenants[].total: int",
    "slo.tenants[].attainment: float",
    "slo.tenants[].error_budget_burn: float",
    "flight.observed: int",
    "flight.retained: int",
    "flight.summarized: int",
    "flight.evicted: int",
    "flight.ring_records: int",
    "flight.ring_bytes: int",
    "flight.overhead_ns: int",
    "cluster[].device: int",
    "cluster[].busy_ns: float",
    "cluster[].energy_pj: float",
    "cluster[].ops.reads: int",
    "cluster[].ops.writes: int",
    "cluster[].ops.shifts: int",
    "cluster[].ops.shift_distance: int",
    "cluster[].ops.transverse_reads: int",
    "cluster[].ops.pim_adds: int",
    "cluster[].ops.pim_muls: int",
    "cluster[].ops.gate_ops: int",
    "cluster[].link_busy_ns: float",
    "cluster[].link_energy_pj: float",
];

/// The frozen shape of `GET /v1/device/health` after completed jobs.
/// Deliberate schema changes must update this list (and DESIGN.md §16).
const DEVICE_HEALTH_SCHEMA_GOLDEN: &[&str] = &[
    "health.subarrays[].subarray: int",
    "health.subarrays[].wear.shifts: int",
    "health.subarrays[].wear.shift_distance: int",
    "health.subarrays[].wear.busy_ns: float",
    "health.totals.shifts: int",
    "health.totals.shift_distance: int",
    "health.totals.busy_ns: float",
];

/// The frozen shape of a retained `GET /v1/debug/requests/<id>` record of
/// a completed single-device job. Deliberate schema changes must update
/// this list (and DESIGN.md §16).
const FLIGHT_RECORD_SCHEMA_GOLDEN: &[&str] = &[
    "request_id: str",
    "job_id: int",
    "tenant: str",
    "name: str",
    "platform: str",
    "shape_key: int",
    "reason: str",
    "ok: bool",
    "error: null",
    "queued_ns: int",
    "latency_ns: int",
    "slo_objective_ns: int",
    "cache.probed: bool",
    "cache.hit: bool",
    "cache.near_hit: bool",
    "cache.repriced_rows: int",
    "cache.shape_key: int",
    "spans[].name: str",
    "spans[].cat: str",
    "spans[].track: str",
    "spans[].domain: str",
    "spans[].start_ns: float",
    "spans[].dur_ns: float",
    "trace_dropped: int",
    "attribution.label: str",
    "attribution.total.path: str",
    "attribution.total.busy_ns: float",
    "attribution.total.total_pj: float",
    "attribution.total.records: int",
    "attribution.total.ops.reads: int",
    "attribution.total.ops.writes: int",
    "attribution.total.ops.shifts: int",
    "attribution.total.ops.shift_distance: int",
    "attribution.total.ops.transverse_reads: int",
    "attribution.total.ops.pim_adds: int",
    "attribution.total.ops.pim_muls: int",
    "attribution.total.ops.gate_ops: int",
    "attribution.total.energy.read_pj: float",
    "attribution.total.energy.write_pj: float",
    "attribution.total.energy.shift_pj: float",
    "attribution.total.energy.compute_pj: float",
    "attribution.total.energy.other_pj: float",
    "attribution.nodes[].path: str",
    "attribution.nodes[].busy_ns: float",
    "attribution.nodes[].total_pj: float",
    "attribution.nodes[].records: int",
    "attribution.nodes[].ops.reads: int",
    "attribution.nodes[].ops.writes: int",
    "attribution.nodes[].ops.shifts: int",
    "attribution.nodes[].ops.shift_distance: int",
    "attribution.nodes[].ops.transverse_reads: int",
    "attribution.nodes[].ops.pim_adds: int",
    "attribution.nodes[].ops.pim_muls: int",
    "attribution.nodes[].ops.gate_ops: int",
    "attribution.nodes[].energy.read_pj: float",
    "attribution.nodes[].energy.write_pj: float",
    "attribution.nodes[].energy.shift_pj: float",
    "attribution.nodes[].energy.compute_pj: float",
    "attribution.nodes[].energy.other_pj: float",
    "folded: str",
];

/// Fetches `path` and asserts its JSON body flattens to `golden`.
fn assert_schema(addr: &SocketAddr, path: &str, golden: &[&str], name: &str) {
    let (status, _, body) = call(addr, "GET", path, None).unwrap();
    assert_eq!(status, 200, "{body}");
    let document: Value = serde_json::from_str(&body).unwrap();
    let mut actual = Vec::new();
    schema_lines(&document, "", &mut actual);
    assert_eq!(
        actual,
        golden.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "{path} schema drifted — update {name} deliberately"
    );
}

#[test]
fn v1_metrics_json_schema_is_frozen() {
    // A 1 ns latency objective: every job breaches its SLO, so the flight
    // recorder retains the full record of each.
    let server = Server::start(ServeConfig {
        slo: SloConfig {
            latency_objective_ns: 1,
            ..SloConfig::default()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // One completed job so every per-tenant array is populated.
    let (status, _, body) =
        call(&addr, "POST", "/v1/jobs", Some(&submit_body("golden", 16))).unwrap();
    assert_eq!(status, 202, "{body}");
    let single: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(poll_terminal(&addr, single.id).state, JobState::Completed);

    // And one completed cluster job so the per-device utilization rows
    // are populated too.
    let cluster_request = SubmitRequest {
        tenant: "golden".to_string(),
        job: Job::new(
            WorkloadSpec::MatMul { m: 24, k: 16, n: 8 },
            PlatformKind::StPim,
        )
        .with_cluster(ClusterSpec::data(2).with_batch(2)),
    };
    let (status, _, body) = call(
        &addr,
        "POST",
        "/v1/jobs",
        Some(&serde_json::to_string(&cluster_request).unwrap()),
    )
    .unwrap();
    assert_eq!(status, 202, "{body}");
    let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        poll_terminal(&addr, submitted.id).state,
        JobState::Completed
    );
    // A job reads Completed before its completion hook folds its
    // attribution into the health and cluster rollups and then retains its
    // record, so wait for both records.
    for request_id in [&single.request_id, &submitted.request_id] {
        let path = format!("/v1/debug/requests/{request_id}");
        let retained = (0..4_000).any(|_| {
            let (status, _, _) = call(&addr, "GET", &path, None).unwrap();
            if status != 200 {
                std::thread::sleep(Duration::from_millis(5));
            }
            status == 200
        });
        assert!(retained, "{path} never retained");
    }

    assert_schema(
        &addr,
        "/v1/metrics",
        METRICS_SCHEMA_GOLDEN,
        "METRICS_SCHEMA_GOLDEN (and DESIGN.md §14)",
    );
    assert_schema(
        &addr,
        "/v1/device/health",
        DEVICE_HEALTH_SCHEMA_GOLDEN,
        "DEVICE_HEALTH_SCHEMA_GOLDEN (and DESIGN.md §16)",
    );
    assert_schema(
        &addr,
        &format!("/v1/debug/requests/{}", single.request_id),
        FLIGHT_RECORD_SCHEMA_GOLDEN,
        "FLIGHT_RECORD_SCHEMA_GOLDEN (and DESIGN.md §16)",
    );
    server.shutdown();
}

/// The value of an unlabelled series in a `/metrics.prom` exposition.
fn prom_value(exposition: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    let line = exposition.lines().find(|l| l.starts_with(&prefix));
    line.unwrap_or_else(|| panic!("{name} missing:\n{exposition}"))[prefix.len()..]
        .trim()
        .parse()
        .unwrap()
}

/// The `runtime` block of `GET /v1/metrics` agrees with every other place
/// that counts the same jobs: the server's admissions, the ledger's settled
/// jobs and metered totals, and the schedule cache's own gauges on
/// `/metrics.prom`. Jobs run one after another, so the cache outcome of
/// each is known.
#[test]
fn v1_metrics_runtime_totals_agree_with_the_ledger_and_the_cache() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    // Repeated sizes hit the schedule cache; a new size of a seen DAG
    // shape misses and near-hits it.
    let sizes = [16, 16, 24, 16, 24, 32];
    for (i, m) in sizes.iter().enumerate() {
        let tenant = ["alice", "bob"][i % 2];
        let (status, _, body) =
            call(&addr, "POST", "/v1/jobs", Some(&submit_body(tenant, *m))).unwrap();
        assert_eq!(status, 202, "{body}");
        let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(
            poll_terminal(&addr, submitted.id).state,
            JobState::Completed
        );
    }

    let (status, _, body) = call(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let metrics: MetricsResponse = serde_json::from_str(&body).unwrap();
    let (status, _, prom) = call(&addr, "GET", "/metrics.prom", None).unwrap();
    assert_eq!(status, 200, "{prom}");
    let runtime = &metrics.runtime;
    let jobs = sizes.len() as u64;
    assert_eq!(
        (
            runtime.jobs_submitted,
            runtime.jobs_completed,
            runtime.jobs_failed
        ),
        (jobs, jobs, 0)
    );
    assert_eq!(metrics.server.admitted, jobs);
    assert_eq!(metrics.ledger.global.jobs_settled, jobs);
    assert_eq!(runtime.sim_time_ps, metrics.ledger.global.consumed.time_ps);
    assert_eq!(
        runtime.sim_energy_fj,
        metrics.ledger.global.consumed.energy_fj
    );
    assert_eq!(runtime.latency_histogram.iter().sum::<u64>(), jobs);
    // Three distinct sizes lower once each; the three repeats hit.
    assert_eq!((runtime.cache_hits, runtime.cache_misses), (3, 3));
    assert_eq!((runtime.cache_entries, runtime.cache_near_hits), (3, 2));
    for (field, series) in [
        (runtime.cache_entries, "pim_runtime_cache_entries"),
        (runtime.cache_near_hits, "pim_runtime_cache_near_hits"),
        (
            runtime.cache_repriced_rows,
            "pim_runtime_cache_repriced_rows",
        ),
    ] {
        assert_eq!(field, prom_value(&prom, series), "{series}");
    }
    server.shutdown();
}

/// The number of values in a JSON document.
fn leaf_count(value: &Value) -> usize {
    match value {
        Value::Map(entries) => entries.iter().map(|(_, child)| leaf_count(child)).sum(),
        Value::Seq(items) => items.iter().map(leaf_count).sum(),
        _ => 1,
    }
}

/// `pim-runtime` keeps totals, not per-job or per-tenant rows: its export
/// holds as many values after fifty jobs as after one, and still adds up
/// every job.
#[test]
fn runtime_metrics_stay_the_same_size_as_jobs_accumulate() {
    let runtime = Runtime::new(RuntimeConfig::default());
    let job = |m: usize| Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim);
    runtime.run_batch(&[job(16)]);
    let first: Value = serde_json::from_str(&runtime.metrics_json()).unwrap();
    let more: Vec<Job> = (0..49).map(|i| job(16 + 4 * (i % 7))).collect();
    assert_eq!(runtime.run_batch(&more).completed(), 49);
    let json = runtime.metrics_json();
    let last: Value = serde_json::from_str(&json).unwrap();

    assert_eq!(leaf_count(&last), leaf_count(&first));
    let (mut first_schema, mut last_schema) = (Vec::new(), Vec::new());
    schema_lines(&first, "", &mut first_schema);
    schema_lines(&last, "", &mut last_schema);
    assert_eq!(last_schema, first_schema);

    let snapshot: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, runtime.metrics());
    assert_eq!((snapshot.jobs_submitted, snapshot.jobs_completed), (50, 50));
    assert_eq!(snapshot.cache_hits + snapshot.cache_misses, 50);
    assert_eq!(snapshot.latency_histogram.iter().sum::<u64>(), 50);
}

/// ISSUE acceptance: `/metrics.prom` stays strictly parseable while the
/// service is under concurrent multi-tenant load.
#[test]
fn exposition_format_holds_under_concurrent_load() {
    let server = Server::start(ServeConfig {
        dispatch_workers: 2,
        admission: AdmissionConfig {
            max_queued_per_tenant: 2,
            max_inflight_per_tenant: 1,
            max_queued_global: 6,
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));

    // Load: three tenants fire bursts (some admitted, some 429) while the
    // scrapers run — admission counters, queue gauges, SLO gauges, and
    // latency histograms all mutate mid-scrape.
    let load: Vec<_> = ["alice", "bob", "carol"]
        .into_iter()
        .map(|tenant| {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut m = 16;
                while !done.load(Ordering::Relaxed) {
                    let (status, _, body) =
                        call(&addr, "POST", "/v1/jobs", Some(&submit_body(tenant, m))).unwrap();
                    assert!(status == 202 || status == 429, "{status}: {body}");
                    m = 16 + (m + 8) % 96;
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    // Scrapers: every concurrent scrape must validate strictly.
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                for _ in 0..40 {
                    let (status, _, body) = call(&addr, "GET", "/metrics.prom", None).unwrap();
                    assert_eq!(status, 200);
                    let stats = validate_exposition(&body)
                        .unwrap_or_else(|e| panic!("scrape invalid: {e}\n{body}"));
                    assert!(stats.families >= 5, "thin scrape: {stats:?}");
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let total: u32 = scrapers.into_iter().map(|s| s.join().unwrap()).sum();
    done.store(true, Ordering::Relaxed);
    for worker in load {
        worker.join().unwrap();
    }
    assert_eq!(total, 120, "every scrape validated");
    server.shutdown();
}

/// Serves `jobs` on a server, polls them to completion, and returns each
/// raw report byte string (extracted, not re-serialized — see
/// `tests/serve_overload.rs`), in submission order.
fn served_reports(server: &Server, jobs: &[(&str, usize)], observe: bool) -> Vec<String> {
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));
    // The observer hammers every telemetry read path while jobs run.
    let observer = observe.then(|| {
        let done = done.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                for path in ["/metrics.prom", "/v1/events", "/v1/metrics"] {
                    let (status, _, _) = call(&addr, "GET", path, None).unwrap();
                    assert_eq!(status, 200);
                }
            }
        })
    });

    let ids: Vec<u64> = jobs
        .iter()
        .map(|(tenant, m)| {
            let (status, _, body) =
                call(&addr, "POST", "/v1/jobs", Some(&submit_body(tenant, *m))).unwrap();
            assert_eq!(status, 202, "{body}");
            serde_json::from_str::<SubmitResponse>(&body).unwrap().id
        })
        .collect();
    let reports = ids
        .iter()
        .map(|id| {
            assert_eq!(poll_terminal(&addr, *id).state, JobState::Completed);
            let (status, _, body) =
                call(&addr, "GET", &format!("/v1/jobs/{id}/result"), None).unwrap();
            assert_eq!(status, 200, "{body}");
            let start = body.find("\"report\": ").expect("report field") + "\"report\": ".len();
            let end = body.rfind(", \"error\":").expect("error follows");
            body[start..end].to_string()
        })
        .collect();
    done.store(true, Ordering::Relaxed);
    if let Some(observer) = observer {
        observer.join().unwrap();
    }
    reports
}

/// ISSUE acceptance (determinism): telemetry is host-side only, so a run
/// observed as invasively as the API allows is byte-identical to an
/// unobserved run and to a direct `pim-runtime` run with no serving edge,
/// no request ids, and no collector.
#[test]
fn observed_runs_produce_byte_identical_reports() {
    let jobs: Vec<(&str, usize)> = vec![("obs-a", 20), ("obs-b", 28), ("obs-a", 36)];

    // A: observed — collector sink plus concurrent telemetry readers.
    let observed_server =
        Server::start_with_sink(ServeConfig::default(), Arc::new(Collector::new())).unwrap();
    let observed = served_reports(&observed_server, &jobs, true);
    observed_server.shutdown();

    // B: unobserved — default NullSink, nobody reads telemetry.
    let quiet_server = Server::start(ServeConfig::default()).unwrap();
    let quiet = served_reports(&quiet_server, &jobs, false);
    quiet_server.shutdown();

    assert_eq!(observed, quiet, "observation changed a served report");

    // C: no serving edge at all.
    let direct = Runtime::new(RuntimeConfig::default());
    for ((_, m), served) in jobs.iter().zip(&observed) {
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
        assert_eq!(
            served,
            &serde_json::to_string(&report).unwrap(),
            "served (observed) report differs from direct run (m={m})"
        );
    }
}
