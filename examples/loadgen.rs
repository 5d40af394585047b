//! Load generator for the pim-serve front-end: boots an in-process server,
//! drives it with a mixed-tenant workload in closed-loop and open-loop
//! modes, and writes `BENCH_serve.json` with throughput, admission, and
//! latency-percentile results.
//!
//! ```sh
//! cargo run --release --example loadgen -- [duration-ms] [clients] [out.json]
//! ```
//!
//! Defaults: 500 ms per mode, 8 closed-loop clients, `BENCH_serve.json`.
//!
//! **Closed loop**: each client submits a job, polls it to a terminal
//! state, then immediately submits the next — offered load adapts to
//! service capacity, so (almost) nothing is rejected and the measurement
//! is peak sustainable throughput.
//!
//! **Open loop**: submissions arrive on a fixed timer regardless of
//! completions — offered load is constant and deliberately above capacity,
//! so the admission caps must shed; the measurement is how the service
//! degrades (explicit 429s, stable completion rate) rather than whether.
//!
//! Two latency views are reported: the runtime's own power-of-two
//! histogram (`MetricsSnapshot::latency_p50_ns`/`p95`/`p99`, dispatch-to-
//! completion host latency per job) and **client-side** percentiles from
//! the same bucket scheme ([`pim_obs::Histogram`]) over every HTTP round
//! trip the clients made. Closed-loop submit→terminal job latencies are
//! evaluated against the default latency SLO and the summary prints an
//! explicit pass/fail line.
//!
//! **Recorder A/B**: the closed loop against two more servers, flight
//! recorder on and off, started once and driven in alternating short
//! rounds (which arm goes first swaps every round). The report's
//! `flight.ab` block carries each arm's jobs/s over all rounds and the
//! median and range of the per-round overhead.
//!
//! The report's `host` block records what its numbers depend on: hardware
//! threads, architecture, SIMD level, and the machine's CPU steal ticks
//! over the run (`null` where `/proc/stat` is unreadable), as
//! `BENCH_device.json` does.

use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streampim::pim_baselines::PlatformKind;
use streampim::pim_flight::{FlightConfig, FlightIndex, FlightRecord};
use streampim::pim_obs::{slo, Histogram, SloConfig};
use streampim::pim_runtime::Job;
use streampim::pim_serve::api::{MetricsResponse, StatusResponse, SubmitRequest};
use streampim::pim_serve::{call, AdmissionConfig, JobState, ServeConfig, Server};
use streampim::pim_workloads::WorkloadSpec;

/// The main server's SLO objective: 1 ms. The closed-loop mix (small
/// matrices, ~200-800 us) mostly stays under it; the open-loop burst
/// (m >= 256, milliseconds of service time) breaches by design, so the
/// flight recorder must retain those requests and the run can prove a
/// record is fetchable end to end.
const SLO_OBJECTIVE_NS: u64 = 1_000_000;

/// Recorder A/B rounds (even, so each arm runs first equally often).
const AB_ROUNDS: usize = 8;

/// The tenant mix: weights 4/2/1, exercised by every mode.
const TENANTS: [(&str, u64); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];

/// Per-mode traffic counts observed by the clients.
#[derive(Debug, Default)]
struct Traffic {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    /// Client-observed wall-clock of every HTTP round trip (submits and
    /// polls alike), in the workspace's shared power-of-two buckets.
    http_latency: Histogram,
    /// Closed-loop end-to-end job outcomes: (completed, submit→terminal
    /// latency in ns) — the SLO evaluation input.
    e2e: Mutex<Vec<(bool, u64)>>,
}

/// One timed HTTP call: records the client-observed round trip.
fn timed_call(
    addr: &SocketAddr,
    traffic: &Traffic,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, std::collections::HashMap<String, String>, String)> {
    let t0 = Instant::now();
    let outcome = call(addr, method, path, body);
    traffic.http_latency.record(t0.elapsed().as_nanos() as u64);
    outcome
}

fn submit_body(tenant: &str, m: usize) -> String {
    let request = SubmitRequest {
        tenant: tenant.to_string(),
        job: Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim),
    };
    serde_json::to_string(&request).expect("request serializes")
}

/// Submits one job; returns its id if admitted.
fn submit(addr: &SocketAddr, tenant: &str, m: usize, traffic: &Traffic) -> Option<u64> {
    traffic.submitted.fetch_add(1, Ordering::Relaxed);
    let (status, _, body) = timed_call(
        addr,
        traffic,
        "POST",
        "/v1/jobs",
        Some(&submit_body(tenant, m)),
    )
    .ok()?;
    if status == 202 {
        traffic.admitted.fetch_add(1, Ordering::Relaxed);
        let parsed: streampim::pim_serve::SubmitResponse =
            serde_json::from_str(&body).expect("submit response parses");
        Some(parsed.id)
    } else {
        traffic.rejected.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Polls a job to a terminal state; counts completions. Returns whether
/// the job completed successfully.
fn await_job(addr: &SocketAddr, id: u64, traffic: &Traffic) -> bool {
    loop {
        let Ok((status, _, body)) =
            timed_call(addr, traffic, "GET", &format!("/v1/jobs/{id}"), None)
        else {
            return false;
        };
        if status != 200 {
            return false;
        }
        let parsed: StatusResponse = serde_json::from_str(&body).expect("status parses");
        if parsed.state.is_terminal() {
            let completed = parsed.state == JobState::Completed;
            if completed {
                traffic.completed.fetch_add(1, Ordering::Relaxed);
            }
            return completed;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Closed loop: `clients` workers, each submit → await → repeat.
fn closed_loop(addr: SocketAddr, duration: Duration, clients: usize) -> (Traffic, f64) {
    let traffic = Arc::new(Traffic::default());
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let traffic = Arc::clone(&traffic);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (tenant, _) = TENANTS[client % TENANTS.len()];
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Vary the shape so the schedule cache sees a mix of
                    // hits (repeats) and misses (new sizes).
                    let m = 16 + 8 * (round % 12);
                    round += 1;
                    let t_job = Instant::now();
                    if let Some(id) = submit(&addr, tenant, m, &traffic) {
                        let completed = await_job(&addr, id, &traffic);
                        traffic
                            .e2e
                            .lock()
                            .expect("e2e lock")
                            .push((completed, t_job.elapsed().as_nanos() as u64));
                    } else {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("closed-loop client");
    }
    let traffic = Arc::try_unwrap(traffic).expect("clients joined");
    (traffic, t0.elapsed().as_secs_f64())
}

/// Open loop: submitter threads fire on a fixed per-thread pace with no
/// waiting for completions — arrivals are independent of service, and the
/// combined offered rate is chosen above capacity so the admission caps
/// must shed. Admitted jobs are awaited only after the arrival window
/// closes.
fn open_loop(
    addr: SocketAddr,
    duration: Duration,
    submitters: usize,
    pace: Duration,
) -> (Traffic, f64) {
    let traffic = Arc::new(Traffic::default());
    let t0 = Instant::now();
    let threads: Vec<_> = (0..submitters)
        .map(|submitter| {
            let traffic = Arc::clone(&traffic);
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                let mut tick = submitter;
                while t0.elapsed() < duration {
                    let (tenant, _) = TENANTS[tick % TENANTS.len()];
                    // Much heavier jobs than the closed-loop mix: service
                    // time per job is tens of milliseconds, so an arrival
                    // rate of hundreds per second exceeds capacity by
                    // orders of magnitude and the caps must shed.
                    let m = 256 + 32 * (tick % 8);
                    tick += submitters;
                    if let Some(id) = submit(&addr, tenant, m, &traffic) {
                        ids.push(id);
                    }
                    std::thread::sleep(pace);
                }
                ids
            })
        })
        .collect();
    // Let everything admitted finish before measuring.
    for thread in threads {
        for id in thread.join().expect("open-loop submitter") {
            await_job(&addr, id, &traffic);
        }
    }
    let traffic = Arc::try_unwrap(traffic).expect("submitters joined");
    (traffic, t0.elapsed().as_secs_f64())
}

/// One mode's results as a JSON object string, with the client-observed
/// HTTP round-trip percentiles and the shed rate (rejected / submitted).
fn mode_json(name: &str, traffic: &Traffic, elapsed_s: f64) -> String {
    let completed = traffic.completed.load(Ordering::Relaxed);
    let submitted = traffic.submitted.load(Ordering::Relaxed);
    let rejected = traffic.rejected.load(Ordering::Relaxed);
    let shed_rate = if submitted > 0 {
        rejected as f64 / submitted as f64
    } else {
        0.0
    };
    format!(
        "{{\"mode\": \"{name}\", \"elapsed_s\": {elapsed_s:.3}, \"submitted\": {submitted}, \"admitted\": {}, \"rejected\": {rejected}, \"shed_rate\": {shed_rate:.4}, \"completed\": {completed}, \"throughput_jobs_per_s\": {:.1}, \"http_latency_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}}}",
        traffic.admitted.load(Ordering::Relaxed),
        completed as f64 / elapsed_s,
        traffic.http_latency.percentile(0.50),
        traffic.http_latency.percentile(0.95),
        traffic.http_latency.percentile(0.99),
    )
}

/// Machine-wide CPU steal ticks (the eighth counter of `/proc/stat`'s
/// aggregate `cpu` line), or `None` where it is unreadable.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steal_at_start = steal_ticks();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let duration_ms: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
    let clients: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let duration = Duration::from_millis(duration_ms);

    let server = Server::start(ServeConfig {
        admission: AdmissionConfig {
            max_queued_per_tenant: 16,
            max_inflight_per_tenant: 2,
            max_queued_global: 48,
        },
        tenant_weights: TENANTS.iter().map(|(t, w)| (t.to_string(), *w)).collect(),
        slo: SloConfig {
            latency_objective_ns: SLO_OBJECTIVE_NS,
            ..SloConfig::default()
        },
        ..ServeConfig::default()
    })?;
    let addr = server.addr();
    let plan = server.plan();
    println!(
        "loadgen: server on {addr} ({} http + {} dispatchers x {} intra-run threads)",
        plan.http_workers, plan.dispatch_workers, plan.intra_per_job
    );

    println!("loadgen: closed loop, {clients} clients, {duration_ms} ms ...");
    let (closed, closed_s) = closed_loop(addr, duration, clients);
    println!("  {}", mode_json("closed_loop", &closed, closed_s));

    // Offered rate: 2×clients submitter threads at a 100 µs pace — in
    // practice bounded by connection setup to roughly (threads / round
    // trip), well above what the dispatchers absorb, so the caps shed.
    let submitters = (clients * 2).max(4);
    println!("loadgen: open loop, {submitters} submitters at 100 us pace, {duration_ms} ms ...");
    let (open, open_s) = open_loop(addr, duration, submitters, Duration::from_micros(100));
    println!("  {}", mode_json("open_loop", &open, open_s));

    // Percentiles from the server's own histogram, plus the ledger.
    let (status, _, body) = call(&addr, "GET", "/v1/metrics", None)?;
    assert_eq!(status, 200, "{body}");
    let metrics: MetricsResponse = serde_json::from_str(&body)?;
    let runtime = &metrics.runtime;
    println!(
        "loadgen: latency p50={} us p95={} us p99={} us ({} jobs, {} tenants metered)",
        runtime.latency_p50_ns / 1_000,
        runtime.latency_p95_ns / 1_000,
        runtime.latency_p99_ns / 1_000,
        runtime.jobs_submitted,
        metrics.ledger.tenants.len(),
    );

    // SLO: closed-loop submit→terminal latencies against the default
    // objective (the same config the server's own tracker uses).
    let slo_config = SloConfig::default();
    let outcomes = closed.e2e.lock().expect("e2e lock").clone();
    let (attainment, burn, pass) = slo::evaluate(&slo_config, &outcomes);
    println!(
        "loadgen: SLO {} — {:.4} attainment vs {:.3} objective ({} jobs, burn {:.2})",
        if pass { "PASS" } else { "FAIL" },
        attainment,
        slo_config.objective,
        outcomes.len(),
        burn,
    );

    // Flight recorder: the open-loop burst breached the 10 ms objective,
    // so the tail sampler must hold full records — fetch one end to end
    // by its request id and check the deep diagnostics came along.
    let (status, _, body) = call(&addr, "GET", "/v1/debug/requests", None)?;
    assert_eq!(status, 200, "{body}");
    let index: FlightIndex = serde_json::from_str(&body)?;
    assert!(
        index.counters.retained >= 1,
        "SLO-breaching burst left no retained flight records: {body}"
    );
    let entry = index.retained.first().expect("retained index is non-empty");
    let (status, _, body) = call(
        &addr,
        "GET",
        &format!("/v1/debug/requests/{}", entry.request_id),
        None,
    )?;
    assert_eq!(status, 200, "{body}");
    let record: FlightRecord = serde_json::from_str(&body)?;
    assert_eq!(record.request_id, entry.request_id);
    assert!(!record.spans.is_empty(), "retained record has no spans");
    println!(
        "loadgen: flight recorder retained {} of {} observed; {} ({}, {:.1} ms) fetched with {} spans",
        index.counters.retained,
        index.counters.observed,
        record.request_id,
        record.reason.label(),
        record.latency_ns as f64 / 1e6,
        record.spans.len(),
    );
    let flight = index.counters;

    server.check_conservation().expect("metering conservation");
    let drained = server.shutdown();

    // Recorder A/B: the same closed-loop workload against two servers,
    // recorder on vs off, default (2 s) objective so nothing is retained
    // — the marginal cost measured is the always-on tap + summarize path,
    // the one every healthy request pays. Both servers start once and
    // the arms alternate in short rounds, swapping which arm runs first
    // each round, so host drift lands on both arms alike.
    let round = duration / AB_ROUNDS as u32;
    println!(
        "loadgen: recorder A/B, {clients} clients, {AB_ROUNDS} alternating rounds of {} ms per arm ...",
        round.as_millis()
    );
    let ab_server = |enabled: bool| {
        Server::start(ServeConfig {
            admission: AdmissionConfig {
                max_queued_per_tenant: 16,
                max_inflight_per_tenant: 2,
                max_queued_global: 48,
            },
            tenant_weights: TENANTS.iter().map(|(t, w)| (t.to_string(), *w)).collect(),
            flight: FlightConfig {
                enabled,
                ..FlightConfig::default()
            },
            ..ServeConfig::default()
        })
    };
    // Arm 0 has the recorder on, arm 1 off.
    let arms = [ab_server(true)?, ab_server(false)?];
    let mut completed = [0u64; 2];
    let mut elapsed_s = [0.0f64; 2];
    let mut round_overheads = Vec::with_capacity(AB_ROUNDS);
    for r in 0..AB_ROUNDS {
        let mut rate = [0.0f64; 2];
        for k in 0..2 {
            let arm = (r + k) % 2;
            let (traffic, secs) = closed_loop(arms[arm].addr(), round, clients);
            let jobs = traffic.completed.load(Ordering::Relaxed);
            completed[arm] += jobs;
            elapsed_s[arm] += secs;
            rate[arm] = jobs as f64 / secs;
        }
        let [on, off] = rate;
        round_overheads.push(if off > 0.0 {
            (off - on) / off * 100.0
        } else {
            0.0
        });
    }
    for server in arms {
        server.shutdown();
    }
    let throughput_on = completed[0] as f64 / elapsed_s[0];
    let throughput_off = completed[1] as f64 / elapsed_s[1];
    round_overheads.sort_by(f64::total_cmp);
    let mid = AB_ROUNDS / 2;
    let overhead_median = (round_overheads[mid - 1] + round_overheads[mid]) / 2.0;
    let (overhead_min, overhead_max) = (round_overheads[0], round_overheads[AB_ROUNDS - 1]);
    println!(
        "loadgen: recorder on {throughput_on:.1} jobs/s, off {throughput_off:.1} jobs/s; per-round overhead median {overhead_median:+.2}% (range {overhead_min:+.2}%..{overhead_max:+.2}%)"
    );

    let steal = match (steal_at_start, steal_ticks()) {
        (Some(start), Some(end)) => end.saturating_sub(start).to_string(),
        _ => "null".to_string(),
    };
    let host = format!(
        "{{\"available_parallelism\": {}, \"arch\": \"{}\", \"simd\": \"{}\", \"steal_ticks\": {steal}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH,
        streampim::rm_core::wide::simd_level(),
    );
    println!("loadgen: host {host}");
    let json = format!(
        "{{\n  \"bench\": \"serve_loadgen\",\n  \"host\": {host},\n  \"config\": {{\"duration_ms\": {duration_ms}, \"clients\": {clients}, \"dispatchers\": {}, \"intra_threads\": {}}},\n  \"modes\": [\n    {},\n    {}\n  ],\n  \"latency_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n  \"slo\": {{\"latency_objective_ns\": {}, \"objective\": {}, \"jobs\": {}, \"attainment\": {attainment:.6}, \"error_budget_burn\": {burn:.4}, \"pass\": {pass}}},\n  \"flight\": {{\"observed\": {}, \"retained\": {}, \"summarized\": {}, \"evicted\": {}, \"overhead_ns\": {}, \"ab\": {{\"rounds\": {AB_ROUNDS}, \"round_ms\": {}, \"recorder_on_jobs_per_s\": {throughput_on:.1}, \"recorder_off_jobs_per_s\": {throughput_off:.1}, \"overhead_pct\": {overhead_median:.2}, \"overhead_pct_min\": {overhead_min:.2}, \"overhead_pct_max\": {overhead_max:.2}}}}},\n  \"ledger\": {{\"tenants\": {}, \"billed_microcredits\": {}, \"jobs_settled\": {}, \"jobs_cancelled\": {}}}\n}}\n",
        plan.dispatch_workers,
        plan.intra_per_job,
        mode_json("closed_loop", &closed, closed_s),
        mode_json("open_loop", &open, open_s),
        runtime.latency_p50_ns,
        runtime.latency_p95_ns,
        runtime.latency_p99_ns,
        slo_config.latency_objective_ns,
        slo_config.objective,
        outcomes.len(),
        flight.observed,
        flight.retained,
        flight.summarized,
        flight.evicted,
        flight.overhead_ns,
        round.as_millis(),
        drained.ledger.tenants.len(),
        drained.ledger.global.billed_microcredits,
        drained.ledger.global.jobs_settled,
        drained.ledger.global.jobs_cancelled,
    );
    let mut file = std::fs::File::create(&out_path)?;
    file.write_all(json.as_bytes())?;
    println!("loadgen: wrote {out_path}");
    Ok(())
}
