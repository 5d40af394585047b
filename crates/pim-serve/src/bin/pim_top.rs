//! `pim_top`: a live terminal view over a running pim-serve instance.
//!
//! Polls `GET /v1/metrics` (JSON: server counters, runtime snapshot,
//! ledger, SLO) and `GET /v1/events` (structured log tail) and renders a
//! one-screen dashboard, `top`-style:
//!
//! ```sh
//! pim_top 127.0.0.1:8080            # refresh every second
//! pim_top 127.0.0.1:8080 250        # refresh every 250 ms
//! pim_top 127.0.0.1:8080 --once     # one frame, no clear, then exit
//! pim_top --demo                    # boot an in-process server, drive a
//!                                   # few jobs, render one frame (CI)
//! ```
//!
//! The dashboard is read-only: every request it makes is a GET against
//! endpoints the service serves anyway, so watching a server never
//! perturbs admission, dispatch, or metering.

use pim_flight::FlightIndex;
use pim_serve::api::{DeviceHealthResponse, MetricsResponse};
use pim_serve::http::client_request;
use std::time::Duration;

fn fail(what: &str) -> ! {
    eprintln!("pim_top: {what}");
    std::process::exit(1);
}

/// One GET; returns the body or a description of the failure.
fn get(addr: &str, path: &str) -> Result<String, String> {
    match client_request(addr, "GET", path, None) {
        Ok((200, _, body)) => Ok(body),
        Ok((status, _, body)) => Err(format!("{path} -> {status}: {body}")),
        Err(error) => Err(format!("{path}: {error}")),
    }
}

/// One character per subarray, shaded by its share of the busiest
/// subarray's shift count — a `top`-style wear heatmap in a single row.
fn heatmap_row(health: &rm_core::DeviceHealth) -> String {
    const SHADES: [char; 6] = ['.', ':', '-', '=', '#', '@'];
    let peak = health
        .subarrays
        .iter()
        .map(|s| s.wear.shifts)
        .max()
        .unwrap_or(0)
        .max(1);
    health
        .subarrays
        .iter()
        .map(|s| SHADES[(s.wear.shifts * (SHADES.len() as u64 - 1)).div_ceil(peak) as usize])
        .collect()
}

/// Renders one dashboard frame from the server's own snapshots.
fn frame(addr: &str) -> Result<String, String> {
    let metrics: MetricsResponse =
        serde_json::from_str(&get(addr, "/v1/metrics")?).map_err(|e| format!("metrics: {e}"))?;
    let events = get(addr, "/v1/events")?;

    let mut out = String::new();
    let runtime = &metrics.runtime;
    let server = &metrics.server;
    out.push_str(&format!(
        "pim_top — {addr}   phase: {:?}\n\n",
        metrics.phase
    ));
    out.push_str(&format!(
        "traffic   submitted {}  admitted {}  429 tenant/global {}/{}  503 drain {}  shed {}  cancelled {}\n",
        server.submitted,
        server.admitted,
        server.rejected_tenant,
        server.rejected_global,
        server.rejected_drain,
        server.shed_connections,
        server.cancelled,
    ));
    out.push_str(&format!(
        "runtime   jobs {} ok / {} failed   latency p50 {} us  p95 {} us  p99 {} us\n",
        runtime.jobs_completed,
        runtime.jobs_failed,
        runtime.latency_p50_ns / 1_000,
        runtime.latency_p95_ns / 1_000,
        runtime.latency_p99_ns / 1_000,
    ));
    out.push_str(&format!(
        "cache     {} hits / {} misses   {} near hits ({} rows repriced)   {} schedules resident\n",
        runtime.cache_hits,
        runtime.cache_misses,
        runtime.cache_near_hits,
        runtime.cache_repriced_rows,
        runtime.cache_entries,
    ));
    out.push_str(&format!(
        "ledger    {} tenants   {} settled / {} cancelled   {} microcredits billed\n\n",
        metrics.ledger.tenants.len(),
        metrics.ledger.global.jobs_settled,
        metrics.ledger.global.jobs_cancelled,
        metrics.ledger.global.billed_microcredits,
    ));

    out.push_str(&format!(
        "slo       objective {:.3} within {} ms\n",
        metrics.slo.objective,
        metrics.slo.latency_objective_ns / 1_000_000,
    ));
    if metrics.slo.tenants.is_empty() {
        out.push_str("          (no finished jobs yet)\n");
    } else {
        out.push_str("          tenant            good/total   attainment   budget burn\n");
        for tenant in &metrics.slo.tenants {
            out.push_str(&format!(
                "          {:<16} {:>6}/{:<6}   {:>9.4}   {:>10.2}{}\n",
                tenant.tenant,
                tenant.good,
                tenant.total,
                tenant.attainment,
                tenant.error_budget_burn,
                if tenant.error_budget_burn >= 1.0 {
                    "  !! MISSING OBJECTIVE"
                } else {
                    ""
                },
            ));
        }
    }

    let index: FlightIndex = serde_json::from_str(&get(addr, "/v1/debug/requests")?)
        .map_err(|e| format!("debug index: {e}"))?;
    let flight = &metrics.flight;
    out.push_str(&format!(
        "\nflight    {} observed   {} retained / {} summarized   {} evicted   ring {} records / {} KiB\n",
        flight.observed,
        flight.retained,
        flight.summarized,
        flight.evicted,
        flight.ring_records,
        flight.ring_bytes / 1024,
    ));
    if index.retained.is_empty() {
        out.push_str("          (nothing retained — no breaches, errors, or outliers)\n");
    } else {
        for entry in index.retained.iter().take(5) {
            out.push_str(&format!(
                "          {:<14} {:<10} {:>10.3} ms   {}\n",
                entry.request_id,
                entry.reason,
                entry.latency_ns as f64 / 1e6,
                entry.name,
            ));
        }
    }

    let health: DeviceHealthResponse = serde_json::from_str(&get(addr, "/v1/device/health")?)
        .map_err(|e| format!("device health: {e}"))?;
    out.push_str(&format!(
        "\nhealth    {} subarrays   {} shifts ({} distance)\n",
        health.health.subarrays.len(),
        health.health.totals.shifts,
        health.health.totals.shift_distance,
    ));
    if !health.health.subarrays.is_empty() {
        out.push_str(&format!(
            "          wear      {}\n",
            heatmap_row(&health.health)
        ));
    }

    if !metrics.cluster.is_empty() {
        let peak = metrics
            .cluster
            .iter()
            .map(|d| d.busy_ns)
            .fold(1.0_f64, f64::max);
        out.push_str(&format!(
            "\ncluster   {} devices observed\n",
            metrics.cluster.len()
        ));
        out.push_str("          dev     busy ms   energy uJ     link ms   link uJ   util\n");
        for device in &metrics.cluster {
            // A 10-cell bar of this device's busy time against the
            // busiest device — imbalance is visible at a glance.
            let cells = ((device.busy_ns / peak) * 10.0).round() as usize;
            out.push_str(&format!(
                "          {:<5} {:>9.3} {:>11.3} {:>11.3} {:>9.3}   {}\n",
                device.device,
                device.busy_ns / 1e6,
                device.energy_pj / 1e6,
                device.link_busy_ns / 1e6,
                device.link_energy_pj / 1e6,
                "#".repeat(cells.clamp(1, 10)),
            ));
        }
    }

    out.push_str("\nrecent events (oldest first)\n");
    let tail: Vec<&str> = {
        let lines: Vec<&str> = events.lines().filter(|l| !l.is_empty()).collect();
        lines[lines.len().saturating_sub(8)..].to_vec()
    };
    if tail.is_empty() {
        out.push_str("          (none)\n");
    }
    for line in tail {
        match serde_json::from_str::<pim_obs::EventRecord>(line) {
            Ok(event) => out.push_str(&format!(
                "  [{:>10.3} ms] {:<5} {:<10} {:<14} {}\n",
                event.host_ns as f64 / 1e6,
                event.level.name(),
                event.scope,
                event.request_id,
                event.message,
            )),
            Err(error) => return Err(format!("event line: {error}")),
        }
    }
    Ok(out)
}

/// `--demo`: boots an in-process server, drives a few jobs through it,
/// renders one frame, and exits — the CI path that proves the dashboard
/// renders against a real service without needing a long-lived process.
fn demo() -> ! {
    use pim_baselines::PlatformKind;
    use pim_runtime::Job;
    use pim_serve::api::{StatusResponse, SubmitRequest, SubmitResponse};
    use pim_serve::{call, ServeConfig, Server};
    use pim_workloads::WorkloadSpec;

    // A 1 ns objective so the demo's jobs all breach: the flight panel
    // renders real retained records, not the empty placeholder.
    let config = ServeConfig {
        slo: pim_obs::SloConfig {
            latency_objective_ns: 1,
            ..pim_obs::SloConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = server.addr();
    // Three single-device jobs plus one 4-device cluster job, so the
    // per-device utilization panel renders with real rows.
    for (tenant, m, cluster) in [
        ("gold", 12, None),
        ("silver", 16, None),
        ("gold", 20, None),
        (
            "gold",
            96,
            Some(pim_runtime::ClusterSpec::data(4).with_batch(4)),
        ),
    ] {
        let mut job = Job::new(WorkloadSpec::MatMul { m, k: m, n: m }, PlatformKind::StPim);
        if let Some(spec) = cluster {
            job = job.with_cluster(spec);
        }
        let body = serde_json::to_string(&SubmitRequest {
            tenant: tenant.to_string(),
            job,
        })
        .expect("request serializes");
        let (status, _, body) = call(&addr, "POST", "/v1/jobs", Some(&body))
            .unwrap_or_else(|e| fail(&format!("submit: {e}")));
        if status != 202 {
            fail(&format!("submit status {status}: {body}"));
        }
        let submitted: SubmitResponse =
            serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("submit body: {e}")));
        for _ in 0..2_000 {
            let (status, _, body) = call(&addr, "GET", &format!("/v1/jobs/{}", submitted.id), None)
                .unwrap_or_else(|e| fail(&format!("poll: {e}")));
            if status != 200 {
                fail(&format!("poll status {status}"));
            }
            let parsed: StatusResponse =
                serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("poll body: {e}")));
            if parsed.state.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    match frame(&addr.to_string()) {
        Ok(rendered) => {
            print!("{rendered}");
            server.shutdown();
            std::process::exit(0);
        }
        Err(error) => fail(&error),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--demo") {
        demo();
    }
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        fail("usage: pim_top <addr> [interval-ms] [--once] | pim_top --demo");
    };
    let once = args.iter().any(|a| a == "--once");
    let interval_ms: u64 = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);

    loop {
        match frame(addr) {
            Ok(rendered) => {
                if once {
                    print!("{rendered}");
                    return;
                }
                // Clear + home, then the frame — a flicker-free refresh
                // would need a TTY library; this stays std-only.
                print!("\x1b[2J\x1b[H{rendered}");
            }
            Err(error) => {
                if once {
                    fail(&error);
                }
                println!("\x1b[2J\x1b[Hpim_top — {addr}: {error}");
            }
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
