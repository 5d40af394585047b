//! `serve`: closed-loop job exchanges against an in-process server. One op
//! is `POST /v1/jobs`, then `GET /v1/jobs/{id}` at a fixed interval until
//! the job is terminal, then `GET /v1/jobs/{id}/result`.

use crate::stats::{self, Digest, Rng};
use crate::trace::{Role, Span, Tracer};
use crate::{Check, Phase, MIN_OPS};
use pim_baselines::PlatformKind;
use pim_runtime::{Job, Runtime};
use pim_serve::{
    call, JobState, MetricsResponse, ResultResponse, ServeConfig, Server, StatusResponse,
    SubmitRequest, SubmitResponse,
};
use pim_workloads::WorkloadSpec;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients; never more than the two hardware threads the
/// benchmark host has.
const CLIENTS: usize = 2;
/// The status poll interval, as in `examples/loadgen.rs`.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// A job still not terminal after this long fails its op, so a wedged
/// server cannot hang the run.
const JOB_DEADLINE: Duration = Duration::from_secs(10);
/// A dashboard scrape (`/v1/metrics` and `/metrics.prom`) follows every
/// this many completed jobs.
const SCRAPE_EVERY: u64 = 100;
/// Tenants and their shares of the submissions.
const TENANTS: [(&str, u64); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];
/// Sides of the recurring shapes.
const SIDES: [usize; 8] = [16, 24, 32, 48, 64, 96, 128, 256];
/// Recurring shapes per seed: after their first run, cache hits.
const SHAPE_SET: usize = 8;
/// The warm-up job, the same for every seed so set-up time does not
/// depend on the seed.
const WARMUP_SHAPE: WorkloadSpec = WorkloadSpec::MatMul {
    m: 64,
    k: 64,
    n: 64,
};
/// One op in this many submits a shape drawn fresh from sides 16–256: a
/// new cache key of an already-seen shape class, so a near hit.
const FRESH_EVERY: u64 = 10;

/// The job op `i` of the stream of `seed` submits: (tenant, shape).
pub fn op_job(seed: u64, shapes: &[WorkloadSpec], i: u64) -> (&'static str, WorkloadSpec) {
    let mut rng = Rng::new(seed, 0x5E57E ^ i.wrapping_mul(0x1_0000_0001));
    let total: u64 = TENANTS.iter().map(|t| t.1).sum();
    let mut pick = rng.next_u64() % total;
    let tenant = TENANTS
        .iter()
        .find(|(_, w)| {
            let hit = pick < *w;
            pick = pick.saturating_sub(*w);
            hit
        })
        .expect("pick falls below the weight total")
        .0;
    let spec = if rng.next_u64().is_multiple_of(FRESH_EVERY) {
        WorkloadSpec::MatMul {
            m: rng.range(16, 256),
            k: rng.range(16, 256),
            n: rng.range(16, 256),
        }
    } else {
        shapes[rng.range(0, shapes.len() - 1)]
    };
    (tenant, spec)
}

/// The recurring shapes of `seed`.
pub fn shape_set(seed: u64) -> Vec<WorkloadSpec> {
    let mut rng = Rng::new(seed, 0x5AA9E);
    (0..SHAPE_SET)
        .map(|_| WorkloadSpec::MatMul {
            m: SIDES[rng.range(0, SIDES.len() - 1)],
            k: SIDES[rng.range(0, SIDES.len() - 1)],
            n: SIDES[rng.range(0, SIDES.len() - 1)],
        })
        .collect()
}

/// One HTTP call as the client saw it: start and end on the tracer clock.
#[derive(Debug, Clone, Copy)]
struct Call {
    start_ns: u64,
    end_ns: u64,
}

impl Call {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Everything one job exchange observed.
#[derive(Debug, Default)]
struct Exchange {
    op: u64,
    spec: Option<WorkloadSpec>,
    submit: Option<Call>,
    polls: Vec<Call>,
    result: Option<Call>,
    refused: bool,
    /// (submitted, started, finished) from the terminal status.
    stamps: Option<(u64, u64, u64)>,
    report: Option<u64>,
    error: Option<String>,
}

struct Scrape {
    metrics: Vec<Call>,
    metrics_bytes: Vec<f64>,
    prom: Vec<Call>,
}

pub struct ServeBench {
    server: Option<Server>,
    addr: SocketAddr,
    seed: u64,
    shapes: Vec<WorkloadSpec>,
    next_op: u64,
    exchanges: Vec<Exchange>,
    traced: Vec<Exchange>,
    scrapes: Option<Scrape>,
    before: Option<(MetricsResponse, String)>,
    after: Option<(MetricsResponse, String)>,
}

impl ServeBench {
    /// Starts the server and runs one untimed warm-up exchange.
    pub fn new(seed: u64) -> Result<ServeBench, String> {
        let server =
            Server::start(ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let shapes = shape_set(seed);
        // A first connection made before the acceptor's first poll would
        // skip a wait; see `exchange` on pacing.
        std::thread::sleep(POLL_INTERVAL);
        let clock = Instant::now();
        let warm = exchange(addr, clock, u64::MAX, "gold", WARMUP_SHAPE, true);
        if let Some(e) = warm.error {
            return Err(format!("warm-up exchange failed: {e}"));
        }
        Ok(ServeBench {
            server: Some(server),
            addr,
            seed,
            shapes,
            next_op: 0,
            exchanges: Vec::new(),
            traced: Vec::new(),
            scrapes: None,
            before: None,
            after: None,
        })
    }

    pub fn run_phase(
        &mut self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let traced = tracer.is_some();
        if traced {
            self.before = Some(scrape_state(self.addr)?);
        }
        let clock = Instant::now();
        let next = AtomicU64::new(self.next_op);
        let started = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let scrapes = Mutex::new(Scrape {
            metrics: Vec::new(),
            metrics_bytes: Vec::new(),
            prom: Vec::new(),
        });
        let (addr, seed, shapes) = (self.addr, self.seed, &self.shapes);
        let per_client: Vec<Vec<(Exchange, Duration)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let claimed = started.fetch_add(1, Ordering::Relaxed);
                            if claimed >= MIN_OPS && clock.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            let op = next.fetch_add(1, Ordering::Relaxed);
                            let (tenant, spec) = op_job(seed, shapes, op);
                            let t0 = Instant::now();
                            let ex = exchange(addr, clock, op, tenant, spec, false);
                            let latency = t0.elapsed();
                            done.push((ex, latency));
                            if (completed.fetch_add(1, Ordering::Relaxed) + 1)
                                .is_multiple_of(SCRAPE_EVERY)
                            {
                                dashboard_scrape(addr, clock, &scrapes);
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = clock.elapsed().as_secs_f64();
        self.next_op = next.load(Ordering::Relaxed);
        let mut phase = Phase::new(wall_s);
        let mut exchanges: Vec<Exchange> = Vec::new();
        for (ex, latency) in per_client.into_iter().flatten() {
            phase.push(ex.error.is_none(), latency);
            exchanges.push(ex);
        }
        exchanges.sort_by_key(|e| e.op);
        if let Some(t) = tracer {
            self.after = Some(scrape_state(self.addr)?);
            record_spans(t, clock, &exchanges);
            self.scrapes = Some(scrapes.into_inner().expect("scrape lock"));
            self.traced = exchanges;
        } else {
            self.exchanges.extend(exchanges);
        }
        Ok(phase)
    }

    /// Every result's report must equal the runtime's report for the same
    /// job, and the ledger must conserve against the runtime at the end.
    pub fn check(&mut self) -> Check {
        let mut check = Check::default();
        let runtime = Runtime::new(ServeConfig::default().runtime_config());
        let mut reference: HashMap<WorkloadSpec, Result<u64, String>> = HashMap::new();
        for ex in self.exchanges.iter().chain(&self.traced) {
            check.checked += 1;
            if let Some(e) = &ex.error {
                check.fail(format!("op {}: {e}", ex.op));
                continue;
            }
            let spec = ex.spec.expect("completed exchanges carry their spec");
            let want = reference.entry(spec).or_insert_with(|| {
                let batch = runtime.run_batch(&[Job::new(spec, PlatformKind::StPim)]);
                match &batch.outcomes[0].report {
                    Ok(report) => Ok(Digest::of(report)),
                    Err(e) => Err(e.clone()),
                }
            });
            match want {
                Ok(want) if Some(*want) == ex.report => {}
                Ok(_) => check.fail(format!(
                    "op {}: served report differs from the runtime's",
                    ex.op
                )),
                Err(e) => check.fail(format!("op {}: reference run failed: {e}", ex.op)),
            }
        }
        check.distinct = reference.len() as u64;
        if let Err(e) = self
            .server
            .as_ref()
            .expect("server runs until teardown")
            .check_conservation()
        {
            check.fail(format!("ledger conservation: {e}"));
        }
        check
    }

    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let ex = &self.traced;
        let scrapes = self.scrapes.as_ref().expect("traced phase ran");
        let (before, prom_before) = self.before.as_ref().expect("traced phase ran");
        let (after, prom_after) = self.after.as_ref().expect("traced phase ran");
        let ms = |calls: &[Call]| stats::median(&calls.iter().map(Call::ms).collect::<Vec<_>>());
        let submits: Vec<Call> = ex.iter().filter_map(|e| e.submit).collect();
        let polls: Vec<Call> = ex.iter().flat_map(|e| e.polls.iter().copied()).collect();
        let results: Vec<Call> = ex.iter().filter_map(|e| e.result).collect();
        let stamps: Vec<(u64, u64, u64)> = ex.iter().filter_map(|e| e.stamps).collect();
        let queue: Vec<f64> = stamps.iter().map(|s| (s.1 - s.0) as f64 / 1e6).collect();
        let service: Vec<f64> = stamps.iter().map(|s| (s.2 - s.1) as f64 / 1e6).collect();
        // Server-side handle time of the three job routes over the phase.
        let mut handle_ns = 0.0;
        let mut handled = 0.0;
        for route in ["/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/result"] {
            let (sum, count) = prom_histogram(prom_after, route);
            let (sum0, count0) = prom_histogram(prom_before, route);
            handle_ns += sum - sum0;
            handled += count - count0;
        }
        let rtt_ms: f64 = submits
            .iter()
            .chain(&polls)
            .chain(&results)
            .map(Call::ms)
            .sum();
        let calls = (submits.len() + polls.len() + results.len()) as f64;
        let handle_ms = stats::ratio(handle_ns / 1e6, handled);
        let observed = (after.flight.observed - before.flight.observed) as f64;
        vec![
            ("pim-serve.submit_rtt_ms", ms(&submits)),
            ("pim-serve.status_rtt_ms", ms(&polls)),
            ("pim-serve.result_rtt_ms", ms(&results)),
            ("pim-serve.handle_ms", handle_ms),
            (
                "pim-serve.connect_wait_ms",
                stats::ratio(rtt_ms, calls) - handle_ms,
            ),
            ("pim-serve.queue_wait_ms", stats::median(&queue)),
            ("pim-serve.service_ms", stats::median(&service)),
            (
                "pim-serve.polls_per_job",
                stats::ratio(polls.len() as f64, stamps.len() as f64),
            ),
            (
                "pim-serve.refused_share",
                stats::ratio(
                    ex.iter().filter(|e| e.refused).count() as f64,
                    ex.len() as f64,
                ),
            ),
            ("pim-serve.metrics_scrape_ms", ms(&scrapes.metrics)),
            (
                "pim-serve.metrics_bytes",
                stats::median(&scrapes.metrics_bytes),
            ),
            ("pim-obs.prom_scrape_ms", ms(&scrapes.prom)),
            (
                "pim-flight.overhead_us_per_job",
                stats::ratio(
                    (after.flight.overhead_ns - before.flight.overhead_ns) as f64 / 1e3,
                    observed,
                ),
            ),
            (
                "pim-flight.retained_share",
                stats::ratio(
                    (after.flight.retained - before.flight.retained) as f64,
                    observed,
                ),
            ),
        ]
    }

    pub fn teardown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Timed HTTP call on the tracer clock `clock`.
fn timed(
    addr: SocketAddr,
    clock: Instant,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (Result<(u16, String), String>, Call) {
    let start_ns = clock.elapsed().as_nanos() as u64;
    let outcome = call(&addr, method, path, body)
        .map(|(status, _, body)| (status, body))
        .map_err(|e| format!("{method} {path}: {e}"));
    let end_ns = clock.elapsed().as_nanos() as u64;
    (outcome, Call { start_ns, end_ns })
}

/// One job exchange: submit, poll to terminal, fetch the result. A paced
/// exchange waits one poll interval before every call after the submit.
/// The acceptor sleeps 5 ms whenever no connection is pending, so a call
/// made right after a reply races the acceptor's next poll; pacing the
/// set-up's warm-up exchange takes the race out of set-up time.
fn exchange(
    addr: SocketAddr,
    clock: Instant,
    op: u64,
    tenant: &str,
    spec: WorkloadSpec,
    paced: bool,
) -> Exchange {
    let mut ex = Exchange {
        op,
        spec: Some(spec),
        ..Exchange::default()
    };
    if let Err(e) = exchange_into(addr, clock, tenant, spec, paced, &mut ex) {
        ex.error = Some(e);
    }
    ex
}

fn exchange_into(
    addr: SocketAddr,
    clock: Instant,
    tenant: &str,
    spec: WorkloadSpec,
    paced: bool,
    ex: &mut Exchange,
) -> Result<(), String> {
    let pace = || {
        if paced {
            std::thread::sleep(POLL_INTERVAL);
        }
    };
    let body = serde_json::to_string(&SubmitRequest {
        tenant: tenant.to_string(),
        job: Job::new(spec, PlatformKind::StPim),
    })
    .map_err(|e| format!("submit body: {e:?}"))?;
    let (outcome, submit) = timed(addr, clock, "POST", "/v1/jobs", Some(&body));
    ex.submit = Some(submit);
    let (status, body) = outcome?;
    if status == 429 || status == 503 {
        ex.refused = true;
    }
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let id = parse::<SubmitResponse>(&body)?.id;
    let path = format!("/v1/jobs/{id}");
    let submitted = Instant::now();
    let terminal = loop {
        pace();
        let (outcome, poll) = timed(addr, clock, "GET", &path, None);
        ex.polls.push(poll);
        let (status, body) = outcome?;
        if status != 200 {
            return Err(format!("status answered {status}: {body}"));
        }
        let state = parse::<StatusResponse>(&body)?;
        if state.state.is_terminal() {
            break state;
        }
        if submitted.elapsed() > JOB_DEADLINE {
            return Err(format!("job {id} not terminal after {JOB_DEADLINE:?}"));
        }
        std::thread::sleep(POLL_INTERVAL);
    };
    if terminal.state != JobState::Completed {
        return Err(format!("job ended {:?}", terminal.state));
    }
    if let (Some(started), Some(finished)) = (terminal.started_ns, terminal.finished_ns) {
        ex.stamps = Some((terminal.submitted_ns, started, finished));
    }
    pace();
    let (outcome, result) = timed(addr, clock, "GET", &format!("{path}/result"), None);
    ex.result = Some(result);
    let (status, body) = outcome?;
    if status != 200 {
        return Err(format!("result answered {status}: {body}"));
    }
    let report = parse::<ResultResponse>(&body)?
        .report
        .ok_or("completed job has no report")?;
    ex.report = Some(Digest::of(&report));
    Ok(())
}

fn parse<T: serde::Deserialize>(body: &str) -> Result<T, String> {
    serde_json::from_str(body).map_err(|e| format!("unparsable reply {body:.200}: {e:?}"))
}

/// The dashboard's scrape: `GET /v1/metrics`, then `GET /metrics.prom`.
fn dashboard_scrape(addr: SocketAddr, clock: Instant, scrapes: &Mutex<Scrape>) {
    let (metrics, metrics_call) = timed(addr, clock, "GET", "/v1/metrics", None);
    let (prom, prom_call) = timed(addr, clock, "GET", "/metrics.prom", None);
    let mut s = scrapes.lock().expect("scrape lock");
    if let Ok((200, body)) = metrics {
        s.metrics.push(metrics_call);
        s.metrics_bytes.push(body.len() as f64);
    }
    if let Ok((200, _)) = prom {
        s.prom.push(prom_call);
    }
}

/// The server's counters and exposition at a phase boundary.
fn scrape_state(addr: SocketAddr) -> Result<(MetricsResponse, String), String> {
    let get = |path| match call(&addr, "GET", path, None) {
        Ok((200, _, body)) => Ok(body),
        Ok((status, _, _)) => Err(format!("GET {path} answered {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    };
    Ok((parse(&get("/v1/metrics")?)?, get("/metrics.prom")?))
}

/// `(sum, count)` of the server-side request latency histogram of `route`.
pub fn prom_histogram(exposition: &str, route: &str) -> (f64, f64) {
    let label = format!("route=\"{route}\"");
    let value = |suffix: &str| {
        let family = format!("pim_http_request_latency_ns_{suffix}{{");
        exposition
            .lines()
            .find(|l| l.starts_with(&family) && l.contains(&label))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (value("sum"), value("count"))
}

/// Turns the exchanges' call stamps into spans: one per op, one per call.
fn record_spans(t: &mut Tracer, clock: Instant, exchanges: &[Exchange]) {
    let offset = clock.duration_since(t.epoch()).as_nanos() as u64;
    for ex in exchanges {
        let calls: Vec<(&'static str, Call)> = ex
            .submit
            .map(|c| ("pim-serve.submit", c))
            .into_iter()
            .chain(ex.polls.iter().map(|&c| ("pim-serve.status", c)))
            .chain(ex.result.map(|c| ("pim-serve.result", c)))
            .collect();
        let (Some(first), Some(last)) = (calls.first(), calls.last()) else {
            continue;
        };
        let op = t.push(Span {
            name: "serve.exchange",
            start_ns: offset + first.1.start_ns,
            end_ns: offset + last.1.end_ns,
            parent: None,
            op: ex.op,
            role: Role::Op,
            work: 1,
        });
        for (name, c) in calls {
            t.push(Span {
                name,
                start_ns: offset + c.start_ns,
                end_ns: offset + c.end_ns,
                parent: Some(op),
                op: ex.op,
                role: Role::Op,
                work: 1,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let stream = |seed| {
            let shapes = shape_set(seed);
            (0..200)
                .map(|i| op_job(seed, &shapes, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let ops = stream(5);
        let gold = ops.iter().filter(|(t, _)| *t == "gold").count();
        let bronze = ops.iter().filter(|(t, _)| *t == "bronze").count();
        assert!(gold > 2 * bronze, "tenants follow the 4/2/1 weights");
    }

    #[test]
    fn prom_histogram_reads_sum_and_count_of_one_route() {
        let text = "# TYPE pim_http_request_latency_ns histogram\n\
            pim_http_request_latency_ns_bucket{route=\"/v1/jobs\",le=\"1024\"} 3\n\
            pim_http_request_latency_ns_sum{route=\"/v1/jobs\"} 1500\n\
            pim_http_request_latency_ns_count{route=\"/v1/jobs\"} 3\n\
            pim_http_request_latency_ns_sum{route=\"/v1/jobs/{id}\"} 99\n";
        assert_eq!(prom_histogram(text, "/v1/jobs"), (1500.0, 3.0));
        assert_eq!(prom_histogram(text, "/v1/jobs/{id}"), (99.0, 0.0));
        assert_eq!(prom_histogram(text, "/v1/metrics"), (0.0, 0.0));
    }
}
