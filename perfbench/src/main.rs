//! Seeded end-to-end and per-layer benchmark of the StreamPIM stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the five end-to-end
//! metrics of the workload; with `--trace 1` it carries every per-layer
//! metric, from a traced phase whose spans the benchmark records around
//! public calls into each crate. See `perfbench/README.md`.

mod analytic;
mod bitlevel;
mod dnn;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest ops a timed phase runs, whatever `--seconds` says: enough for a
/// p90 with ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// Traced ops over which the deterministic count metrics are taken. Every
/// run completes at least this many, so the counts repeat exactly for a
/// seed.
pub const COUNT_OPS: usize = 16;

/// Per-layer metrics and their units, in report order. A traced run
/// reports all of them; a layer its workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("rm-core.read_row_ns", "ns"),
    ("rm-core.shift_fault_ns", "ns"),
    ("dw-logic.multiply_ns_per_elem", "ns"),
    ("rm-bus.stream_ns_per_word", "ns"),
    ("rm-proc.dot_us", "us"),
    ("pim-device.flow_op_ms", "ms"),
    ("pim-device.flow_shifts_per_op", "count"),
    ("pim-device.faults_injected_per_op", "count"),
    ("pim-device.flow_ns_per_shift", "ns"),
    ("pim-device.lower_us", "us"),
    ("pim-device.schedule_rows", "count"),
    ("pim-device.price_ns_per_row", "ns"),
    ("pim-device.reprice_ns_per_row", "ns"),
    ("pim-device.reprice_fresh_share", "ratio"),
    ("pim-device.sim_ns_per_op", "ns"),
    ("pim-workloads.shape_task_us", "us"),
    ("pim-workloads.materialize_us", "us"),
    ("pim-baselines.run_us", "us"),
    ("pim-cluster.run_ms", "ms"),
    ("pim-cluster.link_rows_per_op", "count"),
    ("pim-runtime.batch_ms", "ms"),
    ("pim-runtime.self_ms", "ms"),
    ("pim-runtime.cache_hit_share", "ratio"),
    ("pim-runtime.near_hit_share", "ratio"),
    ("pim-runtime.cache_entries", "count"),
    ("pim-serve.submit_rtt_ms", "ms"),
    ("pim-serve.status_rtt_ms", "ms"),
    ("pim-serve.result_rtt_ms", "ms"),
    ("pim-serve.handle_ms", "ms"),
    ("pim-serve.connect_wait_ms", "ms"),
    ("pim-serve.queue_wait_ms", "ms"),
    ("pim-serve.service_ms", "ms"),
    ("pim-serve.polls_per_job", "count"),
    ("pim-serve.refused_share", "ratio"),
    ("pim-serve.metrics_scrape_ms", "ms"),
    ("pim-serve.metrics_bytes", "bytes"),
    ("pim-obs.prom_scrape_ms", "ms"),
    ("pim-flight.overhead_us_per_job", "us"),
    ("pim-flight.retained_share", "ratio"),
    ("tracing.throughput_delta", "ops/s"),
    ("tracing.latency_p50_delta_ms", "ms"),
    ("tracing.latency_p90_delta_ms", "ms"),
];

/// What one timed phase observed.
#[derive(Debug)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU time the hypervisor stole from the machine during the phase,
    /// and the CPU time this process got, both in seconds of one CPU.
    pub stolen_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    pub fn new(wall_s: f64) -> Phase {
        Phase {
            latencies_ms: Vec::new(),
            wall_s,
            attempted: 0,
            failed: 0,
            stolen_s: 0.0,
            cpu_s: 0.0,
        }
    }

    pub fn push(&mut self, ok: bool, latency: Duration) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Share of the phase's wall time the hypervisor left to the machine.
    fn unstolen_share(&self) -> f64 {
        ((self.wall_s - self.stolen_s) / self.wall_s).clamp(0.1, 1.0)
    }

    /// Throughput, p50 and p90 latency. With `net_of_steal`, wall time is
    /// first scaled by [`Phase::unstolen_share`]: the host time the ops
    /// would have taken had the hypervisor stolen none of it.
    fn summary(&self, net_of_steal: bool) -> Result<(f64, f64, f64), String> {
        let share = if net_of_steal {
            self.unstolen_share()
        } else {
            1.0
        };
        Ok((
            (self.attempted - self.failed) as f64 / (self.wall_s * share),
            stats::percentile(&self.latencies_ms, 0.5)? * share,
            stats::percentile(&self.latencies_ms, 0.9)? * share,
        ))
    }
}

/// A closed loop of one caller: runs `op(i)` for `i = 0, 1, ...` until
/// `seconds` have passed and at least [`MIN_OPS`] ops have run. `op`
/// returns whether it succeeded and its own latency, so work it does
/// after the measured call (a traced replay) stays out of the latency.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> (bool, Duration)) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::new(0.0);
    while phase.attempted < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let (ok, latency) = op(phase.attempted);
        phase.push(ok, latency);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Output checks: how many results were checked and what failed.
#[derive(Debug, Default)]
pub struct Check {
    pub checked: u64,
    pub distinct: u64,
    pub failures: Vec<String>,
    /// Ops with at least one failure; a failure of the whole run (ledger
    /// conservation, a replay) counts as one.
    pub failed_ops: u64,
}

impl Check {
    /// Records one failed op.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
        self.failed_ops += 1;
    }

    /// Records a failure without counting an op: the caller counts ops
    /// that can fail more than once.
    pub fn note(&mut self, message: String) {
        self.failures.push(message);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sweep,
    Dnn,
    Serve,
    Bitlevel,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "sweep" => Kind::Sweep,
            "dnn" => Kind::Dnn,
            "serve" => Kind::Serve,
            "bitlevel" => Kind::Bitlevel,
            _ => return None,
        })
    }

    /// Whether ops keep a CPU busy from start to end, so that time the
    /// hypervisor steals from the machine delays them one for one and the
    /// time metrics are reported net of it. `serve` ops mostly wait on the
    /// server's 5 ms acceptor timer, and its threads are busy about a
    /// seventh of the time: machine steal would overstate their delay.
    fn net_of_steal(self) -> bool {
        !matches!(self, Kind::Serve)
    }

    /// Set-ups per run: `setup_s` is their median. All of them run before
    /// the timed phase, in a young process, as the measured one does: a
    /// set-up after the timed phase finds the heap already grown and skips
    /// most page faults. Set-up of `dnn` materializes BERT (about a
    /// second), the others take milliseconds.
    fn setups(self) -> usize {
        match self {
            Kind::Dnn => 3,
            _ => 21,
        }
    }
}

enum Bench {
    Runtime(analytic::RuntimeBench),
    Serve(serve::ServeBench),
    Bit(bitlevel::BitBench),
}

impl Bench {
    fn setup(kind: Kind, seed: u64) -> Result<Bench, String> {
        Ok(match kind {
            Kind::Sweep => Bench::Runtime(sweep::setup(seed)?),
            Kind::Dnn => Bench::Runtime(dnn::setup(seed)?),
            Kind::Serve => Bench::Serve(serve::ServeBench::new(seed)?),
            Kind::Bitlevel => Bench::Bit(bitlevel::BitBench::new(seed)?),
        })
    }

    /// Runs one timed phase and records the steal and CPU time around it.
    fn run_phase(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Result<Phase, String> {
        let before = (stats::steal_ticks(), stats::cpu_ticks());
        let mut phase = match self {
            Bench::Runtime(b) => b.run_phase(seconds, tracer)?,
            Bench::Serve(b) => b.run_phase(seconds, tracer)?,
            Bench::Bit(b) => b.run_phase(seconds, tracer),
        };
        let seconds_of =
            |b: Option<u64>, a: Option<u64>| b.zip(a).map_or(0.0, |(b, a)| (a - b) as f64 / 100.0);
        phase.stolen_s = seconds_of(before.0, stats::steal_ticks());
        phase.cpu_s = seconds_of(before.1, stats::cpu_ticks());
        Ok(phase)
    }

    fn check(&mut self) -> Check {
        match self {
            Bench::Runtime(b) => b.check(),
            Bench::Serve(b) => b.check(),
            Bench::Bit(b) => b.check(),
        }
    }

    fn layers(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        match self {
            Bench::Runtime(b) => b.layers(tracer),
            Bench::Serve(b) => b.layers(),
            Bench::Bit(b) => b.layers(tracer),
        }
    }

    fn teardown(&mut self) {
        if let Bench::Serve(b) = self {
            b.teardown();
        }
    }
}

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or(format!(
        "unknown workload {workload:?} (sweep, dnn, serve, bitlevel)"
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let steal_before = stats::steal_ticks();

    // Set up several times; the last set-up before the timed phase is the
    // one that runs.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..args.kind.setups() {
        if let Some(mut previous) = bench.take() {
            Bench::teardown(&mut previous);
        }
        let start = Instant::now();
        bench = Some(Bench::setup(args.kind, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let net = args.kind.net_of_steal();
    let (phase, layers) = if args.trace {
        // The traced phase runs first, right after set-up, so its count
        // metrics start from the same state in every run of a seed; each
        // phase gets half the run.
        let mut tracer = Tracer::default();
        let traced = bench.run_phase(args.seconds / 2.0, Some(&mut tracer))?;
        let untraced = bench.run_phase(args.seconds / 2.0, None)?;
        let mut layers = bench.layers(&tracer);
        let (t_tp, t_p50, t_p90) = traced.summary(net)?;
        let (u_tp, u_p50, u_p90) = untraced.summary(net)?;
        layers.push(("tracing.throughput_delta", t_tp - u_tp));
        layers.push(("tracing.latency_p50_delta_ms", t_p50 - u_p50));
        layers.push(("tracing.latency_p90_delta_ms", t_p90 - u_p90));
        let path = std::path::Path::new(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        let mut both = traced;
        both.attempted += untraced.attempted;
        both.failed += untraced.failed;
        both.wall_s += untraced.wall_s;
        both.stolen_s += untraced.stolen_s;
        both.cpu_s += untraced.cpu_s;
        (both, Some(layers))
    } else {
        (bench.run_phase(args.seconds, None)?, None)
    };

    let check = bench.check();
    bench.teardown();
    drop(bench);
    let peak_rss_mb = stats::peak_rss_mib()?;
    let steal = match (steal_before, stats::steal_ticks()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "unknown".to_string(),
    };

    println!(
        "host: nproc={} arch={} simd={} steal_ticks={} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::ARCH,
        rm_core::wide::simd_level(),
        steal,
        stats::commit()
    );
    println!(
        "timed: wall_s={:.3} process_cpu_s={:.2} cpu_ms_per_op={:.4} stolen_cpu_s={:.2} unstolen_share={:.4}",
        phase.wall_s,
        phase.cpu_s,
        phase.cpu_s * 1e3 / phase.attempted as f64,
        phase.stolen_s,
        phase.unstolen_share()
    );
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setups_s: {}", setups.join(" "));
    println!(
        "checks: {} results checked, {} distinct, {} failed",
        check.checked,
        check.distinct,
        check.failures.len()
    );
    for failure in check.failures.iter().take(10) {
        println!("check failed: {failure}");
    }

    let metrics: Vec<(&str, f64, &str)> = match layers {
        None => {
            let (raw_tp, raw_p50, raw_p90) = phase.summary(false)?;
            println!(
                "wall clock, steal included: throughput={raw_tp:.4} ops/s p50={raw_p50:.4} ms p90={raw_p90:.4} ms"
            );
            let (throughput, p50, p90) = phase.summary(net)?;
            vec![
                ("setup_s", stats::median(&setup_s), "s"),
                ("throughput", throughput, "ops/s"),
                ("latency_p50_ms", p50, "ms"),
                ("latency_p90_ms", p90, "ms"),
                ("peak_rss_mb", peak_rss_mb, "MiB"),
            ]
        }
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
                (name, value, unit)
            })
            .collect(),
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>14.4} {unit}");
    }

    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is not a finite number"));
    }
    // The checks see every op that failed while timed, so their failed ops
    // are the union of both.
    let failed = check.failed_ops.max(phase.failed).min(phase.attempted);
    let correct = check.failures.is_empty() && phase.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        phase.attempted,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <sweep|dnn|serve|bitlevel> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in `BENCHMARK.json` must agree.
    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(
                per_layer.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn closed_loop_runs_at_least_min_ops() {
        let phase = closed_loop(0.0, |_| (true, Duration::from_micros(1)));
        assert_eq!(phase.attempted, MIN_OPS);
        assert!(phase.summary(false).is_ok());
    }

    #[test]
    fn net_of_steal_scales_wall_time_by_the_unstolen_share() {
        let mut phase = Phase::new(10.0);
        for i in 0..200 {
            phase.push(i % 50 != 0, Duration::from_millis(1 + i % 10));
        }
        phase.stolen_s = 2.0;
        let (raw_tp, raw_p50, raw_p90) = phase.summary(false).expect("200 samples");
        let (tp, p50, p90) = phase.summary(true).expect("200 samples");
        assert_eq!(raw_tp, 19.6);
        assert!((tp - 19.6 / 0.8).abs() < 1e-9);
        assert!((p50 - raw_p50 * 0.8).abs() < 1e-9);
        assert!((p90 - raw_p90 * 0.8).abs() < 1e-9);
        phase.stolen_s = 50.0;
        assert_eq!(phase.unstolen_share(), 0.1);
    }
}
