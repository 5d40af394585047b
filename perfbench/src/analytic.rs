//! The two runtime workloads (`sweep`, `dnn`) share this code: one op is
//! one `Runtime::run_batch`. `Runtime::run_batch` cannot be split from
//! outside, so the traced run replays every job of an op through the
//! public calls the runtime makes, against the benchmark's own caches
//! keyed like the runtime's (`ScheduleCache::key` / `shape_key`).

use crate::stats::{self, Digest};
use crate::trace::{Role, SpanId, Tracer};
use crate::{closed_loop, Check, Phase, COUNT_OPS};
use pim_baselines::{Platform, PlatformKind, Workload};
use pim_cluster::Cluster;
use pim_device::schedule::Schedule;
use pim_device::{ExecReport, Parallelism, PriceTable, StreamPim};
use pim_runtime::{BatchResult, Job, Runtime, RuntimeConfig, ScheduleCache};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// Pricing rows of a schedule: the rows the engine prices per run.
fn schedule_rows(schedule: &Schedule) -> u64 {
    schedule
        .rounds
        .iter()
        .map(|r| (r.broadcasts.len() + r.collects.len() + r.computes.len()) as u64)
        .sum()
}

/// Deterministic per-op counts gathered by the replay.
#[derive(Debug, Default, Clone, Copy)]
struct OpCounts {
    streampim_jobs: u64,
    rows: u64,
    sim_ns: f64,
    link_rows: u64,
}

/// The benchmark's mirror of the runtime's platform pool, schedule cache
/// and re-pricing memo.
struct Replay {
    parallelism: Parallelism,
    platforms: HashMap<PlatformKind, Platform>,
    schedules: HashMap<u64, Schedule>,
    tables: HashMap<u64, PriceTable>,
    fresh_rows: u64,
    repriced_rows: u64,
    counts: Vec<OpCounts>,
}

impl Replay {
    fn new(parallelism: Parallelism) -> Replay {
        Replay {
            parallelism,
            platforms: HashMap::new(),
            schedules: HashMap::new(),
            tables: HashMap::new(),
            fresh_rows: 0,
            repriced_rows: 0,
            counts: Vec::new(),
        }
    }

    fn op(&mut self, jobs: &[Job], t: &mut Tracer, op: u64, parent: SpanId) -> Result<(), String> {
        let mut counts = OpCounts::default();
        for job in jobs {
            self.job(job, t, op, parent, &mut counts)
                .map_err(|e| format!("replay of {}: {e}", job.name))?;
        }
        self.counts.push(counts);
        Ok(())
    }

    fn job(
        &mut self,
        job: &Job,
        t: &mut Tracer,
        op: u64,
        parent: SpanId,
        counts: &mut OpCounts,
    ) -> Result<(), pim_device::PimError> {
        let span = |t: &mut Tracer, name, start, work| {
            t.record(name, start, Some(parent), op, Role::Replay, work)
        };
        if let Some(spec) = job.cluster.filter(|s| s.devices != 1 || s.batch != 1) {
            let cluster = Cluster::paper_default(spec.devices)?.with_parallelism(self.parallelism);
            let start = t.now();
            let report = cluster.run(&job.workload, spec.strategy, spec.batch)?;
            span(t, "pim-cluster.run", start, 1);
            counts.sim_ns += report.combined.total_ns();
            counts.link_rows +=
                report.interconnect.counters.reads + report.interconnect.counters.writes;
            return Ok(());
        }
        let parallelism = self.parallelism;
        // Jobs here carry no config override, so the kind names the
        // platform, as the runtime's pool key does.
        let platform = match self.platforms.entry(job.platform) {
            Entry::Occupied(p) => p.into_mut(),
            Entry::Vacant(slot) => slot.insert(job.build_platform()?.with_parallelism(parallelism)),
        };
        let Some(cfg) = platform.lowering_config() else {
            let start = t.now();
            let workload = Workload::from_spec(&job.workload);
            span(t, "pim-workloads.from_spec", start, 1);
            let start = t.now();
            let report = platform.run_with_schedule(&workload, None)?;
            span(t, "pim-baselines.run_with_schedule", start, 1);
            counts.sim_ns += report.total_ns();
            return Ok(());
        };
        let schedule = match self
            .schedules
            .entry(ScheduleCache::key(&cfg, &job.workload))
        {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(slot) => {
                let start = t.now();
                let task = job.workload.shape_task();
                span(t, "pim-workloads.shape_task", start, 1);
                let start = t.now();
                let schedule = task.lower(&StreamPim::new(cfg.clone())?)?;
                span(t, "pim-device.lower", start, 1);
                slot.insert(schedule)
            }
        };
        if platform.parallelism().is_none() {
            // The closed-form PIM baselines price the cached schedule
            // against the materialized workload.
            let start = t.now();
            let workload = Workload::from_spec(&job.workload);
            span(t, "pim-workloads.from_spec", start, 1);
            let start = t.now();
            let report = platform.run_with_schedule(&workload, Some(schedule))?;
            span(t, "pim-baselines.run_with_schedule", start, 1);
            counts.sim_ns += report.total_ns();
            return Ok(());
        }
        let rows = schedule_rows(schedule);
        let table = self
            .tables
            .entry(ScheduleCache::shape_key(&cfg, &job.workload))
            .or_default();
        let warm = !table.is_empty();
        let device = StreamPim::new(cfg)?.with_parallelism(parallelism);
        let start = t.now();
        let (report, fresh) = device.execute_repriced(schedule, table);
        span(
            t,
            if warm {
                "pim-device.execute_repriced"
            } else {
                "pim-device.execute_repriced_cold"
            },
            start,
            rows,
        );
        self.fresh_rows += fresh;
        self.repriced_rows += rows;
        let start = t.now();
        device.execute(schedule);
        t.record(
            "pim-device.execute",
            start,
            Some(parent),
            op,
            Role::Probe,
            rows,
        );
        counts.streampim_jobs += 1;
        counts.rows += rows;
        counts.sim_ns += report.total_ns();
        Ok(())
    }
}

/// A runtime workload: the runtime, its op stream, and the results kept
/// for the output check.
pub struct RuntimeBench {
    runtime: Runtime,
    /// Op `i` runs `ops(i)`; the warm-up op is `warmup`.
    ops: Box<dyn Fn(u64) -> Vec<Job>>,
    warmup: Vec<Job>,
    next_op: u64,
    results: Vec<(Vec<Job>, BatchResult)>,
    replay: Option<Replay>,
    traced_ops: Vec<SpanId>,
    metrics_before: Option<pim_runtime::MetricsSnapshot>,
    metrics_after: Option<pim_runtime::MetricsSnapshot>,
}

impl RuntimeBench {
    /// Builds the runtime and runs the untimed warm-up op.
    pub fn new(
        config: RuntimeConfig,
        warmup: Vec<Job>,
        ops: Box<dyn Fn(u64) -> Vec<Job>>,
    ) -> Result<RuntimeBench, String> {
        let runtime = Runtime::new(config);
        let batch = runtime.run_batch(&warmup);
        if batch.failed() > 0 {
            return Err(format!("warm-up op failed: {:?}", batch.outcomes));
        }
        Ok(RuntimeBench {
            runtime,
            ops,
            warmup,
            next_op: 0,
            results: Vec::new(),
            replay: None,
            traced_ops: Vec::new(),
            metrics_before: None,
            metrics_after: None,
        })
    }

    pub fn run_phase(
        &mut self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        if let Some(t) = tracer.as_deref_mut() {
            // Prime the replay caches the way the warm-up op primed the
            // runtime's, so replayed hits and misses match the runtime's.
            let mut replay = Replay::new(self.runtime.intra_budget());
            let root = t.record("warmup", t.now(), None, u64::MAX, Role::Probe, 1);
            replay.op(&self.warmup, t, u64::MAX, root)?;
            replay.counts.clear();
            self.replay = Some(replay);
            self.metrics_before = Some(self.runtime.metrics());
        }
        let mut replay_error = None;
        let phase = closed_loop(seconds, |_| {
            let op = self.next_op;
            self.next_op += 1;
            let jobs = (self.ops)(op);
            let span_start = tracer.as_deref().map(Tracer::now);
            let started = Instant::now();
            let batch = self.runtime.run_batch(&jobs);
            let latency = started.elapsed();
            let ok = batch.failed() == 0;
            if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
                let id = t.record(
                    "pim-runtime.run_batch",
                    start,
                    None,
                    op,
                    Role::Op,
                    jobs.len() as u64,
                );
                self.traced_ops.push(id);
                let replay = self.replay.as_mut().expect("replay primed");
                if let Err(e) = replay.op(&jobs, t, op, id) {
                    replay_error.get_or_insert(e);
                }
            }
            self.results.push((jobs, batch));
            (ok, latency)
        });
        if let Some(e) = replay_error {
            return Err(e);
        }
        if tracer.is_some() {
            self.metrics_after = Some(self.runtime.metrics());
        }
        Ok(phase)
    }

    /// Every job's report, repeats included, must equal bit for bit a
    /// direct uncached `Platform::run` (or `Cluster::run`) of the same job,
    /// run once per distinct job.
    pub fn check(&mut self) -> Check {
        let mut check = Check::default();
        let mut reference: HashMap<String, Result<u64, String>> = HashMap::new();
        for (jobs, batch) in std::mem::take(&mut self.results) {
            let failures = check.failures.len();
            for (job, outcome) in jobs.iter().zip(&batch.outcomes) {
                check.checked += 1;
                let got = match &outcome.report {
                    Ok(report) => Digest::of(report),
                    Err(e) => {
                        check.note(format!("{} failed: {e}", job.name));
                        continue;
                    }
                };
                let key = serde_json::to_string(job).expect("jobs serialize");
                let want = reference
                    .entry(key)
                    .or_insert_with(|| direct_run(job).map(|r| Digest::of(&r)));
                match want {
                    Ok(want) if *want == got => {}
                    Ok(_) => check.note(format!("{}: report differs from a direct run", job.name)),
                    Err(e) => check.note(format!("{}: direct run failed: {e}", job.name)),
                }
            }
            check.failed_ops += u64::from(check.failures.len() > failures);
        }
        check.distinct = reference.len() as u64;
        check
    }

    /// Per-layer metrics of the traced phase.
    pub fn layers(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let replay = self.replay.as_ref().expect("traced phase ran");
        let before = self.metrics_before.as_ref().expect("traced phase ran");
        let after = self.metrics_after.as_ref().expect("traced phase ran");
        let counted = &replay.counts[..replay.counts.len().min(COUNT_OPS)];
        let sum = |f: fn(&OpCounts) -> f64| counted.iter().map(f).sum::<f64>();
        let per_op = |f: fn(&OpCounts) -> f64| stats::ratio(sum(f), counted.len() as f64);
        let hits = (after.cache_hits - before.cache_hits) as f64;
        let probes = hits + (after.cache_misses - before.cache_misses) as f64;
        let near = (after.cache_near_hits - before.cache_near_hits) as f64;
        let ms = |name| stats::median(&t.durations(name, 1e6));
        let us = |name| stats::median(&t.durations(name, 1e3));
        let self_ms: Vec<f64> = self
            .traced_ops
            .iter()
            .map(|&id| t.self_ns(id) / 1e6)
            .collect();
        vec![
            ("pim-runtime.batch_ms", ms("pim-runtime.run_batch")),
            ("pim-runtime.self_ms", stats::median(&self_ms)),
            ("pim-runtime.cache_hit_share", stats::ratio(hits, probes)),
            ("pim-runtime.near_hit_share", stats::ratio(near, probes)),
            (
                "pim-runtime.cache_entries",
                self.runtime.cache().len() as f64,
            ),
            ("pim-device.lower_us", us("pim-device.lower")),
            (
                "pim-device.schedule_rows",
                stats::ratio(sum(|c| c.rows as f64), sum(|c| c.streampim_jobs as f64)),
            ),
            (
                "pim-device.price_ns_per_row",
                stats::median(&t.per_work("pim-device.execute")),
            ),
            (
                "pim-device.reprice_ns_per_row",
                stats::median(&t.per_work("pim-device.execute_repriced")),
            ),
            (
                "pim-device.reprice_fresh_share",
                stats::ratio(replay.fresh_rows as f64, replay.repriced_rows as f64),
            ),
            ("pim-device.sim_ns_per_op", per_op(|c| c.sim_ns)),
            (
                "pim-workloads.shape_task_us",
                us("pim-workloads.shape_task"),
            ),
            (
                "pim-workloads.materialize_us",
                us("pim-workloads.from_spec"),
            ),
            (
                "pim-baselines.run_us",
                us("pim-baselines.run_with_schedule"),
            ),
            ("pim-cluster.run_ms", ms("pim-cluster.run")),
            (
                "pim-cluster.link_rows_per_op",
                per_op(|c| c.link_rows as f64),
            ),
        ]
    }
}

/// The job priced directly, with no runtime, cache or memo in between.
fn direct_run(job: &Job) -> Result<ExecReport, String> {
    if let Some(spec) = job.cluster.filter(|s| s.devices != 1 || s.batch != 1) {
        let cluster = Cluster::paper_default(spec.devices).map_err(|e| e.to_string())?;
        return cluster
            .run(&job.workload, spec.strategy, spec.batch)
            .map(|r| r.combined)
            .map_err(|e| e.to_string());
    }
    let platform = job.build_platform().map_err(|e| e.to_string())?;
    platform
        .run(&Workload::from_spec(&job.workload))
        .map_err(|e| e.to_string())
}
