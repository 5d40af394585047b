//! The [`Cluster`]: N devices, one lane each, reduced in device order.

use crate::interconnect::{price_collective, InterconnectReport, LinkLoad};
use crate::partition::{data_shards, pipeline_stages};
use crate::topology::ClusterConfig;
use pim_baselines::{add_pim_static_power, PIM_STATIC_W};
use pim_device::{ExecReport, Parallelism, PimError, Result, StreamPim};
use pim_trace::{Collector, Event, Span, TraceSink};
use pim_workloads::dnn::{matmul_task, MatMulShape};
use pim_workloads::spec::WorkloadSpec;
use rm_core::shard::{run_sharded, BufferProbe};
use rm_core::{EnergyBreakdown, OpCounters, Probe, ProbeSample, TimeBreakdown};
use serde::{Deserialize, Serialize};

/// How a workload is split across the cluster's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Row-shard every matmul across all devices; operands broadcast over
    /// the links, row partials gather back (the all-reduce of disjoint row
    /// blocks). Best for batched throughput: every device works on every
    /// layer.
    Data,
    /// Cut the layer list into contiguous flop-balanced stages, one per
    /// device; activations cross the links between stages and batches
    /// amortize the pipeline fill against the bottleneck stage.
    Pipeline,
}

/// The job-level cluster request: how many devices, split how, over how
/// many batch items. This is what travels in runtime jobs and HTTP
/// submissions; the serving layer validates it at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Simulated devices to spread the job over (1 ..= [`crate::MAX_DEVICES`]).
    pub devices: u32,
    /// Partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Identical batch items priced in one run (≥ 1).
    pub batch: u32,
}

impl ClusterSpec {
    /// A data-parallel spec over `devices` devices, batch 1.
    pub fn data(devices: u32) -> Self {
        ClusterSpec {
            devices,
            strategy: PartitionStrategy::Data,
            batch: 1,
        }
    }

    /// A pipeline-parallel spec over `devices` devices, batch 1.
    pub fn pipeline(devices: u32) -> Self {
        ClusterSpec {
            devices,
            strategy: PartitionStrategy::Pipeline,
            batch: 1,
        }
    }

    /// Sets the batch size (builder style).
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// Checks the spec is admissible.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for zero devices/batch or more devices
    /// than [`crate::MAX_DEVICES`].
    pub fn validate(&self) -> Result<()> {
        if self.devices == 0 || self.devices > crate::MAX_DEVICES {
            return Err(PimError::Config(format!(
                "cluster spec asks for {} devices (allowed 1..={})",
                self.devices,
                crate::MAX_DEVICES
            )));
        }
        if self.batch == 0 {
            return Err(PimError::Config("cluster batch must be at least 1".into()));
        }
        Ok(())
    }
}

/// The result of one cluster run.
///
/// `combined` is the headline report: makespan time (critical device plus
/// link transfers, or the pipeline fill/steady composition), with energy
/// and counters summed over every device and the interconnect. The
/// conservation contract — what the determinism suite asserts bit-for-bit:
///
/// * `combined.energy`/`counters`/`vpc` equal the device-order fold of
///   `per_device` plus `interconnect` (data **and** pipeline modes);
/// * in data mode, `combined.time` equals
///   `per_device[critical_device].time + interconnect.time` exactly;
/// * in pipeline mode `combined.time` is a makespan (fill + steady), so it
///   is *less* than the occupancy sum by design.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterReport {
    /// The cluster-level report (what callers price against).
    pub combined: ExecReport,
    /// Per-device totals over the whole batch, including each device's
    /// static power; index = device.
    pub per_device: Vec<ExecReport>,
    /// Link transfers, over the whole batch.
    pub interconnect: InterconnectReport,
    /// The device whose compute bounded the makespan (first of ties).
    pub critical_device: u32,
}

impl ClusterReport {
    /// Total simulated time, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.combined.total_ns()
    }

    /// Total energy, picojoules.
    pub fn total_pj(&self) -> f64 {
        self.combined.total_pj()
    }
}

/// What one device lane sends back to the coordinator: its engine report
/// plus buffered instruments, replayed in device order afterwards.
struct LaneOutput {
    report: ExecReport,
    spans: Vec<Span>,
    events: Vec<Event>,
    probes: Vec<(String, ProbeSample)>,
}

/// The lanes of one run: one output per distinct shard, and for each
/// device the index of its shard's output.
struct Lanes {
    outputs: Vec<LaneOutput>,
    of_device: Vec<usize>,
}

impl Lanes {
    /// Every device's output, in device order (equal shards share one).
    fn iter(&self) -> impl Iterator<Item = &LaneOutput> {
        self.of_device.iter().map(|&i| &self.outputs[i])
    }
}

/// A cluster of N identical StreamPIM devices (see the crate docs for the
/// execution model and determinism contract).
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    parallelism: Parallelism,
}

impl Cluster {
    /// Validates `config` and builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for invalid topology, interconnect, or
    /// device configuration.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        config.validate()?;
        // Surface device-config errors at construction, not per lane.
        StreamPim::new(config.device.clone())?;
        Ok(Cluster {
            config,
            parallelism: Parallelism::Auto,
        })
    }

    /// The paper-default cluster of `n` devices.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] when `n` exceeds [`crate::MAX_DEVICES`].
    pub fn paper_default(n: u32) -> Result<Self> {
        Cluster::new(ClusterConfig::paper_default(n))
    }

    /// Variant with a different host-thread budget for the device lanes.
    /// Results are byte-identical at every level (the determinism
    /// contract); only host wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of simulated devices.
    pub fn devices(&self) -> u32 {
        self.config.topology.devices
    }

    /// Prices `workload` across the cluster (no instruments).
    ///
    /// # Errors
    ///
    /// See [`Cluster::run_instrumented`].
    pub fn run(
        &self,
        workload: &WorkloadSpec,
        strategy: PartitionStrategy,
        batch: u32,
    ) -> Result<ClusterReport> {
        self.run_instrumented(
            workload,
            strategy,
            batch,
            &pim_trace::NullSink,
            &rm_core::NullProbe,
        )
    }

    /// Prices `workload` across the cluster with tracing and profiling
    /// attached. Device spans are re-emitted to `sink` tagged with a
    /// `device` argument; engine attribution lands on `probe` under
    /// `cluster/device[d]/...`, link transfers under
    /// `cluster/interconnect/link[d]`, and per-device static power under
    /// `cluster/device[d]/peripherals`. A single-device cluster at batch 1
    /// routes through the exact single-device code path (unprefixed engine
    /// paths, `device/peripherals` static sample) and its report is
    /// byte-identical to `Platform::run_instrumented` on the same device
    /// configuration.
    ///
    /// The devices are identical, so equal shards are equal lanes: each
    /// distinct shard is lowered and priced once, one round at a time, and
    /// every device holding it replays that lane's output.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for a zero batch or for partitioning a
    /// workload with no matmul list (polybench) across several devices;
    /// propagates lowering errors from the device.
    pub fn run_instrumented(
        &self,
        workload: &WorkloadSpec,
        strategy: PartitionStrategy,
        batch: u32,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
    ) -> Result<ClusterReport> {
        if batch == 0 {
            return Err(PimError::Config("cluster batch must be at least 1".into()));
        }
        if self.devices() == 1 {
            return self.run_single(workload, batch, sink, probe);
        }
        let shapes = matmul_shapes(workload)?;
        match strategy {
            PartitionStrategy::Data => self.run_data(&shapes, batch, sink, probe),
            PartitionStrategy::Pipeline => self.run_pipeline(&shapes, batch, sink, probe),
        }
    }

    /// The `n = 1` path: exactly the single-device platform sequence (the
    /// streamed [`ShapeTask::price_instrumented`] pass, then static
    /// power), so reports, spans and probe samples are byte-identical to
    /// it. Batch replication scales the finished report and records the
    /// residual under `cluster/batch_replication` so attribution still
    /// conserves.
    ///
    /// [`ShapeTask::price_instrumented`]: pim_device::ShapeTask::price_instrumented
    fn run_single(
        &self,
        workload: &WorkloadSpec,
        batch: u32,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
    ) -> Result<ClusterReport> {
        let device = StreamPim::new(self.config.device.clone())?;
        let mut report = workload
            .shape_task()
            .price_instrumented(&device, sink, probe)?;
        add_pim_static_power(&mut report, probe);
        if batch > 1 {
            let residual = scale_report(&report, u64::from(batch) - 1);
            record_replication(probe, &residual);
            report = scale_report(&report, u64::from(batch));
        }
        Ok(ClusterReport {
            per_device: vec![report.clone()],
            interconnect: InterconnectReport {
                links: vec![crate::interconnect::LinkStat::default()],
                ..InterconnectReport::default()
            },
            combined: report,
            critical_device: 0,
        })
    }

    /// Data-parallel execution: row shards on every device, operand
    /// broadcast + partial gather on the links, makespan = critical device
    /// plus the collectives, everything × batch.
    fn run_data(
        &self,
        shapes: &[MatMulShape],
        batch: u32,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
    ) -> Result<ClusterReport> {
        let n = self.devices() as usize;
        let shards = data_shards(shapes, n);
        let lanes = self.run_lanes(&shards, sink.enabled(), probe.enabled())?;

        // Link loads of one batch item: each device receives its A row
        // block plus the full (broadcast) B of every layer it computes, and
        // sends back its C row block.
        let elem = u64::from(self.config.device.device.word_bits.div_ceil(8).max(1));
        let loads: Vec<LinkLoad> = shards
            .iter()
            .map(|shard| {
                let mut load = LinkLoad::default();
                for s in shard {
                    load.bytes_in += (s.m * s.k + s.k * s.n) as u64 * elem;
                    load.bytes_out += (s.m * s.n) as u64 * elem;
                }
                load
            })
            .collect();
        let interconnect = price_collective(
            &self.config.topology,
            &self.config.interconnect,
            self.config.device.device.word_bits,
            &loads,
        )
        .scaled(u64::from(batch));

        // Scale per-device engine reports to the whole batch, find the
        // critical device, and compose the makespan: critical compute plus
        // the (serialized) collectives.
        let per_item: Vec<ExecReport> = lanes.iter().map(|l| l.report.clone()).collect();
        let mut per_device: Vec<ExecReport> = per_item
            .iter()
            .map(|r| scale_report(r, u64::from(batch)))
            .collect();
        let critical_device = argmax_time(&per_device);
        let mut combined_time = per_device[critical_device as usize].time;
        combined_time += interconnect.time;

        self.finish(
            per_item,
            &mut per_device,
            combined_time,
            interconnect,
            critical_device,
            batch,
            sink,
            probe,
            &lanes,
        )
    }

    /// Pipeline-parallel execution: one contiguous stage per device, a
    /// one-time weight load, per-item activation transfers, makespan =
    /// fill + (batch-1) × steady-state bottleneck.
    fn run_pipeline(
        &self,
        shapes: &[MatMulShape],
        batch: u32,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
    ) -> Result<ClusterReport> {
        let n = self.devices() as usize;
        let stages = pipeline_stages(shapes, n);
        let lanes = self.run_lanes(&stages, sink.enabled(), probe.enabled())?;
        let elem = u64::from(self.config.device.device.word_bits.div_ceil(8).max(1));

        // One-time weight load: every stage receives its layers' weights.
        let weight_loads: Vec<LinkLoad> = stages
            .iter()
            .map(|stage| LinkLoad {
                bytes_in: stage.iter().map(|s| (s.m * s.k) as u64 * elem).sum(),
                bytes_out: 0,
            })
            .collect();
        // Per-item activations: each active stage receives its first
        // layer's input activation; the last active stage returns its
        // output.
        let mut act_loads = vec![LinkLoad::default(); n];
        for (d, stage) in stages.iter().enumerate() {
            if let Some(first) = stage.first() {
                act_loads[d].bytes_in = (first.k * first.n) as u64 * elem;
            }
        }
        if let Some((last_dev, last)) = stages
            .iter()
            .enumerate()
            .rev()
            .find_map(|(d, s)| s.last().map(|l| (d, *l)))
        {
            act_loads[last_dev].bytes_out = (last.m * last.n) as u64 * elem;
        }
        let word_bits = self.config.device.device.word_bits;
        let weights = price_collective(
            &self.config.topology,
            &self.config.interconnect,
            word_bits,
            &weight_loads,
        );
        let act = price_collective(
            &self.config.topology,
            &self.config.interconnect,
            word_bits,
            &act_loads,
        );
        let mut interconnect = weights.clone();
        interconnect.absorb(&act.scaled(u64::from(batch)));

        // Makespan: weights, then one item traverses every stage and its
        // transfers (fill), then each further item is bounded by the
        // slower of the bottleneck stage and the activation transfers.
        let per_item: Vec<ExecReport> = lanes.iter().map(|l| l.report.clone()).collect();
        let critical_device = argmax_time(&per_item);
        let mut combined_time = weights.time;
        for r in &per_item {
            combined_time += r.time;
        }
        combined_time += act.time;
        let bottleneck = &per_item[critical_device as usize];
        let steady = if bottleneck.total_ns() >= act.total_ns() {
            bottleneck.time
        } else {
            act.time
        };
        combined_time += steady.scaled(f64::from(batch - 1));

        // Every item runs every stage: per-device totals scale × batch.
        let mut per_device: Vec<ExecReport> = per_item
            .iter()
            .map(|r| scale_report(r, u64::from(batch)))
            .collect();

        self.finish(
            per_item,
            &mut per_device,
            combined_time,
            interconnect,
            critical_device,
            batch,
            sink,
            probe,
            &lanes,
        )
    }

    /// Runs one lane per distinct shard on scoped threads (clamped by the
    /// cluster's parallelism) and maps every device to its shard's lane.
    /// A lane lowers and prices its shard in one streamed pass, so it holds
    /// one round, never the shard's schedule. Instruments are buffered per
    /// lane and replayed later by `finish`.
    fn run_lanes(&self, shards: &[Vec<MatMulShape>], traced: bool, probed: bool) -> Result<Lanes> {
        // Distinct shards in order of first appearance (a cluster has at
        // most `MAX_DEVICES` shards, so a linear scan is enough).
        let mut distinct: Vec<&[MatMulShape]> = Vec::new();
        let of_device = shards
            .iter()
            .map(|shard| {
                distinct
                    .iter()
                    .position(|seen| *seen == shard.as_slice())
                    .unwrap_or_else(|| {
                        distinct.push(shard);
                        distinct.len() - 1
                    })
            })
            .collect();
        let workers = self.parallelism.resolve_here().min(distinct.len().max(1));
        let config = &self.config.device;
        let outputs = run_sharded(&mut distinct, workers, |_, shard| -> Result<LaneOutput> {
            if shard.is_empty() {
                return Ok(LaneOutput {
                    report: ExecReport::default(),
                    spans: Vec::new(),
                    events: Vec::new(),
                    probes: Vec::new(),
                });
            }
            // Each lane prices serially: the cluster's thread budget is
            // spent one lane per distinct shard, not nested inside the
            // engine.
            let device = StreamPim::new(config.clone())?.with_parallelism(Parallelism::Serial);
            let collector = Collector::new();
            let buffer = BufferProbe::new();
            let lane_sink: &dyn TraceSink = if traced {
                &collector
            } else {
                &pim_trace::NullSink
            };
            let lane_probe: &dyn Probe = if probed { &buffer } else { &rm_core::NullProbe };
            let report = matmul_task(shard).price_instrumented(&device, lane_sink, lane_probe)?;
            Ok(LaneOutput {
                report,
                spans: collector.spans(),
                events: collector.events(),
                probes: buffer.take(),
            })
        });
        Ok(Lanes {
            outputs: outputs.into_iter().collect::<Result<_>>()?,
            of_device,
        })
    }

    /// The fixed-device-order reduction shared by both strategies: charges
    /// static power, folds `per_device` + `interconnect` into the combined
    /// report, and replays buffered instruments. Every accumulation runs on
    /// this (the coordinating) thread in ascending device order, which is
    /// what makes the output byte-identical at any worker count.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        per_item: Vec<ExecReport>,
        per_device: &mut [ExecReport],
        combined_time: TimeBreakdown,
        interconnect: InterconnectReport,
        critical_device: u32,
        batch: u32,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
        lanes: &Lanes,
    ) -> Result<ClusterReport> {
        // Static power: every device's peripherals stay powered for the
        // whole cluster window (same formula as the single-device path).
        let window_ns = combined_time.total_ns();
        let static_pj = window_ns * PIM_STATIC_W * 1000.0;
        for r in per_device.iter_mut() {
            r.energy.other_pj += static_pj;
        }

        let mut combined = ExecReport::default();
        for r in per_device.iter() {
            combined.absorb(r);
        }
        combined.time = combined_time;
        combined.energy += interconnect.energy;
        combined.counters += interconnect.counters;

        if sink.enabled() {
            for (d, lane) in lanes.iter().enumerate() {
                for span in &lane.spans {
                    sink.record_span(span.clone().arg("device", d));
                }
                for event in &lane.events {
                    sink.record_instant(event.clone().arg("device", d));
                }
            }
        }
        if probe.enabled() {
            // Engine attribution (one batch item), prefixed per device.
            let mut engine_total = ExecReport::default();
            for (d, lane) in lanes.iter().enumerate() {
                for (path, sample) in &lane.probes {
                    probe.record(&format!("cluster/device[{d}]/{path}"), *sample);
                }
                engine_total.absorb(&per_item[d]);
            }
            if batch > 1 {
                record_replication(probe, &scale_report(&engine_total, u64::from(batch) - 1));
            }
            for (d, link) in interconnect.links.iter().enumerate() {
                if link.load.total() == 0 {
                    continue;
                }
                probe.record(
                    &format!("cluster/interconnect/link[{d}]"),
                    ProbeSample {
                        ops: OpCounters {
                            reads: link.reads,
                            writes: link.writes,
                            ..OpCounters::default()
                        },
                        energy: EnergyBreakdown {
                            read_pj: link.load.bytes_out as f64
                                * self.config.interconnect.pj_per_byte,
                            write_pj: link.load.bytes_in as f64
                                * self.config.interconnect.pj_per_byte,
                            ..EnergyBreakdown::default()
                        },
                        busy_ns: link.busy_ns,
                    },
                );
            }
            for d in 0..per_device.len() {
                probe.record(
                    &format!("cluster/device[{d}]/peripherals"),
                    ProbeSample::energy(EnergyBreakdown {
                        other_pj: static_pj,
                        ..EnergyBreakdown::default()
                    }),
                );
            }
        }

        Ok(ClusterReport {
            combined,
            per_device: per_device.to_vec(),
            interconnect,
            critical_device,
        })
    }
}

/// The matmul list a partitioner needs, or an error for workloads without
/// one.
fn matmul_shapes(workload: &WorkloadSpec) -> Result<Vec<MatMulShape>> {
    match workload {
        WorkloadSpec::MatMul { m, k, n } => Ok(vec![MatMulShape {
            m: *m,
            k: *k,
            n: *n,
        }]),
        WorkloadSpec::Dnn { model } => Ok(model.model().matmuls),
        WorkloadSpec::Polybench { .. } => Err(PimError::Config(format!(
            "workload '{}' has no matmul partitioning; run polybench kernels on a single device",
            workload.name()
        ))),
    }
}

/// Replicates a report `k` times (identical batch items).
fn scale_report(r: &ExecReport, k: u64) -> ExecReport {
    let kf = k as f64;
    let mut out = r.clone();
    out.time = r.time.scaled(kf);
    out.energy = r.energy * kf;
    out.counters = r.counters.scaled(k);
    out.vpc.pim = r.vpc.pim * k;
    out.vpc.moves = r.vpc.moves * k;
    out
}

/// Index of the report with the largest total time (first of ties).
fn argmax_time(reports: &[ExecReport]) -> u32 {
    let mut best = 0;
    for (i, r) in reports.iter().enumerate() {
        if r.total_ns() > reports[best].total_ns() {
            best = i;
        }
    }
    best as u32
}

/// Records the batch-replication residual so an attribution tree fed by
/// the probe still sums to the combined report.
fn record_replication(probe: &dyn Probe, residual: &ExecReport) {
    if probe.enabled() {
        probe.record(
            "cluster/batch_replication",
            ProbeSample {
                ops: residual.counters,
                energy: residual.energy,
                busy_ns: residual.time.total_ns(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_baselines::Platform;
    use pim_device::StreamPimConfig;

    fn gemm() -> WorkloadSpec {
        WorkloadSpec::MatMul {
            m: 128,
            k: 64,
            n: 32,
        }
    }

    #[test]
    fn single_device_cluster_matches_platform_bytes() {
        let cluster = Cluster::paper_default(1).unwrap();
        let report = cluster
            .run(&gemm(), PartitionStrategy::Data, 1)
            .unwrap()
            .combined;
        let platform = Platform::stream_pim(StreamPimConfig::paper_default()).unwrap();
        let workload = pim_baselines::Workload::from_spec(&gemm());
        let reference = platform.run(&workload).unwrap();
        assert_eq!(report, reference, "n=1 must be byte-identical");
    }

    #[test]
    fn data_parallel_conserves_energy_and_counters() {
        let cluster = Cluster::paper_default(4).unwrap();
        let r = cluster.run(&gemm(), PartitionStrategy::Data, 3).unwrap();
        let mut fold = ExecReport::default();
        for d in &r.per_device {
            fold.absorb(d);
        }
        fold.energy += r.interconnect.energy;
        fold.counters += r.interconnect.counters;
        assert_eq!(fold.energy, r.combined.energy, "energy conserves exactly");
        assert_eq!(fold.counters, r.combined.counters);
        assert_eq!(fold.vpc, r.combined.vpc);
        // Makespan composition is exact too.
        let expected_time = r.per_device[r.critical_device as usize].time + r.interconnect.time;
        assert_eq!(r.combined.time, expected_time);
    }

    #[test]
    fn data_parallel_beats_single_device_on_batched_gemm() {
        // Tall gemm: row-sharding wins when the broadcast operand (k x n)
        // is small next to the sharded rows. Small/square shapes scale
        // worse — every device still prices the full B distribution.
        let tall = WorkloadSpec::MatMul {
            m: 8192,
            k: 128,
            n: 128,
        };
        let one = Cluster::paper_default(1).unwrap();
        let four = Cluster::paper_default(4).unwrap();
        let batch = 8;
        let t1 = one
            .run(&tall, PartitionStrategy::Data, batch)
            .unwrap()
            .total_ns();
        let t4 = four
            .run(&tall, PartitionStrategy::Data, batch)
            .unwrap()
            .total_ns();
        assert!(
            t1 / t4 >= 3.0,
            "expected ≥3x at 4 devices, got {:.2}x",
            t1 / t4
        );
    }

    #[test]
    fn pipeline_conserves_energy_and_beats_fill_only() {
        let cluster = Cluster::paper_default(4).unwrap();
        let mlp = WorkloadSpec::dnn(pim_workloads::spec::DnnKind::Mlp);
        let b1 = cluster.run(&mlp, PartitionStrategy::Pipeline, 1).unwrap();
        let b8 = cluster.run(&mlp, PartitionStrategy::Pipeline, 8).unwrap();
        // Steady-state items cost at most one stage each: 8 items take far
        // less than 8 fills.
        assert!(b8.total_ns() < 8.0 * b1.total_ns());
        assert!(b8.total_ns() > b1.total_ns());
        let mut fold = ExecReport::default();
        for d in &b8.per_device {
            fold.absorb(d);
        }
        fold.energy += b8.interconnect.energy;
        fold.counters += b8.interconnect.counters;
        assert_eq!(fold.energy, b8.combined.energy);
        assert_eq!(fold.counters, b8.combined.counters);
    }

    #[test]
    fn polybench_refuses_multi_device_partitioning() {
        let cluster = Cluster::paper_default(2).unwrap();
        let spec = WorkloadSpec::polybench(pim_workloads::polybench::Kernel::Gemm, 0.02);
        let err = cluster.run(&spec, PartitionStrategy::Data, 1).unwrap_err();
        assert!(matches!(err, PimError::Config(_)));
        // ... but runs fine on a single-device cluster.
        let one = Cluster::paper_default(1).unwrap();
        assert!(one.run(&spec, PartitionStrategy::Data, 1).is_ok());
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        let base = Cluster::paper_default(4)
            .unwrap()
            .with_parallelism(Parallelism::Serial);
        let reference = base.run(&gemm(), PartitionStrategy::Data, 2).unwrap();
        for workers in [2usize, 7, 16] {
            let c = Cluster::paper_default(4)
                .unwrap()
                .with_parallelism(Parallelism::Threads(workers));
            let got = c.run(&gemm(), PartitionStrategy::Data, 2).unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn spec_validation() {
        assert!(ClusterSpec::data(4).with_batch(8).validate().is_ok());
        assert!(ClusterSpec::data(0).validate().is_err());
        assert!(ClusterSpec::data(crate::MAX_DEVICES + 1)
            .validate()
            .is_err());
        assert!(ClusterSpec::pipeline(2).with_batch(0).validate().is_err());
    }
}
