//! Structured regeneration of every evaluation table and figure.

use pim_baselines::cpu::CpuModel;
use pim_baselines::gpu::GpuModel;
use pim_baselines::platform::{dnn_end_to_end, Platform, PlatformKind, Workload};
use pim_device::area::AreaModel;
use pim_device::engine::EngineParams;
use pim_device::report::ExecReport;
use pim_device::{OptLevel, PimError, StreamPimConfig};
use pim_workloads::dnn::DnnModel;
use pim_workloads::polybench::{Kernel, KernelInstance};
use pim_workloads::trace::{table_iv, TraceRow};
use rm_core::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Problem-size scale for the experiment suite: `1.0` is the paper's full
/// size; smaller factors shrink every dimension proportionally (fast CI
/// runs; trends are preserved).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale(pub f64);

impl Scale {
    /// The paper's full problem sizes.
    pub fn full() -> Self {
        Scale(1.0)
    }

    /// A fast scale for tests (~1/10 linear dimensions).
    pub fn quick() -> Self {
        Scale(0.1)
    }

    /// The kernel instance at this scale (paper-size at exactly 1.0).
    pub fn instance(&self, kernel: Kernel) -> KernelInstance {
        if (self.0 - 1.0).abs() < 1e-12 {
            kernel.paper_instance()
        } else {
            kernel.scaled(self.0)
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::full()
    }
}

/// One row of Figure 3: host-platform breakdown fractions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Kernel name.
    pub kernel: String,
    /// Whether the paper groups it as a small workload.
    pub small: bool,
    /// Exposed-memory fraction of CPU (on RM) execution time (Fig 3a).
    pub cpu_mem_fraction: f64,
    /// Data-transfer fraction of GPU execution time (Fig 3b).
    pub gpu_transfer_fraction: f64,
}

/// Regenerates Figure 3 (CPU/GPU execution-time breakdown).
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let cpu = CpuModel::cpu_rm();
    let gpu = GpuModel::paper_default();
    Kernel::ALL
        .iter()
        .map(|&k| {
            let profile = scale.instance(k).profile();
            Fig3Row {
                kernel: k.name().to_string(),
                small: k.is_small(),
                cpu_mem_fraction: cpu.mem_fraction(&profile),
                gpu_transfer_fraction: gpu.transfer_fraction(&profile),
            }
        })
        .collect()
}

/// One row of Figure 4: CORUSCANT per-operation breakdown shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Operation name (`add`, `mul`, `dot`).
    pub op: String,
    /// Time shares `(read, write, shift, compute)`.
    pub time_shares: [f64; 4],
    /// Energy shares `(read, write, shift, compute)`.
    pub energy_shares: [f64; 4],
}

/// Regenerates Figure 4 (CORUSCANT operation breakdown).
pub fn fig4() -> Vec<Fig4Row> {
    use pim_baselines::coruscant::CoruscantModel;
    use pim_device::schedule::WorkCounts;
    let m = CoruscantModel::paper_default();
    let cases = [
        (
            "add",
            WorkCounts {
                word_muls: 0,
                word_adds: 1_000_000,
                elements_moved: 0,
            },
        ),
        (
            "mul",
            WorkCounts {
                word_muls: 1_000_000,
                word_adds: 0,
                elements_moved: 0,
            },
        ),
        (
            "dot",
            WorkCounts {
                word_muls: 1_000_000,
                word_adds: 1_000_000,
                elements_moved: 0,
            },
        ),
    ];
    cases
        .iter()
        .map(|(name, work)| {
            let r = m.run_work(work);
            let t = r.time.total_ns();
            let e = r.energy.total_pj();
            Fig4Row {
                op: name.to_string(),
                time_shares: [
                    r.time.read_ns / t,
                    r.time.write_ns / t,
                    r.time.shift_ns / t,
                    r.time.process_ns / t,
                ],
                energy_shares: [
                    r.energy.read_pj / e,
                    r.energy.write_pj / e,
                    r.energy.shift_pj / e,
                    r.energy.compute_pj / e,
                ],
            }
        })
        .collect()
}

/// Per-kernel metric values for a set of platforms, plus the average row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricTable {
    /// Platform order of the value columns.
    pub platforms: Vec<String>,
    /// `(kernel, value-per-platform)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Arithmetic mean across kernels per platform.
    pub averages: Vec<f64>,
}

impl MetricTable {
    /// The average value for a platform by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the table's platforms.
    pub fn average_of(&self, name: &str) -> f64 {
        let idx = self
            .platforms
            .iter()
            .position(|p| p == name)
            .unwrap_or_else(|| panic!("platform {name} not in table"));
        self.averages[idx]
    }
}

/// Per-kernel reports for every Figure 17/18 platform.
type PlatformRuns = Vec<(String, Vec<(PlatformKind, ExecReport)>)>;

/// Builds `kind`, optionally overriding the StreamPIM engine parameters
/// (fidelity-gate perturbations; `None` is the paper default).
fn build_platform(kind: PlatformKind, engine: Option<&EngineParams>) -> Result<Platform, PimError> {
    match engine {
        Some(e) => Platform::with_engine_params(kind, e),
        None => Platform::new(kind),
    }
}

/// Applies an optional engine override to a StreamPIM sweep configuration.
fn apply_engine(cfg: StreamPimConfig, engine: Option<&EngineParams>) -> StreamPimConfig {
    match engine {
        Some(e) => cfg.with_engine(*e),
        None => cfg,
    }
}

fn run_all_platforms(
    scale: Scale,
    engine: Option<&EngineParams>,
) -> Result<PlatformRuns, PimError> {
    let platforms: Vec<Platform> = PlatformKind::FIGURE_17
        .iter()
        .map(|&k| build_platform(k, engine))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        let workload = Workload::from_kernel(&scale.instance(kernel));
        let mut row = Vec::new();
        for p in &platforms {
            row.push((p.kind(), p.run(&workload)?));
        }
        out.push((kernel.name().to_string(), row));
    }
    Ok(out)
}

/// Regenerates Figure 17: per-kernel speedup of every platform over CPU-RM.
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig17(scale: Scale, engine: Option<&EngineParams>) -> Result<MetricTable, PimError> {
    let all = run_all_platforms(scale, engine)?;
    metric_table(&all, |reports| {
        let base = reports
            .iter()
            .find(|(k, _)| *k == PlatformKind::CpuRm)
            .expect("CPU-RM present")
            .1
            .total_ns();
        reports.iter().map(|(_, r)| base / r.total_ns()).collect()
    })
}

/// Regenerates Figure 18: per-kernel energy, normalized to StPIM
/// (values > 1 mean "consumes x times more energy than StPIM").
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig18(scale: Scale, engine: Option<&EngineParams>) -> Result<MetricTable, PimError> {
    let all = run_all_platforms(scale, engine)?;
    metric_table(&all, |reports| {
        let stpim = reports
            .iter()
            .find(|(k, _)| *k == PlatformKind::StPim)
            .expect("StPIM present")
            .1
            .total_pj();
        reports.iter().map(|(_, r)| r.total_pj() / stpim).collect()
    })
}

fn metric_table(
    all: &PlatformRuns,
    metric: impl Fn(&[(PlatformKind, ExecReport)]) -> Vec<f64>,
) -> Result<MetricTable, PimError> {
    let platforms: Vec<String> = all[0].1.iter().map(|(k, _)| k.name().to_string()).collect();
    let rows: Vec<(String, Vec<f64>)> = all
        .iter()
        .map(|(name, reports)| (name.clone(), metric(reports)))
        .collect();
    let n = rows.len() as f64;
    let averages = (0..platforms.len())
        .map(|i| rows.iter().map(|(_, v)| v[i]).sum::<f64>() / n)
        .collect();
    Ok(MetricTable {
        platforms,
        rows,
        averages,
    })
}

/// One row of Figures 19/20: a normalized breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Kernel name.
    pub kernel: String,
    /// Platform name.
    pub platform: String,
    /// Shares `(read, write, shift, process, overlapped)` of total time or
    /// energy `(read, write, shift, compute, other)`.
    pub shares: [f64; 5],
}

/// Regenerates Figure 19: execution-time breakdown of CORUSCANT vs StPIM.
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig19(scale: Scale) -> Result<Vec<BreakdownRow>, PimError> {
    breakdown(scale, |r| {
        let t = r.time.total_ns();
        [
            r.time.read_ns / t,
            r.time.write_ns / t,
            r.time.shift_ns / t,
            r.time.process_ns / t,
            r.time.overlapped_ns / t,
        ]
    })
}

/// Regenerates Figure 20: energy breakdown of CORUSCANT vs StPIM.
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig20(scale: Scale) -> Result<Vec<BreakdownRow>, PimError> {
    breakdown(scale, |r| {
        let e = r.energy.total_pj();
        [
            r.energy.read_pj / e,
            r.energy.write_pj / e,
            r.energy.shift_pj / e,
            r.energy.compute_pj / e,
            r.energy.other_pj / e,
        ]
    })
}

fn breakdown(
    scale: Scale,
    shares: impl Fn(&ExecReport) -> [f64; 5],
) -> Result<Vec<BreakdownRow>, PimError> {
    let platforms = [PlatformKind::Coruscant, PlatformKind::StPim];
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let workload = Workload::from_kernel(&scale.instance(kernel));
        for kind in platforms {
            let r = Platform::new(kind)?.run(&workload)?;
            rows.push(BreakdownRow {
                kernel: kernel.name().to_string(),
                platform: kind.name().to_string(),
                shares: shares(&r),
            });
        }
    }
    Ok(rows)
}

/// Regenerates Figure 21: average speedup vs the 128-subarray baseline for
/// 128/256/512/1024 PIM subarrays.
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig21(scale: Scale, engine: Option<&EngineParams>) -> Result<Vec<(u32, f64)>, PimError> {
    let counts = [128u32, 256, 512, 1024];
    // Per-kernel times per count.
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); counts.len()];
    for kernel in Kernel::ALL {
        let workload = Workload::from_kernel(&scale.instance(kernel));
        for (i, &count) in counts.iter().enumerate() {
            let cfg = StreamPimConfig::paper_default().with_pim_subarrays(count);
            let p = Platform::stream_pim(apply_engine(cfg, engine))?;
            totals[i].push(p.run(&workload)?.total_ns());
        }
    }
    // Speedup vs 128, averaged across kernels.
    let n = Kernel::ALL.len();
    Ok(counts
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let avg = (0..n).map(|k| totals[0][k] / totals[i][k]).sum::<f64>() / n as f64;
            (count, avg)
        })
        .collect())
}

/// Regenerates Figure 22: average speedup of each optimization level over
/// `base`.
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig22(
    scale: Scale,
    engine: Option<&EngineParams>,
) -> Result<Vec<(&'static str, f64)>, PimError> {
    let levels = [
        ("base", OptLevel::Base),
        ("distribute", OptLevel::Distribute),
        ("unblock", OptLevel::Unblock),
    ];
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); levels.len()];
    for kernel in Kernel::ALL {
        let workload = Workload::from_kernel(&scale.instance(kernel));
        for (i, &(_, opt)) in levels.iter().enumerate() {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let p = Platform::stream_pim(apply_engine(cfg, engine))?;
            totals[i].push(p.run(&workload)?.total_ns());
        }
    }
    let n = Kernel::ALL.len();
    Ok(levels
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let avg = (0..n).map(|k| totals[0][k] / totals[i][k]).sum::<f64>() / n as f64;
            (name, avg)
        })
        .collect())
}

/// One row of Figure 23: DNN end-to-end speedup vs CPU-DRAM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig23Row {
    /// Model name.
    pub model: String,
    /// Platform name.
    pub platform: String,
    /// Speedup over the CPU-DRAM end-to-end time.
    pub speedup: f64,
}

/// Regenerates Figure 23 (MLP and BERT end-to-end).
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn fig23(engine: Option<&EngineParams>) -> Result<Vec<Fig23Row>, PimError> {
    let platforms = [
        PlatformKind::CpuDram,
        PlatformKind::Coruscant,
        PlatformKind::StPim,
    ];
    let mut rows = Vec::new();
    for model in [DnnModel::mlp(), DnnModel::bert()] {
        let cpu = Platform::new(PlatformKind::CpuDram)?;
        let base = dnn_end_to_end(&cpu, &model)?.total_ns();
        for kind in platforms {
            let p = build_platform(kind, engine)?;
            let t = dnn_end_to_end(&p, &model)?.total_ns();
            rows.push(Fig23Row {
                model: model.name.clone(),
                platform: kind.name().to_string(),
                speedup: base / t,
            });
        }
    }
    Ok(rows)
}

/// Regenerates Table IV (VPC counts per kernel).
pub fn table4() -> Vec<TraceRow> {
    table_iv()
}

/// One row of Table V: bus-segment-size sensitivity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Segment size in domains.
    pub segment: u32,
    /// Average execution-time overhead vs the 1024 baseline, percent.
    pub time_overhead_pct: f64,
    /// Average energy delta vs the 1024 baseline, percent.
    pub energy_delta_pct: f64,
}

/// Regenerates Table V.
///
/// `engine` optionally overrides the StreamPIM engine parameters (`None`
/// runs the paper's).
///
/// # Errors
///
/// Propagates platform configuration/pricing errors.
pub fn table5(scale: Scale, engine: Option<&EngineParams>) -> Result<Vec<Table5Row>, PimError> {
    let segments = [64u32, 256, 512, 1024];
    let mut time: Vec<Vec<f64>> = vec![Vec::new(); segments.len()];
    let mut energy: Vec<Vec<f64>> = vec![Vec::new(); segments.len()];
    for kernel in Kernel::ALL {
        let workload = Workload::from_kernel(&scale.instance(kernel));
        for (i, &seg) in segments.iter().enumerate() {
            let cfg = StreamPimConfig::paper_default().with_segment_domains(seg);
            let r = Platform::stream_pim(apply_engine(cfg, engine))?.run(&workload)?;
            time[i].push(r.total_ns());
            energy[i].push(r.total_pj());
        }
    }
    let n = Kernel::ALL.len();
    let base_idx = segments.len() - 1;
    Ok(segments
        .iter()
        .enumerate()
        .map(|(i, &segment)| {
            let t = (0..n)
                .map(|k| time[i][k] / time[base_idx][k] - 1.0)
                .sum::<f64>()
                / n as f64;
            let e = (0..n)
                .map(|k| energy[i][k] / energy[base_idx][k] - 1.0)
                .sum::<f64>()
                / n as f64;
            Table5Row {
                segment,
                time_overhead_pct: t * 100.0,
                energy_delta_pct: e * 100.0,
            }
        })
        .collect())
}

/// Regenerates the cluster single-device-equivalence metrics: a one-device
/// `pim-cluster` run at batch 1 against the plain single-device platform on
/// the same configuration. The scale-out layer's contract (DESIGN.md §17)
/// is that `Cluster{n:1}` routes through the exact single-device code path,
/// so all three metrics are frozen at exactly `1.0`:
///
/// * `n1_time_ratio` — cluster simulated time over platform simulated time;
/// * `n1_energy_ratio` — cluster energy over platform energy;
/// * `n1_identical` — `1.0` only when the *serialized* reports are
///   byte-equal (strictly stronger than the two ratios).
///
/// `engine` optionally overrides the StreamPIM engine parameters (applied
/// to both sides, so the frozen `1.0` values must hold under perturbation
/// too).
///
/// # Errors
///
/// Propagates platform/cluster configuration and pricing errors.
pub fn cluster_equivalence_with(
    engine: Option<&EngineParams>,
) -> Result<Vec<(&'static str, f64)>, PimError> {
    use pim_cluster::{Cluster, ClusterConfig, PartitionStrategy};
    let workload = pim_workloads::spec::WorkloadSpec::MatMul {
        m: 192,
        k: 96,
        n: 64,
    };
    let device = apply_engine(StreamPimConfig::paper_default(), engine);
    let single = Platform::stream_pim(device.clone())?.run(&Workload::from_spec(&workload))?;
    let mut config = ClusterConfig::paper_default(1);
    config.device = device;
    let clustered = Cluster::new(config)?
        .run(&workload, PartitionStrategy::Data, 1)?
        .combined;
    let identical = serde_json::to_string(&clustered).expect("report serializes")
        == serde_json::to_string(&single).expect("report serializes");
    Ok(vec![
        ("n1_time_ratio", clustered.total_ns() / single.total_ns()),
        ("n1_energy_ratio", clustered.total_pj() / single.total_pj()),
        ("n1_identical", if identical { 1.0 } else { 0.0 }),
    ])
}

/// Regenerates the §V-G area-overhead numbers.
pub fn area() -> AreaModel {
    AreaModel::new(&DeviceConfig::paper_default())
}

/// Regenerates the §V-F fabrication-process energy scaling: per-gate energy
/// at representative nodes.
pub fn fabrication() -> Vec<(u32, f64)> {
    use dw_logic::ProcessNode;
    [1000u32, 180, 90, 65, 45, 32]
        .iter()
        .map(|&nm| (nm, ProcessNode::nm(nm).gate_energy_pj()))
        .collect()
}
