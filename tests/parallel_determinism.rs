//! Cross-layer determinism suite for intra-run parallelism.
//!
//! The contract under test (DESIGN.md §12): a simulated run is a pure
//! function of its inputs, never of the worker count. For every worker
//! count the suite exercises — env-overridable via `STREAMPIM_TEST_WORKERS`
//! (comma-separated, e.g. `STREAMPIM_TEST_WORKERS=1,3,5`) — the analytic
//! engine's `ExecReport`, the profiler's `AttributionTree`, the trace
//! `Analysis`, and the functional `DeviceFlow` results (with injected
//! shift-fault streams) must all be *bit-identical* to the serial run.

use proptest::prelude::*;
use streampim::pim_device::flow::DeviceFlow;
use streampim::pim_device::schedule::{Round, Schedule};
use streampim::pim_device::vpc::{VecRef, Vpc};
use streampim::pim_device::{OptLevel, Parallelism, StreamPim, StreamPimConfig};
use streampim::pim_profile::AttributionProbe;
use streampim::pim_trace::analyze::Analysis;
use streampim::pim_trace::{Collector, NullSink};
use streampim::pim_workloads::polybench::Kernel;
use streampim::pim_workloads::spec::WorkloadSpec;
use streampim::rm_core::NullProbe;

/// Worker counts to test, env-overridable so CI can probe other shapes.
fn worker_counts() -> Vec<usize> {
    std::env::var("STREAMPIM_TEST_WORKERS")
        .ok()
        .map(|raw| {
            raw.split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|counts| !counts.is_empty())
        .unwrap_or_else(|| vec![1, 2, 7, 16])
}

fn lowered(kernel: Kernel, device: &StreamPim) -> Schedule {
    WorkloadSpec::polybench(kernel, 0.02)
        .shape_task()
        .lower(device)
        .expect("kernel lowers")
}

#[test]
fn engine_reports_are_bit_identical_at_any_worker_count() {
    for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
        let device = StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).expect("valid");
        for kernel in [Kernel::Gemm, Kernel::Atax] {
            let schedule = lowered(kernel, &device);
            let baseline = device.execute(&schedule);
            for &workers in &worker_counts() {
                let report = device
                    .clone()
                    .with_parallelism(Parallelism::Threads(workers))
                    .execute(&schedule);
                assert_eq!(report, baseline, "{kernel} {opt:?} x{workers}");
                // PartialEq on f64 is weaker than bit equality (-0.0, NaN);
                // the contract is byte-identical reports.
                assert_eq!(
                    report.total_ns().to_bits(),
                    baseline.total_ns().to_bits(),
                    "{kernel} {opt:?} x{workers} time bits"
                );
                assert_eq!(
                    report.energy.total_pj().to_bits(),
                    baseline.energy.total_pj().to_bits(),
                    "{kernel} {opt:?} x{workers} energy bits"
                );
            }
        }
    }
}

#[test]
fn attribution_trees_are_identical_at_any_worker_count() {
    let device = StreamPim::new(StreamPimConfig::paper_default()).expect("valid");
    let schedule = lowered(Kernel::Gemm, &device);
    let probe = AttributionProbe::new();
    let baseline_report = device.execute_instrumented(&schedule, &NullSink, &probe, None);
    let baseline_tree = probe.into_tree();
    for &workers in &worker_counts() {
        let probe = AttributionProbe::new();
        let report = device
            .clone()
            .with_parallelism(Parallelism::Threads(workers))
            .execute_instrumented(&schedule, &NullSink, &probe, None);
        assert_eq!(report, baseline_report, "report x{workers}");
        assert_eq!(probe.into_tree(), baseline_tree, "tree x{workers}");
    }
}

#[test]
fn trace_analyses_are_identical_at_any_worker_count() {
    let device = StreamPim::new(StreamPimConfig::paper_default()).expect("valid");
    let schedule = lowered(Kernel::Mvt, &device);
    let sink = Collector::new();
    device.execute_instrumented(&schedule, &sink, &NullProbe, None);
    let baseline_spans = sink.spans();
    let baseline = Analysis::of(&baseline_spans);
    for &workers in &worker_counts() {
        let sink = Collector::new();
        device
            .clone()
            .with_parallelism(Parallelism::Threads(workers))
            .execute_instrumented(&schedule, &sink, &NullProbe, None);
        let spans = sink.spans();
        assert_eq!(spans, baseline_spans, "span stream x{workers}");
        assert_eq!(Analysis::of(&spans), baseline, "analysis x{workers}");
    }
}

#[test]
fn functional_device_with_fault_streams_is_identical_at_any_worker_count() {
    let (m, k, n) = (9usize, 7usize, 3usize);
    let a: Vec<u8> = (0..(m * k) as u32).map(|i| (i * 29 % 251) as u8).collect();
    let b: Vec<u8> = (0..(k * n) as u32).map(|i| (i * 53 % 247) as u8).collect();
    let x: Vec<u8> = (0..k as u32).map(|i| (i * 11 + 1) as u8).collect();

    let fresh = || {
        DeviceFlow::new(4)
            .expect("builds")
            .with_fault_model(0.08, 0.04, 0xDECAF)
    };
    let mut serial = fresh();
    let y0 = serial
        .gemv(&a, &x, m, k, Parallelism::Serial)
        .expect("gemv");
    let c0 = serial
        .gemm(&a, &b, m, k, n, Parallelism::Serial)
        .expect("gemm");
    let stats0 = serial.stats();
    assert!(stats0.faults_sampled > 0, "fault streams exercised");

    for &workers in &worker_counts() {
        let mut device = fresh();
        let par = Parallelism::Threads(workers);
        assert_eq!(device.gemv(&a, &x, m, k, par).expect("gemv"), y0);
        assert_eq!(device.gemm(&a, &b, m, k, n, par).expect("gemm"), c0);
        assert_eq!(
            device.stats(),
            stats0,
            "counters and fault tallies x{workers}"
        );
    }
}

/// Telemetry is host-side only (DESIGN.md §14): attaching a trace
/// collector and request-id correlation must leave every report
/// bit-identical to the bare run, at every worker count.
#[test]
fn observed_runs_are_bit_identical_to_unobserved_runs() {
    use std::sync::Arc;
    use streampim::pim_baselines::platform::PlatformKind;
    use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};

    // Device level: tracing into a live collector changes nothing.
    let device = StreamPim::new(StreamPimConfig::paper_default()).expect("valid");
    let schedule = lowered(Kernel::Gemm, &device);
    let bare = device.execute(&schedule);
    for &workers in &worker_counts() {
        let sink = Collector::new();
        let traced = device
            .clone()
            .with_parallelism(Parallelism::Threads(workers))
            .execute_instrumented(&schedule, &sink, &NullProbe, None);
        assert_eq!(traced, bare, "traced report x{workers}");
        assert_eq!(
            traced.total_ns().to_bits(),
            bare.total_ns().to_bits(),
            "traced time bits x{workers}"
        );
        assert!(!sink.spans().is_empty(), "collector really observed");
    }

    // Runtime level: a span sink plus request-id stamping on every job is
    // equally invisible. Fresh runtimes per arm so no cache is shared.
    let jobs = |with_ids: bool| -> Vec<Job> {
        (0..4)
            .map(|i| {
                let job = Job::new(
                    WorkloadSpec::MatMul {
                        m: 12 + 4 * i,
                        k: 12 + 4 * i,
                        n: 12 + 4 * i,
                    },
                    PlatformKind::StPim,
                );
                if with_ids {
                    job.with_request_id(format!("req-{i:08x}"))
                } else {
                    job
                }
            })
            .collect()
    };
    let quiet: Vec<String> = Runtime::new(RuntimeConfig::default())
        .run_batch(&jobs(false))
        .outcomes
        .into_iter()
        .map(|o| serde_json::to_string(&o.report.expect("ok")).unwrap())
        .collect();
    let observed: Vec<String> =
        Runtime::with_sink(RuntimeConfig::default(), Arc::new(Collector::new()))
            .run_batch(&jobs(true))
            .outcomes
            .into_iter()
            .map(|o| serde_json::to_string(&o.report.expect("ok")).unwrap())
            .collect();
    assert_eq!(observed, quiet, "request ids + sink changed a report");
}

/// A schedule shaped like real kernel lowerings, sized by the proptest case.
fn synthetic_schedule(rounds: usize, computes: usize, len: u32, repeat: u64) -> Schedule {
    let mut schedule = Schedule::new();
    for r in 0..rounds {
        let mut round = Round::new();
        round.broadcasts.push(Vpc::Tran {
            src: 600,
            dst: r as u32 % 8,
            len,
        });
        for i in 0..computes {
            let sub = ((r * computes + i) % 512) as u32;
            round.computes.push(Vpc::Mul {
                src1: VecRef::new(sub, len),
                src2: VecRef::new(sub, len),
            });
            round.collects.push(Vpc::Tran {
                src: sub,
                dst: sub.wrapping_add(64),
                len: 1,
            });
        }
        schedule.push(round.repeated(repeat));
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random schedules price bit-identically at random worker counts.
    #[test]
    fn random_schedules_price_identically(
        rounds in 1usize..6,
        computes in 1usize..48,
        len in 1u32..900,
        repeat in 1u64..40,
        workers in 2usize..24,
        opt_pick in 0u8..3,
    ) {
        let opt = [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock][opt_pick as usize];
        let device =
            StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).expect("valid");
        let schedule = synthetic_schedule(rounds, computes, len, repeat);
        let baseline = device.execute(&schedule);
        let report = device
            .clone()
            .with_parallelism(Parallelism::Threads(workers))
            .execute(&schedule);
        prop_assert_eq!(&report, &baseline);
        prop_assert_eq!(report.total_ns().to_bits(), baseline.total_ns().to_bits());
        prop_assert_eq!(
            report.energy.total_pj().to_bits(),
            baseline.energy.total_pj().to_bits()
        );
    }
}
