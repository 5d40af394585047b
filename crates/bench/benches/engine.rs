//! Benchmarks of the execution engine and task lowering: how fast the
//! analytic simulator prices work. Lowering and pricing start from shape
//! tasks (`WorkloadSpec::shape_task`), as every runtime job does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_cluster::partition::pipeline_stages;
use pim_device::matrix::Matrix;
use pim_device::task::{MatrixOp, PimTask, ShapeTask};
use pim_device::{OptLevel, StreamPim, StreamPimConfig};
use pim_trace::NullSink;
use pim_workloads::{dnn, DnnKind, WorkloadSpec};
use rm_core::NullProbe;
use std::hint::black_box;

fn matmul_task(n: usize) -> ShapeTask {
    WorkloadSpec::MatMul { m: n, k: n, n }.shape_task()
}

fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_lowering");
    group.sample_size(20);
    for n in [128usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
            let task = matmul_task(n);
            b.iter(|| task.lower(black_box(&device)).unwrap())
        });
    }
    group.finish();
}

/// Pricing one lowered schedule. The `bert` row (242,496 commands in 360
/// rounds) divided by its command count is the per-command pricing cost.
/// The `*_streamed` rows lower and price one round at a time
/// (`ShapeTask::price_instrumented`), as every uncached run and cluster
/// lane does: all of BERT, and the first of its four 90-matmul pipeline
/// stages (60,624 commands), which a 4-device BERT pipeline prices once.
fn bench_pricing(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_pricing");
    group.sample_size(20);
    let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
    let tasks = [
        ("128", matmul_task(128)),
        ("512", matmul_task(512)),
        ("bert", WorkloadSpec::dnn(DnnKind::Bert).shape_task()),
    ];
    for (name, task) in tasks {
        let schedule = task.lower(&device).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &schedule, |b, s| {
            b.iter(|| device.execute(black_box(s)))
        });
    }
    let stage = &pipeline_stages(&DnnKind::Bert.model().matmuls, 4)[0];
    let streamed = [
        (
            "bert_streamed",
            WorkloadSpec::dnn(DnnKind::Bert).shape_task(),
        ),
        ("bert_stage_streamed", dnn::matmul_task(stage)),
    ];
    for (name, task) in streamed {
        group.bench_with_input(BenchmarkId::from_parameter(name), &task, |b, t| {
            b.iter(|| {
                black_box(t)
                    .price_instrumented(&device, &NullSink, &NullProbe)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_opt_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_opt_levels");
    group.sample_size(20);
    for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
        group.bench_with_input(
            BenchmarkId::new("price", format!("{opt:?}")),
            &opt,
            |b, &opt| {
                let device =
                    StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).unwrap();
                let schedule = matmul_task(256).lower(&device).unwrap();
                b.iter(|| device.execute(black_box(&schedule)))
            },
        );
    }
    group.finish();
}

fn bench_functional_run(c: &mut Criterion) {
    c.bench_function("task_functional_run_32", |b| {
        let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
        let a = Matrix::from_fn(32, 32, |i, j| ((i * j) % 13) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&a).unwrap();
        let hc = task.add_output(32, 32).unwrap();
        task.add_operation(MatrixOp::MatMul {
            a: ha,
            b: hb,
            dst: hc,
        })
        .unwrap();
        b.iter(|| task.run(black_box(&device)).unwrap())
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20);
    targets = bench_lowering,
    bench_pricing,
    bench_opt_levels,
    bench_functional_run
}
criterion_main!(engine);
