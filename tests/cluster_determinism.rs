//! Cross-device determinism suite for the `pim-cluster` scale-out layer.
//!
//! Contracts under test (DESIGN.md §17):
//!
//! * a `ClusterReport` is a pure function of (workload, strategy, batch,
//!   device count) — never of the host worker count driving the device
//!   lanes. Every worker shape the suite exercises (env-overridable via
//!   `STREAMPIM_TEST_WORKERS`, same grammar as `parallel_determinism`)
//!   must produce a report *byte-identical* to the serial run;
//! * a one-device cluster at batch 1 is byte-identical to the plain
//!   single-device platform on the same configuration;
//! * the combined report conserves: energy, op counters, and VPC counts
//!   equal the fixed-device-order fold of the per-device reports plus the
//!   interconnect exactly, and in data mode the combined time is the
//!   critical device's time plus the interconnect time;
//! * functionally, data-parallel gemm partials all-reduce — concatenating
//!   the disjoint row blocks — to the single-device reference, and
//!   same-seed per-device fault streams make the sharded result fully
//!   reproducible.

use proptest::prelude::*;
use streampim::pim_baselines::{Platform, Workload};
use streampim::pim_cluster::partition::shard_rows;
use streampim::pim_cluster::{Cluster, ClusterReport, PartitionStrategy};
use streampim::pim_device::flow::DeviceFlow;
use streampim::pim_device::Parallelism;
use streampim::pim_device::StreamPimConfig;
use streampim::pim_workloads::spec::{DnnKind, WorkloadSpec};
use streampim::rm_core::{EnergyBreakdown, OpCounters};

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

const DEVICE_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn json(report: &ClusterReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

fn priced(
    devices: u32,
    workload: &WorkloadSpec,
    strategy: PartitionStrategy,
    batch: u32,
    parallelism: Parallelism,
) -> ClusterReport {
    Cluster::paper_default(devices)
        .expect("cluster builds")
        .with_parallelism(parallelism)
        .run(workload, strategy, batch)
        .expect("cluster prices")
}

/// The grid's workloads: data-parallel gemms and a pipeline-parallel DNN
/// (pipeline needs a layer list, so only DNN workloads qualify). 384 rows
/// shard evenly at every device count, so all lanes are equal; 130 rows
/// shard 33/33/32/32 at 4 devices, so equal shards share a lane while
/// unequal ones do not.
fn grid() -> [(WorkloadSpec, PartitionStrategy, u32); 3] {
    [
        (
            WorkloadSpec::MatMul {
                m: 384,
                k: 96,
                n: 64,
            },
            PartitionStrategy::Data,
            3,
        ),
        (
            WorkloadSpec::MatMul {
                m: 130,
                k: 96,
                n: 64,
            },
            PartitionStrategy::Data,
            3,
        ),
        (
            WorkloadSpec::dnn(DnnKind::Mlp),
            PartitionStrategy::Pipeline,
            4,
        ),
    ]
}

#[test]
fn cluster_reports_are_byte_identical_at_any_worker_count() {
    for (workload, strategy, batch) in grid() {
        for devices in DEVICE_COUNTS {
            let reference = priced(devices, &workload, strategy, batch, Parallelism::Serial);
            let want = json(&reference);
            for &workers in &worker_counts() {
                let got = priced(
                    devices,
                    &workload,
                    strategy,
                    batch,
                    Parallelism::Threads(workers),
                );
                assert_eq!(got, reference, "{strategy:?} {devices}dev x{workers}");
                assert_eq!(
                    json(&got),
                    want,
                    "{strategy:?} {devices}dev x{workers} serialized bytes"
                );
            }
        }
    }
}

#[test]
fn one_device_cluster_is_byte_identical_to_the_platform() {
    let workload = WorkloadSpec::MatMul {
        m: 192,
        k: 96,
        n: 64,
    };
    let single = Platform::stream_pim(StreamPimConfig::paper_default())
        .expect("platform builds")
        .run(&Workload::from_spec(&workload))
        .expect("platform prices");
    let clustered = priced(
        1,
        &workload,
        PartitionStrategy::Data,
        1,
        Parallelism::Serial,
    );
    assert_eq!(
        serde_json::to_string(&single).expect("report serializes"),
        serde_json::to_string(&clustered.combined).expect("report serializes"),
        "Cluster{{n:1}} must route through the single-device code path"
    );
}

/// Recomputes the combined report's fold and asserts it matches bitwise
/// (same fold order and association as the cluster's own reduction).
fn assert_conserved(report: &ClusterReport, label: &str) {
    let mut energy = EnergyBreakdown::default();
    let mut counters = OpCounters::default();
    let (mut pim, mut moves) = (0u64, 0u64);
    for d in &report.per_device {
        energy += d.energy;
        counters += d.counters;
        pim += d.vpc.pim;
        moves += d.vpc.moves;
    }
    energy += report.interconnect.energy;
    counters += report.interconnect.counters;
    let c = &report.combined;
    assert_eq!(
        serde_json::to_string(&energy).unwrap(),
        serde_json::to_string(&c.energy).unwrap(),
        "{label}: combined energy is not the device-order fold"
    );
    assert_eq!(counters, c.counters, "{label}: op counters not conserved");
    assert_eq!(pim, c.vpc.pim, "{label}: pim VPC count not conserved");
    assert_eq!(moves, c.vpc.moves, "{label}: move VPC count not conserved");
}

#[test]
fn combined_reports_conserve_energy_counters_and_time() {
    for (workload, strategy, batch) in grid() {
        for devices in DEVICE_COUNTS {
            let report = priced(devices, &workload, strategy, batch, Parallelism::Serial);
            assert_conserved(&report, &format!("{strategy:?} {devices}dev"));
            if strategy == PartitionStrategy::Data && devices > 1 {
                let critical = &report.per_device[report.critical_device as usize];
                let composed = critical.time + report.interconnect.time;
                assert_eq!(
                    serde_json::to_string(&composed).unwrap(),
                    serde_json::to_string(&report.combined.time).unwrap(),
                    "{devices}dev: data-mode time is not critical-device + interconnect"
                );
            }
        }
    }
}

/// Deterministic pseudo-random matrix bytes (no host RNG in tests).
fn matrix(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(31).wrapping_add(salt) % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Data-parallel gemm partials all-reduce to the single-device
    /// functional reference: concatenating the disjoint row blocks, each
    /// computed on its own device, reproduces the full product exactly.
    /// With per-device fault models attached, same-seed streams make the
    /// sharded result a pure function of (inputs, seeds) — independent of
    /// the host worker count.
    #[test]
    fn data_parallel_partials_all_reduce_to_reference(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..12,
        devices in 1usize..9,
        seed in 0u64..1_000_000u64,
    ) {
        let a = matrix(m * k, seed as u32);
        let b = matrix(k * n, (seed as u32).wrapping_mul(7).wrapping_add(13));

        // Fault-free single-device reference.
        let reference = DeviceFlow::new(4)
            .expect("builds")
            .gemm(&a, &b, m, k, n, Parallelism::Serial)
            .expect("gemm");

        // Shard the output rows, compute every block on a fresh device,
        // gather in device order (the all-reduce of disjoint row blocks).
        let mut gathered = Vec::with_capacity(m * n);
        for rows in shard_rows(m, devices) {
            if rows.is_empty() {
                continue;
            }
            let block = DeviceFlow::new(4)
                .expect("builds")
                .gemm(&a[rows.start * k..rows.end * k], &b, rows.len(), k, n, Parallelism::Serial)
                .expect("gemm");
            gathered.extend_from_slice(&block);
        }
        prop_assert_eq!(&gathered, &reference, "row-shard concat != full product");

        // Same-seed per-device fault streams: two fresh sharded runs are
        // identical, at different host worker counts.
        let faulted = |parallelism: Parallelism| -> Vec<u64> {
            let mut out = Vec::with_capacity(m * n);
            for (d, rows) in shard_rows(m, devices).into_iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let mut device = DeviceFlow::new(4)
                    .expect("builds")
                    .with_fault_model(0.05, 0.03, seed ^ (d as u64).wrapping_mul(0x9E37_79B9));
                out.extend_from_slice(
                    &device
                        .gemm(&a[rows.start * k..rows.end * k], &b, rows.len(), k, n, parallelism)
                        .expect("gemm"),
                );
            }
            out
        };
        prop_assert_eq!(faulted(Parallelism::Threads(5)), faulted(Parallelism::Serial));
    }

    /// Conservation holds for arbitrary data-parallel shapes and batches,
    /// not just the fixed grid above.
    #[test]
    fn random_shapes_conserve_through_the_fold(
        m in 1usize..200,
        k in 1usize..48,
        n in 1usize..48,
        devices_pick in 0usize..4,
        batch in 1u32..4,
    ) {
        let devices = DEVICE_COUNTS[devices_pick];
        let workload = WorkloadSpec::MatMul { m, k, n };
        let report = priced(devices, &workload, PartitionStrategy::Data, batch, Parallelism::Serial);
        let mut energy = EnergyBreakdown::default();
        let mut counters = OpCounters::default();
        for d in &report.per_device {
            energy += d.energy;
            counters += d.counters;
        }
        energy += report.interconnect.energy;
        counters += report.interconnect.counters;
        prop_assert_eq!(
            serde_json::to_string(&energy).unwrap(),
            serde_json::to_string(&report.combined.energy).unwrap()
        );
        prop_assert_eq!(counters, report.combined.counters);
    }
}
