//! Golden lowering: the schedule each workload spec lowers to, frozen as
//! its fingerprint and VPC counts under both StreamPIM bus configurations.
//!
//! Lowering reads only operand shapes, so a change to how a spec becomes a
//! task, or to lowering itself, that moves any schedule fails here. The
//! specs cover every polybench kernel, both DNN models and a small and a
//! large raw `MatMul`.

use pim_device::{StreamPim, StreamPimConfig};
use pim_workloads::{DnnKind, Kernel, WorkloadSpec};

/// One line per spec and configuration: spec name, configuration, schedule
/// fingerprint, #PIM and #move.
const GOLDEN: &[&str] = &[
    "2mm@0.0200 paper_default 0x2b11e72393c37411 pim=2752 moves=3424",
    "2mm@0.0200 electrical_bus 0x2b11e72393c37411 pim=2752 moves=3424",
    "3mm@0.0200 paper_default 0x13ab87c3157ab15c pim=4476 moves=5452",
    "3mm@0.0200 electrical_bus 0x13ab87c3157ab15c pim=4476 moves=5452",
    "gemm@0.0200 paper_default 0x4c0d3693428ce122 pim=1920 moves=2288",
    "gemm@0.0200 electrical_bus 0x4c0d3693428ce122 pim=1920 moves=2288",
    "syrk@0.0200 paper_default 0x60de0700223efc74 pim=2808 moves=3224",
    "syrk@0.0200 electrical_bus 0x60de0700223efc74 pim=2808 moves=3224",
    "syr2k@0.0200 paper_default 0xd453beb7a6dabfef pim=5616 moves=6448",
    "syr2k@0.0200 electrical_bus 0xd453beb7a6dabfef pim=5616 moves=6448",
    "atax@0.0200 paper_default 0x052ad3398b72bf9d pim=80 moves=160",
    "atax@0.0200 electrical_bus 0x052ad3398b72bf9d pim=80 moves=160",
    "bicg@0.0200 paper_default 0xf44e47fd674c7059 pim=72 moves=144",
    "bicg@0.0200 electrical_bus 0xf44e47fd674c7059 pim=72 moves=144",
    "gesu@0.0200 paper_default 0xdd6b3e4c3b3f556d pim=112 moves=168",
    "gesu@0.0200 electrical_bus 0xdd6b3e4c3b3f556d pim=112 moves=168",
    "mvt@0.0200 paper_default 0x4446fcdbe78460ab pim=160 moves=320",
    "mvt@0.0200 electrical_bus 0x4446fcdbe78460ab pim=160 moves=320",
    "mlp paper_default 0xe1d6d6f0606ac667 pim=394496 moves=398592",
    "mlp electrical_bus 0xe1d6d6f0606ac667 pim=394496 moves=398592",
    "bert paper_default 0x1526e760a7340e20 pim=14155776 moves=14450688",
    "bert electrical_bus 0x1526e760a7340e20 pim=14155776 moves=14450688",
    "matmul_24x16x8 paper_default 0x08b89d365efb9e1e pim=192 moves=256",
    "matmul_24x16x8 electrical_bus 0x08b89d365efb9e1e pim=192 moves=256",
    "matmul_8192x128x128 paper_default 0x2ed4890539f4b6f6 pim=1048576 moves=1049600",
    "matmul_8192x128x128 electrical_bus 0x2ed4890539f4b6f6 pim=1048576 moves=1049600",
];

fn specs() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = Kernel::ALL
        .iter()
        .map(|&kernel| WorkloadSpec::polybench(kernel, 0.02))
        .collect();
    specs.push(WorkloadSpec::dnn(DnnKind::Mlp));
    specs.push(WorkloadSpec::dnn(DnnKind::Bert));
    specs.push(WorkloadSpec::MatMul { m: 24, k: 16, n: 8 });
    specs.push(WorkloadSpec::MatMul {
        m: 8192,
        k: 128,
        n: 128,
    });
    specs
}

#[test]
fn spec_schedules_match_the_frozen_lowering() {
    let devices = [
        ("paper_default", StreamPimConfig::paper_default()),
        ("electrical_bus", StreamPimConfig::electrical_bus()),
    ]
    .map(|(name, cfg)| {
        (
            name,
            StreamPim::new(cfg).expect("built-in configs are valid"),
        )
    });
    let mut actual = Vec::new();
    for spec in specs() {
        let task = spec.shape_task();
        for (config, device) in &devices {
            let schedule = task.lower(device).expect("every spec has operations");
            let counts = schedule.counts();
            actual.push(format!(
                "{} {config} 0x{:016x} pim={} moves={}",
                spec.name(),
                schedule.fingerprint(),
                counts.pim,
                counts.moves
            ));
        }
    }
    assert_eq!(actual, GOLDEN, "lowered:\n{}", actual.join("\n"));
}
