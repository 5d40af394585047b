//! Golden cluster pricing: what six cluster shapes price to, frozen bit
//! for bit.
//!
//! The determinism suites compare cluster runs with each other (worker
//! counts, serial lanes, a direct run against the runtime), so a change
//! that moves every path alike passes them; that includes handing a device
//! the wrong lane's output when equal shards share one lowering and one
//! pricing. Each case here freezes `f64::to_bits` of every time and energy
//! field, the operation and VPC counters of the combined report and of
//! every per-device report, the critical device, and digests of the
//! attribution samples and of the span stream of an instrumented run, at
//! serial lanes and at every worker count of `STREAMPIM_TEST_WORKERS`
//! (same grammar as `parallel_determinism`).

use std::hash::Hasher;
use streampim::pim_cluster::{Cluster, ClusterReport, PartitionStrategy};
use streampim::pim_device::{ExecReport, Parallelism};
use streampim::pim_trace::Collector;
use streampim::pim_workloads::spec::{DnnKind, WorkloadSpec};
use streampim::rm_core::{BufferProbe, FnvHasher};

/// Per case: the combined report, each per-device report, then the
/// critical device with the digests of the probe samples and of the span
/// stream (spans, then instants) of the instrumented run.
const GOLDEN: &[&str] = &[
    "bert pipeline(4)x4 combined time=415d66a508f45fc4,4174a0b2d75c81cc,0,41793a9249249249,4173b96db6db6db7 energy=41acc6ccccccd8d9,41d0747147ae116a,4201a65c28f5c375,42017b851eb84a83,4216e5c4c800000b ops=63117312,64518144,2906652672,2906652672,0,44694503424,44694503424,0 vpc=56623104,57802752",
    "bert pipeline(4)x4 device[0] time=4150cb90ef2c8e7f,41660e9deed01f50,0,416cd5397829cbc1,41668ac687d6343f energy=418c96ccccccd8d9,41a62ce28f5c22d3,41e1a65c28f5c375,41e17b851eb84a83,41f6e5c4c800000b ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688",
    "bert pipeline(4)x4 device[1] time=4150cb90ef2c8e7f,41660e9deed01f50,0,416cd5397829cbc1,41668ac687d6343f energy=418c96ccccccd8d9,41a62ce28f5c22d3,41e1a65c28f5c375,41e17b851eb84a83,41f6e5c4c800000b ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688",
    "bert pipeline(4)x4 device[2] time=4150cb90ef2c8e7f,41660e9deed01f50,0,416cd5397829cbc1,41668ac687d6343f energy=418c96ccccccd8d9,41a62ce28f5c22d3,41e1a65c28f5c375,41e17b851eb84a83,41f6e5c4c800000b ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688",
    "bert pipeline(4)x4 device[3] time=4150cb90ef2c8e7f,41660e9deed01f50,0,416cd5397829cbc1,41668ac687d6343f energy=418c96ccccccd8d9,41a62ce28f5c22d3,41e1a65c28f5c375,41e17b851eb84a83,41f6e5c4c800000b ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688",
    "bert pipeline(4)x4 critical=0 probe=0x92ab2601c4600296 spans=0x7ce2c1563aedcfad",
    "mlp pipeline(4)x8 combined time=41211ffbc42e53b8,41379da5a3078e81,0,41322d0f0f0f0f0e,412d5de1e1e1e1e1 energy=416a930000000097,4190d124cccccd19,41c29b5e8f5c2929,41c2a68f5c28f5f7,41d46b371999999c ops=3655840,3762848,191516672,191516672,0,2980052992,2980052992,0 vpc=3155968,3188736",
    "mlp pipeline(4)x8 device[0] time=411a5fe4450975d2,413151a088573c2d,0,412970f0f0f0f0f0,4121cf0f0f0f0f0f energy=4150be66666666c8,4169f98f5c28f687,41a4600000000000,41a4947ae147ae73,41b473231999999c ops=1155072,1155072,52428800,52428800,0,822083584,822083584,0 vpc=1048576,1056768",
    "mlp pipeline(4)x8 device[1] time=411a7c7afedbe84b,413164665f0157e1,0,412be99999999999,4126d66666666666 energy=4151199999999a00,416a870a3d70a4a7,41aae51eb851ebed,41aae147ae147b1a,41b473231999999c ops=1179648,1179648,69206016,69206016,0,1073741824,1073741824,0 vpc=1048576,1056768",
    "mlp pipeline(4)x8 device[2] time=411a7c7afedbe84b,413164665f0157e1,0,412be99999999999,4126d66666666666 energy=4151199999999a00,416a870a3d70a4a7,41aae51eb851ebed,41aae147ae147b1a,41b473231999999c ops=1179648,1179648,69206016,69206016,0,1073741824,1073741824,0 vpc=1048576,1056768",
    "mlp pipeline(4)x8 device[3] time=410279ad5b9c75af,4118437b3db6e3e0,0,411c533333333333,41172ccccccccccc energy=4120633333333333,41396c147ae147ac,4140cf3333333334,4140cccccccccccd,41b453731999999c ops=141312,141312,675840,675840,0,10485760,10485760,0 vpc=10240,18432",
    "mlp pipeline(4)x8 critical=1 probe=0x544738ec03cb80f6 spans=0xbae14abd891b794f",
    "matmul_8192x128x128 data(4)x8 combined time=412c7d22bdc25fb6,4141246379852a81,0,4124800000000000,4114800000000000 energy=418f519999999a28,41a021d1eb851f5a,41b04ccccccccc4e,41aae147ae1479ef,41d4386b99999985 ops=8585216,8593408,83886080,83886080,0,1073741824,1073741824,0 vpc=8388608,8421376",
    "matmul_8192x128x128 data(4)x8 device[0] time=41287c8796f8ad49,4140143a4337971c,0,4124800000000000,4114800000000000 energy=415ea33333333451,4177c3a3d70a3eb3,41904ccccccccc4e,418ae147ae1479ef,41b4386b99999985 ops=2113536,2113536,20971520,20971520,0,268435456,268435456,0 vpc=2097152,2105344",
    "matmul_8192x128x128 data(4)x8 device[1] time=41287c8796f8ad49,4140143a4337971c,0,4124800000000000,4114800000000000 energy=415ea33333333451,4177c3a3d70a3eb3,41904ccccccccc4e,418ae147ae1479ef,41b4386b99999985 ops=2113536,2113536,20971520,20971520,0,268435456,268435456,0 vpc=2097152,2105344",
    "matmul_8192x128x128 data(4)x8 device[2] time=41287c8796f8ad49,4140143a4337971c,0,4124800000000000,4114800000000000 energy=415ea33333333451,4177c3a3d70a3eb3,41904ccccccccc4e,418ae147ae1479ef,41b4386b99999985 ops=2113536,2113536,20971520,20971520,0,268435456,268435456,0 vpc=2097152,2105344",
    "matmul_8192x128x128 data(4)x8 device[3] time=41287c8796f8ad49,4140143a4337971c,0,4124800000000000,4114800000000000 energy=415ea33333333451,4177c3a3d70a3eb3,41904ccccccccc4e,418ae147ae1479ef,41b4386b99999985 ops=2113536,2113536,20971520,20971520,0,268435456,268435456,0 vpc=2097152,2105344",
    "matmul_8192x128x128 data(4)x8 critical=0 probe=0x6abe450a781d7e48 spans=0xc3e4989bb3bbce91",
    "matmul_130x96x64 data(4)x3 combined time=40793c0738b033ff,409c18fe31d3f301,0,40e2900000000001,40c8c00000000000 energy=410d773333333336,412af8e3d70a3d72,4123dd999999999b,411eb66666666668,417031b800000001 ops=37638,38988,199680,199680,0,2396160,2396160,0 vpc=24960,31104",
    "matmul_130x96x64 data(4)x3 device[0] time=0,0,0,40e2900000000000,40c8c00000000000 energy=40e174ccccccccd0,40fb14851eb851ee,41042bd70a3d70a6,40ff2f5c28f5c290,415031e800000001 ops=9408,9408,50688,50688,0,608256,608256,0 vpc=6336,7872",
    "matmul_130x96x64 data(4)x3 device[1] time=0,0,0,40e2900000000000,40c8c00000000000 energy=40e174ccccccccd0,40fb14851eb851ee,41042bd70a3d70a6,40ff2f5c28f5c290,415031e800000001 ops=9408,9408,50688,50688,0,608256,608256,0 vpc=6336,7872",
    "matmul_130x96x64 data(4)x3 device[2] time=0,0,0,40e2900000000001,40c8c00000000000 energy=40e119999999999d,40fa870a3d70a3da,41038f5c28f5c291,40fe3d70a3d70a3f,4150318800000001 ops=9216,9216,49152,49152,0,589824,589824,0 vpc=6144,7680",
    "matmul_130x96x64 data(4)x3 device[3] time=0,0,0,40e2900000000001,40c8c00000000000 energy=40e119999999999d,40fa870a3d70a3da,41038f5c28f5c291,40fe3d70a3d70a3f,4150318800000001 ops=9216,9216,49152,49152,0,589824,589824,0 vpc=6144,7680",
    "matmul_130x96x64 data(4)x3 critical=2 probe=0x3360083ecf98f9c9 spans=0x33f1f03002ba14f5",
    "bert data(3)x1 combined time=4147fc4f811726bd,4163562ac8aff8bb,0,4160ff3c7384a66d,415a918718f6b327 energy=419ebbccccccc317,41c5df06147adfde,41e1a65c28f5bf5c,41e17b851eb8580a,41fa2d8d5f333323 ops=19243008,21012480,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,15040512",
    "bert data(3)x1 device[0] time=4145bc14e77d8d23,415c8b4dde2cbe43,0,4160ff3c7384a66d,415a918718f6b327 energy=417702f333332626,4191d95ca3d7069b,41c78a2933332ee4,41c7509eb851f3ba,41e173bc94ccccc2 ops=6349824,6349824,242288640,242288640,0,3725328384,3725328384,0 vpc=4727808,5022720",
    "bert data(3)x1 device[1] time=4145bc14e77d8d23,415c8b4dde2cbe43,0,4160ff3c7384a66d,415a918718f6b327 energy=417702f333332626,4191d95ca3d7069b,41c78a2933332ee4,41c7509eb851f3ba,41e173bc94ccccc2 ops=6349824,6349824,242288640,242288640,0,3725328384,3725328384,0 vpc=4727808,5022720",
    "bert data(3)x1 device[2] time=414598e443a682e4,415c5d16d3ef4d9e,0,4160fd5cb08d3dcb,415a95469ee5846a energy=4176e94cccccc010,4191c5775c28f1b8,41c7851e3d709fa9,41c74cd70a3d78b3,41e173a194ccccc2 ops=6322176,6322176,242085888,242085888,0,3722969088,3722969088,0 vpc=4700160,4995072",
    "bert data(3)x1 critical=0 probe=0xddc503d60e393735 spans=0xf4fcf112c9298ab9",
    "mlp pipeline(8)x3 combined time=4111b22aa9133640,41297dcb4f4d6f28,0,4122e81e1e1e1e1d,411e2fc3c3c3c3c3 energy=4153ee4000000071,418014fb999999d3,41abe90dd70a3dbf,41abf9d70a3d70f2,41d56439b3333337 ops=1370940,1439488,71818752,71818752,0,1117519872,1117519872,0 vpc=1183488,1195776",
    "mlp pipeline(8)x3 device[0] time=4103c7eb33c7185e,4119fa70cc82da44,0,411314b4b4b4b4b4,410ab69696969696 energy=41391d9999999a2c,41537b2b851eb8e5,418e900000000000,418edeb851eb85ac,41a5733e33333336 ops=433152,433152,19660800,19660800,0,308281344,308281344,0 vpc=393216,396288",
    "mlp pipeline(8)x3 device[1] time=4103dd5c3f24ee38,411a16998e8203d2,0,4114ef3333333333,411120cccccccccc energy=4139a66666666700,4153e547ae147b7d,41942bd70a3d70f2,419428f5c28f5c54,41a5733e33333336 ops=442368,442368,25952256,25952256,0,402653184,402653184,0 vpc=393216,396288",
    "mlp pipeline(8)x3 device[2] time=4103dd5c3f24ee38,411a16998e8203d2,0,4114ef3333333333,411120cccccccccc energy=4139a66666666700,4153e547ae147b7d,41942bd70a3d70f2,419428f5c28f5c54,41a5733e33333336 ops=442368,442368,25952256,25952256,0,402653184,402653184,0 vpc=393216,396288",
    "mlp pipeline(8)x3 device[3] time=40ebb684096ab086,4102329c6e492ae8,0,41053e6666666666,4101619999999999 energy=410894cccccccccc,4123110f5c28f5c1,412936ccccccccce,4129333333333334,41a55b7a33333336 ops=52992,52992,253440,253440,0,3932160,3932160,0 vpc=3840,6912",
    "mlp pipeline(8)x3 device[4] time=0,0,0,0,0 energy=0,0,0,0,41a55b2633333336 ops=0,0,0,0,0,0,0,0 vpc=0,0",
    "mlp pipeline(8)x3 device[5] time=0,0,0,0,0 energy=0,0,0,0,41a55b2633333336 ops=0,0,0,0,0,0,0,0 vpc=0,0",
    "mlp pipeline(8)x3 device[6] time=0,0,0,0,0 energy=0,0,0,0,41a55b2633333336 ops=0,0,0,0,0,0,0,0 vpc=0,0",
    "mlp pipeline(8)x3 device[7] time=0,0,0,0,0 energy=0,0,0,0,41a55b2633333336 ops=0,0,0,0,0,0,0,0 vpc=0,0",
    "mlp pipeline(8)x3 critical=1 probe=0x5bba9a20ea870f05 spans=0xbae14abd891b794f",
];

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

/// `(label, workload, devices, strategy, batch)`: equal lanes (BERT's four
/// 90-layer stages, four 2,048-row gemm shards), unequal ones (33/33/32/32
/// rows, MLP's stages, BERT's 3-way row split) and empty pipeline stages
/// (MLP has four layers for eight devices).
fn cases() -> Vec<(&'static str, WorkloadSpec, u32, PartitionStrategy, u32)> {
    use PartitionStrategy::{Data, Pipeline};
    let bert = WorkloadSpec::dnn(DnnKind::Bert);
    let mlp = WorkloadSpec::dnn(DnnKind::Mlp);
    let tall = WorkloadSpec::MatMul {
        m: 8192,
        k: 128,
        n: 128,
    };
    let odd = WorkloadSpec::MatMul {
        m: 130,
        k: 96,
        n: 64,
    };
    vec![
        ("bert pipeline(4)x4", bert, 4, Pipeline, 4),
        ("mlp pipeline(4)x8", mlp, 4, Pipeline, 8),
        ("matmul_8192x128x128 data(4)x8", tall, 4, Data, 8),
        ("matmul_130x96x64 data(4)x3", odd, 4, Data, 3),
        ("bert data(3)x1", bert, 3, Data, 1),
        ("mlp pipeline(8)x3", mlp, 8, Pipeline, 3),
    ]
}

/// The report as bit patterns and integers, so a last-ulp move shows.
fn report_line(r: &ExecReport) -> String {
    let t = &r.time;
    let e = &r.energy;
    let c = &r.counters;
    let time = [
        t.read_ns,
        t.write_ns,
        t.shift_ns,
        t.process_ns,
        t.overlapped_ns,
    ]
    .map(|v| format!("{:x}", v.to_bits()))
    .join(",");
    let energy = [e.read_pj, e.write_pj, e.shift_pj, e.compute_pj, e.other_pj]
        .map(|v| format!("{:x}", v.to_bits()))
        .join(",");
    format!(
        "time={time} energy={energy} ops={},{},{},{},{},{},{},{} vpc={},{}",
        c.reads,
        c.writes,
        c.shifts,
        c.shift_distance,
        c.transverse_reads,
        c.pim_adds,
        c.pim_muls,
        c.gate_ops,
        r.vpc.pim,
        r.vpc.moves
    )
}

/// FNV-1a over `lines` (the digest of their concatenation, without
/// building it). `Debug` renders every `f64` in shortest round-trip form,
/// so a digest moves with any bit of any record.
fn digest(lines: impl Iterator<Item = String>) -> u64 {
    let mut h = FnvHasher::new();
    for line in lines {
        h.write(line.as_bytes());
    }
    h.finish()
}

/// The golden lines of one case priced with `parallelism` lanes.
fn case_lines(
    label: &str,
    workload: &WorkloadSpec,
    devices: u32,
    strategy: PartitionStrategy,
    batch: u32,
    parallelism: Parallelism,
) -> Vec<String> {
    let cluster = Cluster::paper_default(devices)
        .expect("cluster builds")
        .with_parallelism(parallelism);
    let sink = Collector::new();
    let probe = BufferProbe::new();
    let report: ClusterReport = cluster
        .run_instrumented(workload, strategy, batch, &sink, &probe)
        .expect("cluster prices");
    assert_eq!(
        report,
        cluster
            .run(workload, strategy, batch)
            .expect("cluster prices"),
        "{label}: instruments perturb pricing"
    );
    let probes = digest(
        probe
            .take()
            .into_iter()
            .map(|(path, sample)| format!("{path} {sample:?}\n")),
    );
    let spans = digest(
        sink.spans()
            .iter()
            .map(|span| format!("{span:?}\n"))
            .chain(sink.events().iter().map(|event| format!("{event:?}\n"))),
    );
    let mut lines = vec![format!(
        "{label} combined {}",
        report_line(&report.combined)
    )];
    for (d, device) in report.per_device.iter().enumerate() {
        lines.push(format!("{label} device[{d}] {}", report_line(device)));
    }
    lines.push(format!(
        "{label} critical={} probe=0x{probes:016x} spans=0x{spans:016x}",
        report.critical_device
    ));
    lines
}

#[test]
fn cluster_reports_match_the_frozen_pricing() {
    let shapes = std::iter::once(Parallelism::Serial)
        .chain(worker_counts().into_iter().map(Parallelism::Threads));
    for parallelism in shapes {
        let actual: Vec<String> = cases()
            .iter()
            .flat_map(|(label, workload, devices, strategy, batch)| {
                case_lines(label, workload, *devices, *strategy, *batch, parallelism)
            })
            .collect();
        assert_eq!(
            actual,
            GOLDEN,
            "{parallelism:?} priced:\n{}",
            actual.join("\n")
        );
    }
}
