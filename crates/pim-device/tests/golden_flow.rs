//! Golden bit-level flow: what two seeded streams of gemv and gemm shapes
//! compute on the functional `DeviceFlow`, frozen bit for bit.
//!
//! The flow's other tests compare serial runs with sharded runs and with
//! host products, so a change that moved every lane's shift or fault counts
//! alike would pass them. Each line here freezes, for one stream on one
//! device, digests of every output and of `DeviceFlowStats` after every
//! op, next to the final stats in plain numbers. Both devices have 8 lanes;
//! the faulted one carries a seeded shift-fault model.

use pim_device::flow::{DeviceFlow, DeviceFlowStats};
use pim_device::Parallelism;
use rm_core::FnvHasher;
use std::hash::Hasher;

/// One line per stream seed and device.
const GOLDEN: &[&str] = &[
    "seed=7 clean stats=25121,0,0,0 outputs=0xf19fdeb95493e6ef per_op=0x8ff39d6305f9700a",
    "seed=7 faulted stats=25121,0,150,144 outputs=0xf19fdeb95493e6ef per_op=0xa9b71c73b07e2696",
    "seed=2024 clean stats=34661,0,0,0 outputs=0xda2b95ede5fa3cd2 per_op=0x23310943d484822b",
    "seed=2024 faulted stats=34661,0,182,180 outputs=0xda2b95ede5fa3cd2 per_op=0xb08e2f4727ff5a4b",
];

const LANES: usize = 8;
const OPS_PER_STREAM: usize = 14;

/// SplitMix64: a dependency-free seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// One op: `gemv` when `n == 0`, else `gemm`. `k` stays within a lane's
/// 32-element operand capacity.
struct Op {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<u8>,
    b: Vec<u8>,
}

impl Op {
    /// The product in host integers: the fault-free oracle.
    fn host_product(&self) -> Vec<u64> {
        let cols = self.n.max(1);
        (0..self.m * cols)
            .map(|e| {
                let (i, j) = (e / cols, e % cols);
                (0..self.k)
                    .map(|p| self.a[i * self.k + p] as u64 * self.b[p * cols + j] as u64)
                    .sum()
            })
            .collect()
    }
}

fn stream(seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    (0..OPS_PER_STREAM)
        .map(|i| {
            let k = rng.range(1, 32);
            let (m, n) = if i % 2 == 0 {
                (rng.range(1, 20), 0)
            } else {
                (rng.range(1, 9), rng.range(1, 4))
            };
            let a = rng.bytes(m * k);
            let b = rng.bytes(k * n.max(1));
            Op { m, k, n, a, b }
        })
        .collect()
}

fn fnv(text: &str) -> u64 {
    let mut h = FnvHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

fn stats_text(s: &DeviceFlowStats) -> String {
    format!(
        "{},{},{},{}",
        s.shifts, s.pim_conversions, s.faults_sampled, s.faults_injected
    )
}

/// Runs `ops` on `flow` and digests everything observable. Odd ops run on
/// two worker threads, which must not change any output or counter.
fn run(flow: &mut DeviceFlow, ops: &[Op]) -> String {
    let mut outputs = String::new();
    let mut stats = String::new();
    for (i, op) in ops.iter().enumerate() {
        let par = if i % 2 == 1 {
            Parallelism::Threads(2)
        } else {
            Parallelism::Serial
        };
        let out = if op.n == 0 {
            flow.gemv(&op.a, &op.b, op.m, op.k, par)
        } else {
            flow.gemm(&op.a, &op.b, op.m, op.k, op.n, par)
        }
        .expect("shapes fit a lane");
        assert_eq!(out, op.host_product(), "op {i} against the host");
        outputs.push_str(&format!("{out:?}\n"));
        stats.push_str(&stats_text(&flow.stats()));
        stats.push('\n');
    }
    format!(
        "stats={} outputs=0x{:016x} per_op=0x{:016x}",
        stats_text(&flow.stats()),
        fnv(&outputs),
        fnv(&stats)
    )
}

#[test]
fn flow_streams_match_the_frozen_digests() {
    let mut actual = Vec::new();
    for seed in [7u64, 2024] {
        let ops = stream(seed);
        let mut clean = DeviceFlow::new(LANES).expect("flow builds");
        actual.push(format!("seed={seed} clean {}", run(&mut clean, &ops)));
        let mut faulted = DeviceFlow::new(LANES)
            .expect("flow builds")
            .with_fault_model(0.01, 0.02, seed ^ 0xFA17);
        actual.push(format!("seed={seed} faulted {}", run(&mut faulted, &ops)));
    }
    assert_eq!(actual, GOLDEN, "flow:\n{}", actual.join("\n"));
}
