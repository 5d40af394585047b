//! `bitlevel`: one op is one `DeviceFlow::gemv` or `gemm` call on an
//! 8-lane device under `Parallelism::Serial`. Every eighth op of the stream
//! runs on a device that carries a seeded shift-fault model.

use crate::stats::{self, Digest, Rng};
use crate::trace::{Role, SpanId, Tracer};
use crate::{closed_loop, Check, Phase, COUNT_OPS};
use dw_logic::{GateTally, Multiplier};
use pim_device::flow::{DeviceFlow, DeviceFlowStats};
use pim_device::Parallelism;
use rm_bus::segmented::SegmentedBus;
use rm_core::{Mat, Nanowire, ShiftDir, ShiftFaultModel};
use rm_proc::RmProcessor;
use std::time::Instant;

const LANES: usize = 8;
/// Distinct ops in a stream; the timed phase cycles through them.
pub const STREAM_LEN: usize = 64;
/// Every this many ops of a stream, one runs on the faulted device.
const FAULT_EVERY: usize = 8;
/// Per-step over- and under-shift probabilities of the faulted device.
const P_OVER: f64 = 0.01;
const P_UNDER: f64 = 0.01;

/// One functional op: `gemv` when `n == 0`, else `gemm`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitOp {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: Vec<u8>,
    pub b: Vec<u8>,
    pub faulted: bool,
}

impl BitOp {
    /// The product on the host, in integers: the fault-free oracle.
    pub fn host_product(&self) -> Vec<u64> {
        let cols = self.n.max(1);
        let mut out = vec![0u64; self.m * cols];
        for i in 0..self.m {
            for j in 0..cols {
                out[i * cols + j] = (0..self.k)
                    .map(|p| self.a[i * self.k + p] as u64 * self.b[p * cols + j] as u64)
                    .sum();
            }
        }
        out
    }

    fn run(&self, flow: &mut DeviceFlow) -> Result<Vec<u64>, pim_device::PimError> {
        if self.n == 0 {
            flow.gemv(&self.a, &self.b, self.m, self.k, Parallelism::Serial)
        } else {
            flow.gemm(
                &self.a,
                &self.b,
                self.m,
                self.k,
                self.n,
                Parallelism::Serial,
            )
        }
    }
}

/// The op stream of `seed`: sizes are stratified over the stream, so every
/// seed covers the same range of sizes once, in a seeded order with
/// seeded operands.
pub fn op_stream(seed: u64) -> Vec<BitOp> {
    let mut rng = Rng::new(seed, 0xB17);
    let strata = |rng: &mut Rng, j: usize| (j as f64 + rng.unit()) / STREAM_LEN as f64;
    let mut ops: Vec<BitOp> = (0..STREAM_LEN)
        .map(|j| {
            let q = strata(&mut rng, j);
            let k = 4 + (28.0 * q).round() as usize;
            let (m, n) = if j % 2 == 0 {
                (16 + (48.0 * q).round() as usize, 0)
            } else {
                (
                    4 + (12.0 * q).round() as usize,
                    4 + (12.0 * (1.0 - q)).round() as usize,
                )
            };
            let mut bytes =
                |len: usize| (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
            BitOp {
                m,
                k,
                n,
                a: bytes(m * k),
                b: bytes(k * n.max(1)),
                faulted: j % FAULT_EVERY == FAULT_EVERY - 1,
            }
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

fn stats_delta(after: DeviceFlowStats, before: DeviceFlowStats) -> (u64, u64) {
    (
        after.shifts - before.shifts,
        after.faults_injected - before.faults_injected,
    )
}

pub struct BitBench {
    ops: Vec<BitOp>,
    fault_seed: u64,
    clean: DeviceFlow,
    faulted: DeviceFlow,
    next_op: usize,
    /// (stream index, output digest) of every clean op run.
    clean_runs: Vec<(usize, u64)>,
    /// Stream indices of the faulted ops, in the order they ran, and a
    /// rolling digest of their outputs.
    faulted_runs: Vec<usize>,
    faulted_digest: u64,
    errors: Vec<String>,
    traced: Vec<(SpanId, u64, u64)>,
}

impl BitBench {
    /// Generates the stream, builds both devices and runs one untimed
    /// warm-up op on each.
    pub fn new(seed: u64) -> Result<BitBench, String> {
        let ops = op_stream(seed);
        let fault_seed = Rng::new(seed, 0xFA17).next_u64();
        let clean = DeviceFlow::new(LANES).map_err(|e| e.to_string())?;
        let faulted = DeviceFlow::new(LANES)
            .map_err(|e| e.to_string())?
            .with_fault_model(P_OVER, P_UNDER, fault_seed);
        let mut bench = BitBench {
            ops,
            fault_seed,
            clean,
            faulted,
            next_op: 0,
            clean_runs: Vec::new(),
            faulted_runs: Vec::new(),
            faulted_digest: 0,
            errors: Vec::new(),
            traced: Vec::new(),
        };
        // Warm up on the largest clean and the largest faulted op, so set-up
        // time is set by real work rather than by first-touch page faults.
        let largest = |faulted: bool| {
            (0..STREAM_LEN)
                .filter(|&i| bench.ops[i].faulted == faulted)
                .max_by_key(|&i| bench.ops[i].m * bench.ops[i].k * bench.ops[i].n.max(1))
                .expect("streams hold clean and faulted ops")
        };
        for i in [largest(false), largest(true)] {
            let outcome = bench.run_op(i);
            if !bench.keep(i, outcome) {
                return Err(format!("warm-up op failed: {:?}", bench.errors));
            }
        }
        Ok(bench)
    }

    /// Runs stream op `i` on its device.
    fn run_op(&mut self, i: usize) -> Result<Vec<u64>, pim_device::PimError> {
        let op = &self.ops[i];
        op.run(if op.faulted {
            &mut self.faulted
        } else {
            &mut self.clean
        })
    }

    /// Keeps what the checks need of op `i`'s outcome.
    fn keep(&mut self, i: usize, outcome: Result<Vec<u64>, pim_device::PimError>) -> bool {
        match outcome {
            Ok(out) => {
                let digest = Digest::of(&out);
                if self.ops[i].faulted {
                    self.faulted_runs.push(i);
                    self.faulted_digest = Digest::of(&(self.faulted_digest, digest));
                } else {
                    self.clean_runs.push((i, digest));
                }
                true
            }
            Err(e) => {
                self.errors.push(format!("stream op {i}: {e}"));
                false
            }
        }
    }

    pub fn run_phase(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
        closed_loop(seconds, |_| {
            let i = self.next_op % STREAM_LEN;
            let op_id = self.next_op as u64;
            self.next_op += 1;
            let faulted = self.ops[i].faulted;
            let before = if faulted {
                self.faulted.stats()
            } else {
                self.clean.stats()
            };
            let span_start = tracer.as_deref().map(Tracer::now);
            let started = Instant::now();
            let outcome = self.run_op(i);
            let latency = started.elapsed();
            let span = tracer.as_deref_mut().zip(span_start).map(|(t, start)| {
                let after = if faulted {
                    self.faulted.stats()
                } else {
                    self.clean.stats()
                };
                let (shifts, faults) = stats_delta(after, before);
                let id = t.record("pim-device.flow_op", start, None, op_id, Role::Op, shifts);
                (id, shifts, faults)
            });
            let ok = self.keep(i, outcome);
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                self.traced.push(span);
                probe_substrate(t, &self.ops[i], span.0, op_id);
            }
            (ok, latency)
        })
    }

    /// Fault-free outputs must equal the host's integer products; the
    /// faulted device must reproduce its outputs and `DeviceFlowStats` on
    /// a replay from the same seed.
    pub fn check(&mut self) -> Check {
        let mut check = Check::default();
        for e in &self.errors {
            check.fail(e.clone());
        }
        let expected: Vec<u64> = self
            .ops
            .iter()
            .map(|op| Digest::of(&op.host_product()))
            .collect();
        for &(i, digest) in &self.clean_runs {
            check.checked += 1;
            if digest != expected[i] {
                check.fail(format!(
                    "stream op {i}: output differs from the host product"
                ));
            }
        }
        check.checked += self.faulted_runs.len() as u64;
        // The replay judges the faulted runs as one: it counts as one
        // failed op however it fails.
        let failures = check.failures.len();
        match DeviceFlow::new(LANES) {
            Ok(device) => {
                let mut device = device.with_fault_model(P_OVER, P_UNDER, self.fault_seed);
                let mut digest = 0;
                for &i in &self.faulted_runs {
                    match self.ops[i].run(&mut device) {
                        Ok(out) => digest = Digest::of(&(digest, Digest::of(&out))),
                        Err(e) => check.note(format!("replay of stream op {i}: {e}")),
                    }
                }
                if digest != self.faulted_digest {
                    check.note("faulted outputs differ on a same-seed replay".to_string());
                }
                if device.stats() != self.faulted.stats() {
                    check.note(format!(
                        "faulted device stats differ on a same-seed replay: {:?} vs {:?}",
                        device.stats(),
                        self.faulted.stats()
                    ));
                }
            }
            Err(e) => check.note(format!("replay device: {e}")),
        }
        check.failed_ops += u64::from(check.failures.len() > failures);
        check.distinct = STREAM_LEN as u64;
        check
    }

    pub fn layers(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let counted = &self.traced[..self.traced.len().min(COUNT_OPS)];
        let per_op = |f: fn(&(SpanId, u64, u64)) -> u64| {
            stats::ratio(
                counted.iter().map(f).sum::<u64>() as f64,
                counted.len() as f64,
            )
        };
        let spans = t.spans();
        let ns_per_shift: Vec<f64> = self
            .traced
            .iter()
            .filter(|&&(_, shifts, _)| shifts > 0)
            .map(|&(id, shifts, _)| spans[id].ns() / shifts as f64)
            .collect();
        vec![
            (
                "rm-core.read_row_ns",
                stats::median(&t.per_work("rm-core.read_row_into")),
            ),
            (
                "rm-core.shift_fault_ns",
                stats::median(&t.per_work("rm-core.shift_bulk_with_faults")),
            ),
            (
                "dw-logic.multiply_ns_per_elem",
                stats::median(&t.per_work("dw-logic.multiply_many")),
            ),
            (
                "rm-bus.stream_ns_per_word",
                stats::median(&t.per_work("rm-bus.stream_words")),
            ),
            (
                "rm-proc.dot_us",
                stats::median(&t.per_work("rm-proc.dot")) / 1e3,
            ),
            (
                "pim-device.flow_op_ms",
                stats::median(&t.durations("pim-device.flow_op", 1e6)),
            ),
            ("pim-device.flow_shifts_per_op", per_op(|r| r.1)),
            ("pim-device.faults_injected_per_op", per_op(|r| r.2)),
            ("pim-device.flow_ns_per_shift", stats::median(&ns_per_shift)),
        ]
    }
}

/// Probes of the substrate kernels the flow calls, at the op's widths and
/// distances. They run after the op, so they add to the traced run's wall
/// time but not to its op latency.
fn probe_substrate(t: &mut Tracer, op: &BitOp, parent: SpanId, op_id: u64) {
    let span = |t: &mut Tracer, name, start, work| {
        t.record(name, start, Some(parent), op_id, Role::Probe, work);
    };
    // A lane mat: 16 save tracks (2-byte rows), 64 domains, 4 ports.
    let mut mat = Mat::new(16, 16, 64, 4);
    let mut row = vec![0u8; mat.row_bytes()];
    let reads = op.k as u64;
    let start = t.now();
    for r in 0..op.k {
        let _ = mat.read_row_into(r % 16, &mut row);
    }
    span(t, "rm-core.read_row_into", start, reads);

    let distance = op.k.min(16);
    let mut wire = Nanowire::new(64, &[0, 32]);
    let mut faults = ShiftFaultModel::new(P_OVER, P_UNDER, op_id);
    let shifts = 2 * op.m as u64;
    let start = t.now();
    for _ in 0..op.m {
        let _ = wire.shift_bulk_with_faults(ShiftDir::Right, distance, 1, &mut faults);
        let _ = wire.shift_bulk_with_faults(ShiftDir::Left, distance, 1, &mut faults);
    }
    span(t, "rm-core.shift_bulk_with_faults", start, shifts);

    let cols = op.n.max(1);
    let (lhs, rhs): (Vec<u64>, Vec<u64>) = (0..op.m * op.k)
        .map(|e| (op.a[e] as u64, op.b[(e % op.k) * cols] as u64))
        .unzip();
    let multiplier = Multiplier::new(8);
    let mut tally = GateTally::default();
    let start = t.now();
    std::hint::black_box(multiplier.multiply_many(&lhs, &rhs, &mut tally));
    span(t, "dw-logic.multiply_many", start, lhs.len() as u64);

    let words: Vec<u64> =
        op.a.chunks(8)
            .map(|c| c.iter().rev().fold(0u64, |w, &b| w << 8 | b as u64))
            .collect();
    let mut bus = SegmentedBus::new(8);
    let start = t.now();
    std::hint::black_box(bus.stream_words(0, 7, &words));
    span(t, "rm-bus.stream_words", start, words.len() as u64);

    let x: Vec<u64> = (0..op.k).map(|p| op.b[p * cols] as u64).collect();
    let dots = op.m.min(8);
    let mut proc = RmProcessor::new(8, 2);
    let start = t.now();
    for i in 0..dots {
        let a_row: Vec<u64> = op.a[i * op.k..(i + 1) * op.k]
            .iter()
            .map(|&v| v as u64)
            .collect();
        std::hint::black_box(proc.dot(&a_row, &x));
    }
    span(t, "rm-proc.dot", start, dots as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(op_stream(11), op_stream(11));
        assert_ne!(op_stream(11), op_stream(12));
        let ops = op_stream(11);
        assert_eq!(
            ops.iter().filter(|op| op.faulted).count(),
            STREAM_LEN / FAULT_EVERY
        );
        assert!(ops.iter().all(|op| (4..=32).contains(&op.k)));
    }

    #[test]
    fn host_product_of_a_small_gemm() {
        let op = BitOp {
            m: 2,
            k: 2,
            n: 2,
            a: vec![1, 2, 3, 4],
            b: vec![5, 6, 7, 8],
            faulted: false,
        };
        assert_eq!(op.host_product(), vec![19, 22, 43, 50]);
        let gemv = BitOp {
            n: 0,
            b: vec![1, 1],
            ..op
        };
        assert_eq!(gemv.host_product(), vec![3, 7]);
    }
}
