//! Bit-level subarray data flow (paper §III-F, Figure 13).
//!
//! This module wires the *functional* substrates together — mats with save
//! and transfer tracks (`rm-core`), the segmented RM bus (`rm-bus`) and the
//! RM processor datapath (`rm-proc`) — and executes a PIM task exactly as
//! Figure 13 describes:
//!
//! 1. data is fan-out-copied from save tracks to transfer tracks and
//!    shifted onto the RM bus (non-destructive read, no conversion);
//! 2. the bus streams it to the RM processor;
//! 3. the processor computes (duplicator → multiplier → tree → circle);
//! 4. the result streams back over the return bus;
//! 5. and shifts into the destination mat row.
//!
//! The headline claim — *magnetic signals stored in mats are never
//! converted into electronic signals* — is testable here: the whole flow
//! performs **zero RM read or write operations** after the initial host
//! load (see the tests).
//!
//! The flow is observed through its counters alone:
//! [`SubarrayFlow::shifts`], [`SubarrayFlow::pim_conversions`] and, per
//! device, [`DeviceFlowStats`] (shifts, conversions, fault draws and faults
//! injected). Nothing here takes an attribution probe; component
//! attribution belongs to the analytic engines.

use crate::device::Parallelism;
use crate::error::PimError;
use crate::Result;
use rm_bus::{Delivery, SegmentedBus};
use rm_core::{ShiftFaultModel, Subarray};
use rm_proc::{ProcScratch, RmProcessor};

/// Bus segments in the functional in-subarray buses.
const BUS_SEGMENTS: usize = 8;

/// Reusable buffers for the streams and the processor of [`SubarrayFlow`]:
/// the bus words of one stream, its deliveries, both operand vectors and the
/// processor's scratch. Owned by each flow instance, so once they have grown
/// a dot allocates only for the mat rows themselves: one packed row per
/// operand row shifted out, and the packing of the result rows shifted back
/// in.
#[derive(Debug, Clone, Default)]
struct FlowScratch {
    proc: ProcScratch,
    words: Vec<u64>,
    deliveries: Vec<Delivery>,
    a: Vec<u64>,
    b: Vec<u64>,
}

/// A functional PIM subarray: mats + buses + processor.
///
/// Uses a reduced geometry (2 mats of 16 save + 16 transfer tracks, 64
/// rows) — big enough to exercise every mechanism, small enough to simulate
/// every domain.
///
/// ```
/// use pim_device::flow::SubarrayFlow;
///
/// let mut flow = SubarrayFlow::new()?;
/// flow.load_vector(0, &[1, 2, 3, 4])?;
/// flow.load_vector(16, &[5, 6, 7, 8])?;
/// let result = flow.dot(0, 16, 4, 32)?;
/// assert_eq!(result, 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8);
/// # Ok::<(), pim_device::PimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubarrayFlow {
    subarray: Subarray,
    processor: RmProcessor,
    to_proc: SegmentedBus,
    from_proc: SegmentedBus,
    /// Row reads/writes performed by the host load phase (excluded from the
    /// conversion-free guarantee).
    loads: u64,
    scratch: FlowScratch,
}

impl SubarrayFlow {
    /// Builds the functional subarray with the paper's per-mat track split
    /// and an 8-bit, 2-duplicator processor.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for parity with the other constructors.
    pub fn new() -> Result<Self> {
        Ok(SubarrayFlow {
            subarray: Subarray::new(2, 2, 16, 16, 64, 4),
            processor: RmProcessor::new(8, 2),
            to_proc: SegmentedBus::new(BUS_SEGMENTS),
            from_proc: SegmentedBus::new(BUS_SEGMENTS),
            loads: 0,
            scratch: FlowScratch::default(),
        })
    }

    /// Elements per mat row (bytes, at 8-bit words).
    pub fn elements_per_row(&self) -> usize {
        self.subarray.row_bytes()
    }

    /// Rows available.
    pub fn rows(&self) -> usize {
        self.subarray.total_rows()
    }

    /// Host-loads a byte vector starting at `row` (one conversion-full
    /// write per row — this is the host filling memory, not the PIM path).
    ///
    /// # Errors
    ///
    /// Returns a memory error if the span exceeds the subarray.
    pub fn load_vector(&mut self, row: usize, data: &[u8]) -> Result<()> {
        let epr = self.elements_per_row();
        for (i, chunk) in data.chunks(epr).enumerate() {
            let mut padded = vec![0u8; epr];
            padded[..chunk.len()].copy_from_slice(chunk);
            self.subarray.write_row(row + i, &padded)?;
            self.loads += 1;
        }
        Ok(())
    }

    /// Reads a vector back (host path, for verification).
    ///
    /// # Errors
    ///
    /// Returns a memory error if the span exceeds the subarray.
    pub fn read_vector(&mut self, row: usize, len: usize) -> Result<Vec<u8>> {
        let epr = self.elements_per_row();
        let mut out = Vec::with_capacity(len);
        let mut row_data = vec![0u8; epr];
        for i in 0..len.div_ceil(epr) {
            self.subarray.read_row_into(row + i, &mut row_data)?;
            out.extend_from_slice(&row_data);
        }
        out.truncate(len);
        Ok(out)
    }

    /// Streams the rows holding `len` elements from `row` on to the
    /// processor tap via the non-destructive transfer-track path (Figure 13
    /// steps ① and ②) and sets `elements` to those elements. The bus applies
    /// the stream in closed form ([`SegmentedBus::stream_words_into`]);
    /// `words`/`deliveries` are scratch.
    fn stream_to_processor(
        &mut self,
        row: usize,
        len: usize,
        words: &mut Vec<u64>,
        deliveries: &mut Vec<Delivery>,
        elements: &mut Vec<u64>,
    ) -> Result<()> {
        words.clear();
        for i in 0..len.div_ceil(self.elements_per_row()) {
            let (mat, local) = self.subarray.locate_row(row + i)?;
            let mat_ref = self.subarray.mat_mut(mat)?;
            // Non-destructive read: fan-out copy, then shift the replica out.
            // The packed row's first backing word IS the bus word (LSB-first
            // lanes match `pack`'s little-endian byte layout).
            mat_ref.copy_row_to_transfer(local)?;
            let packed = mat_ref.shift_out_transfer_row_packed(local)?;
            words.push(packed.words().first().copied().unwrap_or(0));
        }
        // Pipelined injection: one data segment per couple, empty gaps kept.
        deliveries.clear();
        self.to_proc
            .stream_words_into(0, BUS_SEGMENTS - 1, words, deliveries);
        let epr = self.elements_per_row().min(8);
        elements.clear();
        elements.extend(
            deliveries
                .iter()
                .flat_map(|d| (0..epr).map(move |i| (d.packet.data >> (8 * i)) & 0xFF))
                .take(len),
        );
        Ok(())
    }

    /// Returns the result vector to `dst_row` over the return bus
    /// (Figure 13 steps ④ and ⑤): words shift in, no write operations. The
    /// bus applies the stream in closed form; `words`/`deliveries` are
    /// scratch.
    fn stream_from_processor(
        &mut self,
        dst_row: usize,
        bytes: &[u8],
        words: &mut Vec<u64>,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<()> {
        let epr = self.elements_per_row();
        words.clear();
        words.extend(bytes.chunks(epr).map(|c| {
            let mut padded = vec![0u8; epr];
            padded[..c.len()].copy_from_slice(c);
            pack(&padded)
        }));
        deliveries.clear();
        self.from_proc
            .stream_words_into(0, BUS_SEGMENTS - 1, words, deliveries);
        for (arrived, delivery) in deliveries.iter().enumerate() {
            let data = unpack(delivery.packet.data, epr);
            let packed = rm_core::PackedBits::from_bytes_lsb(&data, epr * 8);
            let (mat, local) = self.subarray.locate_row(dst_row + arrived)?;
            self.subarray
                .mat_mut(mat)?
                .shift_in_row_packed(local, &packed)?;
        }
        Ok(())
    }

    /// Executes a dot product entirely through the PIM path: operand
    /// vectors of `len` elements at `a_row` and `b_row`, 32-bit result
    /// little-endian at `dst_row`. The streams, the operand vectors and the
    /// processor's planes use the flow's own scratch, so a warm dot
    /// allocates only for the mat rows: a packed row per operand row
    /// shifted out, and the packing of the two result rows shifted back in.
    ///
    /// # Errors
    ///
    /// Returns memory errors for bad spans.
    pub fn dot(&mut self, a_row: usize, b_row: usize, len: usize, dst_row: usize) -> Result<u64> {
        let mut s = std::mem::take(&mut self.scratch);
        let result = (|| {
            self.stream_to_processor(a_row, len, &mut s.words, &mut s.deliveries, &mut s.a)?;
            self.stream_to_processor(b_row, len, &mut s.words, &mut s.deliveries, &mut s.b)?;
            // Figure 13 step ③: the RM processor pipeline.
            let (result, _tally) = self.processor.dot_with(&s.a, &s.b, &mut s.proc);
            self.stream_from_processor(
                dst_row,
                &(result as u32).to_le_bytes(),
                &mut s.words,
                &mut s.deliveries,
            )?;
            Ok(result)
        })();
        self.scratch = s;
        result
    }

    /// Row read/write operations performed *after* the host load — the
    /// conversion count of the PIM path. Zero by design.
    pub fn pim_conversions(&self) -> u64 {
        let c = self.subarray.counters();
        (c.reads + c.writes).saturating_sub(self.loads)
    }

    /// Shift operations performed so far (the PIM path's only currency).
    pub fn shifts(&self) -> u64 {
        self.subarray.counters().shifts
            + self.to_proc.segment_shifts()
            + self.from_proc.segment_shifts()
    }
}

/// Row layout used by [`DeviceFlow`] lanes: operand A, operand B, result.
const LANE_A_ROW: usize = 0;
const LANE_B_ROW: usize = 16;
const LANE_DST_ROW: usize = 32;
/// Rows available per operand region (`LANE_B_ROW - LANE_A_ROW`).
const LANE_OPERAND_ROWS: usize = 16;

/// One independent subarray lane of a [`DeviceFlow`]: its own functional
/// hardware plus an optional per-lane shift-fault stream.
#[derive(Debug, Clone)]
struct Lane {
    flow: SubarrayFlow,
    faults: Option<ShiftFaultModel>,
}

impl Lane {
    /// One dot of the operands loaded at the lane's rows. With a fault
    /// model attached, the dot's realized shift total feeds one
    /// deterministic fault draw (an observational reliability overlay: the
    /// per-lane streams are seeded, so tallies are identical at any worker
    /// count).
    fn dot(&mut self, k: usize) -> Result<u64> {
        let before = self.flow.shifts();
        let value = self.flow.dot(LANE_A_ROW, LANE_B_ROW, k, LANE_DST_ROW)?;
        if let Some(fm) = &mut self.faults {
            fm.sample((self.flow.shifts() - before) as usize);
        }
        Ok(value)
    }

    /// Computes every output row assigned to lane `lane_idx` (round-robin
    /// stride `n_lanes`) of `y = A·x`, returning `(row, value)` pairs in row
    /// order.
    fn gemv_rows(
        &mut self,
        a: &[u8],
        x: &[u8],
        m: usize,
        k: usize,
        lane_idx: usize,
        n_lanes: usize,
    ) -> Result<Vec<(usize, u64)>> {
        self.flow.load_vector(LANE_B_ROW, x)?;
        let mut out = Vec::new();
        let mut row = lane_idx;
        while row < m {
            self.flow
                .load_vector(LANE_A_ROW, &a[row * k..(row + 1) * k])?;
            out.push((row, self.dot(k)?));
            row += n_lanes;
        }
        Ok(out)
    }

    /// Computes every output row assigned to this lane of `C = A·B`
    /// (`C[m,n]`, round-robin over output rows), returning
    /// `(row, values[n])` pairs in row order.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        &mut self,
        a: &[u8],
        b: &[u8],
        m: usize,
        k: usize,
        n: usize,
        lane_idx: usize,
        n_lanes: usize,
    ) -> Result<Vec<(usize, Vec<u64>)>> {
        let mut out = Vec::new();
        let mut col = vec![0u8; k];
        let mut row = lane_idx;
        while row < m {
            self.flow
                .load_vector(LANE_A_ROW, &a[row * k..(row + 1) * k])?;
            let mut values = Vec::with_capacity(n);
            for j in 0..n {
                for (i, byte) in col.iter_mut().enumerate() {
                    *byte = b[i * n + j];
                }
                self.flow.load_vector(LANE_B_ROW, &col)?;
                values.push(self.dot(k)?);
            }
            out.push((row, values));
            row += n_lanes;
        }
        Ok(out)
    }
}

/// Aggregate hardware/fault activity of a [`DeviceFlow`], merged over the
/// lanes in lane order (so the totals are identical at any worker count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceFlowStats {
    /// Shift operations across all lanes (mats + both buses).
    pub shifts: u64,
    /// Row reads/writes on the PIM path (zero by design).
    pub pim_conversions: u64,
    /// Shift-fault draws taken across all lane fault streams.
    pub faults_sampled: u64,
    /// Faults injected across all lane fault streams.
    pub faults_injected: u64,
}

/// A functional multi-subarray device: independent [`SubarrayFlow`] lanes
/// with output rows distributed round-robin, exactly the hardware
/// independence boundary the analytic engine shards on. `gemv`/`gemm` run
/// the lanes on scoped OS threads under a [`Parallelism`] level; each lane
/// owns disjoint hardware and a seeded fault stream, and results and
/// counters are reduced in lane order — so every output is byte-identical
/// to the serial run at any worker count.
#[derive(Debug, Clone)]
pub struct DeviceFlow {
    lanes: Vec<Lane>,
}

impl DeviceFlow {
    /// Builds a device with `lanes` independent subarray lanes (at least 1).
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for parity with [`SubarrayFlow::new`].
    pub fn new(lanes: usize) -> Result<Self> {
        let lanes = (0..lanes.max(1))
            .map(|_| {
                Ok(Lane {
                    flow: SubarrayFlow::new()?,
                    faults: None,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DeviceFlow { lanes })
    }

    /// Attaches a per-lane shift-fault model: lane `s` draws from a stream
    /// seeded `base_seed ^ s`, so fault tallies are a function of the work
    /// assignment alone, never of the worker count.
    pub fn with_fault_model(mut self, p_over: f64, p_under: f64, base_seed: u64) -> Self {
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            lane.faults = Some(ShiftFaultModel::new(p_over, p_under, base_seed ^ s as u64));
        }
        self
    }

    /// Number of subarray lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Longest operand vector a lane can hold.
    pub fn max_len(&self) -> usize {
        self.lanes[0].flow.elements_per_row() * LANE_OPERAND_ROWS
    }

    /// Matrix–vector product `y = A·x` (`A` row-major `m×k` of bytes)
    /// through the functional PIM path, output rows round-robin over the
    /// lanes, lanes sharded across `parallelism` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] for inconsistent dimensions or
    /// operands longer than [`DeviceFlow::max_len`].
    pub fn gemv(
        &mut self,
        a: &[u8],
        x: &[u8],
        m: usize,
        k: usize,
        parallelism: Parallelism,
    ) -> Result<Vec<u64>> {
        self.check_shape(a.len(), m, k, x.len(), k, 1)?;
        let n_lanes = self.lanes.len();
        let workers = parallelism.resolve_here().min(n_lanes);
        let shards = rm_core::run_sharded(&mut self.lanes, workers, |s, lane| {
            lane.gemv_rows(a, x, m, k, s, n_lanes)
        });
        let mut y = vec![0u64; m];
        for shard in shards {
            for (row, value) in shard? {
                y[row] = value;
            }
        }
        Ok(y)
    }

    /// Matrix–matrix product `C = A·B` (`A` `m×k`, `B` `k×n`, both
    /// row-major bytes) through the functional PIM path, output rows
    /// round-robin over the lanes, lanes sharded across `parallelism`
    /// worker threads. Returns `C` row-major.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] for inconsistent dimensions or
    /// operands longer than [`DeviceFlow::max_len`].
    pub fn gemm(
        &mut self,
        a: &[u8],
        b: &[u8],
        m: usize,
        k: usize,
        n: usize,
        parallelism: Parallelism,
    ) -> Result<Vec<u64>> {
        self.check_shape(a.len(), m, k, b.len(), k, n)?;
        let n_lanes = self.lanes.len();
        let workers = parallelism.resolve_here().min(n_lanes);
        let shards = rm_core::run_sharded(&mut self.lanes, workers, |s, lane| {
            lane.gemm_rows(a, b, m, k, n, s, n_lanes)
        });
        let mut c = vec![0u64; m * n];
        for shard in shards {
            for (row, values) in shard? {
                c[row * n..(row + 1) * n].copy_from_slice(&values);
            }
        }
        Ok(c)
    }

    /// Aggregate activity counters, merged in lane order.
    pub fn stats(&self) -> DeviceFlowStats {
        let mut stats = DeviceFlowStats::default();
        for lane in &self.lanes {
            stats.shifts += lane.flow.shifts();
            stats.pim_conversions += lane.flow.pim_conversions();
            if let Some(fm) = &lane.faults {
                stats.faults_sampled += fm.shifts_sampled();
                stats.faults_injected += fm.faults_injected();
            }
        }
        stats
    }

    fn check_shape(
        &self,
        a_len: usize,
        m: usize,
        k: usize,
        b_len: usize,
        b_rows: usize,
        b_cols: usize,
    ) -> Result<()> {
        if a_len != m * k || b_len != b_rows * b_cols || m == 0 || k == 0 || b_cols == 0 {
            return Err(PimError::ShapeMismatch {
                detail: format!(
                    "gemv/gemm operands {a_len}x{b_len} do not match m={m} k={k} n={b_cols}"
                ),
            });
        }
        if k > self.max_len() {
            return Err(PimError::ShapeMismatch {
                detail: format!("k={k} exceeds lane capacity {}", self.max_len()),
            });
        }
        Ok(())
    }
}

/// Packs up to 8 row bytes into a bus word.
fn pack(bytes: &[u8]) -> u64 {
    let mut w = 0u64;
    for (i, &b) in bytes.iter().take(8).enumerate() {
        w |= (b as u64) << (8 * i);
    }
    w
}

/// Unpacks a bus word back into `n` row bytes.
fn unpack(word: u64, n: usize) -> Vec<u8> {
    (0..n.min(8)).map(|i| (word >> (8 * i)) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_through_the_full_path_matches_host() {
        let mut flow = SubarrayFlow::new().unwrap();
        let a: Vec<u8> = (1..=10).collect();
        let b: Vec<u8> = (11..=20).collect();
        flow.load_vector(0, &a).unwrap();
        flow.load_vector(16, &b).unwrap();
        let got = flow.dot(0, 16, 10, 40).unwrap();
        let expect: u64 = a.iter().zip(&b).map(|(&x, &y)| x as u64 * y as u64).sum();
        assert_eq!(got, expect);
        // The result really landed in the destination rows.
        let stored = flow.read_vector(40, 4).unwrap();
        assert_eq!(
            u32::from_le_bytes(stored.try_into().unwrap()) as u64,
            expect
        );
    }

    #[test]
    fn pim_path_performs_zero_conversions() {
        let mut flow = SubarrayFlow::new().unwrap();
        flow.load_vector(0, &[3, 5, 7, 9]).unwrap();
        flow.load_vector(16, &[2, 4, 6, 8]).unwrap();
        let loads_only = flow.pim_conversions();
        assert_eq!(loads_only, 0, "nothing but loads so far");
        let _ = flow.dot(0, 16, 4, 40).unwrap();
        // The paper's claim: the PIM data path is pure shift.
        assert_eq!(flow.pim_conversions(), 0, "no reads/writes on the PIM path");
        assert!(flow.shifts() > 0, "shifts did all the work");
    }

    #[test]
    fn operands_survive_the_non_destructive_read() {
        let mut flow = SubarrayFlow::new().unwrap();
        let a: Vec<u8> = vec![10, 20, 30, 40, 50, 60];
        flow.load_vector(0, &a).unwrap();
        flow.load_vector(16, &a).unwrap();
        let _ = flow.dot(0, 16, 6, 40).unwrap();
        assert_eq!(
            flow.read_vector(0, 6).unwrap(),
            a,
            "save tracks keep the data"
        );
    }

    #[test]
    fn bus_counters_after_a_dot_sequence_are_frozen() {
        // Every hop, inject and delivery of both buses over dots of several
        // lengths, frozen so a stream rewrite cannot move them unnoticed.
        let mut flow = SubarrayFlow::new().unwrap();
        let a: Vec<u8> = (0..32u32).map(|i| (i * 37 + 5) as u8).collect();
        let b: Vec<u8> = (0..32u32).map(|i| (i * 91 + 3) as u8).collect();
        flow.load_vector(0, &a).unwrap();
        flow.load_vector(16, &b).unwrap();
        let results: Vec<u64> = [(32, 32), (1, 40), (7, 48), (17, 34), (2, 32)]
            .into_iter()
            .map(|(len, dst)| flow.dot(0, 16, len, dst).unwrap())
            .collect();
        let counters = |bus: &SegmentedBus| {
            [
                bus.cycles(),
                bus.injected(),
                bus.delivered(),
                bus.segment_shifts(),
            ]
        };
        assert_eq!(
            (
                results,
                counters(&flow.to_proc),
                counters(&flow.from_proc),
                flow.shifts()
            ),
            (
                vec![437840, 15, 84660, 227223, 3963],
                [174, 62, 62, 434],
                [45, 10, 10, 70],
                683
            )
        );
    }

    #[test]
    fn repeated_dots_reuse_the_same_hardware() {
        let mut flow = SubarrayFlow::new().unwrap();
        flow.load_vector(0, &[1, 1, 1, 1]).unwrap();
        flow.load_vector(16, &[2, 2, 2, 2]).unwrap();
        for _ in 0..3 {
            assert_eq!(flow.dot(0, 16, 4, 40).unwrap(), 8);
        }
    }

    #[test]
    fn device_flow_gemv_matches_host_math_at_any_worker_count() {
        let (m, k) = (7usize, 6usize);
        let a: Vec<u8> = (0..(m * k) as u32).map(|i| (i * 13 % 97) as u8).collect();
        let x: Vec<u8> = (0..k as u32).map(|i| (i * 7 + 3) as u8).collect();
        let expect: Vec<u64> = (0..m)
            .map(|r| (0..k).map(|c| a[r * k + c] as u64 * x[c] as u64).sum())
            .collect();
        let mut serial = DeviceFlow::new(4).unwrap().with_fault_model(0.05, 0.02, 99);
        let y0 = serial.gemv(&a, &x, m, k, Parallelism::Serial).unwrap();
        assert_eq!(y0, expect, "functional path matches host math");
        assert!(serial.stats().faults_sampled > 0, "fault overlay sampled");
        assert_eq!(serial.stats().pim_conversions, 0, "conversion-free");
        for workers in [1usize, 2, 3, 16] {
            let mut df = DeviceFlow::new(4).unwrap().with_fault_model(0.05, 0.02, 99);
            let y = df
                .gemv(&a, &x, m, k, Parallelism::Threads(workers))
                .unwrap();
            assert_eq!(y, y0, "{workers} workers");
            assert_eq!(df.stats(), serial.stats(), "{workers} workers, stats");
        }
    }

    #[test]
    fn device_flow_gemm_matches_host_math() {
        let (m, k, n) = (3usize, 4usize, 2usize);
        let a: Vec<u8> = (1..=(m * k) as u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (1..=(k * n) as u32).map(|i| (i * 3) as u8).collect();
        let expect: Vec<u64> = (0..m)
            .flat_map(|i| {
                let a = &a;
                let b = &b;
                (0..n).map(move |j| {
                    (0..k)
                        .map(|l| a[i * k + l] as u64 * b[l * n + j] as u64)
                        .sum()
                })
            })
            .collect();
        let mut serial = DeviceFlow::new(2).unwrap();
        let c0 = serial.gemm(&a, &b, m, k, n, Parallelism::Serial).unwrap();
        assert_eq!(c0, expect);
        let mut threaded = DeviceFlow::new(2).unwrap();
        let c = threaded
            .gemm(&a, &b, m, k, n, Parallelism::Threads(2))
            .unwrap();
        assert_eq!(c, c0);
        assert_eq!(threaded.stats(), serial.stats());
    }

    #[test]
    fn device_flow_rejects_bad_shapes() {
        let mut df = DeviceFlow::new(2).unwrap();
        assert!(df.gemv(&[1, 2], &[1], 2, 2, Parallelism::Serial).is_err());
        let too_long = df.max_len() + 1;
        let a = vec![1u8; too_long];
        let x = vec![1u8; too_long];
        assert!(df.gemv(&a, &x, 1, too_long, Parallelism::Serial).is_err());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF];
        assert_eq!(unpack(pack(&bytes), 4), bytes);
        assert_eq!(pack(&[]), 0);
    }
}
