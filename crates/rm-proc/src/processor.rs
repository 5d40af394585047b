//! Bit-accurate functional datapath of the RM processor.
//!
//! Wires the `dw-logic` structures together exactly as Figure 11 describes:
//! duplicator bank → multiplier (partial products) → adder tree → circle
//! adder. Every gate traversal is tallied, so small-scale runs double as
//! energy ground truth for the closed-form model. The [`GateTally`] each
//! call returns is the datapath's only observation channel: nothing here
//! takes an attribution probe.

use crate::op::ProcOp;
use crate::pipeline::PipelineModel;
use dw_logic::adder_tree::AdderTree;
use dw_logic::circle_adder::CircleAdder;
use dw_logic::cost::GateTally;
use dw_logic::duplicator::DuplicatorBank;
use dw_logic::multiplier::Multiplier;

/// Caller-provided scratch for the processor's vector hot paths.
///
/// Holds the multiplier's plane datapath and the product stream of
/// [`RmProcessor::dot_with`], so a caller looping over many rows (or a
/// shard of a parallel run) reuses two buffers instead of allocating per
/// call: once they have grown to the longest vector seen, a dot allocates
/// nothing. Scratch lives *outside* the processor on purpose: differential
/// tests compare whole processors with `==`, and transient buffers must not
/// participate in that state.
#[derive(Debug, Clone, Default)]
pub struct ProcScratch {
    planes: Vec<u64>,
    products: Vec<u64>,
}

impl ProcScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        ProcScratch::default()
    }
}

/// A functional RM processor for `width`-bit elements.
///
/// The accumulator is 64-bit (wrapping), comfortably holding dot products of
/// any realistic vector length of `width ≤ 16` elements.
///
/// ```
/// use rm_proc::RmProcessor;
///
/// let mut proc = RmProcessor::new(8, 2);
/// let (result, tally) = proc.dot(&[1, 2, 3], &[4, 5, 6]);
/// assert_eq!(result, 32);
/// assert!(tally.total() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RmProcessor {
    width: u32,
    duplicators: DuplicatorBank,
    multiplier: Multiplier,
    product_tree: AdderTree,
    circle: CircleAdder,
    ops_executed: u64,
}

impl RmProcessor {
    /// Creates a processor for `width`-bit elements with `duplicators`
    /// duplicator units.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=16` or `duplicators` is zero.
    pub fn new(width: u32, duplicators: u32) -> Self {
        assert!(
            (1..=16).contains(&width),
            "functional processor supports widths 1..=16"
        );
        RmProcessor {
            width,
            duplicators: DuplicatorBank::new(duplicators, width),
            multiplier: Multiplier::new(width),
            product_tree: AdderTree::new(2 * width),
            circle: CircleAdder::new(63),
            ops_executed: 0,
        }
    }

    /// Element width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Vector operations executed so far.
    #[inline]
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// One scalar multiplication through stages 1-3, returning the exact
    /// `2*width`-bit product.
    pub fn scalar_mul(&mut self, a: u64, b: u64, tally: &mut GateTally) -> u64 {
        // Stage 2a: the duplicator bank replicates `a` once per bit of `b`.
        let (replicas, _cycles) = self.duplicators.replicate(a, self.width as usize, tally);
        // Stage 2b: AND replicas against the bits of `b`.
        let pps = self
            .multiplier
            .partial_products(&replicas, b & self.mask(), tally);
        // Stage 3: the adder tree sums the partial products.
        self.product_tree.sum(&pps, tally)
    }

    /// Dot product of two element slices (values masked to `width` bits).
    ///
    /// Runs the plane datapath: the duplicator bank accounts all
    /// replications in bulk, the multiplier evaluates up to
    /// [`rm_core::wide::GROUP_LANES`] scalar products per kernel call
    /// ([`Multiplier::multiply_many_into`]), and the circle adder
    /// accumulates the product stream in one pass. Results, gate tallies,
    /// and unit state are identical to [`Self::dot_scalar`].
    ///
    /// Returns the result and the accumulated gate tally.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, a: &[u64], b: &[u64]) -> (u64, GateTally) {
        self.dot_with(a, b, &mut ProcScratch::new())
    }

    /// [`Self::dot`] with caller-provided scratch: the multiplier's planes
    /// and the product stream land in `scratch` instead of fresh
    /// allocations, so a warm per-row caller (or shard) allocates nothing.
    /// Result, tally, and unit state are identical to [`Self::dot`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_with(
        &mut self,
        a: &[u64],
        b: &[u64],
        scratch: &mut ProcScratch,
    ) -> (u64, GateTally) {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
        let mut tally = GateTally::new();
        self.circle.reset();
        // Stage 2a: one replicate call per element, accounted in bulk.
        self.duplicators
            .replicate_bulk(self.width as usize, a.len() as u64, &mut tally);
        // Stages 2b-3: plane-form partial products and adder tree, up to a
        // word-group of elements per kernel call. Operands are masked inside
        // the transpose.
        scratch.products.clear();
        self.multiplier.multiply_many_into(
            a,
            b,
            &mut tally,
            &mut scratch.planes,
            &mut scratch.products,
        );
        // Stage 4: the circle adder accumulates the product stream.
        self.circle.accumulate_many(&scratch.products, &mut tally);
        self.ops_executed += 1;
        (self.circle.take_result(), tally)
    }

    /// Serial reference datapath for [`Self::dot`]: one element at a time
    /// through duplicators → multiplier → tree → circle adder. Retained for
    /// differential tests; the plane datapath must match it bit-for-bit in
    /// result, tally, and unit state.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_scalar(&mut self, a: &[u64], b: &[u64]) -> (u64, GateTally) {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
        let mut tally = GateTally::new();
        self.circle.reset();
        for (&x, &y) in a.iter().zip(b) {
            let product = self.scalar_mul(x & self.mask(), y & self.mask(), &mut tally);
            // Stage 4: the circle adder accumulates.
            self.circle.accumulate(product, &mut tally);
        }
        self.ops_executed += 1;
        (self.circle.take_result(), tally)
    }

    /// Element-wise vector addition (stages 1-3 bypassed; circle adder in
    /// scalar mode). Sums wrap at `width + 1` bits — the carry-out travels
    /// with the result, as in the ripple adder.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vadd(&mut self, a: &[u64], b: &[u64]) -> (Vec<u64>, GateTally) {
        assert_eq!(
            a.len(),
            b.len(),
            "vector addition needs equal-length vectors"
        );
        let mut tally = GateTally::new();
        let av: Vec<u64> = a.iter().map(|&x| x & self.mask()).collect();
        let bv: Vec<u64> = b.iter().map(|&y| y & self.mask()).collect();
        let out = self
            .circle
            .scalar_add_many(&av, &bv, &mut tally)
            .into_iter()
            .map(|(sum, carry)| sum | ((carry as u64) << self.width))
            .collect();
        self.ops_executed += 1;
        (out, tally)
    }

    /// Serial reference for [`Self::vadd`], retained for differential tests.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vadd_scalar(&mut self, a: &[u64], b: &[u64]) -> (Vec<u64>, GateTally) {
        assert_eq!(
            a.len(),
            b.len(),
            "vector addition needs equal-length vectors"
        );
        let mut tally = GateTally::new();
        let out = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let (sum, carry) =
                    self.circle
                        .scalar_add(x & self.mask(), y & self.mask(), &mut tally);
                sum | ((carry as u64) << self.width)
            })
            .collect();
        self.ops_executed += 1;
        (out, tally)
    }

    /// Scalar-vector multiplication: duplicates `s` repeatedly and pipelines
    /// scalar multiplications (circle adder bypassed). Word-parallel like
    /// [`Self::dot`]; [`Self::svmul_scalar`] is the serial reference.
    pub fn svmul(&mut self, s: u64, v: &[u64]) -> (Vec<u64>, GateTally) {
        let mut tally = GateTally::new();
        self.duplicators
            .replicate_bulk(self.width as usize, v.len() as u64, &mut tally);
        let sv = vec![s; v.len()];
        let out = self.multiplier.multiply_many(&sv, v, &mut tally);
        self.ops_executed += 1;
        (out, tally)
    }

    /// Serial reference for [`Self::svmul`], retained for differential tests.
    pub fn svmul_scalar(&mut self, s: u64, v: &[u64]) -> (Vec<u64>, GateTally) {
        let mut tally = GateTally::new();
        let out = v
            .iter()
            .map(|&x| self.scalar_mul(s, x, &mut tally))
            .collect();
        self.ops_executed += 1;
        (out, tally)
    }

    /// The pipeline cost model matching this processor's configuration,
    /// given the row width (save tracks per mat).
    pub fn pipeline_model(&self, save_tracks: u32) -> PipelineModel {
        PipelineModel::new(self.width, self.duplicators.count() as u32, save_tracks)
    }

    /// Cost of `op` under this processor's pipeline model (convenience).
    pub fn cost(&self, op: ProcOp, save_tracks: u32) -> crate::op::ProcCost {
        self.pipeline_model(save_tracks).cost(op)
    }

    fn mask(&self) -> u64 {
        (1u64 << self.width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_mul_matches_host() {
        let mut p = RmProcessor::new(8, 2);
        let mut t = GateTally::new();
        for (a, b) in [(0, 0), (1, 1), (255, 255), (17, 13), (128, 2)] {
            assert_eq!(p.scalar_mul(a, b, &mut t), a * b);
        }
    }

    #[test]
    fn dot_matches_host() {
        let mut p = RmProcessor::new(8, 2);
        let a = [1u64, 2, 3, 4, 5];
        let b = [10u64, 20, 30, 40, 50];
        let (r, tally) = p.dot(&a, &b);
        assert_eq!(r, 550);
        assert!(tally.fanout > 0, "duplications happened");
        assert!(tally.nand > 0, "adders ran");
        assert_eq!(p.ops_executed(), 1);
    }

    #[test]
    fn dot_masks_oversized_elements() {
        let mut p = RmProcessor::new(8, 2);
        let (r, _) = p.dot(&[0x1FF], &[2]);
        assert_eq!(r, 0xFF * 2);
    }

    #[test]
    fn vadd_matches_host_with_carry() {
        let mut p = RmProcessor::new(8, 2);
        let (out, _) = p.vadd(&[200, 1], &[100, 2]);
        assert_eq!(out, vec![300, 3]);
    }

    #[test]
    fn svmul_matches_host() {
        let mut p = RmProcessor::new(8, 1);
        let (out, _) = p.svmul(7, &[0, 1, 2, 36]);
        assert_eq!(out, vec![0, 7, 14, 252]);
    }

    #[test]
    fn empty_vectors_are_fine() {
        let mut p = RmProcessor::new(8, 2);
        let (r, tally) = p.dot(&[], &[]);
        assert_eq!(r, 0);
        assert_eq!(tally.total(), 0);
        let (out, _) = p.vadd(&[], &[]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn dot_length_mismatch_panics() {
        let mut p = RmProcessor::new(8, 2);
        let _ = p.dot(&[1], &[1, 2]);
    }

    #[test]
    fn sixteen_bit_width_works() {
        let mut p = RmProcessor::new(16, 2);
        let (r, _) = p.dot(&[60_000, 2], &[60_000, 3]);
        assert_eq!(r, 60_000u64 * 60_000 + 6);
    }

    #[test]
    fn gate_energy_consistency_dot_vs_components() {
        // A 1-element dot product tallies exactly one scalar_mul plus one
        // circle accumulation.
        let mut p1 = RmProcessor::new(8, 2);
        let (_, t_dot) = p1.dot(&[123], &[45]);
        let mut p2 = RmProcessor::new(8, 2);
        let mut t_parts = GateTally::new();
        let product = p2.scalar_mul(123, 45, &mut t_parts);
        let mut circle = CircleAdder::new(63);
        circle.accumulate(product, &mut t_parts);
        assert_eq!(t_dot, t_parts);
    }

    #[test]
    fn dot_with_reuses_scratch_and_matches_dot() {
        let a: Vec<u64> = (0..130).map(|i| i * 11 % 256).collect();
        let b: Vec<u64> = (0..130).map(|i| i * 5 + 2).collect();
        let mut with = RmProcessor::new(8, 2);
        let mut plain = RmProcessor::new(8, 2);
        let mut scratch = ProcScratch::new();
        for _ in 0..3 {
            let (rw, tw) = with.dot_with(&a, &b, &mut scratch);
            let (rp, tp) = plain.dot(&a, &b);
            assert_eq!((rw, tw), (rp, tp));
        }
        assert_eq!(with, plain, "scratch must stay out of processor state");
    }

    #[test]
    fn word_dot_matches_scalar_dot_state_and_tally() {
        let a: Vec<u64> = (0..150).map(|i| i * 37 % 256).collect();
        let b: Vec<u64> = (0..150).map(|i| i * 91 + 13).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.dot(&a, &b);
        let (rs, ts) = ps.dot_scalar(&a, &b);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps, "all duplicator/circle/diode state must match");
    }

    #[test]
    fn dot_matches_scalar_dot_across_the_group_boundary() {
        // Cross the 512-lane group boundary with a ragged tail.
        let a: Vec<u64> = (0..600).map(|i| i * 37 % 256).collect();
        let b: Vec<u64> = (0..600).map(|i| i * 91 + 13).collect();
        let mut pg = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rg, tg) = pg.dot(&a, &b);
        let (rs, ts) = ps.dot_scalar(&a, &b);
        assert_eq!(rg, rs);
        assert_eq!(tg, ts);
        assert_eq!(pg, ps, "all duplicator/circle/diode state must match");
    }

    #[test]
    fn word_vadd_matches_scalar_vadd_state_and_tally() {
        let a: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..100).map(|i| 255 - i).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.vadd(&a, &b);
        let (rs, ts) = ps.vadd_scalar(&a, &b);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps);
    }

    #[test]
    fn word_svmul_matches_scalar_svmul_state_and_tally() {
        let v: Vec<u64> = (0..100).map(|i| i * 7 % 256).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.svmul(0xAB, &v);
        let (rs, ts) = ps.svmul_scalar(0xAB, &v);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps);
    }

    #[test]
    fn cost_model_accessible() {
        let p = RmProcessor::new(8, 2);
        let model = p.pipeline_model(512);
        assert_eq!(model.lanes, 64);
        let c = p.cost(ProcOp::VectorAdd { n: 64 }, 512);
        assert!(c.cycles > 0);
    }
}
