//! The w-bit scalar multiplier: AND partial products + adder tree
//! (paper Figure 8).
//!
//! A scalar multiplication `A * B` proceeds in three steps: duplicate `A`
//! once per bit of `B` (done by the [`crate::duplicator`]), AND each replica
//! with one bit of `B` to form partial products, and sum the shifted partial
//! products with the adder tree. This module implements steps two and three;
//! the processor pipeline in `rm-proc` wires the duplicator in front.

use crate::adder_tree::AdderTree;
use crate::cost::GateTally;
use crate::gate::{and, charge_and};
use rm_core::wide::{transpose64, GROUP_LANES};
use serde::{Deserialize, Serialize};

/// A multiplier for `width`-bit operands producing `2*width`-bit products.
///
/// ```
/// use dw_logic::{GateTally, Multiplier};
///
/// let m = Multiplier::new(8);
/// let mut tally = GateTally::new();
/// assert_eq!(m.multiply(0xFF, 0xFF, &mut tally), 0xFE01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Multiplier {
    width: u32,
    tree: AdderTree,
}

impl Multiplier {
    /// Creates a multiplier for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=31` (the product needs `2*width`
    /// bits, staged in `u64` through the adder tree).
    pub fn new(width: u32) -> Self {
        assert!((1..=31).contains(&width), "width must be in 1..=31");
        Multiplier {
            width,
            tree: AdderTree::new(2 * width),
        }
    }

    /// Operand width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Forms the `width` partial products of `a * b` from replicas of `a`
    /// (one AND per product bit), already shifted into position.
    ///
    /// `replicas` must contain at least `width` copies of `a`; in the real
    /// pipeline these come from the duplicator bank.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` replicas are supplied.
    pub fn partial_products(&self, replicas: &[u64], b: u64, tally: &mut GateTally) -> Vec<u64> {
        assert!(
            replicas.len() >= self.width as usize,
            "need {} replicas, got {}",
            self.width,
            replicas.len()
        );
        let mask = (1u64 << self.width) - 1;
        (0..self.width)
            .map(|i| {
                let a = replicas[i as usize] & mask;
                let bit = (b >> i) & 1 == 1;
                // One AND gate per bit of the replica.
                let mut pp = 0u64;
                for j in 0..self.width {
                    let abit = (a >> j) & 1 == 1;
                    if and(abit, bit, tally) {
                        pp |= 1 << j;
                    }
                }
                pp << i
            })
            .collect()
    }

    /// Multiplies `a * b` (operands masked to `width` bits), tallying every
    /// gate traversal, and returns the exact `2*width`-bit product.
    pub fn multiply(&self, a: u64, b: u64, tally: &mut GateTally) -> u64 {
        let mask = (1u64 << self.width) - 1;
        let a = a & mask;
        let replicas = vec![a; self.width as usize];
        let pps = self.partial_products(&replicas, b & mask, tally);
        self.tree.sum(&pps, tally)
    }

    /// Latency in cycles of the combinational part (partial products are one
    /// gate traversal; the tree dominates).
    pub fn latency_cycles(&self) -> u64 {
        1 + self.tree.latency_cycles(self.width as usize)
    }

    /// Multiplies many independent `a[i] * b[i]` pairs with word-parallel
    /// gate lanes: operands are transposed to bit planes, the `width²` AND
    /// partial-product gates and the adder tree evaluate up to
    /// [`GROUP_LANES`] lanes per kernel call, and the products are
    /// transposed back. Results and gate tallies are identical to calling
    /// [`Self::multiply`] once per pair.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn multiply_many(&self, a: &[u64], b: &[u64], tally: &mut GateTally) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        self.multiply_many_into(a, b, tally, &mut Vec::new(), &mut out);
        out
    }

    /// [`Self::multiply_many`] with caller-provided buffers: products are
    /// appended to `out`, and `planes` holds the whole plane datapath, so a
    /// caller that reuses both across calls allocates nothing once they
    /// have grown. `planes`' contents on entry are ignored. Results and
    /// tallies are identical to [`Self::multiply_many`].
    ///
    /// Operands are taken in word-groups of up to [`GROUP_LANES`] lanes, `g`
    /// lane-words per bit plane. Per group, `planes` is one flat buffer: the
    /// `width` planes of each operand, then `width` tree operands of
    /// `2 * width` planes each. Operand planes come from a word-level
    /// [`transpose64`] of 64 lanes at a time. Tree operand `i` is partial
    /// product `(a AND b_i) << i`: its plane `i + j` is the AND of `a`'s plane
    /// `j` with `b`'s plane `i`, and its other planes are zero. The adder
    /// tree then sums the operands in place with [`AdderTree::sum`]'s
    /// pairing; the product planes end in operand 0 and are transposed
    /// back. The AND lanes and the tree charge the tally what the scalar
    /// gate compositions charge.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn multiply_many_into(
        &self,
        a: &[u64],
        b: &[u64],
        tally: &mut GateTally,
        planes: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(a.len(), b.len(), "operand vectors must pair up");
        let w = self.width as usize;
        let pw = 2 * w;
        let mask = (1u64 << self.width) - 1;
        out.reserve(a.len());
        let mut buf = [0u64; 64];
        for (ca, cb) in a.chunks(GROUP_LANES).zip(b.chunks(GROUP_LANES)) {
            let lanes = ca.len();
            let g = lanes.div_ceil(64);
            let operand_words = w * g;
            let tree_words = pw * g;
            planes.clear();
            planes.resize(2 * operand_words + w * tree_words, 0);
            let (operands, tree) = planes.split_at_mut(2 * operand_words);
            // Forward transpose, 64 lanes at a time: plane i of lane-word
            // column wi lives at [i * g + wi].
            for (values, dst) in [(ca, 0), (cb, operand_words)] {
                for (wi, sub) in values.chunks(64).enumerate() {
                    buf.fill(0);
                    for (slot, &v) in buf.iter_mut().zip(sub) {
                        *slot = v & mask;
                    }
                    transpose64(&mut buf);
                    for (i, &plane) in buf[..w].iter().enumerate() {
                        operands[dst + i * g + wi] = plane;
                    }
                }
            }
            let (a_planes, b_planes) = operands.split_at(operand_words);
            for (i, pp) in tree.chunks_exact_mut(tree_words).enumerate() {
                let b_i = &b_planes[i * g..(i + 1) * g];
                let shifted = &mut pp[i * g..(i + w) * g];
                for (dst, a_j) in shifted.chunks_exact_mut(g).zip(a_planes.chunks_exact(g)) {
                    for ((d, &x), &y) in dst.iter_mut().zip(a_j).zip(b_i) {
                        *d = x & y;
                    }
                }
            }
            charge_and((w * w * lanes) as u64, tally);
            self.tree.sum_planes_in_place(tree, g, lanes as u64, tally);
            // Back-transpose operand 0 per lane-word column.
            for (wi, sub) in ca.chunks(64).enumerate() {
                buf.fill(0);
                for (slot, &plane) in buf.iter_mut().zip(tree[wi..tree_words].iter().step_by(g)) {
                    *slot = plane;
                }
                transpose64(&mut buf);
                out.extend_from_slice(&buf[..sub.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_4bit() {
        let m = Multiplier::new(4);
        let mut t = GateTally::new();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(m.multiply(a, b, &mut t), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn sampled_8bit() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        for a in (0u64..256).step_by(5) {
            for b in (0u64..256).step_by(7) {
                assert_eq!(m.multiply(a, b, &mut t), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn masks_operands_to_width() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        assert_eq!(m.multiply(0x1FF, 2, &mut t), 0xFF * 2);
    }

    #[test]
    fn partial_products_are_shifted_ands() {
        let m = Multiplier::new(4);
        let mut t = GateTally::new();
        let pps = m.partial_products(&[0b1011; 4], 0b0101, &mut t);
        assert_eq!(pps, vec![0b1011, 0, 0b1011 << 2, 0]);
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn partial_products_need_enough_replicas() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        let _ = m.partial_products(&[1; 3], 1, &mut t);
    }

    #[test]
    fn gate_cost_is_quadratic_in_width() {
        let mut t4 = GateTally::new();
        Multiplier::new(4).multiply(5, 5, &mut t4);
        let mut t8 = GateTally::new();
        Multiplier::new(8).multiply(5, 5, &mut t8);
        // AND gates: width^2 ANDs = width^2 NAND+NOT pairs.
        assert_eq!(t4.nand - count_tree_nands(4), 16);
        assert_eq!(t8.nand - count_tree_nands(8), 64);
        assert!(t8.total() > t4.total());
    }

    fn count_tree_nands(width: u64) -> u64 {
        // The tree performs (width - 1) adds of 2*width bits, 9 NANDs per bit.
        (width - 1) * 2 * width * 9
    }

    #[test]
    fn multiply_many_matches_scalar_multiply_and_tally() {
        let m = Multiplier::new(8);
        // More than one 64-lane chunk to exercise the chunking.
        let a: Vec<u64> = (0..100).map(|i| (i * 37) % 256).collect();
        let b: Vec<u64> = (0..100).map(|i| (i * 91 + 13) % 256).collect();
        let mut tw = GateTally::new();
        let products = m.multiply_many(&a, &b, &mut tw);
        let mut ts = GateTally::new();
        for i in 0..a.len() {
            assert_eq!(products[i], m.multiply(a[i], b[i], &mut ts), "pair {i}");
            assert_eq!(products[i], a[i] * b[i], "pair {i} exact");
        }
        assert_eq!(tw, ts);
    }

    #[test]
    fn multiply_many_matches_scalar_across_group_boundaries() {
        // Cross the 64-lane word and 512-lane group boundaries with ragged
        // tails, at an odd width (an unpaired tree operand every level) and
        // through one reused plane buffer.
        for width in [8u32, 5] {
            let m = Multiplier::new(width);
            let mut planes = Vec::new();
            for n in [1usize, 63, 64, 65, 511, 512, 700] {
                let a: Vec<u64> = (0..n as u64).map(|i| i * 37 + 5).collect();
                let b: Vec<u64> = (0..n as u64).map(|i| i * 91 + 13).collect();
                let mut tg = GateTally::new();
                let mut wide = vec![7];
                m.multiply_many_into(&a, &b, &mut tg, &mut planes, &mut wide);
                let mut ts = GateTally::new();
                let scalar: Vec<u64> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| m.multiply(x, y, &mut ts))
                    .collect();
                assert_eq!(wide[0], 7, "products append to `out`");
                assert_eq!(wide[1..], scalar, "products at width {width}, {n} lanes");
                assert_eq!(tg, ts, "tally at width {width}, {n} lanes");
            }
        }
    }

    #[test]
    fn multiply_many_empty_is_empty() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        assert!(m.multiply_many(&[], &[], &mut t).is_empty());
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn latency_grows_with_width() {
        assert!(Multiplier::new(8).latency_cycles() > Multiplier::new(4).latency_cycles());
    }
}
