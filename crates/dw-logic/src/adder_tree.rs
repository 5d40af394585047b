//! Multi-operand adder tree for summing partial products (paper §III-C).

use crate::adder::RippleCarryAdder;
use crate::cost::GateTally;
use serde::{Deserialize, Serialize};

/// A balanced tree of ripple-carry adders summing many operands.
///
/// StreamPIM's multiplier produces `w` partial products per scalar multiply
/// and sums them with an adder tree of depth `ceil(log2(w))`; each level
/// halves the operand count. The tree operates on `width`-bit words — wide
/// enough to hold the final product (2w bits for a w-bit multiply).
///
/// ```
/// use dw_logic::{AdderTree, GateTally};
///
/// let tree = AdderTree::new(16);
/// let mut tally = GateTally::new();
/// assert_eq!(tree.sum(&[1, 2, 3, 4, 5], &mut tally), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderTree {
    width: u32,
}

impl AdderTree {
    /// Creates a tree operating on `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=63` (see [`RippleCarryAdder::new`]).
    pub fn new(width: u32) -> Self {
        let _ = RippleCarryAdder::new(width); // validates width
        AdderTree { width }
    }

    /// Word width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Tree depth (adder levels) needed to sum `n` operands.
    pub fn depth_for(n: usize) -> u32 {
        if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        }
    }

    /// Latency in cycles for summing `n` operands: each level costs one
    /// ripple traversal of `width` cycles.
    pub fn latency_cycles(&self, n: usize) -> u64 {
        Self::depth_for(n) as u64 * self.width as u64
    }

    /// Sums the operands modulo `2^width`, tallying every gate.
    ///
    /// Returns 0 for an empty slice.
    pub fn sum(&self, operands: &[u64], tally: &mut GateTally) -> u64 {
        let adder = RippleCarryAdder::new(self.width);
        let mask = if self.width == 63 {
            (1u64 << 63) - 1
        } else {
            (1u64 << self.width) - 1
        };
        let mut level: Vec<u64> = operands.iter().map(|&x| x & mask).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [a, b] = pair {
                    let (s, _carry) = adder.add(*a, *b, false, tally);
                    next.push(s);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level.first().copied().unwrap_or(0)
    }

    /// [`Self::sum`] for every lane at once, in place. `tree` holds the
    /// operands back to back, each `width` bit planes of `words` lane-words
    /// (plane-major); the sum ends in operand 0 and the other operands are
    /// clobbered. The pairing is [`Self::sum`]'s, so each lane's sum and the
    /// tally charged for the `lanes` live lanes match it exactly.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or `tree` is not a whole number of
    /// operands.
    pub(crate) fn sum_planes_in_place(
        &self,
        tree: &mut [u64],
        words: usize,
        lanes: u64,
        tally: &mut GateTally,
    ) {
        let operand = self.width as usize * words;
        assert!(
            operand > 0 && tree.len().is_multiple_of(operand),
            "tree must hold whole operands of {operand} words"
        );
        let n = tree.len() / operand;
        let adder = RippleCarryAdder::new(self.width);
        // Pairwise levels in place: at stride s, operand k·2s absorbs
        // operand k·2s + s; an unpaired last operand waits a level.
        let mut stride = 1;
        while stride < n {
            let mut acc = 0;
            while acc + stride < n {
                let (lo, hi) = tree.split_at_mut((acc + stride) * operand);
                let sum = &mut lo[acc * operand..(acc + 1) * operand];
                adder.add_planes_in_place(sum, &hi[..operand], words, lanes, tally);
                acc += 2 * stride;
            }
            stride *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_match_reference() {
        let tree = AdderTree::new(16);
        let mut t = GateTally::new();
        assert_eq!(tree.sum(&[], &mut t), 0);
        assert_eq!(tree.sum(&[42], &mut t), 42);
        assert_eq!(tree.sum(&[1, 2], &mut t), 3);
        assert_eq!(tree.sum(&[10, 20, 30, 40, 50, 60, 70], &mut t), 280);
    }

    #[test]
    fn sums_wrap_modulo_width() {
        let tree = AdderTree::new(8);
        let mut t = GateTally::new();
        assert_eq!(tree.sum(&[200, 100], &mut t), 300 % 256);
    }

    #[test]
    fn depth_is_log2_ceiling() {
        assert_eq!(AdderTree::depth_for(0), 0);
        assert_eq!(AdderTree::depth_for(1), 0);
        assert_eq!(AdderTree::depth_for(2), 1);
        assert_eq!(AdderTree::depth_for(3), 2);
        assert_eq!(AdderTree::depth_for(4), 2);
        assert_eq!(AdderTree::depth_for(8), 3);
        assert_eq!(AdderTree::depth_for(9), 4);
    }

    #[test]
    fn latency_scales_with_depth_and_width() {
        let tree = AdderTree::new(16);
        assert_eq!(tree.latency_cycles(8), 3 * 16);
        assert_eq!(tree.latency_cycles(1), 0);
    }

    #[test]
    fn gate_count_matches_pairwise_adds() {
        // Summing 8 operands takes 7 two-operand adds of `width` bits each.
        let tree = AdderTree::new(16);
        let mut t = GateTally::new();
        let _ = tree.sum(&[1; 8], &mut t);
        assert_eq!(t.nand, 7 * 16 * 9);
    }

    #[test]
    fn sum_planes_in_place_matches_sum_per_lane() {
        // Five operands (an unpaired one at two levels) over two lane-words,
        // the second only partly live.
        let (width, words, lanes) = (12usize, 2usize, 100usize);
        let tree = AdderTree::new(width as u32);
        let values: Vec<Vec<u64>> = (0..5u64)
            .map(|op| {
                (0..lanes as u64)
                    .map(|l| (op * 977 + l * 131) % 4096)
                    .collect()
            })
            .collect();
        let mut planes = vec![0u64; values.len() * width * words];
        for (op, vals) in values.iter().enumerate() {
            for (l, &v) in vals.iter().enumerate() {
                for p in 0..width {
                    planes[(op * width + p) * words + l / 64] |= ((v >> p) & 1) << (l % 64);
                }
            }
        }
        let mut tp = GateTally::new();
        tree.sum_planes_in_place(&mut planes, words, lanes as u64, &mut tp);
        let mut ts = GateTally::new();
        for l in 0..lanes {
            let column: Vec<u64> = values.iter().map(|vals| vals[l]).collect();
            let got = (0..width).fold(0, |v, p| {
                v | ((planes[p * words + l / 64] >> (l % 64)) & 1) << p
            });
            assert_eq!(got, tree.sum(&column, &mut ts), "lane {l}");
        }
        assert_eq!(tp, ts);
    }

    #[test]
    fn single_operand_costs_no_gates() {
        let tree = AdderTree::new(8);
        let mut t = GateTally::new();
        let _ = tree.sum(&[99], &mut t);
        assert_eq!(t.total(), 0);
    }
}
