//! Full adder and ripple-carry word adder (paper Figure 6).

use crate::cost::GateTally;
use crate::gate::nand;
use rm_core::wide::ripple_add_planes;
use serde::{Deserialize, Serialize};

/// The 1-bit full adder built from nine domain-wall NAND gates, exactly as
/// depicted in the paper's Figure 6.
///
/// ```
/// use dw_logic::{FullAdder, GateTally};
///
/// let mut tally = GateTally::new();
/// let (sum, carry) = FullAdder.add(true, true, false, &mut tally);
/// assert_eq!((sum, carry), (false, true));
/// assert_eq!(tally.nand, 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FullAdder;

impl FullAdder {
    /// Number of NAND gates in the structural realization.
    pub const NAND_COUNT: u64 = 9;

    /// Adds `a + b + cin`, returning `(sum, carry_out)`.
    pub fn add(self, a: bool, b: bool, cin: bool, tally: &mut GateTally) -> (bool, bool) {
        // Classic 9-NAND full adder.
        let t1 = nand(a, b, tally);
        let t2 = nand(a, t1, tally);
        let t3 = nand(b, t1, tally);
        let axb = nand(t2, t3, tally); // a XOR b
        let t5 = nand(axb, cin, tally);
        let t6 = nand(axb, t5, tally);
        let t7 = nand(cin, t5, tally);
        let sum = nand(t6, t7, tally); // a XOR b XOR cin
        let carry = nand(t1, t5, tally); // ab + cin(a XOR b)
        (sum, carry)
    }
}

/// A `width`-bit ripple-carry adder chaining [`FullAdder`]s.
///
/// Latency is one full-adder traversal per bit (the carry ripples), so the
/// cycle cost reported by [`RippleCarryAdder::latency_cycles`] is `width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RippleCarryAdder {
    width: u32,
}

impl RippleCarryAdder {
    /// Creates an adder for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63 (results are staged in
    /// `u64` with a carry bit).
    pub fn new(width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        RippleCarryAdder { width }
    }

    /// Word width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Cycles for one word addition (carry ripple: one per bit).
    #[inline]
    pub fn latency_cycles(&self) -> u64 {
        self.width as u64
    }

    /// Adds `a + b + cin`, returning `(sum mod 2^width, carry_out)`.
    ///
    /// Operand bits above `width` are ignored.
    pub fn add(&self, a: u64, b: u64, cin: bool, tally: &mut GateTally) -> (u64, bool) {
        let mut carry = cin;
        let mut sum = 0u64;
        for i in 0..self.width {
            let abit = (a >> i) & 1 == 1;
            let bbit = (b >> i) & 1 == 1;
            let (s, c) = FullAdder.add(abit, bbit, carry, tally);
            if s {
                sum |= 1 << i;
            }
            carry = c;
        }
        (sum, carry)
    }

    /// Adds `addend` into `acc` for every lane at once and charges the
    /// `width` full adders of each of the `lanes` live lanes. Both slices
    /// hold `width` bit planes of `words` lane-words, plane-major (see
    /// [`ripple_add_planes`]). Each lane's sum is what [`Self::add`]
    /// returns with no carry-in; the carry-out is dropped.
    pub(crate) fn add_planes_in_place(
        &self,
        acc: &mut [u64],
        addend: &[u64],
        words: usize,
        lanes: u64,
        tally: &mut GateTally,
    ) {
        debug_assert_eq!(acc.len(), self.width as usize * words);
        ripple_add_planes(acc, addend, words);
        tally.nand += FullAdder::NAND_COUNT * self.width as u64 * lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_truth_table() {
        let mut t = GateTally::new();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let (sum, carry) = FullAdder.add(a, b, c, &mut t);
                    let expect = a as u8 + b as u8 + c as u8;
                    assert_eq!(sum, expect & 1 == 1, "sum for {a},{b},{c}");
                    assert_eq!(carry, expect >= 2, "carry for {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn full_adder_costs_nine_nands() {
        let mut t = GateTally::new();
        let _ = FullAdder.add(true, false, true, &mut t);
        assert_eq!(t.nand, FullAdder::NAND_COUNT);
        assert_eq!(t.total(), 9);
    }

    #[test]
    fn ripple_adder_exhaustive_8bit_sample() {
        let adder = RippleCarryAdder::new(8);
        let mut t = GateTally::new();
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                let (sum, carry) = adder.add(a, b, false, &mut t);
                assert_eq!(sum, (a + b) & 0xFF);
                assert_eq!(carry, a + b > 0xFF);
            }
        }
    }

    #[test]
    fn ripple_adder_carry_in() {
        let adder = RippleCarryAdder::new(8);
        let mut t = GateTally::new();
        let (sum, carry) = adder.add(0xFF, 0x00, true, &mut t);
        assert_eq!(sum, 0x00);
        assert!(carry);
    }

    #[test]
    fn ripple_adder_masks_high_bits() {
        let adder = RippleCarryAdder::new(4);
        let mut t = GateTally::new();
        let (sum, _) = adder.add(0xF5, 0x01, false, &mut t);
        assert_eq!(sum, 0x6); // only the low 4 bits participate
    }

    #[test]
    fn gate_cost_scales_with_width() {
        let mut t8 = GateTally::new();
        RippleCarryAdder::new(8).add(1, 2, false, &mut t8);
        let mut t16 = GateTally::new();
        RippleCarryAdder::new(16).add(1, 2, false, &mut t16);
        assert_eq!(t8.nand, 8 * 9);
        assert_eq!(t16.nand, 16 * 9);
        assert_eq!(RippleCarryAdder::new(8).latency_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=63")]
    fn rejects_zero_width() {
        let _ = RippleCarryAdder::new(0);
    }
}
