//! The circle adder: accumulation on a circular nanowire (paper Figure 10).
//!
//! A vector dot product must sum a stream of scalar-multiplication results.
//! The circle adder couples an n-bit full adder with a circle-form nanowire
//! and a domain-wall diode: each incoming product is added to the
//! accumulated result, and the new sum is shifted across the diode and back
//! around the circle to the operand position for the next iteration. The
//! same hardware doubles as a plain scalar adder by *not* recirculating the
//! result (the multiplexing noted in §III-C).

use crate::adder::{FullAdder, RippleCarryAdder};
use crate::cost::GateTally;
use crate::diode::DomainWallDiode;
use rm_core::ShiftDir;
use serde::{Deserialize, Serialize};

/// Steps per accumulation iteration (paper Figure 10: add, cross diode,
/// recirculate, accept next operand).
pub const ACCUMULATE_STEPS: u64 = 4;

/// An accumulating adder on a circular nanowire.
///
/// ```
/// use dw_logic::{CircleAdder, GateTally};
///
/// let mut acc = CircleAdder::new(16);
/// let mut tally = GateTally::new();
/// for x in [10, 20, 30] {
///     acc.accumulate(x, &mut tally);
/// }
/// assert_eq!(acc.take_result(), 60);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircleAdder {
    adder: RippleCarryAdder,
    diode: DomainWallDiode,
    acc: u64,
    iterations: u64,
    overflows: u64,
}

impl CircleAdder {
    /// Creates a circle adder with a `width`-bit accumulator.
    ///
    /// Dot products over long vectors need headroom: for 8-bit elements and
    /// vectors of length `n`, the accumulator needs `16 + ceil(log2 n)`
    /// bits; StreamPIM sizes it at 32 bits by default in `rm-proc`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=63`.
    pub fn new(width: u32) -> Self {
        CircleAdder {
            adder: RippleCarryAdder::new(width),
            diode: DomainWallDiode::new(ShiftDir::Right),
            acc: 0,
            iterations: 0,
            overflows: 0,
        }
    }

    /// Accumulator width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.adder.width()
    }

    /// Current accumulated value (without consuming it).
    #[inline]
    pub fn peek(&self) -> u64 {
        self.acc
    }

    /// Number of accumulate iterations performed.
    #[inline]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Number of accumulations that overflowed the accumulator width.
    #[inline]
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Adds `x` into the accumulator (one four-step circle iteration).
    ///
    /// Returns the new accumulated value (mod `2^width`).
    pub fn accumulate(&mut self, x: u64, tally: &mut GateTally) -> u64 {
        // Step 1: the full adder combines the incoming value and the
        // accumulated result.
        let (sum, carry) = self.adder.add(self.acc, x, false, tally);
        if carry {
            self.overflows += 1;
        }
        // Steps 2-3: the sum crosses the diode and recirculates.
        for _ in 0..self.width() {
            self.diode.try_cross(ShiftDir::Right);
        }
        tally.diode += self.width() as u64;
        // Step 4: ready for the next operand.
        self.acc = sum;
        self.iterations += 1;
        sum
    }

    /// Accumulates a whole stream with bulk accounting: accumulator value,
    /// overflow and iteration counters, diode crossings, and gate tallies
    /// all end up exactly as if [`Self::accumulate`] had been called once
    /// per element. Returns the final accumulated value.
    pub fn accumulate_many(&mut self, xs: &[u64], tally: &mut GateTally) -> u64 {
        let w = self.width() as u64;
        let mask = if w == 63 {
            (1u64 << 63) - 1
        } else {
            (1u64 << w) - 1
        };
        for &x in xs {
            let sum = self.acc + (x & mask);
            if (sum >> w) & 1 == 1 {
                self.overflows += 1;
            }
            self.acc = sum & mask;
        }
        let n = xs.len() as u64;
        tally.nand += n * w * FullAdder::NAND_COUNT;
        tally.diode += n * w;
        self.diode.cross_many(ShiftDir::Right, n * w);
        self.iterations += n;
        self.acc
    }

    /// One-shot scalar addition through the same full adder, bypassing the
    /// recirculation (the multiplexed ADD mode). Does not touch the
    /// accumulator.
    pub fn scalar_add(&self, a: u64, b: u64, tally: &mut GateTally) -> (u64, bool) {
        self.adder.add(a, b, false, tally)
    }

    /// Bulk sibling of [`Self::scalar_add`]: adds `a[i] + b[i]` pairwise with
    /// one bulk tally update (`len * width` full adders). Does not touch the
    /// accumulator or the diode.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn scalar_add_many(&self, a: &[u64], b: &[u64], tally: &mut GateTally) -> Vec<(u64, bool)> {
        assert_eq!(a.len(), b.len(), "operand vectors must pair up");
        let w = self.width() as u64;
        let mask = if w == 63 {
            (1u64 << 63) - 1
        } else {
            (1u64 << w) - 1
        };
        tally.nand += a.len() as u64 * w * FullAdder::NAND_COUNT;
        a.iter()
            .zip(b)
            .map(|(&a, &b)| {
                let sum = (a & mask) + (b & mask);
                (sum & mask, (sum >> w) & 1 == 1)
            })
            .collect()
    }

    /// Takes the accumulated result and resets the accumulator.
    pub fn take_result(&mut self) -> u64 {
        std::mem::take(&mut self.acc)
    }

    /// Clears the accumulator and statistics.
    pub fn reset(&mut self) {
        self.acc = 0;
        self.iterations = 0;
        self.overflows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_a_stream() {
        let mut acc = CircleAdder::new(16);
        let mut t = GateTally::new();
        let values = [5u64, 0, 100, 31, 7];
        for v in values {
            acc.accumulate(v, &mut t);
        }
        assert_eq!(acc.peek(), 143);
        assert_eq!(acc.iterations(), 5);
        assert_eq!(acc.take_result(), 143);
        assert_eq!(acc.peek(), 0);
    }

    #[test]
    fn wraps_and_counts_overflow() {
        let mut acc = CircleAdder::new(8);
        let mut t = GateTally::new();
        acc.accumulate(200, &mut t);
        acc.accumulate(100, &mut t);
        assert_eq!(acc.peek(), 300 % 256);
        assert_eq!(acc.overflows(), 1);
    }

    #[test]
    fn scalar_add_mode_bypasses_accumulator() {
        let acc = CircleAdder::new(8);
        let mut t = GateTally::new();
        let (sum, carry) = acc.scalar_add(100, 100, &mut t);
        assert_eq!(sum, 200);
        assert!(!carry);
        assert_eq!(acc.peek(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut acc = CircleAdder::new(8);
        let mut t = GateTally::new();
        acc.accumulate(10, &mut t);
        acc.reset();
        assert_eq!(acc.peek(), 0);
        assert_eq!(acc.iterations(), 0);
    }

    #[test]
    fn tally_includes_adder_and_diode() {
        let mut acc = CircleAdder::new(8);
        let mut t = GateTally::new();
        acc.accumulate(1, &mut t);
        assert_eq!(t.nand, 8 * 9);
        assert_eq!(t.diode, 8);
    }

    #[test]
    fn accumulate_many_matches_serial_accumulate() {
        for width in [8u32, 32, 63] {
            let mut bulk = CircleAdder::new(width);
            let mut serial = CircleAdder::new(width);
            let mut tb = GateTally::new();
            let mut ts = GateTally::new();
            let xs: Vec<u64> = (0..50).map(|i| i * 0x0123_4567_89AB + 0xFF).collect();
            let final_bulk = bulk.accumulate_many(&xs, &mut tb);
            let mut final_serial = 0;
            for &x in &xs {
                final_serial = serial.accumulate(x, &mut ts);
            }
            assert_eq!(final_bulk, final_serial, "width {width}");
            assert_eq!(bulk, serial, "width {width}");
            assert_eq!(tb, ts, "width {width}");
        }
    }

    #[test]
    fn accumulate_many_empty_is_noop() {
        let mut acc = CircleAdder::new(16);
        let mut t = GateTally::new();
        assert_eq!(acc.accumulate_many(&[], &mut t), 0);
        assert_eq!(acc.iterations(), 0);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn scalar_add_many_matches_serial_scalar_add() {
        let acc = CircleAdder::new(8);
        let a: Vec<u64> = (0..40).map(|i| i * 13 % 256).collect();
        let b: Vec<u64> = (0..40).map(|i| i * 29 + 200).collect();
        let mut tb = GateTally::new();
        let results = acc.scalar_add_many(&a, &b, &mut tb);
        let mut ts = GateTally::new();
        for i in 0..a.len() {
            assert_eq!(results[i], acc.scalar_add(a[i], b[i], &mut ts), "pair {i}");
        }
        assert_eq!(tb, ts);
    }

    #[test]
    fn matches_reference_sum_over_random_stream() {
        let mut acc = CircleAdder::new(32);
        let mut t = GateTally::new();
        let mut expect: u64 = 0;
        let mut x: u64 = 0x1234_5678;
        for _ in 0..100 {
            // Simple LCG stream.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 40;
            expect = (expect + v) & 0xFFFF_FFFF;
            acc.accumulate(v, &mut t);
        }
        assert_eq!(acc.peek(), expect);
    }
}
