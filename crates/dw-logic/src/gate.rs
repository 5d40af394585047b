//! Primitive domain-wall logic gates.
//!
//! The physical mechanism (paper Figure 5/6): a domain shifted across a
//! domain-wall inverter is logically inverted by DMI; coupling two input
//! domains, a bias domain and an output domain realizes NAND or NOR
//! depending on the bias. The output is the majority-inverted coupling:
//!
//! * bias = 1 (`Bias::Nand`): output = NOT(a AND b)
//! * bias = 0 (`Bias::Nor`):  output = NOT(a OR b)
//!
//! Free functions ([`not`], [`nand`], [`nor`], and derived [`and`], [`or`],
//! [`xor`]) tick a [`GateTally`] per primitive traversal; [`DwGate`] is the
//! structural form used when a circuit needs a placed, biased gate.

use crate::cost::GateTally;
use serde::{Deserialize, Serialize};

/// Bias domain value selecting a gate's function (paper Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bias {
    /// Bias 1: the gate computes NAND.
    Nand,
    /// Bias 0: the gate computes NOR.
    Nor,
}

/// A placed two-input domain-wall gate with a bias domain.
///
/// ```
/// use dw_logic::{Bias, DwGate, GateTally};
///
/// let gate = DwGate::new(Bias::Nand);
/// let mut tally = GateTally::new();
/// assert_eq!(gate.eval(true, true, &mut tally), false);
/// assert_eq!(tally.nand, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DwGate {
    bias: Bias,
}

impl DwGate {
    /// Creates a gate with the given bias.
    pub fn new(bias: Bias) -> Self {
        DwGate { bias }
    }

    /// The gate's bias.
    #[inline]
    pub fn bias(&self) -> Bias {
        self.bias
    }

    /// Evaluates the gate on two input domains as they shift across it.
    pub fn eval(&self, a: bool, b: bool, tally: &mut GateTally) -> bool {
        match self.bias {
            Bias::Nand => nand(a, b, tally),
            Bias::Nor => nor(a, b, tally),
        }
    }
}

/// Domain-wall inverter: the domain is flipped as it crosses the coupling.
#[inline]
pub fn not(a: bool, tally: &mut GateTally) -> bool {
    tally.not += 1;
    !a
}

/// Domain-wall NAND (bias = 1).
#[inline]
pub fn nand(a: bool, b: bool, tally: &mut GateTally) -> bool {
    tally.nand += 1;
    !(a && b)
}

/// Domain-wall NOR (bias = 0).
#[inline]
pub fn nor(a: bool, b: bool, tally: &mut GateTally) -> bool {
    tally.nor += 1;
    !(a || b)
}

/// AND built structurally as NAND followed by an inverter.
#[inline]
pub fn and(a: bool, b: bool, tally: &mut GateTally) -> bool {
    let n = nand(a, b, tally);
    not(n, tally)
}

/// Charges `gates` [`and`] traversals — a NAND and an inverter each —
/// without evaluating them, for a datapath that evaluates its AND lanes as
/// word operations.
#[inline]
pub(crate) fn charge_and(gates: u64, tally: &mut GateTally) {
    tally.nand += gates;
    tally.not += gates;
}

/// OR built structurally as NOR followed by an inverter.
#[inline]
pub fn or(a: bool, b: bool, tally: &mut GateTally) -> bool {
    let n = nor(a, b, tally);
    not(n, tally)
}

/// XOR built structurally from four NANDs.
#[inline]
pub fn xor(a: bool, b: bool, tally: &mut GateTally) -> bool {
    let t1 = nand(a, b, tally);
    let t2 = nand(a, t1, tally);
    let t3 = nand(b, t1, tally);
    nand(t2, t3, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUTS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

    #[test]
    fn nand_truth_table() {
        let mut t = GateTally::new();
        for (a, b) in INPUTS {
            assert_eq!(nand(a, b, &mut t), !(a && b));
        }
        assert_eq!(t.nand, 4);
    }

    #[test]
    fn nor_truth_table() {
        let mut t = GateTally::new();
        for (a, b) in INPUTS {
            assert_eq!(nor(a, b, &mut t), !(a || b));
        }
        assert_eq!(t.nor, 4);
    }

    #[test]
    fn not_inverts_and_counts() {
        let mut t = GateTally::new();
        assert!(!not(true, &mut t));
        assert!(not(false, &mut t));
        assert_eq!(t.not, 2);
    }

    #[test]
    fn derived_gates_match_boolean_ops() {
        let mut t = GateTally::new();
        for (a, b) in INPUTS {
            assert_eq!(and(a, b, &mut t), a && b);
            assert_eq!(or(a, b, &mut t), a || b);
            assert_eq!(xor(a, b, &mut t), a ^ b);
        }
    }

    #[test]
    fn xor_costs_four_nands() {
        let mut t = GateTally::new();
        let _ = xor(true, false, &mut t);
        assert_eq!(t.nand, 4);
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn biased_gate_selects_function() {
        let mut t = GateTally::new();
        for (a, b) in INPUTS {
            assert_eq!(DwGate::new(Bias::Nand).eval(a, b, &mut t), !(a && b));
            assert_eq!(DwGate::new(Bias::Nor).eval(a, b, &mut t), !(a || b));
        }
        assert_eq!(DwGate::new(Bias::Nand).bias(), Bias::Nand);
    }

    #[test]
    fn nand_nor_are_functionally_complete_spotcheck() {
        // NOT from NAND: nand(a, a) == !a.
        let mut t = GateTally::new();
        for a in [false, true] {
            assert_eq!(nand(a, a, &mut t), !a);
        }
    }
}
