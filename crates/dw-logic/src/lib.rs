//! Domain-wall nanowire logic for StreamPIM.
//!
//! Luo et al. (*Nature* 2020) demonstrated that coupling magnetic and heavy
//! metal integrates **domain-wall inverters** into a nanowire: a domain
//! shifted across the inverter is logically inverted by the
//! Dzyaloshinskii–Moriya interaction (DMI). Two inputs, one bias and one
//! output domain coupled by DMI yield NAND/NOR gates (paper Figure 6), and
//! from those any Boolean — and hence arithmetic — circuit can be built
//! *inside the memory*, operated purely by shift currents.
//!
//! This crate models those structures bit-accurately and counts every gate
//! traversal so the timing/energy layer can price them:
//!
//! * [`gate`] — inverter, NAND, NOR, and derived AND/OR/XOR;
//! * [`adder`] — the 1-bit full adder (9 structural NANDs) and the
//!   ripple-carry word adder;
//! * [`adder_tree`] — multi-operand adder tree for summing partial products;
//! * [`diode`] — the domain-wall diode (one-way domain propagation);
//! * [`duplicator`] — fan-out + diode data duplication (paper Figure 9);
//! * [`circle_adder`] — the accumulating circle adder (paper Figure 10);
//! * [`multiplier`] — the w-bit scalar multiplier (partial products + tree);
//! * [`process`] — fabrication-node energy scaling (paper §V-F);
//! * [`cost`] — gate tallies and cycle/energy pricing.
//!
//! # Example
//!
//! ```
//! use dw_logic::cost::GateTally;
//! use dw_logic::multiplier::Multiplier;
//!
//! let mut tally = GateTally::new();
//! let m = Multiplier::new(8);
//! assert_eq!(m.multiply(23, 11, &mut tally), 253);
//! assert!(tally.total() > 0); // every gate traversal was accounted
//! ```

pub mod adder;
pub mod adder_tree;
pub mod circle_adder;
pub mod cost;
pub mod diode;
pub mod duplicator;
pub mod gate;
pub mod multiplier;
pub mod process;

pub use adder::{FullAdder, RippleCarryAdder};
pub use adder_tree::AdderTree;
pub use circle_adder::CircleAdder;
pub use cost::GateTally;
pub use diode::DomainWallDiode;
pub use duplicator::{Duplicator, DuplicatorBank};
pub use gate::{and, nand, nor, not, or, xor, Bias, DwGate};
pub use multiplier::Multiplier;
pub use process::ProcessNode;
