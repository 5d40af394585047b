//! The StreamPIM RM bus (paper §III-D).
//!
//! Transferring data between RM mats and the RM processor over a
//! conventional electrical bus requires electromagnetic conversion — an RM
//! read at the source and an RM write at the destination — which dominates
//! both time and energy in prior process-in-RM designs. StreamPIM replaces
//! the electrical bus with a **domain-wall nanowire bus**: data moves as
//! magnetic domains driven by shift currents, so no conversion ever happens.
//!
//! Raw nanowire transfer has three problems: (1) the shift current's
//! duration/density depends on the (variable) transfer length, (2) domains
//! propagate slowly so word-at-a-time transfer throttles throughput, and
//! (3) long shifts accumulate over/under-shift faults. The paper's fix — a
//! **segmented** bus — divides the wire into equal segments; each cycle
//! every data segment advances exactly one segment into the empty segment
//! ahead of it, giving constant shift pulses, pipelined (multiplexed)
//! transfer, and bounded per-shift fault exposure.
//!
//! * [`segmented`] — the functional, cycle-stepped segmented bus (the
//!   bit-level subarray flow drives one to and one from the processor);
//! * [`electrical`] — the cost model of the conventional electrical bus
//!   (the `StPIM-e` ablation);
//! * [`model`] — closed-form cost models used by the execution engine.

pub mod electrical;
pub mod model;
pub mod segmented;

pub use electrical::ElectricalBusModel;
pub use model::{BusCost, BusModel};
pub use segmented::{Delivery, Packet, SegmentedBus, SegmentedBusModel};
