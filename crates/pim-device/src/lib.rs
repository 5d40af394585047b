//! The StreamPIM device model (paper §III-IV).
//!
//! This crate assembles the substrates — racetrack memory (`rm-core`),
//! domain-wall logic (`dw-logic`), the segmented RM bus (`rm-bus`) and the
//! pipelined RM processor (`rm-proc`) — into the full processing-in-memory
//! device the paper evaluates:
//!
//! * [`vpc`] — the Vector Processing Command ISA (Table II) and traces;
//! * [`placement`] — matrix placement across PIM subarrays: the naive
//!   `base` layout versus the `distribute` optimization (paper Figure 15),
//!   including slicing of oversized vectors;
//! * [`schedule`] — command ordering: natural order versus the `unblock`
//!   reordering that decouples read/write traffic from computation;
//! * [`engine`] — the analytic execution engine that prices a schedule in
//!   nanoseconds and picojoules, modelling subarray-level parallelism, the
//!   shift-vs-read/write blocking rule, and transfer/compute overlap. VPC
//!   decode (Figure 14) and the §IV-B command queue are priced here as one
//!   controller slot per VPC (`EngineParams::controller_ns_per_vpc`);
//! * [`task`] — the `PimTask` programming interface (paper Figure 16): a
//!   `ShapeTask` operation graph, which lowers, plus the matrices for
//!   functionally-correct execution of the matrix operations;
//! * [`device`] — [`device::StreamPim`]: configuration + entry points;
//! * [`report`] — execution reports (time/energy breakdowns);
//! * [`area`] — the §V-G area-overhead model;
//! * [`flow`] — the bit-level subarray data flow of Figure 13, proving the
//!   conversion-free property functionally;
//! * [`engine_event`] — the explicit-timeline reference engine the
//!   analytic engine is cross-validated against; it draws each command's
//!   decode slot on a decoder track;
//! * [`expr`] — the §IV-D expression compiler with scale-add fusion.

pub mod area;
pub mod device;
pub mod engine;
pub mod engine_event;
pub mod error;
pub mod expr;
pub mod flow;
pub mod matrix;
pub mod placement;
pub mod report;
pub mod schedule;
pub mod task;
pub mod vpc;

pub use device::{host_threads, OptLevel, Parallelism, StreamPim, StreamPimConfig};
pub use engine::PriceTable;
pub use error::PimError;
pub use report::ExecReport;
pub use task::{MatrixOp, PimTask, ShapeTask, TaskOutcome};
pub use vpc::{VecRef, Vpc, VpcTrace};

/// Result alias for device-level operations.
pub type Result<T> = std::result::Result<T, PimError>;
