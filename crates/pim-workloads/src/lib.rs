//! Workload generators for the StreamPIM reproduction.
//!
//! The paper evaluates nine polybench linear-algebra kernels (Table IV) and
//! two end-to-end DNN inferences (MLP, BERT). This crate builds those
//! workloads in two coupled representations:
//!
//! * a [`pim_device::ShapeTask`] — the PIM-side operation graph over matrix
//!   shapes, lowered with the paper's `distribute`/`unblock` optimizations
//!   (the per-kernel VPC counts are validated against Table IV by this
//!   crate's tests). [`WorkloadSpec::shape_task`] builds it for any
//!   workload; a polybench kernel can also be built as a
//!   [`pim_device::PimTask`] with seeded matrices for functional runs
//!   ([`KernelInstance::build_task`]);
//! * a [`profile::KernelProfile`] — flop/byte/working-set characterization
//!   consumed by the CPU/GPU/DRAM baseline models.
//!
//! [`matrix`] re-exports the dense matrix type plus deterministic random
//! generators; [`dnn`] provides the MLP and BERT layer graphs of §V-E.

pub mod dnn;
pub mod matrix;
pub mod polybench;
pub mod profile;
pub mod spec;
pub mod trace;

pub use dnn::DnnModel;
pub use matrix::Matrix;
pub use polybench::{Kernel, KernelInstance};
pub use profile::KernelProfile;
pub use spec::{DnnKind, WorkloadSpec};
