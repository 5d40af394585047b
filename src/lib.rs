//! # StreamPIM
//!
//! A full-system reproduction of **"StreamPIM: Streaming Matrix Computation
//! in Racetrack Memory"** (HPCA 2024). This umbrella crate re-exports the
//! workspace crates so downstream users can depend on a single package:
//!
//! * [`rm_core`] — racetrack-memory substrate (nanowires, mats, subarrays;
//!   device geometry; timing/energy/fault models).
//! * [`dw_logic`] — domain-wall logic gates and the arithmetic structures
//!   built from them (full adders, duplicator, circle adder, multiplier).
//! * [`rm_bus`] — the segmented domain-wall nanowire bus (and the electrical
//!   bus used by the `StPIM-e` ablation).
//! * [`rm_proc`] — the 4-stage pipelined RM processor.
//! * [`pim_device`] — the StreamPIM device: VPC ISA, placement and
//!   `unblock` optimizations, execution engine (which prices VPC decode as
//!   a per-VPC controller charge), and the `PimTask` programming interface.
//! * [`pim_baselines`] — CPU-RM, CPU-DRAM, GPU, CORUSCANT, ELP2IM and FELIX
//!   comparison platforms behind one `Platform` trait.
//! * [`pim_cluster`] — multi-device scale-out: rank/channel clusters of
//!   StreamPIM devices with a priced interconnect, data- and
//!   pipeline-parallel partitioning, and deterministic cross-device
//!   reduction (see `DESIGN.md` §17).
//! * [`pim_workloads`] — polybench kernels and DNN (MLP/BERT) workload
//!   generators with host-side reference math.
//! * [`pim_runtime`] — concurrent batch-simulation runtime: work-stealing
//!   job execution over pooled platforms, a content-addressed schedule
//!   cache, and a JSON-exportable metrics registry.
//! * [`pim_trace`] — cross-layer structured tracing: spans on per-resource
//!   timelines, Chrome/Perfetto JSON export, and utilization analytics.
//! * [`pim_obs`] — always-on host-side telemetry: sharded metrics registry
//!   with Prometheus text exposition, structured event log, request-id
//!   correlation, and per-tenant latency-SLO tracking.
//! * [`pim_flight`] — tail-sampling flight recorder: per-request deep
//!   diagnostics (spans, attribution, folded stacks) retained only for
//!   SLO breaches, errors, cancellations, and latency outliers.
//! * [`pim_serve`] — the runtime as a network service: std-only HTTP/JSON
//!   job API with per-tenant weighted fair queues, admission control, and
//!   cost metering (see `DESIGN.md` §13).
//!
//! ## Quickstart
//!
//! ```
//! use streampim::prelude::*;
//!
//! // Multiply two small matrices on the simulated StreamPIM device.
//! let a = Matrix::from_fn(4, 4, |i, j| (i + j) as i64);
//! let b = Matrix::identity(4);
//! let device = StreamPim::new(StreamPimConfig::default()).unwrap();
//!
//! let mut task = PimTask::new();
//! let ha = task.add_matrix(&a).unwrap();
//! let hb = task.add_matrix(&b).unwrap();
//! let hc = task.add_output(4, 4).unwrap();
//! task.add_operation(MatrixOp::MatMul { a: ha, b: hb, dst: hc }).unwrap();
//!
//! let outcome = task.run(&device).unwrap();
//! assert_eq!(outcome.matrix(hc).unwrap(), &a);
//! assert!(outcome.report.time.total_ns() > 0.0);
//! ```

pub use dw_logic;
pub use pim_baselines;
pub use pim_cluster;
pub use pim_device;
pub use pim_flight;
pub use pim_obs;
pub use pim_profile;
pub use pim_runtime;
pub use pim_serve;
pub use pim_trace;
pub use pim_workloads;
pub use rm_bus;
pub use rm_core;
pub use rm_proc;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use pim_baselines::platform::{Platform, PlatformKind};
    pub use pim_device::device::{StreamPim, StreamPimConfig};
    pub use pim_device::report::ExecReport;
    pub use pim_device::task::{MatrixOp, PimTask, TaskOutcome};
    pub use pim_device::vpc::{VecRef, Vpc};
    pub use pim_runtime::{Job, Runtime, RuntimeConfig};
    pub use pim_workloads::matrix::Matrix;
    pub use pim_workloads::polybench::Kernel;
    pub use pim_workloads::spec::{DnnKind, WorkloadSpec};
    pub use rm_core::{DeviceConfig, EnergyBreakdown, Geometry, TimeBreakdown};
}
