//! Batch-simulation runtime for the StreamPIM model.
//!
//! Sweeps and design-space explorations price the *same* workloads on many
//! platform configurations. Run serially, every job pays the full cost of
//! lowering its task to a VPC schedule even when an identical `(config,
//! workload)` pair was just lowered by the previous job. This crate turns
//! that pattern into a service:
//!
//! * [`Job`] — a serializable request: a [`pim_workloads::WorkloadSpec`], a
//!   platform selector, and optional StreamPIM config / opt-level overrides.
//! * [`Runtime`] — accepts job batches and runs them on a work-stealing
//!   thread pool over a pool of shared platform instances.
//! * [`ScheduleCache`] — content-addressed: lowering is deterministic per
//!   `(lowering config, workload spec)`, so the schedule is computed once
//!   and shared by every job that names the same pair.
//! * [`MetricsSnapshot`] — batch totals ([`Runtime::metrics`]): job
//!   counts, a host-latency histogram, steals, cache statistics and the
//!   aggregate simulated report, exportable as JSON. Per-job host facts
//!   (latency, queue depth, worker, steal, cache hit) ride on each job's
//!   host span instead.
//!
//! Determinism contract: a job's [`pim_device::ExecReport`] depends only on
//! the job itself — not on batch order, worker count, or cache state. The
//! integration tests assert byte-identical JSON reports across shuffled
//! batches, worker counts, and cache on/off.
//!
//! ```
//! use pim_baselines::PlatformKind;
//! use pim_runtime::{Job, Runtime, RuntimeConfig};
//! use pim_workloads::{Kernel, WorkloadSpec};
//!
//! let runtime = Runtime::new(RuntimeConfig::default());
//! let jobs = vec![
//!     Job::new(WorkloadSpec::polybench(Kernel::Gemm, 0.02), PlatformKind::StPim),
//!     Job::new(WorkloadSpec::polybench(Kernel::Gemm, 0.02), PlatformKind::Coruscant),
//! ];
//! let batch = runtime.run_batch(&jobs);
//! assert_eq!(batch.outcomes.len(), 2);
//! assert!(batch.outcomes[0].report.as_ref().unwrap().total_ns() > 0.0);
//! ```

pub mod cache;
pub mod executor;
pub mod job;
pub mod metrics;
pub mod runtime;

pub use cache::{ScheduleCache, SCHEDULE_CACHE_BUDGET};
pub use job::Job;
pub use metrics::{quantize_ns_to_ps, quantize_pj_to_fj, MetricsSnapshot};
// Serving edges and tools accept cluster specs inside `Job` JSON; re-export
// the spec types so they don't need a direct pim-cluster dependency.
pub use pim_cluster::{ClusterSpec, PartitionStrategy};
pub use runtime::{
    intra_worker_budget, BatchResult, CacheDisposition, JobInstruments, JobOutcome, Runtime,
    RuntimeConfig,
};
