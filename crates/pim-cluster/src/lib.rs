//! Multi-device scale-out: clusters of StreamPIM devices in a rank/channel
//! topology with a priced inter-device interconnect.
//!
//! A [`Cluster`] holds N identical simulated
//! [`StreamPim`](pim_device::StreamPim) devices arranged as memory channels
//! hosting ranks ([`ClusterTopology`]): channels are independent links to
//! the host controller, devices on the same channel share its bus.
//! Workloads are split across devices by the partitioners in
//! [`partition`]:
//!
//! * **data-parallel** — every matmul's output rows are sharded
//!   contiguously across devices; operands broadcast over the links, row
//!   partials gather back to the controller (the all-reduce of disjoint row
//!   blocks), and the cluster finishes when the critical device does.
//! * **pipeline-parallel** — a DNN's layer list is cut into contiguous
//!   stages balanced by flops, one stage per device; activations between
//!   stages are priced on the links and batches amortize the pipeline fill
//!   against the bottleneck stage.
//!
//! Every link transfer is priced by [`InterconnectParams`] (bandwidth,
//! latency, rank-hop latency, energy per byte) and folded into the combined
//! report's `OpCounters`/`EnergyBreakdown`; an attached probe sees the
//! exact charged quantities under `cluster/interconnect/*` paths, and each
//! device's engine attribution is replayed under `cluster/device[d]/...`.
//!
//! **Determinism contract.** Device lanes execute on scoped OS threads via
//! [`rm_core::shard::run_sharded`] — one lane per distinct shard (the
//! devices are identical, so equal shards lower and price once and every
//! device holding one reads its lane's output), clamped by the cluster's
//! [`Parallelism`](pim_device::Parallelism). A lane lowers and prices its
//! shard one round at a time
//! ([`ShapeTask::price_instrumented`](pim_device::ShapeTask::price_instrumented)),
//! so no lane schedule is built or held. All reports, probe
//! records and trace spans are reduced in fixed device order on the
//! coordinating thread. Results are byte-identical at any worker
//! count, and a single-device cluster (`n = 1`, batch 1) routes through
//! exactly the single-device code path, so its report is byte-identical to
//! [`Platform::run`](pim_baselines::Platform) on the same configuration.

pub mod cluster;
pub mod interconnect;
pub mod partition;
pub mod topology;

pub use cluster::{Cluster, ClusterReport, ClusterSpec, PartitionStrategy};
pub use interconnect::{InterconnectParams, InterconnectReport, LinkLoad};
pub use topology::{ClusterConfig, ClusterTopology};

/// Hard ceiling on simulated devices per cluster (a sanity bound for job
/// admission, far above any modelled deployment in this tree).
pub const MAX_DEVICES: u32 = 64;
