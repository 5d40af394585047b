//! Component-level attribution profiler: answers "where did the simulated
//! nanoseconds and picojoules go".
//!
//! The write side — the [`rm_core::Probe`] trait — lives in `rm-core` so
//! the analytic layers (`pim-device`'s engines, `pim-baselines`,
//! `pim-cluster`) can emit [`rm_core::ProbeSample`]s without depending on
//! this crate. Here lives the read side:
//!
//! * [`AttributionTree`] — accumulates samples per component path
//!   (`device/subarray[3]`, `bus/lane[0]`, `device/controller`, `host/cpu`),
//!   with exact conservation guarantees: the tree's running total performs
//!   the *same sequence* of additions as the simulator's global
//!   `OpCounters`/`EnergyBreakdown` accumulators, so enabled profiling is
//!   bit-identical to the global report (asserted by proptests).
//! * [`AttributionProbe`] — the thread-safe [`rm_core::Probe`] implementation
//!   wrapping a tree.
//! * [`Profile`] — the serializable export: JSON profiles, top-N hotspot
//!   tables, and inferno-compatible folded-stack text for flamegraphs.
//! * [`diff()`] — per-node percent-change between two profiles with a
//!   drift threshold, backing `profile diff a.json b.json`.
//!
//! ```
//! use pim_profile::{AttributionProbe, Profile};
//! use rm_core::{Probe, ProbeSample};
//!
//! let probe = AttributionProbe::new();
//! probe.record("device/subarray[0]", ProbeSample::busy(120.0));
//! probe.record("device/subarray[1]", ProbeSample::busy(80.0));
//! let profile = Profile::from_tree("demo", &probe.snapshot());
//! assert_eq!(profile.nodes.len(), 2);
//! assert!(profile.folded().contains("device;subarray[0] 120"));
//! ```

pub mod diff;
pub mod export;
pub mod probe;
pub mod tree;

pub use diff::{diff, DiffRow, ProfileDiff};
pub use export::{Profile, ProfileNode};
pub use probe::AttributionProbe;
pub use tree::{AttributionTree, NodeStats};
