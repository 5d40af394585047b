//! Tail-sampling flight recorder for the serving path.
//!
//! Every served job runs with a lightweight per-request trace collector and
//! attribution probe attached (a [`FlightTap`]); when the job completes, a
//! **retention policy** decides what survives:
//!
//! * requests that breached their tenant SLO, errored, were cancelled, or
//!   are latency outliers against a per-(tenant, shape-key) streaming
//!   reservoir of recent latencies keep their full [`FlightRecord`] —
//!   per-phase spans, attribution tree (whose `total.ops` carries the
//!   request's shift counters), folded-stack profile, and cache / re-price
//!   disposition;
//! * everything else drops to a cheap [`FlightSummary`].
//!
//! Retained records live in a bounded ring with **byte-budget eviction**
//! (oldest-first, newest always survives), so steady-state memory is
//! `O(max_bytes)` regardless of traffic. Records are serialized to JSON
//! exactly once, at retention time; the debug endpoints serve the stored
//! bytes verbatim.
//!
//! ## Determinism contract
//!
//! The recorder only *observes*. Taps ride the instrumented repriced fast
//! path (`StreamPim::execute_instrumented` with a price table is
//! byte-identical instrumented or not), so
//! simulated reports are byte-identical with the recorder on, off, or mid
//! eviction — the serving determinism suite pins this. Retention decisions
//! themselves are a pure function of the observation stream: given the
//! same sequence of [`JobObservation`]s, the same records are retained.

pub mod cluster;
pub mod health;
pub mod record;
pub mod recorder;
pub mod reservoir;

pub use cluster::{ClusterUtilization, DeviceUtilization};
pub use health::absorb_attribution;
pub use record::{
    FlightCounters, FlightIndex, FlightIndexEntry, FlightRecord, FlightSummary, JobObservation,
    PhaseSpan, RetainReason,
};
pub use recorder::{FlightConfig, FlightRecorder, FlightTap};
pub use reservoir::LatencyReservoir;
