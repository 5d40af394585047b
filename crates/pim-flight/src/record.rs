//! Wire types: the retained record, its summary form, and the counters.

use pim_profile::Profile;
use pim_runtime::CacheDisposition;
use serde::{Deserialize, Serialize};

/// Why a request's full record was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetainReason {
    /// Latency exceeded the tenant's SLO objective (or the request failed
    /// its objective by erroring — errors carry their own reason).
    SloBreach,
    /// The job returned an error.
    Error,
    /// The request was cancelled while queued.
    Cancelled,
    /// Latency was an outlier against the per-(tenant, shape) reservoir.
    Outlier,
}

impl RetainReason {
    /// Short lowercase label for dashboards and Prometheus-free text.
    pub fn label(self) -> &'static str {
        match self {
            RetainReason::SloBreach => "slo_breach",
            RetainReason::Error => "error",
            RetainReason::Cancelled => "cancelled",
            RetainReason::Outlier => "outlier",
        }
    }
}

/// One span of the request's timeline, flattened for JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Span display name (phase, VPC mnemonic, job name).
    pub name: String,
    /// Category (`compute`, `transfer`, `job`, `lowering`, ...).
    pub cat: String,
    /// Resource timeline, rendered (`subarray 3`, `worker 0`, ...).
    pub track: String,
    /// Clock domain: `sim` or `host`.
    pub domain: String,
    /// Start, nanoseconds on the domain clock.
    pub start_ns: f64,
    /// Duration, nanoseconds.
    pub dur_ns: f64,
}

impl PhaseSpan {
    /// Flattens a trace span.
    pub fn from_span(span: &pim_trace::Span) -> Self {
        PhaseSpan {
            name: span.name.clone(),
            cat: span.cat.to_string(),
            track: span.track.to_string(),
            domain: match span.domain {
                pim_trace::ClockDomain::Sim => "sim".to_string(),
                pim_trace::ClockDomain::Host => "host".to_string(),
            },
            start_ns: span.start_ns,
            dur_ns: span.dur_ns,
        }
    }
}

/// Everything the serving edge observed about one finished request. This
/// is the recorder's *input*; retention turns it into a [`FlightRecord`]
/// or a [`FlightSummary`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobObservation {
    /// Correlation id minted by the serving edge (`x-request-id`).
    pub request_id: String,
    /// Server-assigned job id.
    pub job_id: u64,
    /// Tenant name.
    pub tenant: String,
    /// Job display name (user-controlled; may carry any UTF-8).
    pub name: String,
    /// Platform label.
    pub platform: String,
    /// Dimension-blind workload shape key (0 when the cache never probed).
    pub shape_key: u64,
    /// Time spent queued before dispatch, nanoseconds.
    pub queued_ns: u64,
    /// Service latency (dispatch to completion), nanoseconds.
    pub latency_ns: u64,
    /// The tenant's SLO latency objective, nanoseconds (0 = no objective).
    pub slo_objective_ns: u64,
    /// Whether the job produced a report.
    pub ok: bool,
    /// The error message for failed jobs.
    pub error: Option<String>,
    /// Whether the request was cancelled while queued.
    pub cancelled: bool,
    /// Cache / re-pricing disposition.
    pub cache: CacheDisposition,
}

/// The full retained record served at `GET /v1/debug/requests/<id>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Correlation id (`x-request-id` of the original submission).
    pub request_id: String,
    /// Server-assigned job id.
    pub job_id: u64,
    /// Tenant name.
    pub tenant: String,
    /// Job display name.
    pub name: String,
    /// Platform label.
    pub platform: String,
    /// Dimension-blind workload shape key.
    pub shape_key: u64,
    /// Why the record was retained.
    pub reason: RetainReason,
    /// Whether the job produced a report.
    pub ok: bool,
    /// Error message for failed jobs.
    pub error: Option<String>,
    /// Queue wait, nanoseconds.
    pub queued_ns: u64,
    /// Service latency, nanoseconds.
    pub latency_ns: u64,
    /// The tenant's SLO latency objective at completion time, nanoseconds.
    pub slo_objective_ns: u64,
    /// Cache / re-pricing disposition.
    pub cache: CacheDisposition,
    /// The request's timeline (host job span + simulated phase spans).
    pub spans: Vec<PhaseSpan>,
    /// Spans the bounded per-request collector had to drop.
    pub trace_dropped: u64,
    /// Per-component attribution profile.
    pub attribution: Profile,
    /// Inferno-compatible folded-stack rendering of the attribution.
    pub folded: String,
}

/// The cheap form every non-retained request leaves behind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightSummary {
    /// Correlation id.
    pub request_id: String,
    /// Tenant name.
    pub tenant: String,
    /// Job display name.
    pub name: String,
    /// Dimension-blind workload shape key.
    pub shape_key: u64,
    /// Whether the job produced a report.
    pub ok: bool,
    /// Service latency, nanoseconds.
    pub latency_ns: u64,
}

/// One row of the retained-record index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightIndexEntry {
    /// Correlation id — key for `GET /v1/debug/requests/<id>`.
    pub request_id: String,
    /// Tenant name.
    pub tenant: String,
    /// Job display name.
    pub name: String,
    /// Retention reason label (`slo_breach`, `error`, ...).
    pub reason: String,
    /// Service latency, nanoseconds.
    pub latency_ns: u64,
    /// Serialized record size, bytes (what the ring's byte budget counts).
    pub bytes: u64,
}

/// Recorder health counters, exported in `/v1/metrics` and as gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightCounters {
    /// Requests the recorder observed.
    pub observed: u64,
    /// Full records retained (before eviction).
    pub retained: u64,
    /// Requests dropped to a summary.
    pub summarized: u64,
    /// Retained records evicted by the ring's record/byte budget.
    pub evicted: u64,
    /// Records currently resident in the ring.
    pub ring_records: u64,
    /// Bytes currently resident in the ring.
    pub ring_bytes: u64,
    /// Host nanoseconds spent inside the recorder's completion hook
    /// (retention decision + serialization), cumulative.
    pub overhead_ns: u64,
}

/// The response body of `GET /v1/debug/requests`: counters, the retained
/// index (newest first) and the tail of recent summaries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightIndex {
    /// Recorder counters at snapshot time.
    pub counters: FlightCounters,
    /// Retained records, newest first.
    pub retained: Vec<FlightIndexEntry>,
    /// Most recent summaries, newest first.
    pub recent: Vec<FlightSummary>,
}
