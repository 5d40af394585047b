//! Wire types of the HTTP/JSON job API.
//!
//! Everything here round-trips through the workspace serde shim: structs
//! serialize as objects, unit enum variants as strings (`"Queued"`), and
//! `Option` as the value or `null`. [`pim_runtime::Job`] itself is the
//! submission payload, so anything the batch runtime can price can be
//! submitted over the wire unchanged.

use crate::admission::Phase;
use crate::meter::{LedgerSummary, MeterRecord};
use pim_device::ExecReport;
use pim_flight::FlightCounters;
use pim_obs::SloReport;
use pim_runtime::{Job, MetricsSnapshot};
use rm_core::DeviceHealth;
use serde::{Deserialize, Serialize};

/// `POST /v1/jobs` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant the job is billed to (required, non-empty).
    pub tenant: String,
    /// The job to price — the same serializable [`Job`] the batch runtime
    /// takes directly; its `request_id` is overwritten with the id minted
    /// for this request.
    pub job: Job,
}

/// Lifecycle of a submitted job as observed through the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting in its tenant's queue.
    Queued,
    /// Dispatched into the runtime.
    Running,
    /// Finished successfully; the result is available.
    Completed,
    /// Finished with an error.
    Failed,
    /// Removed from the queue before dispatch.
    Cancelled,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// `POST /v1/jobs` success body (202).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Server-assigned job id.
    pub id: u64,
    /// Billed tenant.
    pub tenant: String,
    /// Correlation id minted for the submitting HTTP request (also sent
    /// as the `x-request-id` response header). The same id appears in
    /// the job's meter record, its trace spans, its flight record, and
    /// the event log.
    pub request_id: String,
    /// Always [`JobState::Queued`] on admission.
    pub state: JobState,
    /// The admission meter record: cost tier and up-front estimate.
    pub meter: MeterRecord,
}

/// `GET /v1/jobs/{id}` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Job id.
    pub id: u64,
    /// Billed tenant.
    pub tenant: String,
    /// Correlation id of the submitting request.
    pub request_id: String,
    /// Job display name.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Host time the job was admitted (ns since server start).
    pub submitted_ns: u64,
    /// Host time the job was dispatched, if it has been.
    pub started_ns: Option<u64>,
    /// Host time the job reached a terminal state, if it has.
    pub finished_ns: Option<u64>,
}

/// `GET /v1/jobs/{id}/result` body (terminal jobs only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultResponse {
    /// Job id.
    pub id: u64,
    /// Billed tenant.
    pub tenant: String,
    /// Correlation id of the submitting request.
    pub request_id: String,
    /// Terminal state.
    pub state: JobState,
    /// The deterministic run report (completed jobs only).
    pub report: Option<ExecReport>,
    /// The failure message (failed jobs only).
    pub error: Option<String>,
    /// The settled meter record (tier, consumption, bill).
    pub meter: Option<MeterRecord>,
}

/// `GET /v1/healthz` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Service lifecycle phase.
    pub phase: Phase,
    /// Jobs queued across all tenants.
    pub queued: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
}

/// Server-level traffic counters (monotone since start), read from the
/// `pim_serve_submissions_total`, `pim_serve_admission_total{outcome}` and
/// `pim_serve_cancellations_total` series of `GET /metrics.prom`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Submissions received (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted into the queues.
    pub admitted: u64,
    /// Submissions rejected for a full tenant queue (429).
    pub rejected_tenant: u64,
    /// Submissions shed for global overload (429).
    pub rejected_global: u64,
    /// Submissions refused while draining (503).
    pub rejected_drain: u64,
    /// Connections shed at the door (backlog full, 429).
    pub shed_connections: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
}

/// `GET /v1/metrics` body: the server's own counters, the runtime's batch
/// totals (job counts, latency histogram, cache statistics), the metering
/// ledger, SLO attainment, flight-recorder counters and cluster
/// utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Lifecycle phase at snapshot time.
    pub phase: Phase,
    /// Traffic counters.
    pub server: ServerStats,
    /// The batch runtime's totals.
    pub runtime: MetricsSnapshot,
    /// The metering ledger.
    pub ledger: LedgerSummary,
    /// Per-tenant latency-SLO attainment and error-budget burn.
    pub slo: SloReport,
    /// Flight-recorder retention/eviction/overhead counters.
    pub flight: FlightCounters,
    /// Per-device utilization rows accumulated from cluster jobs (empty
    /// until a multi-device job completes).
    pub cluster: Vec<pim_flight::DeviceUtilization>,
}

/// `GET /v1/device/health` response body: the wear heatmap.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceHealthResponse {
    /// Per-subarray wear rows and grand totals.
    pub health: DeviceHealth,
}

/// `POST /v1/admin/drain` body: the final state after a graceful drain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainResponse {
    /// Always [`Phase::Stopped`] on success.
    pub phase: Phase,
    /// The runtime's final totals.
    pub runtime: MetricsSnapshot,
    /// The flushed metering ledger.
    pub ledger: LedgerSummary,
}

/// Error body for every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// What went wrong.
    pub error: String,
    /// Correlation id of the rejected request (empty when the connection
    /// was shed before a request could be read).
    pub request_id: String,
    /// Backoff hint for 429/503 responses (also sent as `Retry-After`,
    /// in whole seconds).
    pub retry_after_ms: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_baselines::PlatformKind;
    use pim_workloads::{Kernel, WorkloadSpec};

    #[test]
    fn submit_request_round_trips() {
        let request = SubmitRequest {
            tenant: "alice".into(),
            job: Job::new(
                WorkloadSpec::polybench(Kernel::Gemm, 0.02),
                PlatformKind::StPim,
            ),
        };
        let json = serde_json::to_string(&request).unwrap();
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        assert!(json.contains("\"tenant\""));
        // A job that still carries the `tenant` field older clients sent
        // parses; the field is ignored.
        let old = json.replacen("\"job\":{", "\"job\":{\"tenant\":\"bob\",", 1);
        assert_ne!(old, json);
        assert_eq!(
            serde_json::from_str::<SubmitRequest>(&old).unwrap(),
            request
        );
    }

    #[test]
    fn job_states_serialize_as_strings() {
        assert_eq!(
            serde_json::to_string(&JobState::Queued).unwrap(),
            "\"Queued\""
        );
        let back: JobState = serde_json::from_str("\"Completed\"").unwrap();
        assert_eq!(back, JobState::Completed);
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Queued.is_terminal());
    }

    #[test]
    fn error_body_carries_the_hint() {
        let error = ErrorResponse {
            error: "service overloaded".into(),
            request_id: "req-00000002".into(),
            retry_after_ms: Some(1500),
        };
        let json = serde_json::to_string(&error).unwrap();
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.retry_after_ms, Some(1500));
    }
}
