//! # pim-serve: the StreamPIM pricing simulator as a network service
//!
//! A std-only HTTP/1.1 JSON front-end over [`pim_runtime`]: clients submit
//! serialized [`pim_runtime::Job`]s, poll status, and fetch the same
//! deterministic [`pim_device::ExecReport`]s a direct library call would
//! produce — byte-identical, because the service only decides *when* a job
//! runs, never what it computes.
//!
//! The crate is deliberately dependency-free (no async runtime, no HTTP
//! framework): a hand-rolled HTTP layer over [`std::net`], a bounded
//! thread pool, and condvar-based dispatch. See `DESIGN.md` §13 for the
//! architecture discussion.
//!
//! ## Layers
//!
//! - [`http`]: minimal HTTP/1.1 parse/serialize + blocking client.
//! - [`api`]: the JSON wire types (`SubmitRequest`, `StatusResponse`, …).
//! - [`queue`]: per-tenant FIFOs with smooth weighted-round-robin dispatch.
//! - [`admission`]: per-tenant/global caps, 429/503 load shedding,
//!   `Retry-After` hints, and the Accepting → Draining → Stopped lifecycle.
//! - [`meter`]: the cost ledger — tier estimate at admission, exact
//!   integer-quantized consumption at settlement, and a conservation
//!   invariant checked against the runtime's own counters.
//! - [`server`]: the listener, worker pools, routing, and graceful drain.
//!
//! ## Observability
//!
//! Telemetry is always on and host-side only (see [`pim_obs`]): every
//! HTTP exchange mints a `req-XXXXXXXX` correlation id, returned in the
//! `x-request-id` response header and threaded through admission, the
//! tenant queue, the metering ledger, the runtime job's trace spans, and
//! its flight record. The live registry is scraped at `GET /metrics.prom`
//! (Prometheus text exposition 0.0.4), the structured event log at
//! `GET /v1/events` (JSON lines), and per-tenant latency-SLO attainment
//! rides along in `GET /v1/metrics`.
//!
//! ## Endpoints
//!
//! | Method & path                  | Purpose                              |
//! |--------------------------------|--------------------------------------|
//! | `POST /v1/jobs`                | Submit a job (202 + meter record)    |
//! | `GET /v1/jobs/{id}`            | Poll lifecycle state                 |
//! | `GET /v1/jobs/{id}/result`     | Fetch report + settled meter         |
//! | `DELETE /v1/jobs/{id}`         | Cancel a queued job (refund)         |
//! | `GET /v1/metrics`              | Server + runtime + ledger + SLO      |
//! | `GET /metrics.prom`            | Prometheus text exposition           |
//! | `GET /v1/events`               | Structured event log (JSON lines)    |
//! | `GET /v1/debug/requests`       | Flight-recorder index (tail samples) |
//! | `GET /v1/debug/requests/{id}`  | One retained flight record, full     |
//! | `GET /v1/device/health`        | Per-subarray wear heatmap            |
//! | `GET /v1/tenants/{t}/usage`    | One tenant's metered totals          |
//! | `GET /v1/healthz`              | Phase and queue depths               |
//! | `POST /v1/admin/drain`         | Graceful drain; returns final state  |
//!
//! Serving state is bounded: the job table keeps the last
//! [`TERMINAL_JOB_BUDGET`] finished jobs, and the job routes answer
//! `410 Gone` for an id whose record was evicted (`404` for an id never
//! issued).

pub mod admission;
pub mod api;
pub mod http;
pub mod meter;
pub mod queue;
pub mod server;

pub use admission::{admit, retry_after_ms, AdmissionConfig, Phase, Rejection};
pub use api::{
    DeviceHealthResponse, DrainResponse, ErrorResponse, HealthResponse, JobState, MetricsResponse,
    ResultResponse, ServerStats, StatusResponse, SubmitRequest, SubmitResponse,
};
pub use http::{client_request, Request, Response};
pub use meter::{
    tier_for, Consumption, CostTier, Ledger, LedgerSummary, MeterConfig, MeterRecord, MeterState,
    TenantUsage, TIER_TABLE,
};
pub use queue::TenantQueues;
pub use server::{call, ServeConfig, Server, ThreadPlan, TERMINAL_JOB_BUDGET};
