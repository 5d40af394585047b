//! JSON validity under hostile workload names (ISSUE satellite): job
//! names are user-controlled UTF-8 and flow into the job status, the event
//! log, and the flight recorder's debug endpoints. A name
//! full of control characters, quotes, backslashes, and non-ASCII must
//! round-trip through every JSON surface — each response body has to stay
//! parseable by the workspace serde_json shim and give the name back
//! byte-for-byte.

use std::net::SocketAddr;
use std::time::Duration;
use streampim::pim_baselines::PlatformKind;
use streampim::pim_flight::{FlightIndex, FlightRecord};
use streampim::pim_obs::{EventRecord, SloConfig};
use streampim::pim_runtime::Job;
use streampim::pim_serve::api::{StatusResponse, SubmitRequest, SubmitResponse};
use streampim::pim_serve::{call, JobState, ServeConfig, Server};
use streampim::pim_workloads::WorkloadSpec;

/// Every class of trouble at once: C0 controls (including the JSON-special
/// ones), DEL, quote, backslash, newline/tab, CJK, an astral-plane emoji,
/// and a Rust-debug-looking escape that must NOT be interpreted.
const NAUGHTY: &str = "gemm \u{1}\u{8}\u{c}\u{1f}\u{7f}\"\\\n\t 世界 😀 \\u{7f}";

fn poll_terminal(addr: &SocketAddr, id: u64) -> StatusResponse {
    for _ in 0..4_000 {
        let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed: StatusResponse = serde_json::from_str(&body).unwrap();
        if parsed.state.is_terminal() {
            return parsed;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job {id} hung");
}

#[test]
fn hostile_names_round_trip_through_every_json_surface() {
    // Shim-level round trip first: the name survives serialize → parse.
    let json = serde_json::to_string(&NAUGHTY.to_string()).unwrap();
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), NAUGHTY);
    // Control characters are \u-escaped, never raw, so downstream line
    // protocols (JSON lines on /v1/events) cannot be split mid-record.
    assert!(!json.bytes().any(|b| b < 0x20), "raw control byte: {json}");

    // A 1 ns objective forces retention, so the name reaches the flight
    // record and the debug index too.
    let server = Server::start(ServeConfig {
        slo: SloConfig {
            latency_objective_ns: 1,
            ..SloConfig::default()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut job = Job::new(
        WorkloadSpec::MatMul {
            m: 24,
            k: 24,
            n: 24,
        },
        PlatformKind::StPim,
    );
    job.name = NAUGHTY.to_string();
    let body = serde_json::to_string(&SubmitRequest {
        tenant: "escapes".to_string(),
        job,
    })
    .unwrap();
    let (status, _, body) = call(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(status, 202, "{body}");
    let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
    let terminal = poll_terminal(&addr, submitted.id);
    assert_eq!(terminal.state, JobState::Completed);
    assert_eq!(terminal.name, NAUGHTY, "status response mangled the name");

    // /v1/events: every line is one parseable JSON record, and the
    // submission event carries the name intact in its fields.
    let (status, _, body) = call(&addr, "GET", "/v1/events", None).unwrap();
    assert_eq!(status, 200);
    let events: Vec<EventRecord> = body
        .lines()
        .map(|line| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("unparseable event line: {e}: {line}"))
        })
        .collect();
    assert!(
        events
            .iter()
            .any(|e| e.request_id == submitted.request_id
                && e.fields.iter().any(|(_, v)| v == NAUGHTY)),
        "no event carries the hostile name verbatim"
    );

    // Debug endpoints: index and full record both parse and round-trip.
    let (status, _, body) = call(&addr, "GET", "/v1/debug/requests", None).unwrap();
    assert_eq!(status, 200);
    let index: FlightIndex = serde_json::from_str(&body).unwrap();
    assert!(
        index.retained.iter().any(|e| e.name == NAUGHTY),
        "debug index mangled the name: {body}"
    );
    let (status, _, body) = call(
        &addr,
        "GET",
        &format!("/v1/debug/requests/{}", submitted.request_id),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(!body.bytes().any(|b| b < 0x20 && b != b'\n' && b != b' '));
    let record: FlightRecord = serde_json::from_str(&body).unwrap();
    assert_eq!(record.name, NAUGHTY, "flight record mangled the name");
    // The job span in the record timeline is named after the job.
    assert!(
        record.spans.iter().any(|s| s.name == NAUGHTY),
        "no span carries the job name: {:?}",
        record.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // The Prometheus exposition must survive too (names don't become
    // labels, but tenants do — the validator rejects raw breakage).
    let (status, _, body) = call(&addr, "GET", "/metrics.prom", None).unwrap();
    assert_eq!(status, 200);
    streampim::pim_obs::prom::validate_exposition(&body)
        .unwrap_or_else(|e| panic!("exposition invalid: {e}"));

    server.shutdown();
}
