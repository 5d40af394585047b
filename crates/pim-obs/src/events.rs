//! A structured, leveled, rate-limited event log with a bounded
//! in-memory ring.
//!
//! This replaces ad-hoc `eprintln!` paths in the serving stack: events
//! are structured records (level, scope, message, request id, key/value
//! fields) that are retained in a bounded ring for `GET /v1/events` and
//! can be rendered as JSON lines. A per-scope token window bounds the
//! rate of retained events so a hot error path cannot evict everything
//! else from the ring; suppressed events are counted, never silently
//! lost.
//!
//! Timestamps are host-side wall-clock offsets from log construction.
//! Nothing here feeds back into simulation results — the determinism
//! suite proves observed and unobserved runs produce byte-identical
//! reports.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Event severity, in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Diagnostic detail.
    Debug,
    /// Normal operational milestones.
    Info,
    /// Unexpected but handled conditions.
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// Lower-case name for display.
    pub fn name(&self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotonic sequence number (1-based, gap-free across retained and
    /// suppressed events, so readers can detect ring eviction).
    pub seq: u64,
    /// Host nanoseconds since the log was constructed.
    pub host_ns: u64,
    /// Severity.
    pub level: Level,
    /// Emitting component, e.g. `serve.admission` or `runtime.worker`.
    pub scope: String,
    /// Human-readable message.
    pub message: String,
    /// Correlating request id; empty when the event is not
    /// request-scoped.
    pub request_id: String,
    /// Structured key/value payload.
    pub fields: Vec<(String, String)>,
}

/// Per-scope sliding-window rate limiter state.
#[derive(Debug)]
struct ScopeWindow {
    window_start_ns: u64,
    emitted_in_window: u64,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<EventRecord>,
    next_seq: u64,
    windows: HashMap<String, ScopeWindow>,
}

/// Configuration for an [`EventLog`].
#[derive(Debug, Clone, Copy)]
pub struct EventLogConfig {
    /// Ring capacity: oldest retained events are evicted beyond this.
    pub capacity: usize,
    /// Maximum events retained per scope per window.
    pub max_per_scope_per_window: u64,
    /// Rate-limit window length in host nanoseconds.
    pub window_ns: u64,
}

impl Default for EventLogConfig {
    fn default() -> Self {
        EventLogConfig {
            capacity: 1024,
            max_per_scope_per_window: 128,
            window_ns: 1_000_000_000,
        }
    }
}

/// The bounded, rate-limited event ring.
#[derive(Debug)]
pub struct EventLog {
    config: EventLogConfig,
    origin: Instant,
    inner: Mutex<Inner>,
    suppressed: AtomicU64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(EventLogConfig::default())
    }
}

impl EventLog {
    /// A new log with the given configuration, retaining `Info` and
    /// above.
    pub fn new(config: EventLogConfig) -> Self {
        EventLog {
            config,
            origin: Instant::now(),
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(config.capacity.min(4096)),
                next_seq: 1,
                windows: HashMap::new(),
            }),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Number of events dropped by level filtering or rate limiting
    /// (ring eviction is *not* counted here; it is visible as a `seq`
    /// gap below the oldest retained event).
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Emits one event. Returns the sequence number if retained, `None`
    /// if filtered or rate-limited.
    pub fn emit(
        &self,
        level: Level,
        scope: &str,
        request_id: &str,
        message: &str,
        fields: &[(&str, &str)],
    ) -> Option<u64> {
        if level < Level::Info {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let host_ns = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("event ring lock");
        // Per-scope window check. `Error` events bypass the limiter: an
        // operator must never lose the first sign of a failure.
        if level < Level::Error {
            let window = inner
                .windows
                .entry(scope.to_string())
                .or_insert(ScopeWindow {
                    window_start_ns: host_ns,
                    emitted_in_window: 0,
                });
            if host_ns.saturating_sub(window.window_start_ns) >= self.config.window_ns {
                window.window_start_ns = host_ns;
                window.emitted_in_window = 0;
            }
            if window.emitted_in_window >= self.config.max_per_scope_per_window {
                drop(inner);
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            window.emitted_in_window += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() >= self.config.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(EventRecord {
            seq,
            host_ns,
            level,
            scope: scope.to_string(),
            message: message.to_string(),
            request_id: request_id.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
        Some(seq)
    }

    /// The most recent `limit` retained events, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<EventRecord> {
        let inner = self.inner.lock().expect("event ring lock");
        let skip = inner.ring.len().saturating_sub(limit);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event ring lock").ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the most recent `limit` events as JSON lines (one record
    /// per line, oldest first).
    pub fn to_json_lines(&self, limit: usize) -> String {
        self.recent(limit)
            .iter()
            .map(|record| serde_json::to_string(record).expect("event serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let log = EventLog::new(EventLogConfig {
            capacity: 4,
            max_per_scope_per_window: 1_000,
            window_ns: u64::MAX,
        });
        for i in 0..10 {
            log.emit(
                Level::Info,
                "test",
                "",
                &format!("event {i}"),
                &[("i", &i.to_string())],
            );
        }
        let recent = log.recent(100);
        assert_eq!(recent.len(), 4, "ring holds at most capacity");
        assert_eq!(recent[0].seq, 7, "oldest retained after eviction");
        assert_eq!(recent[3].seq, 10);
        assert_eq!(recent[3].message, "event 9");
    }

    #[test]
    fn level_filter_and_rate_limit_count_suppressed() {
        let log = EventLog::new(EventLogConfig {
            capacity: 100,
            max_per_scope_per_window: 3,
            window_ns: u64::MAX,
        });
        assert!(log.emit(Level::Debug, "s", "", "filtered", &[]).is_none());
        for _ in 0..5 {
            log.emit(Level::Info, "s", "", "burst", &[]);
        }
        assert_eq!(log.len(), 3, "window caps retained events per scope");
        assert_eq!(log.suppressed(), 3, "1 filtered + 2 rate-limited");
        // Errors bypass the limiter.
        assert!(log.emit(Level::Error, "s", "req-1", "boom", &[]).is_some());
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn records_serialize_as_json_lines() {
        let log = EventLog::default();
        log.emit(
            Level::Warn,
            "serve.admission",
            "req-00000001",
            "rejected",
            &[("tenant", "gold"), ("reason", "tenant queue full")],
        );
        let lines = log.to_json_lines(10);
        assert!(lines.contains("\"level\""));
        assert!(lines.contains("req-00000001"));
        assert!(lines.contains("tenant queue full"));
        let parsed: EventRecord = serde_json::from_str(&lines).expect("round trips");
        assert_eq!(parsed.scope, "serve.admission");
        assert_eq!(parsed.level, Level::Warn);
    }
}
