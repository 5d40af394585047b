//! End-to-end acceptance tests for the observability layer: the trace a
//! real workload produces must be Chrome/Perfetto-valid, cover every
//! resource class, show the `unblock` overlap, and never perturb results.

use serde::Value;
use std::sync::Arc;
use streampim::pim_baselines::platform::PlatformKind;
use streampim::pim_device::engine_event::EventEngine;
use streampim::pim_device::schedule::Schedule;
use streampim::pim_device::{OptLevel, StreamPim, StreamPimConfig};
use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};
use streampim::pim_trace::analyze::Analysis;
use streampim::pim_trace::{chrome, Collector, NullSink, TraceSink};
use streampim::pim_workloads::polybench::Kernel;
use streampim::pim_workloads::spec::WorkloadSpec;
use streampim::rm_core::NullProbe;

/// A small polybench schedule lowered under the paper-default device.
fn lowered(kernel: Kernel, scale: f64) -> (StreamPimConfig, Schedule) {
    let cfg = StreamPimConfig::paper_default();
    let device = StreamPim::new(cfg.clone()).unwrap();
    let schedule = WorkloadSpec::polybench(kernel, scale)
        .shape_task()
        .lower(&device)
        .unwrap();
    (cfg, schedule)
}

/// The full cross-layer trace of one kernel: simulated timelines from both
/// engines plus host timelines from a traced runtime batch.
fn full_trace(kernel: Kernel, scale: f64) -> Collector {
    let (cfg, schedule) = lowered(kernel, scale);
    let sink = Collector::new();
    EventEngine::new(&cfg)
        .unwrap()
        .run_instrumented(&schedule, &sink, &NullProbe);
    StreamPim::new(cfg)
        .unwrap()
        .execute_instrumented(&schedule, &sink, &NullProbe, None);

    let host: Arc<Collector> = Arc::new(Collector::new());
    let runtime = Runtime::with_sink(
        RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        },
        Arc::clone(&host) as Arc<dyn TraceSink>,
    );
    let spec = WorkloadSpec::polybench(kernel, scale);
    let batch = runtime.run_batch(&[
        Job::new(spec, PlatformKind::StPim),
        Job::new(spec, PlatformKind::CpuRm),
    ]);
    assert_eq!(batch.failed(), 0);
    for span in host.spans() {
        sink.record_span(span);
    }
    for event in host.events() {
        sink.record_instant(event);
    }
    sink
}

#[test]
fn trace_covers_every_resource_class() {
    let sink = full_trace(Kernel::Atax, 0.02);
    let spans = sink.spans();
    for class in ["subarray", "lane", "decoder", "phase", "worker"] {
        assert!(
            spans.iter().any(|s| s.track.class() == class),
            "no span on any {class} track"
        );
    }
    assert!(
        sink.events().iter().any(|e| e.track.class() == "cache"),
        "no cache probe instants"
    );
}

#[test]
fn chrome_json_is_perfetto_valid() {
    let sink = full_trace(Kernel::Atax, 0.02);
    let json = chrome::to_chrome_json(&sink.spans(), &sink.events());
    let root: Value = serde_json::from_str(&json).unwrap();
    let events = match root.field("traceEvents").unwrap() {
        Value::Seq(items) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let mut complete = 0usize;
    for ev in events {
        let ph = match ev.field("ph").unwrap() {
            Value::Str(s) => s.as_str(),
            other => panic!("ph must be a string, got {other:?}"),
        };
        match ph {
            "X" => {
                complete += 1;
                for key in ["ts", "dur"] {
                    match ev.field(key).unwrap() {
                        Value::UInt(_) | Value::Int(_) | Value::Float(_) => {}
                        other => panic!("{key} must be numeric, got {other:?}"),
                    }
                }
                for key in ["pid", "tid"] {
                    assert!(
                        matches!(ev.field(key).unwrap(), Value::UInt(_)),
                        "{key} must be unsigned"
                    );
                }
                assert!(matches!(ev.field("name").unwrap(), Value::Str(_)));
            }
            "i" => {
                // Instants carry the global scope marker.
                assert!(matches!(ev.field("s").unwrap(), Value::Str(_)));
            }
            "M" => {}
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(complete > 0, "trace has no complete events");
}

#[test]
fn unblock_overlap_strictly_exceeds_base() {
    let (cfg, schedule) = lowered(Kernel::Gemm, 0.02);
    let overlap = |opt: OptLevel| {
        let sink = Collector::new();
        StreamPim::new(cfg.clone().with_opt(opt))
            .unwrap()
            .execute_instrumented(&schedule, &sink, &NullProbe, None);
        Analysis::of(&sink.spans()).overlap_fraction
    };
    let base = overlap(OptLevel::Base);
    let unblock = overlap(OptLevel::Unblock);
    // Base is serial: any "overlap" is float ulps from the running clock.
    assert!(base < 1e-9, "base is fully serial, got {base}");
    assert!(
        unblock > 0.5,
        "unblock hides most transfers under compute, got {unblock}"
    );
    assert!(
        unblock > base,
        "unblock must overlap transfers with compute: {unblock} vs {base}"
    );
}

#[test]
fn disabled_tracing_changes_no_report() {
    let (cfg, schedule) = lowered(Kernel::Gemm, 0.02);
    let device = StreamPim::new(cfg).unwrap();
    let plain = device.execute(&schedule);
    let null_traced = device.execute_instrumented(&schedule, &NullSink, &NullProbe, None);
    let collected = device.execute_instrumented(&schedule, &Collector::new(), &NullProbe, None);
    assert_eq!(plain, null_traced);
    assert_eq!(plain, collected);

    // Same through the runtime: traced and untraced batches agree.
    let spec = WorkloadSpec::polybench(Kernel::Atax, 0.02);
    let jobs = vec![
        Job::new(spec, PlatformKind::StPim),
        Job::new(spec, PlatformKind::Coruscant),
    ];
    let cfg = RuntimeConfig {
        workers: 2,
        cache_enabled: true,
        ..RuntimeConfig::default()
    };
    let plain = Runtime::new(cfg.clone()).run_batch(&jobs);
    let traced = Runtime::with_sink(cfg, Arc::new(Collector::new())).run_batch(&jobs);
    assert_eq!(plain, traced);
}
