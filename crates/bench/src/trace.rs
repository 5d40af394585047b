//! The `trace` experiment: records one kernel's simulated execution as a
//! Perfetto trace and derives the utilization report from the spans.
//!
//! Two engines contribute to the same trace: the operational
//! [`EventEngine`] (one span per scheduled command on subarray /
//! transfer-lane / decoder tracks) and the analytic engine behind
//! [`StreamPim::execute_instrumented`] (per-round phase spans). The
//! overlap comparison prices the *same* schedule with optimizations off
//! and on — the span-level view of Figure 22's mechanism.

use crate::figures::Scale;
use pim_device::engine_event::EventEngine;
use pim_device::{OptLevel, PimError, StreamPim, StreamPimConfig};
use pim_trace::analyze::Analysis;
use pim_trace::{chrome, Collector};
use pim_workloads::polybench::Kernel;
use rm_core::NullProbe;

/// Everything the `trace` experiment produces.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Chrome trace-event JSON (load at <https://ui.perfetto.dev>).
    pub json: String,
    /// Human-readable utilization report derived from the same spans.
    pub report: String,
    /// Analytic overlap fraction with optimizations off.
    pub overlap_base: f64,
    /// Analytic overlap fraction with `distribute` + `unblock`.
    pub overlap_unblock: f64,
    /// Number of spans in the trace.
    pub spans: usize,
}

/// Traces `kernel` at `scale` on the paper-default device.
///
/// # Errors
///
/// Propagates device-validation and lowering errors.
pub fn trace_kernel(kernel: Kernel, scale: Scale) -> Result<TraceRun, Box<dyn std::error::Error>> {
    let cfg = StreamPimConfig::paper_default();
    let device = StreamPim::new(cfg.clone())?;
    let schedule = kernel
        .scaled(scale.0)
        .build_task(None)
        .task
        .lower(&device)?;

    let sink = Collector::new();
    EventEngine::new(&cfg)?.run_instrumented(&schedule, &sink, &NullProbe);
    device.execute_instrumented(&schedule, &sink, &NullProbe, None);

    let overlap = |opt: OptLevel| -> Result<f64, PimError> {
        let c = Collector::new();
        StreamPim::new(cfg.clone().with_opt(opt))?
            .execute_instrumented(&schedule, &c, &NullProbe, None);
        Ok(Analysis::of(&c.spans()).overlap_fraction)
    };

    let spans = sink.spans();
    Ok(TraceRun {
        json: chrome::to_chrome_json(&spans, &sink.events()),
        report: Analysis::of(&spans).to_string(),
        overlap_base: overlap(OptLevel::Base)?,
        overlap_unblock: overlap(OptLevel::Unblock)?,
        spans: spans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_run_produces_valid_overlaps_and_json() {
        let run = trace_kernel(Kernel::Atax, Scale(0.02)).unwrap();
        assert!(run.spans > 0);
        assert!(run.json.contains("traceEvents"));
        assert!(run.report.contains("makespan"));
        // Serial layout: any residue is float ulps from the running clock.
        assert!(run.overlap_base < 1e-9);
        assert!(
            run.overlap_unblock > run.overlap_base,
            "unblock hides transfers: {} vs {}",
            run.overlap_unblock,
            run.overlap_base
        );
    }
}
