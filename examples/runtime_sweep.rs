//! Price a whole sweep — every kernel on every platform — through the
//! batch runtime, then print the schedule-cache and throughput statistics
//! the runtime collected along the way.
//!
//! ```sh
//! cargo run --release --example runtime_sweep -- 0.05 4
//! ```
//!
//! The first argument is the problem-size scale (default `0.05`), the
//! second the worker-thread count (default: available parallelism). The
//! batch is submitted twice: the second submission demonstrates a fully
//! warm schedule cache (every PIM job is a hit).

use std::time::Instant;
use streampim::pim_baselines::platform::PlatformKind;
use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};
use streampim::pim_workloads::polybench::Kernel;
use streampim::pim_workloads::spec::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let workers: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });

    let jobs: Vec<Job> = Kernel::ALL
        .into_iter()
        .flat_map(|kernel| {
            PlatformKind::FIGURE_17
                .into_iter()
                .map(move |platform| Job::new(WorkloadSpec::polybench(kernel, scale), platform))
        })
        .collect();
    println!(
        "{} jobs ({} kernels x {} platforms) at scale {scale} on {workers} workers\n",
        jobs.len(),
        Kernel::ALL.len(),
        PlatformKind::FIGURE_17.len()
    );

    let runtime = Runtime::new(RuntimeConfig {
        workers,
        cache_enabled: true,
        ..RuntimeConfig::default()
    });

    let t0 = Instant::now();
    let cold = runtime.run_batch(&jobs);
    let cold_wall = t0.elapsed();
    let t1 = Instant::now();
    let warm = runtime.run_batch(&jobs);
    let warm_wall = t1.elapsed();

    assert_eq!(cold.outcomes, warm.outcomes, "cache reuse changes nothing");

    println!(
        "{:<18} {:>12} {:>12}",
        "kernel/platform", "sim time", "sim energy"
    );
    for (job, outcome) in jobs
        .iter()
        .zip(&cold.outcomes)
        .take(PlatformKind::FIGURE_17.len())
    {
        let report = outcome.report.as_ref().map_err(|e| e.clone())?;
        println!(
            "{:<18} {:>9.3} ms {:>9.3} mJ",
            job.name,
            report.total_ns() / 1e6,
            report.total_pj() / 1e9
        );
    }
    println!(
        "... ({} more rows omitted)\n",
        cold.outcomes.len().saturating_sub(7)
    );

    let snap = runtime.metrics();
    println!("batch wall-clock: cold {cold_wall:?}, warm {warm_wall:?}");
    println!(
        "jobs: {} completed, {} failed | cache: {} hits / {} misses ({} schedules resident)",
        snap.jobs_completed,
        snap.jobs_failed,
        snap.cache_hits,
        snap.cache_misses,
        snap.cache_entries
    );
    println!(
        "executor: max queue depth {}, {} steals, mean job latency {:.1} us",
        snap.max_queue_depth,
        snap.steals,
        snap.total_latency_ns as f64 / snap.jobs_submitted.max(1) as f64 / 1e3
    );
    println!("\nmetrics JSON (first 400 chars):");
    let json = runtime.metrics_json();
    println!("{}...", &json[..json.len().min(400)]);
    Ok(())
}
