//! The runtime's determinism contract, end to end.
//!
//! A job's `ExecReport` must be a pure function of the job itself:
//! submitting the same jobs in a different order, on a different number of
//! workers, or with the schedule cache disabled must produce byte-identical
//! serialized reports for every job. This is what makes the schedule cache
//! safe (a hit is indistinguishable from a fresh lowering) and what makes
//! sweep results reproducible across machines with different core counts.

use pim_baselines::PlatformKind;
use pim_device::OptLevel;
use pim_runtime::{ClusterSpec, Job, Runtime, RuntimeConfig};
use pim_workloads::{DnnKind, Kernel, WorkloadSpec};
use std::collections::HashMap;

/// A mixed batch: every platform family, duplicate (config, workload)
/// pairs to exercise cache sharing, and config overrides.
fn mixed_jobs() -> Vec<Job> {
    let mut jobs = vec![
        Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        )
        .named("atax-duplicate"),
        Job::new(
            WorkloadSpec::polybench(Kernel::Bicg, 0.02),
            PlatformKind::StPimE,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Mvt, 0.02),
            PlatformKind::Coruscant,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Gesummv, 0.02),
            PlatformKind::Elp2im,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Gemm, 0.01),
            PlatformKind::Felix,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Syrk, 0.01),
            PlatformKind::CpuRm,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Syr2k, 0.01),
            PlatformKind::CpuDram,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Gemm, 0.01),
            PlatformKind::Gpu,
        ),
        Job::new(WorkloadSpec::dnn(DnnKind::Mlp), PlatformKind::StPim),
        Job::new(
            WorkloadSpec::MatMul {
                m: 48,
                k: 32,
                n: 40,
            },
            PlatformKind::StPim,
        ),
        Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        )
        .with_opt(OptLevel::Distribute)
        .named("atax-distribute-only"),
        // Cluster jobs: 130 rows shard 33/33/32/32, so two lanes are
        // shared and two are not; MLP's middle pipeline stages are equal.
        Job::new(
            WorkloadSpec::MatMul {
                m: 130,
                k: 96,
                n: 64,
            },
            PlatformKind::StPim,
        )
        .with_cluster(ClusterSpec::data(4).with_batch(3))
        .named("matmul-130-data4"),
        Job::new(WorkloadSpec::dnn(DnnKind::Mlp), PlatformKind::StPim)
            .with_cluster(ClusterSpec::pipeline(4).with_batch(2))
            .named("mlp-pipeline4"),
    ];
    // A second copy of several jobs, renamed, so shuffled orders still
    // contain cache-colliding pairs far apart.
    let dup: Vec<Job> = jobs
        .iter()
        .take(4)
        .map(|j| j.clone().named(format!("{}-again", j.name)))
        .collect();
    jobs.extend(dup);
    jobs
}

/// Serialized report per job *name* for a given runtime configuration and
/// submission order. Names are unique in `mixed_jobs`.
fn reports_by_name(jobs: &[Job], workers: usize, cache: bool) -> HashMap<String, String> {
    let runtime = Runtime::new(RuntimeConfig {
        workers,
        cache_enabled: cache,
        ..RuntimeConfig::default()
    });
    let batch = runtime.run_batch(jobs);
    assert_eq!(batch.failed(), 0, "all mixed jobs succeed");
    jobs.iter()
        .zip(batch.outcomes)
        .map(|(job, o)| {
            let json = serde_json::to_string(o.report.as_ref().unwrap()).unwrap();
            (job.name.clone(), json)
        })
        .collect()
}

/// A deterministic order permutation (no RNG: reverse, then rotate).
fn shuffled(jobs: &[Job]) -> Vec<Job> {
    let mut out: Vec<Job> = jobs.to_vec();
    out.reverse();
    out.rotate_left(jobs.len() / 3);
    out
}

#[test]
fn reports_identical_across_order_workers_and_cache() {
    let jobs = mixed_jobs();
    let reference = reports_by_name(&jobs, 1, true);
    assert_eq!(reference.len(), jobs.len(), "names are unique");

    let variants = [
        ("shuffled order", reports_by_name(&shuffled(&jobs), 1, true)),
        ("4 workers", reports_by_name(&jobs, 4, true)),
        (
            "4 workers shuffled",
            reports_by_name(&shuffled(&jobs), 4, true),
        ),
        ("8 workers", reports_by_name(&jobs, 8, true)),
        ("cache off", reports_by_name(&jobs, 1, false)),
        ("cache off, 4 workers", reports_by_name(&jobs, 4, false)),
    ];
    for (label, variant) in variants {
        assert_eq!(variant.len(), reference.len(), "{label}");
        for (name, json) in &reference {
            assert_eq!(
                variant
                    .get(name)
                    .unwrap_or_else(|| panic!("{label}: missing {name}")),
                json,
                "{label}: job {name} must produce a byte-identical report"
            );
        }
    }
}

#[test]
fn warm_cache_reproduces_cold_reports_with_hits() {
    let jobs = mixed_jobs();
    let runtime = Runtime::new(RuntimeConfig {
        workers: 4,
        cache_enabled: true,
        ..RuntimeConfig::default()
    });
    let cold = runtime.run_batch(&jobs);
    let hits_after_cold = runtime.cache().hits();
    let warm = runtime.run_batch(&jobs);
    assert!(
        runtime.cache().hits() > hits_after_cold,
        "second batch hits the cache"
    );
    // Every PIM job hits on the warm batch: misses stop growing.
    let misses = runtime.cache().misses();
    runtime.run_batch(&jobs);
    assert_eq!(runtime.cache().misses(), misses, "fully warm");
    for ((job, c), w) in jobs.iter().zip(&cold.outcomes).zip(&warm.outcomes) {
        assert_eq!(c, w, "warm outcome identical to cold for {}", job.name);
    }
}

#[test]
fn repeated_single_worker_runs_are_bitwise_stable() {
    let jobs = mixed_jobs();
    let a = reports_by_name(&jobs, 1, true);
    let b = reports_by_name(&jobs, 1, true);
    assert_eq!(a, b);
}
