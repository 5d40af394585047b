//! `dnn`: one op is one `Runtime::run_batch` of five inference jobs (the
//! paper's §V-E MLP/BERT traffic, single-device and as 4-device pipelines,
//! plus the data-parallel batched gemm of `bench_cluster`).

use crate::analytic::RuntimeBench;
use crate::stats::Rng;
use pim_baselines::PlatformKind;
use pim_device::Parallelism;
use pim_runtime::{ClusterSpec, Job, RuntimeConfig};
use pim_workloads::{DnnKind, WorkloadSpec};

/// The five jobs of an op, in their canonical order.
fn jobs() -> Vec<Job> {
    let stpim = |w| Job::new(w, PlatformKind::StPim);
    vec![
        stpim(WorkloadSpec::dnn(DnnKind::Mlp)),
        stpim(WorkloadSpec::dnn(DnnKind::Bert)),
        stpim(WorkloadSpec::dnn(DnnKind::Mlp)).with_cluster(ClusterSpec::pipeline(4).with_batch(8)),
        stpim(WorkloadSpec::dnn(DnnKind::Bert))
            .with_cluster(ClusterSpec::pipeline(4).with_batch(4)),
        stpim(WorkloadSpec::MatMul {
            m: 8192,
            k: 128,
            n: 128,
        })
        .with_cluster(ClusterSpec::data(4).with_batch(8)),
    ]
}

/// Op `i` of the stream of `seed`: the five jobs in a seeded order.
pub fn op_jobs(seed: u64, i: u64) -> Vec<Job> {
    let mut jobs = jobs();
    Rng::new(seed, 0xD11 ^ i.wrapping_mul(0x9E37_79B9)).shuffle(&mut jobs);
    jobs
}

pub fn setup(seed: u64) -> Result<RuntimeBench, String> {
    let config = RuntimeConfig {
        workers: 1,
        cache_enabled: true,
        intra_parallelism: Parallelism::Auto,
    };
    RuntimeBench::new(config, jobs(), Box::new(move |i| op_jobs(seed, i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let stream = |seed| {
            (0..8)
                .flat_map(|i| op_jobs(seed, i))
                .map(|j| serde_json::to_string(&j).expect("jobs serialize"))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }
}
