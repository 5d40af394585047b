//! `sweep`: one op is one design point of the paper's Figure 17/18 sweep,
//! a `Runtime::run_batch` of the 9 polybench kernels on the 7 Figure 17
//! platforms at a fresh seeded scale, plus the same 63 jobs at one fixed
//! scale.

use crate::analytic::RuntimeBench;
use crate::stats::Rng;
use pim_baselines::PlatformKind;
use pim_device::Parallelism;
use pim_runtime::{Job, RuntimeConfig};
use pim_workloads::{Kernel, WorkloadSpec};

/// The scale every op repeats: its 63 jobs are full cache hits.
const FIXED_SCALE: f64 = 0.05;
/// The warm-up op's other scale. It is the same for every seed, so set-up
/// time does not depend on the seed, and no op of a stream repeats it.
const WARMUP_SCALE: f64 = 0.035;
/// Fresh scales lie in `[MIN_SCALE, MIN_SCALE + SCALE_SPAN)` of paper size.
const MIN_SCALE: f64 = 0.02;
const SCALE_SPAN: f64 = 0.06;
/// Golden-ratio step: consecutive fresh scales fill the range evenly, so
/// any run length sees nearly the same spread of sizes for every seed.
const STEP: f64 = 0.618_033_988_749_894_8;

/// The fresh scale of op `i`.
pub fn fresh_scale(seed: u64, i: u64) -> f64 {
    let offset = Rng::new(seed, 0x5CA1E).unit();
    MIN_SCALE + SCALE_SPAN * (offset + i as f64 * STEP).rem_euclid(1.0)
}

/// The 63 jobs of one design point.
fn design_point(scale: f64) -> impl Iterator<Item = Job> {
    Kernel::ALL.into_iter().flat_map(move |kernel| {
        PlatformKind::FIGURE_17
            .into_iter()
            .map(move |platform| Job::new(WorkloadSpec::polybench(kernel, scale), platform))
    })
}

/// The jobs of an op whose fresh scale is `scale`.
fn op_at(scale: f64) -> Vec<Job> {
    design_point(scale)
        .chain(design_point(FIXED_SCALE))
        .collect()
}

/// Op `i` of the stream of `seed`.
pub fn op_jobs(seed: u64, i: u64) -> Vec<Job> {
    op_at(fresh_scale(seed, i))
}

pub fn setup(seed: u64) -> Result<RuntimeBench, String> {
    let config = RuntimeConfig {
        workers: 1,
        cache_enabled: true,
        intra_parallelism: Parallelism::Serial,
    };
    RuntimeBench::new(
        config,
        op_at(WARMUP_SCALE),
        Box::new(move |i| op_jobs(seed, i)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let names = |seed, i| {
            op_jobs(seed, i)
                .iter()
                .map(|j| serde_json::to_string(j).expect("jobs serialize"))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(3, 5), names(3, 5));
        assert_ne!(names(3, 5), names(4, 5));
        assert_ne!(names(3, 5), names(3, 6));
        assert_eq!(op_jobs(3, 0).len(), 126);
        for i in 0..500 {
            let s = fresh_scale(9, i);
            assert!((MIN_SCALE..MIN_SCALE + SCALE_SPAN).contains(&s));
        }
    }
}
