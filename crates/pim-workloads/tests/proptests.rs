//! Property-based tests for the workload generators.

use pim_device::{StreamPim, StreamPimConfig};
use pim_workloads::polybench::Kernel;
use proptest::prelude::*;

fn device() -> StreamPim {
    StreamPim::new(StreamPimConfig::paper_default()).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every kernel at a random small scale and seed matches its host
    /// reference.
    #[test]
    fn kernels_match_reference(idx in 0usize..9, seed in 0u64..1000) {
        let kernel = Kernel::ALL[idx];
        let instance = kernel.scaled(0.006);
        let built = instance.build_task(Some(seed));
        let out = built.task.run(&device()).unwrap();
        prop_assert_eq!(out.matrix(built.output).unwrap(), &instance.reference(seed));
    }

    /// Scaling the problem scales the VPC counts monotonically and the
    /// compute count dominates element-wise overhead.
    #[test]
    fn counts_scale_with_problem(idx in 0usize..9) {
        let kernel = Kernel::ALL[idx];
        let dev = device();
        let small = kernel.scaled(0.02).build_task(None).task.lower(&dev).unwrap().counts();
        let large = kernel.scaled(0.05).build_task(None).task.lower(&dev).unwrap().counts();
        prop_assert!(large.pim > small.pim, "{kernel}: {} vs {}", large.pim, small.pim);
        prop_assert!(large.moves > small.moves);
    }

    /// Profiles are consistent: flops and bytes positive, working set no
    /// larger than total traffic for streaming kernels.
    #[test]
    fn profiles_consistent(idx in 0usize..9, scale in 0.01f64..0.3) {
        let kernel = Kernel::ALL[idx];
        let p = kernel.scaled(scale).profile();
        prop_assert!(p.flops > 0.0);
        prop_assert!(p.bytes >= p.working_set, "{kernel}");
        prop_assert_eq!(p.small, kernel.is_small());
    }
}
