//! Property-based tests: the functional RM processor agrees with host
//! arithmetic, and the cost model behaves sanely.

use proptest::prelude::*;
use rm_proc::{PipelineModel, ProcOp, ProcScratch, RmProcessor};

proptest! {
    /// Dot products match the host for arbitrary 8-bit vectors.
    #[test]
    fn dot_matches_host(
        pairs in proptest::collection::vec((0u64..256, 0u64..256), 0..64),
    ) {
        let mut p = RmProcessor::new(8, 2);
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let (r, _) = p.dot(&a, &b);
        let expect: u64 = pairs.iter().map(|&(x, y)| x * y).sum();
        prop_assert_eq!(r, expect);
    }

    /// Vector addition matches the host (sums carry at width+1 bits).
    #[test]
    fn vadd_matches_host(
        pairs in proptest::collection::vec((0u64..256, 0u64..256), 0..64),
    ) {
        let mut p = RmProcessor::new(8, 2);
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let (out, _) = p.vadd(&a, &b);
        let expect: Vec<u64> = pairs.iter().map(|&(x, y)| x + y).collect();
        prop_assert_eq!(out, expect);
    }

    /// Scalar-vector multiplication matches the host.
    #[test]
    fn svmul_matches_host(
        s in 0u64..256,
        v in proptest::collection::vec(0u64..256, 0..32),
    ) {
        let mut p = RmProcessor::new(8, 2);
        let (out, _) = p.svmul(s, &v);
        let expect: Vec<u64> = v.iter().map(|&x| s * x).collect();
        prop_assert_eq!(out, expect);
    }

    /// Duplicator count never changes *results*, only cycles.
    #[test]
    fn duplicator_count_affects_only_cycles(
        pairs in proptest::collection::vec((0u64..256, 0u64..256), 1..16),
        d in 1u32..5,
    ) {
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let (r1, _) = RmProcessor::new(8, 1).dot(&a, &b);
        let (rd, _) = RmProcessor::new(8, d).dot(&a, &b);
        prop_assert_eq!(r1, rd);
        // Cycle model: more duplicators never slow the pipeline.
        let m1 = PipelineModel::new(8, 1, 512);
        let md = PipelineModel::new(8, d, 512);
        let n = pairs.len() as u64 * 100;
        let cycles_d = md.cost(ProcOp::DotProduct { n }).cycles;
        let cycles_1 = m1.cost(ProcOp::DotProduct { n }).cycles;
        prop_assert!(cycles_d <= cycles_1);
    }

    /// Pipeline cost is monotone in vector length for every op.
    #[test]
    fn cost_monotone_in_length(n in 1u64..100_000) {
        let m = PipelineModel::paper_default();
        for mk in [
            |n| ProcOp::DotProduct { n },
            |n| ProcOp::ScalarVectorMul { n },
            |n| ProcOp::VectorAdd { n },
        ] {
            prop_assert!(m.cost(mk(n + 64)).cycles >= m.cost(mk(n)).cycles);
        }
    }

    /// Differential: the plane datapath dot equals the serial reference
    /// datapath in result, gate tally, and full processor state (duplicator
    /// phases, diode counters, circle accumulator) for arbitrary vectors,
    /// through one reused scratch. The vector length range crosses the
    /// 512-lane group boundary so ragged tails are exercised.
    #[test]
    fn plane_dot_matches_scalar_datapath(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..560),
        d in 1u32..4,
    ) {
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let mut pwide = RmProcessor::new(8, d);
        let mut ps = RmProcessor::new(8, d);
        let mut scratch = ProcScratch::new();
        for half in [&pairs[pairs.len() / 2..], &pairs[..]] {
            let (ha, hb): (Vec<u64>, Vec<u64>) = half.iter().copied().unzip();
            prop_assert_eq!(pwide.dot_with(&ha, &hb, &mut scratch), ps.dot_scalar(&ha, &hb));
        }
        let (rwide, twide) = pwide.dot(&a, &b);
        let (rs, ts) = ps.dot_scalar(&a, &b);
        prop_assert_eq!(rwide, rs);
        prop_assert_eq!(&twide, &ts);
        prop_assert_eq!(&pwide, &ps);
    }

    /// Differential: word-parallel vadd and svmul equal their serial
    /// references in results, tallies, and state.
    #[test]
    fn word_vadd_svmul_match_scalar_datapath(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..100),
        s in any::<u64>(),
    ) {
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (ow, tw) = pw.vadd(&a, &b);
        let (os, ts) = ps.vadd_scalar(&a, &b);
        prop_assert_eq!(ow, os);
        prop_assert_eq!(tw, ts);
        prop_assert_eq!(&pw, &ps);
        let (ow, tw) = pw.svmul(s, &a);
        let (os, ts) = ps.svmul_scalar(s, &a);
        prop_assert_eq!(ow, os);
        prop_assert_eq!(tw, ts);
        prop_assert_eq!(pw, ps);
    }

    /// Gate tallies grow linearly with vector length (streaming, no
    /// super-linear blowup).
    #[test]
    fn tally_linear_in_length(k in 1usize..8) {
        let mut p = RmProcessor::new(8, 2);
        let a = vec![123u64; k];
        let b = vec![45u64; k];
        let (_, t_k) = p.dot(&a, &b);
        let (_, t_1) = p.dot(&[123], &[45]);
        prop_assert_eq!(t_k.total(), t_1.total() * k as u64);
    }
}
