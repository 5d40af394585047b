//! End-to-end DNN workloads: MLP and BERT inference (paper §V-E).
//!
//! Both networks offload their matrix multiplications and additions to
//! StreamPIM; nonlinear operations (ReLU, softmax, GELU, layer norm) stay on
//! the CPU. A model is therefore characterized by its list of matmul shapes
//! plus the *non-offloadable fraction* — the share of the CPU-DRAM baseline
//! execution spent in work that cannot move to the PIM device (nonlinear
//! kernels and the host-device synchronization around them). The paper
//! observes this share is tiny for MLP but substantial for BERT, which is
//! why BERT's end-to-end gain (4.49x) is far below MLP's (54.77x).

use crate::profile::KernelProfile;
use pim_device::task::{MatrixOp, ShapeTask};
use serde::{Deserialize, Serialize};

/// A matrix multiplication of shape `(m x k) * (k x n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatMulShape {
    /// Rows of the left operand.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of the right operand.
    pub n: usize,
}

impl MatMulShape {
    /// Flops of this multiplication (2 per multiply-accumulate).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// The task of a list of independent matrix multiplications, in list order:
/// one `MatMul` over freshly registered `A`, `B` and `C` shapes per entry.
/// This is how every matmul-list workload is priced (DNN models, raw
/// `MatMul` specs and cluster shards), so equal lists lower to identical
/// schedules wherever they are built.
pub fn matmul_task(shapes: &[MatMulShape]) -> ShapeTask {
    let mut task = ShapeTask::new();
    for s in shapes {
        let a = task.add_shape(s.m, s.k).expect("shapes register");
        let b = task.add_shape(s.k, s.n).expect("shapes register");
        let dst = task.add_shape(s.m, s.n).expect("shapes register");
        task.add_operation(MatrixOp::MatMul { a, b, dst })
            .expect("operand shapes agree by construction");
    }
    task
}

/// A DNN inference workload characterized for offload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnModel {
    /// Model name.
    pub name: String,
    /// All offloaded matrix multiplications of one inference.
    pub matmuls: Vec<MatMulShape>,
    /// Share of the CPU-DRAM baseline time that cannot be offloaded
    /// (nonlinear layers + host synchronization), in `[0, 1)`. Profiled
    /// workload characteristic, as in the paper's §V-E discussion.
    pub non_offload_fraction: f64,
}

impl DnnModel {
    /// The MLP of the paper's evaluation (mlbench-style): batch 128,
    /// 784-1024-1024-1024-10 fully connected layers with ReLU. Nonlinear
    /// work is a negligible share of inference time.
    pub fn mlp() -> Self {
        let batch = 128;
        let widths = [784usize, 1024, 1024, 1024, 10];
        // Offloaded as W (out x in) times X^T (in x batch): the weight rows
        // spread across PIM subarrays, the batch columns stream as rounds.
        let matmuls = widths
            .windows(2)
            .map(|w| MatMulShape {
                m: w[1],
                k: w[0],
                n: batch,
            })
            .collect();
        DnnModel {
            name: "MLP".into(),
            matmuls,
            non_offload_fraction: 0.015,
        }
    }

    /// BERT-base-like encoder: 12 layers, hidden 768, FFN 3072, sequence
    /// length 128. Softmax, GELU and layer norms stay on the CPU; the paper
    /// notes BERT "involves more nonlinear operations", which caps the
    /// offload gain.
    pub fn bert() -> Self {
        let (layers, seq, hidden, ffn, heads) = (12usize, 128usize, 768usize, 3072usize, 12usize);
        let mut matmuls = Vec::new();
        for _ in 0..layers {
            // Q, K, V and output projections: weight rows spread across
            // subarrays, sequence positions stream as rounds.
            for _ in 0..4 {
                matmuls.push(MatMulShape {
                    m: hidden,
                    k: hidden,
                    n: seq,
                });
            }
            // Attention scores and context, per head.
            for _ in 0..heads {
                let dh = hidden / heads;
                matmuls.push(MatMulShape {
                    m: seq,
                    k: dh,
                    n: seq,
                });
                matmuls.push(MatMulShape {
                    m: seq,
                    k: seq,
                    n: dh,
                });
            }
            // Feed-forward network.
            matmuls.push(MatMulShape {
                m: ffn,
                k: hidden,
                n: seq,
            });
            matmuls.push(MatMulShape {
                m: hidden,
                k: ffn,
                n: seq,
            });
        }
        DnnModel {
            name: "BERT".into(),
            matmuls,
            non_offload_fraction: 0.21,
        }
    }

    /// Total offloaded flops of one inference.
    pub fn offload_flops(&self) -> f64 {
        self.matmuls.iter().map(MatMulShape::flops).sum()
    }

    /// Host-side profile of the offloadable portion (for pricing the same
    /// work on CPU/GPU baselines).
    pub fn offload_profile(&self) -> KernelProfile {
        let bytes: f64 = self
            .matmuls
            .iter()
            .map(|s| 8.0 * (s.m * s.k + s.k * s.n + s.m * s.n) as f64)
            .sum();
        KernelProfile {
            name: self.name.clone(),
            flops: self.offload_flops(),
            bytes,
            working_set: bytes / self.matmuls.len().max(1) as f64,
            small: false,
            // Small-batch inference GEMMs sustain a fraction of tuned-gemm
            // throughput on the host.
            cpu_efficiency: 0.12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shape() {
        let mlp = DnnModel::mlp();
        assert_eq!(mlp.matmuls.len(), 4);
        assert!(mlp.non_offload_fraction < 0.05);
        assert!(mlp.offload_flops() > 1e8);
    }

    #[test]
    fn bert_shape() {
        let bert = DnnModel::bert();
        // 12 layers x (4 projections + 24 attention matmuls + 2 FFN).
        assert_eq!(bert.matmuls.len(), 12 * (4 + 24 + 2));
        assert!(bert.non_offload_fraction > DnnModel::mlp().non_offload_fraction);
        // BERT is much bigger than the MLP.
        assert!(bert.offload_flops() > 10.0 * DnnModel::mlp().offload_flops());
    }

    #[test]
    fn matmul_flops() {
        let s = MatMulShape { m: 2, k: 3, n: 4 };
        assert_eq!(s.flops(), 48.0);
    }

    #[test]
    fn tasks_build_and_lower() {
        use pim_device::{StreamPim, StreamPimConfig};
        let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
        for model in [DnnModel::mlp(), DnnModel::bert()] {
            let schedule = matmul_task(&model.matmuls).lower(&device).unwrap();
            assert!(schedule.counts().pim > 0, "{}", model.name);
        }
    }

    #[test]
    fn offload_profile_consistent() {
        let p = DnnModel::mlp().offload_profile();
        assert_eq!(p.name, "MLP");
        assert!(p.flops > 0.0 && p.bytes > 0.0);
    }
}
