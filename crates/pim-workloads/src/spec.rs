//! Serializable workload specifications for the batch runtime.
//!
//! A [`WorkloadSpec`] names a workload by value — a polybench kernel at a
//! scale, a DNN model, or a raw matrix-multiply shape — without holding any
//! built matrices. Specs are `Eq + Hash` and round-trip through JSON, so
//! they can key schedule caches and travel in job requests. The two forms
//! the platforms consume are built on demand: the [`ShapeTask`] the PIM
//! platforms lower, which holds shapes but no matrices, and the
//! [`KernelProfile`] the host models price.
//!
//! Scale is stored in parts-per-million ([`WorkloadSpec::polybench`]) rather
//! than as `f64` precisely so the spec stays `Eq + Hash`: two jobs naming
//! the same kernel at the same scale compare equal and cache-collide, which
//! is the point.

use crate::dnn::{matmul_task, DnnModel, MatMulShape};
use crate::polybench::{Kernel, KernelInstance};
use crate::profile::KernelProfile;
use pim_device::task::ShapeTask;
use pim_device::PimError;
use serde::{Deserialize, Serialize};

/// The DNN models of the paper's §V-E evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnnKind {
    /// Three-layer MLP.
    Mlp,
    /// BERT-base encoder layer stack.
    Bert,
}

impl DnnKind {
    /// Builds the model description.
    pub fn model(self) -> DnnModel {
        match self {
            DnnKind::Mlp => DnnModel::mlp(),
            DnnKind::Bert => DnnModel::bert(),
        }
    }

    /// The model's display name.
    pub fn name(self) -> &'static str {
        match self {
            DnnKind::Mlp => "mlp",
            DnnKind::Bert => "bert",
        }
    }
}

/// A workload named by value: cheap to clone, compare, hash and serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A polybench kernel at `scale_ppm` parts-per-million of the paper's
    /// problem size (1_000_000 = full size; see [`Kernel::scaled`]).
    Polybench {
        /// The kernel.
        kernel: Kernel,
        /// Scale factor in parts per million.
        scale_ppm: u32,
    },
    /// The offloadable matrix work of a DNN model.
    Dnn {
        /// The model.
        model: DnnKind,
    },
    /// A single dense matrix multiplication `C[m,n] = A[m,k] * B[k,n]`.
    MatMul {
        /// Rows of `A`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of `B`.
        n: usize,
    },
}

impl WorkloadSpec {
    /// Polybench spec at a fractional scale (`1.0` = paper size). The scale
    /// is quantized to parts-per-million.
    pub fn polybench(kernel: Kernel, scale: f64) -> Self {
        WorkloadSpec::Polybench {
            kernel,
            scale_ppm: (scale * 1e6).round().max(0.0) as u32,
        }
    }

    /// DNN spec.
    pub fn dnn(model: DnnKind) -> Self {
        WorkloadSpec::Dnn { model }
    }

    /// Display name (kernel/model name, plus shape or scale when reduced).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Polybench { kernel, scale_ppm } => {
                if *scale_ppm == 1_000_000 {
                    kernel.name().to_string()
                } else {
                    format!("{}@{:.4}", kernel.name(), *scale_ppm as f64 / 1e6)
                }
            }
            WorkloadSpec::Dnn { model } => model.name().to_string(),
            WorkloadSpec::MatMul { m, k, n } => format!("matmul_{m}x{k}x{n}"),
        }
    }

    /// A dimension-blind discriminant of the workload's computation-graph
    /// shape: two specs share a shape class exactly when they build the
    /// same DAG of operations over (possibly) differently-sized matrices.
    /// A polybench kernel keeps its op graph at every scale; every raw
    /// `MatMul` is one op regardless of `m`/`k`/`n`. The runtime's
    /// near-miss detection keys its price tables on this value (combined
    /// with the lowering config).
    pub fn shape_class(&self) -> (u8, u32) {
        match self {
            WorkloadSpec::Polybench { kernel, .. } => (0, *kernel as u32),
            WorkloadSpec::Dnn { model } => (1, *model as u32),
            WorkloadSpec::MatMul { .. } => (2, 0),
        }
    }

    /// Checks that the spec names real work. A `MatMul` with a zero
    /// dimension would otherwise price phantom work (lowering clamps its
    /// empty rounds to one column); polybench kernels clamp to minimum
    /// sizes and DNN models are fixed, so they always pass.
    ///
    /// # Errors
    ///
    /// [`PimError::Config`] naming the spec.
    pub fn validate(&self) -> pim_device::Result<()> {
        match *self {
            WorkloadSpec::MatMul { m, k, n } if m == 0 || k == 0 || n == 0 => Err(
                PimError::Config(format!("{}: every dimension must be non-zero", self.name())),
            ),
            _ => Ok(()),
        }
    }

    /// Builds the workload's task: its operation graph over matrix
    /// dimensions, with no element data. This is the one way a spec becomes
    /// a task; every PIM platform lowers it under its own configuration.
    pub fn shape_task(&self) -> ShapeTask {
        match *self {
            WorkloadSpec::Polybench { kernel, scale_ppm } => instance(kernel, scale_ppm)
                .build_task(None)
                .task
                .shape_task()
                .clone(),
            WorkloadSpec::Dnn { model } => matmul_task(&model.model().matmuls),
            WorkloadSpec::MatMul { m, k, n } => matmul_task(&[MatMulShape { m, k, n }]),
        }
    }

    /// Builds the host-side characterization consumed by CPU/GPU baselines.
    pub fn profile(&self) -> KernelProfile {
        match self {
            WorkloadSpec::Polybench { kernel, scale_ppm } => {
                instance(*kernel, *scale_ppm).profile()
            }
            WorkloadSpec::Dnn { model } => model.model().offload_profile(),
            WorkloadSpec::MatMul { m, k, n } => {
                let (m, k, n) = (*m as f64, *k as f64, *n as f64);
                KernelProfile {
                    name: self.name(),
                    flops: 2.0 * m * k * n,
                    // Compulsory traffic: read A and B, write C (with the
                    // read-modify-write the host's blocked gemm incurs).
                    bytes: 8.0 * (m * k + k * n + 2.0 * m * n),
                    working_set: 8.0 * (m * k + k * n + m * n),
                    small: false,
                    cpu_efficiency: 1.0,
                }
            }
        }
    }
}

/// The kernel instance a polybench spec names.
fn instance(kernel: Kernel, scale_ppm: u32) -> KernelInstance {
    if scale_ppm == 1_000_000 {
        kernel.paper_instance()
    } else {
        kernel.scaled(scale_ppm as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let a = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let b = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let c = WorkloadSpec::polybench(Kernel::Gemm, 0.03);
        assert_eq!(a, b, "same kernel and scale compare equal");
        assert_ne!(a, c);
        let set: HashSet<WorkloadSpec> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        for (m, k, n) in [(0, 0, 0), (0, 4, 4), (4, 0, 4), (4, 4, 0)] {
            let err = WorkloadSpec::MatMul { m, k, n }.validate().unwrap_err();
            assert!(matches!(err, PimError::Config(_)), "{m}x{k}x{n}: {err}");
        }
        assert!(WorkloadSpec::MatMul { m: 1, k: 1, n: 1 }.validate().is_ok());
        assert!(WorkloadSpec::polybench(Kernel::Gemm, 0.0)
            .validate()
            .is_ok());
        assert!(WorkloadSpec::dnn(DnnKind::Mlp).validate().is_ok());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let specs = [
            WorkloadSpec::polybench(Kernel::Atax, 1.0),
            WorkloadSpec::dnn(DnnKind::Bert),
            WorkloadSpec::MatMul {
                m: 64,
                k: 32,
                n: 16,
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
    }

    #[test]
    fn shape_task_matches_kernel_builder() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let direct = Kernel::Gemm.scaled(0.02).build_task(None).task;
        assert_eq!(&spec.shape_task(), direct.shape_task());
    }

    #[test]
    fn matmul_spec_builds_and_profiles() {
        let spec = WorkloadSpec::MatMul { m: 16, k: 8, n: 12 };
        assert_eq!(spec.shape_task().operation_count(), 1);
        let p = spec.profile();
        assert_eq!(p.flops, 2.0 * 16.0 * 8.0 * 12.0);
        assert!(p.bytes > 0.0);
        assert_eq!(spec.name(), "matmul_16x8x12");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(WorkloadSpec::polybench(Kernel::Mvt, 1.0).name(), "mvt");
        assert_eq!(
            WorkloadSpec::polybench(Kernel::Mvt, 0.25).name(),
            "mvt@0.2500"
        );
        assert_eq!(WorkloadSpec::dnn(DnnKind::Mlp).name(), "mlp");
    }
}
