//! The nine polybench kernels of the paper's evaluation (Table IV).
//!
//! Problem sizes follow the polybench-4.2 EXTRALARGE datasets, which
//! reproduce the paper's per-kernel VPC counts (gemm, syrk, syr2k and mvt
//! exactly; the others within 10% — see the tests and `EXPERIMENTS.md`).
//! Every kernel can also be instantiated at a reduced scale for fast tests
//! and benches.

use crate::matrix::{workload_matrix, Matrix};
use crate::profile::KernelProfile;
use pim_device::task::{MatHandle, MatrixOp, PimTask};
use serde::{Deserialize, Serialize};

/// Scalar constants used in place of polybench's float `alpha`/`beta`.
const ALPHA: i64 = 2;
const BETA: i64 = 3;

/// One of the evaluated polybench kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// `E = alpha*A*B*C + beta*D`.
    TwoMm,
    /// `G = (A*B)*(C*D)`.
    ThreeMm,
    /// `C = alpha*A*B + beta*C`.
    Gemm,
    /// `C = alpha*A*A^T + beta*C`.
    Syrk,
    /// `C = alpha*A*B^T + alpha*B*A^T + beta*C`.
    Syr2k,
    /// `y = A^T * (A * x)`.
    Atax,
    /// `q = A*p, s = A^T*r`.
    Bicg,
    /// `y = alpha*A*x + beta*B*x` (gesummv).
    Gesummv,
    /// `x1 += A*y1, x2 += A^T*y2`.
    Mvt,
}

impl Kernel {
    /// All evaluated kernels, in the paper's Table IV order.
    pub const ALL: [Kernel; 9] = [
        Kernel::TwoMm,
        Kernel::ThreeMm,
        Kernel::Gemm,
        Kernel::Syrk,
        Kernel::Syr2k,
        Kernel::Atax,
        Kernel::Bicg,
        Kernel::Gesummv,
        Kernel::Mvt,
    ];

    /// The kernel's short name (as used in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::TwoMm => "2mm",
            Kernel::ThreeMm => "3mm",
            Kernel::Gemm => "gemm",
            Kernel::Syrk => "syrk",
            Kernel::Syr2k => "syr2k",
            Kernel::Atax => "atax",
            Kernel::Bicg => "bicg",
            Kernel::Gesummv => "gesu",
            Kernel::Mvt => "mvt",
        }
    }

    /// Whether this is one of the paper's "small" (matrix-vector) kernels.
    pub fn is_small(self) -> bool {
        matches!(
            self,
            Kernel::Atax | Kernel::Bicg | Kernel::Gesummv | Kernel::Mvt
        )
    }

    /// Full-size (paper) dimensions.
    fn paper_dims(self) -> Dims {
        match self {
            Kernel::TwoMm => Dims {
                ni: 1600,
                nj: 1800,
                nk: 2200,
                nl: 2400,
                nm: 0,
            },
            Kernel::ThreeMm => Dims {
                ni: 1800,
                nj: 1900,
                nk: 2000,
                nl: 2100,
                nm: 2200,
            },
            Kernel::Gemm => Dims {
                ni: 2000,
                nj: 2300,
                nk: 2600,
                nl: 0,
                nm: 0,
            },
            Kernel::Syrk => Dims {
                ni: 2600,
                nj: 0,
                nk: 2000,
                nl: 0,
                nm: 0,
            },
            Kernel::Syr2k => Dims {
                ni: 2600,
                nj: 0,
                nk: 2000,
                nl: 0,
                nm: 0,
            },
            Kernel::Atax => Dims {
                ni: 2000,
                nj: 2000,
                nk: 0,
                nl: 0,
                nm: 0,
            },
            Kernel::Bicg => Dims {
                ni: 1800,
                nj: 1800,
                nk: 0,
                nl: 0,
                nm: 0,
            },
            Kernel::Gesummv => Dims {
                ni: 1400,
                nj: 1400,
                nk: 0,
                nl: 0,
                nm: 0,
            },
            Kernel::Mvt => Dims {
                ni: 2000,
                nj: 2000,
                nk: 0,
                nl: 0,
                nm: 0,
            },
        }
    }

    /// The paper's Table IV VPC counts `(#PIM-VPC, #move-VPC)`.
    pub fn paper_vpc_counts(self) -> (f64, f64) {
        match self {
            Kernel::TwoMm => (7.37e6, 7.36e6),
            Kernel::ThreeMm => (1.19e7, 1.18e7),
            Kernel::Gemm => (4.61e6, 4.60e6),
            Kernel::Syrk => (6.77e6, 6.76e6),
            Kernel::Syr2k => (1.36e7, 1.35e7),
            Kernel::Atax => (4.00e3, 8.40e3),
            Kernel::Bicg => (3.60e3, 8.00e3),
            Kernel::Gesummv => (5.60e3, 8.40e3),
            Kernel::Mvt => (8.00e3, 1.60e4),
        }
    }

    /// Full-size instance (the paper's evaluation point).
    pub fn paper_instance(self) -> KernelInstance {
        KernelInstance {
            kernel: self,
            dims: self.paper_dims(),
        }
    }

    /// Instance scaled by `factor` (dimensions multiplied and clamped to a
    /// minimum of 4), for fast tests and micro-benchmarks.
    pub fn scaled(self, factor: f64) -> KernelInstance {
        let d = self.paper_dims();
        let s = |x: usize| {
            if x == 0 {
                0
            } else {
                ((x as f64 * factor).round() as usize).max(4)
            }
        };
        KernelInstance {
            kernel: self,
            dims: Dims {
                ni: s(d.ni),
                nj: s(d.nj),
                nk: s(d.nk),
                nl: s(d.nl),
                nm: s(d.nm),
            },
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel dimensions (unused dimensions are zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Dims {
    ni: usize,
    nj: usize,
    nk: usize,
    nl: usize,
    nm: usize,
}

/// A kernel at a concrete problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelInstance {
    /// The kernel.
    pub kernel: Kernel,
    dims: Dims,
}

/// A kernel's task and the handle of its primary output.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// The populated task, ready to lower/price/run.
    pub task: PimTask,
    /// Handle of the primary output.
    pub output: MatHandle,
}

impl KernelInstance {
    /// Builds the PIM task. With `Some(seed)` the inputs are random small
    /// values (functional runs); with `None` they are zeros (shape-only
    /// pricing of full-size instances).
    pub fn build_task(&self, seed: Option<u64>) -> BuiltKernel {
        let d = self.dims;
        let gen = |rows: usize, cols: usize, salt: u64| match seed {
            Some(s) => workload_matrix(rows, cols, s.wrapping_add(salt)),
            None => Matrix::zeros(rows, cols),
        };
        let mut task = PimTask::new();
        // All builders unwrap: shapes are constructed consistently here, so
        // add_matrix/add_operation cannot fail.
        let mut add = |m: Matrix| task.add_matrix(&m).expect("shapes are consistent");

        match self.kernel {
            Kernel::TwoMm => {
                let a = add(gen(d.ni, d.nk, 1));
                let b = add(gen(d.nk, d.nj, 2));
                let c = add(gen(d.nj, d.nl, 3));
                let dd = add(gen(d.ni, d.nl, 4));
                let tmp1 = add(Matrix::zeros(d.ni, d.nj));
                let tmp2 = add(Matrix::zeros(d.ni, d.nl));
                let e = add(Matrix::zeros(d.ni, d.nl));
                task.add_operation(MatrixOp::MatMul { a, b, dst: tmp1 })
                    .unwrap();
                task.add_operation(MatrixOp::MatMul {
                    a: tmp1,
                    b: c,
                    dst: tmp2,
                })
                .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: ALPHA,
                    a: tmp2,
                    beta: BETA,
                    b: dd,
                    dst: e,
                })
                .unwrap();
                BuiltKernel { task, output: e }
            }
            Kernel::ThreeMm => {
                let a = add(gen(d.ni, d.nk, 1));
                let b = add(gen(d.nk, d.nj, 2));
                let c = add(gen(d.nj, d.nm, 3));
                let dd = add(gen(d.nm, d.nl, 4));
                let e = add(Matrix::zeros(d.ni, d.nj));
                let f = add(Matrix::zeros(d.nj, d.nl));
                let g = add(Matrix::zeros(d.ni, d.nl));
                task.add_operation(MatrixOp::MatMul { a, b, dst: e })
                    .unwrap();
                task.add_operation(MatrixOp::MatMul {
                    a: c,
                    b: dd,
                    dst: f,
                })
                .unwrap();
                task.add_operation(MatrixOp::MatMul { a: e, b: f, dst: g })
                    .unwrap();
                BuiltKernel { task, output: g }
            }
            Kernel::Gemm => {
                let a = add(gen(d.ni, d.nk, 1));
                let b = add(gen(d.nk, d.nj, 2));
                let c = add(gen(d.ni, d.nj, 3));
                let tmp = add(Matrix::zeros(d.ni, d.nj));
                let out = add(Matrix::zeros(d.ni, d.nj));
                task.add_operation(MatrixOp::MatMul { a, b, dst: tmp })
                    .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: ALPHA,
                    a: tmp,
                    beta: BETA,
                    b: c,
                    dst: out,
                })
                .unwrap();
                BuiltKernel { task, output: out }
            }
            Kernel::Syrk => {
                let a_mat = gen(d.ni, d.nk, 1);
                let at = a_mat.transpose();
                let a = add(a_mat);
                let atr = add(at);
                let c = add(gen(d.ni, d.ni, 2));
                let tmp = add(Matrix::zeros(d.ni, d.ni));
                let out = add(Matrix::zeros(d.ni, d.ni));
                task.add_operation(MatrixOp::MatMul {
                    a,
                    b: atr,
                    dst: tmp,
                })
                .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: ALPHA,
                    a: tmp,
                    beta: BETA,
                    b: c,
                    dst: out,
                })
                .unwrap();
                BuiltKernel { task, output: out }
            }
            Kernel::Syr2k => {
                let a_mat = gen(d.ni, d.nk, 1);
                let b_mat = gen(d.ni, d.nk, 2);
                let at = add(a_mat.transpose());
                let bt = add(b_mat.transpose());
                let a = add(a_mat);
                let b = add(b_mat);
                let c = add(gen(d.ni, d.ni, 3));
                let t1 = add(Matrix::zeros(d.ni, d.ni));
                let t2 = add(Matrix::zeros(d.ni, d.ni));
                let t3 = add(Matrix::zeros(d.ni, d.ni));
                let out = add(Matrix::zeros(d.ni, d.ni));
                task.add_operation(MatrixOp::MatMul { a, b: bt, dst: t1 })
                    .unwrap();
                task.add_operation(MatrixOp::MatMul {
                    a: b,
                    b: at,
                    dst: t2,
                })
                .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: ALPHA,
                    a: t1,
                    beta: ALPHA,
                    b: t2,
                    dst: t3,
                })
                .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: 1,
                    a: t3,
                    beta: BETA,
                    b: c,
                    dst: out,
                })
                .unwrap();
                BuiltKernel { task, output: out }
            }
            Kernel::Atax => {
                let a_mat = gen(d.ni, d.nj, 1);
                let at = add(a_mat.transpose());
                let a = add(a_mat);
                let x = add(gen(d.nj, 1, 2));
                let tmp = add(Matrix::zeros(d.ni, 1));
                let y = add(Matrix::zeros(d.nj, 1));
                task.add_operation(MatrixOp::MatVec { a, x, dst: tmp })
                    .unwrap();
                task.add_operation(MatrixOp::MatVec {
                    a: at,
                    x: tmp,
                    dst: y,
                })
                .unwrap();
                BuiltKernel { task, output: y }
            }
            Kernel::Bicg => {
                let a_mat = gen(d.ni, d.nj, 1);
                let at = add(a_mat.transpose());
                let a = add(a_mat);
                let p = add(gen(d.nj, 1, 2));
                let r = add(gen(d.ni, 1, 3));
                let q = add(Matrix::zeros(d.ni, 1));
                let s = add(Matrix::zeros(d.nj, 1));
                task.add_operation(MatrixOp::MatVec { a, x: p, dst: q })
                    .unwrap();
                task.add_operation(MatrixOp::MatVec {
                    a: at,
                    x: r,
                    dst: s,
                })
                .unwrap();
                BuiltKernel { task, output: q }
            }
            Kernel::Gesummv => {
                let a = add(gen(d.ni, d.nj, 1));
                let b = add(gen(d.ni, d.nj, 2));
                let x = add(gen(d.nj, 1, 3));
                let u = add(Matrix::zeros(d.ni, 1));
                let v = add(Matrix::zeros(d.ni, 1));
                let y = add(Matrix::zeros(d.ni, 1));
                task.add_operation(MatrixOp::MatVec { a, x, dst: u })
                    .unwrap();
                task.add_operation(MatrixOp::MatVec { a: b, x, dst: v })
                    .unwrap();
                task.add_operation(MatrixOp::Axpby {
                    alpha: ALPHA,
                    a: u,
                    beta: BETA,
                    b: v,
                    dst: y,
                })
                .unwrap();
                BuiltKernel { task, output: y }
            }
            Kernel::Mvt => {
                let a_mat = gen(d.ni, d.nj, 1);
                let at = add(a_mat.transpose());
                let a = add(a_mat);
                let x1 = add(gen(d.ni, 1, 2));
                let x2 = add(gen(d.nj, 1, 3));
                let y1 = add(gen(d.nj, 1, 4));
                let y2 = add(gen(d.ni, 1, 5));
                let t1 = add(Matrix::zeros(d.ni, 1));
                let t2 = add(Matrix::zeros(d.nj, 1));
                let o1 = add(Matrix::zeros(d.ni, 1));
                let o2 = add(Matrix::zeros(d.nj, 1));
                task.add_operation(MatrixOp::MatVec { a, x: y1, dst: t1 })
                    .unwrap();
                task.add_operation(MatrixOp::MatAdd {
                    a: x1,
                    b: t1,
                    dst: o1,
                })
                .unwrap();
                task.add_operation(MatrixOp::MatVec {
                    a: at,
                    x: y2,
                    dst: t2,
                })
                .unwrap();
                task.add_operation(MatrixOp::MatAdd {
                    a: x2,
                    b: t2,
                    dst: o2,
                })
                .unwrap();
                BuiltKernel { task, output: o1 }
            }
        }
    }

    /// Host-side reference output for validation (use at reduced scales).
    pub fn reference(&self, seed: u64) -> Matrix {
        let d = self.dims;
        let gen = |rows: usize, cols: usize, salt: u64| {
            workload_matrix(rows, cols, seed.wrapping_add(salt))
        };
        match self.kernel {
            Kernel::TwoMm => {
                let (a, b, c, dd) = (
                    gen(d.ni, d.nk, 1),
                    gen(d.nk, d.nj, 2),
                    gen(d.nj, d.nl, 3),
                    gen(d.ni, d.nl, 4),
                );
                a.matmul(&b).matmul(&c).scale(ALPHA).add(&dd.scale(BETA))
            }
            Kernel::ThreeMm => {
                let (a, b, c, dd) = (
                    gen(d.ni, d.nk, 1),
                    gen(d.nk, d.nj, 2),
                    gen(d.nj, d.nm, 3),
                    gen(d.nm, d.nl, 4),
                );
                a.matmul(&b).matmul(&c.matmul(&dd))
            }
            Kernel::Gemm => {
                let (a, b, c) = (gen(d.ni, d.nk, 1), gen(d.nk, d.nj, 2), gen(d.ni, d.nj, 3));
                a.matmul(&b).scale(ALPHA).add(&c.scale(BETA))
            }
            Kernel::Syrk => {
                let (a, c) = (gen(d.ni, d.nk, 1), gen(d.ni, d.ni, 2));
                a.matmul(&a.transpose()).scale(ALPHA).add(&c.scale(BETA))
            }
            Kernel::Syr2k => {
                let (a, b, c) = (gen(d.ni, d.nk, 1), gen(d.ni, d.nk, 2), gen(d.ni, d.ni, 3));
                a.matmul(&b.transpose())
                    .scale(ALPHA)
                    .add(&b.matmul(&a.transpose()).scale(ALPHA))
                    .add(&c.scale(BETA))
            }
            Kernel::Atax => {
                let (a, x) = (gen(d.ni, d.nj, 1), gen(d.nj, 1, 2));
                a.transpose().matmul(&a.matmul(&x))
            }
            Kernel::Bicg => {
                let (a, p) = (gen(d.ni, d.nj, 1), gen(d.nj, 1, 2));
                a.matmul(&p)
            }
            Kernel::Gesummv => {
                let (a, b, x) = (gen(d.ni, d.nj, 1), gen(d.ni, d.nj, 2), gen(d.nj, 1, 3));
                a.matmul(&x).scale(ALPHA).add(&b.matmul(&x).scale(BETA))
            }
            Kernel::Mvt => {
                let (a, x1, y1) = (gen(d.ni, d.nj, 1), gen(d.ni, 1, 2), gen(d.nj, 1, 4));
                x1.add(&a.matmul(&y1))
            }
        }
    }

    /// Compute/memory characterization for the host baselines (doubles).
    pub fn profile(&self) -> KernelProfile {
        let d = self.dims;
        let f = |x: usize| x as f64;
        const W: f64 = 8.0; // double precision on the host platforms
        let (flops, bytes, working_set) = match self.kernel {
            Kernel::TwoMm => {
                let flops = 2.0 * f(d.ni) * f(d.nj) * f(d.nk)
                    + 2.0 * f(d.ni) * f(d.nl) * f(d.nj)
                    + 3.0 * f(d.ni) * f(d.nl);
                let ws = W
                    * (f(d.ni) * f(d.nk)
                        + f(d.nk) * f(d.nj)
                        + f(d.nj) * f(d.nl)
                        + 2.0 * f(d.ni) * f(d.nl)
                        + f(d.ni) * f(d.nj));
                (flops, ws, ws)
            }
            Kernel::ThreeMm => {
                let flops = 2.0 * f(d.ni) * f(d.nj) * f(d.nk)
                    + 2.0 * f(d.nj) * f(d.nl) * f(d.nm)
                    + 2.0 * f(d.ni) * f(d.nl) * f(d.nj);
                let ws = W
                    * (f(d.ni) * f(d.nk)
                        + f(d.nk) * f(d.nj)
                        + f(d.nj) * f(d.nm)
                        + f(d.nm) * f(d.nl)
                        + f(d.ni) * f(d.nj)
                        + f(d.nj) * f(d.nl)
                        + f(d.ni) * f(d.nl));
                (flops, ws, ws)
            }
            Kernel::Gemm => {
                let flops = 2.0 * f(d.ni) * f(d.nj) * f(d.nk) + 3.0 * f(d.ni) * f(d.nj);
                let ws = W * (f(d.ni) * f(d.nk) + f(d.nk) * f(d.nj) + 2.0 * f(d.ni) * f(d.nj));
                (flops, ws, ws)
            }
            Kernel::Syrk => {
                let flops = 2.0 * f(d.ni) * f(d.ni) * f(d.nk) + 3.0 * f(d.ni) * f(d.ni);
                let ws = W * (f(d.ni) * f(d.nk) + 2.0 * f(d.ni) * f(d.ni));
                (flops, ws, ws)
            }
            Kernel::Syr2k => {
                let flops = 4.0 * f(d.ni) * f(d.ni) * f(d.nk) + 5.0 * f(d.ni) * f(d.ni);
                let ws = W * (2.0 * f(d.ni) * f(d.nk) + 2.0 * f(d.ni) * f(d.ni));
                (flops, ws, ws)
            }
            Kernel::Atax => {
                let flops = 4.0 * f(d.ni) * f(d.nj);
                let ws = W * (f(d.ni) * f(d.nj) + 2.0 * f(d.nj) + f(d.ni));
                // The matrix streams twice (A then A^T): compulsory traffic
                // is ~2x the working set.
                (flops, 2.0 * ws, ws)
            }
            Kernel::Bicg => {
                let flops = 4.0 * f(d.ni) * f(d.nj);
                let ws = W * (f(d.ni) * f(d.nj) + 2.0 * (f(d.ni) + f(d.nj)));
                (flops, 2.0 * ws, ws)
            }
            Kernel::Gesummv => {
                let flops = 4.0 * f(d.ni) * f(d.nj) + 3.0 * f(d.ni);
                let ws = W * (2.0 * f(d.ni) * f(d.nj) + f(d.nj) + 3.0 * f(d.ni));
                (flops, ws, ws)
            }
            Kernel::Mvt => {
                let flops = 4.0 * f(d.ni) * f(d.nj) + 2.0 * (f(d.ni) + f(d.nj));
                let ws = W * (f(d.ni) * f(d.nj) + 4.0 * f(d.ni));
                (flops, 2.0 * ws, ws)
            }
        };
        KernelProfile {
            name: self.kernel.name().to_string(),
            flops,
            bytes,
            working_set,
            small: self.kernel.is_small(),
            cpu_efficiency: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_device::{StreamPim, StreamPimConfig};

    fn device() -> StreamPim {
        StreamPim::new(StreamPimConfig::paper_default()).unwrap()
    }

    #[test]
    fn all_kernels_build_and_run_at_small_scale() {
        for kernel in Kernel::ALL {
            let inst = kernel.scaled(0.01);
            let built = inst.build_task(Some(7));
            let out = built.task.run(&device()).unwrap();
            assert!(out.report.total_ns() > 0.0, "{kernel} has nonzero time");
        }
    }

    #[test]
    fn functional_results_match_reference() {
        for kernel in Kernel::ALL {
            let inst = kernel.scaled(0.008);
            let built = inst.build_task(Some(11));
            let out = built.task.run(&device()).unwrap();
            let got = out.matrix(built.output).unwrap();
            let expect = inst.reference(11);
            assert_eq!(got, &expect, "kernel {kernel} functional mismatch");
        }
    }

    #[test]
    fn full_size_vpc_counts_match_table_iv() {
        // Paper Table IV; gemm/syrk/syr2k/gesummv/mvt reproduce (nearly)
        // exactly, the rest within 10%.
        for kernel in Kernel::ALL {
            let built = kernel.paper_instance().build_task(None);
            let schedule = built.task.lower(&device()).unwrap();
            let counts = schedule.counts();
            let (pim_expect, move_expect) = kernel.paper_vpc_counts();
            let pim_err = (counts.pim as f64 - pim_expect).abs() / pim_expect;
            let move_err = (counts.moves as f64 - move_expect).abs() / move_expect;
            assert!(
                pim_err < 0.10,
                "{kernel}: #PIM {} vs paper {pim_expect} ({pim_err:.2})",
                counts.pim
            );
            assert!(
                move_err < 0.15,
                "{kernel}: #move {} vs paper {move_expect} ({move_err:.2})",
                counts.moves
            );
        }
    }

    #[test]
    fn small_kernel_classification() {
        assert!(Kernel::Atax.is_small());
        assert!(Kernel::Mvt.is_small());
        assert!(!Kernel::Gemm.is_small());
        assert!(!Kernel::ThreeMm.is_small());
    }

    #[test]
    fn profiles_are_positive_and_small_kernels_low_intensity() {
        for kernel in Kernel::ALL {
            let p = kernel.paper_instance().profile();
            assert!(
                p.flops > 0.0 && p.bytes > 0.0 && p.working_set > 0.0,
                "{kernel}"
            );
            if kernel.is_small() {
                assert!(p.intensity() < 5.0, "{kernel} should be memory-bound");
            } else {
                assert!(p.intensity() > 50.0, "{kernel} should be compute-bound");
            }
        }
    }

    #[test]
    fn scaled_dims_clamp() {
        let inst = Kernel::Gemm.scaled(0.0001);
        let p = inst.profile();
        assert!(p.flops >= 2.0 * 4.0 * 4.0 * 4.0);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 9);
    }
}
