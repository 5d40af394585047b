//! Matrix type re-export and deterministic random generators.

pub use pim_device::matrix::Matrix;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates a `rows x cols` matrix of uniform values in `[lo, hi]`,
/// deterministically from `seed`.
///
/// The default workload range is small (`0..=15`) so that products and
/// 2000-element dot products stay well inside the device's 8-bit element /
/// 32-bit accumulator datapath, keeping the bit-accurate layer exact.
///
/// # Panics
///
/// Panics if `lo > hi` or a dimension is zero.
pub fn random_matrix(rows: usize, cols: usize, lo: i64, hi: i64, seed: u64) -> Matrix {
    assert!(lo <= hi, "invalid range {lo}..={hi}");
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..=hi))
}

/// The default small-value matrix used by kernel builders.
pub fn workload_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    random_matrix(rows, cols, 0, 15, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = random_matrix(10, 10, 0, 100, 42);
        let b = random_matrix(10, 10, 0, 100, 42);
        let c = random_matrix(10, 10, 0, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn values_in_range() {
        let m = random_matrix(20, 20, -5, 5, 7);
        assert!(m.as_slice().iter().all(|&v| (-5..=5).contains(&v)));
    }

    #[test]
    fn workload_values_fit_8_bits() {
        let m = workload_matrix(16, 16, 1);
        assert!(m.max_abs() < 16);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_reversed_range() {
        let _ = random_matrix(2, 2, 5, 1, 0);
    }
}
