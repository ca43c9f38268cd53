//! # xai-linalg
//!
//! From-scratch dense linear algebra and statistics substrate for the `xai`
//! workspace. The XAI method crates never depend on external numeric
//! libraries; everything they need lives here:
//!
//! - [`matrix::Matrix`] — dense row-major matrices with the usual products;
//! - [`batch`] — blocked mat-vec / `A·Bᵀ` kernels for batched model
//!   inference, bit-identical to the naive dot-product loops, plus masked
//!   variants that evaluate coalition views without materializing them;
//! - [`arena`] — thread-local scratch-buffer pool backing the zero-copy
//!   coalition paths (DESIGN.md §12);
//! - [`cholesky`] / [`lu`] — direct factorizations for SPD and general
//!   square systems;
//! - [`solve`] — (weighted) least squares and conjugate gradients, the
//!   computational cores of LIME, Kernel SHAP and influence functions;
//! - [`stats`] — descriptive statistics, robust scales (MAD), rank
//!   correlations used to score explanation agreement;
//! - [`distr`] — seeded Gaussian / multivariate-Gaussian / categorical
//!   sampling for perturbation-based explainers and synthetic data.
//!
//! Everything is deterministic given the caller's RNG; no global state.

pub mod arena;
pub mod batch;
pub mod cholesky;
pub mod distr;
pub mod lu;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use arena::{with_scratch, with_scratch_matrix, with_scratch_vec, ScratchArena};
pub use batch::{
    affine_fold, gemm_nt, masked_affine_fold, masked_affine_fold_many, masked_matvec,
    masked_matvec_many, matvec_blocked,
};
pub use cholesky::{choldowndate, cholupdate, solve_spd, Cholesky};
pub use lu::Lu;
pub use matrix::{dot, norm1, norm2, vadd, vaxpy, vscale, vsub, Matrix};
pub use solve::{
    conjugate_gradient, conjugate_gradient_mat, least_squares, r_squared,
    weighted_least_squares, weighted_r_squared, CgResult,
};

/// Errors produced by the factorizations and solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum LinalgError {
    /// A square-matrix operation received a rectangular matrix.
    NotSquare {
        /// Actual row count.
        rows: usize,
        /// Actual column count.
        cols: usize,
    },
    /// Cholesky hit a non-positive pivot: the matrix is not positive-definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// The offending pivot value.
        value: f64,
    },
    /// LU hit an exactly-zero pivot column: the matrix is singular.
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// An input matrix or vector contained NaN or ±Inf. Factorizations
    /// reject these up front rather than propagating NaN into the factors.
    NonFinite {
        /// Row of the first offending entry (0 for plain vectors).
        row: usize,
        /// Column of the first offending entry (the index, for vectors).
        col: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "expected a square matrix, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix is not positive-definite (pivot {pivot} = {value})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at column {pivot})")
            }
            LinalgError::NonFinite { row, col } => {
                write!(f, "input contains a non-finite value at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Checks every entry of a matrix, reporting the first NaN/±Inf position.
pub fn check_finite_matrix(a: &matrix::Matrix) -> Result<(), LinalgError> {
    for i in 0..a.rows() {
        for (j, v) in a.row(i).iter().enumerate() {
            if !v.is_finite() {
                return Err(LinalgError::NonFinite { row: i, col: j });
            }
        }
    }
    Ok(())
}

/// Checks every entry of a vector, reporting the first NaN/±Inf index as
/// the column of a row-0 `NonFinite` error.
pub fn check_finite_slice(v: &[f64]) -> Result<(), LinalgError> {
    match v.iter().position(|x| !x.is_finite()) {
        Some(col) => Err(LinalgError::NonFinite { row: 0, col }),
        None => Ok(()),
    }
}
