//! # fannet-tensor
//!
//! Minimal dense linear algebra for the FANNet (DATE 2020) reproduction:
//! row-major [`Matrix`] and slice-based [`vector`] helpers, generic over the
//! [`fannet_numeric::Scalar`] abstraction so that the same network code runs
//! with `f64` (training) and `Rational` (exact verification) elements.
//!
//! The case-study networks are tiny, so the implementation optimizes for
//! checked shapes and auditability rather than BLAS-level throughput.
//!
//! ## Example
//!
//! ```
//! use fannet_tensor::{Matrix, vector};
//!
//! let w = Matrix::from_rows(vec![vec![0.5, -1.0], vec![2.0, 0.0]])?;
//! let x = [2.0, 1.0];
//! let y = w.matvec(&x)?;
//! assert_eq!(vector::argmax(&y), Some(1));
//! # Ok::<(), fannet_tensor::ShapeError>(())
//! ```

pub mod matrix;
pub mod vector;

pub use matrix::{Matrix, ShapeError};
