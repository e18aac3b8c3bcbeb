//! Dense row-major matrices generic over [`Scalar`].
//!
//! The FANNet case-study networks are tiny (5–20–2), so this module favours
//! clarity and checked shapes over cache blocking. Everything is generic
//! over the scalar type so the same code path serves `f64` training and
//! exact-`Rational` verification.

use std::fmt;

use fannet_numeric::Scalar;
use serde::{Deserialize, Serialize};

/// Error returned when two shapes are incompatible for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    message: String,
}

impl ShapeError {
    /// Creates a shape error with a human-readable description.
    ///
    /// Public so that downstream crates (layers, networks) can report their
    /// own shape mismatches through the same error type.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ShapeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// A dense `rows × cols` matrix stored row-major.
///
/// # Examples
///
/// ```
/// use fannet_tensor::Matrix;
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// let v = m.matvec(&[1.0, 1.0])?;
/// assert_eq!(v, vec![3.0, 7.0]);
/// # Ok::<(), fannet_tensor::ShapeError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "buffer of length {} cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows are ragged or empty.
    pub fn from_rows(rows: Vec<Vec<S>>) -> Result<Self, ShapeError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(ShapeError::new("matrix must have at least one row"));
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(ShapeError::new("matrix must have at least one column"));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != ncols {
                return Err(ShapeError::new(format!(
                    "row {i} has {} entries, expected {ncols}",
                    row.len()
                )));
            }
            data.extend(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// The identity matrix of size `n × n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub const fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// A borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[S] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access returning `None` when out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> Option<&S> {
        if r < self.rows && c < self.cols {
            Some(&self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[S]) -> Result<Vec<S>, ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError::new(format!(
                "matvec: vector of length {} against {}x{} matrix",
                x.len(),
                self.rows,
                self.cols
            )));
        }
        Ok((0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(x)
                    .fold(S::zero(), |acc, (a, b)| acc + *a * *b)
            })
            .collect())
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(format!(
                "matmul: {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] =
                        out.data[i * rhs.cols + j] + aik * rhs.data[k * rhs.cols + j];
                }
            }
        }
        Ok(out)
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix<S> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` elementwise, producing a matrix over a possibly different
    /// scalar type (used e.g. to quantize an `f64` weight matrix to
    /// `Rational`).
    #[must_use]
    pub fn map<T: Scalar>(&self, mut f: impl FnMut(&S) -> T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(&mut f).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn add(&self, rhs: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(format!(
                "add: {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        })
    }

    /// Multiplies every element by `k`.
    #[must_use]
    pub fn scale(&self, k: S) -> Matrix<S> {
        self.map(|v| *v * k)
    }

    /// Outer product `a ⊗ b` of two vectors, an `a.len() × b.len()` matrix.
    #[must_use]
    pub fn outer(a: &[S], b: &[S]) -> Matrix<S> {
        let mut out = Matrix::zeros(a.len(), b.len());
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                out.data[i * b.len() + j] = ai * bj;
            }
        }
        out
    }

    /// Frobenius norm as `f64` (reporting only).
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let f = v.to_f64();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    fn index(&self, (r, c): (usize, usize)) -> &S {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<S> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<S: fmt::Debug> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.data[r * self.cols + c])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_numeric::Rational;

    fn m2x2() -> Matrix<f64> {
        Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_shapes() {
        let m = m2x2();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(err.to_string().contains("row 1"));
        assert!(Matrix::<f64>::from_rows(vec![]).is_err());
        assert!(Matrix::<f64>::from_rows(vec![vec![]]).is_err());
    }

    #[test]
    fn indexing() {
        let mut m = m2x2();
        assert_eq!(m[(0, 1)], 2.0);
        m[(0, 1)] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
        assert_eq!(m.get(5, 5), None);
        assert_eq!(m.get(1, 1), Some(&4.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let _ = m2x2()[(2, 0)];
    }

    #[test]
    fn matvec_matches_hand() {
        let m = m2x2();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(m.matvec(&[2.0, -1.0]).unwrap(), vec![0.0, 2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_matches_hand() {
        let a = m2x2();
        let b = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
        let bad = Matrix::<f64>::zeros(3, 3);
        assert!(a.matmul(&bad).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn map_changes_scalar_type() {
        let m = m2x2();
        let q: Matrix<Rational> = m.map(|v| Rational::from_f64_exact(*v).unwrap());
        assert_eq!(q[(1, 1)], Rational::from_integer(4));
        let back: Matrix<f64> = q.map(|v| v.to_f64());
        assert_eq!(back, m);
    }

    #[test]
    fn add_and_scale() {
        let m = m2x2();
        let s = m.add(&m).unwrap();
        assert_eq!(s.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.scale(2.0), s);
        assert!(m.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn outer_product() {
        let o = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_rows(vec![vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rational_matvec() {
        let m = Matrix::from_rows(vec![
            vec![Rational::new(1, 2), Rational::new(1, 3)],
            vec![Rational::new(-1, 4), Rational::new(2, 5)],
        ])
        .unwrap();
        let y = m
            .matvec(&[Rational::from_integer(6), Rational::from_integer(15)])
            .unwrap();
        assert_eq!(y, vec![Rational::from_integer(8), Rational::new(9, 2)]);
    }

    #[test]
    fn serde_round_trip() {
        let m = m2x2();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix<f64> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn debug_is_readable() {
        let s = format!("{:?}", m2x2());
        assert!(s.contains("Matrix 2x2"));
        assert!(s.contains("[1.0, 2.0]"));
    }
}
