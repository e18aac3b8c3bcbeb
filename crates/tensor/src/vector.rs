//! Free functions on vectors (`&[S]`) generic over [`Scalar`].
//!
//! Kept as plain-slice helpers rather than a newtype so call sites can use
//! ordinary `Vec<S>` buffers; the network code composes these with
//! [`Matrix`](crate::Matrix) operations.

use fannet_numeric::Scalar;

use crate::matrix::ShapeError;

/// Dot product of two equal-length vectors.
///
/// # Errors
///
/// Returns [`ShapeError`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use fannet_tensor::vector::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0])?, 11.0);
/// # Ok::<(), fannet_tensor::ShapeError>(())
/// ```
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> Result<S, ShapeError> {
    if a.len() != b.len() {
        return Err(ShapeError::new(format!(
            "dot: lengths {} and {}",
            a.len(),
            b.len()
        )));
    }
    Ok(a.iter().zip(b).fold(S::zero(), |acc, (x, y)| acc + *x * *y))
}

/// Elementwise sum.
///
/// # Errors
///
/// Returns [`ShapeError`] if the lengths differ.
pub fn add<S: Scalar>(a: &[S], b: &[S]) -> Result<Vec<S>, ShapeError> {
    if a.len() != b.len() {
        return Err(ShapeError::new(format!(
            "add: lengths {} and {}",
            a.len(),
            b.len()
        )));
    }
    Ok(a.iter().zip(b).map(|(x, y)| *x + *y).collect())
}

/// Elementwise difference `a - b`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the lengths differ.
pub fn sub<S: Scalar>(a: &[S], b: &[S]) -> Result<Vec<S>, ShapeError> {
    if a.len() != b.len() {
        return Err(ShapeError::new(format!(
            "sub: lengths {} and {}",
            a.len(),
            b.len()
        )));
    }
    Ok(a.iter().zip(b).map(|(x, y)| *x - *y).collect())
}

/// Scales every element by `k`.
#[must_use]
pub fn scale<S: Scalar>(a: &[S], k: S) -> Vec<S> {
    a.iter().map(|x| *x * k).collect()
}

/// Elementwise ReLU.
#[must_use]
pub fn relu<S: Scalar>(a: &[S]) -> Vec<S> {
    a.iter().map(|x| x.relu()).collect()
}

/// Index of the maximum element; ties break toward the *lower* index, the
/// convention used by the paper's maxpool output readout (and by `argmax` in
/// most ML frameworks).
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use fannet_tensor::vector::argmax;
/// assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
/// assert_eq!(argmax(&[5.0, 5.0]), Some(0)); // tie → lower index
/// assert_eq!(argmax::<f64>(&[]), None);
/// ```
#[must_use]
pub fn argmax<S: Scalar>(a: &[S]) -> Option<usize> {
    let mut best: Option<(usize, S)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) if v > bv => best = Some((i, v)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// The maximum element (maxpool over the whole vector).
///
/// Returns `None` for an empty slice.
#[must_use]
pub fn max<S: Scalar>(a: &[S]) -> Option<S> {
    a.iter().copied().reduce(|x, y| x.max_val(y))
}

/// Squared Euclidean norm as the scalar type.
#[must_use]
pub fn norm_sq<S: Scalar>(a: &[S]) -> S {
    a.iter().fold(S::zero(), |acc, x| acc + *x * *x)
}

/// Sum of all elements.
#[must_use]
pub fn sum<S: Scalar>(a: &[S]) -> S {
    a.iter().fold(S::zero(), |acc, x| acc + *x)
}

/// Converts a slice between scalar types via `f64` (exact quantization uses
/// dedicated functions in `fannet-nn`).
#[must_use]
pub fn convert<A: Scalar, B: Scalar>(a: &[A]) -> Vec<B> {
    a.iter().map(|x| B::from_f64(x.to_f64())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_numeric::Rational;

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
        let a = [Rational::new(1, 2), Rational::new(1, 3)];
        let b = [Rational::from_integer(4), Rational::from_integer(9)];
        assert_eq!(dot(&a, &b).unwrap(), Rational::from_integer(5));
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, -2.0], 3.0), vec![3.0, -6.0]);
        assert!(add(&[1.0], &[1.0, 2.0]).is_err());
        assert!(sub(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn relu_elementwise() {
        assert_eq!(relu(&[-1.0, 0.0, 2.0]), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn argmax_and_max() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0, 1.0]), Some(0));
        assert_eq!(argmax::<f64>(&[]), None);
        assert_eq!(max(&[3.0, -1.0, 2.0]), Some(3.0));
        assert_eq!(max::<f64>(&[]), None);
        let r = [Rational::new(1, 3), Rational::new(1, 2)];
        assert_eq!(argmax(&r), Some(1));
    }

    #[test]
    fn norms_and_sums() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum::<f64>(&[]), 0.0);
    }

    #[test]
    fn conversion() {
        let f: Vec<f64> = vec![0.5, -1.25];
        let r: Vec<Rational> = convert(&f);
        assert_eq!(r, vec![Rational::new(1, 2), Rational::new(-5, 4)]);
        let back: Vec<f64> = convert(&r);
        assert_eq!(back, f);
    }
}
