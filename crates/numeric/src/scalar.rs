//! The [`Scalar`] abstraction: one numeric interface for `f64` and
//! [`Rational`].
//!
//! The network code in `fannet-nn` is generic over `Scalar`, so the *same*
//! forward-pass implementation serves two roles:
//!
//! * `f64` — fast training and floating-point reference inference;
//! * [`Rational`] — the exact semantics verified by `fannet-verify`.

use std::fmt::{Debug, Display};
use std::ops::{Add, Mul, Neg, Sub};

use crate::rational::Rational;

/// A numeric type usable as the element type of tensors and networks.
///
/// Implementors must form an ordered commutative ring (up to the usual
/// caveats for floating-point arithmetic). The trait is deliberately
/// small: only what the forward pass, training loop and verifier need.
///
/// This trait is sealed-by-convention: it is implemented for exactly `f64`
/// and [`Rational`], and downstream crates are not expected to add
/// implementations (nothing enforces this; the FANNet crates simply make no
/// compatibility promises for foreign scalars).
///
/// # Examples
///
/// ```
/// use fannet_numeric::{Scalar, Rational};
///
/// fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
///     a.iter().zip(b).fold(S::zero(), |acc, (x, y)| acc + *x * *y)
/// }
///
/// let a = [Rational::new(1, 2), Rational::new(1, 3)];
/// let b = [Rational::from_integer(2), Rational::from_integer(3)];
/// assert_eq!(dot(&a, &b), Rational::from_integer(2));
/// assert_eq!(dot(&[0.5f64, 1.0], &[2.0, 3.0]), 4.0);
/// ```
pub trait Scalar:
    Copy
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion from `f64` (exact where the format permits).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (exact where the format permits).
    fn to_f64(self) -> f64;
    /// The larger of two values.
    #[must_use]
    fn max_val(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
    /// The smaller of two values.
    #[must_use]
    fn min_val(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
    /// Rectified linear unit, `max(self, 0)`.
    #[must_use]
    fn relu(self) -> Self {
        self.max_val(Self::zero())
    }
    /// `true` if the value is strictly greater than zero.
    fn is_positive(self) -> bool {
        self > Self::zero()
    }
    /// Absolute value.
    #[must_use]
    fn abs_val(self) -> Self {
        if self < Self::zero() {
            -self
        } else {
            self
        }
    }
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for Rational {
    fn zero() -> Self {
        Rational::ZERO
    }
    fn one() -> Self {
        Rational::ONE
    }
    fn from_f64(v: f64) -> Self {
        Rational::from_f64_exact(v)
            .unwrap_or_else(|| panic!("cannot represent {v} as an exact rational"))
    }
    fn to_f64(self) -> f64 {
        Rational::to_f64(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: Scalar>() {
        let two = S::from_f64(2.0);
        let three = S::from_f64(3.0);
        assert_eq!((two + three).to_f64(), 5.0);
        assert_eq!((three - two).to_f64(), 1.0);
        assert_eq!((two * three).to_f64(), 6.0);
        assert_eq!((-two).to_f64(), -2.0);
        assert_eq!(S::zero().to_f64(), 0.0);
        assert_eq!(S::one().to_f64(), 1.0);
        assert_eq!(two.max_val(three).to_f64(), 3.0);
        assert_eq!(two.min_val(three).to_f64(), 2.0);
        assert_eq!((-two).relu().to_f64(), 0.0);
        assert_eq!(three.relu().to_f64(), 3.0);
        assert!(three.is_positive());
        assert!(!(-three).is_positive());
        assert!(!S::zero().is_positive());
        assert_eq!((-three).abs_val().to_f64(), 3.0);
    }

    #[test]
    fn f64_scalar() {
        exercise::<f64>();
    }

    #[test]
    fn rational_scalar() {
        exercise::<Rational>();
    }

    #[test]
    fn generic_dot_product_agrees_across_scalars() {
        fn dot<S: Scalar>(a: &[f64], b: &[f64]) -> f64 {
            let a: Vec<S> = a.iter().map(|&v| S::from_f64(v)).collect();
            let b: Vec<S> = b.iter().map(|&v| S::from_f64(v)).collect();
            a.iter()
                .zip(&b)
                .fold(S::zero(), |acc, (x, y)| acc + *x * *y)
                .to_f64()
        }
        let a = [1.0, -2.5, 0.5];
        let b = [4.0, 2.0, -8.0];
        let expected = -5.0;
        assert_eq!(dot::<f64>(&a, &b), expected);
        assert_eq!(dot::<Rational>(&a, &b), expected);
    }
}
