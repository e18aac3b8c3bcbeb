//! Arbitrary-precision-free exact rational arithmetic on `i128`.
//!
//! The FANNet decision procedure ([`fannet-verify`]) must be *sound*: every
//! verdict ("this noise box cannot flip the classification") is a formal
//! claim, so no floating-point rounding may enter the evaluation path. All
//! network parameters are quantized to [`Rational`] values with bounded
//! denominators and all forward evaluations and interval propagations are
//! performed exactly.
//!
//! `i128` is sufficient for the FANNet workloads: quantized weights have
//! denominators ≤ 2^20, relative noise contributes a denominator of 100 and
//! the case-study network has two affine layers, keeping all intermediate
//! denominators ≲ 10^15 — far below the ±1.7·10^38 range of `i128`. All
//! arithmetic is checked: overflow panics with a descriptive message rather
//! than wrapping silently (an overflowing verdict would be unsound).
//!
//! [`fannet-verify`]: ../../fannet_verify/index.html

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Greatest common divisor of two non-negative `i128` values.
///
/// Uses the binary GCD algorithm; `gcd(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// use fannet_numeric::rational::gcd;
/// assert_eq!(gcd(54, 24), 6);
/// assert_eq!(gcd(0, 7), 7);
/// ```
#[must_use]
pub fn gcd(mut a: i128, mut b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0, "gcd operands must be non-negative");
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            break;
        }
    }
    a << shift
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1` as maintained invariants.
///
/// `Rational` implements the full set of arithmetic operators plus total
/// ordering. It is `Copy` (two `i128`s) so it can flow through the generic
/// tensor and network code exactly like `f64`.
///
/// # Examples
///
/// ```
/// use fannet_numeric::Rational;
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// assert_eq!(a * b, Rational::new(1, 18));
/// assert!(a > b);
/// ```
///
/// # Panics
///
/// All arithmetic panics on `i128` overflow (see module docs for why the
/// FANNet workloads stay far away from that bound). Construction panics on a
/// zero denominator.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The additive identity, `0/1`.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The multiplicative identity, `1/1`.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates the rational `num / den`, normalizing sign and reducing to
    /// lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
    /// ```
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if (num < 0) ^ (den < 0) { -1 } else { 1 };
        // unsigned_abs keeps i128::MIN representable; narrowing back below
        // re-checks that the reduced value fits in i128.
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u128(num, den);
        let num = num / g;
        let den = den / g;
        let num = i128::try_from(num).expect("rational numerator overflow");
        let den = i128::try_from(den).expect("rational denominator overflow");
        Rational {
            num: sign * num,
            den,
        }
    }

    /// Creates the integer rational `n / 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::from_integer(5).to_f64(), 5.0);
    /// ```
    #[must_use]
    pub const fn from_integer(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Creates the rational `percent / 100`, the paper's relative-noise unit.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::from_percent(25), Rational::new(1, 4));
    /// ```
    #[must_use]
    pub fn from_percent(percent: i64) -> Self {
        Rational::new(i128::from(percent), 100)
    }

    /// Converts a finite `f64` to the *exactly equal* rational.
    ///
    /// Every finite IEEE-754 double is a dyadic rational `m · 2^e`, so the
    /// conversion is lossless whenever the value fits in `i128` terms.
    ///
    /// Returns `None` for NaN, infinities, and values whose exact expansion
    /// overflows `i128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::from_f64_exact(0.25), Some(Rational::new(1, 4)));
    /// assert_eq!(Rational::from_f64_exact(f64::NAN), None);
    /// ```
    #[must_use]
    pub fn from_f64_exact(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Self::ZERO);
        }
        let bits = v.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (mantissa, exponent) = if exponent == 0 {
            (mantissa, -1074i64) // subnormal
        } else {
            (mantissa | (1u64 << 52), exponent - 1075)
        };
        let m = i128::from(mantissa);
        if exponent >= 0 {
            // `checked_shl` checks only the shift amount, not the bits
            // shifted out: `m · 2^shift` fits `i128` terms only below
            // 2^127, i.e. when the shift stays under m's leading zeros.
            let shift = u32::try_from(exponent).ok()?;
            if shift >= m.leading_zeros() {
                return None;
            }
            Some(Rational::new(sign * (m << shift), 1))
        } else {
            let shift = u32::try_from(-exponent).ok()?;
            if shift >= 127 {
                return None;
            }
            Some(Rational::new(sign * m, 1i128 << shift))
        }
    }

    /// Approximates a finite `f64` by the nearest rational with denominator
    /// `den` (rounding half away from zero).
    ///
    /// This is the quantization primitive used by
    /// `fannet_nn::quantize`: weights become `round(w · den) / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den <= 0` or `v` is not finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::from_f64_approx(0.333, 3), Rational::new(1, 3));
    /// ```
    #[must_use]
    pub fn from_f64_approx(v: f64, den: i128) -> Self {
        assert!(den > 0, "approximation denominator must be positive");
        assert!(v.is_finite(), "cannot approximate a non-finite value");
        let scaled = v * den as f64;
        let rounded = scaled.round();
        assert!(
            rounded.abs() < 1.7e38,
            "value {v} too large to approximate with denominator {den}"
        );
        Rational::new(rounded as i128, den)
    }

    /// The numerator (sign-carrying, lowest terms).
    #[must_use]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive, lowest terms).
    #[must_use]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is an integer (denominator 1).
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The sign of the value: `-1`, `0` or `1`.
    #[must_use]
    pub const fn signum(&self) -> i32 {
        if self.num > 0 {
            1
        } else if self.num < 0 {
            -1
        } else {
            0
        }
    }

    /// Absolute value.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::new(-3, 4).abs(), Rational::new(3, 4));
    /// ```
    #[must_use]
    pub fn abs(self) -> Self {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        // Fast paths that keep the `gcd(|num|, den) == 1` invariant without
        // running a gcd — this is the hottest operation of interval
        // propagation (one add per weight per neuron per box).
        if self.den == rhs.den {
            if self.den == 1 {
                // Integer + integer: trivially reduced.
                return Some(Rational {
                    num: self.num.checked_add(rhs.num)?,
                    den: 1,
                });
            }
            // Same denominator: one gcd (inside `new`) instead of two.
            return Some(Rational::new(self.num.checked_add(rhs.num)?, self.den));
        }
        if self.den == 1 {
            // a + b/d = (a·d + b)/d, and gcd(a·d + b, d) = gcd(b, d) = 1
            // because b/d is already reduced — no gcd needed at all.
            let num = self.num.checked_mul(rhs.den)?.checked_add(rhs.num)?;
            return Some(Rational { num, den: rhs.den });
        }
        if rhs.den == 1 {
            let num = rhs.num.checked_mul(self.den)?.checked_add(self.num)?;
            return Some(Rational { num, den: self.den });
        }
        // Knuth 4.5.1: reduce by gcd of denominators first to delay overflow.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rational::new(num, den))
    }

    /// Checked subtraction; `None` on overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.checked_add(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        // Fast paths preserving the reduced-form invariant without gcds.
        if self.num == 0 || rhs.num == 0 {
            return Some(Rational::ZERO);
        }
        if self.den == 1 && rhs.den == 1 {
            // Integer × integer: trivially reduced.
            return Some(Rational {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to keep intermediates small. When
        // a denominator is 1 its cross-gcd is skipped entirely (gcd(x, 1)
        // is 1 but still costs a binary-gcd loop).
        let g1 = if rhs.den == 1 {
            1
        } else {
            gcd(self.num.unsigned_abs() as i128, rhs.den)
        };
        let g2 = if self.den == 1 {
            1
        } else {
            gcd(rhs.num.unsigned_abs() as i128, self.den)
        };
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational { num, den })
    }

    /// Checked division; `None` on overflow or division by zero.
    #[must_use]
    pub fn checked_div(self, rhs: Self) -> Option<Self> {
        if rhs.num == 0 {
            return None;
        }
        self.checked_mul(Rational::new(rhs.den, rhs.num))
    }

    /// Converts to the nearest `f64`.
    ///
    /// The conversion may round; it is used only for reporting and plotting,
    /// never inside the decision procedure.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Rectified linear unit: `max(self, 0)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::new(-1, 2).relu(), Rational::ZERO);
    /// assert_eq!(Rational::new(1, 2).relu(), Rational::new(1, 2));
    /// ```
    #[must_use]
    pub fn relu(self) -> Self {
        self.max(Self::ZERO)
    }

    /// Raises to a non-negative integer power by repeated squaring.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::new(2, 3).pow(3), Rational::new(8, 27));
    /// assert_eq!(Rational::new(7, 2).pow(0), Rational::ONE);
    /// ```
    #[must_use]
    pub fn pow(self, mut exp: u32) -> Self {
        let mut base = self;
        let mut acc = Rational::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            exp >>= 1;
            if exp > 0 {
                base = base * base;
            }
        }
        acc
    }

    /// Truncates toward zero, returning the integer part.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// assert_eq!(Rational::new(7, 2).trunc(), 3);
    /// assert_eq!(Rational::new(-7, 2).trunc(), -3);
    /// ```
    #[must_use]
    pub const fn trunc(&self) -> i128 {
        self.num / self.den
    }

    /// Floor: the greatest integer ≤ the value.
    #[must_use]
    pub const fn floor(&self) -> i128 {
        let q = self.num / self.den;
        if self.num % self.den < 0 {
            q - 1
        } else {
            q
        }
    }

    /// Ceiling: the smallest integer ≥ the value.
    #[must_use]
    pub const fn ceil(&self) -> i128 {
        let q = self.num / self.den;
        if self.num % self.den > 0 {
            q + 1
        } else {
            q
        }
    }
}

fn gcd_u128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    if a == 0 {
        return b.max(1);
    }
    if b == 0 {
        return a.max(1);
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            break;
        }
    }
    (a << shift).max(1)
}

impl Default for Rational {
    fn default() -> Self {
        Self::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({}/{})", self.num, self.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). Reduce first to delay
        // overflow; fall back to a continued-fraction comparison (which
        // cannot overflow) when the cross products exceed i128.
        let g = gcd(self.den, other.den);
        match (
            self.num.checked_mul(other.den / g),
            other.num.checked_mul(self.den / g),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_continued_fraction(self.num, self.den, other.num, other.den),
        }
    }
}

/// Compares `a_num/a_den` with `b_num/b_den` (positive denominators) by
/// comparing continued-fraction expansions — no intermediate ever exceeds
/// the inputs, so the comparison is total on all of `Rational`.
fn cmp_continued_fraction(
    mut a_num: i128,
    mut a_den: i128,
    mut b_num: i128,
    mut b_den: i128,
) -> Ordering {
    loop {
        let qa = a_num.div_euclid(a_den);
        let qb = b_num.div_euclid(b_den);
        if qa != qb {
            return qa.cmp(&qb);
        }
        // rem_euclid, not `num - q·den`: the product can overflow i128 for
        // numerators near i128::MIN (denominators are positive, so
        // rem_euclid itself cannot overflow).
        let ra = a_num.rem_euclid(a_den); // both in [0, den)
        let rb = b_num.rem_euclid(b_den);
        match (ra == 0, rb == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less, // a == q < q + rb/bd == b
            (false, true) => return Ordering::Greater,
            (false, false) => {
                // Compare ra/ad vs rb/bd (both in (0,1)); equivalently
                // compare bd/rb vs ad/ra. Remainders strictly decrease, so
                // this terminates like the Euclidean algorithm.
                let (na, da, nb, db) = (b_den, rb, a_den, ra);
                a_num = na;
                a_den = da;
                b_num = nb;
                b_den = db;
            }
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self::Output {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self::Output {
        self.checked_sub(rhs)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self::Output {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Self) -> Self::Output {
        assert!(!rhs.is_zero(), "rational division by zero");
        self.checked_div(rhs).expect("rational division overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self::Output {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_integer(i128::from(n))
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_integer(i128::from(n))
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Rational::ZERO, |acc, x| acc + x)
    }
}

impl std::iter::Product for Rational {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Rational::ONE, |acc, x| acc * x)
    }
}

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    input: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal `{}`", self.input)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"`, `"a/b"`, or a decimal such as `"-1.25"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fannet_numeric::Rational;
    /// let r: Rational = "3/4".parse()?;
    /// assert_eq!(r, Rational::new(3, 4));
    /// let d: Rational = "-1.25".parse()?;
    /// assert_eq!(d, Rational::new(-5, 4));
    /// # Ok::<(), fannet_numeric::rational::ParseRationalError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRationalError {
            input: s.to_owned(),
        };
        let s = s.trim();
        if let Some((numer, denom)) = s.split_once('/') {
            let n: i128 = numer.trim().parse().map_err(|_| err())?;
            let d: i128 = denom.trim().parse().map_err(|_| err())?;
            if d == 0 {
                return Err(err());
            }
            return Ok(Rational::new(n, d));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let i: i128 = if int_part == "-" {
                0
            } else {
                int_part.parse().map_err(|_| err())?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let scale = 10i128
                .checked_pow(u32::try_from(frac_part.len()).map_err(|_| err())?)
                .ok_or_else(err)?;
            let f: i128 = frac_part.parse().map_err(|_| err())?;
            let magnitude = Rational::new(i.unsigned_abs() as i128, 1) + Rational::new(f, scale);
            return Ok(if negative || i < 0 {
                -magnitude
            } else {
                magnitude
            });
        }
        let n: i128 = s.parse().map_err(|_| err())?;
        Ok(Rational::from_integer(n))
    }
}

impl Serialize for Rational {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Serialize as "num/den" for readability and exactness.
        serializer.serialize_str(&format!("{}/{}", self.num, self.den))
    }
}

impl<'de> Deserialize<'de> for Rational {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic_identities() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(1 << 40, 1 << 20), 1 << 20);
    }

    #[test]
    fn new_normalizes_sign_and_reduces() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(1, -2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 7).numer(), 0);
        assert_eq!(Rational::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn new_rejects_zero_denominator() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_matches_hand_computation() {
        let a = Rational::new(3, 4);
        let b = Rational::new(5, 6);
        assert_eq!(a + b, Rational::new(19, 12));
        assert_eq!(a - b, Rational::new(-1, 12));
        assert_eq!(a * b, Rational::new(5, 8));
        assert_eq!(a / b, Rational::new(9, 10));
        assert_eq!(-a, Rational::new(-3, 4));
    }

    #[test]
    fn assign_operators() {
        let mut x = Rational::new(1, 2);
        x += Rational::new(1, 3);
        assert_eq!(x, Rational::new(5, 6));
        x -= Rational::new(1, 6);
        assert_eq!(x, Rational::new(2, 3));
        x *= Rational::new(3, 2);
        assert_eq!(x, Rational::ONE);
        x /= Rational::new(1, 4);
        assert_eq!(x, Rational::from_integer(4));
    }

    #[test]
    fn ordering_is_total_and_correct() {
        let vals = [
            Rational::new(-3, 2),
            Rational::new(-1, 3),
            Rational::ZERO,
            Rational::new(1, 100),
            Rational::new(1, 3),
            Rational::ONE,
            Rational::new(7, 2),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} should be < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn from_percent_is_hundredths() {
        assert_eq!(Rational::from_percent(11), Rational::new(11, 100));
        assert_eq!(Rational::from_percent(-40), Rational::new(-2, 5));
        assert_eq!(Rational::from_percent(0), Rational::ZERO);
    }

    #[test]
    fn from_f64_exact_dyadics() {
        assert_eq!(Rational::from_f64_exact(0.5), Some(Rational::new(1, 2)));
        assert_eq!(Rational::from_f64_exact(-0.75), Some(Rational::new(-3, 4)));
        assert_eq!(
            Rational::from_f64_exact(3.0),
            Some(Rational::from_integer(3))
        );
        assert_eq!(Rational::from_f64_exact(0.0), Some(Rational::ZERO));
        assert_eq!(Rational::from_f64_exact(f64::INFINITY), None);
        assert_eq!(Rational::from_f64_exact(f64::NAN), None);
    }

    #[test]
    fn from_f64_exact_rejects_values_beyond_i128() {
        let two_127 = 2f64.powi(127);
        for v in [
            two_127,
            -two_127,
            2f64.powi(128),
            3e38,
            -2.55e38,
            f64::MAX,
            -f64::MAX,
        ] {
            assert_eq!(Rational::from_f64_exact(v), None, "{v:e} exceeds i128");
        }
        // The largest doubles below 2^127 still convert exactly.
        let below = two_127.next_down();
        let r = Rational::from_f64_exact(below).expect("fits below 2^127");
        assert_eq!(r.numer(), i128::MAX - ((1i128 << 74) - 1));
        assert_eq!(r.to_f64(), below);
        assert_eq!(
            Rational::from_f64_exact(-2f64.powi(126)),
            Some(Rational::new(-(1i128 << 126), 1))
        );
    }

    #[test]
    fn from_f64_exact_roundtrips_to_f64() {
        for v in [0.1, -2.625, 1e-10, 12345.6789, -0.333333] {
            let r = Rational::from_f64_exact(v).expect("finite");
            assert_eq!(r.to_f64(), v, "exact conversion must round-trip for {v}");
        }
    }

    #[test]
    fn from_f64_approx_quantizes() {
        assert_eq!(Rational::from_f64_approx(0.333, 3), Rational::new(1, 3));
        assert_eq!(
            Rational::from_f64_approx(0.5004, 1000),
            Rational::new(500, 1000)
        );
        assert_eq!(Rational::from_f64_approx(-1.5, 2), Rational::new(-3, 2));
        // Half away from zero.
        assert_eq!(Rational::from_f64_approx(0.5, 1), Rational::ONE);
    }

    #[test]
    fn min_max_relu() {
        let a = Rational::new(-1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.relu(), Rational::ZERO);
        assert_eq!(b.relu(), b);
    }

    #[test]
    fn floor_ceil_trunc() {
        let x = Rational::new(7, 2);
        assert_eq!(x.floor(), 3);
        assert_eq!(x.ceil(), 4);
        assert_eq!(x.trunc(), 3);
        let y = Rational::new(-7, 2);
        assert_eq!(y.floor(), -4);
        assert_eq!(y.ceil(), -3);
        assert_eq!(y.trunc(), -3);
        let z = Rational::from_integer(5);
        assert_eq!(z.floor(), 5);
        assert_eq!(z.ceil(), 5);
    }

    #[test]
    fn pow_small_exponents() {
        assert_eq!(Rational::new(2, 3).pow(0), Rational::ONE);
        assert_eq!(Rational::new(2, 3).pow(1), Rational::new(2, 3));
        assert_eq!(Rational::new(2, 3).pow(4), Rational::new(16, 81));
        assert_eq!(Rational::new(-1, 2).pow(3), Rational::new(-1, 8));
    }

    #[test]
    fn recip_and_signum() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
        assert_eq!(Rational::new(-3, 4).signum(), -1);
        assert_eq!(Rational::ZERO.signum(), 0);
        assert_eq!(Rational::ONE.signum(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), Rational::new(3, 4));
        assert_eq!("-6/8".parse::<Rational>().unwrap(), Rational::new(-3, 4));
        assert_eq!(
            "42".parse::<Rational>().unwrap(),
            Rational::from_integer(42)
        );
        assert_eq!("-1.25".parse::<Rational>().unwrap(), Rational::new(-5, 4));
        assert_eq!("0.04".parse::<Rational>().unwrap(), Rational::new(1, 25));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_integer(-7).to_string(), "-7");
        assert_eq!(format!("{:?}", Rational::new(1, 2)), "Rational(1/2)");
        assert!(!format!("{:?}", Rational::ZERO).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let r = Rational::new(-355, 113);
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(json, "\"-355/113\"");
        let back: Rational = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn sum_and_product() {
        let vals = [
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(1, 6),
        ];
        assert_eq!(vals.iter().copied().sum::<Rational>(), Rational::ONE);
        assert_eq!(
            vals.iter().copied().product::<Rational>(),
            Rational::new(1, 36)
        );
    }

    /// The reduced-form invariant `gcd(|num|, den) == 1`, `den > 0`.
    fn assert_reduced(r: Rational) {
        assert!(r.denom() > 0, "{r:?} has non-positive denominator");
        if r.is_zero() {
            assert_eq!(r.denom(), 1, "{r:?}: zero must be 0/1");
        } else {
            assert_eq!(
                gcd(r.numer().unsigned_abs() as i128, r.denom()),
                1,
                "{r:?} is not in lowest terms"
            );
        }
    }

    #[test]
    fn fast_path_add_keeps_invariant() {
        // Every branch of checked_add: equal integer dens, equal non-1
        // dens (with and without reduction), one integer operand on each
        // side, and the general path.
        let cases = [
            (Rational::from_integer(3), Rational::from_integer(-7)),
            (Rational::new(1, 4), Rational::new(1, 4)), // 2/4 → 1/2
            (Rational::new(1, 4), Rational::new(3, 4)), // 4/4 → 1
            (Rational::new(-1, 6), Rational::new(1, 6)), // 0
            (Rational::from_integer(2), Rational::new(3, 5)),
            (Rational::new(3, 5), Rational::from_integer(2)),
            (Rational::from_integer(-2), Rational::new(-3, 5)),
            (Rational::new(1, 6), Rational::new(1, 10)), // general path
        ];
        for (a, b) in cases {
            let sum = a.checked_add(b).expect("no overflow");
            assert_reduced(sum);
            // Cross-check against the naive formula evaluated via `new`.
            let naive = Rational::new(
                a.numer() * b.denom() + b.numer() * a.denom(),
                a.denom() * b.denom(),
            );
            assert_eq!(sum, naive, "fast path must agree for {a} + {b}");
        }
    }

    #[test]
    fn fast_path_mul_keeps_invariant() {
        let cases = [
            (Rational::from_integer(6), Rational::from_integer(-4)),
            (Rational::ZERO, Rational::new(3, 7)),
            (Rational::new(3, 7), Rational::ZERO),
            (Rational::from_integer(14), Rational::new(3, 7)), // cross-reduce
            (Rational::new(3, 7), Rational::from_integer(14)),
            (Rational::new(2, 9), Rational::new(3, 4)), // general path
        ];
        for (a, b) in cases {
            let prod = a.checked_mul(b).expect("no overflow");
            assert_reduced(prod);
            let naive = Rational::new(a.numer() * b.numer(), a.denom() * b.denom());
            assert_eq!(prod, naive, "fast path must agree for {a} * {b}");
        }
    }

    #[test]
    fn cmp_survives_cross_product_overflow() {
        // Dyadic with a 2^100 denominator vs a small fraction: the naive
        // cross-multiplication overflows i128; the continued-fraction slow
        // path must still order them correctly.
        let tiny = Rational::new(1, 1i128 << 100);
        let small = Rational::new(1, 1_000_000);
        assert!(tiny < small);
        assert!(small > tiny);
        assert!(-tiny > -small);
        let close_a = Rational::new((1i128 << 100) + 1, 1i128 << 100);
        let close_b = Rational::new(1_000_001, 1_000_000);
        assert!(close_a < close_b);
        assert_eq!(close_a.cmp(&close_a), std::cmp::Ordering::Equal);
        // Mixed-sign never reaches the slow path's subtleties.
        assert!(Rational::new(-1, 1i128 << 100) < Rational::new(1, 1i128 << 100));
        // Numerators near i128::MIN with equal quotients: the remainder
        // must come from rem_euclid, or `num - q·den` overflows. With
        // q = ⌊(MIN+1)/5⌋, a = q + 3/5 (MIN+1 ≡ 3 mod 5) and b = q + 1/4,
        // so a > b — too close for f64 to distinguish, hence the exact
        // slow path is the only way to order them.
        let q = (i128::MIN + 1).div_euclid(5);
        let a = Rational::new(i128::MIN + 1, 5);
        let b = Rational::new(4 * q + 1, 4);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Greater);
        assert_eq!(b.cmp(&a), std::cmp::Ordering::Less);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let huge = Rational::new(i128::MAX / 2, 1);
        assert!(huge.checked_mul(huge).is_none());
        assert!(huge.checked_add(huge).is_some()); // i128::MAX/2 * 2 still fits
        let max = Rational::new(i128::MAX, 1);
        assert!(max.checked_add(Rational::ONE).is_none());
    }

    #[test]
    fn noise_application_is_exact() {
        // x' = x * (100 + p) / 100 — the paper's relative noise model.
        let x = Rational::from_integer(1234);
        let p = -11i64;
        let noisy = x * (Rational::ONE + Rational::from_percent(p));
        assert_eq!(noisy, Rational::new(1234 * 89, 100));
    }
}
