//! Outward-rounded `f64` interval arithmetic — the cheapest screening tier
//! of the tiered verifier (DESIGN.md §6; the zonotope tier of §10 builds
//! on the same outward-rounding discipline in [`crate::affine`]).
//!
//! A [`FloatInterval`] `[lo, hi]` is a **conservative enclosure**: every
//! transformer here widens its result outward by at least one ulp in each
//! direction, so for any exact-rational computation enclosed by the inputs,
//! the exact result is enclosed by the output. IEEE-754
//! round-to-nearest guarantees the computed double of `a ∘ b` differs from
//! the real value by strictly less than one ulp, hence stepping one ulp
//! outward ([`f64::next_down`]/[`f64::next_up`]) restores a true bound.
//!
//! This makes float-interval verdicts in `fannet-verify` *sound proofs*,
//! not heuristics: the float enclosure over-approximates the exact
//! [`Interval`](crate::Interval) semantics, so "always correct" /
//! "always wrong" classifications derived from it transfer to the exact
//! network. Only `Unknown` falls back to exact rational propagation.
//!
//! Endpoints may be infinite after overflow (still sound: the enclosure
//! only widens). NaN never escapes: constructors reject it, and every
//! transformer that could produce one from infinite endpoints (`∞ − ∞`,
//! `0 · ∞`, or a poisoned operand) degrades to
//! [`FloatInterval::EVERYTHING`] instead — the conservative top element —
//! so a NaN-bounded interval can never reach `classify_box_float`, where
//! NaN comparisons (always false) would silently read as a decided box.

use crate::affine::enclose_rational;
use crate::rational::Rational;

/// A closed `f64` interval `[lo, hi]` used as an outward-rounded enclosure
/// of exact rational quantities.
///
/// # Examples
///
/// ```
/// use fannet_numeric::{FloatInterval, Rational};
///
/// let x = FloatInterval::from_rational_point(Rational::new(1, 3));
/// assert!(x.lo() <= 1.0 / 3.0 && 1.0 / 3.0 <= x.hi());
/// assert!(x.contains_rational(Rational::new(1, 3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatInterval {
    lo: f64,
    hi: f64,
}

/// Steps `lo` down and `hi` up by one ulp each, recovering sound bounds
/// from round-to-nearest results.
#[inline]
fn widen(lo: f64, hi: f64) -> FloatInterval {
    // `next_down(-inf)` and `next_up(inf)` are identities, so overflowing
    // endpoints stay infinite (sound). A NaN endpoint (∞−∞ from operands
    // that themselves overflowed, or a poisoned input) means the bound is
    // unknowable — degrade to the whole line rather than let a NaN whose
    // comparisons are all false masquerade as a decided interval.
    if lo.is_nan() || hi.is_nan() {
        return FloatInterval::EVERYTHING;
    }
    FloatInterval {
        lo: lo.next_down(),
        hi: hi.next_up(),
    }
}

impl FloatInterval {
    /// The degenerate interval `[0, 0]` (exact — zero is representable).
    pub const ZERO: FloatInterval = FloatInterval { lo: 0.0, hi: 0.0 };

    /// The whole line `[-∞, +∞]`, the top element (always sound).
    pub const EVERYTHING: FloatInterval = FloatInterval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates `[lo, hi]` from already-sound endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is NaN.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        FloatInterval { lo, hi }
    }

    /// The tightest float enclosure of the exact rational `v`.
    ///
    /// `Rational::to_f64` chains three roundings (numerator, denominator,
    /// quotient), so its result can be several ulps off for values whose
    /// components exceed 2⁵³; [`enclose_rational`] bounds the compound
    /// error, and exactly-convertible values get a **point** interval.
    #[must_use]
    pub fn from_rational_point(v: Rational) -> Self {
        let (c, slack) = enclose_rational(v);
        Self::from_center_slack(c, slack)
    }

    /// The float enclosure of a rational that [`enclose_rational`] put at
    /// `c ± slack`: the point `c` when the conversion was exact.
    #[must_use]
    pub fn from_center_slack(c: f64, slack: f64) -> Self {
        if slack == 0.0 {
            FloatInterval { lo: c, hi: c }
        } else {
            // `c ± slack` each round once more; one ulp outward restores
            // true bounds.
            widen(c - slack, c + slack)
        }
    }

    /// The float enclosure of the exact rational interval `[lo, hi]`.
    #[must_use]
    pub fn from_rationals(lo: Rational, hi: Rational) -> Self {
        debug_assert!(lo <= hi);
        let lo = Self::from_rational_point(lo);
        let hi = Self::from_rational_point(hi);
        FloatInterval {
            lo: lo.lo,
            hi: hi.hi,
        }
    }

    /// The lower endpoint (a true lower bound of every enclosed quantity).
    #[must_use]
    pub const fn lo(&self) -> f64 {
        self.lo
    }

    /// The upper endpoint (a true upper bound of every enclosed quantity).
    #[must_use]
    pub const fn hi(&self) -> f64 {
        self.hi
    }

    /// `true` if the exact rational `v` *provably* lies within the closed
    /// interval.
    ///
    /// Endpoints whose exact dyadic expansion fits `Rational` are compared
    /// exactly. A finite endpoint outside that range (subnormal-scale or
    /// beyond `i128`) is checked by a *sufficient* `f64` condition
    /// instead: `v.to_f64()` is within `n` neighbour gaps of `v` — one
    /// gap when numerator and denominator fit `f64` exactly (only the
    /// division rounds), four otherwise (three compounded roundings, see
    /// [`enclose_rational`]) — so `lo ≤ step_downⁿ(v_f)` implies `lo ≤ v`
    /// (and dually for `hi`). The function can under-report containment
    /// by a few ulp at such endpoints but never over-reports — it is the
    /// soundness oracle of the enclosure tests, so "unverifiable" must
    /// never read as "contained".
    #[must_use]
    pub fn contains_rational(&self, v: Rational) -> bool {
        fn step_down(mut v: f64, n: u32) -> f64 {
            for _ in 0..n {
                v = v.next_down();
            }
            v
        }
        fn step_up(mut v: f64, n: u32) -> f64 {
            for _ in 0..n {
                v = v.next_up();
            }
            v
        }
        const EXACT: i128 = 1 << 53;
        let steps = if v.numer().unsigned_abs() <= EXACT as u128 && v.denom() <= EXACT {
            1
        } else {
            4
        };
        let lo_ok = self.lo == f64::NEG_INFINITY
            || match Rational::from_f64_exact(self.lo) {
                Some(lo) => lo <= v,
                None => self.lo <= step_down(v.to_f64(), steps),
            };
        let hi_ok = self.hi == f64::INFINITY
            || match Rational::from_f64_exact(self.hi) {
                Some(hi) => v <= hi,
                None => step_up(v.to_f64(), steps) <= self.hi,
            };
        lo_ok && hi_ok
    }

    /// `true` if `other` lies entirely within `self`.
    #[must_use]
    pub fn contains_interval(&self, other: &FloatInterval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Outward-rounded addition.
    #[inline]
    #[must_use]
    pub fn add(&self, rhs: &FloatInterval) -> Self {
        widen(self.lo + rhs.lo, self.hi + rhs.hi)
    }

    /// Outward-rounded subtraction.
    #[must_use]
    pub fn sub(&self, rhs: &FloatInterval) -> Self {
        widen(self.lo - rhs.hi, self.hi - rhs.lo)
    }

    /// Negation (exact: IEEE negation has no rounding).
    #[must_use]
    pub fn neg(&self) -> Self {
        if self.lo.is_nan() || self.hi.is_nan() {
            return FloatInterval::EVERYTHING;
        }
        FloatInterval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Outward-rounded general interval multiplication — alias of
    /// [`FloatInterval::mul_interval`].
    #[inline]
    #[must_use]
    pub fn mul(&self, rhs: &FloatInterval) -> Self {
        self.mul_interval(rhs)
    }

    /// Outward-rounded general interval multiplication, the `f64`
    /// analogue of [`Interval::mul_interval`](crate::Interval::mul_interval).
    ///
    /// Rounding audit (mirroring the exact tier's semantics): each of the
    /// four endpoint products is a **single** round-to-nearest operation,
    /// so its computed value differs from the real product by strictly
    /// less than one ulp; `min`/`max` selection over finite doubles is
    /// exact; the result then steps one ulp outward on each side —
    /// the same per-operation discipline `AffineForm` applies through
    /// [`crate::affine::ulp_gap`]. Hence for any exact rationals enclosed
    /// by the operands, the exact product interval is enclosed by the
    /// result.
    ///
    /// Poisoned or overflowed operands degrade: `0 · ±∞` would produce a
    /// NaN whose comparisons are all false (a `min`/`max` chain over NaN
    /// products could silently select a garbage endpoint), so any
    /// non-finite endpoint — infinite after overflow, or NaN poison —
    /// returns [`FloatInterval::EVERYTHING`], the always-sound top.
    ///
    /// When either factor is a point (every weight of a network with
    /// dyadic parameters, every exactly converted input) the result is
    /// computed from two endpoint products instead of four; its bits are
    /// those of the four-product form (see `mul_point`).
    #[inline]
    #[must_use]
    pub fn mul_interval(&self, rhs: &FloatInterval) -> Self {
        if !(self.lo.is_finite() && self.hi.is_finite() && rhs.lo.is_finite() && rhs.hi.is_finite())
        {
            return FloatInterval::EVERYTHING;
        }
        if rhs.lo == rhs.hi {
            return self.mul_point(rhs.lo);
        }
        if self.lo == self.hi {
            return rhs.mul_point(self.lo);
        }
        let p1 = self.lo * rhs.lo;
        let p2 = self.lo * rhs.hi;
        let p3 = self.hi * rhs.lo;
        let p4 = self.hi * rhs.hi;
        widen(p1.min(p2).min(p3).min(p4), p1.max(p2).max(p3).max(p4))
    }

    /// `self · [w, w]` for finite endpoints and a finite `w`: the two
    /// endpoint products, ordered by the sign of `w`.
    ///
    /// Bit-identical to the four-product form: with `lo ≤ hi`,
    /// round-to-nearest is monotone, so `lo·w ≤ hi·w` for `w ≥ 0` and
    /// `hi·w ≤ lo·w` for `w < 0`, which is the order the `min`/`max`
    /// chain selects. The chain can only pick a different *bit pattern*
    /// between products of equal value, i.e. between `+0` and `−0`, and
    /// `widen` steps both to the same `∓5e-324`.
    #[inline]
    fn mul_point(&self, w: f64) -> Self {
        let (lo, hi) = (self.lo * w, self.hi * w);
        if w < 0.0 {
            widen(hi, lo)
        } else {
            widen(lo, hi)
        }
    }

    /// Outward-rounded ReLU: `[max(lo,0), max(hi,0)]` (the max itself is
    /// exact; no extra widening needed).
    ///
    /// A poisoned (NaN) endpoint degrades to [`FloatInterval::EVERYTHING`]
    /// first: `f64::max` *ignores* NaN operands, so `NaN.max(0.0)` would
    /// otherwise yield the decided-looking point `[0, 0]` from an interval
    /// that actually bounds nothing.
    #[inline]
    #[must_use]
    pub fn relu(&self) -> Self {
        if self.lo.is_nan() || self.hi.is_nan() {
            return FloatInterval::EVERYTHING;
        }
        FloatInterval {
            lo: self.lo.max(0.0),
            hi: self.hi.max(0.0),
        }
    }

    /// Pointwise interval max (exact; NaN endpoints degrade to
    /// [`FloatInterval::EVERYTHING`] for the same reason as [`Self::relu`]).
    #[must_use]
    pub fn max_interval(&self, other: &FloatInterval) -> Self {
        if self.lo.is_nan() || self.hi.is_nan() || other.lo.is_nan() || other.hi.is_nan() {
            return FloatInterval::EVERYTHING;
        }
        FloatInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The width `hi - lo` (∞ if either endpoint is infinite).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl From<Rational> for FloatInterval {
    fn from(v: Rational) -> Self {
        FloatInterval::from_rational_point(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// The float enclosure of an exact interval must contain it.
    fn encloses(fi: &FloatInterval, exact: &Interval) -> bool {
        fi.contains_rational(exact.lo()) && fi.contains_rational(exact.hi())
    }

    #[test]
    fn point_enclosure_brackets_value() {
        for (n, d) in [(1, 3), (-7, 11), (22, 7), (1, 1_000_000), (-355, 113)] {
            let v = r(n, d);
            let fi = FloatInterval::from_rational_point(v);
            assert!(fi.contains_rational(v), "{fi:?} must contain {v}");
            assert!(fi.lo() < fi.hi(), "outward rounding must widen");
        }
    }

    #[test]
    fn exactly_representable_points_stay_tight() {
        let fi = FloatInterval::from_rational_point(r(1, 2));
        assert_eq!(
            (fi.lo(), fi.hi()),
            (0.5, 0.5),
            "half converts exactly, so the enclosure is a point"
        );
    }

    #[test]
    fn huge_component_rationals_stay_enclosed() {
        // Numerator and denominator both exceed 2^53: `to_f64` compounds
        // three roundings, which a single-ulp widen would not cover.
        let v = Rational::new(i128::MAX / 3, i128::MAX / 7 - 1); // ≈ 7/3
        let fi = FloatInterval::from_rational_point(v);
        assert!(fi.contains_rational(v), "{fi:?} must contain {v}");
        assert!(fi.lo() < fi.hi());
    }

    #[test]
    fn poisoned_endpoints_degrade_to_everything() {
        // NaN endpoints are unreachable through constructors, but release
        // builds must still never let one masquerade as a decided
        // interval; construct the poison directly (in-module access).
        let poisoned = FloatInterval {
            lo: f64::NAN,
            hi: f64::NAN,
        };
        assert_eq!(poisoned.relu(), FloatInterval::EVERYTHING);
        assert_eq!(poisoned.neg(), FloatInterval::EVERYTHING);
        assert_eq!(
            poisoned.max_interval(&FloatInterval::ZERO),
            FloatInterval::EVERYTHING
        );
        assert_eq!(
            FloatInterval::ZERO.max_interval(&poisoned),
            FloatInterval::EVERYTHING
        );
        assert_eq!(
            poisoned.mul(&FloatInterval::ZERO),
            FloatInterval::EVERYTHING,
            "NaN endpoints are non-finite, so mul degrades"
        );
        assert_eq!(
            poisoned.add(&FloatInterval::ZERO),
            FloatInterval::EVERYTHING
        );
        // A NaN interval contains nothing it can prove.
        assert!(!poisoned.contains_rational(r(0, 1)));
    }

    #[test]
    fn infinite_endpoint_arithmetic_never_yields_nan() {
        // [+∞, +∞] is constructible (overflowed bounds are legal); the
        // ∞ − ∞ and ∞ + (−∞) patterns must degrade, not poison.
        let pos = FloatInterval::new(f64::INFINITY, f64::INFINITY);
        assert_eq!(pos.sub(&pos), FloatInterval::EVERYTHING);
        assert_eq!(
            pos.add(&FloatInterval::EVERYTHING),
            FloatInterval::EVERYTHING
        );
        assert_eq!(
            FloatInterval::EVERYTHING.sub(&FloatInterval::EVERYTHING),
            FloatInterval::EVERYTHING
        );
        // ReLU of an overflowed-but-real interval keeps the sound bound.
        let relu = pos.relu();
        assert_eq!(relu.hi(), f64::INFINITY);
    }

    #[test]
    fn add_sub_enclose_exact() {
        let a_exact = Interval::new(r(1, 3), r(2, 3));
        let b_exact = Interval::new(r(-1, 7), r(5, 7));
        let a = FloatInterval::from_rationals(a_exact.lo(), a_exact.hi());
        let b = FloatInterval::from_rationals(b_exact.lo(), b_exact.hi());
        assert!(encloses(&a.add(&b), &(a_exact + b_exact)));
        assert!(encloses(&a.sub(&b), &(a_exact - b_exact)));
        assert!(encloses(&a.neg(), &(-a_exact)));
    }

    #[test]
    fn mul_encloses_exact() {
        let cases = [
            (
                Interval::new(r(1, 3), r(2, 3)),
                Interval::new(r(3, 7), r(9, 7)),
            ),
            (
                Interval::new(r(-5, 3), r(-1, 3)),
                Interval::new(r(1, 9), r(2, 9)),
            ),
            (
                Interval::new(r(-1, 3), r(1, 3)),
                Interval::new(r(-2, 7), r(3, 7)),
            ),
        ];
        for (ae, be) in cases {
            let a = FloatInterval::from_rationals(ae.lo(), ae.hi());
            let b = FloatInterval::from_rationals(be.lo(), be.hi());
            let prod = a.mul(&b);
            let exact = ae.mul_interval(&be);
            assert!(encloses(&prod, &exact), "{prod:?} must enclose {exact:?}");
        }
    }

    #[test]
    fn mul_interval_encloses_exact_general_products() {
        // The same cross-sign matrix the exact tier's mul_interval covers:
        // positive × positive, negative × positive, straddling × straddling.
        let cases = [
            (
                Interval::new(r(1, 3), r(2, 3)),
                Interval::new(r(3, 7), r(9, 7)),
            ),
            (
                Interval::new(r(-5, 3), r(-1, 3)),
                Interval::new(r(-2, 9), r(7, 9)),
            ),
            (
                Interval::new(r(-1, 3), r(1, 3)),
                Interval::new(r(-2, 7), r(3, 7)),
            ),
            (
                Interval::new(r(-11, 13), r(-5, 13)),
                Interval::new(r(-17, 19), r(-1, 19)),
            ),
        ];
        for (ae, be) in cases {
            let a = FloatInterval::from_rationals(ae.lo(), ae.hi());
            let b = FloatInterval::from_rationals(be.lo(), be.hi());
            let prod = a.mul_interval(&b);
            let exact = ae.mul_interval(&be);
            assert!(encloses(&prod, &exact), "{prod:?} must enclose {exact:?}");
            assert_eq!(prod, a.mul(&b), "mul is an alias of mul_interval");
        }
    }

    #[test]
    fn mul_interval_poisoned_and_infinite_endpoints_degrade() {
        // NaN poison (unreachable via constructors; in-module access) must
        // never survive the min/max chain as a decided-looking interval.
        let poisoned = FloatInterval {
            lo: f64::NAN,
            hi: f64::NAN,
        };
        assert_eq!(
            poisoned.mul_interval(&FloatInterval::new(1.0, 2.0)),
            FloatInterval::EVERYTHING
        );
        assert_eq!(
            FloatInterval::new(1.0, 2.0).mul_interval(&poisoned),
            FloatInterval::EVERYTHING
        );
        // 0 · ±∞ is the classic NaN factory; it must degrade instead.
        assert_eq!(
            FloatInterval::ZERO.mul_interval(&FloatInterval::EVERYTHING),
            FloatInterval::EVERYTHING
        );
        assert_eq!(
            FloatInterval::EVERYTHING.mul_interval(&FloatInterval::ZERO),
            FloatInterval::EVERYTHING
        );
        // One overflowed (infinite) endpoint also degrades — the enclosure
        // only ever widens, which stays sound.
        let overflowed = FloatInterval::new(f64::MAX, f64::INFINITY);
        assert_eq!(
            overflowed.mul_interval(&FloatInterval::new(-1.0, 1.0)),
            FloatInterval::EVERYTHING
        );
        // Finite-but-huge products that overflow during multiplication
        // keep infinite bounds without ever producing NaN.
        let huge = FloatInterval::new(f64::MAX / 2.0, f64::MAX);
        let prod = huge.mul_interval(&huge);
        assert!(!prod.lo().is_nan() && !prod.hi().is_nan());
        assert_eq!(prod.hi(), f64::INFINITY);
    }

    /// The four-product form with `std` steps, the reference the
    /// point-factor case must match bit for bit.
    fn four_product(a: &FloatInterval, b: &FloatInterval) -> FloatInterval {
        if !(a.lo.is_finite() && a.hi.is_finite() && b.lo.is_finite() && b.hi.is_finite()) {
            return FloatInterval::EVERYTHING;
        }
        let p1 = a.lo * b.lo;
        let p2 = a.lo * b.hi;
        let p3 = a.hi * b.lo;
        let p4 = a.hi * b.hi;
        let (lo, hi) = (p1.min(p2).min(p3).min(p4), p1.max(p2).max(p3).max(p4));
        FloatInterval {
            lo: lo.next_down(),
            hi: hi.next_up(),
        }
    }

    fn bits(iv: FloatInterval) -> (u64, u64) {
        (iv.lo.to_bits(), iv.hi.to_bits())
    }

    #[test]
    fn point_factor_matches_four_products_bit_for_bit() {
        let tiny = f64::from_bits(1);
        let factors = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 / 3.0,
            -3.0 / 7.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
        ];
        let intervals = [
            (-0.0, 0.0),
            (0.0, 0.0),
            (-0.0, -0.0),
            (-1.0, 2.0),
            (1.0, 2.0),
            (-3.0, -1.0),
            (tiny, 1.0),
            (-1.0, -tiny),
            (1e-300, 1e300),
            (1e300, 1e308),
            (f64::MIN, f64::MAX),
            (2.5, 2.5),
        ];
        for &w in &factors {
            let point = FloatInterval { lo: w, hi: w };
            for &(lo, hi) in &intervals {
                let a = FloatInterval { lo, hi };
                let expected = bits(four_product(&a, &point));
                assert_eq!(bits(a.mul_interval(&point)), expected, "{a:?} · {w:e}");
                assert_eq!(bits(point.mul_interval(&a)), expected, "{w:e} · {a:?}");
            }
        }
        // ±0 factors give ±0 products, which widen to the same ∓5e-324.
        let a = FloatInterval::new(-1.0, 2.0);
        for w in [0.0, -0.0] {
            assert_eq!(
                bits(a.mul(&FloatInterval::new(w, w))),
                ((-tiny).to_bits(), tiny.to_bits()),
                "{w:?}"
            );
        }
        // A negative factor swaps which endpoint product bounds which side.
        let prod = FloatInterval::new(1.0, 2.0).mul(&FloatInterval::new(-3.0, -3.0));
        assert_eq!(
            (prod.lo, prod.hi),
            ((-6.0f64).next_down(), (-3.0f64).next_up())
        );
        // Overflowing products keep their infinite bound, not EVERYTHING.
        let big = FloatInterval::new(1e290, 1e308);
        let up = big.mul(&FloatInterval::new(1e10, 1e10));
        assert_eq!(
            (up.lo, up.hi),
            ((1e290 * 1e10f64).next_down(), f64::INFINITY)
        );
        let down = big.mul(&FloatInterval::new(-1e10, -1e10));
        assert_eq!(
            (down.lo, down.hi),
            (f64::NEG_INFINITY, (1e290 * -1e10f64).next_up())
        );
        // A non-finite operand still degrades before the point case.
        assert_eq!(
            FloatInterval::EVERYTHING.mul(&FloatInterval::new(2.0, 2.0)),
            FloatInterval::EVERYTHING
        );
    }

    #[test]
    fn relu_and_max_enclose_exact() {
        let e = Interval::new(r(-5, 3), r(7, 3));
        let f = FloatInterval::from_rationals(e.lo(), e.hi());
        assert!(encloses(&f.relu(), &e.relu()));
        let e2 = Interval::new(r(-1, 9), r(11, 9));
        let f2 = FloatInterval::from_rationals(e2.lo(), e2.hi());
        assert!(encloses(&f.max_interval(&f2), &e.max_interval(&e2)));
    }

    #[test]
    fn overflow_degrades_to_everything() {
        let huge = FloatInterval::new(f64::MAX / 2.0, f64::MAX);
        let sum = huge.add(&huge);
        assert_eq!(sum.hi(), f64::INFINITY);
        let prod = FloatInterval::EVERYTHING.mul(&FloatInterval::ZERO);
        assert_eq!(prod, FloatInterval::EVERYTHING, "no NaN from 0 · ∞");
    }

    #[test]
    fn contains_rational_is_conservative_on_unrepresentable_endpoints() {
        // 1e-40's exact dyadic expansion needs a denominator ≈ 2^133,
        // beyond i128: the bound cannot be verified, so nothing may be
        // reported as contained — least of all a value far outside.
        let tiny = FloatInterval::new(1e-40, 2e-40);
        assert!(!tiny.contains_rational(r(-1, 1)));
        assert!(!tiny.contains_rational(r(1, 1)));
        // Infinite endpoints still pass unconditionally (always sound).
        assert!(FloatInterval::EVERYTHING.contains_rational(r(-1, 1)));
        // Finite endpoints beyond i128 cannot be converted exactly and must
        // fall back to the f64 condition, which keeps zero outside.
        for lo in [3e38, 2f64.powi(127), 2f64.powi(128)] {
            let above = FloatInterval::new(lo, f64::INFINITY);
            assert!(!above.contains_rational(r(0, 1)), "[{lo:e}, ∞] excludes 0");
            let below = FloatInterval::new(f64::NEG_INFINITY, -lo);
            assert!(
                !below.contains_rational(r(0, 1)),
                "[-∞, -{lo:e}] excludes 0"
            );
        }
        assert!(FloatInterval::new(-3e38, 3e38).contains_rational(r(0, 1)));
    }

    #[test]
    fn contains_interval_ordering() {
        let outer = FloatInterval::new(-2.0, 2.0);
        let inner = FloatInterval::new(-1.0, 1.0);
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(FloatInterval::EVERYTHING.contains_interval(&outer));
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_panic() {
        let _ = FloatInterval::new(1.0, 0.0);
    }

    #[test]
    fn from_rational_conversion_trait() {
        let fi: FloatInterval = r(4, 9).into();
        assert!(fi.contains_rational(r(4, 9)));
    }
}
