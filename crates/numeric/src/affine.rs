//! Outward-rounded `f64` affine forms — the zonotope abstract domain's
//! numeric substrate (DESIGN.md §10).
//!
//! An [`AffineForm`] represents the set of reals
//!
//! ```text
//! γ(f) = { center + Σᵢ coeffsᵢ·εᵢ + err·e  :  εᵢ ∈ [-1,1], e ∈ [-1,1] }
//! ```
//!
//! where the *noise symbols* `εᵢ` are **shared** between forms (symbol `i`
//! means the same unknown everywhere) and `e` is an anonymous per-form
//! error symbol. Sharing is the whole point: `x − x` cancels its
//! coefficients exactly and concretizes to a tiny interval around zero,
//! where plain interval arithmetic would return `[lo−hi, hi−lo]`. The
//! verifier exploits this by classifying noise boxes on *pairwise output
//! differences*, whose input correlations cancel zonotope-side.
//!
//! # Soundness contract
//!
//! Every transformer maintains the invariant that makes zonotope verdicts
//! proofs: if each operand `fⱼ` *encloses* an exact real `vⱼ` — meaning
//! there is one shared valuation `ε` and per-form `eⱼ` with
//! `vⱼ = fⱼ(ε, eⱼ)` — then the result encloses the exact result of the
//! same operation **under the same shared `ε`**. Floating-point rounding
//! is absorbed into `err`: after every rounded operation the result's
//! [`ulp_gap`] (an upper bound on a single round-to-nearest error) is
//! added to `err`, and all `err` arithmetic itself rounds upward
//! ([`f64::next_up`]). Overflow or NaN poisoning degrades conservatively:
//! [`AffineForm::range`] returns `(-∞, +∞)` whenever any component is
//! non-finite, so a poisoned form can never certify anything.

use crate::rational::Rational;

/// The largest distance from `v` to an adjacent `f64` — a sound bound on
/// the error of any single round-to-nearest operation that produced `v`
/// (the true result lies within half the gap on the side it rounded
/// from, hence within one full neighbour gap either way).
///
/// Infinite `v` (overflow) and NaN both yield `+∞`, which poisons any
/// error term they feed — the conservative outcome.
#[must_use]
pub fn ulp_gap(v: f64) -> f64 {
    if v.is_nan() {
        return f64::INFINITY;
    }
    // For ±∞ one of the differences is NaN; `f64::max` ignores NaN
    // operands, and the other difference is +∞.
    (v.next_up() - v).max(v - v.next_down())
}

/// Upward-rounded addition of non-negative error magnitudes.
#[inline]
fn add_up(a: f64, b: f64) -> f64 {
    (a + b).next_up()
}

/// Upward-rounded multiplication of non-negative error magnitudes,
/// guarding the `0 · ∞` NaN case (zero slack times an infinite magnitude
/// is zero slack).
#[inline]
fn mul_up(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        (a * b).next_up()
    }
}

/// The tightest `(center, slack)` enclosure of an exact rational:
/// `|v − center| ≤ slack`, with `slack = 0` iff the conversion is exact.
///
/// [`Rational::to_f64`] chains **three** roundings (numerator → `f64`,
/// denominator → `f64`, then the division), each with relative error at
/// most `u = 2⁻⁵³`, so the compound relative error is below `3.01·u` —
/// strictly less than four neighbour gaps of the result. When the result
/// round-trips exactly ([`Rational::from_f64_exact`]) the slack is zero.
#[must_use]
pub fn enclose_rational(v: Rational) -> (f64, f64) {
    let f = v.to_f64();
    if Rational::from_f64_exact(f) == Some(v) {
        (f, 0.0)
    } else {
        (f, mul_up(4.0, ulp_gap(f)))
    }
}

/// An outward-rounded affine form over shared noise symbols `εᵢ ∈ [-1,1]`
/// plus an anonymous error term `err·[-1,1]`.
///
/// # Examples
///
/// ```
/// use fannet_numeric::AffineForm;
///
/// // x = 3 + 2ε₀: the symbol is shared, so x − x is (almost) exactly 0.
/// let x = AffineForm::with_symbol(3.0, 0, 2.0);
/// let d = x.sub(&x);
/// let (lo, hi) = d.range();
/// assert!(lo <= 0.0 && 0.0 <= hi);
/// assert!(hi - lo < 1e-12, "correlation must cancel: [{lo}, {hi}]");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AffineForm {
    /// The midpoint.
    center: f64,
    /// `coeffs[i]` multiplies the shared noise symbol `εᵢ`; trailing
    /// symbols a form does not mention are implicitly zero.
    coeffs: Vec<f64>,
    /// Magnitude of the anonymous error term (accumulated rounding,
    /// conversion slack and relaxation residue); always `≥ 0` or NaN
    /// (poisoned, treated as `+∞` by [`AffineForm::range`]).
    err: f64,
}

impl AffineForm {
    /// The exact constant `c` (no symbols, no error).
    #[must_use]
    pub fn constant(c: f64) -> Self {
        AffineForm {
            center: c,
            coeffs: Vec::new(),
            err: 0.0,
        }
    }

    /// The enclosure of an exact rational constant (conversion slack goes
    /// into the error term).
    #[must_use]
    pub fn from_rational(v: Rational) -> Self {
        let (center, slack) = enclose_rational(v);
        AffineForm::from_center_slack(center, slack)
    }

    /// The constant `center` with error `slack`: the enclosure of a
    /// rational that [`enclose_rational`] put at `center ± slack`.
    #[must_use]
    pub fn from_center_slack(center: f64, slack: f64) -> Self {
        AffineForm {
            center,
            coeffs: Vec::new(),
            err: slack,
        }
    }

    /// `center + coeff·ε_symbol`, both taken as exact `f64` values.
    #[must_use]
    pub fn with_symbol(center: f64, symbol: usize, coeff: f64) -> Self {
        let mut form = AffineForm::constant(center);
        form.set_coeff(symbol, coeff);
        form
    }

    /// The top element: concretizes to the whole line (always sound).
    #[must_use]
    pub fn top() -> Self {
        AffineForm {
            center: 0.0,
            coeffs: Vec::new(),
            err: f64::INFINITY,
        }
    }

    /// The midpoint.
    #[must_use]
    pub fn center(&self) -> f64 {
        self.center
    }

    /// The shared-symbol coefficients (trailing zeros elided).
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The anonymous error magnitude.
    #[must_use]
    pub fn err(&self) -> f64 {
        self.err
    }

    /// Sets the coefficient of `symbol` (growing the form as needed).
    /// Used to attach the fresh noise symbol of a `ReLU` relaxation.
    pub fn set_coeff(&mut self, symbol: usize, coeff: f64) {
        if self.coeffs.len() <= symbol {
            self.coeffs.resize(symbol + 1, 0.0);
        }
        self.coeffs[symbol] = coeff;
    }

    /// Widens the error term by `extra ≥ 0` (upward-rounded).
    pub fn add_err(&mut self, extra: f64) {
        self.err = add_up(self.err, extra);
    }

    /// Upper bound on the total deviation from the center:
    /// `Σ|coeffsᵢ| + err`, rounded upward.
    #[must_use]
    pub fn radius(&self) -> f64 {
        let mut r = self.err;
        for &c in &self.coeffs {
            r = add_up(r, c.abs());
        }
        r
    }

    /// Sound concretization bounds `[lo, hi] ⊇ γ(self)`.
    ///
    /// Any non-finite component (overflow or NaN poisoning) degrades to
    /// `(-∞, +∞)` — a poisoned form can never decide anything.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        let rad = self.radius();
        if !self.center.is_finite() || !rad.is_finite() {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        (
            (self.center - rad).next_down(),
            (self.center + rad).next_up(),
        )
    }

    /// Upper bound on `|v|` over every enclosed value `v`.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        add_up(self.center.abs(), self.radius())
    }

    /// `self + offset` for an exact `f64` constant (one rounded addition,
    /// its [`ulp_gap`] charged to the error term).
    #[must_use]
    pub fn translate(&self, offset: f64) -> Self {
        let mut out = self.clone();
        out.center += offset;
        out.err = add_up(out.err, ulp_gap(out.center));
        out
    }

    /// Sound sum (shared symbols add coefficient-wise).
    #[must_use]
    pub fn add(&self, rhs: &AffineForm) -> Self {
        affine_combination([(1.0, 0.0, self), (1.0, 0.0, rhs)], 0.0, 0.0)
    }

    /// Sound difference — the operation the zonotope tier classifies on:
    /// coefficients of shared symbols cancel instead of decorrelating.
    #[must_use]
    pub fn sub(&self, rhs: &AffineForm) -> Self {
        affine_combination([(1.0, 0.0, self), (-1.0, 0.0, rhs)], 0.0, 0.0)
    }

    /// Sound scaling by an uncertain constant `w ± w_slack`: the exact
    /// multiplier `ŵ` may be any real with `|ŵ − w| ≤ w_slack` (how
    /// rational network weights enter the `f64` domain).
    #[must_use]
    pub fn scale(&self, w: f64, w_slack: f64) -> Self {
        affine_combination([(w, w_slack, self)], 0.0, 0.0)
    }

    /// `self += (w ± w_slack)·form` in place: one term of
    /// [`affine_combination`], whose soundness argument covers it.
    pub fn add_term(&mut self, w: f64, w_slack: f64, form: &AffineForm) {
        // Center contribution: two rounded operations.
        let t = w * form.center;
        self.err = add_up(self.err, ulp_gap(t));
        self.center += t;
        self.err = add_up(self.err, ulp_gap(self.center));
        // Coefficient contributions (shared symbols, index-aligned).
        if self.coeffs.len() < form.coeffs.len() {
            self.coeffs.resize(form.coeffs.len(), 0.0);
        }
        for (acc, &a) in self.coeffs.iter_mut().zip(&form.coeffs) {
            if a == 0.0 {
                continue;
            }
            let p = w * a;
            self.err = add_up(self.err, ulp_gap(p));
            *acc += p;
            self.err = add_up(self.err, ulp_gap(*acc));
        }
        // Inherited error term and multiplier uncertainty.
        self.err = add_up(self.err, mul_up(w.abs(), form.err));
        if w_slack > 0.0 {
            self.err = add_up(self.err, mul_up(w_slack, form.magnitude()));
        }
    }
}

/// The workhorse transformer: `Σᵢ (wᵢ ± sᵢ)·formᵢ + (bias ± bias_slack)`
/// in one accumulation pass — a neuron's pre-activation in a single call.
///
/// Soundness per the module contract: writing the exact multiplier as
/// `ŵᵢ = wᵢ + δᵢ` (`|δᵢ| ≤ sᵢ`), the exact term `ŵᵢ·vᵢ` decomposes into
/// `wᵢ·vᵢ` (propagated through center and coefficients, every rounded
/// operation's [`ulp_gap`] absorbed into the error term) plus `δᵢ·vᵢ`,
/// bounded by `sᵢ·`[`AffineForm::magnitude`] and likewise absorbed. The
/// shared symbols are never rescaled inconsistently, so one valuation
/// `ε` continues to witness every operand and the result simultaneously.
#[must_use]
pub fn affine_combination<'a, I>(terms: I, bias: f64, bias_slack: f64) -> AffineForm
where
    I: IntoIterator<Item = (f64, f64, &'a AffineForm)>,
{
    let mut out = AffineForm::from_center_slack(bias, bias_slack);
    for (w, w_slack, form) in terms {
        out.add_term(w, w_slack, form);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// Evaluates the exact affine expression `c + Σ aᵢεᵢ` at `ε` in
    /// rational arithmetic and checks it lies inside the form's range.
    fn assert_encloses(form: &AffineForm, exact: Rational) {
        let (lo, hi) = form.range();
        let v = exact.to_f64();
        // One-ulp guard around the conversion of the exact witness.
        assert!(
            lo <= v.next_up() && v.next_down() <= hi,
            "{exact} (≈{v}) escapes [{lo}, {hi}]"
        );
    }

    #[test]
    fn constant_and_rational_enclosures() {
        let c = AffineForm::constant(2.5);
        assert_eq!(c.range(), (2.5_f64.next_down(), 2.5_f64.next_up()));
        let third = AffineForm::from_rational(r(1, 3));
        assert!(third.err() > 0.0, "1/3 is inexact, slack must be positive");
        assert_encloses(&third, r(1, 3));
        let half = AffineForm::from_rational(r(1, 2));
        assert_eq!(half.err(), 0.0, "1/2 converts exactly");
    }

    #[test]
    fn enclose_rational_exactness_split() {
        assert_eq!(enclose_rational(r(3, 4)), (0.75, 0.0));
        let (c, s) = enclose_rational(r(1, 3));
        assert!(s > 0.0 && (c - 1.0 / 3.0).abs() < 1e-15);
        // Huge numerator/denominator: three roundings, slack still bounds.
        let v = Rational::new(i128::MAX / 3, i128::MAX / 7 - 1);
        let (c, s) = enclose_rational(v);
        assert!(s > 0.0);
        assert!((c - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_cancels_in_differences() {
        let x = AffineForm::with_symbol(10.0, 0, 3.0);
        let y = affine_combination([(2.0, 0.0, &x)], 1.0, 0.0); // y = 2x + 1
        let d = y.sub(&x).sub(&x); // = 1 exactly, all ε₀ cancelled
        let (lo, hi) = d.range();
        assert!(lo <= 1.0 && 1.0 <= hi);
        assert!(hi - lo < 1e-10, "shared symbols must cancel: [{lo}, {hi}]");
        // Interval arithmetic on the same quantities cannot do this:
        // x ∈ [7,13], y ∈ [15,27] ⇒ y−2x ∈ [15−26, 27−14] = [−11, 13].
    }

    #[test]
    fn add_sub_scale_enclose_exact_endpoints() {
        // x = 1/3 + (1/7)ε₀, y = −2/5 + (3/11)ε₁, checked at ε corners.
        let mut x = AffineForm::from_rational(r(1, 3));
        x.set_coeff(0, enclose_rational(r(1, 7)).0);
        x.add_err(enclose_rational(r(1, 7)).1);
        let mut y = AffineForm::from_rational(r(-2, 5));
        y.set_coeff(1, enclose_rational(r(3, 11)).0);
        y.add_err(enclose_rational(r(3, 11)).1);

        let sum = x.add(&y);
        let diff = x.sub(&y);
        let scaled = x.scale(2.0, 0.0);
        for e0 in [-1i128, 1] {
            for e1 in [-1i128, 1] {
                let xe = r(1, 3) + r(e0, 7);
                let ye = r(-2, 5) + r(3 * e1, 11);
                assert_encloses(&sum, xe + ye);
                assert_encloses(&diff, xe - ye);
                assert_encloses(&scaled, Rational::from_integer(2) * xe);
            }
        }
    }

    #[test]
    fn uncertain_scale_widens_by_multiplier_slack() {
        let x = AffineForm::with_symbol(1.0, 0, 1.0); // x ∈ [0, 2]
        let tight = x.scale(3.0, 0.0);
        let loose = x.scale(3.0, 0.5); // ŵ ∈ [2.5, 3.5]
        assert!(loose.err() >= 0.5 * 2.0, "slack·magnitude must be charged");
        let (tl, th) = tight.range();
        let (ll, lh) = loose.range();
        assert!(ll <= tl && th <= lh);
        // ŵ·x at the extreme ŵ = 3.5, x = 2 must be enclosed.
        assert!(lh >= 7.0);
    }

    #[test]
    fn combination_matches_manual_fold() {
        let a = AffineForm::with_symbol(1.0, 0, 0.5);
        let b = AffineForm::with_symbol(-2.0, 1, 0.25);
        let combo = affine_combination([(2.0, 0.0, &a), (-3.0, 0.0, &b)], 0.125, 0.0);
        // 2a − 3b + 0.125 = 2 + ε₀ + 6 − 0.75ε₁ + 0.125.
        assert!((combo.center() - 8.125).abs() < 1e-12);
        assert!((combo.coeffs()[0] - 1.0).abs() < 1e-12);
        assert!((combo.coeffs()[1] + 0.75).abs() < 1e-12);
        let (lo, hi) = combo.range();
        assert!(lo <= 8.125 - 1.75 && 8.125 + 1.75 <= hi);
    }

    #[test]
    fn rounding_error_is_tracked_not_ignored() {
        // Repeated inexact operations must keep charging rounding slack:
        // after ten upscalings the error term exceeds the original (it was
        // multiplied through) yet stays ulp-scale relative to the value.
        let mut f = AffineForm::from_rational(r(1, 3));
        let e0 = f.err();
        assert!(e0 > 0.0);
        for _ in 0..10 {
            f = f.scale(3.0, 0.0);
        }
        assert!(f.err() > e0);
        assert!(f.err() < 1e-9, "err stays ulp-scale: {}", f.err());
        assert_encloses(&f, r(3i128.pow(10), 3));
    }

    #[test]
    fn overflow_and_nan_degrade_to_everything() {
        assert_eq!(
            AffineForm::top().range(),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
        let huge = AffineForm::constant(f64::MAX);
        let sum = huge.add(&huge); // center overflows to +∞
        assert_eq!(sum.range(), (f64::NEG_INFINITY, f64::INFINITY));
        // 0 · top is a point at zero (an *exact* zero multiplier sends
        // every enclosed real to 0) — and crucially not a NaN from 0 · ∞.
        let z = AffineForm::top().scale(0.0, 0.0);
        let (zl, zh) = z.range();
        assert!(zl.is_finite() && zh.is_finite() && zl <= 0.0 && 0.0 <= zh);
        // An *uncertain* zero multiplier must charge slack · magnitude,
        // which against top's infinite magnitude degrades to everything.
        let zu = AffineForm::top().scale(0.0, 1e-9);
        assert_eq!(zu.range(), (f64::NEG_INFINITY, f64::INFINITY));
        // A NaN center poisons conservatively.
        let poisoned = AffineForm::constant(f64::NAN);
        assert_eq!(poisoned.range(), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn ulp_gap_edge_cases() {
        assert!(ulp_gap(1.0) > 0.0 && ulp_gap(1.0) < 1e-15);
        assert_eq!(ulp_gap(f64::INFINITY), f64::INFINITY);
        assert_eq!(ulp_gap(f64::NEG_INFINITY), f64::INFINITY);
        assert_eq!(ulp_gap(f64::NAN), f64::INFINITY);
        assert!(ulp_gap(0.0) > 0.0, "zero's neighbours are subnormals");
    }

    #[test]
    fn set_coeff_grows_and_radius_counts_everything() {
        let mut f = AffineForm::constant(0.0);
        f.set_coeff(3, -2.0);
        assert_eq!(f.coeffs().len(), 4);
        f.add_err(0.5);
        assert!(f.radius() >= 2.5);
        let (lo, hi) = f.range();
        assert!(lo <= -2.5 && 2.5 <= hi);
    }
}
