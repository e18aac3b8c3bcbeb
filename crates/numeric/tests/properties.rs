//! Property-based tests for the numeric substrate.
//!
//! These pin down the algebraic laws the verifier's soundness argument
//! relies on: field axioms for [`Rational`], order compatibility, exactness
//! of conversions, and the *enclosure* property of interval transformers.

use fannet_numeric::{FloatInterval, Interval, Rational, Scalar};
use proptest::prelude::*;

/// Rationals with numerator/denominator small enough that products of a few
/// of them stay far from `i128` overflow.
fn small_rational() -> impl Strategy<Value = Rational> {
    (-1_000_000i128..=1_000_000, 1i128..=1_000_000).prop_map(|(n, d)| Rational::new(n, d))
}

/// Integer-percent values as used by the FANNet noise model.
fn percent() -> impl Strategy<Value = i64> {
    -100i64..=100
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rational_add_commutative(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rational_add_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rational_mul_commutative(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn rational_mul_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn rational_distributive(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rational_additive_inverse(a in small_rational()) {
        prop_assert_eq!(a + (-a), Rational::ZERO);
        prop_assert_eq!(a - a, Rational::ZERO);
    }

    #[test]
    fn rational_multiplicative_inverse(a in small_rational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rational::ONE);
        prop_assert_eq!(a / a, Rational::ONE);
    }

    #[test]
    fn rational_always_reduced(n in -1_000_000i128..=1_000_000, d in 1i128..=1_000_000) {
        let r = Rational::new(n, d);
        prop_assert!(r.denom() > 0);
        if !r.is_zero() {
            prop_assert_eq!(
                fannet_numeric::rational::gcd(r.numer().unsigned_abs() as i128, r.denom()),
                1
            );
        } else {
            prop_assert_eq!(r.denom(), 1);
        }
    }

    #[test]
    fn rational_order_translation_invariant(
        a in small_rational(), b in small_rational(), c in small_rational()
    ) {
        prop_assert_eq!(a < b, a + c < b + c);
    }

    #[test]
    fn rational_order_matches_f64(a in small_rational(), b in small_rational()) {
        // f64 has 53 bits of mantissa; our strategy values are ~2e12 ratios,
        // so equal f64s may hide unequal rationals — only check strict order.
        if a.to_f64() < b.to_f64() - 1e-6 {
            prop_assert!(a < b);
        }
    }

    #[test]
    fn rational_parse_display_round_trip(a in small_rational()) {
        let s = a.to_string();
        let back: Rational = s.parse().expect("display output must parse");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rational_f64_exact_round_trip(v in -1.0e12f64..1.0e12) {
        let r = Rational::from_f64_exact(v).expect("finite");
        prop_assert_eq!(r.to_f64(), v);
    }

    #[test]
    fn noise_factor_exact(p in percent()) {
        // (100 + p)/100 must equal 1 + p/100 exactly.
        let lhs = Rational::new(100 + i128::from(p), 100);
        let rhs = Rational::ONE + Rational::from_percent(p);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn interval_add_encloses(
        (al, aw) in (small_rational(), small_rational()),
        (bl, bw) in (small_rational(), small_rational()),
        t in 0.0f64..=1.0, u in 0.0f64..=1.0,
    ) {
        let a = Interval::new(al, al + aw.abs());
        let b = Interval::new(bl, bl + bw.abs());
        // Pick interior sample points via rational interpolation.
        let ts = Rational::from_f64_approx(t, 1000);
        let us = Rational::from_f64_approx(u, 1000);
        let x = a.lo() + a.width() * ts;
        let y = b.lo() + b.width() * us;
        prop_assert!((a + b).contains(x + y));
        prop_assert!((a - b).contains(x - y));
        prop_assert!(a.mul_interval(&b).contains(x * y));
    }

    #[test]
    fn interval_relu_encloses(l in small_rational(), w in small_rational(), t in 0.0f64..=1.0) {
        let a = Interval::new(l, l + w.abs());
        let ts = Rational::from_f64_approx(t, 1000);
        let x = a.lo() + a.width() * ts;
        prop_assert!(a.relu().contains(x.relu()));
    }

    #[test]
    fn interval_max_encloses(
        l1 in small_rational(), w1 in small_rational(),
        l2 in small_rational(), w2 in small_rational(),
        t in 0.0f64..=1.0,
    ) {
        let a = Interval::new(l1, l1 + w1.abs());
        let b = Interval::new(l2, l2 + w2.abs());
        let ts = Rational::from_f64_approx(t, 1000);
        let x = a.lo() + a.width() * ts;
        let y = b.lo() + b.width() * ts;
        prop_assert!(a.max_interval(&b).contains(x.max(y)));
    }

    #[test]
    fn interval_scale_encloses(l in small_rational(), w in small_rational(), k in small_rational(), t in 0.0f64..=1.0) {
        let a = Interval::new(l, l + w.abs());
        let ts = Rational::from_f64_approx(t, 1000);
        let x = a.lo() + a.width() * ts;
        prop_assert!(a.scale(k).contains(x * k));
    }

    #[test]
    fn interval_bisect_integer_partitions(lo in -50i128..50, len in 1i128..100) {
        let iv = Interval::new(Rational::from_integer(lo), Rational::from_integer(lo + len));
        if let Some((a, b)) = iv.bisect_integer() {
            prop_assert_eq!(a.integer_count() + b.integer_count(), iv.integer_count());
            prop_assert!(a.hi() < b.lo());
            prop_assert_eq!(a.lo(), iv.lo());
            prop_assert_eq!(b.hi(), iv.hi());
        } else {
            prop_assert!(iv.integer_count() <= 1);
        }
    }

    #[test]
    fn float_interval_encloses_exact_transformers(
        (al, aw) in (small_rational(), small_rational()),
        (bl, bw) in (small_rational(), small_rational()),
        t in 0.0f64..=1.0, u in 0.0f64..=1.0,
    ) {
        // The screening tier's soundness lemma: the outward-rounded float
        // image of an exact interval operation encloses the exact image.
        let a = Interval::new(al, al + aw.abs());
        let b = Interval::new(bl, bl + bw.abs());
        let fa = FloatInterval::from_rationals(a.lo(), a.hi());
        let fb = FloatInterval::from_rationals(b.lo(), b.hi());
        // Interior sample points of the exact boxes.
        let ts = Rational::from_f64_approx(t, 1000);
        let us = Rational::from_f64_approx(u, 1000);
        let x = a.lo() + a.width() * ts;
        let y = b.lo() + b.width() * us;

        prop_assert!(fa.contains_rational(x), "input enclosure");
        prop_assert!(fa.add(&fb).contains_rational(x + y));
        prop_assert!(fa.sub(&fb).contains_rational(x - y));
        prop_assert!(fa.neg().contains_rational(-x));
        prop_assert!(fa.mul(&fb).contains_rational(x * y));
        prop_assert!(fa.relu().contains_rational(x.relu()));
        prop_assert!(fa.max_interval(&fb).contains_rational(x.max(y)));
    }

    #[test]
    fn float_interval_point_enclosure(n in -1_000_000i128..=1_000_000, d in 1i128..=1_000_000) {
        let v = Rational::new(n, d);
        let fi = FloatInterval::from_rational_point(v);
        prop_assert!(fi.contains_rational(v), "{:?} must contain {}", fi, v);
    }

    #[test]
    fn scalar_generic_relu_consistent(v in -1.0e6f64..1.0e6) {
        let expected = v.max(0.0);
        prop_assert_eq!(Scalar::relu(v), expected);
        prop_assert_eq!(Rational::from_f64_exact(v).unwrap().relu().to_f64(), expected);
    }
}
