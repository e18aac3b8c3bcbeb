//! Quantization of trained `f64` networks into the exact [`Rational`]
//! parameter domain.
//!
//! FANNet's "behaviour extraction" step (Fig. 2 of the paper) translates a
//! trained network into the model checker's language. nuXmv works over
//! exact reals/integers, so the translation implicitly fixes an exact value
//! for every weight; we make that step explicit: each `f64` weight is
//! rounded to the nearest rational with a caller-chosen power-of-two
//! denominator. With `DEFAULT_DENOM_BITS` = 20 the rounding error per
//! parameter is ≤ 2⁻²¹, far below any decision boundary the 5–20–2 network
//! produces on integer-valued inputs; the validation property **P1**
//! (`fannet-core::behavior`) then *proves* that the quantized model agrees
//! with the float model on the whole test set before any noise analysis
//! begins.

use fannet_numeric::Rational;

use crate::network::Network;

/// Default denominator precision (bits) for weight quantization.
pub const DEFAULT_DENOM_BITS: u32 = 20;

/// Quantizes every parameter to the nearest rational with denominator
/// `2^denom_bits`, yielding the exact network analysed by the verifier.
///
/// # Panics
///
/// Panics if `denom_bits >= 127` (the denominator would overflow `i128`) or
/// if a parameter is not finite.
///
/// # Examples
///
/// ```
/// use fannet_nn::{quantize, Activation, DenseLayer, Network, Readout};
/// use fannet_tensor::Matrix;
/// use fannet_numeric::Rational;
///
/// let layer = DenseLayer::new(
///     Matrix::from_rows(vec![vec![0.3333333333f64]])?,
///     vec![0.0],
///     Activation::Identity,
/// )?;
/// let net = Network::new(vec![layer], Readout::MaxPool)?;
/// let exact = quantize::to_rational(&net, 20);
/// let w = exact.layers()[0].weights()[(0, 0)];
/// assert_eq!(w.denom(), 1 << 20); // nearest 20-bit dyadic to 1/3
/// assert!((w.to_f64() - 1.0 / 3.0).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn to_rational(net: &Network<f64>, denom_bits: u32) -> Network<Rational> {
    assert!(
        denom_bits < 127,
        "denominator 2^{denom_bits} would overflow i128"
    );
    let den = 1i128 << denom_bits;
    net.map(|&w| Rational::from_f64_approx(w, den))
}

/// Quantizes with the default precision ([`DEFAULT_DENOM_BITS`]).
#[must_use]
pub fn to_rational_default(net: &Network<f64>) -> Network<Rational> {
    to_rational(net, DEFAULT_DENOM_BITS)
}

/// Converts an exact rational network back to `f64` (reporting).
#[must_use]
pub fn to_f64(net: &Network<Rational>) -> Network<f64> {
    net.map(|w| w.to_f64())
}

/// A quantized network bundled with its quantization-error bound — the
/// single-pass form of [`to_rational`] + [`max_quantization_error`].
///
/// `max_quantization_error` recomputes the full quantization per call;
/// callers that need both the exact network *and* its error budget (the
/// `fannet-faults` quantization fault model, report sections) get them
/// here from one traversal, with the error cached alongside the network
/// instead of re-derived.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantization {
    /// The exact rational network (identical to [`to_rational`]'s output).
    pub net: Network<Rational>,
    /// The largest absolute per-parameter rounding error, exact.
    pub max_error: Rational,
    /// The denominator precision the quantization used.
    pub denom_bits: u32,
}

/// Quantizes every parameter to denominator `2^denom_bits` **and**
/// records the worst per-parameter rounding error in the same pass.
///
/// The returned network is identical to [`to_rational`]'s and the error
/// to [`max_quantization_error`]'s (pinned by a regression test on the
/// Golub case-study network); only the duplicate quantization pass is
/// gone.
///
/// # Panics
///
/// Panics if `denom_bits >= 127` or a parameter is not finite.
#[must_use]
pub fn quantize_with_error(net: &Network<f64>, denom_bits: u32) -> Quantization {
    assert!(
        denom_bits < 127,
        "denominator 2^{denom_bits} would overflow i128"
    );
    let den = 1i128 << denom_bits;
    let mut worst = Rational::ZERO;
    let quantized = net.map(|&w| {
        let q = Rational::from_f64_approx(w, den);
        let exact = Rational::from_f64_exact(w).expect("trained weights are finite");
        let err = (exact - q).abs();
        if err > worst {
            worst = err;
        }
        q
    });
    Quantization {
        net: quantized,
        max_error: worst,
        denom_bits,
    }
}

/// The largest absolute quantization error across all parameters, as an
/// exact rational — useful for error-budget arguments in reports.
///
/// Callers that also need the quantized network should use
/// [`quantize_with_error`], which computes both in one pass.
#[must_use]
pub fn max_quantization_error(net: &Network<f64>, denom_bits: u32) -> Rational {
    quantize_with_error(net, denom_bits).max_error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::init::{fresh_network, Init};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_net() -> Network<f64> {
        fresh_network(
            &mut StdRng::seed_from_u64(99),
            &[5, 20, 2],
            Activation::ReLU,
            Init::XavierUniform,
        )
    }

    #[test]
    fn quantization_error_bounded_by_half_ulp() {
        let net = sample_net();
        for bits in [8, 16, 20] {
            let bound = Rational::new(1, 1i128 << (bits + 1));
            let worst = max_quantization_error(&net, bits);
            assert!(
                worst <= bound,
                "bits={bits}: worst error {worst} exceeds {bound}"
            );
        }
    }

    #[test]
    fn higher_precision_never_worse() {
        let net = sample_net();
        let coarse = max_quantization_error(&net, 8);
        let fine = max_quantization_error(&net, 20);
        assert!(fine <= coarse);
    }

    #[test]
    fn quantized_net_classifies_like_float_net() {
        let net = sample_net();
        let q = to_rational_default(&net);
        let mut rng = StdRng::seed_from_u64(5);
        use rand::Rng;
        for _ in 0..50 {
            let x: Vec<f64> = (0..5).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let fx = net.classify(&x).unwrap();
            let qx = q
                .classify(
                    &x.iter()
                        .map(|&v| Rational::from_f64_exact(v).unwrap())
                        .collect::<Vec<_>>(),
                )
                .unwrap();
            // With 20-bit quantization and margins not astronomically small
            // the classifications agree; tolerate no disagreement here since
            // the seed gives comfortable margins.
            assert_eq!(fx, qx, "disagreement at {x:?}");
        }
    }

    #[test]
    fn quantize_with_error_matches_two_pass_path() {
        let net = sample_net();
        for bits in [8, 16, 20] {
            let q = quantize_with_error(&net, bits);
            assert_eq!(q.denom_bits, bits);
            assert_eq!(q.net, to_rational(&net, bits), "bits={bits}");
            assert_eq!(q.max_error, max_quantization_error(&net, bits));
            assert!(q.max_error <= Rational::new(1, 1i128 << (bits + 1)));
        }
    }

    #[test]
    fn to_f64_round_trip() {
        let net = sample_net();
        let q = to_rational(&net, 30);
        let back = to_f64(&q);
        for (a, b) in net.layers().iter().zip(back.layers()) {
            for (&wa, &wb) in a.weights().as_slice().iter().zip(b.weights().as_slice()) {
                assert!((wa - wb).abs() < 1e-8);
            }
        }
    }
}
