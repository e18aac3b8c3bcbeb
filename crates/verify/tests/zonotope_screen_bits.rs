//! Pins the bits of the zonotope screen's kernel on networks of points.
//!
//! [`ZonotopeShadow::output_forms`] builds each neuron's form in place,
//! one term per input, so that the fault domain's faulted parameters can
//! join the same loop. On a network whose parameters are all points it
//! must keep the bits of the row-by-row reference below: one
//! [`affine_combination`] per neuron over its bias and weights in order,
//! then [`relu_form`]. The property compares every center, coefficient
//! and error via `to_bits` on random ReLU networks whose weights mix
//! non-dyadic (k/3, k/7) and dyadic (k/2^20) values, zeros and negatives,
//! over random boxes and inputs large enough for products to overflow.

mod common;

use common::{random_net, random_region};
use fannet_nn::{Activation, Network};
use fannet_numeric::affine::{affine_combination, enclose_rational, ulp_gap};
use fannet_numeric::{AffineForm, Rational};
use fannet_verify::region::NoiseRegion;
use fannet_verify::zonotope::{input_form, relu_form, ZonotopeShadow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The zonotope screen as one [`affine_combination`] per neuron.
fn reference_forms(
    net: &Network<Rational>,
    x_enclosure: &[(f64, f64)],
    region: &NoiseRegion,
) -> Vec<AffineForm> {
    let mut acts: Vec<AffineForm> = x_enclosure
        .iter()
        .zip(region.ranges())
        .enumerate()
        .map(|(k, (&(xc, xs), &(lo, hi)))| input_form(xc, xs, lo, hi, k))
        .collect();
    let mut next_symbol = net.inputs();
    for layer in net.layers() {
        let w = layer.weights();
        let mut next = Vec::with_capacity(w.rows());
        for r in 0..w.rows() {
            let terms = (0..w.cols()).map(|c| {
                let (wc, ws) = enclose_rational(w[(r, c)]);
                (wc, ws, &acts[c])
            });
            let (bc, bs) = enclose_rational(layer.biases()[r]);
            let z = affine_combination(terms, bc, bs);
            next.push(match layer.activation() {
                Activation::Identity => z,
                Activation::ReLU => relu_form(&z, &mut next_symbol),
                Activation::Sigmoid => unreachable!("only piecewise-linear layers are generated"),
            });
        }
        acts = next;
    }
    acts
}

/// An input `(center, slack)` of magnitude 10^-6 … 10^308, one in four
/// above 10^299 so that some products overflow: exact half the time,
/// otherwise with a conversion slack.
fn random_input(rng: &mut StdRng) -> (f64, f64) {
    let exponent = if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(300i32..=308)
    } else {
        rng.gen_range(-5i32..=300)
    };
    let magnitude = 10f64.powi(exponent) * rng.gen_range(0.1..1.0);
    let v = if rng.gen_range(0..2u32) == 0 {
        magnitude
    } else {
        -magnitude
    };
    if rng.gen_range(0..2u32) == 0 {
        (v, 0.0)
    } else {
        (v, 4.0 * ulp_gap(v))
    }
}

/// A form's center, coefficients and error as bits.
fn bits(form: &AffineForm) -> (u64, Vec<u64>, u64) {
    let coeffs = form.coeffs().iter().map(|c| c.to_bits()).collect();
    (form.center().to_bits(), coeffs, form.err().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shadow's output forms have exactly the reference's bits,
    /// overflowed (poisoned) outputs included.
    #[test]
    fn shadow_kernel_matches_affine_combination_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let shadow = ZonotopeShadow::new(&net);
        for _ in 0..4 {
            let x: Vec<(f64, f64)> = (0..net.inputs()).map(|_| random_input(&mut rng)).collect();
            let region = random_region(&mut rng, net.inputs());
            let fast = shadow.output_forms(&x, &region);
            let reference = reference_forms(&net, &x, &region);
            prop_assert_eq!(fast.len(), reference.len());
            for (k, (f, r)) in fast.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    bits(f),
                    bits(r),
                    "output {} of {:?} on {:?} under {:?}: {:?} vs reference {:?}",
                    k, net, x, region, f, r
                );
            }
        }
    }
}
