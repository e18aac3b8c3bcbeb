//! Interval-weight propagation: pushing a (point or boxed) input through
//! a [`FaultRegion`] (DESIGN.md §11).
//!
//! Three tiers mirror the input-noise tiers of `fannet-verify`,
//! cheapest first. The first two are the kernels of its screen pass
//! ([`fannet_verify::screen::Screens`]), which screens every product box
//! through the shadows the region carries:
//!
//! 1. **float** ([`FaultRegion::float_shadow`]) — the input-noise float
//!    tier's kernel over outward-rounded [`FloatInterval`] parameter
//!    enclosures; every stored interval encloses the exact one, every
//!    transformer is outward-rounded, so verdicts are sound proofs
//!    exactly as in the input-noise float tier.
//! 2. **zonotope** ([`FaultRegion::zonotope_shadow`]) — the input-noise
//!    zonotope tier's kernel, where every *faulted* parameter carries
//!    **its own shared noise symbol** ([`ParamForm::Faulted`]). The same
//!    symbol's valuation witnesses the parameter everywhere its effect
//!    flows, so correlated fault contributions **cancel** in the pairwise
//!    output differences
//!    [`classify_box_zonotope`](fannet_verify::zonotope::classify_box_zonotope)
//!    decides on — the fault-space analogue of the input-correlation
//!    cancellation.
//! 3. **exact** ([`FaultRegion::output_intervals`]) — exact rational
//!    interval arithmetic with [`Interval::mul_interval`] per weight
//!    (weights are now intervals, not constants, so the `scale` fast path
//!    of the input-noise propagator no longer applies). As in the
//!    input-noise domain it is the box tier of the unscreened search
//!    only; screened searches split what the first two leave undecided.
//!
//! The first two read `f64` encodings the region makes with its exact
//! intervals, and an input the screen pass encodes once per query: no
//! rational is converted per box.
//!
//! Soundness of every tier: for any [`FaultedNetwork`] drawn from the
//! region and any noise vector in the input box, each neuron's concrete
//! value lies inside the propagated enclosure (interval transformers are
//! inclusion-monotone; the zonotope transformer is witnessed per the
//! `AffineForm` contract). Cross-validated by sampling in
//! `tests/fault_cross_validation.rs`.

use fannet_numeric::affine::{enclose_rational, ulp_gap};
use fannet_numeric::{FloatInterval, Interval, Rational};
use fannet_verify::region::NoiseRegion;
use fannet_verify::zonotope::ParamForm;

use crate::region::{FaultRegion, FaultedNetwork};

// The exact tier's classification entry point: the fault domain reuses
// the input-noise tie-break semantics verbatim.
pub use fannet_verify::propagate::{classify_box, BoxVerdict};

/// Exact interval enclosure of input `x` under every noise vector of
/// `noise` — `Xₖ = xₖ · (100 + [loₖ, hiₖ])/100`; a zero-noise region
/// yields point intervals.
///
/// # Panics
///
/// Panics if widths disagree.
#[must_use]
pub fn enclose_input(x: &[Rational], noise: &NoiseRegion) -> Vec<Interval> {
    assert_eq!(x.len(), noise.nodes(), "input/noise width mismatch");
    x.iter()
        .enumerate()
        .map(|(k, &xk)| Interval::point(xk).mul_interval(&noise.factor_interval(k)))
        .collect()
}

impl FaultRegion {
    /// Exact interval-weight propagation: output enclosures covering
    /// every faulted network in the region on every input of the box.
    ///
    /// # Panics
    ///
    /// Panics if `x_enclosure` does not match the input width.
    #[must_use]
    pub fn output_intervals(&self, x_enclosure: &[Interval]) -> Vec<Interval> {
        assert_eq!(x_enclosure.len(), self.inputs, "input width mismatch");
        let mut acts = x_enclosure.to_vec();
        for layer in &self.layers {
            let mut next = Vec::with_capacity(layer.rows);
            for r in 0..layer.rows {
                let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
                let mut z = layer.biases[r];
                for (w, a) in row.iter().zip(&acts) {
                    z = z + w.mul_interval(a);
                }
                next.push(apply_exact(layer.activation, z));
            }
            for &(neuron, value) in &layer.stuck {
                next[neuron] = Interval::point(value);
            }
            acts = next;
        }
        acts
    }
}

/// Exact activation transformer (tight for the piecewise-linear set the
/// lift admits).
fn apply_exact(activation: fannet_nn::Activation, z: Interval) -> Interval {
    match activation {
        fannet_nn::Activation::Identity => z,
        fannet_nn::Activation::ReLU => z.relu(),
        fannet_nn::Activation::Sigmoid => unreachable!("lift rejects non-piecewise-linear"),
    }
}

/// The `f64` encodings of an exact parameter interval, from one
/// [`enclose_rational`] per endpoint: its outward float enclosure, and
/// its zonotope form, a faulted `(center, radius)` or, for a point, a
/// `(center, slack)`.
#[must_use]
pub(crate) fn encode(iv: &Interval) -> (FloatInterval, ParamForm) {
    let lo = enclose_rational(iv.lo());
    let float_lo = FloatInterval::from_center_slack(lo.0, lo.1);
    if iv.is_point() {
        return (float_lo, ParamForm::Point(lo.0, lo.1));
    }
    let hi = enclose_rational(iv.hi());
    let float_hi = FloatInterval::from_center_slack(hi.0, hi.1);
    let float = FloatInterval::new(float_lo.lo(), float_hi.hi());
    let (center, radius) = center_radius(lo, hi);
    (float, ParamForm::Faulted(center, radius))
}

/// A `(center, radius)` float cover of the exact interval whose
/// endpoints [`enclose_rational`] put at `lc ± ls` and `hc ± hs`:
/// `[center − radius, center + radius] ⊇ [lo, hi]`, every rounded step
/// charged upward.
fn center_radius((lc, ls): (f64, f64), (hc, hs): (f64, f64)) -> (f64, f64) {
    let sum = lc + hc;
    let center = sum * 0.5; // ×0.5 is exact; only `sum` rounded
    let diff = hc - lc;
    let mut radius = (diff * 0.5).abs();
    // Cover the rounding of `diff`, the conversion slacks of both
    // endpoints, and the rounding of `sum` (which displaces the center).
    radius = (radius + ulp_gap(diff)).next_up();
    radius = (radius + ls.max(hs)).next_up();
    radius = (radius + ulp_gap(sum)).next_up();
    (center, radius)
}

/// `true` if every output of `faulted` on `x` lies inside the matching
/// enclosure — the sampling oracle of the cross-validation tests.
///
/// # Panics
///
/// Panics on width mismatches.
#[must_use]
pub fn encloses_faulted_outputs(
    enclosure: &[Interval],
    faulted: &FaultedNetwork,
    x: &[Rational],
) -> bool {
    let out = faulted.forward(x).expect("widths validated by caller");
    assert_eq!(out.len(), enclosure.len(), "output width mismatch");
    enclosure.iter().zip(&out).all(|(iv, &v)| iv.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultModel;
    use fannet_nn::{Activation, DenseLayer, Network, Readout};
    use fannet_tensor::Matrix;
    use fannet_verify::propagate::FloatShadow;
    use fannet_verify::zonotope::{classify_box_zonotope, ZonotopeShadow};

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// 2-3-2 ReLU network with mixed-sign weights.
    fn net() -> Network<Rational> {
        let hidden = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(2), r(-1)], vec![r(-1), r(2)], vec![r(1), r(1)]])
                .unwrap(),
            vec![r(-10), r(-10), r(0)],
            Activation::ReLU,
        )
        .unwrap();
        let output = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(1), r(0), r(1)], vec![r(0), r(1), r(1)]]).unwrap(),
            vec![r(0), r(0)],
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }

    fn weight_noise(eps_num: i128, eps_den: i128) -> FaultModel {
        FaultModel::WeightNoise {
            rel_eps: rq(eps_num, eps_den),
        }
    }

    #[test]
    fn zero_fault_propagation_is_the_exact_forward_pass() {
        let n = net();
        let region = FaultRegion::lift(&n, &weight_noise(0, 1)).unwrap();
        let x = [r(12), r(5)];
        let enclosure = region.output_intervals(&enclose_input(&x, &NoiseRegion::symmetric(0, 2)));
        let exact = n.forward(&x).unwrap();
        for (iv, &v) in enclosure.iter().zip(&exact) {
            assert!(iv.is_point(), "zero-fault interval must be a point");
            assert_eq!(iv.lo(), v);
        }
    }

    #[test]
    fn exact_enclosure_covers_corner_and_midpoint_assignments() {
        let n = net();
        for model in [
            weight_noise(1, 10),
            FaultModel::Quantization { denom_bits: 4 },
            FaultModel::BitFlips { budget: 2 },
        ] {
            let region = FaultRegion::lift(&n, &model).unwrap();
            let x = [r(12), r(5)];
            let enclosure =
                region.output_intervals(&enclose_input(&x, &NoiseRegion::symmetric(0, 2)));
            for faulted in [region.corner_lo(), region.corner_hi(), region.midpoint()] {
                assert!(
                    encloses_faulted_outputs(&enclosure, &faulted, &x),
                    "assignment escapes enclosure under {model}"
                );
            }
        }
    }

    #[test]
    fn float_tier_encloses_exact_tier() {
        let n = net();
        let region = FaultRegion::lift(&n, &weight_noise(1, 8)).unwrap();
        let x = [r(12), r(5)];
        for delta in [0, 2, 5] {
            let noise = NoiseRegion::symmetric(delta, 2);
            let exact = region.output_intervals(&enclose_input(&x, &noise));
            let float = region
                .float_shadow()
                .output_intervals(&FloatShadow::enclose_input(&x), &noise);
            for (fi, iv) in float.iter().zip(&exact) {
                assert!(
                    fi.contains_rational(iv.lo()) && fi.contains_rational(iv.hi()),
                    "float {fi:?} must enclose exact {iv:?} at ±{delta}%"
                );
            }
        }
    }

    #[test]
    fn zonotope_tier_encloses_sampled_assignments() {
        let n = net();
        let region = FaultRegion::lift(&n, &weight_noise(1, 10)).unwrap();
        let x = [r(12), r(5)];
        let forms = region.zonotope_shadow().output_forms(
            &ZonotopeShadow::enclose_input(&x),
            &NoiseRegion::symmetric(0, 2),
        );
        for faulted in [region.corner_lo(), region.corner_hi(), region.midpoint()] {
            let out = faulted.forward(&x).unwrap();
            for (form, &v) in forms.iter().zip(&out) {
                let (lo, hi) = form.range();
                let vf = v.to_f64();
                assert!(
                    lo <= vf.next_up() && vf.next_down() <= hi,
                    "output {v} escapes zonotope [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn zonotope_differences_are_tighter_than_intervals_on_correlated_faults() {
        // Both outputs read the *same* faulted hidden neuron through
        // equal weights: in out0 − out1 the hidden neuron's fault symbols
        // cancel (the difference depends only on the small last-layer
        // perturbations and the bias), while plain intervals decorrelate
        // the shared hidden value into a wide overlap.
        let shared = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(3), r(1)]]).unwrap(),
            vec![r(0)],
            Activation::Identity,
        )
        .unwrap();
        let split = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(1)], vec![r(1)]]).unwrap(),
            vec![r(5), r(0)],
            Activation::Identity,
        )
        .unwrap();
        let n = Network::new(vec![shared, split], Readout::MaxPool).unwrap();
        let x = [r(10), r(10)];
        let noise = NoiseRegion::symmetric(0, 2);

        // ε = 1/20: hidden ∈ [38, 42], out0 ∈ [40.85, 49.35],
        // out1 ∈ [36.1, 44.1] — interval view overlaps and stays Unknown.
        let region = FaultRegion::lift(&n, &weight_noise(1, 20)).unwrap();
        let exact = region.output_intervals(&enclose_input(&x, &noise));
        assert!(
            exact[0].intersects(&exact[1]),
            "test needs interval overlap to be meaningful: {exact:?}"
        );
        assert_eq!(
            classify_box(&exact, 0),
            BoxVerdict::Unknown,
            "interval tier must fail on the correlated pair"
        );
        // The difference out0 − out1 keeps the hidden symbols shared:
        // its zonotope radius ≈ 2·ε·40 + ε·rad(h) + bias slack ≈ 4.5 < 5.
        let forms = region
            .zonotope_shadow()
            .output_forms(&ZonotopeShadow::enclose_input(&x), &noise);
        assert_eq!(
            classify_box_zonotope(&forms, 0),
            BoxVerdict::AlwaysCorrect,
            "shared fault symbols must cancel in the output difference"
        );
    }

    #[test]
    fn stuck_at_overrides_every_tier() {
        let n = net();
        let model = FaultModel::StuckAt {
            layer: 0,
            neuron: 2,
            value: r(100),
        };
        let region = FaultRegion::lift(&n, &model).unwrap();
        let x = [r(12), r(5)];
        let noise = NoiseRegion::symmetric(0, 2);
        let exact = region.output_intervals(&enclose_input(&x, &noise));
        let concrete = region.midpoint().forward(&x).unwrap();
        for (iv, &v) in exact.iter().zip(&concrete) {
            assert!(iv.is_point() && iv.lo() == v);
        }
        let float = region
            .float_shadow()
            .output_intervals(&FloatShadow::enclose_input(&x), &noise);
        for (fi, &v) in float.iter().zip(&concrete) {
            assert!(fi.contains_rational(v));
        }
        let forms = region
            .zonotope_shadow()
            .output_forms(&ZonotopeShadow::enclose_input(&x), &noise);
        for (form, &v) in forms.iter().zip(&concrete) {
            let (lo, hi) = form.range();
            let vf = v.to_f64();
            assert!(lo <= vf.next_up() && vf.next_down() <= hi);
        }
    }

    #[test]
    fn boxed_input_composes_with_fault_intervals() {
        let n = net();
        let region = FaultRegion::lift(&n, &weight_noise(1, 20)).unwrap();
        let x = [r(12), r(5)];
        let noise = NoiseRegion::symmetric(4, 2);
        let enclosure = region.output_intervals(&enclose_input(&x, &noise));
        // Every (noise vector, corner assignment) pair stays enclosed.
        for nv in noise.iter_points().step_by(11) {
            let noisy = nv.apply(&x);
            for faulted in [region.corner_lo(), region.corner_hi(), region.midpoint()] {
                assert!(
                    encloses_faulted_outputs(&enclosure, &faulted, &noisy),
                    "noise {nv} × fault corner escapes the joint enclosure"
                );
            }
        }
    }

    #[test]
    fn center_radius_covers_both_endpoints() {
        for (lo, hi) in [
            (rq(1, 3), rq(2, 3)),
            (rq(-7, 11), rq(22, 7)),
            (rq(-5, 2), rq(-1, 2)),
            (rq(1, 1_000_003), rq(1, 1_000_000)),
        ] {
            let (c, r) = center_radius(enclose_rational(lo), enclose_rational(hi));
            let lo_f = lo.to_f64();
            let hi_f = hi.to_f64();
            assert!(
                c - r <= lo_f.next_up() && hi_f.next_down() <= c + r,
                "[{c} ± {r}] must cover [{lo}, {hi}]"
            );
        }
    }
}
