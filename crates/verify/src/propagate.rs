//! Interval abstract interpretation of a rational network over a noise box.
//!
//! Given an exact input `x`, a [`NoiseRegion`] `R` and a piecewise-linear
//! [`Network<Rational>`], computes per-output [`Interval`]s that **enclose**
//! every output the network can produce for any noise vector in `R`:
//!
//! 1. input enclosure: `Xₖ = xₖ · (100 + [loₖ, hiₖ])/100` (exact interval
//!    multiplication, correct for negative `xₖ` too);
//! 2. affine layers: interval dot products, with each weight applied via
//!    [`Interval::scale`] (exact — weights are constants);
//! 3. `ReLU`/`max`: exact monotone interval transformers.
//!
//! Soundness (every concrete output lies inside the computed interval) is
//! what makes branch-and-bound pruning in [`crate::bab`] a *proof*; the
//! enclosure is generally not tight (the dependency problem), which is why
//! refinement by splitting exists.

use fannet_nn::{Activation, Network};
use fannet_numeric::{FloatInterval, Interval, Rational};
use fannet_tensor::ShapeError;

use crate::region::NoiseRegion;

/// Output enclosure of `net` on input `x` under every noise vector in
/// `region`.
///
/// # Errors
///
/// Returns [`ShapeError`] if widths disagree.
///
/// # Panics
///
/// Panics if the network contains a non-piecewise-linear activation
/// (sigmoid): interval transformers here are exact only for `Identity`,
/// `ReLU` and the maxpool readout.
pub fn output_intervals(
    net: &Network<Rational>,
    x: &[Rational],
    region: &NoiseRegion,
) -> Result<Vec<Interval>, ShapeError> {
    if x.len() != net.inputs() {
        return Err(ShapeError::new(format!(
            "input of width {} against network with {} inputs",
            x.len(),
            net.inputs()
        )));
    }
    if region.nodes() != net.inputs() {
        return Err(ShapeError::new(format!(
            "noise region over {} nodes against network with {} inputs",
            region.nodes(),
            net.inputs()
        )));
    }
    assert!(
        net.is_piecewise_linear(),
        "interval propagation requires piecewise-linear activations"
    );

    // Input enclosure under relative noise.
    let mut acts: Vec<Interval> = x
        .iter()
        .enumerate()
        .map(|(k, &xk)| Interval::point(xk).mul_interval(&region.factor_interval(k)))
        .collect();

    let mut next = Vec::new();
    for layer in net.layers() {
        let w = layer.weights();
        next.clear();
        next.reserve(layer.outputs());
        for r in 0..w.rows() {
            let mut z = Interval::point(layer.biases()[r]);
            for (c, a) in acts.iter().enumerate() {
                z = z + a.scale(w[(r, c)]);
            }
            let out = match layer.activation() {
                Activation::Identity => z,
                Activation::ReLU => z.relu(),
                Activation::Sigmoid => unreachable!("checked piecewise-linear above"),
            };
            next.push(out);
        }
        std::mem::swap(&mut acts, &mut next);
    }
    Ok(acts)
}

// The verdict type lives in the generic search core since the
// `fannet-search` extraction; re-exported here so every existing
// `crate::propagate::BoxVerdict` path keeps working.
pub use fannet_search::BoxVerdict;

/// Classifies a box from its output enclosures, for expected label `label`.
///
/// The readout is maxpool with ties broken toward the *lower* index (paper:
/// `L0 ≥ L1 → L0`). A rival `j < label` therefore wins ties against the
/// label, while the label wins ties against rivals `j > label`:
///
/// * the box is **always correct** if every rival `j < label` satisfies
///   `hi(outⱼ) < lo(out_label)` (strict — the lower rival would win a tie)
///   and every rival `j > label` satisfies `hi(outⱼ) ≤ lo(out_label)`;
/// * the box is **always wrong** if some rival `j < label` satisfies
///   `lo(outⱼ) ≥ hi(out_label)` or some `j > label` satisfies
///   `lo(outⱼ) > hi(out_label)`.
///
/// Both directions compare interval endpoints, hence are sound but not
/// complete (returning [`BoxVerdict::Unknown`] is always safe).
///
/// # Panics
///
/// Panics if `label >= outputs.len()`.
#[must_use]
pub fn classify_box(outputs: &[Interval], label: usize) -> BoxVerdict {
    classify_endpoints(outputs.len(), label, |j| (outputs[j].lo(), outputs[j].hi()))
}

/// The tie-break rule of [`classify_box`] over any endpoint type, with
/// `ends(j)` the endpoints `(lo, hi)` of output `j`.
pub(crate) fn classify_endpoints<T: PartialOrd>(
    outputs: usize,
    label: usize,
    ends: impl Fn(usize) -> (T, T),
) -> BoxVerdict {
    assert!(label < outputs, "label {label} out of range");
    let (target_lo, target_hi) = ends(label);

    let mut always_correct = true;
    for j in (0..outputs).filter(|&j| j != label) {
        let (lo, hi) = ends(j);
        let strict_needed = j < label; // lower rival wins ties
        let dominated = if strict_needed {
            hi < target_lo
        } else {
            hi <= target_lo
        };
        if !dominated {
            always_correct = false;
        }
        let overwhelms = if strict_needed {
            lo >= target_hi
        } else {
            lo > target_hi
        };
        if overwhelms {
            return BoxVerdict::AlwaysWrong;
        }
    }
    if always_correct {
        BoxVerdict::AlwaysCorrect
    } else {
        BoxVerdict::Unknown
    }
}

// ---------------------------------------------------------------------------
// Float screening tier (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// A precomputed outward-rounded `f64` copy of a network — the float
/// screen of both search domains.
///
/// Weights and biases are enclosed once per network ([`FloatShadow::new`])
/// or fault box ([`FloatShadow::from_enclosures`]), the input once per
/// query ([`FloatShadow::enclose_input`]); per-box propagation
/// ([`FloatShadow::output_intervals`]) then runs entirely in `f64`
/// interval arithmetic, avoiding the gcd-heavy exact path for every box
/// the float enclosure can already decide.
///
/// Every stored interval *encloses* the exact rational constant, and every
/// transformer of [`FloatInterval`] is outward-rounded, so the propagated
/// output intervals enclose the exact [`output_intervals`] — which is what
/// makes verdicts derived from them sound proofs (see
/// [`classify_box_float`]).
#[derive(Debug, Clone)]
pub struct FloatShadow {
    layers: Vec<FloatShadowLayer>,
    inputs: usize,
}

#[derive(Debug, Clone)]
struct FloatShadowLayer {
    /// Column-major: `weights[c * outputs + r]` encloses the exact weight
    /// of output `r`, input `c`, so one input's weights are contiguous.
    weights: Vec<FloatInterval>,
    biases: Vec<FloatInterval>,
    activation: Activation,
    /// Post-activation overrides `(neuron, value)` of stuck-at faults.
    stuck: Vec<(usize, FloatInterval)>,
}

/// One layer of a shadow network as encodings of its exact parameters:
/// [`FloatInterval`]s for a [`FloatShadow`],
/// [`ParamForm`](crate::zonotope::ParamForm)s for a
/// [`ZonotopeShadow`](crate::zonotope::ZonotopeShadow).
#[derive(Debug, Clone)]
pub struct LayerEnclosures<P = FloatInterval> {
    /// The weights row-major (`r * inputs + c` for output `r`, input `c`),
    /// then the biases: the order [`FloatShadow::set_param`] indexes.
    pub params: Vec<P>,
    /// The layer's activation.
    pub activation: Activation,
    /// Outputs `(neuron, value)` forced to `value` after the activation.
    pub stuck: Vec<(usize, P)>,
}

impl FloatShadow {
    /// Builds the shadow of a rational network.
    ///
    /// # Panics
    ///
    /// Panics if the network is not piecewise-linear (same admissibility
    /// condition as [`output_intervals`]).
    #[must_use]
    pub fn new(net: &Network<Rational>) -> Self {
        let layers = net.layers().iter().map(|layer| LayerEnclosures {
            params: (layer.weights().as_slice().iter().chain(layer.biases()))
                .map(|&v| FloatInterval::from_rational_point(v))
                .collect(),
            activation: layer.activation(),
            stuck: Vec::new(),
        });
        Self::from_enclosures(net.inputs(), layers.collect())
    }

    /// Builds a shadow with `inputs` inputs from its layers' enclosures.
    ///
    /// # Panics
    ///
    /// Panics if a layer is not piecewise-linear, or its parameters are
    /// not `outputs × (inputs + 1)`.
    #[must_use]
    pub fn from_enclosures(inputs: usize, layers: Vec<LayerEnclosures>) -> Self {
        let mut shadow = FloatShadow {
            layers: Vec::with_capacity(layers.len()),
            inputs,
        };
        for layer in layers {
            assert!(
                layer.activation.is_piecewise_linear(),
                "float screening requires piecewise-linear activations"
            );
            let cols = shadow.layers.last().map_or(inputs, |l| l.biases.len());
            let (p, rows) = (&layer.params, layer.params.len() / (cols + 1));
            assert_eq!(p.len(), rows * (cols + 1), "outputs × (inputs + 1)");
            shadow.layers.push(FloatShadowLayer {
                weights: (0..cols)
                    .flat_map(|c| (0..rows).map(move |r| p[r * cols + c]))
                    .collect(),
                biases: p[rows * cols..].to_vec(),
                activation: layer.activation,
                stuck: layer.stuck,
            });
        }
        shadow
    }

    /// Replaces the enclosure of parameter `index` of layer `layer`, in
    /// [`LayerEnclosures::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_param(&mut self, layer: usize, index: usize, enclosure: FloatInterval) {
        let layer = &mut self.layers[layer];
        let (rows, weights) = (layer.biases.len(), layer.weights.len());
        if index < weights {
            let (r, c) = (index / (weights / rows), index % (weights / rows));
            layer.weights[c * rows + r] = enclosure;
        } else {
            layer.biases[index - weights] = enclosure;
        }
    }

    /// Per-feature float enclosure of an exact input, computed once per
    /// query and reused across every box.
    #[must_use]
    pub fn enclose_input(x: &[Rational]) -> Vec<FloatInterval> {
        x.iter()
            .map(|&xk| FloatInterval::from_rational_point(xk))
            .collect()
    }

    /// Float output enclosure of the shadow network on `x_enclosure` under
    /// every noise vector in `region` — the `f64` counterpart of
    /// [`output_intervals`], guaranteed to enclose it.
    ///
    /// Each layer streams one input at a time across every output's
    /// accumulator (the column-major weights keep that input's weights
    /// contiguous), so the accumulators form independent dependency
    /// chains. Each accumulator still adds its bias, then inputs
    /// `0..n` in order, one outward step per multiply and per add, so
    /// every endpoint has the bits of a row-by-row dot product.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree (callers validate once per query).
    #[must_use]
    pub fn output_intervals(
        &self,
        x_enclosure: &[FloatInterval],
        region: &NoiseRegion,
    ) -> Vec<FloatInterval> {
        assert_eq!(x_enclosure.len(), self.inputs, "input width mismatch");
        assert_eq!(region.nodes(), self.inputs, "region width mismatch");

        // Input enclosure under relative noise: x · (100 + [lo, hi])/100.
        // The integer-to-f64 conversions are exact (|p| ≤ 200); only the
        // division rounds, which `from_ratio` widens outward.
        let mut acts: Vec<FloatInterval> = x_enclosure
            .iter()
            .zip(region.ranges())
            .map(|(xk, &(lo, hi))| xk.mul(&float_factor(lo, hi)))
            .collect();

        let mut next: Vec<FloatInterval> = Vec::new();
        for layer in &self.layers {
            let outputs = layer.biases.len();
            next.clear();
            next.extend_from_slice(&layer.biases);
            for (c, a) in acts.iter().enumerate() {
                let column = &layer.weights[c * outputs..(c + 1) * outputs];
                for (z, w) in next.iter_mut().zip(column) {
                    *z = z.add(&a.mul(w));
                }
            }
            match layer.activation {
                Activation::Identity => {}
                Activation::ReLU => next.iter_mut().for_each(|z| *z = z.relu()),
                Activation::Sigmoid => unreachable!("checked piecewise-linear at construction"),
            }
            for &(neuron, value) in &layer.stuck {
                next[neuron] = value;
            }
            std::mem::swap(&mut acts, &mut next);
        }
        acts
    }
}

/// Outward float enclosure of the noise factor `(100 + [lo, hi]) / 100`.
#[must_use]
pub fn float_factor(lo: i64, hi: i64) -> FloatInterval {
    // Integer percents are exactly representable; the division by 100
    // rounds to nearest, so step one ulp outward on each side.
    let f_lo = ((100 + lo) as f64 / 100.0).next_down();
    let f_hi = ((100 + hi) as f64 / 100.0).next_up();
    FloatInterval::new(f_lo, f_hi)
}

/// Float-tier counterpart of [`classify_box`], with identical tie-break
/// semantics.
///
/// Soundness: each `FloatInterval` endpoint is an *outer* bound of the
/// exact endpoint (`lo_f ≤ lo_exact`, `hi_f ≥ hi_exact`), so
///
/// * `rival.hi_f < target.lo_f` implies `rival.hi ≤ hi_f < lo_f ≤
///   target.lo` exactly (and likewise for the non-strict form), making
///   `AlwaysCorrect` a proof;
/// * `rival.lo_f ≥ target.hi_f` implies `rival.lo ≥ lo_f ≥ hi_f ≥
///   target.hi` exactly, making `AlwaysWrong` a proof.
///
/// The float tier is *less complete* than the exact tier (wider intervals
/// ⇒ more `Unknown`), never less sound.
///
/// # Panics
///
/// Panics if `label >= outputs.len()`.
#[must_use]
pub fn classify_box_float(outputs: &[FloatInterval], label: usize) -> BoxVerdict {
    classify_endpoints(outputs.len(), label, |j| (outputs[j].lo(), outputs[j].hi()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    /// 2-4-2 rational network with hand-set weights.
    fn net() -> Network<Rational> {
        let hidden = DenseLayer::new(
            Matrix::from_rows(vec![
                vec![r(1), r(-1)],
                vec![r(-1), r(1)],
                vec![Rational::new(1, 2), Rational::new(1, 2)],
                vec![r(0), r(1)],
            ])
            .unwrap(),
            vec![r(0), r(0), r(-1), r(2)],
            Activation::ReLU,
        )
        .unwrap();
        let output = DenseLayer::new(
            Matrix::from_rows(vec![
                vec![r(1), r(0), r(1), r(-1)],
                vec![r(0), r(1), r(-1), r(1)],
            ])
            .unwrap(),
            vec![r(0), r(0)],
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }

    #[test]
    fn zero_noise_interval_is_exact_point() {
        let net = net();
        let x = [r(100), r(-50)];
        let region = NoiseRegion::symmetric(0, 2);
        let out = output_intervals(&net, &x, &region).unwrap();
        let exact = net.forward(&x).unwrap();
        for (iv, &v) in out.iter().zip(&exact) {
            assert!(iv.is_point(), "zero-noise interval must be a point");
            assert_eq!(iv.lo(), v);
        }
    }

    #[test]
    fn enclosure_is_sound_on_every_grid_point() {
        let net = net();
        let x = [r(120), r(-80)];
        let region = NoiseRegion::symmetric(4, 2);
        let enclosure = output_intervals(&net, &x, &region).unwrap();
        for nv in region.iter_points() {
            let noisy = nv.apply(&x);
            let out = net.forward(&noisy).unwrap();
            for (iv, v) in enclosure.iter().zip(&out) {
                assert!(
                    iv.contains(*v),
                    "output {v} of noise {nv} escapes enclosure {iv}"
                );
            }
        }
    }

    #[test]
    fn enclosure_tightens_as_region_shrinks() {
        let net = net();
        let x = [r(120), r(-80)];
        let wide = output_intervals(&net, &x, &NoiseRegion::symmetric(20, 2)).unwrap();
        let narrow = output_intervals(&net, &x, &NoiseRegion::symmetric(2, 2)).unwrap();
        for (w, n) in wide.iter().zip(&narrow) {
            assert!(w.contains_interval(n));
            assert!(w.width() >= n.width());
        }
    }

    #[test]
    fn width_mismatch_is_error() {
        let net = net();
        assert!(output_intervals(&net, &[r(1)], &NoiseRegion::symmetric(1, 2)).is_err());
        assert!(output_intervals(&net, &[r(1), r(2)], &NoiseRegion::symmetric(1, 3)).is_err());
    }

    #[test]
    fn classify_box_correct_and_wrong() {
        // label 1, target [5,6] vs rival [1,2] → rival.hi() < target.lo():
        // strict not needed for j<label? j=0 < label=1, strict needed:
        // 2 < 5 holds → AlwaysCorrect.
        let out = vec![Interval::new(r(1), r(2)), Interval::new(r(5), r(6))];
        assert_eq!(classify_box(&out, 1), BoxVerdict::AlwaysCorrect);
        // Rival overwhelms: lo(rival)=7 ≥ hi(target)=6 with j<label.
        let out = vec![Interval::new(r(7), r(9)), Interval::new(r(5), r(6))];
        assert_eq!(classify_box(&out, 1), BoxVerdict::AlwaysWrong);
        // Overlap → Unknown.
        let out = vec![Interval::new(r(4), r(7)), Interval::new(r(5), r(6))];
        assert_eq!(classify_box(&out, 1), BoxVerdict::Unknown);
    }

    #[test]
    fn classify_box_tie_break_semantics() {
        // Exact tie at a point: out0 == out1 == [5,5].
        let tie = vec![Interval::point(r(5)), Interval::point(r(5))];
        // Label 0 wins ties → always correct for label 0…
        assert_eq!(classify_box(&tie, 0), BoxVerdict::AlwaysCorrect);
        // …and always wrong for label 1.
        assert_eq!(classify_box(&tie, 1), BoxVerdict::AlwaysWrong);
    }

    #[test]
    fn shadow_encloses_exact_propagation() {
        let net = net();
        let shadow = FloatShadow::new(&net);
        let x = [r(120), r(-80)];
        let xf = FloatShadow::enclose_input(&x);
        for delta in [0, 1, 4, 11, 25] {
            let region = NoiseRegion::symmetric(delta, 2);
            let exact = output_intervals(&net, &x, &region).unwrap();
            let float = shadow.output_intervals(&xf, &region);
            for (fi, iv) in float.iter().zip(&exact) {
                assert!(
                    fi.contains_rational(iv.lo()) && fi.contains_rational(iv.hi()),
                    "float {fi:?} must enclose exact {iv:?} at delta {delta}"
                );
            }
        }
    }

    #[test]
    fn shadow_stays_tight_enough_to_decide() {
        // On a comfortable margin the float tier must reach a verdict, not
        // just stay sound — otherwise screening would never pay off.
        let net = net();
        let shadow = FloatShadow::new(&net);
        let x = [r(120), r(-80)];
        let label = net.classify(&x).unwrap();
        let region = NoiseRegion::symmetric(1, 2);
        let float = shadow.output_intervals(&FloatShadow::enclose_input(&x), &region);
        assert_eq!(classify_box_float(&float, label), BoxVerdict::AlwaysCorrect);
    }

    #[test]
    fn float_verdicts_never_contradict_exact() {
        let net = net();
        let shadow = FloatShadow::new(&net);
        for (x0, x1) in [(120, -80), (37, 202), (-15, 4), (1000, 999)] {
            let x = [r(x0), r(x1)];
            let xf = FloatShadow::enclose_input(&x);
            let label = net.classify(&x).unwrap();
            for delta in [0, 2, 5, 13] {
                let region = NoiseRegion::symmetric(delta, 2);
                let exact = classify_box(&output_intervals(&net, &x, &region).unwrap(), label);
                let float = classify_box_float(&shadow.output_intervals(&xf, &region), label);
                match float {
                    // A float proof must agree with the exact proof.
                    BoxVerdict::AlwaysCorrect => assert_eq!(exact, BoxVerdict::AlwaysCorrect),
                    BoxVerdict::AlwaysWrong => assert_eq!(exact, BoxVerdict::AlwaysWrong),
                    BoxVerdict::Unknown => {} // always safe
                }
            }
        }
    }

    #[test]
    fn float_factor_encloses_exact_factor() {
        for (lo, hi) in [(-100i64, 100i64), (-11, 11), (0, 0), (-50, 25)] {
            let f = float_factor(lo, hi);
            let exact_lo = Rational::new(100 + i128::from(lo), 100);
            let exact_hi = Rational::new(100 + i128::from(hi), 100);
            assert!(f.contains_rational(exact_lo), "{f:?} vs {exact_lo}");
            assert!(f.contains_rational(exact_hi), "{f:?} vs {exact_hi}");
        }
    }

    #[test]
    #[should_panic(expected = "piecewise-linear")]
    fn shadow_rejects_sigmoid() {
        let layer = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(1)]]).unwrap(),
            vec![r(0)],
            Activation::Sigmoid,
        )
        .unwrap();
        let net = Network::new(vec![layer], Readout::MaxPool).unwrap();
        let _ = FloatShadow::new(&net);
    }

    #[test]
    fn verdicts_match_concrete_eval_on_samples() {
        let net = net();
        let x = [r(37), r(202)];
        let label = net.classify(&x).unwrap();
        for delta in [0, 1, 3, 7] {
            let region = NoiseRegion::symmetric(delta, 2);
            let enclosure = output_intervals(&net, &x, &region).unwrap();
            match classify_box(&enclosure, label) {
                BoxVerdict::AlwaysCorrect => {
                    for nv in region.iter_points() {
                        assert_eq!(net.classify(&nv.apply(&x)).unwrap(), label);
                    }
                }
                BoxVerdict::AlwaysWrong => {
                    for nv in region.iter_points() {
                        assert_ne!(net.classify(&nv.apply(&x)).unwrap(), label);
                    }
                }
                BoxVerdict::Unknown => {}
            }
        }
    }
}
