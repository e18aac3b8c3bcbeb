//! Zonotope abstract interpretation of a rational network over a noise
//! box — the middle screening tier between the float-interval screen and
//! exact rational propagation (DESIGN.md §10).
//!
//! Plain intervals forget every correlation between neurons, so the
//! pairwise output comparisons that decide a box stay `Unknown` long
//! after the *difference* of the outputs is already sign-definite. A
//! [`ZonotopeShadow`] propagates [`AffineForm`]s instead: one shared
//! noise symbol per input node carries each input's noise *linearly and
//! exactly* through the affine layers, and only `ReLU` loses precision —
//! via a DeepPoly/DeepZ-style single-neuron relaxation (λ-slope plus one
//! fresh noise symbol, [`relu_form`]). Classification then happens on the
//! zonotope of each **output difference** ([`classify_box_zonotope`]),
//! where the shared symbols cancel, which is what slashes the
//! branch-and-bound split count on wide noise regions. The fault domain
//! screens with the same kernel: a fault box's shadow
//! ([`ZonotopeShadow::from_enclosures`]) gives each faulted parameter a
//! shared symbol of its own, so correlated fault contributions cancel in
//! the same differences (DESIGN.md §11).
//!
//! Soundness is inherited from [`AffineForm`]'s contract (every rounded
//! operation charges its ulp gap to the error term; rational constants
//! enter with their conversion slack) plus the relaxation lemma proven at
//! [`relu_form`]: for every noise vector in the box there is one shared
//! symbol valuation under which every neuron's form evaluates to a value
//! whose deviation from the exact rational value is covered by the form's
//! error term. Verdicts derived from the difference ranges are therefore
//! *sound proofs* about the exact network, exactly like the float tier's
//! (`propagate::classify_box_float`) — the zonotope tier is less often
//! `Unknown`, never less sound.

use fannet_nn::{Activation, Network};
use fannet_numeric::affine::{enclose_rational, ulp_gap};
use fannet_numeric::{AffineForm, Rational};

use crate::propagate::{classify_endpoints, BoxVerdict, LayerEnclosures};
use crate::region::NoiseRegion;

/// A precomputed affine-form copy of a network — the zonotope screen of
/// both search domains, built once per network ([`ZonotopeShadow::new`])
/// or fault box ([`ZonotopeShadow::from_enclosures`]) and reused across
/// every box of every query.
///
/// Each parameter is a [`ParamForm`]: a point, or a faulted interval that
/// carries its own shared symbol. Symbols are numbered in propagation
/// order: the input symbols `0..inputs`, then per neuron the fault
/// symbols of its bias and then of its weights, then a fresh symbol per
/// unstable `ReLU` neuron — after every fault symbol, so a fault box and
/// its split halves number their fault symbols alike.
#[derive(Debug, Clone)]
pub struct ZonotopeShadow {
    layers: Vec<LayerEnclosures<ParamForm>>,
    inputs: usize,
    /// Faulted parameters, whose symbols follow the input symbols.
    faulted: usize,
}

/// The `f64` encoding of one exact network parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamForm {
    /// `(center, slack)`: a constant within `center ± slack`
    /// ([`enclose_rational`]), how exact semantics enter the `f64`
    /// zonotope domain without losing soundness.
    Point(f64, f64),
    /// `(center, radius)`: every value of a faulted parameter's interval
    /// lies within `center ± radius`, carried by its own shared symbol.
    Faulted(f64, f64),
}

impl ZonotopeShadow {
    /// Builds the shadow of a rational network.
    ///
    /// # Panics
    ///
    /// Panics if the network is not piecewise-linear (same admissibility
    /// condition as `propagate::output_intervals`).
    #[must_use]
    pub fn new(net: &Network<Rational>) -> Self {
        let point = |&v: &Rational| {
            let (center, slack) = enclose_rational(v);
            ParamForm::Point(center, slack)
        };
        let layers = net.layers().iter().map(|layer| LayerEnclosures {
            params: (layer.weights().as_slice().iter().chain(layer.biases()))
                .map(point)
                .collect(),
            activation: layer.activation(),
            stuck: Vec::new(),
        });
        Self::from_enclosures(net.inputs(), layers.collect())
    }

    /// Builds a shadow with `inputs` inputs from its layers' encodings.
    ///
    /// # Panics
    ///
    /// Panics if a layer is not piecewise-linear.
    #[must_use]
    pub fn from_enclosures(inputs: usize, layers: Vec<LayerEnclosures<ParamForm>>) -> Self {
        assert!(
            layers
                .iter()
                .all(|layer| layer.activation.is_piecewise_linear()),
            "zonotope screening requires piecewise-linear activations"
        );
        let params = layers.iter().flat_map(|layer| &layer.params);
        let faulted = params
            .filter(|p| matches!(p, ParamForm::Faulted(..)))
            .count();
        ZonotopeShadow {
            layers,
            inputs,
            faulted,
        }
    }

    /// Replaces the encoding of parameter `index` of layer `layer`, in
    /// [`LayerEnclosures::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_param(&mut self, layer: usize, index: usize, form: ParamForm) {
        let param = &mut self.layers[layer].params[index];
        let faulted = |p: &ParamForm| usize::from(matches!(p, ParamForm::Faulted(..)));
        self.faulted = self.faulted - faulted(param) + faulted(&form);
        *param = form;
    }

    /// Number of faulted parameters.
    #[must_use]
    pub fn faulted_params(&self) -> usize {
        self.faulted
    }

    /// Per-feature `(center, slack)` enclosure of an exact input, computed
    /// once per query and reused across every box.
    #[must_use]
    pub fn enclose_input(x: &[Rational]) -> Vec<(f64, f64)> {
        x.iter().map(|&xk| enclose_rational(xk)).collect()
    }

    /// Affine-form output enclosure of the network on `x_enclosure` under
    /// every noise vector in `region` and every value of each faulted
    /// parameter — the zonotope counterpart of
    /// `propagate::output_intervals`, guaranteed to enclose it under one
    /// shared symbol valuation per noise vector and parameter assignment.
    ///
    /// Each neuron's form is built in place: it starts at its bias, then
    /// adds one term per input in order, [`AffineForm::add_term`] for a
    /// point weight and `add_faulted_term` for a faulted one, so a
    /// network of points has the bits of one [`affine_combination`] per
    /// neuron.
    ///
    /// [`affine_combination`]: fannet_numeric::affine::affine_combination
    ///
    /// # Panics
    ///
    /// Panics if widths disagree (callers validate once per query).
    #[must_use]
    pub fn output_forms(
        &self,
        x_enclosure: &[(f64, f64)],
        region: &NoiseRegion,
    ) -> Vec<AffineForm> {
        assert_eq!(x_enclosure.len(), self.inputs, "input width mismatch");
        assert_eq!(region.nodes(), self.inputs, "region width mismatch");

        let mut acts: Vec<AffineForm> = x_enclosure
            .iter()
            .zip(region.ranges())
            .enumerate()
            .map(|(k, (&(xc, xs), &(lo, hi)))| input_form(xc, xs, lo, hi, k))
            .collect();
        let mut fault_symbol = self.inputs;
        let mut fresh_symbol = self.inputs + self.faulted;

        for layer in &self.layers {
            let cols = acts.len();
            let (weights, biases) = layer
                .params
                .split_at(layer.params.len() / (cols + 1) * cols);
            let mut next = Vec::with_capacity(biases.len());
            for (row, &bias) in weights.chunks_exact(cols).zip(biases) {
                let mut z = match bias {
                    ParamForm::Point(center, slack) => AffineForm::from_center_slack(center, slack),
                    ParamForm::Faulted(center, radius) => {
                        let z = AffineForm::with_symbol(center, fault_symbol, radius);
                        fault_symbol += 1;
                        z
                    }
                };
                for (&weight, a) in row.iter().zip(&acts) {
                    match weight {
                        ParamForm::Point(w, slack) => z.add_term(w, slack, a),
                        ParamForm::Faulted(w, radius) => {
                            add_faulted_term(&mut z, w, radius, fault_symbol, a);
                            fault_symbol += 1;
                        }
                    }
                }
                next.push(match layer.activation {
                    Activation::Identity => z,
                    Activation::ReLU => relu_form(&z, &mut fresh_symbol),
                    Activation::Sigmoid => unreachable!("checked piecewise-linear at construction"),
                });
            }
            // A stuck value's spread, slack or radius, is all error term.
            for &(neuron, ParamForm::Point(c, s) | ParamForm::Faulted(c, s)) in &layer.stuck {
                next[neuron] = AffineForm::from_center_slack(c, s);
            }
            acts = next;
        }
        acts
    }
}

/// `z += ŵ·a` for a faulted parameter `ŵ ∈ [w − radius, w + radius]`
/// carried by the shared symbol `symbol`, which no other term mentions.
///
/// Soundness: write the exact parameter as `ŵ = w + δ` with
/// `|δ| ≤ radius`, and let `v = a(ε, e)` be the exact multiplicand under
/// the shared valuation. Then
///
/// ```text
/// ŵ·v = w·v + δ·center(a) + δ·(v − center(a))
/// ```
///
/// — the first term is [`AffineForm::add_term`] (rounding charged there),
/// the second is `(radius·center(a))·ε_w` with `ε_w = δ/radius ∈ [−1, 1]`
/// a **single shared valuation** (each parameter is multiplied exactly
/// once per propagation, so one `ε_w` witnesses every occurrence of its
/// effect downstream; the symbol is fresh, so its coefficient is set, not
/// summed), and the third is bounded by `radius·radius(a)`, absorbed into
/// the error term. Each rounded operation charges its [`ulp_gap`]; upward
/// rounding keeps the charges sound.
fn add_faulted_term(z: &mut AffineForm, w: f64, radius: f64, symbol: usize, a: &AffineForm) {
    z.add_term(w, 0.0, a);
    let t = radius * a.center();
    z.set_coeff(symbol, t);
    z.add_err(ulp_gap(t));
    let rad = a.radius();
    if rad > 0.0 {
        z.add_err((radius * rad).next_up());
    }
}

/// The affine form of input node `k` under relative noise `p ∈ [lo, hi]`
/// percent: `x̂ · (100 + p)/100`, linear in `p`, parameterized by the
/// shared symbol `ε_k` so the *same* `p` drives every place the input
/// feeds into.
///
/// Writing the noise factor as `mid + rad·ε_k` with
/// `mid = (200 + lo + hi)/200` and `rad = (hi − lo)/200`, the form is
/// `(x̂c ± x̂s) · (mid + rad·ε_k)` via [`AffineForm::scale`]. All integer →
/// `f64` conversions and the midpoint/radius arithmetic charge their
/// rounding gaps; the radius coefficient is rounded *up* so the scaled
/// symbol always covers the true factor range (a larger coefficient only
/// widens the enclosure).
///
/// The input step of [`ZonotopeShadow::output_forms`] in both search
/// domains.
#[must_use]
pub fn input_form(xc: f64, xs: f64, lo: i64, hi: i64, symbol: usize) -> AffineForm {
    // Upward-rounded accumulation of non-negative slack magnitudes.
    let up = |a: f64, b: f64| (a + b).next_up();
    // i128 arithmetic cannot overflow for any i64 bounds; the i128 → f64
    // conversions round to nearest (gap-charged below).
    let l = (200i128 + 2 * i128::from(lo)) as f64;
    let h = (200i128 + 2 * i128::from(hi)) as f64;
    let conv_slack = up(ulp_gap(l), ulp_gap(h));

    let sum = l + h;
    let mid = sum / 400.0;
    // Conservative: the conversion/addition slacks are not divided down
    // by 400 (dividing only shrinks them), each rounded op adds its gap.
    let mid_slack = up(up(conv_slack, ulp_gap(sum)), ulp_gap(mid));

    let diff = h - l;
    let rad = diff / 400.0;
    let rad_slack = up(up(conv_slack, ulp_gap(diff)), ulp_gap(rad));

    let mut factor = AffineForm::with_symbol(mid, symbol, (rad + rad_slack).next_up());
    factor.add_err(mid_slack);
    factor.scale(xc, xs)
}

/// DeepZ-style sound `ReLU` relaxation of one neuron's pre-activation
/// form, allocating one fresh noise symbol when the neuron is unstable.
///
/// With sound concretization bounds `[lo, hi]` of the input form:
///
/// * `hi ≤ 0` — the neuron is provably inactive: the exact output is 0.
/// * `lo ≥ 0` — provably active: `ReLU` is the identity on every enclosed
///   value, the form passes through unchanged.
/// * otherwise (unstable) — choose the slope `λ = hi/(hi−lo)` (clamped to
///   `[0, 1]`; *any* value in `[0, 1]` is admissible, this one minimizes
///   the residue). For every `v ∈ [lo, hi]`,
///   `relu(v) − λ·v ∈ [0, D]` with `D = max(λ·(−lo), (1−λ)·hi)` — on the
///   negative side the residue is `−λ·v`, on the positive side
///   `(1−λ)·v`, both nonnegative and maximal at the endpoints. The
///   result is `λ·form + D/2 + (D/2)·ε_fresh`: choosing
///   `ε_fresh = (residue − D/2)/(D/2) ∈ [−1, 1]` witnesses the exact
///   output under the extended shared valuation. `D` and `D/2` are
///   rounded upward so the cover survives floating point.
///
/// Non-finite bounds (an overflowed form) degrade to [`AffineForm::top`].
#[must_use]
pub fn relu_form(f: &AffineForm, next_symbol: &mut usize) -> AffineForm {
    let (lo, hi) = f.range();
    if hi <= 0.0 {
        return AffineForm::constant(0.0);
    }
    if lo >= 0.0 {
        return f.clone();
    }
    if !lo.is_finite() || !hi.is_finite() {
        return AffineForm::top();
    }
    // hi > 0 > lo, both finite; hi − lo may still overflow, in which case
    // λ underflows toward 0 — a valid (if loose) slope choice.
    let lambda = (hi / (hi - lo)).clamp(0.0, 1.0);
    let a = (lambda * (-lo)).next_up();
    let b = ((1.0 - lambda).next_up() * hi).next_up();
    let half = ((a.max(b)) * 0.5).next_up();

    let mut out = f.scale(lambda, 0.0).translate(half);
    out.set_coeff(*next_symbol, half);
    *next_symbol += 1;
    out
}

/// Zonotope-tier counterpart of `propagate::classify_box` — identical
/// tie-break semantics, but decided on the **pairwise output
/// differences** computed zonotope-side, so shared-symbol correlations
/// cancel instead of decorrelating into intervals first.
///
/// Soundness: `target.sub(rival)` encloses the exact difference
/// `out_label − out_j` for every noise vector in the box (the shared
/// valuation witnesses both outputs simultaneously), and its
/// [`AffineForm::range`] bounds are outer. Hence, with the paper's
/// lower-index tie-break (`j < label` wins ties against the label):
///
/// * `dlo > 0` proves the label strictly beats rival `j < label`
///   everywhere (`dlo ≥ 0` suffices for `j > label`);
/// * `dhi ≤ 0` proves rival `j < label` wins everywhere (`dhi < 0` for
///   `j > label`), i.e. every grid point misclassifies.
///
/// A poisoned form ranges over `(-∞, +∞)` and therefore never decides.
///
/// # Panics
///
/// Panics if `label >= outputs.len()`.
#[must_use]
pub fn classify_box_zonotope(outputs: &[AffineForm], label: usize) -> BoxVerdict {
    // Rival `j` sits at minus the target's margin over it, the target at 0.
    classify_endpoints(outputs.len(), label, |j| {
        if j == label {
            return (0.0, 0.0);
        }
        let (dlo, dhi) = outputs[label].sub(&outputs[j]).range();
        (-dhi, -dlo)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{classify_box, classify_box_float, output_intervals, FloatShadow};
    use fannet_nn::{DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    /// 2-4-2 rational ReLU network with hand-set weights (the same one
    /// `propagate`'s tests use).
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
    fn forms_enclose_exact_outputs_on_every_grid_point() {
        let net = net();
        let shadow = ZonotopeShadow::new(&net);
        let x = [r(120), r(-80)];
        let xe = ZonotopeShadow::enclose_input(&x);
        for delta in [0, 1, 4, 11] {
            let region = NoiseRegion::symmetric(delta, 2);
            let forms = shadow.output_forms(&xe, &region);
            for nv in region.iter_points() {
                let out = net.forward(&nv.apply(&x)).unwrap();
                for (form, &v) in forms.iter().zip(&out) {
                    let (lo, hi) = form.range();
                    let vf = v.to_f64();
                    assert!(
                        lo <= vf.next_up() && vf.next_down() <= hi,
                        "output {v} of noise {nv} escapes [{lo}, {hi}] at delta {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn zonotope_is_tighter_than_intervals_on_differences() {
        // The identity-comparator difference x0·f0 − x1·f1 decorrelates
        // badly in intervals; the zonotope keeps each factor linear in
        // its own symbol and must produce a strictly tighter difference
        // than the interval subtraction — and at least as tight a
        // verdict everywhere.
        let net = net();
        let shadow = ZonotopeShadow::new(&net);
        let float = FloatShadow::new(&net);
        let x = [r(37), r(202)];
        let xe = ZonotopeShadow::enclose_input(&x);
        let xf = FloatShadow::enclose_input(&x);
        let mut zonotope_decides_more = false;
        for delta in [5, 10, 20, 30, 40, 50] {
            let region = NoiseRegion::symmetric(delta, 2);
            let label = net.classify(&x).unwrap();
            let fv = classify_box_float(&float.output_intervals(&xf, &region), label);
            let zv = classify_box_zonotope(&shadow.output_forms(&xe, &region), label);
            // The zonotope may only refine Unknown, never flip a proof.
            match fv {
                BoxVerdict::Unknown => {
                    if zv != BoxVerdict::Unknown {
                        zonotope_decides_more = true;
                    }
                }
                decided => assert_eq!(zv, decided, "tiers disagree at ±{delta}%"),
            }
        }
        assert!(
            zonotope_decides_more,
            "the zonotope tier must decide at least one box the interval tier cannot"
        );
    }

    #[test]
    fn zonotope_verdicts_never_contradict_exact() {
        let net = net();
        let shadow = ZonotopeShadow::new(&net);
        for (x0, x1) in [(120, -80), (37, 202), (-15, 4), (1000, 999)] {
            let x = [r(x0), r(x1)];
            let xe = ZonotopeShadow::enclose_input(&x);
            let label = net.classify(&x).unwrap();
            for delta in [0, 2, 5, 13, 30] {
                let region = NoiseRegion::symmetric(delta, 2);
                let zv = classify_box_zonotope(&shadow.output_forms(&xe, &region), label);
                // Ground truth by exhaustive evaluation (small grids).
                let mut all_correct = true;
                let mut all_wrong = true;
                for nv in region.iter_points() {
                    if net.classify(&nv.apply(&x)).unwrap() == label {
                        all_wrong = false;
                    } else {
                        all_correct = false;
                    }
                }
                match zv {
                    BoxVerdict::AlwaysCorrect => {
                        assert!(all_correct, "unsound Correct at x={x:?} delta={delta}");
                    }
                    BoxVerdict::AlwaysWrong => {
                        assert!(all_wrong, "unsound Wrong at x={x:?} delta={delta}");
                    }
                    BoxVerdict::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn zonotope_agrees_with_exact_interval_verdicts_when_both_decide() {
        let net = net();
        let shadow = ZonotopeShadow::new(&net);
        let x = [r(37), r(202)];
        let xe = ZonotopeShadow::enclose_input(&x);
        let label = net.classify(&x).unwrap();
        for delta in [0, 1, 3, 7, 15] {
            let region = NoiseRegion::symmetric(delta, 2);
            let exact = classify_box(&output_intervals(&net, &x, &region).unwrap(), label);
            let zono = classify_box_zonotope(&shadow.output_forms(&xe, &region), label);
            if exact != BoxVerdict::Unknown && zono != BoxVerdict::Unknown {
                assert_eq!(exact, zono, "delta {delta}");
            }
        }
    }

    #[test]
    fn relu_form_cases() {
        let mut sym = 5;
        // Provably inactive: exact zero.
        let neg = AffineForm::with_symbol(-10.0, 0, 1.0);
        let out = relu_form(&neg, &mut sym);
        let (lo, hi) = out.range();
        assert!(lo <= 0.0 && (0.0..1e-300).contains(&hi), "inactive is zero");
        assert_eq!(sym, 5, "stable neurons allocate no symbol");
        // Provably active: identity.
        let pos = AffineForm::with_symbol(10.0, 0, 1.0);
        assert_eq!(relu_form(&pos, &mut sym), pos);
        assert_eq!(sym, 5);
        // Unstable: fresh symbol, encloses relu at sampled points.
        let unstable = AffineForm::with_symbol(1.0, 0, 3.0); // ⊇ [-2, 4]
        let out = relu_form(&unstable, &mut sym);
        assert_eq!(sym, 6);
        assert!(out.coeffs().len() == 6 && out.coeffs()[5] > 0.0);
        let (lo, hi) = out.range();
        // relu over [-2, 4] spans [0, 4]; the relaxation must cover it.
        assert!(lo <= 0.0 && hi >= 4.0);
        // Overflowed input degrades to top.
        let wide = AffineForm::top();
        assert_eq!(
            relu_form(&wide, &mut sym).range(),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
    }

    #[test]
    fn classify_respects_tie_break() {
        // Exact tie: both outputs the same form → the difference carries
        // only rounding slack around 0. A float-domain tier cannot prove
        // a tie in either direction (the exact tier exists for that), so
        // both labels must stay Unknown — never a wrong proof.
        let a = AffineForm::with_symbol(5.0, 0, 1.0);
        let outs = vec![a.clone(), a.clone()];
        assert_eq!(classify_box_zonotope(&outs, 0), BoxVerdict::Unknown);
        assert_eq!(classify_box_zonotope(&outs, 1), BoxVerdict::Unknown);
        // Separated: rival strictly below.
        let low = AffineForm::with_symbol(1.0, 0, 1.0);
        let high = AffineForm::with_symbol(5.0, 0, 1.0);
        let outs = vec![low.clone(), high.clone()];
        assert_eq!(classify_box_zonotope(&outs, 1), BoxVerdict::AlwaysCorrect);
        assert_eq!(classify_box_zonotope(&outs, 0), BoxVerdict::AlwaysWrong);
        // Correlated overlap: [1+ε, 5+ε] share ε, difference is constant 4.
        // Interval-wise they overlap at nothing here; make them overlap:
        let low_wide = AffineForm::with_symbol(1.0, 0, 10.0);
        let high_wide = AffineForm::with_symbol(5.0, 0, 10.0);
        let outs = vec![low_wide, high_wide];
        // Interval view: [-9, 11] vs [-5, 15] overlap → Unknown; the
        // shared symbol cancels, difference = 4 exactly → decided.
        assert_eq!(classify_box_zonotope(&outs, 1), BoxVerdict::AlwaysCorrect);
    }

    #[test]
    fn asymmetric_and_point_regions() {
        let net = net();
        let shadow = ZonotopeShadow::new(&net);
        let x = [r(120), r(-80)];
        let xe = ZonotopeShadow::enclose_input(&x);
        // A point region concretizes to (nearly) the exact forward pass.
        let nv = crate::noise::NoiseVector::new(vec![3, -4]);
        let region = NoiseRegion::point(&nv);
        let forms = shadow.output_forms(&xe, &region);
        let out = net.forward(&nv.apply(&x)).unwrap();
        for (form, &v) in forms.iter().zip(&out) {
            let (lo, hi) = form.range();
            let vf = v.to_f64();
            assert!(lo <= vf.next_up() && vf.next_down() <= hi);
            assert!(hi - lo < 1e-9, "point region must stay tight: [{lo}, {hi}]");
        }
        // Asymmetric region bounds also enclose.
        let region = NoiseRegion::new(vec![(-12, 0), (0, 12)]);
        let forms = shadow.output_forms(&xe, &region);
        for nv in region.iter_points().step_by(17) {
            let out = net.forward(&nv.apply(&x)).unwrap();
            for (form, &v) in forms.iter().zip(&out) {
                let (lo, hi) = form.range();
                let vf = v.to_f64();
                assert!(lo <= vf.next_up() && vf.next_down() <= hi);
            }
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
        let _ = ZonotopeShadow::new(&net);
    }
}
