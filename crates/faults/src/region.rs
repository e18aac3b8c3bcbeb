//! The fault space as a box of per-parameter intervals, plus concrete
//! faulted-network assignments drawn from it (DESIGN.md §11).
//!
//! A [`FaultRegion`] is the abstract state of the fault-space
//! branch-and-bound: one exact [`Interval`] per weight and bias, with the
//! unfaulted parameters kept as point intervals, plus any stuck-at
//! overrides. [`FaultRegion::lift`] gives each [`FaultModel`] its
//! interval-weight **over-approximation**:
//!
//! * the continuous models (`WeightNoise`, `Quantization`) are boxes by
//!   definition — the lift is exact;
//! * `BitFlips { budget ≥ 1 }` has a *correlated* discrete fault set
//!   (at most `budget` parameters deviate simultaneously); the lift
//!   replaces it with the independent product of per-parameter hulls
//!   `[−|w|, 2|w|] ⊇ {w, −w, 2w, w/2}`. Independence can only **add**
//!   assignments — every legal faulted network picks its parameters
//!   inside the per-parameter hulls, so the product box contains it —
//!   hence verdicts of the form "every assignment in the box is correct"
//!   transfer to the correlated set (the soundness lemma of DESIGN.md
//!   §11). The converse direction does not transfer, which is why the
//!   checker derives `Vulnerable` only from *concrete* in-budget
//!   assignments for this model.
//!
//! Splitting ([`FaultRegion::split`]) bisects the widest parameter
//! interval at its midpoint — the fault-space analogue of the noise-box
//! split, refining the dependency-problem losses of interval-weight
//! propagation.

use fannet_nn::{Activation, Network};
use fannet_numeric::{Interval, Rational};
use fannet_tensor::vector;
use fannet_verify::propagate::{FloatShadow, LayerEnclosures};
use fannet_verify::zonotope::ZonotopeShadow;

use crate::model::FaultModel;
use crate::propagate::encode;

/// A box of faulted parameter assignments: per-parameter exact intervals
/// plus stuck-at output overrides, with the `f64` encodings the screens
/// read, one shadow network per screen. The lift encodes every parameter
/// and each split the bisected one; the exact intervals stay the source
/// of truth.
#[derive(Debug, Clone)]
pub struct FaultRegion {
    pub(crate) layers: Vec<FaultLayer>,
    pub(crate) inputs: usize,
    pub(crate) float: FloatShadow,
    pub(crate) zonotope: ZonotopeShadow,
}

/// Equal exact intervals; the encodings are functions of them.
impl PartialEq for FaultRegion {
    fn eq(&self, other: &Self) -> bool {
        self.inputs == other.inputs && self.layers == other.layers
    }
}

impl Eq for FaultRegion {}

/// One dense layer of the lifted network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultLayer {
    /// `rows × cols` weight intervals, row-major.
    pub(crate) weights: Vec<Interval>,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) biases: Vec<Interval>,
    pub(crate) activation: Activation,
    /// Post-activation overrides `(neuron, value)` — applied after the
    /// activation function, before the next layer.
    pub(crate) stuck: Vec<(usize, Rational)>,
}

impl FaultRegion {
    /// Lifts a network into the interval-weight box of `model` (see the
    /// module doc for per-model semantics).
    ///
    /// # Errors
    ///
    /// Returns the message of [`FaultModel::validate`] on an
    /// out-of-domain model, or a message for a non-piecewise-linear
    /// network (the same admissibility condition as the input-noise
    /// propagators — an error rather than a panic so resident servers
    /// can contain it per request).
    pub fn lift(net: &Network<Rational>, model: &FaultModel) -> Result<FaultRegion, String> {
        if !net.is_piecewise_linear() {
            return Err("fault verification requires piecewise-linear activations".to_string());
        }
        model.validate(net)?;
        // Every bound is checked: an overflowing one is the model's error.
        let lift_param = |&w: &Rational| -> Result<Interval, String> {
            let bounds = match model {
                FaultModel::WeightNoise { rel_eps } => rel_eps
                    .checked_mul(w.abs())
                    .and_then(|radius| w.checked_sub(radius).zip(w.checked_add(radius))),
                FaultModel::StuckAt { .. } => Some((w, w)),
                // Flips of zero are zero (sign and exponent bits of a
                // zero significand do not change the value).
                FaultModel::BitFlips { budget } if *budget == 0 || w.is_zero() => Some((w, w)),
                // hull{w, −w, 2w, w/2}: [−w, 2w] for positive w, [2w, −w]
                // for negative.
                FaultModel::BitFlips { .. } => Rational::ZERO
                    .checked_sub(w)
                    .zip(w.checked_add(w))
                    .map(|(neg, double)| (neg.min(double), neg.max(double))),
                FaultModel::Quantization { denom_bits } => {
                    let e = FaultModel::quantization_error_bound(*denom_bits);
                    w.checked_sub(e).zip(w.checked_add(e))
                }
            };
            let (lo, hi) = bounds.ok_or_else(|| {
                format!("the {model} lift of parameter {w} overflows the exact domain")
            })?;
            Ok(Interval::new(lo, hi))
        };
        let lift_all = |values: &[Rational]| -> Result<Vec<Interval>, String> {
            values.iter().map(lift_param).collect()
        };
        let layers = net
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                let w = layer.weights();
                let stuck = match model {
                    FaultModel::StuckAt {
                        layer: sl,
                        neuron,
                        value,
                    } if *sl == l => vec![(*neuron, *value)],
                    _ => Vec::new(),
                };
                Ok(FaultLayer {
                    weights: lift_all(w.as_slice())?,
                    rows: w.rows(),
                    cols: w.cols(),
                    biases: lift_all(layer.biases())?,
                    activation: layer.activation(),
                    stuck,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(FaultRegion::encoded(layers, net.inputs()))
    }

    /// The lift's encoding step: one [`encode`] per exact rational of
    /// `layers`, into the float and the zonotope shadow.
    fn encoded(layers: Vec<FaultLayer>, inputs: usize) -> FaultRegion {
        let (float, zonotope) = layers
            .iter()
            .map(|layer| {
                let params = layer.weights.iter().chain(&layer.biases);
                let stuck = layer.stuck.iter().map(|&(neuron, v)| {
                    let (float, form) = encode(&Interval::point(v));
                    ((neuron, float), (neuron, form))
                });
                let (float_params, forms) = params.map(encode).unzip();
                let (float_stuck, form_stuck) = stuck.unzip();
                let activation = layer.activation;
                (
                    LayerEnclosures {
                        params: float_params,
                        activation,
                        stuck: float_stuck,
                    },
                    LayerEnclosures {
                        params: forms,
                        activation,
                        stuck: form_stuck,
                    },
                )
            })
            .unzip();
        FaultRegion {
            layers,
            inputs,
            float: FloatShadow::from_enclosures(inputs, float),
            zonotope: ZonotopeShadow::from_enclosures(inputs, zonotope),
        }
    }

    /// Number of input features of the lifted network.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output nodes of the lifted network.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("networks have ≥1 layer").rows
    }

    /// Number of parameters whose interval is not a single point.
    #[must_use]
    pub fn faulted_params(&self) -> usize {
        self.zonotope.faulted_params()
    }

    /// `true` when every parameter interval is a point — propagation is
    /// then a concrete forward pass and the region cannot be split.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.faulted_params() == 0
    }

    /// The float screen's network, stuck-at overrides included.
    #[must_use]
    pub fn float_shadow(&self) -> &FloatShadow {
        &self.float
    }

    /// The zonotope screen's network, stuck-at overrides included.
    #[must_use]
    pub fn zonotope_shadow(&self) -> &ZonotopeShadow {
        &self.zonotope
    }

    /// All parameter intervals with their `(layer, index)` in the canonical
    /// order (per layer: weights row-major, then biases) — the tie-break
    /// order of the split policy. (The zonotope tier allocates its fault
    /// symbols in *propagation* order — per neuron its bias, then its
    /// weights — which only needs to be distinct and deterministic, not
    /// canonical.)
    fn params(&self) -> impl Iterator<Item = ((usize, usize), &Interval)> {
        self.layers.iter().enumerate().flat_map(|(l, layer)| {
            let params = layer.weights.iter().chain(&layer.biases);
            params.enumerate().map(move |(i, iv)| ((l, i), iv))
        })
    }

    /// Sets parameter `index` of layer `layer` and re-encodes it.
    fn set_param(&mut self, (layer, index): (usize, usize), iv: Interval) {
        let (float, form) = encode(&iv);
        self.float.set_param(layer, index, float);
        self.zonotope.set_param(layer, index, form);
        let exact = &mut self.layers[layer];
        match exact.weights.get_mut(index) {
            Some(weight) => *weight = iv,
            None => exact.biases[index - exact.weights.len()] = iv,
        }
    }

    /// Bisects the widest parameter interval at its midpoint — the split
    /// policy of the fault-space branch-and-bound (DESIGN.md §11): the
    /// widest absolute interval is where the dependency problem loses the
    /// most, ties break toward the canonical parameter order so the
    /// search is deterministic.
    ///
    /// Returns `None` for point regions.
    #[must_use]
    pub fn split(&self) -> Option<(FaultRegion, FaultRegion)> {
        let (widest, iv) =
            self.params()
                .filter(|(_, iv)| !iv.is_point())
                .max_by(|(pa, a), (pb, b)| {
                    // Strictly-wider wins; on ties the *earlier* parameter
                    // wins, so reverse the positional order under max_by.
                    a.width().cmp(&b.width()).then_with(|| pb.cmp(pa))
                })?;
        let (lo_half, hi_half) = iv.bisect();
        let mut a = self.clone();
        a.set_param(widest, lo_half);
        let mut b = self.clone();
        b.set_param(widest, hi_half);
        Some((a, b))
    }

    /// Largest *relative* parameter width — `width / max(|midpoint|, 1)`
    /// over all parameters. Dividing by the midpoint magnitude makes
    /// widths of large and small weights commensurable, and clamping
    /// the denominator at 1 keeps near-zero parameters from dominating;
    /// the adaptive joint split policy (DESIGN.md §12) compares this
    /// against the noise factor's normalized width. Zero for point
    /// regions.
    #[must_use]
    pub fn normalized_width(&self) -> Rational {
        let one = Rational::from_integer(1);
        self.params()
            .map(|(_, iv)| iv.width() / iv.midpoint().abs().max(one))
            .max()
            .unwrap_or(Rational::from_integer(0))
    }

    /// The concrete network with every parameter at its interval
    /// midpoint — a legal assignment for the continuous fault models
    /// (any sub-box of their lift is entirely in-model).
    #[must_use]
    pub fn midpoint(&self) -> FaultedNetwork {
        self.assignment(Interval::midpoint)
    }

    /// The concrete network with every parameter at its lower bound.
    #[must_use]
    pub fn corner_lo(&self) -> FaultedNetwork {
        self.assignment(|iv| iv.lo())
    }

    /// The concrete network with every parameter at its upper bound.
    #[must_use]
    pub fn corner_hi(&self) -> FaultedNetwork {
        self.assignment(|iv| iv.hi())
    }

    /// A concrete assignment with `pick` choosing one value per interval.
    fn assignment(&self, pick: impl Fn(&Interval) -> Rational) -> FaultedNetwork {
        FaultedNetwork {
            layers: self
                .layers
                .iter()
                .map(|layer| FaultedLayerConcrete {
                    weights: layer.weights.iter().map(&pick).collect(),
                    rows: layer.rows,
                    cols: layer.cols,
                    biases: layer.biases.iter().map(&pick).collect(),
                    activation: layer.activation,
                    stuck: layer.stuck.clone(),
                })
                .collect(),
            inputs: self.inputs,
        }
    }
}

/// A concrete faulted network: exact parameter values plus stuck-at
/// output overrides — the object sampled by cross-validation tests and
/// evaluated for counterexample witnesses.
///
/// This is *not* a [`Network`] because stuck-at overrides change the
/// layer semantics (a forced post-activation output has no weight-space
/// encoding in general).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultedNetwork {
    layers: Vec<FaultedLayerConcrete>,
    inputs: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultedLayerConcrete {
    weights: Vec<Rational>,
    rows: usize,
    cols: usize,
    biases: Vec<Rational>,
    activation: Activation,
    stuck: Vec<(usize, Rational)>,
}

impl FaultedNetwork {
    /// The unfaulted copy of `net` (identity assignment) — the starting
    /// point for explicit single-fault enumeration.
    #[must_use]
    pub fn from_network(net: &Network<Rational>) -> Self {
        FaultedNetwork {
            layers: net
                .layers()
                .iter()
                .map(|layer| FaultedLayerConcrete {
                    weights: layer.weights().as_slice().to_vec(),
                    rows: layer.weights().rows(),
                    cols: layer.weights().cols(),
                    biases: layer.biases().to_vec(),
                    activation: layer.activation(),
                    stuck: Vec::new(),
                })
                .collect(),
            inputs: net.inputs(),
        }
    }

    /// Number of input features.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Overwrites one weight (`layer`, row-major `index`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_weight(&mut self, layer: usize, index: usize, value: Rational) {
        self.layers[layer].weights[index] = value;
    }

    /// Reads one weight (`layer`, row-major `index`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn weight(&self, layer: usize, index: usize) -> Rational {
        self.layers[layer].weights[index]
    }

    /// Overwrites one bias.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_bias(&mut self, layer: usize, index: usize, value: Rational) {
        self.layers[layer].biases[index] = value;
    }

    /// Reads one bias.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn bias(&self, layer: usize, index: usize) -> Rational {
        self.layers[layer].biases[index]
    }

    /// Per-layer `(weights, biases)` parameter counts, in layer order.
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|l| (l.weights.len(), l.biases.len()))
            .collect()
    }

    /// Forces neuron `neuron` of `layer` to post-activation `value`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_stuck(&mut self, layer: usize, neuron: usize, value: Rational) {
        assert!(neuron < self.layers[layer].rows, "stuck neuron in range");
        self.layers[layer].stuck.push((neuron, value));
    }

    /// Exact forward pass with stuck-at overrides applied after each
    /// layer's activation.
    ///
    /// # Errors
    ///
    /// Returns a message if `x.len()` does not match the input width.
    pub fn forward(&self, x: &[Rational]) -> Result<Vec<Rational>, String> {
        if x.len() != self.inputs {
            return Err(format!(
                "input of width {} against network with {} inputs",
                x.len(),
                self.inputs
            ));
        }
        let mut acts = x.to_vec();
        for layer in &self.layers {
            let mut next = Vec::with_capacity(layer.rows);
            for r in 0..layer.rows {
                let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
                let mut z = layer.biases[r];
                for (w, a) in row.iter().zip(&acts) {
                    z += *w * *a;
                }
                next.push(layer.activation.apply(z));
            }
            for &(neuron, value) in &layer.stuck {
                next[neuron] = value;
            }
            acts = next;
        }
        Ok(acts)
    }

    /// Classifies with the maxpool readout (lower-index tie-break, the
    /// paper's `L0 ≥ L1 → L0` rule — identical to
    /// [`fannet_nn::Readout::MaxPool`]).
    ///
    /// # Errors
    ///
    /// Returns a message if `x.len()` does not match the input width.
    pub fn classify(&self, x: &[Rational]) -> Result<usize, String> {
        let out = self.forward(x)?;
        Ok(vector::argmax(&out).expect("networks have ≥1 output"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::ProductRegion;
    use fannet_nn::{DenseLayer, Readout};
    use fannet_tensor::Matrix;
    use fannet_verify::region::NoiseRegion;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
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

    #[test]
    fn weight_noise_lift_brackets_every_parameter() {
        let n = net();
        let eps = Rational::new(1, 10);
        let region = FaultRegion::lift(&n, &FaultModel::WeightNoise { rel_eps: eps }).unwrap();
        assert_eq!(region.inputs(), 2);
        assert_eq!(region.outputs(), 2);
        for (layer, lifted) in n.layers().iter().zip(&region.layers) {
            for (&w, iv) in layer.weights().as_slice().iter().zip(&lifted.weights) {
                assert!(iv.contains(w));
                assert_eq!(iv.width(), Rational::new(2, 10) * w.abs());
            }
            for (&b, iv) in layer.biases().iter().zip(&lifted.biases) {
                assert!(iv.contains(b));
            }
        }
        // Zero-eps lift is the point network.
        let exact = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::ZERO,
            },
        )
        .unwrap();
        assert!(exact.is_point());
        assert_eq!(exact.faulted_params(), 0);
    }

    #[test]
    fn bit_flip_lift_hulls_all_flip_values() {
        let n = net();
        let region = FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 1 }).unwrap();
        for (layer, lifted) in n.layers().iter().zip(&region.layers) {
            for (&w, iv) in layer.weights().as_slice().iter().zip(&lifted.weights) {
                for flipped in [w, -w, w + w, w * Rational::new(1, 2)] {
                    assert!(iv.contains(flipped), "{iv:?} must contain flip {flipped}");
                }
            }
        }
        assert!(FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 0 })
            .unwrap()
            .is_point());
    }

    #[test]
    fn quantization_lift_uses_half_ulp_bound() {
        let n = net();
        let region = FaultRegion::lift(&n, &FaultModel::Quantization { denom_bits: 8 }).unwrap();
        let e = Rational::new(1, 512);
        let w = n.layers()[0].weights()[(0, 0)];
        let iv = region.layers[0].weights[0];
        assert_eq!(iv, Interval::new(w - e, w + e));
    }

    #[test]
    fn stuck_at_lift_is_point_with_override() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::StuckAt {
                layer: 0,
                neuron: 1,
                value: r(7),
            },
        )
        .unwrap();
        assert!(region.is_point());
        assert_eq!(region.layers[0].stuck, vec![(1, r(7))]);
        assert!(region.layers[1].stuck.is_empty());
        // The midpoint assignment carries the override into evaluation.
        let faulted = region.midpoint();
        let x = [r(10), r(10)];
        let plain = FaultedNetwork::from_network(&n);
        assert_ne!(faulted.forward(&x).unwrap(), plain.forward(&x).unwrap());
    }

    #[test]
    fn split_bisects_widest_parameter_deterministically() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::new(1, 4),
            },
        )
        .unwrap();
        let (a, b) = region.split().expect("non-point region splits");
        // Exactly one parameter interval changed in each half, the same
        // one — the widest is the first |−10| bias of layer 0 (width 5,
        // beating every |w| ≤ 2 weight), tie-broken toward the earlier
        // index — and their union is the original.
        let widest = region.layers[0].biases[0];
        assert_eq!(widest.width(), Rational::new(5, 1));
        assert_eq!(a.layers[0].biases[0].hull(&b.layers[0].biases[0]), widest);
        assert_eq!(a.layers[0].biases[0].hi(), b.layers[0].biases[0].lo());
        assert_eq!(a.layers[0].weights, b.layers[0].weights);
        // Determinism: splitting twice yields identical halves.
        let (a2, b2) = region.split().unwrap();
        assert_eq!((a.clone(), b.clone()), (a2, b2));
        // Point regions cannot split.
        assert!(FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 0 })
            .unwrap()
            .split()
            .is_none());
    }

    #[test]
    fn faulted_network_matches_plain_forward_when_unfaulted() {
        let n = net();
        let plain = FaultedNetwork::from_network(&n);
        for x in [[r(12), r(5)], [r(-3), r(4)], [r(9), r(8)]] {
            assert_eq!(plain.forward(&x).unwrap(), n.forward(&x).unwrap());
            assert_eq!(plain.classify(&x).unwrap(), n.classify(&x).unwrap());
        }
        assert!(plain.forward(&[r(1)]).is_err());
    }

    #[test]
    fn corner_assignments_stay_inside_the_region() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::new(1, 10),
            },
        )
        .unwrap();
        let lo = region.corner_lo();
        let hi = region.corner_hi();
        let mid = region.midpoint();
        for (l, lifted) in region.layers.iter().enumerate() {
            for (i, iv) in lifted.weights.iter().enumerate() {
                for candidate in [lo.weight(l, i), hi.weight(l, i), mid.weight(l, i)] {
                    assert!(iv.contains(candidate));
                }
            }
        }
    }

    #[test]
    fn setters_round_trip() {
        let n = net();
        let mut f = FaultedNetwork::from_network(&n);
        f.set_weight(0, 1, r(42));
        assert_eq!(f.weight(0, 1), r(42));
        f.set_bias(1, 0, r(-5));
        assert_eq!(f.bias(1, 0), r(-5));
        assert_eq!(f.layer_shapes(), vec![(6, 3), (6, 2)]);
    }

    /// A parameter k/3, k/7 or k/2^20, zero one time in six.
    fn parameter(rng: &mut StdRng) -> Rational {
        match rng.gen_range(0..6u32) {
            0 => Rational::ZERO,
            1 | 2 => Rational::new(rng.gen_range(-30i64..=30).into(), 3),
            3 => Rational::new(rng.gen_range(-30i64..=30).into(), 7),
            _ => Rational::new(rng.gen_range(-(1i64 << 22)..=1 << 22).into(), 1 << 20),
        }
    }

    /// A 2- or 3-layer ReLU network of random widths and parameters.
    fn random_net(rng: &mut StdRng) -> Network<Rational> {
        let mut widths = vec![rng.gen_range(1..=4usize)];
        for _ in 0..rng.gen_range(1..=2usize) {
            widths.push(rng.gen_range(1..=5usize));
        }
        widths.push(rng.gen_range(2..=3usize));
        let layers = widths
            .windows(2)
            .map(|pair| {
                let rows = (0..pair[1])
                    .map(|_| (0..pair[0]).map(|_| parameter(rng)).collect())
                    .collect();
                let biases = (0..pair[1]).map(|_| parameter(rng)).collect();
                DenseLayer::new(Matrix::from_rows(rows).unwrap(), biases, Activation::ReLU).unwrap()
            })
            .collect();
        Network::new(layers, Readout::MaxPool).unwrap()
    }

    fn random_model(rng: &mut StdRng, net: &Network<Rational>) -> FaultModel {
        match rng.gen_range(0..4u32) {
            0 => FaultModel::WeightNoise {
                rel_eps: Rational::new(rng.gen_range(1i64..=40).into(), 100),
            },
            1 => FaultModel::Quantization {
                denom_bits: rng.gen_range(1..=12),
            },
            2 => FaultModel::BitFlips {
                budget: rng.gen_range(1..=3),
            },
            _ => {
                let layer = rng.gen_range(0..net.layers().len());
                FaultModel::StuckAt {
                    layer,
                    neuron: rng.gen_range(0..net.layers()[layer].outputs()),
                    value: parameter(rng),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Down random chains of product splits, every box's stored
        /// encodings, in both shadows, are the lift's encoding step applied
        /// to its exact intervals, and the zonotope shadow counts exactly
        /// the non-point intervals as faulted. `Debug` prints each `f64` in
        /// its shortest round-trip form, sign included, so equal strings
        /// mean equal bits.
        #[test]
        fn split_chains_keep_every_encoding_fresh(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_net(&mut rng);
            for _ in 0..2 {
                let model = random_model(&mut rng, &net);
                let noise = NoiseRegion::new(
                    (0..net.inputs())
                        .map(|_| {
                            let lo = rng.gen_range(-20i64..=20);
                            (lo, rng.gen_range(lo..=20))
                        })
                        .collect(),
                );
                let mut region =
                    ProductRegion::new(noise, FaultRegion::lift(&net, &model).unwrap());
                let mut boxes = vec![region.clone()];
                for _ in 0..12 {
                    let Some((a, b)) = region.split() else { break };
                    region = if rng.gen_range(0..2u32) == 0 { a.clone() } else { b.clone() };
                    boxes.extend([a, b]);
                }
                for product in &boxes {
                    let fault = &product.fault;
                    let fresh = FaultRegion::encoded(fault.layers.clone(), fault.inputs);
                    for (stored, fresh) in [
                        (format!("{:?}", fault.float), format!("{:?}", fresh.float)),
                        (format!("{:?}", fault.zonotope), format!("{:?}", fresh.zonotope)),
                    ] {
                        prop_assert_eq!(stored, fresh, "{}", model);
                    }
                    let faulted = fault.params().filter(|(_, iv)| !iv.is_point()).count();
                    prop_assert_eq!(fault.faulted_params(), faulted, "{}", model);
                }
            }
        }
    }
}
