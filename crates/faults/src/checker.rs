//! The fault checker: the product search of [`crate::joint`] at the zero
//! noise box (DESIGN.md §11/§12), the concrete fault probes that search
//! runs first, and the fault-tolerance binary search.
//!
//! ## Verdict semantics
//!
//! [`FaultChecker::check`] decides the property *"every faulted network
//! of the model classifies `x` as `label`"*:
//!
//! * [`FaultOutcome::Robust`] — a proof: the interval-weight enclosure
//!   (possibly after fault-space splitting) certifies every assignment
//!   in the model's lift, which over-approximates the model
//!   ([`FaultRegion::lift`]).
//! * [`FaultOutcome::Vulnerable`] — a proof by witness: a **concrete,
//!   in-model** faulted network misclassifies (corner/midpoint probes,
//!   explicit single-bit-flip enumeration, or the midpoint of a box the
//!   enclosure proves uniformly wrong — legal for the continuous models,
//!   whose lift *is* the model set).
//! * [`FaultOutcome::Unknown`] — the box budget ran out, or the model is
//!   combinatorial (`BitFlips`) and neither direction could be certified.
//!   Unlike the input-noise checker there is no finite grid to fall back
//!   on: the fault space is continuous, so the procedure is sound but
//!   deliberately incomplete.
//!
//! ## One search
//!
//! A fault check is [`JointChecker::check`] at the zero noise box
//! `NoiseRegion::symmetric(0, n)`: the same tiers, split rule and witness
//! rule as a joint check. The noise factor of every product box is the
//! zero point, so each split halves the fault factor's **widest
//! parameter interval** ([`FaultRegion::split`]) — the dependency problem
//! loses the most where a weight interval is widest, and halving it
//! tightens every downstream product. At the zero box the joint check
//! keeps two fault-only steps: the probes below, and the complete
//! single-flip enumeration that decides `BitFlips { budget: 1 }`. The
//! search is depth-first, serial and deterministic, which is what lets
//! `fannet-engine` replay cached verdicts bit-identically.

use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::TierTimer;
use fannet_verify::bab::ScreeningTier;
use fannet_verify::noise::NoiseVector;
use fannet_verify::region::NoiseRegion;
use serde::{Deserialize, Serialize};

use crate::joint::JointChecker;
use crate::model::FaultModel;
use crate::region::{FaultRegion, FaultedNetwork};

/// Search counters of one fault check (merged across probes of a
/// tolerance search) — the unified [`fannet_search::SearchStats`] block.
pub use fannet_search::SearchStats as FaultStats;
/// Result of a fault-tolerance bisection — the shared
/// [`fannet_search::ToleranceResult`] since the core extraction.
pub use fannet_search::ToleranceResult as FaultTolerance;
pub use fannet_search::ToleranceSearch;

/// How a fault or joint check runs: which screening tiers route each
/// box, and how many boxes the branch-and-bound may explore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCheckerConfig {
    /// Screening tiers, cheapest first. With any screen active, a box
    /// no screen decides splits (or is abandoned at `max_depth`), and
    /// exact work runs on point boxes and as the tie pass (DESIGN.md §6);
    /// [`ScreeningTier::None`] propagates every box exactly instead.
    pub screening: ScreeningTier,
    /// Box budget of the search; when it runs out the check returns
    /// [`FaultOutcome::Unknown`] with `budget_exhausted` set.
    pub max_boxes: u64,
    /// Maximum split depth per box chain. The fault space is continuous
    /// — without a grid floor a straddling decision boundary would be
    /// bisected forever, and every split adds one bit to the split
    /// parameter's denominator (exact midpoints halve), so unbounded
    /// depth also walks the `i128` rationals into overflow. Boxes at the
    /// limit are abandoned as undecided.
    pub max_depth: u32,
}

impl FaultCheckerConfig {
    /// Overrides the box budget (`0` is clamped to 1).
    #[must_use]
    pub fn with_max_boxes(mut self, max_boxes: u64) -> Self {
        self.max_boxes = max_boxes.max(1);
        self
    }

    /// Overrides the screening tiers.
    #[must_use]
    pub fn with_screening(mut self, tier: ScreeningTier) -> Self {
        self.screening = tier;
        self
    }

    /// Overrides the split-depth limit.
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }
}

impl Default for FaultCheckerConfig {
    /// Cascade screening, 512-box fault-space budget, 16-deep splits.
    fn default() -> Self {
        FaultCheckerConfig {
            screening: ScreeningTier::Cascade,
            max_boxes: 512,
            max_depth: 16,
        }
    }
}

/// A concrete, in-model misclassification witness: one noise grid point
/// plus one faulted network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWitness {
    /// The witnessing noise vector (integer percents); the zero vector
    /// for a plain fault check.
    pub noise: NoiseVector,
    /// Human-readable description of the faulted assignment (full
    /// parameter vectors are not serialized; the checker is
    /// deterministic, so re-running the query reproduces them).
    pub description: String,
    /// Exact output activations of the faulted network on the noisy
    /// input.
    pub outputs: Vec<Rational>,
    /// The (wrong) label the faulted network predicted.
    pub predicted: usize,
    /// The expected label.
    pub expected: usize,
}

/// Outcome of a fault or joint check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Proof: every (noise vector, faulted network) pair of the claim
    /// keeps the label.
    Robust,
    /// Proof by witness: a concrete in-model pair flips it.
    Vulnerable(FaultWitness),
    /// The budgeted search could not decide (sound in both directions).
    Unknown,
}

impl FaultOutcome {
    /// `true` for [`FaultOutcome::Robust`].
    #[must_use]
    pub fn is_robust(&self) -> bool {
        matches!(self, FaultOutcome::Robust)
    }

    /// The witness, if any.
    #[must_use]
    pub fn witness(&self) -> Option<&FaultWitness> {
        match self {
            FaultOutcome::Vulnerable(w) => Some(w),
            _ => None,
        }
    }

    /// The JSONL wire spelling of the verdict.
    #[must_use]
    pub fn wire_name(&self) -> &'static str {
        match self {
            FaultOutcome::Robust => "robust",
            FaultOutcome::Vulnerable(_) => "vulnerable",
            FaultOutcome::Unknown => "unknown",
        }
    }
}

/// A resident fault checker for one trained network: a
/// [`JointChecker`] whose every query has the zero noise box.
#[derive(Debug, Clone)]
pub struct FaultChecker {
    joint: JointChecker,
}

impl FaultChecker {
    /// Builds the checker. Admissibility (piecewise-linear activations)
    /// is checked per query rather than here, so resident owners (the
    /// engine, `fannet serve`) can hold a checker for any loadable model
    /// and surface the error on the first fault query instead of
    /// crashing at startup.
    #[must_use]
    pub fn new(net: Network<Rational>, config: FaultCheckerConfig) -> Self {
        FaultChecker {
            joint: JointChecker::new(net, config),
        }
    }

    /// The verified network.
    #[must_use]
    pub fn network(&self) -> &Network<Rational> {
        self.joint.network()
    }

    /// The checker's configuration.
    #[must_use]
    pub fn config(&self) -> &FaultCheckerConfig {
        self.joint.config()
    }

    /// Checks classification robustness of `x` under `model` with a
    /// point input (no input noise).
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn check(
        &self,
        x: &[Rational],
        label: usize,
        model: &FaultModel,
    ) -> Result<(FaultOutcome, FaultStats), String> {
        self.check_timed(x, label, model, TierTimer::disabled())
    }

    /// [`FaultChecker::check`] with an explicit [`TierTimer`]: an
    /// enabled timer additionally books per-tier nanoseconds into the
    /// returned stats (DESIGN.md §14); verdict, witness and counters
    /// are bit-identical to the untimed call.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn check_timed(
        &self,
        x: &[Rational],
        label: usize,
        model: &FaultModel,
        timer: TierTimer,
    ) -> Result<(FaultOutcome, FaultStats), String> {
        let zero = NoiseRegion::symmetric(0, x.len());
        self.joint.check_timed(x, label, &zero, model, timer)
    }

    /// Fault tolerance of one input under relative weight noise: the
    /// largest `ε = k/denom` (with `k ∈ [0, max_numer]`) the bisection
    /// **certifies** robust — every reported value is backed by a
    /// [`FaultOutcome::Robust`] proof, `Unknown` probes count as
    /// failures, so the result is a sound lower bound on the true
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if the search grid is empty (`denom <= 0` or
    /// `max_numer < 0`).
    pub fn tolerance(
        &self,
        x: &[Rational],
        label: usize,
        search: &ToleranceSearch,
    ) -> Result<(FaultTolerance, FaultStats), String> {
        self.tolerance_timed(x, label, search, TierTimer::disabled())
    }

    /// [`FaultChecker::tolerance`] with an explicit [`TierTimer`] (see
    /// [`FaultChecker::check_timed`]); probe timings accumulate across
    /// the whole bisection.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if the search grid is empty (`denom <= 0` or
    /// `max_numer < 0`).
    pub fn tolerance_timed(
        &self,
        x: &[Rational],
        label: usize,
        search: &ToleranceSearch,
        timer: TierTimer,
    ) -> Result<(FaultTolerance, FaultStats), String> {
        self.joint.tolerance_timed(x, label, 0, search, timer)
    }
}

/// `true` when the interval lift contains exactly the model's fault set,
/// so any point of any sub-box is a legal faulted network.
pub(crate) fn lift_is_exact(model: &FaultModel) -> bool {
    matches!(
        model,
        FaultModel::WeightNoise { .. } | FaultModel::Quantization { .. }
    )
}

/// Query validation (input width, noise-region width, label range).
pub(crate) fn validate_query(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    noise: &NoiseRegion,
) -> Result<(), String> {
    if x.len() != net.inputs() {
        return Err(format!(
            "input of width {} against network with {} inputs",
            x.len(),
            net.inputs()
        ));
    }
    if noise.nodes() != net.inputs() {
        return Err(format!(
            "noise region over {} nodes against network with {} inputs",
            noise.nodes(),
            net.inputs()
        ));
    }
    if label >= net.outputs() {
        return Err(format!(
            "label {label} out of range for {} outputs",
            net.outputs()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Concrete probes at the zero noise vector
// ---------------------------------------------------------------------------

/// Deterministic concrete probes, in order: the fault-free identity
/// assignment, the box corners/midpoint (continuous models and stuck-at,
/// whose lifts are exactly the model set), and the explicit single-flip
/// enumeration for `BitFlips`. Evaluates at the plain (zero-noise)
/// input, so callers gate on the zero vector being part of the claim.
pub(crate) fn probe_concrete(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    model: &FaultModel,
    root: &FaultRegion,
    stats: &mut FaultStats,
) -> Result<Option<FaultWitness>, String> {
    let probe = |faulted: &FaultedNetwork,
                 description: &dyn Fn() -> String,
                 stats: &mut FaultStats|
     -> Result<Option<FaultWitness>, String> {
        stats.concrete_evals += 1;
        let outputs = faulted.forward(x)?;
        let predicted = fannet_tensor::vector::argmax(&outputs).expect("outputs non-empty");
        if predicted == label {
            Ok(None)
        } else {
            Ok(Some(FaultWitness {
                noise: NoiseVector::zero(x.len()),
                description: description(),
                outputs,
                predicted,
                expected: label,
            }))
        }
    };

    // Identity first: a misclassified input makes every model
    // vulnerable through its zero-fault member.
    let identity = FaultedNetwork::from_network(net);
    let id_witness = match model {
        // Stuck-at has no identity member; its single assignment is
        // the region itself.
        FaultModel::StuckAt { .. } => None,
        _ => probe(
            &identity,
            &|| "fault-free network already misclassifies".to_string(),
            stats,
        )?,
    };
    if let Some(w) = id_witness {
        return Ok(Some(w));
    }

    match model {
        FaultModel::WeightNoise { .. } | FaultModel::Quantization { .. } => {
            for (faulted, name) in [
                (root.corner_lo(), "lower"),
                (root.corner_hi(), "upper"),
                (root.midpoint(), "midpoint"),
            ] {
                if let Some(w) = probe(
                    &faulted,
                    &|| format!("all parameters at their {name} fault bound"),
                    stats,
                )? {
                    return Ok(Some(w));
                }
            }
            // Targeted corners: push the label's output row down and a
            // rival's up — the strongest single legal assignment
            // against each rival (uniform corners cancel out on
            // comparator-like output layers).
            for rival in 0..net.outputs() {
                if rival == label {
                    continue;
                }
                if let Some(w) = probe(
                    &adversarial_corner(root, label, rival),
                    &|| {
                        format!(
                            "last-layer parameters at their adversarial fault \
                             bounds against rival {rival}"
                        )
                    },
                    stats,
                )? {
                    return Ok(Some(w));
                }
            }
        }
        FaultModel::StuckAt {
            layer,
            neuron,
            value,
        } => {
            if let Some(w) = probe(
                &root.midpoint(),
                &|| format!("neuron {neuron} of layer {layer} stuck at {value}"),
                stats,
            )? {
                return Ok(Some(w));
            }
        }
        FaultModel::BitFlips { budget } => {
            if *budget >= 1 {
                if let Some(w) = probe_single_flips(net, x, label, stats)? {
                    return Ok(Some(w));
                }
            }
        }
    }
    Ok(None)
}

/// Evaluates every single-parameter sign/exponent flip (a legal
/// fault for any `budget ≥ 1`), in canonical parameter order.
fn probe_single_flips(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    stats: &mut FaultStats,
) -> Result<Option<FaultWitness>, String> {
    let base = FaultedNetwork::from_network(net);
    let shapes = base.layer_shapes();
    let half = Rational::new(1, 2);
    for (layer, (weights, biases)) in shapes.iter().enumerate() {
        for kind in 0..2usize {
            let count = if kind == 0 { *weights } else { *biases };
            for index in 0..count {
                let original = if kind == 0 {
                    base.weight(layer, index)
                } else {
                    base.bias(layer, index)
                };
                if original.is_zero() {
                    continue; // flips of zero are zero
                }
                for (flip_name, flipped) in [
                    ("sign", -original),
                    ("exponent+1", original + original),
                    ("exponent-1", original * half),
                ] {
                    let mut faulted = base.clone();
                    if kind == 0 {
                        faulted.set_weight(layer, index, flipped);
                    } else {
                        faulted.set_bias(layer, index, flipped);
                    }
                    stats.concrete_evals += 1;
                    let outputs = faulted.forward(x)?;
                    let predicted =
                        fannet_tensor::vector::argmax(&outputs).expect("outputs non-empty");
                    if predicted != label {
                        let kind_name = if kind == 0 { "weight" } else { "bias" };
                        return Ok(Some(FaultWitness {
                            noise: NoiseVector::zero(x.len()),
                            description: format!(
                                "{flip_name} flip of layer {layer} {kind_name} [{index}]: \
                                 {original} -> {flipped}"
                            ),
                            outputs,
                            predicted,
                            expected: label,
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// The in-model assignment that attacks `rival` hardest through the last
/// layer: hidden parameters at their midpoints, the label's output row at
/// its lower fault bounds, the rival's at its upper bounds. Legal for the
/// continuous models, whose lift is exactly the model set.
fn adversarial_corner(root: &FaultRegion, label: usize, rival: usize) -> FaultedNetwork {
    let mut faulted = root.midpoint();
    let last = root.layers.len() - 1;
    let layer = &root.layers[last];
    for c in 0..layer.cols {
        faulted.set_weight(
            last,
            label * layer.cols + c,
            layer.weights[label * layer.cols + c].lo(),
        );
        faulted.set_weight(
            last,
            rival * layer.cols + c,
            layer.weights[rival * layer.cols + c].hi(),
        );
    }
    faulted.set_bias(last, label, layer.biases[label].lo());
    faulted.set_bias(last, rival, layer.biases[rival].hi());
    faulted
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// label 0 iff x0 ≥ x1.
    fn comparator() -> Network<Rational> {
        Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap()
    }

    fn checker() -> FaultChecker {
        FaultChecker::new(comparator(), FaultCheckerConfig::default())
    }

    /// Closed form for the comparator: weight noise flips label 0 of
    /// `(x0, x1)` iff `x0·(1−ε) < x1·(1+ε)`, i.e. ε > (x0−x1)/(x0+x1).
    fn analytic_flip_eps(x0: i128, x1: i128) -> Rational {
        Rational::new(x0 - x1, x0 + x1)
    }

    #[test]
    fn weight_noise_robust_below_the_analytic_threshold() {
        let c = checker();
        let x = [r(100), r(82)];
        let threshold = analytic_flip_eps(100, 82); // 18/182 ≈ 0.0989
        let (out, stats) = c
            .check(
                &x,
                0,
                &FaultModel::WeightNoise {
                    rel_eps: rq(9, 100),
                },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust, "{stats:?}");
        // At exactly the threshold the corner assignment ties; the
        // lower-index tie-break keeps label 0, so it is still robust.
        // The outward-rounded screens cannot prove a tie and the fault box
        // never shrinks to a point, so under every setting one exact pass
        // over the root proves it.
        let at_threshold = FaultModel::WeightNoise { rel_eps: threshold };
        for tier in ScreeningTier::ALL {
            let c = FaultChecker::new(
                comparator(),
                FaultCheckerConfig::default().with_screening(tier),
            );
            let (out, stats) = c.check(&x, 0, &at_threshold).unwrap();
            assert_eq!(out, FaultOutcome::Robust, "{tier}: {stats:?}");
            assert_eq!(
                (stats.boxes_visited, stats.exact_decisions),
                (1, 1),
                "{tier}: {stats:?}"
            );
        }
        let (out, _) = c
            .check(
                &x,
                0,
                &FaultModel::WeightNoise {
                    rel_eps: rq(11, 100),
                },
            )
            .unwrap();
        let witness = out.witness().expect("above threshold must flip");
        assert_eq!(witness.expected, 0);
        assert_eq!(witness.predicted, 1);
        assert!(witness.description.contains("fault bound"));
    }

    #[test]
    fn zero_eps_reduces_to_plain_classification() {
        let c = checker();
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::ZERO,
        };
        let (out, _) = c.check(&[r(100), r(82)], 0, &model).unwrap();
        assert_eq!(out, FaultOutcome::Robust);
        let (out, _) = c.check(&[r(100), r(82)], 1, &model).unwrap();
        let w = out.witness().expect("wrong label flips at zero fault");
        assert!(w.description.contains("fault-free"));
    }

    #[test]
    fn stuck_at_is_decided_completely() {
        let c = checker();
        let x = [r(100), r(82)];
        // Sticking output 0 to 0 hands the argmax to output 1.
        let (out, _) = c
            .check(
                &x,
                0,
                &FaultModel::StuckAt {
                    layer: 0,
                    neuron: 0,
                    value: r(0),
                },
            )
            .unwrap();
        let w = out.witness().expect("dead target neuron must flip");
        assert!(w.description.contains("stuck at"));
        // Sticking the rival to a small value is harmless.
        let (out, _) = c
            .check(
                &x,
                0,
                &FaultModel::StuckAt {
                    layer: 0,
                    neuron: 1,
                    value: r(1),
                },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust);
    }

    #[test]
    fn single_bit_flips_are_enumerated_completely() {
        let c = checker();
        let x = [r(100), r(82)];
        // A sign flip of weight (0,0) sends output 0 to −100 < 82.
        let (out, stats) = c.check(&x, 0, &FaultModel::BitFlips { budget: 1 }).unwrap();
        let w = out.witness().expect("sign flip must be found");
        assert!(w.description.contains("sign flip"), "{w:?}");
        assert!(stats.concrete_evals > 0);
        // Robust edge case: at x = (100, −100) every single flip ties at
        // worst (sign flip of w00 gives −100 = out1; sign flip of w11
        // gives out1 = 100 = out0) and the lower-index rule keeps L0 —
        // the complete enumeration proves it.
        let (out, _) = c
            .check(&[r(100), r(-100)], 0, &FaultModel::BitFlips { budget: 1 })
            .unwrap();
        assert_eq!(
            out,
            FaultOutcome::Robust,
            "complete enumeration proves budget-1 robustness"
        );
        // budget 0 is the fault-free network.
        let (out, _) = c
            .check(&[r(100), r(82)], 0, &FaultModel::BitFlips { budget: 0 })
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust);
    }

    #[test]
    fn multi_flip_budget_is_sound_not_complete() {
        let c = checker();
        // Single-flip witnesses are within any budget ≥ 1, so the
        // enumeration still decides vulnerable margins.
        let (out, _) = c
            .check(&[r(100), r(82)], 0, &FaultModel::BitFlips { budget: 2 })
            .unwrap();
        assert!(
            out.witness().is_some(),
            "the single-flip witness is legal within budget 2: {out:?}"
        );
        // Budget-1-robust input that a *pair* of flips breaks (both sign
        // flips swap the outputs): the checker must not claim Robust —
        // the honest answer under the independent-interval lift is
        // Unknown.
        let (out, _) = c
            .check(&[r(100), r(-100)], 0, &FaultModel::BitFlips { budget: 2 })
            .unwrap();
        assert_eq!(out, FaultOutcome::Unknown);
        // A degenerate-but-provable case: the label's row is all zeros
        // (flips of zero are zero) and the rival's only path reads a
        // zero input — every flip leaves the 0-vs-0 tie in place and the
        // exact interval proof closes at the root for any budget. The
        // tie spans the whole fault box, so no split could settle it
        // within the box budget: the screened search proves it with the
        // exact pass it gives an undecided continuous root.
        let tie_net = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(0), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        for tier in [ScreeningTier::None, ScreeningTier::Cascade] {
            let c = FaultChecker::new(
                tie_net.clone(),
                FaultCheckerConfig::default().with_screening(tier),
            );
            let (out, stats) = c
                .check(&[r(7), r(0)], 0, &FaultModel::BitFlips { budget: 3 })
                .unwrap();
            assert_eq!(out, FaultOutcome::Robust, "{tier}: {stats:?}");
        }
    }

    #[test]
    fn quantization_model_tracks_precision() {
        // Weights quantized to 2^-bits: a 2-bit datapath has error ≤ 1/8,
        // enough to flip a tight margin; a 20-bit one is safe.
        let c = FaultChecker::new(
            Network::new(
                vec![DenseLayer::new(
                    Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                    vec![r(0), r(0)],
                    Activation::Identity,
                )
                .unwrap()],
                Readout::MaxPool,
            )
            .unwrap(),
            FaultCheckerConfig::default(),
        );
        let x = [r(100), r(99)];
        let (out, _) = c
            .check(&x, 0, &FaultModel::Quantization { denom_bits: 2 })
            .unwrap();
        assert!(
            out.witness().is_some(),
            "±1/8 per weight flips a 1% margin: {out:?}"
        );
        let (out, _) = c
            .check(&x, 0, &FaultModel::Quantization { denom_bits: 20 })
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust);
    }

    #[test]
    fn fault_space_splitting_refines_unknown_roots() {
        // One faulted parameter dominating the verdict: the root interval
        // straddles the boundary, but splitting isolates the decidable
        // halves. Screening off forces the exact tier + splits to do it.
        let c = FaultChecker::new(
            comparator(),
            FaultCheckerConfig::default()
                .with_screening(ScreeningTier::None)
                .with_max_boxes(64),
        );
        let x = [r(100), r(82)];
        let (out, stats) = c
            .check(
                &x,
                0,
                &FaultModel::WeightNoise {
                    rel_eps: rq(5, 100),
                },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust);
        assert!(stats.boxes_visited >= 1);
    }

    #[test]
    fn budget_exhaustion_reports_unknown_not_a_guess() {
        // Both outputs read the same faulted hidden neuron, so plain
        // intervals decorrelate at the root (the dependency problem); a
        // 1-box budget with screening off cannot refine and must say so.
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
        let net = Network::new(vec![shared, split], Readout::MaxPool).unwrap();
        let c = FaultChecker::new(
            net,
            FaultCheckerConfig::default()
                .with_screening(ScreeningTier::None)
                .with_max_boxes(1),
        );
        let (out, stats) = c
            .check(
                &[r(10), r(10)],
                0,
                &FaultModel::WeightNoise { rel_eps: rq(1, 20) },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Unknown, "{stats:?}");
        assert!(stats.budget_exhausted);
        // The cascade's zonotope tier decides the same query at the root
        // (shared fault symbols cancel in the output difference).
        let net = c.network().clone();
        let c = FaultChecker::new(net, FaultCheckerConfig::default().with_max_boxes(1));
        let (out, stats) = c
            .check(
                &[r(10), r(10)],
                0,
                &FaultModel::WeightNoise { rel_eps: rq(1, 20) },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Robust, "{stats:?}");
        assert!(stats.zonotope_hits >= 1, "{stats:?}");
    }

    #[test]
    fn tolerance_bisection_matches_the_analytic_threshold() {
        let c = checker();
        for (x0, x1) in [(100i128, 82i128), (100, 95), (100, 50), (110, 90)] {
            let x = [r(x0), r(x1)];
            let search = ToleranceSearch::new(1000, 400);
            let (tol, stats) = c.tolerance(&x, 0, &search).unwrap();
            let robust = tol.robust_eps.expect("correctly classified input");
            let threshold = analytic_flip_eps(x0, x1);
            // The certified value is the largest grid point ≤ threshold
            // (the tie itself stays robust via the lower-index rule).
            assert!(robust <= threshold, "({x0},{x1}): {robust} > {threshold}");
            // (110, 90) ties on the grid, at ε = 1/10 (110·0.9 = 90·1.1):
            // only exact bounds prove it, and it must be certified.
            if (threshold * r(1000)).is_integer() {
                assert_eq!(robust, threshold, "({x0},{x1}): {stats:?}");
            }
            let next = robust + rq(1, 1000);
            assert!(
                next > threshold || tol.first_failure == Some(next),
                "({x0},{x1}): grid neighbour {next} must cross or fail"
            );
            assert!(tol.probes >= 2);
        }
    }

    #[test]
    fn tolerance_handles_degenerate_grids_and_misclassified_inputs() {
        let c = checker();
        // Misclassified input: no ε is robust.
        let (tol, _) = c
            .tolerance(&[r(82), r(100)], 0, &ToleranceSearch::default())
            .unwrap();
        assert_eq!(tol.robust_eps, None);
        assert_eq!(tol.first_failure, Some(Rational::ZERO));
        // Single-point grid.
        let (tol, _) = c
            .tolerance(&[r(100), r(82)], 0, &ToleranceSearch::new(1000, 0))
            .unwrap();
        assert_eq!(tol.robust_eps, Some(Rational::ZERO));
        assert_eq!(tol.first_failure, None);
        // Fully robust through the grid.
        let (tol, _) = c
            .tolerance(&[r(100), r(10)], 0, &ToleranceSearch::new(100, 20))
            .unwrap();
        assert_eq!(tol.robust_eps, Some(rq(20, 100)));
        assert_eq!(tol.first_failure, None);
    }

    #[test]
    fn screening_tiers_agree_on_verdicts() {
        let x = [r(100), r(82)];
        for eps in [rq(1, 100), rq(5, 100), rq(9, 100), rq(15, 100)] {
            let model = FaultModel::WeightNoise { rel_eps: eps };
            let mut verdicts = Vec::new();
            for tier in ScreeningTier::ALL {
                let c = FaultChecker::new(
                    comparator(),
                    FaultCheckerConfig::default().with_screening(tier),
                );
                let (out, _) = c.check(&x, 0, &model).unwrap();
                verdicts.push((tier, out));
            }
            let (_, first) = &verdicts[0];
            for (tier, out) in &verdicts {
                assert_eq!(out, first, "tier {tier} disagrees at eps {eps}");
            }
        }
    }

    #[test]
    fn width_and_label_validation() {
        let c = checker();
        let model = FaultModel::WeightNoise {
            rel_eps: rq(1, 100),
        };
        assert!(c.check(&[r(1)], 0, &model).unwrap_err().contains("width"));
        assert!(c
            .check(&[r(1), r(2)], 7, &model)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn config_presets() {
        assert_eq!(
            FaultCheckerConfig::default().screening,
            ScreeningTier::Cascade
        );
        assert_eq!(FaultCheckerConfig::default().with_max_boxes(0).max_boxes, 1);
        assert_eq!(FaultCheckerConfig::default().with_max_depth(4).max_depth, 4);
        assert_eq!(
            FaultCheckerConfig::default()
                .with_screening(ScreeningTier::Interval)
                .screening,
            ScreeningTier::Interval
        );
        assert_eq!(ToleranceSearch::default().denom, 1000);
        assert_eq!(ToleranceSearch::new(100, 25).max_eps(), rq(25, 100));
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn zero_denominator_grid_rejected() {
        let _ = ToleranceSearch::new(0, 10);
    }

    #[test]
    fn tolerance_counts_unknown_probes_as_failures() {
        // The budget-exhaustion network of the test above: the true flip
        // threshold is ≈5.8%, but with screening off and a one-box
        // budget the exact tier decides the root only up to ε = 1/33;
        // above it every probe ends Unknown. The certified value stops
        // below the Unknown band, not at the true threshold.
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
        let net = Network::new(vec![shared, split], Readout::MaxPool).unwrap();
        let c = FaultChecker::new(
            net,
            FaultCheckerConfig::default()
                .with_screening(ScreeningTier::None)
                .with_max_boxes(1),
        );
        let x = [r(10), r(10)];
        let (out, _) = c
            .check(
                &x,
                0,
                &FaultModel::WeightNoise {
                    rel_eps: rq(4, 100),
                },
            )
            .unwrap();
        assert_eq!(out, FaultOutcome::Unknown);
        let (tol, stats) = c.tolerance(&x, 0, &ToleranceSearch::new(100, 10)).unwrap();
        assert_eq!(tol.robust_eps, Some(rq(3, 100)), "{stats:?}");
        assert_eq!(tol.first_failure, Some(rq(4, 100)));
        assert!(stats.budget_exhausted);
    }

    #[test]
    fn sigmoid_networks_error_instead_of_panicking() {
        // Resident owners hold a checker for any loadable model; the
        // admissibility failure must surface as a per-query error.
        let net = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Sigmoid,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let c = FaultChecker::new(net, FaultCheckerConfig::default());
        let err = c
            .check(
                &[r(1), r(2)],
                0,
                &FaultModel::WeightNoise {
                    rel_eps: rq(1, 100),
                },
            )
            .unwrap_err();
        assert!(err.contains("piecewise-linear"), "{err}");
    }
}
