//! Joint input-noise × weight-fault robustness: the product-domain
//! instantiation of the generic `fannet-search` core (DESIGN.md §12).
//!
//! FANNet asks how much *input* noise a verdict survives; PR 4's fault
//! subsystem asks the same about the network's *parameters*. Galloway
//! et al. ("Adversarial Examples as an Input-Fault Tolerance Problem")
//! and Duddu et al. ("Fault Tolerance of Neural Networks in Adversarial
//! Settings") argue these are one robustness question — this module
//! finally lets the repo pose it: *"is the classification of `x` robust
//! to ±δ input noise **and** ±ε weight noise simultaneously?"*
//!
//! The abstract state is a [`ProductRegion`] — a noise box × a fault
//! box. Both factors over-approximate independently, so the product's
//! concretization (every noise grid point paired with every faulted
//! network of the lift) contains every pair the claim quantifies over;
//! verdicts of the screening tiers therefore transfer exactly as in the
//! input-noise domain (the independence argument of DESIGN.md §12), and
//! both domains screen a box with one screen pass
//! ([`fannet_verify::screen::Screens`]): the fault box carries the float
//! and zonotope shadows, the noise factor is the box the kernels read. The
//! search refines **both** factors — always the one that is currently
//! least resolved by normalized width — which is what makes non-trivial
//! (δ, ε) frontiers decidable. Boxes follow the input-noise domain's
//! rule: a box the screens leave undecided splits, a point box is
//! settled by one exact evaluation, and exact interval propagation runs
//! over every box unscreened and otherwise only as the tie pass below.
//!
//! This is also the only fault search: a plain fault check
//! ([`crate::FaultChecker`]) is a joint check at the zero noise box,
//! where the noise factor is a point and every split refines the fault
//! factor.

use fannet_nn::Network;
use fannet_numeric::{Interval, Rational};
use fannet_search::{
    BoxDecision, SearchDomain, SearchOutcome, SearchStats, TierKind, TierTimer, ToleranceSearch,
};
use fannet_verify::noise::NoiseVector;
use fannet_verify::region::NoiseRegion;
use fannet_verify::screen::Screens;

use crate::checker::{
    lift_is_exact, probe_concrete, validate_query, FaultCheckerConfig, FaultOutcome, FaultWitness,
};
use crate::model::FaultModel;
use crate::propagate::{classify_box, enclose_input, BoxVerdict};
use crate::region::{FaultRegion, FaultedNetwork};

pub use fannet_search::ToleranceResult as JointTolerance;

/// A box of the joint search: every noise vector of `noise` paired with
/// every faulted network of `fault`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductRegion {
    /// The input-noise factor (integer-percent grid box).
    pub noise: NoiseRegion,
    /// The weight-fault factor (per-parameter interval box).
    pub fault: FaultRegion,
}

impl ProductRegion {
    /// Builds the product of the two factors.
    #[must_use]
    pub fn new(noise: NoiseRegion, fault: FaultRegion) -> Self {
        ProductRegion { noise, fault }
    }

    /// `true` when both factors are single points — propagation is then
    /// a concrete forward pass and the region cannot be split.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.noise.is_point() && self.fault.is_point()
    }

    /// Normalized width of the noise factor: the widest per-node range
    /// as a fraction of the nominal value (`(hi − lo) / 100`, since
    /// noise bounds are integer percents). Zero for point regions.
    #[must_use]
    pub fn noise_normalized_width(&self) -> Rational {
        self.noise
            .ranges()
            .iter()
            .map(|&(lo, hi)| Rational::new(i128::from(hi) - i128::from(lo), 100))
            .max()
            .unwrap_or(Rational::from_integer(0))
    }

    /// Splits the factor that is currently *least resolved*: the
    /// normalized widths of the two factors — widest noise range over
    /// the nominal 100 % vs. widest relative parameter interval
    /// ([`FaultRegion::normalized_width`]) — are compared directly, and
    /// the wider factor bisects its own widest dimension
    /// ([`NoiseRegion::split`], [`FaultRegion::split`]). Ties prefer the
    /// noise factor. When either factor is a point the other splits
    /// without either width being computed (a fault check's zero noise
    /// box always splits its fault factor). The choice is a pure
    /// deterministic function of the region, so the search stays
    /// deterministic and cache-replayable (DESIGN.md §12).
    ///
    /// Returns `None` when both factors are points.
    #[must_use]
    pub fn split(&self) -> Option<(ProductRegion, ProductRegion)> {
        let split_noise = || {
            self.noise.split().map(|(a, b)| {
                (
                    ProductRegion::new(a, self.fault.clone()),
                    ProductRegion::new(b, self.fault.clone()),
                )
            })
        };
        let split_fault = || {
            self.fault.split().map(|(a, b)| {
                (
                    ProductRegion::new(self.noise.clone(), a),
                    ProductRegion::new(self.noise.clone(), b),
                )
            })
        };
        let noise_first = if self.noise.is_point() || self.fault.is_point() {
            !self.noise.is_point()
        } else {
            self.noise_normalized_width() >= self.fault.normalized_width()
        };
        if noise_first {
            split_noise().or_else(split_fault)
        } else {
            split_fault().or_else(split_noise)
        }
    }

    /// Exact interval enclosure of every output over the whole product
    /// (the unscreened search's box tier, exposed for enclosure tests).
    #[must_use]
    pub fn output_intervals(&self, x: &[Rational]) -> Vec<Interval> {
        self.fault.output_intervals(&enclose_input(x, &self.noise))
    }
}

/// A resident joint checker for one trained network.
///
/// Reuses [`FaultCheckerConfig`]: the same screening tiers route each
/// product box, the same box/depth budgets bound the (continuous, hence
/// incomplete) search. Deterministic throughout, so `fannet-engine`
/// replays cached joint verdicts bit-identically.
#[derive(Debug, Clone)]
pub struct JointChecker {
    net: Network<Rational>,
    config: FaultCheckerConfig,
}

impl JointChecker {
    /// Builds the checker; admissibility is checked per query (see
    /// [`crate::FaultChecker::new`] for the rationale).
    #[must_use]
    pub fn new(net: Network<Rational>, config: FaultCheckerConfig) -> Self {
        JointChecker { net, config }
    }

    /// The verified network.
    #[must_use]
    pub fn network(&self) -> &Network<Rational> {
        &self.net
    }

    /// The checker's configuration.
    #[must_use]
    pub fn config(&self) -> &FaultCheckerConfig {
        &self.config
    }

    /// Decides the joint claim: every noise vector of `noise` and every
    /// faulted network of `model` together keep `label`.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn check(
        &self,
        x: &[Rational],
        label: usize,
        noise: &NoiseRegion,
        model: &FaultModel,
    ) -> Result<(FaultOutcome, SearchStats), String> {
        self.check_timed(x, label, noise, model, TierTimer::disabled())
    }

    /// [`JointChecker::check`] with an explicit [`TierTimer`]: an
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
        noise: &NoiseRegion,
        model: &FaultModel,
        timer: TierTimer,
    ) -> Result<(FaultOutcome, SearchStats), String> {
        validate_query(&self.net, x, label, noise)?;
        let fault_root = FaultRegion::lift(&self.net, model)?;
        let mut stats = SearchStats::default();

        // Concrete fault probes at the zero-noise point (when it is part
        // of the claim).
        let has_zero = noise.contains(&NoiseVector::zero(x.len()));
        if has_zero {
            if let Some(w) = probe_concrete(&self.net, x, label, model, &fault_root, &mut stats)? {
                return Ok((FaultOutcome::Vulnerable(w), stats));
            }
        }
        if has_zero && noise.is_point() {
            // The zero box, i.e. a plain fault check: both noise corners
            // are the zero vector the probes just evaluated, and for a
            // single bit flip the probes enumerated every legal faulted
            // network, so they decided it completely.
            if let FaultModel::BitFlips { budget: 1 } = model {
                return Ok((FaultOutcome::Robust, stats));
            }
        } else if let Some(w) =
            self.probe_noise_corners(x, label, noise, model, &fault_root, &mut stats)?
        {
            // The all-lower / all-upper noise corners against an
            // in-model assignment: cheap joint-vulnerability detection
            // when the input box alone already flips the label.
            return Ok((FaultOutcome::Vulnerable(w), stats));
        }

        let domain = JointQuery {
            x,
            label,
            lift_is_exact: lift_is_exact(model),
            max_depth: self.config.max_depth,
            screens: Screens::new(x, label, self.config.screening, timer),
        };
        let root = ProductRegion::new(noise.clone(), fault_root);
        let (outcome, search_stats) =
            fannet_search::search_serial(&domain, root, Some(self.config.max_boxes));
        stats.merge(&search_stats);
        Ok((
            match outcome {
                SearchOutcome::Proven => FaultOutcome::Robust,
                SearchOutcome::Witness(w) => FaultOutcome::Vulnerable(w),
                SearchOutcome::Undecided => FaultOutcome::Unknown,
            },
            stats,
        ))
    }

    /// Evaluates an in-model assignment at the noise box's lower and
    /// upper corner grid points.
    fn probe_noise_corners(
        &self,
        x: &[Rational],
        label: usize,
        noise: &NoiseRegion,
        model: &FaultModel,
        fault_root: &FaultRegion,
        stats: &mut SearchStats,
    ) -> Result<Option<FaultWitness>, String> {
        // Stuck-at's lift has a single member (the region itself); the
        // other models all contain the fault-free identity network.
        let (assignment, description) = match model {
            FaultModel::StuckAt {
                layer,
                neuron,
                value,
            } => (
                fault_root.midpoint(),
                format!("neuron {neuron} of layer {layer} stuck at {value}"),
            ),
            _ => (
                FaultedNetwork::from_network(&self.net),
                "fault-free network".to_string(),
            ),
        };
        let corners = [
            NoiseVector::new(noise.ranges().iter().map(|&(lo, _)| lo).collect()),
            NoiseVector::new(noise.ranges().iter().map(|&(_, hi)| hi).collect()),
        ];
        for nv in corners {
            stats.concrete_evals += 1;
            let outputs = assignment.forward(&nv.apply(x))?;
            let predicted = fannet_tensor::vector::argmax(&outputs).expect("outputs non-empty");
            if predicted != label {
                return Ok(Some(FaultWitness {
                    noise: nv,
                    description: description.clone(),
                    outputs,
                    predicted,
                    expected: label,
                }));
            }
        }
        Ok(None)
    }

    /// Joint tolerance at a fixed noise radius: the largest
    /// `ε = k/denom` the bisection **certifies** jointly robust with
    /// `±delta`% input noise. `Unknown` probes count as failures, so
    /// the result is a sound lower bound; at `delta = 0` this
    /// degenerates to the plain weight-noise fault tolerance.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `[0, 100]` or the grid is invalid.
    pub fn tolerance(
        &self,
        x: &[Rational],
        label: usize,
        delta: i64,
        search: &ToleranceSearch,
    ) -> Result<(JointTolerance, SearchStats), String> {
        self.tolerance_timed(x, label, delta, search, TierTimer::disabled())
    }

    /// [`JointChecker::tolerance`] with an explicit [`TierTimer`] (see
    /// [`JointChecker::check_timed`]); probe timings accumulate across
    /// the whole bisection.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `[0, 100]` or the grid is invalid.
    pub fn tolerance_timed(
        &self,
        x: &[Rational],
        label: usize,
        delta: i64,
        search: &ToleranceSearch,
        timer: TierTimer,
    ) -> Result<(JointTolerance, SearchStats), String> {
        let noise = NoiseRegion::symmetric(delta, x.len());
        let mut stats = SearchStats::default();
        let tolerance = fannet_search::tolerance_search(search, |eps| {
            let (outcome, probe_stats) = self.check_timed(
                x,
                label,
                &noise,
                &FaultModel::WeightNoise { rel_eps: eps },
                timer,
            )?;
            stats.merge(&probe_stats);
            Ok::<_, String>(outcome.is_robust())
        })?;
        Ok((tolerance, stats))
    }
}

// ---------------------------------------------------------------------------
// The product-domain search
// ---------------------------------------------------------------------------

/// The product-domain instantiation of [`SearchDomain`].
struct JointQuery<'a> {
    x: &'a [Rational],
    label: usize,
    lift_is_exact: bool,
    max_depth: u32,
    screens: Screens,
}

impl SearchDomain for JointQuery<'_> {
    type Region = ProductRegion;
    type Witness = FaultWitness;

    /// Classifies one box by the input-noise domain's rule (DESIGN.md
    /// §12): one screen hit or fallback per screened box, one exact
    /// evaluation per undecided point box, a split or abandonment for
    /// any other undecided box, and exact interval propagation over every
    /// box unscreened but behind the screens only as the tie pass.
    fn decide(
        &self,
        region: &ProductRegion,
        depth: u32,
        stats: &mut SearchStats,
    ) -> BoxDecision<ProductRegion, FaultWitness> {
        // Screening tiers, cheapest first (sound by over-approximation),
        // over the shadows the fault box carries.
        let fault = &region.fault;
        let mut verdict = self.screens.classify(
            Some(&fault.float),
            Some(&fault.zonotope),
            &region.noise,
            stats,
        );
        let screened = self.screens.is_active();
        // Exact work shares the screens' timer (DESIGN.md §14).
        let timer = self.screens.timer();
        if screened {
            if verdict == BoxVerdict::Unknown {
                stats.screen_fallbacks += 1;
            } else {
                stats.screen_hits += 1;
            }
        }
        if verdict == BoxVerdict::Unknown && region.is_point() {
            // One (noise vector, faulted network) pair: its exact
            // forward pass decides the box.
            stats.exact_evals += 1;
            let noisy = region.noise.to_vector().apply(self.x);
            let (predicted, ns) = timer.time(|| region.fault.midpoint().classify(&noisy));
            stats.exact_ns = stats.exact_ns.saturating_add(ns);
            verdict = if predicted.expect("widths validated at query entry") == self.label {
                BoxVerdict::AlwaysCorrect
            } else {
                BoxVerdict::AlwaysWrong
            };
        } else if verdict == BoxVerdict::Unknown
            && (!screened || depth >= self.max_depth || (depth == 0 && !region.fault.is_point()))
        {
            // Unscreened this is the box tier. Behind the screens it is
            // the tie pass: exact propagation decided none of the boxes it
            // ran on there (DESIGN.md §6), but only exact bounds prove an
            // output tie, and a continuous fault box never shrinks to a
            // point. So it runs on the root (a tie across the box) and on
            // boxes about to be abandoned (a tie the splits closed in on;
            // exact enclosures only tighten on sub-boxes).
            let (exact_verdict, ns) =
                timer.time(|| classify_box(&region.output_intervals(self.x), self.label));
            stats.book_tier(TierKind::Exact, exact_verdict, ns);
            verdict = exact_verdict;
        }
        match verdict {
            BoxVerdict::AlwaysCorrect => {
                stats.pruned_correct += 1;
                BoxDecision::Pruned
            }
            BoxVerdict::AlwaysWrong => {
                if self.lift_is_exact || region.fault.is_point() {
                    stats.proved_wrong += 1;
                    // Any (grid point, in-model assignment) pair of the
                    // box witnesses; take the canonically-first noise
                    // grid point with the fault midpoint (legal — the
                    // fault box is entirely in-model here).
                    let faulted = region.fault.midpoint();
                    let nv = region
                        .noise
                        .iter_points()
                        .next()
                        .expect("noise regions are non-empty");
                    stats.concrete_evals += 1;
                    let outputs = faulted
                        .forward(&nv.apply(self.x))
                        .expect("widths validated at query entry");
                    let predicted =
                        fannet_tensor::vector::argmax(&outputs).expect("outputs non-empty");
                    assert_ne!(
                        predicted, self.label,
                        "interval proof of misclassification is sound"
                    );
                    return BoxDecision::UniformWitness(FaultWitness {
                        noise: nv,
                        description: "joint box proven uniformly misclassifying \
                                      (midpoint assignment)"
                            .to_string(),
                        outputs,
                        predicted,
                        expected: self.label,
                    });
                }
                // Combinatorial lift (`BitFlips`): the box may contain
                // no legal assignment, so a uniformly-wrong box proves
                // nothing and refining it cannot help — Robust is off
                // the table, Vulnerable needs a concrete witness the
                // probes did not find. The outcome is pinned to
                // Unknown; stop instead of burning the box budget.
                BoxDecision::AbandonAll
            }
            BoxVerdict::Unknown => {
                if depth >= self.max_depth {
                    // Abandon, don't refine: the boundary may be
                    // bisected forever (continuous fault space). For
                    // a combinatorial lift nothing can rescue the
                    // outcome (no box ever yields Vulnerable), so
                    // stop; continuous models keep exploring — a
                    // sibling box may still prove AlwaysWrong.
                    return if self.lift_is_exact {
                        BoxDecision::Abandon
                    } else {
                        BoxDecision::AbandonAll
                    };
                }
                stats.splits += 1;
                let (a, b) = region.split().expect("non-point boxes split");
                BoxDecision::Split(a, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::FaultChecker;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;
    use fannet_verify::bab::ScreeningTier;

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

    fn checker() -> JointChecker {
        JointChecker::new(comparator(), FaultCheckerConfig::default())
    }

    /// Closed form for the comparator under joint noise: label 0 of
    /// `(x0, x1)` survives ±δ input noise and ±ε weight noise iff
    /// `x0·(1−δ/100)·(1−ε) ≥ x1·(1+δ/100)·(1+ε)` (worst corners).
    fn jointly_robust(x0: i128, x1: i128, delta: i64, eps: Rational) -> bool {
        let d = Rational::new(i128::from(delta), 100);
        let lo = r(x0) * (r(1) - d) * (r(1) - eps);
        let hi = r(x1) * (r(1) + d) * (r(1) + eps);
        lo >= hi
    }

    #[test]
    fn joint_verdicts_match_the_analytic_corner_condition() {
        let c = checker();
        let x = [r(100), r(82)];
        for delta in [0i64, 2, 5, 8] {
            for eps_numer in [0i128, 2, 5, 8, 12] {
                let eps = rq(eps_numer, 100);
                let noise = NoiseRegion::symmetric(delta, 2);
                let (out, stats) = c
                    .check(&x, 0, &noise, &FaultModel::WeightNoise { rel_eps: eps })
                    .unwrap();
                let expected = jointly_robust(100, 82, delta, eps);
                // The budgeted search may honestly answer Unknown on
                // razor-thin margins; it must decide comfortable ones —
                // robust with slack, or vulnerable already at the
                // zero-noise probe corners.
                let comfortably_robust = jointly_robust(100, 82, delta + 4, eps + rq(4, 100));
                let vulnerable_at_zero_noise = !jointly_robust(100, 82, 0, eps);
                match &out {
                    FaultOutcome::Robust => {
                        assert!(expected, "claimed Robust at δ={delta} ε={eps}: {stats:?}")
                    }
                    FaultOutcome::Vulnerable(w) => {
                        assert!(!expected, "claimed Vulnerable at δ={delta} ε={eps}");
                        assert_eq!(w.expected, 0);
                        assert_ne!(w.predicted, 0);
                        assert!(noise.contains(&w.noise), "witness noise inside the box");
                    }
                    FaultOutcome::Unknown => {
                        assert!(
                            !comfortably_robust && !vulnerable_at_zero_noise,
                            "comfortable joint query must decide at δ={delta} ε={eps}: {stats:?}"
                        );
                    }
                }
            }
        }
    }

    /// `FaultChecker::check` is this checker at the zero noise box, so
    /// the two calls run one search: the assertion checks the wiring
    /// (the zero box reaches the product search), not two searches
    /// against each other.
    #[test]
    fn zero_delta_matches_the_plain_fault_checker() {
        let joint = checker();
        let fault = FaultChecker::new(comparator(), FaultCheckerConfig::default());
        let x = [r(100), r(82)];
        let zero = NoiseRegion::symmetric(0, 2);
        for eps_numer in [0i128, 3, 9, 11, 20] {
            let model = FaultModel::WeightNoise {
                rel_eps: rq(eps_numer, 100),
            };
            let (joint_out, _) = joint.check(&x, 0, &zero, &model).unwrap();
            let (fault_out, _) = fault.check(&x, 0, &model).unwrap();
            match (&joint_out, &fault_out) {
                (FaultOutcome::Robust, FaultOutcome::Robust)
                | (FaultOutcome::Vulnerable(_), FaultOutcome::Vulnerable(_))
                | (FaultOutcome::Unknown, FaultOutcome::Unknown) => {}
                other => panic!("δ=0 joint/fault verdicts diverge at ε={eps_numer}/100: {other:?}"),
            }
        }
    }

    /// Both outputs read the same hidden neuron (`out0 = h + 5`,
    /// `out1 = h`), so the claim is trivially robust in truth — but
    /// interval propagation decorrelates `h`, and once the input box is
    /// wide, splitting the fault factor alone never shrinks the
    /// input-induced width. The joint search splits the noise factor too
    /// and proves the query.
    #[test]
    fn joint_search_decides_where_single_factor_splitting_cannot() {
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
        let x = [r(10), r(10)];
        let noise = NoiseRegion::symmetric(10, 2);
        let model = FaultModel::WeightNoise {
            rel_eps: rq(1, 200),
        };
        // Screening off isolates the split policy (the zonotope tier
        // would decide the query at the root).
        let config = FaultCheckerConfig::default().with_screening(ScreeningTier::None);
        let joint = JointChecker::new(net, config);
        let (out, stats) = joint.check(&x, 0, &noise, &model).unwrap();
        assert_eq!(out, FaultOutcome::Robust, "{stats:?}");
        assert!(
            stats.splits > 0,
            "the proof must need refinement: {stats:?}"
        );
    }

    #[test]
    fn product_split_refines_the_least_resolved_factor() {
        let net = comparator();
        // fw = 2·(1/10) = 1/5 per unit weight; nw = 8/100 — the fault
        // factor is less resolved, so it splits and the noise is shared.
        let fault =
            FaultRegion::lift(&net, &FaultModel::WeightNoise { rel_eps: rq(1, 10) }).unwrap();
        let root = ProductRegion::new(NoiseRegion::symmetric(4, 2), fault.clone());
        assert!(root.noise_normalized_width() < root.fault.normalized_width());
        let (a, b) = root.split().expect("root splits");
        assert_eq!(a.noise, root.noise);
        assert_eq!(b.noise, root.noise);
        assert_ne!(a.fault, root.fault);
        // nw = 40/100 ≫ 1/5 — the noise factor splits, the fault box is
        // shared, and the split partitions the noise grid.
        let wide = ProductRegion::new(NoiseRegion::symmetric(20, 2), fault.clone());
        let (c, d) = wide.split().expect("root splits");
        assert_eq!(c.fault, wide.fault);
        assert_eq!(d.fault, wide.fault);
        assert_ne!(c.noise, wide.noise);
        assert_eq!(
            c.noise.point_count() + d.noise.point_count(),
            wide.noise.point_count()
        );
        // Exact tie (nw = fw = 1/5): the noise factor wins — the
        // documented deterministic tie-break.
        let tied = ProductRegion::new(NoiseRegion::symmetric(10, 2), fault.clone());
        assert_eq!(tied.noise_normalized_width(), tied.fault.normalized_width());
        let (e, f) = tied.split().expect("root splits");
        assert_eq!(e.fault, tied.fault);
        assert_eq!(f.fault, tied.fault);
        assert_ne!(e.noise, tied.noise);
        // A point noise factor falls back to the fault factor.
        let point = ProductRegion::new(NoiseRegion::symmetric(0, 2), fault);
        let (g, _) = point.split().expect("fault factor still splits");
        assert_eq!(g.noise, point.noise);
        assert_ne!(g.fault, point.fault);
        assert!(!point.is_point());
        // Both factors point: no split.
        let frozen = ProductRegion::new(
            NoiseRegion::symmetric(0, 2),
            FaultRegion::lift(
                &net,
                &FaultModel::WeightNoise {
                    rel_eps: Rational::ZERO,
                },
            )
            .unwrap(),
        );
        assert!(frozen.is_point());
        assert!(frozen.split().is_none());
    }

    #[test]
    fn product_split_choice_is_a_pure_function_of_the_region() {
        // Down an entire refinement cascade the chosen factor must (a)
        // be reproducible call-to-call and (b) always be the one with
        // the maximal normalized width (modulo point fallback) — the
        // invariance that keeps cached joint verdicts replayable.
        let net = comparator();
        let fault =
            FaultRegion::lift(&net, &FaultModel::WeightNoise { rel_eps: rq(1, 10) }).unwrap();
        let mut frontier = vec![ProductRegion::new(NoiseRegion::symmetric(6, 2), fault)];
        for _ in 0..5 {
            let mut next = Vec::new();
            for region in &frontier {
                let Some((a, b)) = region.split() else {
                    continue;
                };
                assert_eq!(
                    region.split(),
                    Some((a.clone(), b.clone())),
                    "split must be reproducible"
                );
                let split_noise = a.fault == region.fault;
                let nw = region.noise_normalized_width();
                let fw = region.fault.normalized_width();
                if split_noise {
                    assert!(nw >= fw || region.fault.is_point());
                } else {
                    assert!(fw > nw || region.noise.is_point());
                }
                next.push(a);
                next.push(b);
            }
            frontier = next;
        }
        assert!(!frontier.is_empty());
    }

    #[test]
    fn enclosure_covers_sampled_noise_fault_pairs_through_splits() {
        // The product enclosure must cover every (grid point, corner /
        // midpoint assignment) pair, at the root and down a few splits.
        let net = comparator();
        let x = [r(100), r(82)];
        let fault =
            FaultRegion::lift(&net, &FaultModel::WeightNoise { rel_eps: rq(1, 20) }).unwrap();
        let mut frontier = vec![ProductRegion::new(NoiseRegion::symmetric(3, 2), fault)];
        for depth in 0..4u32 {
            let mut next = Vec::new();
            for region in &frontier {
                let enclosure = region.output_intervals(&x);
                for nv in region.noise.iter_points() {
                    let noisy = nv.apply(&x);
                    for assignment in [
                        region.fault.corner_lo(),
                        region.fault.corner_hi(),
                        region.fault.midpoint(),
                    ] {
                        let out = assignment.forward(&noisy).unwrap();
                        for (iv, v) in enclosure.iter().zip(&out) {
                            assert!(
                                iv.contains(*v),
                                "output {v} of noise {nv} escapes {iv} at depth {depth}"
                            );
                        }
                    }
                }
                if let Some((a, b)) = region.split() {
                    next.push(a);
                    next.push(b);
                }
            }
            if !next.is_empty() {
                frontier = next;
            }
        }
    }

    #[test]
    fn joint_tolerance_shrinks_as_delta_grows() {
        let c = checker();
        let x = [r(100), r(82)];
        let search = ToleranceSearch::new(100, 25);
        let mut last = None;
        for delta in [0i64, 2, 5, 8] {
            let (tol, _) = c.tolerance(&x, 0, delta, &search).unwrap();
            let eps = tol.robust_eps.expect("correctly classified input");
            // Certified: the reported ε really is jointly robust.
            assert!(
                jointly_robust(100, 82, delta, eps),
                "certified ε={eps} at δ={delta} violates the corner condition"
            );
            if let Some(prev) = last {
                assert!(eps <= prev, "frontier must be monotone: δ={delta}");
            }
            last = Some(eps);
        }
        // δ = 0 is the plain fault tolerance: `FaultChecker::tolerance`
        // delegates here, so this checks the wiring.
        let fault = FaultChecker::new(comparator(), FaultCheckerConfig::default());
        let (plain, _) = fault.tolerance(&x, 0, &search).unwrap();
        let (joint0, _) = c.tolerance(&x, 0, 0, &search).unwrap();
        assert_eq!(joint0.robust_eps, plain.robust_eps);
    }

    #[test]
    fn misclassified_input_fails_at_zero() {
        let c = checker();
        let (out, _) = c
            .check(
                &[r(82), r(100)],
                0,
                &NoiseRegion::symmetric(2, 2),
                &FaultModel::WeightNoise { rel_eps: rq(1, 50) },
            )
            .unwrap();
        let w = out.witness().expect("identity member already flips");
        assert!(w.description.contains("fault-free"), "{w:?}");
        assert_eq!(w.noise, NoiseVector::zero(2));
    }

    #[test]
    fn screening_tiers_agree_on_joint_verdicts() {
        let x = [r(100), r(82)];
        let noise = NoiseRegion::symmetric(3, 2);
        for eps in [rq(1, 100), rq(4, 100), rq(8, 100), rq(15, 100)] {
            let model = FaultModel::WeightNoise { rel_eps: eps };
            let mut verdicts = Vec::new();
            for tier in ScreeningTier::ALL {
                let c = JointChecker::new(
                    comparator(),
                    FaultCheckerConfig::default().with_screening(tier),
                );
                let (out, _) = c.check(&x, 0, &noise, &model).unwrap();
                verdicts.push((tier, out.wire_name()));
            }
            // The incomplete search may answer Unknown under a weaker
            // tier, but decided verdicts must never contradict.
            let decided: Vec<_> = verdicts.iter().filter(|(_, v)| *v != "unknown").collect();
            for window in decided.windows(2) {
                assert_eq!(
                    window[0].1, window[1].1,
                    "contradictory proofs across tiers at ε={eps}: {verdicts:?}"
                );
            }
        }
    }

    /// The comparator's rounding edge (DESIGN.md §6): at (110, 90) with
    /// ±10 % the outputs tie at the (−10, +10) corner and label 0 wins.
    /// With a point fault factor (ε = 0) the joint check is the
    /// input-noise check, and both domains follow one box rule: exact
    /// propagation proves the root unscreened, while every screen stays
    /// `Unknown` at the tie and the search splits down to that corner,
    /// which one exact point evaluation settles.
    #[test]
    fn rounding_edge_follows_one_box_rule_in_both_domains() {
        use fannet_verify::bab::{CheckerConfig, RegionChecker};
        use fannet_verify::noise::ExclusionSet;

        let net = comparator();
        let x = [r(110), r(90)];
        let noise = NoiseRegion::symmetric(10, 2);
        let point_fault = FaultModel::WeightNoise {
            rel_eps: Rational::ZERO,
        };
        let shape = |s: &SearchStats| {
            (
                s.boxes_visited,
                s.splits,
                s.screen_hits,
                s.screen_fallbacks,
                s.exact_evals,
            )
        };
        for tier in ScreeningTier::ALL {
            let (input, input_stats) =
                RegionChecker::new(&net, CheckerConfig::serial_exact().with_screening(tier))
                    .check_region(&x, 0, &noise, &ExclusionSet::new())
                    .unwrap();
            let joint = JointChecker::new(
                comparator(),
                FaultCheckerConfig::default().with_screening(tier),
            );
            let (out, stats) = joint.check(&x, 0, &noise, &point_fault).unwrap();
            assert!(input.is_robust(), "{tier}: {input_stats:?}");
            assert_eq!(out, FaultOutcome::Robust, "{tier}: {stats:?}");
            match tier {
                ScreeningTier::None => {
                    assert_eq!(input_stats.boxes_visited, 1, "{input_stats:?}");
                    assert_eq!(stats.boxes_visited, 1, "{stats:?}");
                    assert_eq!(stats.exact_decisions, 1, "{stats:?}");
                }
                ScreeningTier::Interval => {
                    assert_eq!(shape(&stats), shape(&input_stats), "{stats:?}");
                    assert_eq!(
                        (stats.boxes_visited, stats.splits, stats.exact_evals),
                        (19, 9, 1),
                        "{stats:?}"
                    );
                }
                ScreeningTier::Cascade => {
                    assert_eq!(stats.exact_decisions, 0, "{stats:?}");
                }
            }
        }
    }

    #[test]
    fn validation_and_sigmoid_errors_are_contained() {
        let c = checker();
        let model = FaultModel::WeightNoise { rel_eps: rq(1, 50) };
        assert!(c
            .check(&[r(1)], 0, &NoiseRegion::symmetric(1, 1), &model)
            .is_err());
        assert!(c
            .check(&[r(1), r(2)], 7, &NoiseRegion::symmetric(1, 2), &model)
            .is_err());
        assert!(c
            .check(&[r(1), r(2)], 0, &NoiseRegion::symmetric(1, 3), &model)
            .unwrap_err()
            .contains("3 nodes"));
        let sigmoid = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Sigmoid,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let c = JointChecker::new(sigmoid, FaultCheckerConfig::default());
        let err = c
            .check(&[r(1), r(2)], 0, &NoiseRegion::symmetric(1, 2), &model)
            .unwrap_err();
        assert!(err.contains("piecewise-linear"), "{err}");
    }
}
