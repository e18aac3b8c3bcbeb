//! Cross-validation of the fault subsystem against concrete sampling:
//! random faulted networks drawn *inside* a fault model must always be
//! enclosed by the interval-weight propagator, `Robust` verdicts must
//! never be contradicted by any sampled faulted network, and the
//! engine's cached fault answers must equal the cold checker's bit for
//! bit (DESIGN.md §11).

use fannet::engine::{Answer, Engine, EngineConfig, Query, QueryKind, Reply};
use fannet::faults::{
    propagate, FaultChecker, FaultCheckerConfig, FaultModel, FaultOutcome, FaultRegion,
    FaultedNetwork, JointChecker, ProductRegion, ToleranceSearch,
};
use fannet::nn::{init, quantize, Activation, Network};
use fannet::numeric::Rational;
use fannet::verify::propagate::FloatShadow;
use fannet::verify::region::NoiseRegion;
use fannet::verify::zonotope::ZonotopeShadow;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One engine query, untimed; the queries here are all valid.
fn ask(engine: &Engine, x: &[Rational], label: usize, kind: QueryKind) -> Reply {
    let query = Query {
        input: x.to_vec(),
        label,
        kind,
    };
    engine
        .answer(&query, fannet::verify::TierTimer::disabled())
        .expect("valid")
}

/// Random small ReLU network with 8-bit quantized weights (the same
/// family `checker_cross_validation` uses).
fn random_exact_net(seed: u64) -> Network<Rational> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = init::fresh_network(
        &mut rng,
        &[2, 3, 2],
        Activation::ReLU,
        init::Init::Uniform(1.5),
    );
    quantize::to_rational(&net, 8)
}

/// Samples one concrete faulted network inside `model` (exact rational
/// arithmetic throughout, so membership is by construction).
fn sample_faulted(net: &Network<Rational>, model: &FaultModel, rng: &mut StdRng) -> FaultedNetwork {
    let mut faulted = FaultedNetwork::from_network(net);
    let shapes = faulted.layer_shapes();
    // A random in-ball factor t = (k − 8)/8 ∈ [−1, 1].
    let t = |rng: &mut StdRng| Rational::new(i128::from(rng.gen_range(0..=16u32)) - 8, 8);
    match model {
        FaultModel::WeightNoise { rel_eps } => {
            for (layer, &(weights, biases)) in shapes.iter().enumerate() {
                for i in 0..weights {
                    let w = faulted.weight(layer, i);
                    faulted.set_weight(layer, i, w + w.abs() * *rel_eps * t(rng));
                }
                for i in 0..biases {
                    let b = faulted.bias(layer, i);
                    faulted.set_bias(layer, i, b + b.abs() * *rel_eps * t(rng));
                }
            }
        }
        FaultModel::Quantization { denom_bits } => {
            let e = FaultModel::quantization_error_bound(*denom_bits);
            for (layer, &(weights, biases)) in shapes.iter().enumerate() {
                for i in 0..weights {
                    let w = faulted.weight(layer, i);
                    faulted.set_weight(layer, i, w + e * t(rng));
                }
                for i in 0..biases {
                    let b = faulted.bias(layer, i);
                    faulted.set_bias(layer, i, b + e * t(rng));
                }
            }
        }
        FaultModel::BitFlips { budget } => {
            let flips = rng.gen_range(0..=*budget);
            for _ in 0..flips {
                let layer = rng.gen_range(0..shapes.len());
                let (weights, biases) = shapes[layer];
                let slot = rng.gen_range(0..weights + biases);
                let original = if slot < weights {
                    faulted.weight(layer, slot)
                } else {
                    faulted.bias(layer, slot - weights)
                };
                if original.is_zero() {
                    continue;
                }
                let flipped = match rng.gen_range(0..3u32) {
                    0 => -original,
                    1 => original + original,
                    _ => original * Rational::new(1, 2),
                };
                if slot < weights {
                    faulted.set_weight(layer, slot, flipped);
                } else {
                    faulted.set_bias(layer, slot - weights, flipped);
                }
            }
        }
        FaultModel::StuckAt {
            layer,
            neuron,
            value,
        } => {
            faulted.set_stuck(*layer, *neuron, *value);
        }
    }
    faulted
}

/// The models the sampling suite quantifies over, driven by two small
/// proptest integers.
fn models(eps_numer: i128, budget: usize) -> Vec<FaultModel> {
    vec![
        FaultModel::WeightNoise {
            rel_eps: Rational::new(eps_numer, 100),
        },
        FaultModel::Quantization { denom_bits: 6 },
        FaultModel::BitFlips { budget },
        FaultModel::StuckAt {
            layer: 0,
            neuron: 1,
            value: Rational::ZERO,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The enclosure lemma, against ground truth: every sampled faulted
    /// network's outputs lie inside the exact interval-weight enclosure,
    /// the float enclosure, and the zonotope concretization.
    #[test]
    fn sampled_faulted_networks_are_enclosed_by_every_tier(
        seed in 0u64..300,
        sample_seed in 0u64..1000,
        x0 in -30i64..30,
        x1 in -30i64..30,
        eps_numer in 0i128..25,
        budget in 0usize..3,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let noise = NoiseRegion::symmetric(0, 2);
        for model in models(eps_numer, budget) {
            let region = FaultRegion::lift(&net, &model).expect("in-domain model");
            let exact = region.output_intervals(&propagate::enclose_input(&x, &noise));
            let float = region
                .float_shadow()
                .output_intervals(&FloatShadow::enclose_input(&x), &noise);
            let forms = region
                .zonotope_shadow()
                .output_forms(&ZonotopeShadow::enclose_input(&x), &noise);
            let mut rng = StdRng::seed_from_u64(sample_seed);
            for _ in 0..8 {
                let faulted = sample_faulted(&net, &model, &mut rng);
                let out = faulted.forward(&x).expect("widths");
                prop_assert!(
                    propagate::encloses_faulted_outputs(&exact, &faulted, &x),
                    "exact enclosure violated under {} (net {}, x {:?}, outputs {:?}, enclosure {:?})",
                    model, seed, x, out, exact
                );
                for (fi, &v) in float.iter().zip(&out) {
                    prop_assert!(
                        fi.contains_rational(v),
                        "float enclosure violated under {}: {} outside {:?}",
                        model, v, fi
                    );
                }
                for (form, &v) in forms.iter().zip(&out) {
                    let (lo, hi) = form.range();
                    let vf = v.to_f64();
                    prop_assert!(
                        lo <= vf.next_up() && vf.next_down() <= hi,
                        "zonotope enclosure violated under {}: {} outside [{}, {}]",
                        model, v, lo, hi
                    );
                }
            }
        }
    }

    /// The verdict soundness lemma, against ground truth: a `Robust`
    /// verdict is never contradicted by any sampled in-model faulted
    /// network, and a `Vulnerable` witness genuinely misclassifies.
    #[test]
    fn robust_verdicts_never_contradicted_by_sampling(
        seed in 0u64..300,
        sample_seed in 0u64..1000,
        x0 in -30i64..30,
        x1 in -30i64..30,
        eps_numer in 0i128..25,
        budget in 0usize..3,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("widths");
        let checker = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
        for model in models(eps_numer, budget) {
            let (outcome, _) = checker.check(&x, label, &model).expect("valid query");
            match &outcome {
                FaultOutcome::Robust => {
                    let mut rng = StdRng::seed_from_u64(sample_seed);
                    for _ in 0..12 {
                        let faulted = sample_faulted(&net, &model, &mut rng);
                        prop_assert_eq!(
                            faulted.classify(&x).expect("widths"),
                            label,
                            "Robust verdict under {} contradicted (net {}, x {:?})",
                            model, seed, x
                        );
                    }
                }
                FaultOutcome::Vulnerable(w) => {
                    prop_assert_ne!(w.predicted, w.expected);
                    prop_assert_eq!(w.expected, label);
                }
                FaultOutcome::Unknown => {} // always sound
            }
        }
    }

    /// The product-region enclosure lemma, against ground truth: every
    /// sampled (noise grid point, in-model faulted network) pair stays
    /// inside the [`ProductRegion`] output enclosure — at the root and
    /// down a chain of alternating splits (the joint domain's abstract
    /// transformer is sound on every box the search can reach).
    #[test]
    fn product_region_enclosure_covers_sampled_pairs_through_splits(
        seed in 0u64..200,
        sample_seed in 0u64..1000,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..4,
        eps_numer in 0i128..20,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(eps_numer, 100),
        };
        let fault = FaultRegion::lift(&net, &model).expect("in-domain model");
        let mut region = ProductRegion::new(NoiseRegion::symmetric(delta, 2), fault);
        let mut rng = StdRng::seed_from_u64(sample_seed);
        for depth in 0..5u32 {
            let enclosure = region.output_intervals(&x);
            // Sample noise grid points (corners + a random interior
            // point) × sampled in-model faulted networks.
            let ranges = region.noise.ranges().to_vec();
            let corners = [
                ranges.iter().map(|&(lo, _)| lo).collect::<Vec<_>>(),
                ranges.iter().map(|&(_, hi)| hi).collect::<Vec<_>>(),
                ranges
                    .iter()
                    .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                    .collect::<Vec<_>>(),
            ];
            for percents in corners {
                let nv = fannet::verify::noise::NoiseVector::new(percents);
                let noisy = nv.apply(&x);
                // In-box assignments: the sub-box's own corners and
                // midpoint always work; whole-model samples are only
                // guaranteed inside the *root* fault box.
                let mut assignments = vec![
                    region.fault.corner_lo(),
                    region.fault.corner_hi(),
                    region.fault.midpoint(),
                ];
                if depth == 0 {
                    assignments.push(sample_faulted(&net, &model, &mut rng));
                }
                for faulted in assignments {
                    let out = faulted.forward(&noisy).expect("widths");
                    for (iv, v) in enclosure.iter().zip(&out) {
                        prop_assert!(
                            iv.contains(*v),
                            "pair (noise {}, in-box fault) escapes the product \
                             enclosure at depth {} (net {}, x {:?}): {} outside {:?}",
                            nv, depth, seed, x, v, iv
                        );
                    }
                }
            }
            match region.split() {
                // Descend a deterministic-but-varied path.
                Some((a, b)) => region = if depth % 2 == 0 { a } else { b },
                None => break,
            }
        }
    }

    /// Joint verdict soundness against ground truth: a joint `Robust`
    /// is never contradicted by any sampled (grid point, in-model
    /// fault) pair, and a `Vulnerable` witness genuinely misclassifies
    /// at its recorded noise vector.
    #[test]
    fn joint_robust_verdicts_never_contradicted_by_sampling(
        seed in 0u64..200,
        sample_seed in 0u64..1000,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..4,
        eps_numer in 0i128..20,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("widths");
        let noise = NoiseRegion::symmetric(delta, 2);
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(eps_numer, 100),
        };
        let checker = JointChecker::new(net.clone(), FaultCheckerConfig::default());
        let (outcome, _) = checker.check(&x, label, &noise, &model).expect("valid query");
        match &outcome {
            FaultOutcome::Robust => {
                let mut rng = StdRng::seed_from_u64(sample_seed);
                for _ in 0..10 {
                    let percents: Vec<i64> = noise
                        .ranges()
                        .iter()
                        .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                        .collect();
                    let nv = fannet::verify::noise::NoiseVector::new(percents);
                    let faulted = sample_faulted(&net, &model, &mut rng);
                    prop_assert_eq!(
                        faulted.classify(&nv.apply(&x)).expect("widths"),
                        label,
                        "joint Robust contradicted (net {}, x {:?}, noise {}, δ {}, ε {}/100)",
                        seed, x, nv, delta, eps_numer
                    );
                }
            }
            FaultOutcome::Vulnerable(w) => {
                prop_assert_ne!(w.predicted, w.expected);
                prop_assert_eq!(w.expected, label);
                prop_assert!(noise.contains(&w.noise), "witness noise inside the box");
            }
            FaultOutcome::Unknown => {} // always sound
        }
        // δ = 0 wiring: the fault checker is this joint check at the
        // zero noise box, so its verdict kind must be the same.
        if delta == 0 {
            let fault = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
            let (fault_outcome, _) = fault.check(&x, label, &model).expect("valid query");
            prop_assert_eq!(
                outcome.wire_name(),
                fault_outcome.wire_name(),
                "δ=0 joint/fault verdicts diverge (net {}, x {:?}, ε {}/100)",
                seed, x, eps_numer
            );
        }
    }

    /// The engine's joint answers are bit-identical to the cold joint
    /// checker — cold and warm, including a zero-miss tolerance replay.
    #[test]
    fn engine_joint_answers_equal_cold_checker(
        seed in 0u64..150,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..3,
        eps_numer in 0i128..20,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("widths");
        let noise = NoiseRegion::symmetric(delta, 2);
        let cold = JointChecker::new(net.clone(), FaultCheckerConfig::default());
        let engine = Engine::new(net, EngineConfig::serving());
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(eps_numer, 100),
        };
        let (cold_outcome, cold_stats) =
            cold.check(&x, label, &noise, &model).expect("valid");
        let check = QueryKind::JointCheck { region: noise, model };
        let reply = ask(&engine, &x, label, check.clone());
        prop_assert_eq!(&reply.answer, &Answer::Joint(cold_outcome.clone()));
        prop_assert_eq!(reply.stats, cold_stats);
        let warm = ask(&engine, &x, label, check);
        prop_assert_eq!(&warm.answer, &Answer::Joint(cold_outcome));

        let search = ToleranceSearch::new(50, 10);
        let (cold_tol, _) = cold.tolerance(&x, label, delta, &search).expect("valid");
        let tolerance = QueryKind::JointTolerance { delta, search };
        let engine_tol = ask(&engine, &x, label, tolerance.clone()).answer;
        prop_assert_eq!(&engine_tol, &Answer::JointTolerance(cold_tol.clone()));
        // The warm repeat replays entirely from the cache.
        let misses = engine.counters().joint.cache.misses;
        let again = ask(&engine, &x, label, tolerance).answer;
        prop_assert_eq!(&again, &Answer::JointTolerance(cold_tol));
        prop_assert_eq!(engine.counters().joint.cache.misses, misses);
    }

    /// The engine's fault answers are bit-identical to the cold checker —
    /// cold and warm (the acceptance criterion for `fault_tolerance`).
    #[test]
    fn engine_fault_answers_equal_cold_checker(
        seed in 0u64..200,
        x0 in -30i64..30,
        x1 in -30i64..30,
        eps_numer in 0i128..25,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("widths");
        let cold = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
        let engine = Engine::new(net, EngineConfig::serving());
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(eps_numer, 100),
        };
        let (cold_outcome, cold_stats) = cold.check(&x, label, &model).expect("valid");
        let check = QueryKind::FaultCheck { model };
        let reply = ask(&engine, &x, label, check.clone());
        prop_assert_eq!(&reply.answer, &Answer::Fault(cold_outcome.clone()));
        prop_assert_eq!(reply.stats, cold_stats);
        let warm = ask(&engine, &x, label, check);
        prop_assert_eq!(&warm.answer, &Answer::Fault(cold_outcome));

        let search = ToleranceSearch::new(100, 25);
        let (cold_tol, _) = cold.tolerance(&x, label, &search).expect("valid");
        let tolerance = QueryKind::FaultTolerance { search };
        let engine_tol = ask(&engine, &x, label, tolerance.clone()).answer;
        prop_assert_eq!(&engine_tol, &Answer::FaultTolerance(cold_tol.clone()));
        // The warm repeat replays entirely from the cache.
        let misses = engine.counters().fault.cache.misses;
        let again = ask(&engine, &x, label, tolerance).answer;
        prop_assert_eq!(&again, &Answer::FaultTolerance(cold_tol));
        prop_assert_eq!(engine.counters().fault.cache.misses, misses);
    }
}

/// The trained case-study network: the per-class fault-tolerance numbers
/// the CLI reports are certified and stable shapes (one per class, both
/// non-negative, network = min).
#[test]
fn case_study_fault_report_is_certified_and_consistent() {
    use fannet::core::behavior;
    use fannet::core::casestudy::{build, CaseStudyConfig};
    use fannet::core::faults as core_faults;

    let cs = build(&CaseStudyConfig::small());

    // Satellite regression: the single-pass `quantize_with_error` pins
    // the Golub network's quantization-error budget (and its network
    // equals the two-pass `to_rational` used to build the case study).
    let q = quantize::quantize_with_error(&cs.float_net, quantize::DEFAULT_DENOM_BITS);
    assert_eq!(q.net, cs.exact_net);
    assert_eq!(
        q.max_error,
        Rational::new(8_560_829_693, 18_014_398_509_481_984),
        "max_quantization_error drifted on the Golub case-study network"
    );
    assert_eq!(
        q.max_error,
        quantize::max_quantization_error(&cs.float_net, quantize::DEFAULT_DENOM_BITS)
    );

    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let config = core_faults::FaultAnalysisConfig {
        input_threads: 1,
        ..Default::default()
    };
    let report = core_faults::analyze(&cs.exact_net, &cs.test5, &correct, &config);
    assert_eq!(report.per_input.len(), correct.len());
    let per_class = report.per_class_tolerance();
    assert_eq!(per_class.len(), 2);
    let network = report.network_tolerance().expect("analysed inputs");
    for eps in per_class.iter().flatten() {
        assert!(!eps.is_negative());
        assert!(*eps >= network, "class tolerance below the network minimum");
    }
    // Certification spot check: the network-level ε is genuinely Robust
    // for every analysed input under the cold checker.
    let checker = FaultChecker::new(cs.exact_net.clone(), config.checker.clone());
    let model = FaultModel::WeightNoise { rel_eps: network };
    for &i in correct.iter().take(4) {
        let x = behavior::rational_input(&cs.test5.samples()[i]);
        let (outcome, _) = checker.check(&x, cs.test5.labels()[i], &model).unwrap();
        assert_eq!(
            outcome,
            FaultOutcome::Robust,
            "input {i} must be robust at the certified network ε"
        );
    }
}
