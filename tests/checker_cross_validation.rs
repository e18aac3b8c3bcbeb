//! Cross-validation of the three "model checkers" against each other:
//! branch-and-bound, exhaustive grid enumeration, and the explicit-state
//! SMV checker must return the same verdict for the same P2 property.
//!
//! This is the load-bearing correctness argument for the nuXmv
//! substitution (DESIGN.md §2/§5): three independent implementations of
//! the same semantics agree on real trained networks.

use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::numeric::Rational;
use fannet::smv::explicit::check_invariant;
use fannet::smv::nn_to_smv::{network_to_smv, TranslationConfig};
use fannet::smv::TransitionSystem;
use fannet::verify::bab::{
    check_region_exhaustive, find_counterexample, find_counterexample_with, CheckerConfig,
    ScreeningTier,
};
use fannet::verify::noise::ExclusionSet;
use fannet::verify::region::NoiseRegion;
use fannet::verify::zonotope::ZonotopeShadow;
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn three_checkers_agree_on_trained_network() {
    let cs = build(&CaseStudyConfig::small());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);

    // Keep the explicit state space small: ±1% over 5 nodes = 3^5 = 243.
    for &i in correct.iter().take(6) {
        let x = behavior::rational_input(&cs.test5.samples()[i]);
        let label = cs.test5.labels()[i];
        let region = NoiseRegion::symmetric(1, 5);

        let (bab_out, _) = find_counterexample(&cs.exact_net, &x, label, &region).expect("widths");
        let (exh_out, _) =
            check_region_exhaustive(&cs.exact_net, &x, label, &region, &ExclusionSet::new())
                .expect("widths");
        let module = network_to_smv(&cs.exact_net, &x, label, &TranslationConfig::symmetric(1));
        let ts = TransitionSystem::from_module(&module, 1 << 12).expect("243 states");
        let smv_result = check_invariant(&ts, &module.invarspecs[0]).expect("evaluates");

        assert_eq!(
            bab_out.is_robust(),
            exh_out.is_robust(),
            "bab vs exhaustive disagree on input {i}"
        );
        assert_eq!(
            bab_out.is_robust(),
            smv_result.holds(),
            "bab vs SMV explicit checker disagree on input {i}"
        );
    }
}

/// Random small ReLU networks: branch-and-bound must agree with brute
/// force everywhere, including pathological weight patterns.
fn random_exact_net(seed: u64) -> fannet::nn::Network<Rational> {
    use fannet::nn::{init, quantize, Activation};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = init::fresh_network(
        &mut rng,
        &[2, 3, 2],
        Activation::ReLU,
        init::Init::Uniform(1.5),
    );
    quantize::to_rational(&net, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bab_agrees_with_bruteforce_on_random_nets(
        seed in 0u64..500,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..6,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        let (bab_out, _) = find_counterexample(&net, &x, label, &region).expect("widths");
        let (exh_out, _) =
            check_region_exhaustive(&net, &x, label, &region, &ExclusionSet::new())
                .expect("widths");
        prop_assert_eq!(bab_out.is_robust(), exh_out.is_robust());
        // When both find counterexamples, each witness must be genuine.
        if let Some(ce) = bab_out.counterexample() {
            let noisy = ce.noise.apply(&x);
            prop_assert_ne!(net.classify(&noisy).expect("width"), label);
            prop_assert!(region.contains(&ce.noise));
        }
    }

    /// The tentpole's soundness-is-never-traded guarantee: every
    /// [`ScreeningTier`] (none/interval/zonotope/cascade) returns the
    /// identical outcome AND the identical (lexicographically-first,
    /// i.e. DFS-first) counterexample on random small networks.
    #[test]
    fn all_checker_variants_agree_on_outcome_and_witness(
        seed in 0u64..500,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..6,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        let (baseline, _) =
            find_counterexample(&net, &x, label, &region).expect("widths");
        let baseline_ce = baseline.counterexample().map(|c| c.noise.clone());
        for config in [
            CheckerConfig::screened(),
            CheckerConfig::zonotope(),
            CheckerConfig::cascade(),
        ] {
            let (out, _) = find_counterexample_with(&net, &x, label, &region, &config)
                .expect("widths");
            prop_assert_eq!(
                baseline.is_robust(),
                out.is_robust(),
                "outcome differs under {:?}", config
            );
            prop_assert_eq!(
                baseline_ce.clone(),
                out.counterexample().map(|c| c.noise.clone()),
                "counterexample identity differs under {:?}", config
            );
        }
    }

    /// Zonotope soundness lemma, checked against ground truth: the
    /// concretization of every output form encloses the exact rational
    /// network output for every grid point of the region (random
    /// networks, random inputs, asymmetric random regions).
    #[test]
    fn zonotope_concretization_encloses_exact_outputs(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        lo0 in -3i64..=0, hi0 in 0i64..=3,
        lo1 in -3i64..=0, hi1 in 0i64..=3,
    ) {
        let net = random_exact_net(seed);
        let shadow = ZonotopeShadow::new(&net);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let region = NoiseRegion::new(vec![(lo0, hi0), (lo1, hi1)]);
        let forms = shadow.output_forms(&ZonotopeShadow::enclose_input(&x), &region);
        for nv in region.iter_points() {
            let exact = net.forward(&nv.apply(&x)).expect("width");
            for (form, &v) in forms.iter().zip(&exact) {
                let (lo, hi) = form.range();
                let vf = v.to_f64();
                prop_assert!(
                    lo <= vf.next_up() && vf.next_down() <= hi,
                    "output {} of noise {} escapes [{}, {}] (net seed {}, x {:?})",
                    v, nv, lo, hi, seed, x
                );
            }
        }
    }

    /// The generic `fannet-search` collector: on random networks the
    /// single-pass counterexample collection returns, under every
    /// screening tier, the identical sequence to the serial-exact
    /// baseline — and as a *set* exactly the brute-force population of
    /// misclassifying grid points. This pins the post-refactor
    /// `collect_witnesses` loop (uniform-box expansion included) to the
    /// pre-refactor semantics.
    #[test]
    fn generic_collector_bit_identical_across_tiers_and_complete(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 1i64..5,
    ) {
        use fannet::verify::bab::{
            collect_region_counterexamples, collect_region_counterexamples_with,
        };
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        let (baseline, exhausted, _) =
            collect_region_counterexamples(&net, &x, label, &region, usize::MAX)
                .expect("widths");
        prop_assert!(exhausted, "uncapped collection exhausts the region");
        let baseline_noise: Vec<_> = baseline.iter().map(|ce| ce.noise.clone()).collect();
        // Set-level completeness against brute force.
        let mut brute: Vec<_> = region
            .iter_points()
            .filter(|nv| {
                fannet::verify::exact::classify_noisy(&net, &x, nv).expect("width") != label
            })
            .collect();
        let mut sorted = baseline_noise.clone();
        sorted.sort_by_key(|nv| nv.percents().to_vec());
        brute.sort_by_key(|nv| nv.percents().to_vec());
        prop_assert_eq!(sorted, brute, "collector must enumerate every CE exactly once");
        // Sequence-level identity across every screening tier.
        for tier in ScreeningTier::ALL {
            let config = CheckerConfig::serial_exact().with_screening(tier);
            let (collected, tier_exhausted, _) = collect_region_counterexamples_with(
                &net, &x, label, &region, usize::MAX, &config,
            )
            .expect("widths");
            prop_assert_eq!(tier_exhausted, exhausted);
            let got: Vec<_> = collected.iter().map(|ce| ce.noise.clone()).collect();
            prop_assert_eq!(
                &got, &baseline_noise,
                "collection order/content differs under tier {:?}", tier
            );
        }
    }

    /// Batched propagation lemma (DESIGN.md §16): on random networks and
    /// random asymmetric regions, every lane of a K-wide batched pass is
    /// **bitwise** equal to the scalar float shadow on that box — both
    /// the output enclosures and the derived verdicts — for K ∈
    /// {1, 2, 7, 64} (singleton, tiny, odd, beyond `BATCH_WIDTH`), with
    /// the workspace reused across batches.
    #[test]
    fn batched_propagation_bitwise_equals_the_scalar_shadow(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        lo0 in -6i64..=0, hi0 in 0i64..=6,
        lo1 in -6i64..=0, hi1 in 0i64..=6,
    ) {
        use fannet::verify::batch::{BatchFloatShadow, BatchWorkspace};
        use fannet::verify::propagate::{classify_box_float, FloatShadow};
        let net = random_exact_net(seed);
        let shadow = FloatShadow::new(&net);
        let batch = BatchFloatShadow::from_shadow(&shadow);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let xf = FloatShadow::enclose_input(&x);
        let label = net.classify(&x).expect("width");
        // A deterministic pool of distinct sub-boxes: the base region's
        // split frontier, refined until it can seed the widest batch.
        let mut pool = vec![NoiseRegion::new(vec![(lo0, hi0), (lo1, hi1)])];
        let mut at = 0usize;
        while pool.len() < 64 && at < 4096 {
            let slot = at % pool.len();
            let split = pool[slot].split();
            if let Some((a, b)) = split {
                pool[slot] = a;
                pool.push(b);
            }
            at += 1; // point-only pools (lo = hi = 0) exit via the cap
        }
        let mut ws = BatchWorkspace::default();
        for k in [1usize, 2, 7, 64] {
            let regions: Vec<&NoiseRegion> =
                (0..k).map(|i| &pool[i % pool.len()]).collect();
            let outputs = batch.output_intervals_batch(&xf, &regions, &mut ws);
            let verdicts = batch.classify_batch(&xf, label, &regions, &mut ws);
            for (lane, region) in regions.iter().enumerate() {
                let scalar = shadow.output_intervals(&xf, region);
                prop_assert_eq!(outputs[lane].len(), scalar.len());
                for (b, s) in outputs[lane].iter().zip(&scalar) {
                    prop_assert_eq!(
                        (b.lo().to_bits(), b.hi().to_bits()),
                        (s.lo().to_bits(), s.hi().to_bits()),
                        "lane {} of K={} diverges from the scalar shadow \
                         (net seed {}, x {:?})",
                        lane, k, seed, &x
                    );
                }
                prop_assert_eq!(
                    verdicts[lane],
                    classify_box_float(&scalar, label),
                    "verdict of lane {} of K={} diverges (net seed {})",
                    lane, k, seed
                );
            }
        }
    }

    /// End-to-end batching identity: the batched cascade (default) and
    /// the scalar cascade (`with_batching(false)`) return bit-identical
    /// verdicts, witnesses and search counters on random networks.
    #[test]
    fn batched_checker_bit_identical_to_scalar_on_random_nets(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        delta in 0i64..6,
    ) {
        use fannet::verify::bab::RegionChecker;
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        for config in [CheckerConfig::screened(), CheckerConfig::cascade()] {
            let batched = RegionChecker::new(&net, config.clone());
            let scalar = RegionChecker::new(&net, config.clone()).with_batching(false);
            let (out_b, stats_b) = batched
                .check_region(&x, label, &region, &ExclusionSet::new())
                .expect("widths");
            let (out_s, stats_s) = scalar
                .check_region(&x, label, &region, &ExclusionSet::new())
                .expect("widths");
            prop_assert_eq!(out_b.is_robust(), out_s.is_robust());
            prop_assert_eq!(
                out_b.counterexample().map(|c| c.noise.clone()),
                out_s.counterexample().map(|c| c.noise.clone()),
                "witness identity under {:?} (net seed {})", config, seed
            );
            prop_assert_eq!(
                stats_b, stats_s,
                "counter identity under {:?} (net seed {})", config, seed
            );
        }
    }

    /// ScreeningTier settings are pure routing: on random asymmetric
    /// regions every tier's verdict and witness equal the serial-exact
    /// baseline's (the box-level guarantee behind the acceptance
    /// criterion; symmetric regions are covered above).
    #[test]
    fn all_screening_tiers_identical_on_asymmetric_regions(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        lo0 in -5i64..=0, hi0 in 0i64..=5,
        lo1 in -5i64..=0, hi1 in 0i64..=5,
    ) {
        let net = random_exact_net(seed);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::new(vec![(lo0, hi0), (lo1, hi1)]);
        let (baseline, _) = find_counterexample(&net, &x, label, &region).expect("widths");
        let baseline_ce = baseline.counterexample().map(|c| c.noise.clone());
        for tier in [
            ScreeningTier::None,
            ScreeningTier::Interval,
            ScreeningTier::Zonotope,
            ScreeningTier::Cascade,
        ] {
            let config = CheckerConfig::serial_exact().with_screening(tier);
            let (out, _) = find_counterexample_with(&net, &x, label, &region, &config)
                .expect("widths");
            prop_assert_eq!(
                baseline.is_robust(), out.is_robust(),
                "verdict differs under tier {:?}", tier
            );
            prop_assert_eq!(
                baseline_ce.clone(),
                out.counterexample().map(|c| c.noise.clone()),
                "witness differs under tier {:?}", tier
            );
        }
    }
}
