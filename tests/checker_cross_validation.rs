//! Cross-validation of the three "model checkers" against each other:
//! branch-and-bound, exhaustive grid enumeration, and the explicit-state
//! SMV checker must return the same verdict for the same P2 property.
//!
//! This is the load-bearing correctness argument for the nuXmv
//! substitution (DESIGN.md §2/§5): three independent implementations of
//! the same semantics agree on real trained networks.

use fannet::core::adversarial::{par_extract, AdversarialReport};
use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::numeric::Rational;
use fannet::smv::explicit::check_invariant;
use fannet::smv::nn_to_smv::{network_to_smv, TranslationConfig};
use fannet::smv::TransitionSystem;
use fannet::verify::bab::{
    check_region_exhaustive, check_region_with, find_counterexample, find_counterexample_with,
    BabStats, CheckerConfig, ScreeningTier,
};
use fannet::verify::exact::classify_noisy;
use fannet::verify::noise::{ExclusionSet, NoiseVector};
use fannet::verify::region::NoiseRegion;
use fannet::verify::zonotope::ZonotopeShadow;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

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

/// Capped P3 extraction — the pipeline's `par_extract` with its cap of
/// 60 vectors per input — keeps the same vectors in the same order
/// under every screening tier as under the cold exact checker, on the
/// paper's case-study network. δ 16 is the pipeline's extraction range
/// (tolerance + 5); δ 30 is wide enough that the screens prove uniform
/// boxes at other depths than exact propagation does, which only the
/// split-tree point order reconciles.
#[test]
fn capped_extraction_identical_across_tiers_on_paper_network() {
    let cs = build(&CaseStudyConfig::paper());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let extract = |delta: i64, config: &CheckerConfig| {
        par_extract(&cs.exact_net, &cs.test5, &correct, delta, 60, config, 2)
    };
    for delta in [16, 30] {
        let baseline = extract(delta, &CheckerConfig::serial_exact());
        assert!(
            baseline.per_input.iter().any(|i| !i.exhausted),
            "δ {delta} must reach the cap somewhere"
        );
        for tier in [ScreeningTier::Interval, ScreeningTier::Cascade] {
            let report = extract(delta, &CheckerConfig::serial_exact().with_screening(tier));
            let noise = |r: &AdversarialReport| -> Vec<Vec<String>> {
                r.per_input
                    .iter()
                    .map(|i| {
                        i.counterexamples
                            .iter()
                            .map(|ce| ce.noise.to_string())
                            .collect()
                    })
                    .collect()
            };
            assert_eq!(
                noise(&report),
                noise(&baseline),
                "capped lists differ at δ {delta} under tier {tier:?}"
            );
            assert_eq!(report, baseline, "δ {delta}, tier {tier:?}");
        }
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

/// An input close to the decision boundary of `net`, so that small noise
/// boxes around it hold witnesses for the searches to agree on (around a
/// random input they almost never do). Bisects the segment from
/// `(x0, x1)` toward the first of up to eight seeded random points of
/// another class down to 1/64 of its length and returns the end that
/// keeps the class of `(x0, x1)`; `(x0, x1)` itself when no such point
/// turns up.
fn near_boundary(
    net: &fannet::nn::Network<Rational>,
    x0: i64,
    x1: i64,
    seed: u64,
) -> Vec<Rational> {
    let r = |v: i64| Rational::from_integer(i128::from(v));
    let x = vec![r(x0), r(x1)];
    let class = net.classify(&x).expect("width");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..8 {
        let y = [r(rng.gen_range(-30i64..30)), r(rng.gen_range(-30i64..30))];
        if net.classify(&y).expect("width") == class {
            continue;
        }
        let at = |t: i128| -> Vec<Rational> {
            x.iter()
                .zip(&y)
                .map(|(&a, &b)| a + (b - a) * Rational::new(t, 64))
                .collect()
        };
        let (mut same, mut other) = (0i128, 64i128);
        while other - same > 1 {
            let mid = (same + other) / 2;
            if net.classify(&at(mid)).expect("width") == class {
                same = mid;
            } else {
                other = mid;
            }
        }
        return at(same);
    }
    x
}

/// A screened search splits every box its screens leave `Unknown` and
/// runs exact evaluation only at grid points, so each screen fallback is
/// exactly one split or one exact point evaluation. The unscreened
/// search splits exactly the boxes its exact interval tier leaves
/// undecided.
fn fallbacks_are_splits_or_point_evals(
    stats: &BabStats,
    config: &CheckerConfig,
) -> Result<(), TestCaseError> {
    if config.screening.is_active() {
        prop_assert_eq!(
            stats.screen_fallbacks,
            stats.splits + stats.exact_evals,
            "fallback identity under {:?}: {:?}",
            config,
            stats
        );
    } else {
        prop_assert_eq!(
            stats.exact_fallbacks,
            stats.splits,
            "exact-tier identity under {:?}: {:?}",
            config,
            stats
        );
    }
    Ok(())
}

/// A random non-empty exclusion set over `region`, biased toward
/// misclassifying points so that P3 queries have to look past
/// already-extracted witnesses.
fn random_exclusions(
    net: &fannet::nn::Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    seed: u64,
) -> ExclusionSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut excluded = ExclusionSet::new();
    for nv in region.iter_points() {
        let wrong = classify_noisy(net, x, &nv).expect("width") != label;
        if rng.gen_range(0..if wrong { 2 } else { 8 }) == 0 {
            excluded.insert(nv);
        }
    }
    if excluded.is_empty() {
        excluded.insert(region.iter_points().next().expect("non-empty region"));
    }
    excluded
}

fn noise_of(outcome: &fannet::verify::bab::RegionOutcome) -> Option<NoiseVector> {
    outcome.counterexample().map(|c| c.noise.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bab_agrees_with_bruteforce_on_random_nets(
        seed in 0u64..500,
        x0 in -30i64..30,
        x1 in -30i64..30,
        toward in 0u64..1000,
        delta in 0i64..6,
    ) {
        let net = random_exact_net(seed);
        let x = near_boundary(&net, x0, x1, toward);
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        let (bab_out, _) = find_counterexample(&net, &x, label, &region).expect("widths");
        let (exh_out, _) =
            check_region_exhaustive(&net, &x, label, &region, &ExclusionSet::new())
                .expect("widths");
        prop_assert_eq!(bab_out.is_robust(), exh_out.is_robust());
        // The oracle enumerates in the canonical split-tree order, so its
        // first witness is the one depth-first search reaches first.
        prop_assert_eq!(noise_of(&bab_out), noise_of(&exh_out));
        // Each witness must be genuine.
        if let Some(ce) = bab_out.counterexample() {
            let noisy = ce.noise.apply(&x);
            prop_assert_ne!(net.classify(&noisy).expect("width"), label);
            prop_assert!(region.contains(&ce.noise));
        }
    }

    /// The tentpole's soundness-is-never-traded guarantee: every
    /// [`ScreeningTier`] (none/interval/zonotope/cascade) returns the
    /// identical outcome AND the identical (split-tree-first, i.e.
    /// DFS-first) counterexample on random small networks — for P2 and
    /// for P3 with a random non-empty exclusion set, where the witness
    /// may come from inside a box a screen proved uniformly wrong.
    #[test]
    fn all_checker_variants_agree_on_outcome_and_witness(
        seed in 0u64..500,
        x0 in -30i64..30,
        x1 in -30i64..30,
        toward in 0u64..1000,
        delta in 0i64..11,
        excl_seed in 0u64..1000,
    ) {
        let net = random_exact_net(seed);
        let x = near_boundary(&net, x0, x1, toward);
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::symmetric(delta, 2);
        let (baseline, _) =
            find_counterexample(&net, &x, label, &region).expect("widths");
        let baseline_ce = noise_of(&baseline);
        let excluded = random_exclusions(&net, &x, label, &region, excl_seed);
        let (p3_baseline, _) =
            check_region_with(&net, &x, label, &region, &excluded, &CheckerConfig::serial_exact())
                .expect("widths");
        let (p3_oracle, _) =
            check_region_exhaustive(&net, &x, label, &region, &excluded).expect("widths");
        prop_assert_eq!(noise_of(&p3_baseline), noise_of(&p3_oracle), "P3 exact vs oracle");
        for config in [CheckerConfig::screened(), CheckerConfig::cascade()] {
            let (out, stats) = find_counterexample_with(&net, &x, label, &region, &config)
                .expect("widths");
            prop_assert_eq!(
                baseline.is_robust(),
                out.is_robust(),
                "outcome differs under {:?}", config
            );
            prop_assert_eq!(
                baseline_ce.clone(),
                noise_of(&out),
                "counterexample identity differs under {:?}", config
            );
            fallbacks_are_splits_or_point_evals(&stats, &config)?;
            let (p3, p3_stats) = check_region_with(&net, &x, label, &region, &excluded, &config)
                .expect("widths");
            prop_assert_eq!(
                noise_of(&p3_baseline),
                noise_of(&p3),
                "P3 witness differs under {:?} (excluded {:?})", config, excluded
            );
            fallbacks_are_splits_or_point_evals(&p3_stats, &config)?;
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

    /// The generic `fannet-search` collector: on random networks and
    /// random asymmetric regions the single-pass counterexample
    /// collection returns, under every screening tier and for any cap,
    /// the identical sequence to the serial-exact baseline — and
    /// uncapped, exactly the brute-force population of misclassifying
    /// grid points in the canonical split-tree order, so a capped list
    /// is that population's prefix. This pins the `collect_witnesses`
    /// loop (uniform-box expansion included) to the search's own order.
    #[test]
    fn generic_collector_bit_identical_across_tiers_and_complete(
        seed in 0u64..300,
        x0 in -30i64..30,
        x1 in -30i64..30,
        toward in 0u64..1000,
        lo0 in -8i64..=0, hi0 in 0i64..=8,
        lo1 in -8i64..=0, hi1 in 0i64..=8,
        cap in 1usize..=6,
    ) {
        use fannet::verify::bab::{
            collect_region_counterexamples, collect_region_counterexamples_with,
        };
        let net = random_exact_net(seed);
        let x = near_boundary(&net, x0, x1, toward);
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::new(vec![(lo0, hi0), (lo1, hi1)]);
        let (baseline, exhausted, _) =
            collect_region_counterexamples(&net, &x, label, &region, usize::MAX)
                .expect("widths");
        prop_assert!(exhausted, "uncapped collection exhausts the region");
        let baseline_noise: Vec<_> = baseline.iter().map(|ce| ce.noise.clone()).collect();
        // Completeness and order against brute force.
        let brute: Vec<_> = region
            .iter_points()
            .filter(|nv| classify_noisy(&net, &x, nv).expect("width") != label)
            .collect();
        prop_assert_eq!(
            &baseline_noise, &brute,
            "collector must enumerate every CE once, in split-tree order"
        );
        let prefix = &brute[..cap.min(brute.len())];
        // Sequence-level identity across every screening tier, uncapped
        // and capped.
        for tier in ScreeningTier::ALL {
            let config = CheckerConfig::serial_exact().with_screening(tier);
            let (collected, tier_exhausted, stats) = collect_region_counterexamples_with(
                &net, &x, label, &region, usize::MAX, &config,
            )
            .expect("widths");
            prop_assert_eq!(tier_exhausted, exhausted);
            let got: Vec<_> = collected.iter().map(|ce| ce.noise.clone()).collect();
            prop_assert_eq!(
                &got, &baseline_noise,
                "collection order/content differs under tier {:?}", tier
            );
            fallbacks_are_splits_or_point_evals(&stats, &config)?;
            let (capped, capped_exhausted, capped_stats) = collect_region_counterexamples_with(
                &net, &x, label, &region, cap, &config,
            )
            .expect("widths");
            let got: Vec<_> = capped.iter().map(|ce| ce.noise.clone()).collect();
            prop_assert_eq!(
                got.as_slice(), prefix,
                "capped list (cap {}) differs under tier {:?}", cap, tier
            );
            prop_assert_eq!(capped_exhausted, brute.len() < cap);
            fallbacks_are_splits_or_point_evals(&capped_stats, &config)?;
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
        toward in 0u64..1000,
        lo0 in -5i64..=0, hi0 in 0i64..=5,
        lo1 in -5i64..=0, hi1 in 0i64..=5,
    ) {
        let net = random_exact_net(seed);
        let x = near_boundary(&net, x0, x1, toward);
        let label = net.classify(&x).expect("width");
        let region = NoiseRegion::new(vec![(lo0, hi0), (lo1, hi1)]);
        let (baseline, _) = find_counterexample(&net, &x, label, &region).expect("widths");
        let baseline_ce = baseline.counterexample().map(|c| c.noise.clone());
        for tier in ScreeningTier::ALL {
            let config = CheckerConfig::serial_exact().with_screening(tier);
            let (out, stats) = find_counterexample_with(&net, &x, label, &region, &config)
                .expect("widths");
            fallbacks_are_splits_or_point_evals(&stats, &config)?;
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
