//! The engine's load-bearing correctness argument: answers served
//! through the verdict cache are **bit-identical** to fresh
//! `check_region` runs — same verdict, same deterministic DFS-first
//! witness — across every cache path (exact hit, subsumption hit, miss),
//! on random networks and randomly nested region chains.
//!
//! This is what licenses DESIGN.md §8's subsumption rules: `Robust`
//! monotonicity answers nested regions canonically, counterexample
//! containment answers verdict-level probes, and everything else misses
//! into the solver.

use fannet_engine::{Answer, AnswerSource, Engine, EngineConfig, Query, QueryKind};
use fannet_numeric::Rational;
use fannet_search::TierTimer;
use fannet_verify::bab::{check_region, CheckerConfig};
use fannet_verify::noise::ExclusionSet;
use fannet_verify::region::NoiseRegion;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_exact_net(seed: u64) -> fannet_nn::Network<Rational> {
    use fannet_nn::{init, quantize, Activation};
    let mut rng = StdRng::seed_from_u64(seed);
    let net = init::fresh_network(
        &mut rng,
        &[2, 3, 2],
        Activation::ReLU,
        init::Init::Uniform(1.5),
    );
    quantize::to_rational(&net, 8)
}

/// A random region with per-node bounds in `[-6, 6]`.
fn random_region(rng: &mut StdRng) -> NoiseRegion {
    let ranges = (0..2)
        .map(|_| {
            let lo = rng.gen_range(-6i64..=0);
            let hi = rng.gen_range(0i64..=6);
            (lo, hi)
        })
        .collect();
    NoiseRegion::new(ranges)
}

/// A random sub-box of `outer` (possibly `outer` itself).
fn random_subregion(rng: &mut StdRng, outer: &NoiseRegion) -> NoiseRegion {
    let ranges = outer
        .ranges()
        .iter()
        .map(|&(lo, hi)| {
            let new_lo = rng.gen_range(lo..=hi);
            let new_hi = rng.gen_range(new_lo..=hi);
            (new_lo, new_hi)
        })
        .collect();
    NoiseRegion::new(ranges)
}

/// A witness-bearing check through the engine: outcome and source.
fn check(
    engine: &Engine,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
) -> (fannet_verify::bab::RegionOutcome, AnswerSource) {
    let query = Query {
        input: x.to_vec(),
        label,
        kind: QueryKind::Check {
            region: region.clone(),
        },
    };
    let reply = engine
        .answer(&query, TierTimer::disabled())
        .expect("widths");
    match reply.answer {
        Answer::Region(outcome) => (outcome, reply.source),
        other => panic!("not a region answer: {other:?}"),
    }
}

/// The engine's incremental radius search.
fn radius(engine: &Engine, x: &[Rational], label: usize, max_delta: i64) -> Option<i64> {
    let query = Query {
        input: x.to_vec(),
        label,
        kind: QueryKind::Tolerance { max_delta },
    };
    match engine
        .answer(&query, TierTimer::disabled())
        .expect("widths")
        .answer
    {
        Answer::Radius(radius) => radius,
        other => panic!("not a radius: {other:?}"),
    }
}

fn serving_engine(net: &fannet_nn::Network<Rational>) -> Engine {
    Engine::new(
        net.clone(),
        EngineConfig {
            // Cascade (interval → zonotope → exact) is the strictest
            // cross-check here: every cached answer must still be
            // bit-identical to the *serial-exact* cold baseline below,
            // whichever screening tier decided each box.
            checker: CheckerConfig::cascade(),
            cache_capacity: 64,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Every engine answer over a randomly nested/repeated region chain
    /// equals the cold serial-exact checker's answer bit for bit — the
    /// cache may change *who* answers, never *what* is answered.
    #[test]
    fn engine_checks_are_bit_identical_to_cold_checks(
        seed in 0u64..400,
        x0 in -30i64..30,
        x1 in -30i64..30,
        qseed in 0u64..1000,
    ) {
        let net = random_exact_net(seed);
        let engine = serving_engine(&net);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");

        let mut rng = StdRng::seed_from_u64(qseed);
        let mut history: Vec<NoiseRegion> = Vec::new();
        for step in 0..10 {
            // Mix the three access shapes the cache distinguishes:
            // fresh regions (misses), sub-regions of earlier queries
            // (subsumption candidates), and literal repeats (exact hits).
            let region = match (step, rng.gen_range(0u8..4)) {
                (0, _) | (_, 0) => random_region(&mut rng),
                (_, 1) => {
                    let base = &history[rng.gen_range(0..history.len())];
                    random_subregion(&mut rng, base)
                }
                _ => history[rng.gen_range(0..history.len())].clone(),
            };

            let (outcome, source) = check(&engine, &x, label, &region);
            let (cold, _) =
                check_region(&net, &x, label, &region, &ExclusionSet::new()).expect("widths");
            prop_assert_eq!(
                &outcome, &cold,
                "witness-bearing answer differs from cold solver via {:?}", source
            );

            history.push(region);
        }
        // Accounting: one counted lookup per check.
        prop_assert_eq!(engine.counters().region.cache.lookups(), 10);
    }

    /// The incremental tolerance search returns exactly the cold binary
    /// search's radius, cold and from a warm cache, with arbitrary check
    /// traffic interleaved.
    #[test]
    fn engine_tolerance_equals_cold_radius(
        seed in 0u64..400,
        x0 in -30i64..30,
        x1 in -30i64..30,
        max_delta in 1i64..12,
    ) {
        let net = random_exact_net(seed);
        let engine = serving_engine(&net);
        let x = [
            Rational::from_integer(i128::from(x0)),
            Rational::from_integer(i128::from(x1)),
        ];
        let label = net.classify(&x).expect("width");

        // Cold oracle: the smallest flipping δ by direct probing (the
        // region grid here is small enough for a linear scan, which is
        // also the most obviously correct spelling).
        let has_ce = |delta: i64| {
            let region = NoiseRegion::symmetric(delta, 2);
            let (out, _) =
                check_region(&net, &x, label, &region, &ExclusionSet::new()).expect("widths");
            !out.is_robust()
        };
        let oracle = (1..=max_delta).find(|&d| has_ce(d));

        prop_assert_eq!(radius(&engine, &x, label, max_delta), oracle);
        // Interleave check traffic, then re-search warm: same radius.
        let _ = check(&engine, &x, label, &NoiseRegion::symmetric(max_delta.min(3), 2));
        prop_assert_eq!(radius(&engine, &x, label, max_delta), oracle);
    }
}

/// Deterministic companion: a nested chain must traverse all three cache
/// paths, and the subsumed answers must still be canonical.
#[test]
fn nested_chain_exercises_every_cache_path() {
    // A comparator is robust at small deltas for a separated input, so
    // nested queries after a wide robust proof are subsumption hits.
    let r = |n: i128| Rational::from_integer(n);
    let net = {
        use fannet_nn::{Activation, DenseLayer, Network, Readout};
        use fannet_tensor::Matrix;
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
    };
    let engine = serving_engine(&net);
    let x = [r(100), r(82)];
    for delta in [9, 6, 3, 9, 1] {
        let region = NoiseRegion::symmetric(delta, 2);
        let (outcome, _) = check(&engine, &x, 0, &region);
        let (cold, _) = check_region(&net, &x, 0, &region, &ExclusionSet::new()).expect("widths");
        assert_eq!(outcome, cold, "±{delta}");
    }
    let s = engine.counters().region.cache;
    assert_eq!(s.misses, 1, "only ±9 should reach the solver: {s:?}");
    assert_eq!(s.exact_hits, 1, "the ±9 repeat: {s:?}");
    assert_eq!(s.subsumption_hits, 3, "±6/±3/±1 nested under ±9: {s:?}");
}
