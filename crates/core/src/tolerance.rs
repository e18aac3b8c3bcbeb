//! Noise-tolerance analysis (paper §IV-B, §V-C.1 and the Fig. 4 sweep).
//!
//! The paper starts from a large noise range and iteratively reduces it
//! until the model checker proves the absence of counterexamples; the last
//! counterexample-free range is the network's **noise tolerance** (±11 %
//! for the paper's trained network). Because counterexample existence is
//! monotone in the range (`±Δ ⊆ ±(Δ+1)`), this reproduction computes the
//! same quantity with a binary search per input — each probe being one
//! sound-and-complete branch-and-bound query (property P2).

use fannet_data::Dataset;
use fannet_engine::{Answer, Engine, Query, QueryKind, Reply};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::{CheckerConfig, RegionChecker};
use fannet_verify::noise::ExclusionSet;
use fannet_verify::region::NoiseRegion;
use fannet_verify::TierTimer;
use serde::{Deserialize, Serialize};

use crate::behavior::rational_input;
use crate::par;

/// Robustness radius of one input: the smallest `Δ` whose `±Δ` region
/// contains a misclassifying noise vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputRadius {
    /// Index of the input in the analysed dataset.
    pub index: usize,
    /// The input's true label.
    pub label: usize,
    /// Smallest flipping `Δ` in `[1, max_delta]`, or `None` if the input
    /// is robust throughout `±max_delta`.
    pub radius: Option<i64>,
}

/// Dataset-level noise-tolerance report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ToleranceReport {
    /// The largest range probed.
    pub max_delta: i64,
    /// Per-input radii (correctly classified inputs only).
    pub per_input: Vec<InputRadius>,
}

/// One row of the Fig. 4 sweep: how many inputs have at least one
/// misclassifying vector within `±delta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Symmetric noise range.
    pub delta: i64,
    /// Inputs misclassifiable within the range.
    pub misclassified_inputs: usize,
    /// Inputs analysed.
    pub total_inputs: usize,
}

impl ToleranceReport {
    /// The network's noise tolerance: the largest `Δ` at which *no*
    /// analysed input can be misclassified. Equals `max_delta` when every
    /// input is robust throughout.
    #[must_use]
    pub fn tolerance(&self) -> i64 {
        self.per_input
            .iter()
            .filter_map(|r| r.radius)
            .min()
            .map_or(self.max_delta, |min_radius| min_radius - 1)
    }

    /// Tabulates the Fig. 4 sweep from the per-input radii (no further
    /// verification queries needed).
    #[must_use]
    pub fn sweep(&self, deltas: &[i64]) -> Vec<SweepRow> {
        deltas
            .iter()
            .map(|&delta| SweepRow {
                delta,
                misclassified_inputs: self
                    .per_input
                    .iter()
                    .filter(|r| r.radius.is_some_and(|radius| radius <= delta))
                    .count(),
                total_inputs: self.per_input.len(),
            })
            .collect()
    }

    /// Inputs robust throughout `±max_delta` (the paper's "noise even as
    /// large as 50 % did not trigger misclassification" population).
    #[must_use]
    pub fn fully_robust(&self) -> Vec<usize> {
        self.per_input
            .iter()
            .filter(|r| r.radius.is_none())
            .map(|r| r.index)
            .collect()
    }
}

/// Computes the robustness radius of one input by binary search over `Δ`.
///
/// Probes are P2 queries; the result is exact thanks to monotonicity of
/// counterexample existence in `Δ`.
///
/// # Panics
///
/// Panics if `max_delta` is outside `[1, 100]` or widths mismatch (the
/// underlying query validates them).
#[must_use]
pub fn robustness_radius(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    max_delta: i64,
) -> Option<i64> {
    robustness_radius_with(net, x, label, max_delta, &CheckerConfig::serial_exact())
}

/// [`robustness_radius`] under an explicit [`CheckerConfig`] — every probe
/// of the binary search runs through the configured tiers, with the same
/// exact result.
///
/// # Panics
///
/// Panics if `max_delta` is outside `[1, 100]` or widths mismatch.
#[must_use]
pub fn robustness_radius_with(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    max_delta: i64,
    config: &CheckerConfig,
) -> Option<i64> {
    let checker = RegionChecker::new(net, config.clone());
    robustness_radius_on(&checker, x, label, max_delta)
}

/// [`robustness_radius_with`] against a prebuilt [`RegionChecker`] — the
/// form the per-input fan-out uses so the float shadow is built once per
/// network, not once per probe.
///
/// # Panics
///
/// Panics if `max_delta` is outside `[1, 100]` or widths mismatch.
#[must_use]
pub fn robustness_radius_on(
    checker: &RegionChecker<'_>,
    x: &[Rational],
    label: usize,
    max_delta: i64,
) -> Option<i64> {
    assert!(
        (1..=100).contains(&max_delta),
        "max_delta must be in [1, 100]"
    );
    let no_exclusions = ExclusionSet::new();
    let has_ce = |delta: i64| -> bool {
        let region = NoiseRegion::symmetric(delta, x.len());
        let (outcome, _) = checker
            .check_region(x, label, &region, &no_exclusions)
            .expect("widths validated by caller");
        !outcome.is_robust()
    };
    if !has_ce(max_delta) {
        return None;
    }
    // Invariant: lo has no CE (or is 0), hi has a CE.
    let mut lo = 0i64;
    let mut hi = max_delta;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if has_ce(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// [`robustness_radius`] answered by a resident [`Engine`] — the
/// incremental form of the binary search (DESIGN.md §8).
///
/// The engine's verdict cache warm-starts the bracket from any earlier
/// traffic on the same `(x, label)` (prior radius searches, `check`
/// queries, nested analyses) and serves probes that cached verdicts
/// subsume; a re-search after the cache is warm issues **zero** solver
/// runs. The returned radius is identical to the cold search's — every
/// cache rule is sound, so the minimum flipping `δ` cannot move.
///
/// # Panics
///
/// Panics if `max_delta` is outside `[1, 100]`, `label` is out of range,
/// or widths mismatch.
#[must_use]
pub fn robustness_radius_engine(
    engine: &Engine,
    x: &[Rational],
    label: usize,
    max_delta: i64,
) -> Option<i64> {
    let query = Query {
        input: x.to_vec(),
        label,
        kind: QueryKind::Tolerance { max_delta },
    };
    match engine.answer(&query, TierTimer::disabled()) {
        Ok(Reply {
            answer: Answer::Radius(radius),
            ..
        }) => radius,
        Ok(reply) => unreachable!("a tolerance query answered {reply:?}"),
        Err(e) => panic!("{e}"),
    }
}

/// Runs the tolerance analysis over the correctly classified samples of
/// `data` (by the paper's convention, misclassified samples are skipped).
///
/// `indices` selects which samples to analyse (typically
/// [`crate::behavior::correctly_classified`]).
///
/// # Panics
///
/// Panics if an index is out of range or widths mismatch.
#[must_use]
pub fn analyze(
    net: &Network<Rational>,
    data: &Dataset,
    indices: &[usize],
    max_delta: i64,
) -> ToleranceReport {
    par_analyze(
        net,
        data,
        indices,
        max_delta,
        &CheckerConfig::serial_exact(),
        1,
    )
}

/// [`analyze`] with the per-input binary searches fanned across
/// `input_threads` workers, each probe running under `config`.
///
/// The report is identical to the serial one (probes are exact under every
/// configuration and inputs are independent); only wall-clock changes.
/// This is where the cores go: every probe is one serial search, and
/// with many inputs one probe per worker saturates all cores, so the
/// typical call is
/// `par_analyze(.., &CheckerConfig::screened(), default_threads())`.
///
/// # Panics
///
/// Panics if an index is out of range or widths mismatch.
#[must_use]
pub fn par_analyze(
    net: &Network<Rational>,
    data: &Dataset,
    indices: &[usize],
    max_delta: i64,
    config: &CheckerConfig,
    input_threads: usize,
) -> ToleranceReport {
    let checker = RegionChecker::new(net, config.clone());
    let per_input = par::ordered_map(indices, input_threads, |&i| {
        let (sample, label) = (data.samples()[i].as_slice(), data.labels()[i]);
        let x = rational_input(sample);
        InputRadius {
            index: i,
            label,
            radius: robustness_radius_on(&checker, &x, label, max_delta),
        }
    });
    ToleranceReport {
        max_delta,
        per_input,
    }
}

/// [`par_analyze`] against a resident [`Engine`]: the per-input binary
/// searches fan across `input_threads` workers, every probe flows
/// through the engine's verdict cache, and the report is byte-identical
/// to [`analyze`]'s.
///
/// This replaces the cold re-verification pattern for sweep-style
/// workloads: successive analyses against the same engine (larger
/// `max_delta`, refreshed subsets, the Fig. 4 sweep rebuilt after new
/// traffic) reuse every verdict the cache still holds instead of
/// restarting each branch-and-bound from scratch.
///
/// # Panics
///
/// Panics if an index is out of range, widths mismatch, or `max_delta`
/// is outside `[1, 100]`.
#[must_use]
pub fn engine_analyze(
    engine: &Engine,
    data: &Dataset,
    indices: &[usize],
    max_delta: i64,
    input_threads: usize,
) -> ToleranceReport {
    let per_input = par::ordered_map(indices, input_threads, |&i| {
        let (sample, label) = (data.samples()[i].as_slice(), data.labels()[i]);
        let x = rational_input(sample);
        InputRadius {
            index: i,
            label,
            radius: robustness_radius_engine(engine, &x, label, max_delta),
        }
    });
    ToleranceReport {
        max_delta,
        per_input,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    /// label 0 iff x0 ≥ x1: radius has the closed form
    /// min Δ such that x0(100−Δ) < x1(100+Δ).
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

    fn analytic_radius(x0: i64, x1: i64, max: i64) -> Option<i64> {
        (1..=max).find(|&d| x0 * (100 - d) < x1 * (100 + d))
    }

    #[test]
    fn radius_matches_closed_form() {
        let net = comparator();
        for (x0, x1) in [(100i64, 82), (100, 95), (100, 99), (200, 100), (1000, 998)] {
            let x = [r(i128::from(x0)), r(i128::from(x1))];
            let got = robustness_radius(&net, &x, 0, 50);
            let want = analytic_radius(x0, x1, 50);
            assert_eq!(got, want, "radius mismatch for ({x0}, {x1})");
        }
    }

    #[test]
    fn robust_input_returns_none() {
        let net = comparator();
        let x = [r(100), r(10)];
        assert_eq!(robustness_radius(&net, &x, 0, 20), None);
    }

    #[test]
    fn dataset_tolerance_and_sweep() {
        let net = comparator();
        // Radii: (100, 95) → Δ=3; (100, 82) → Δ=10; (100, 50) → None @ 20.
        let data = Dataset::new(
            vec![vec![100.0, 95.0], vec![100.0, 82.0], vec![100.0, 50.0]],
            vec![0, 0, 0],
            2,
        )
        .unwrap();
        let report = analyze(&net, &data, &[0, 1, 2], 20);
        assert_eq!(report.per_input[0].radius, Some(3));
        assert_eq!(report.per_input[1].radius, Some(10));
        assert_eq!(report.per_input[2].radius, None);
        // Tolerance is min radius − 1.
        assert_eq!(report.tolerance(), 2);
        assert_eq!(report.fully_robust(), vec![2]);
        let sweep = report.sweep(&[2, 3, 9, 10, 20]);
        let counts: Vec<usize> = sweep.iter().map(|row| row.misclassified_inputs).collect();
        assert_eq!(counts, vec![0, 1, 1, 2, 2]);
        assert!(sweep.iter().all(|row| row.total_inputs == 3));
        // Monotone non-decreasing, as in Fig. 4.
        for w in counts.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn tolerance_equals_max_when_all_robust() {
        let net = comparator();
        let data = Dataset::new(vec![vec![100.0, 10.0]], vec![0], 2).unwrap();
        let report = analyze(&net, &data, &[0], 15);
        assert_eq!(report.tolerance(), 15);
        assert!(report
            .sweep(&[15])
            .iter()
            .all(|row| row.misclassified_inputs == 0));
    }

    #[test]
    fn subset_indices_respected() {
        let net = comparator();
        let data = Dataset::new(vec![vec![100.0, 95.0], vec![100.0, 82.0]], vec![0, 0], 2).unwrap();
        let report = analyze(&net, &data, &[1], 20);
        assert_eq!(report.per_input.len(), 1);
        assert_eq!(report.per_input[0].index, 1);
    }

    #[test]
    #[should_panic(expected = "max_delta must be in")]
    fn zero_max_delta_panics() {
        let net = comparator();
        let _ = robustness_radius(&net, &[r(1), r(1)], 0, 0);
    }

    #[test]
    fn engine_analyze_matches_cold_analyze() {
        use fannet_engine::EngineConfig;
        let net = comparator();
        let data = Dataset::new(
            vec![vec![100.0, 95.0], vec![100.0, 82.0], vec![100.0, 50.0]],
            vec![0, 0, 0],
            2,
        )
        .unwrap();
        let cold = analyze(&net, &data, &[0, 1, 2], 20);
        let engine = Engine::new(net, EngineConfig::serving());
        // Cold engine pass, warm engine pass, and a parallel warm pass
        // must all equal the engine-less report byte for byte.
        for threads in [1, 1, 4] {
            let report = engine_analyze(&engine, &data, &[0, 1, 2], 20, threads);
            assert_eq!(report, cold);
        }
        let s = engine.counters().region.cache;
        assert!(s.exact_hits + s.subsumption_hits > 0);
        // The warm re-analyses above must not have re-run the solver.
        let misses = engine.counters().region.cache.misses;
        let _ = engine_analyze(&engine, &data, &[0, 1, 2], 20, 1);
        assert_eq!(engine.counters().region.cache.misses, misses);
    }

    #[test]
    fn engine_radius_matches_closed_form() {
        use fannet_engine::EngineConfig;
        let net = comparator();
        let engine = Engine::new(net, EngineConfig::serving());
        for (x0, x1) in [(100i64, 82), (100, 95), (100, 99), (200, 100), (1000, 998)] {
            let x = [r(i128::from(x0)), r(i128::from(x1))];
            assert_eq!(
                robustness_radius_engine(&engine, &x, 0, 50),
                analytic_radius(x0, x1, 50),
                "radius mismatch for ({x0}, {x1})"
            );
        }
    }
}
