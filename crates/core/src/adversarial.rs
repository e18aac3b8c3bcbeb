//! Adversarial noise-vector extraction (paper §IV-C, property **P3**).
//!
//! For every analysed input, the P3 loop extracts *unique* misclassifying
//! noise vectors until either the region is exhausted or a per-input cap is
//! reached. The union of the extracted vectors is the paper's noise matrix
//! `e`; the bias and sensitivity analyses are computed over it.

use fannet_data::Dataset;
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::{CheckerConfig, RegionChecker};
use fannet_verify::exact::Counterexample;
use fannet_verify::region::NoiseRegion;

use crate::behavior::rational_input;
use crate::par;

/// All counterexamples extracted for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct InputAdversaries {
    /// Index of the input in the analysed dataset.
    pub index: usize,
    /// The input's true label `Sx`.
    pub label: usize,
    /// Extracted counterexamples (unique noise vectors, extraction order).
    pub counterexamples: Vec<Counterexample>,
    /// `true` if the region was exhausted (every misclassifying vector
    /// extracted); `false` if extraction stopped at the cap.
    pub exhausted: bool,
}

/// The noise matrix `e` for a dataset: per-input unique adversarial
/// vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialReport {
    /// The symmetric range the vectors were drawn from.
    pub delta: i64,
    /// Per-input extraction results.
    pub per_input: Vec<InputAdversaries>,
}

impl AdversarialReport {
    /// Total number of extracted vectors across all inputs.
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.per_input.iter().map(|i| i.counterexamples.len()).sum()
    }

    /// Iterates over every extracted counterexample with its input index.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, &Counterexample)> {
        self.per_input
            .iter()
            .flat_map(|i| i.counterexamples.iter().map(move |ce| (i.index, ce)))
    }
}

/// Runs the P3 extraction loop for each selected input over `±delta`,
/// collecting at most `per_input_cap` vectors per input.
///
/// The paper stresses that the objective "is not to exhaustively search for
/// counterexamples, but rather to explore network properties on the basis
/// of obtained counterexamples" — the cap implements exactly that
/// trade-off.
///
/// # Panics
///
/// Panics if an index is out of range, widths mismatch, or
/// `per_input_cap == 0`.
#[must_use]
pub fn extract(
    net: &Network<Rational>,
    data: &Dataset,
    indices: &[usize],
    delta: i64,
    per_input_cap: usize,
) -> AdversarialReport {
    par_extract(
        net,
        data,
        indices,
        delta,
        per_input_cap,
        &CheckerConfig::serial_exact(),
        1,
    )
}

/// [`extract`] with the per-input P3 loops fanned across `input_threads`
/// workers, each collection running under `config`.
///
/// Extraction order within an input is the split-tree order of the
/// region's points under every configuration, so each capped list is
/// the same, and inputs stay in `indices` order: the report is
/// identical to the serial exact one.
///
/// # Panics
///
/// Panics if an index is out of range, widths mismatch, or
/// `per_input_cap == 0`.
#[must_use]
pub fn par_extract(
    net: &Network<Rational>,
    data: &Dataset,
    indices: &[usize],
    delta: i64,
    per_input_cap: usize,
    config: &CheckerConfig,
    input_threads: usize,
) -> AdversarialReport {
    assert!(per_input_cap > 0, "need a positive per-input cap");
    // One shadow build per network, shared by every worker.
    let checker = RegionChecker::new(net, config.clone());
    let per_input = par::ordered_map(indices, input_threads, |&i| {
        let (sample, label) = (data.samples()[i].as_slice(), data.labels()[i]);
        let x = rational_input(sample);
        let region = NoiseRegion::symmetric(delta, x.len());
        // Single-pass collection: semantically the P3 restart loop
        // (each vector is unique), but each safe box is pruned once.
        let (counterexamples, exhausted, _) = checker
            .collect_region_counterexamples(&x, label, &region, per_input_cap)
            .expect("widths validated upstream");
        InputAdversaries {
            index: i,
            label,
            exhausted,
            counterexamples,
        }
    });
    AdversarialReport { delta, per_input }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;
    use fannet_verify::exact::classify_noisy;
    use std::collections::HashSet;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

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

    fn data() -> Dataset {
        Dataset::new(vec![vec![100.0, 97.0], vec![100.0, 40.0]], vec![0, 0], 2).unwrap()
    }

    #[test]
    fn extraction_is_unique_and_correct() {
        let net = comparator();
        let report = extract(&net, &data(), &[0, 1], 4, 100);
        assert_eq!(report.delta, 4);
        assert_eq!(report.per_input.len(), 2);

        // Input 0 (margin 3 %) has counterexamples at ±4; input 1 none.
        let first = &report.per_input[0];
        assert!(!first.counterexamples.is_empty());
        assert!(first.exhausted, "cap of 100 should exhaust a ±4 region");
        let unique: HashSet<_> = first
            .counterexamples
            .iter()
            .map(|ce| ce.noise.percents().to_vec())
            .collect();
        assert_eq!(unique.len(), first.counterexamples.len(), "vectors unique");
        // Every extracted vector truly misclassifies.
        let x = rational_input(&data().samples()[0]);
        for ce in &first.counterexamples {
            assert_ne!(classify_noisy(&net, &x, &ce.noise).unwrap(), 0);
        }

        let second = &report.per_input[1];
        assert!(second.counterexamples.is_empty());
        assert!(second.exhausted);
    }

    #[test]
    fn cap_limits_extraction() {
        let net = comparator();
        let report = extract(&net, &data(), &[0], 6, 3);
        let first = &report.per_input[0];
        assert_eq!(first.counterexamples.len(), 3);
        assert!(!first.exhausted, "cap reached before exhaustion");
    }

    #[test]
    fn totals_and_iteration() {
        let net = comparator();
        let report = extract(&net, &data(), &[0, 1], 4, 10);
        assert_eq!(
            report.total_vectors(),
            report.per_input[0].counterexamples.len()
        );
        let all: Vec<_> = report.iter_all().collect();
        assert_eq!(all.len(), report.total_vectors());
        assert!(all.iter().all(|(idx, _)| *idx == 0));
    }

    #[test]
    fn extraction_count_matches_brute_force() {
        let net = comparator();
        let report = extract(&net, &data(), &[0], 3, 1000);
        let x = rational_input(&data().samples()[0]);
        let brute = NoiseRegion::symmetric(3, 2)
            .iter_points()
            .filter(|nv| classify_noisy(&net, &x, nv).unwrap() != 0)
            .count();
        assert_eq!(report.per_input[0].counterexamples.len(), brute);
    }

    #[test]
    #[should_panic(expected = "positive per-input cap")]
    fn zero_cap_panics() {
        let net = comparator();
        let _ = extract(&net, &data(), &[0], 2, 0);
    }
}
