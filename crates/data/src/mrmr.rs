//! Minimum-Redundancy Maximum-Relevance (mRMR) feature selection.
//!
//! The paper selects "the top five most significant genes … using the
//! Minimum Redundancy and Maximum Relevance (mRMR) feature selection
//! method" (§V-A). This module implements the incremental mRMR algorithm of
//! Peng, Long & Ding (2005) in both classic flavours:
//!
//! * **MID** (difference): maximize `I(f; c) − mean_{s∈S} I(f; s)`
//! * **MIQ** (quotient):   maximize `I(f; c) / mean_{s∈S} I(f; s)`
//!
//! plus two baselines used by `repro`'s A3 ablation: variance ranking and
//! seeded random selection.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::discretize::Discretizer;
use crate::mutual_info::mutual_information;
use crate::stats::variance;

/// mRMR scoring scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrmrScheme {
    /// Mutual-information difference: relevance − redundancy.
    Difference,
    /// Mutual-information quotient: relevance / redundancy.
    Quotient,
}

/// Result of a feature-selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Indices of the chosen features, in selection order.
    pub features: Vec<usize>,
    /// Relevance `I(f; class)` of each chosen feature.
    pub relevance: Vec<f64>,
}

/// Selects `k` features by incremental mRMR over discretized columns.
///
/// `columns[j]` is the `j`-th feature across all samples; `labels` are the
/// class indices. The first feature picked is the one with maximal
/// relevance; each subsequent pick maximizes the MID/MIQ criterion against
/// the already-selected set.
///
/// # Panics
///
/// Panics if `k == 0`, `k > columns.len()`, or any column length differs
/// from `labels.len()`.
#[must_use]
pub fn select_mrmr(
    columns: &[Vec<f64>],
    labels: &[usize],
    k: usize,
    scheme: MrmrScheme,
    discretizer: Discretizer,
) -> Selection {
    assert!(k > 0, "must select at least one feature");
    assert!(
        k <= columns.len(),
        "cannot select {k} features out of {}",
        columns.len()
    );
    for (j, col) in columns.iter().enumerate() {
        assert_eq!(
            col.len(),
            labels.len(),
            "column {j} has {} values for {} labels",
            col.len(),
            labels.len()
        );
    }

    // Discretize once.
    let discrete: Vec<Vec<usize>> = columns.iter().map(|c| discretizer.apply(c)).collect();
    let relevance: Vec<f64> = discrete
        .iter()
        .map(|col| mutual_information(col, labels))
        .collect();

    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut selected_relevance: Vec<f64> = Vec::with_capacity(k);
    // Cached pairwise redundancy sums against the selected set.
    let mut redundancy_sum = vec![0.0f64; columns.len()];
    let mut in_set = vec![false; columns.len()];

    for round in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..columns.len() {
            if in_set[j] {
                continue;
            }
            let score = if round == 0 {
                relevance[j]
            } else {
                let mean_red = redundancy_sum[j] / round as f64;
                match scheme {
                    MrmrScheme::Difference => relevance[j] - mean_red,
                    // The denominator is floored so that near-zero sampled
                    // redundancy (inevitable at microarray sample sizes)
                    // cannot catapult an irrelevant gene to the top — the
                    // usual guard in MIQ implementations.
                    MrmrScheme::Quotient => relevance[j] / mean_red.max(1e-3),
                }
            };
            let better = match best {
                None => true,
                Some((bj, bs)) => score > bs || (score == bs && j < bj),
            };
            if better {
                best = Some((j, score));
            }
        }
        let (j, _) = best.expect("k ≤ columns.len() leaves a candidate");
        in_set[j] = true;
        selected.push(j);
        selected_relevance.push(relevance[j]);
        // Update redundancy sums with the new member.
        for (cand, sum) in redundancy_sum.iter_mut().enumerate() {
            if !in_set[cand] {
                *sum += mutual_information(&discrete[cand], &discrete[j]);
            }
        }
    }

    Selection {
        features: selected,
        relevance: selected_relevance,
    }
}

/// Baseline: the `k` features with the largest variance.
///
/// # Panics
///
/// Panics if `k > columns.len()`.
#[must_use]
pub fn select_by_variance(columns: &[Vec<f64>], k: usize) -> Selection {
    assert!(k <= columns.len(), "cannot select {k} of {}", columns.len());
    let mut order: Vec<usize> = (0..columns.len()).collect();
    let vars: Vec<f64> = columns.iter().map(|c| variance(c)).collect();
    order.sort_by(|&a, &b| vars[b].partial_cmp(&vars[a]).expect("variances are finite"));
    order.truncate(k);
    let relevance = order.iter().map(|&j| vars[j]).collect();
    Selection {
        features: order,
        relevance,
    }
}

/// Baseline: `k` features chosen uniformly at random with a fixed seed.
///
/// # Panics
///
/// Panics if `k > feature_count`.
#[must_use]
pub fn select_random(feature_count: usize, k: usize, seed: u64) -> Selection {
    assert!(k <= feature_count, "cannot select {k} of {feature_count}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..feature_count).collect();
    all.shuffle(&mut rng);
    all.truncate(k);
    Selection {
        features: all,
        relevance: vec![0.0; k],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Builds a tiny dataset where features 0 and 1 are informative (and
    /// mutually redundant), feature 2 is weakly informative, and the rest is
    /// noise.
    pub(super) fn toy_columns() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 200;
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        // f0 is informative but imperfect: its class clusters overlap.
        let f0: Vec<f64> = labels
            .iter()
            .map(|&y| y as f64 * 5.0 + rng.gen_range(-3.0..3.0))
            .collect();
        // f1 = near-copy of f0, sharing f0's *noise* → far more redundant
        // with f0 than any independently drawn feature can be.
        let f1: Vec<f64> = f0.iter().map(|&v| v + rng.gen_range(-1.0..1.0)).collect();
        // f2 = independently drawn signal of similar strength: equally
        // relevant, but its noise is fresh, so redundancy with f0 is low.
        let f2: Vec<f64> = labels
            .iter()
            .map(|&y| y as f64 * 4.0 + rng.gen_range(-3.0..3.0))
            .collect();
        let f3: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let f4: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        (vec![f0, f1, f2, f3, f4], labels)
    }

    #[test]
    fn first_pick_is_most_relevant() {
        let (cols, labels) = toy_columns();
        for scheme in [MrmrScheme::Difference, MrmrScheme::Quotient] {
            let sel = select_mrmr(&cols, &labels, 1, scheme, Discretizer::SigmaBands);
            assert!(
                sel.features[0] == 0 || sel.features[0] == 1,
                "{scheme:?} picked {:?}",
                sel.features
            );
        }
    }

    #[test]
    fn redundancy_pushes_copy_down() {
        let (cols, labels) = toy_columns();
        let sel = select_mrmr(
            &cols,
            &labels,
            3,
            MrmrScheme::Difference,
            Discretizer::SigmaBands,
        );
        // After picking one of {0,1}, the redundant twin should NOT be the
        // second pick; the weak-but-novel feature 2 should precede it.
        assert_eq!(sel.features.len(), 3);
        let first = sel.features[0];
        let twin = 1 - first;
        let twin_pos = sel.features.iter().position(|&f| f == twin);
        let weak_pos = sel.features.iter().position(|&f| f == 2);
        match (weak_pos, twin_pos) {
            (Some(w), Some(t)) => assert!(w < t, "selection {:?}", sel.features),
            (Some(_), None) => {} // twin excluded entirely — even stronger
            other => panic!("unexpected selection {:?} ({other:?})", sel.features),
        }
    }

    #[test]
    fn relevance_recorded_and_ordered_sensibly() {
        let (cols, labels) = toy_columns();
        let sel = select_mrmr(
            &cols,
            &labels,
            5,
            MrmrScheme::Quotient,
            Discretizer::SigmaBands,
        );
        assert_eq!(sel.features.len(), 5);
        assert_eq!(sel.relevance.len(), 5);
        // All five distinct.
        let mut sorted = sel.features.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        // The first pick has the globally maximal relevance.
        assert!(sel.relevance[0] >= sel.relevance[1]);
    }

    #[test]
    fn variance_baseline() {
        let cols = vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, -1.0, 1.0],
            vec![0.1, -0.1, 0.1],
        ];
        let sel = select_by_variance(&cols, 2);
        assert_eq!(sel.features, vec![1, 2]);
        assert!(sel.relevance[0] > sel.relevance[1]);
    }

    #[test]
    fn random_baseline_deterministic_per_seed() {
        let a = select_random(100, 5, 7);
        let b = select_random(100, 5, 7);
        assert_eq!(a, b);
        let c = select_random(100, 5, 8);
        assert_ne!(a.features, c.features);
        assert_eq!(a.features.len(), 5);
        let mut sorted = a.features.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "no duplicates");
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn zero_k_panics() {
        let (cols, labels) = toy_columns();
        let _ = select_mrmr(
            &cols,
            &labels,
            0,
            MrmrScheme::Difference,
            Discretizer::SigmaBands,
        );
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversized_k_panics() {
        let (cols, labels) = toy_columns();
        let _ = select_mrmr(
            &cols,
            &labels,
            99,
            MrmrScheme::Difference,
            Discretizer::SigmaBands,
        );
    }
}
