//! Joint input×weight robustness analysis — the `joint_frontier`
//! section of the pipeline (DESIGN.md §12).
//!
//! The noise-tolerance analysis asks how much the *environment* may
//! perturb an input; the fault analysis asks how much the *hardware*
//! may drift. This section asks both at once: for each noise radius δ
//! of a fixed axis, the largest relative weight noise ε the joint
//! checker **certifies** every correctly-classified input of a class to
//! survive — the per-class (δ, ε) frontier. Probes the budgeted search
//! cannot decide count as failures, so every reported ε is a sound
//! lower bound, and the δ = 0 column reproduces the plain weight-fault
//! tolerance.

use fannet_data::Dataset;
use fannet_faults::{FaultCheckerConfig, JointChecker, ToleranceSearch};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::default_threads;
use serde::{Deserialize, Serialize};

use crate::behavior::rational_input;
use crate::par;

/// Knobs of the joint-frontier analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointAnalysisConfig {
    /// The δ axis of the frontier (symmetric input-noise radii, %).
    pub deltas: Vec<i64>,
    /// The ε bisection grid per (input, δ) pair.
    pub search: ToleranceSearch,
    /// Per-probe checker configuration. The joint default deepens the
    /// split budget relative to the fault section's: splitting the
    /// input box *does* converge (it bottoms out at grid points), so
    /// the product search profits from depth the pure fault search
    /// would waste.
    pub checker: FaultCheckerConfig,
    /// Worker threads fanning the per-input bisections.
    pub input_threads: usize,
}

impl Default for JointAnalysisConfig {
    /// δ ∈ {0, 2, 5}, percent-resolution ε grid up to 1/4, 16-box /
    /// 24-deep joint searches, all cores.
    ///
    /// The box budget is deliberately small: on realistic networks a
    /// joint probe is decided near the root, mostly by the concrete
    /// probes and the interval screen, or the product space is too
    /// high-dimensional to converge within any affordable budget, so a
    /// deep search mostly burns time on probes that end `Unknown`
    /// anyway (the same trade the fault section makes). On the paper
    /// network's 96 joint bisections the interval screen decided 708 of
    /// 3,281 boxes and the zonotope 22 of the 2,573 left to it. Raise
    /// `checker.max_boxes` for small networks where refinement
    /// genuinely closes queries.
    fn default() -> Self {
        JointAnalysisConfig {
            deltas: vec![0, 2, 5],
            search: ToleranceSearch::new(100, 25),
            checker: FaultCheckerConfig::default()
                .with_max_boxes(16)
                .with_max_depth(24),
            input_threads: default_threads(),
        }
    }
}

/// Certified joint frontier of one input: one ε per δ of the axis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputJointFrontier {
    /// Index of the input in the analysed dataset.
    pub index: usize,
    /// The input's true label.
    pub label: usize,
    /// Per-δ certified ε (aligned with the config's `deltas`); `None`
    /// when even ε = 0 is not certified at that δ (the input noise
    /// alone flips the label, or the search could not decide).
    pub per_delta: Vec<Option<Rational>>,
}

/// Dataset-level joint-frontier report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointFrontierReport {
    /// The δ axis.
    pub deltas: Vec<i64>,
    /// The ε bisection grid used.
    pub search: ToleranceSearch,
    /// Number of classes of the analysed dataset.
    pub classes: usize,
    /// Per-input certified frontiers.
    pub per_input: Vec<InputJointFrontier>,
}

impl JointFrontierReport {
    /// Per-class frontier: for each class, the per-δ minimum certified
    /// ε over the class's analysed inputs (`None` at a δ where any
    /// input of the class failed at ε = 0, or for classes with no
    /// analysed inputs). This is the table `fannet joint` prints.
    #[must_use]
    pub fn per_class_frontier(&self) -> Vec<Vec<Option<Rational>>> {
        (0..self.classes)
            .map(|class| {
                (0..self.deltas.len())
                    .map(|d| {
                        let mut worst: Option<Option<Rational>> = None;
                        for input in self.per_input.iter().filter(|t| t.label == class) {
                            let eps = input.per_delta[d];
                            worst = Some(match worst {
                                None => eps,
                                Some(None) => None,
                                Some(Some(w)) => eps.map(|e| e.min(w)),
                            });
                        }
                        worst.flatten()
                    })
                    .collect()
            })
            .collect()
    }

    /// The network-level frontier: the per-δ minimum certified ε over
    /// every analysed input.
    #[must_use]
    pub fn network_frontier(&self) -> Vec<Option<Rational>> {
        (0..self.deltas.len())
            .map(|d| {
                let mut worst: Option<Option<Rational>> = None;
                for input in &self.per_input {
                    let eps = input.per_delta[d];
                    worst = Some(match worst {
                        None => eps,
                        Some(None) => None,
                        Some(Some(w)) => eps.map(|e| e.min(w)),
                    });
                }
                worst.flatten()
            })
            .collect()
    }
}

/// Runs the per-input joint bisections over `indices` (typically the
/// correctly classified samples), fanned across `config.input_threads`
/// workers. The report is identical at any thread count — each
/// bisection is deterministic and inputs are independent.
///
/// # Panics
///
/// Panics if an index is out of range, widths mismatch, or a δ is
/// outside `[0, 100]`.
#[must_use]
pub fn analyze(
    net: &Network<Rational>,
    data: &Dataset,
    indices: &[usize],
    config: &JointAnalysisConfig,
) -> JointFrontierReport {
    let checker = JointChecker::new(net.clone(), config.checker.clone());
    let per_input = par::ordered_map(indices, config.input_threads, |&i| {
        let (sample, label) = (data.samples()[i].as_slice(), data.labels()[i]);
        let x = rational_input(sample);
        let per_delta = config
            .deltas
            .iter()
            .map(|&delta| {
                let (tolerance, _) = checker
                    .tolerance(&x, label, delta, &config.search)
                    .expect("widths validated by caller");
                tolerance.robust_eps
            })
            .collect();
        InputJointFrontier {
            index: i,
            label,
            per_delta,
        }
    });
    JointFrontierReport {
        deltas: config.deltas.clone(),
        search: config.search,
        classes: data.class_counts().len(),
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

    /// label 0 iff x0 ≥ x1 — the joint frontier has the closed form
    /// ε*(δ) from x0(1−d)(1−ε) ≥ x1(1+d)(1+ε).
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

    fn dataset() -> Dataset {
        Dataset::new(vec![vec![100.0, 82.0], vec![40.0, 100.0]], vec![0, 1], 2).unwrap()
    }

    fn config() -> JointAnalysisConfig {
        JointAnalysisConfig {
            input_threads: 1,
            ..JointAnalysisConfig::default()
        }
    }

    #[test]
    fn frontier_is_monotone_and_anchored_at_delta_zero() {
        let report = analyze(&comparator(), &dataset(), &[0, 1], &config());
        assert_eq!(report.per_input.len(), 2);
        for input in &report.per_input {
            assert_eq!(input.per_delta.len(), 3);
            // Monotone in δ: more input noise never certifies more ε.
            for w in input.per_delta.windows(2) {
                match (&w[0], &w[1]) {
                    (Some(a), Some(b)) => assert!(b <= a, "{report:?}"),
                    (None, Some(_)) => panic!("frontier must not recover: {report:?}"),
                    _ => {}
                }
            }
        }
        // δ = 0 column equals the plain fault tolerance (closed form:
        // ε* = 18/182 ≈ 0.0989 → certified 9/100 on the /100 grid).
        assert_eq!(
            report.per_input[0].per_delta[0],
            Some(Rational::new(9, 100))
        );
        // The wide-margin input saturates the grid at every δ.
        assert_eq!(
            report.per_input[1].per_delta[2],
            Some(Rational::new(25, 100))
        );
    }

    #[test]
    fn per_class_and_network_aggregation() {
        let report = analyze(&comparator(), &dataset(), &[0, 1], &config());
        let per_class = report.per_class_frontier();
        assert_eq!(per_class.len(), 2);
        assert_eq!(per_class[0], report.per_input[0].per_delta);
        assert_eq!(per_class[1], report.per_input[1].per_delta);
        let network = report.network_frontier();
        for (d, eps) in network.iter().enumerate() {
            assert_eq!(
                *eps,
                per_class[0][d].min(per_class[1][d]),
                "network = per-δ min over classes"
            );
        }
    }

    #[test]
    fn empty_classes_report_none_and_results_are_thread_invariant() {
        let net = comparator();
        let data = dataset();
        let serial = analyze(&net, &data, &[0], &config());
        assert!(serial.per_class_frontier()[1].iter().all(Option::is_none));
        let parallel = analyze(
            &net,
            &data,
            &[0],
            &JointAnalysisConfig {
                input_threads: 4,
                ..config()
            },
        );
        assert_eq!(serial, parallel);
    }
}
