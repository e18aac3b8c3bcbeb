//! The full FANNet analysis pipeline (paper Fig. 1/Fig. 2) and its
//! aggregated report.
//!
//! [`run`] chains every stage of the methodology over a trained exact
//! network and a test set:
//!
//! 1. **Behaviour extraction / P1** — validate the exact model against the
//!    float reference and the true labels; keep the correctly classified
//!    inputs.
//! 2. **Noise tolerance / P2** — per-input robustness radii, dataset
//!    tolerance, and the Fig. 4 misclassification sweep.
//! 3. **Adversarial extraction / P3** — unique noise vectors (the matrix
//!    `e`).
//! 4. **Training bias** — misclassification flow vs training composition.
//! 5. **Input-node sensitivity** — per-node noise-sign statistics.
//! 6. **Boundary analysis** — radius/margin view of boundary proximity.

use fannet_data::Dataset;
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_obs::Span;
use fannet_verify::bab::{default_threads, CheckerConfig};

use crate::adversarial::{self, AdversarialReport};
use crate::behavior::{self, ValidationReport};
use crate::bias::{self, BiasReport};
use crate::boundary::{self, BoundaryReport};
use crate::faults::{self, FaultAnalysisConfig, FaultReport};
use crate::joint::{self, JointAnalysisConfig, JointFrontierReport};
use crate::sensitivity::{self, SensitivityReport};
use crate::tolerance::{self, SweepRow, ToleranceReport};

/// Knobs of the end-to-end analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Largest noise range probed by the tolerance search.
    pub max_delta: i64,
    /// Ranges reported in the Fig. 4 sweep.
    pub sweep_deltas: Vec<i64>,
    /// Range used for adversarial extraction (bias/sensitivity analyses).
    /// `None` picks `tolerance + 5` automatically — just past the point
    /// where counterexamples start existing, where the bias signal is
    /// sharpest (at very large ranges every input flips and the flow
    /// statistics wash out).
    pub extraction_delta: Option<i64>,
    /// Cap on extracted vectors per input (the paper extracts *some*, not
    /// all, counterexamples).
    pub per_input_cap: usize,
    /// Radius at or below which an input counts as near the boundary.
    pub near_threshold: i64,
    /// Per-query checker tiers (screening on by default; results are
    /// identical across configurations, only wall clock changes).
    pub checker: CheckerConfig,
    /// Worker threads fanning the per-input P2/P3 queries
    /// (`FANNET_THREADS` overrides the default of all cores; `1` = serial).
    pub input_threads: usize,
    /// The weight-fault tolerance section (`fault_report`): ε grid and
    /// fault-checker budget of the per-input bisections.
    pub fault: FaultAnalysisConfig,
    /// The joint input×weight frontier section (`joint_frontier`): δ
    /// axis, ε grid and product-search budget.
    pub joint: JointAnalysisConfig,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_delta: 50,
            sweep_deltas: vec![5, 10, 15, 20, 25, 30, 35, 40],
            extraction_delta: None,
            per_input_cap: 60,
            near_threshold: 15,
            // Per-input fan-out saturates the cores (each query is one
            // serial search); the cascade routes each box through the
            // cheapest screen that can decide it (interval → zonotope),
            // splits what neither decides and runs exact work only at
            // point boxes, which is what keeps the wide-delta sweep rows
            // affordable.
            checker: CheckerConfig::cascade(),
            input_threads: default_threads(),
            fault: FaultAnalysisConfig::default(),
            joint: JointAnalysisConfig::default(),
        }
    }
}

/// Aggregated output of one FANNet run.
#[derive(Debug, Clone)]
pub struct FannetReport {
    /// P1 validation of the exact model.
    pub validation: ValidationReport,
    /// Per-input radii and the dataset noise tolerance.
    pub tolerance: ToleranceReport,
    /// Misclassified-inputs-per-range sweep (Fig. 4 main panel).
    pub sweep: Vec<SweepRow>,
    /// The extracted noise matrix `e`.
    pub adversarial: AdversarialReport,
    /// Training-bias flows.
    pub bias: BiasReport,
    /// Per-node sensitivities.
    pub sensitivity: SensitivityReport,
    /// Boundary-proximity view.
    pub boundary: BoundaryReport,
    /// Per-class weight-fault tolerance (DESIGN.md §11).
    pub fault: FaultReport,
    /// Per-class joint input×weight (δ, ε) frontier (DESIGN.md §12).
    pub joint: JointFrontierReport,
}

impl FannetReport {
    /// The headline number: the network's noise tolerance `±Δ%`.
    #[must_use]
    pub fn noise_tolerance(&self) -> i64 {
        self.tolerance.tolerance()
    }

    /// Renders the report as the text tables printed by the `repro`
    /// binary (one block per paper artifact).
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        let _ = writeln!(out, "== P1 validation (behaviour extraction) ==");
        let _ = writeln!(
            out,
            "accuracy {}/{} = {:.2}%  translation_faithful={}",
            self.validation.correct,
            self.validation.total,
            100.0 * self.validation.accuracy(),
            self.validation.translation_faithful()
        );

        let _ = writeln!(out, "\n== Noise tolerance (Fig. 4, §V-C.1) ==");
        let _ = writeln!(
            out,
            "noise tolerance: ±{}% (max probed ±{}%)",
            self.noise_tolerance(),
            self.tolerance.max_delta
        );
        let _ = writeln!(out, "range     misclassified inputs");
        for row in &self.sweep {
            let _ = writeln!(
                out,
                "[-{:2},+{:2}]  {:3} / {}",
                row.delta, row.delta, row.misclassified_inputs, row.total_inputs
            );
        }

        let _ = writeln!(out, "\n== Adversarial noise vectors (P3, §IV-C) ==");
        let _ = writeln!(
            out,
            "extracted {} unique vectors at ±{}% over {} inputs",
            self.adversarial.total_vectors(),
            self.adversarial.delta,
            self.adversarial.per_input.len()
        );

        let _ = writeln!(out, "\n== Training bias (§V-C.3) ==");
        for (a, row) in self.bias.flows.iter().enumerate() {
            for (b, &n) in row.iter().enumerate() {
                if a != b {
                    let _ = writeln!(out, "L{a} -> L{b}: {n}");
                }
            }
        }
        let _ = writeln!(
            out,
            "train fractions: {:?}  majority=L{}  bias_toward_majority={:?}  majority_flow={:.0}%",
            self.bias.train_fractions,
            self.bias.majority_class(),
            self.bias.bias_toward_majority(),
            100.0 * self.bias.majority_flow_fraction()
        );
        for (c, &(flippable, total)) in self.bias.per_class_fragility.iter().enumerate() {
            let _ = writeln!(
                out,
                "class L{c} fragility: {flippable}/{total} inputs flip within ±{}%",
                self.adversarial.delta
            );
        }

        let _ = writeln!(out, "\n== Input-node sensitivity (§V-C.4) ==");
        let _ = writeln!(out, "node  +noise  -noise  zero  asymmetry");
        for n in &self.sensitivity.nodes {
            let _ = writeln!(
                out,
                "i{}    {:5}  {:5}  {:5}  {:+.2}{}",
                n.node + 1,
                n.positive,
                n.negative,
                n.zero,
                n.sign_asymmetry(),
                if n.insensitive_to_positive() {
                    "  (insensitive to positive noise)"
                } else if n.insensitive_to_negative() {
                    "  (insensitive to negative noise)"
                } else {
                    ""
                }
            );
        }

        let _ = writeln!(out, "\n== Weight-fault tolerance (fannet-faults) ==");
        let _ = writeln!(
            out,
            "relative weight noise, certified on the grid eps = k/{}, k <= {}:",
            self.fault.search.denom, self.fault.search.max_numer
        );
        let fmt_eps = |eps: &Option<Rational>| match eps {
            Some(e) => format!("eps >= {e} (~{:.3})", e.to_f64()),
            None => "n/a (no analysed inputs)".to_string(),
        };
        for (class, eps) in self.fault.per_class_tolerance().iter().enumerate() {
            let _ = writeln!(out, "class L{class}: {}", fmt_eps(eps));
        }
        let _ = writeln!(
            out,
            "network fault tolerance: {}",
            fmt_eps(&self.fault.network_tolerance())
        );

        let _ = writeln!(
            out,
            "\n== Joint input × weight robustness (fannet-search) =="
        );
        let _ = writeln!(
            out,
            "largest certified weight-noise eps (grid k/{}, k <= {}) per input-noise radius:",
            self.joint.search.denom, self.joint.search.max_numer
        );
        let deltas: Vec<String> = self.joint.deltas.iter().map(|d| format!("±{d}%")).collect();
        let _ = writeln!(out, "class      {}", deltas.join("      "));
        let fmt_cell = |eps: &Option<Rational>| match eps {
            Some(e) => format!("{:.3}", e.to_f64()),
            None => "  -  ".to_string(),
        };
        for (class, row) in self.joint.per_class_frontier().iter().enumerate() {
            let cells: Vec<String> = row.iter().map(fmt_cell).collect();
            let _ = writeln!(out, "L{class}        {}", cells.join("     "));
        }
        let cells: Vec<String> = self.joint.network_frontier().iter().map(fmt_cell).collect();
        let _ = writeln!(out, "network   {}", cells.join("     "));

        let _ = writeln!(out, "\n== Boundary analysis (§V-C.2) ==");
        let _ = writeln!(
            out,
            "near boundary (radius <= {}): {:?}",
            self.boundary.near_threshold,
            self.boundary.near_boundary()
        );
        let _ = writeln!(
            out,
            "robust through ±{}%: {:?}",
            self.tolerance.max_delta,
            self.boundary.far_from_boundary()
        );
        let _ = writeln!(
            out,
            "margin/radius concordance: {:.2}",
            self.boundary.margin_radius_concordance()
        );
        out
    }
}

/// Runs the complete FANNet methodology.
///
/// `train` is used only for the bias analysis (training composition);
/// `test` is the analysed dataset, restricted to its correctly classified
/// samples as in the paper.
///
/// # Panics
///
/// Panics if network/dataset widths mismatch.
#[must_use]
pub fn run(
    exact: &Network<Rational>,
    reference: &Network<f64>,
    train: &Dataset,
    test: &Dataset,
    config: &AnalysisConfig,
) -> FannetReport {
    // Each stage runs under an obs span, so a full run populates the
    // process-global registry with one `pipeline::<stage>` histogram per
    // stage — surfaced through the `metrics` JSONL op (DESIGN.md §14).
    let validation = {
        let _span = Span::enter("pipeline::validate");
        behavior::validate(exact, reference, test)
    };
    let correct = behavior::correctly_classified(exact, test);

    let tolerance = {
        let _span = Span::enter("pipeline::tolerance");
        tolerance::par_analyze(
            exact,
            test,
            &correct,
            config.max_delta,
            &config.checker,
            config.input_threads,
        )
    };
    let sweep = tolerance.sweep(&config.sweep_deltas);

    let extraction_delta = config
        .extraction_delta
        .unwrap_or_else(|| (tolerance.tolerance() + 5).clamp(1, config.max_delta));
    let adversarial = {
        let _span = Span::enter("pipeline::adversarial");
        adversarial::par_extract(
            exact,
            test,
            &correct,
            extraction_delta,
            config.per_input_cap,
            &config.checker,
            config.input_threads,
        )
    };
    let bias = bias::analyze(&adversarial, &tolerance, train);
    let sensitivity = sensitivity::analyze(&adversarial);
    let boundary = {
        let _span = Span::enter("pipeline::boundary");
        boundary::analyze(exact, test, &tolerance, config.near_threshold)
    };
    let fault = {
        let _span = Span::enter("pipeline::faults");
        faults::analyze(exact, test, &correct, &config.fault)
    };
    let joint = {
        let _span = Span::enter("pipeline::joint");
        joint::analyze(exact, test, &correct, &config.joint)
    };

    FannetReport {
        validation,
        tolerance,
        sweep,
        adversarial,
        bias,
        sensitivity,
        boundary,
        fault,
        joint,
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

    /// Hand-built comparator pair (exact + float) for fast pipeline tests.
    fn nets() -> (Network<Rational>, Network<f64>) {
        let exact = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let float = exact.map(|v| v.to_f64());
        (exact, float)
    }

    fn datasets() -> (Dataset, Dataset) {
        // Biased training set: 3 of 4 samples in class 1.
        let train = Dataset::new(
            vec![
                vec![100.0, 40.0],
                vec![40.0, 100.0],
                vec![30.0, 90.0],
                vec![20.0, 80.0],
            ],
            vec![0, 1, 1, 1],
            2,
        )
        .unwrap();
        // Test set with one near-boundary input per class plus one
        // misclassified sample (label 1 but x0 > x1).
        let test = Dataset::new(
            vec![
                vec![100.0, 96.0],
                vec![96.0, 100.0],
                vec![100.0, 40.0],
                vec![90.0, 80.0],
            ],
            vec![0, 1, 0, 1],
            2,
        )
        .unwrap();
        (train, test)
    }

    /// `run` books its stage spans into the process-wide registry, so the
    /// tests calling it take turns: the registry test counts exact
    /// increments, which a concurrent `run` would break.
    fn turn() -> std::sync::MutexGuard<'static, ()> {
        static RUN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        RUN.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            max_delta: 20,
            sweep_deltas: vec![1, 2, 5, 10, 20],
            extraction_delta: Some(5),
            per_input_cap: 50,
            near_threshold: 5,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn pipeline_end_to_end() {
        let _turn = turn();
        let (exact, float) = nets();
        let (train, test) = datasets();
        let report = run(&exact, &float, &train, &test, &config());

        // Validation: 3 of 4 test samples correct.
        assert_eq!(report.validation.correct, 3);
        assert!(report.validation.translation_faithful());

        // Tolerance: the 2 % margins flip at small Δ.
        assert!(report.noise_tolerance() < 5, "{:?}", report.tolerance);
        assert_eq!(report.tolerance.per_input.len(), 3);

        // Sweep is monotone.
        let counts: Vec<usize> = report
            .sweep
            .iter()
            .map(|r| r.misclassified_inputs)
            .collect();
        for w in counts.windows(2) {
            assert!(w[1] >= w[0]);
        }

        // Adversarial vectors exist at ±5 for the near-boundary inputs.
        assert!(report.adversarial.total_vectors() > 0);

        // Bias flows recorded both ways for this symmetric comparator.
        assert_eq!(report.bias.total(), report.adversarial.total_vectors());

        // Sensitivity table covers both nodes.
        assert_eq!(report.sensitivity.nodes.len(), 2);

        // Boundary: the wide-margin input is robust through ±20.
        assert!(report.boundary.far_from_boundary().contains(&2));

        // Fault section: one entry per correctly classified input; the
        // near-boundary pair (ε* = 4/196 ≈ 0.0204) pins the network
        // tolerance to the 2/100 grid point, the wide-margin input
        // (ε* = 60/140) saturates the default grid at 25/100.
        assert_eq!(report.fault.per_input.len(), 3);
        assert_eq!(
            report.fault.network_tolerance(),
            Some(Rational::new(2, 100))
        );
        let per_class = report.fault.per_class_tolerance();
        assert_eq!(per_class[0], Some(Rational::new(2, 100)));
        assert_eq!(per_class[1], Some(Rational::new(2, 100)));
    }

    #[test]
    fn render_text_contains_all_sections() {
        let _turn = turn();
        let (exact, float) = nets();
        let (train, test) = datasets();
        let report = run(&exact, &float, &train, &test, &config());
        let text = report.render_text();
        for needle in [
            "P1 validation",
            "Noise tolerance",
            "Adversarial noise vectors",
            "Training bias",
            "Input-node sensitivity",
            "Weight-fault tolerance",
            "network fault tolerance: eps >=",
            "Joint input × weight robustness",
            "Boundary analysis",
            "noise tolerance: ±",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn run_populates_the_pipeline_span_registry() {
        let _turn = turn();
        let (exact, float) = nets();
        let (train, test) = datasets();
        let counts_of = |name: &str| {
            fannet_obs::global_registry()
                .snapshot()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        let stages = [
            "pipeline::validate",
            "pipeline::tolerance",
            "pipeline::adversarial",
            "pipeline::boundary",
            "pipeline::faults",
            "pipeline::joint",
        ];
        let before: Vec<u64> = stages.iter().map(|s| counts_of(s)).collect();
        let _ = run(&exact, &float, &train, &test, &config());
        for (stage, before) in stages.iter().zip(before) {
            assert_eq!(counts_of(stage), before + 1, "stage {stage} unrecorded");
        }
    }

    #[test]
    fn default_config_is_paper_shaped() {
        let c = AnalysisConfig::default();
        assert_eq!(c.max_delta, 50);
        assert_eq!(c.sweep_deltas, vec![5, 10, 15, 20, 25, 30, 35, 40]);
    }
}
