//! The paper's leukemia case study, end to end (paper §V-A/V-B).
//!
//! [`build`] reproduces the full experimental setup:
//!
//! 1. generate the synthetic Golub dataset (7129 genes, 38/34 split,
//!    ≈70 % ALL in training — see `fannet_data::golub` for the
//!    substitution argument);
//! 2. select the top five genes with mRMR;
//! 3. z-score-normalize, train the 5–20(ReLU)–2 network full-batch with
//!    the paper's two-phase learning-rate schedule (0.5 × 40 epochs,
//!    0.2 × 40 epochs);
//! 4. fold the normalization back into the first layer so the deployed
//!    network consumes **raw integer gene expressions** (the domain the
//!    paper's relative noise model lives in);
//! 5. quantize exactly to rationals for verification.
//!
//! Everything is deterministic in the configuration (dataset seed +
//! training seed), so reports and `repro`'s tables are reproducible run
//! to run.

use fannet_data::discretize::Discretizer;
use fannet_data::golub::{self, GolubConfig, GolubLeukemia};
use fannet_data::mrmr::{self, MrmrScheme, Selection};
use fannet_data::normalize::Affine;
use fannet_data::Dataset;
use fannet_nn::train::{TrainConfig, TrainReport};
use fannet_nn::{fold, init, quantize, train, Activation, Network};
use fannet_numeric::Rational;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// Dataset generator settings.
    pub golub: GolubConfig,
    /// Number of genes to keep (paper: 5).
    pub selected_features: usize,
    /// Hidden-layer width (paper: 20).
    pub hidden: usize,
    /// mRMR scoring scheme.
    pub mrmr: MrmrScheme,
    /// Training settings (paper schedule by default).
    pub train: TrainConfig,
    /// Weight-initialization seed.
    pub init_seed: u64,
    /// Quantization precision in denominator bits.
    pub denom_bits: u32,
}

impl CaseStudyConfig {
    /// The paper's configuration at full dataset size.
    #[must_use]
    pub fn paper() -> Self {
        CaseStudyConfig {
            golub: GolubConfig::paper(),
            selected_features: 5,
            hidden: 20,
            mrmr: MrmrScheme::Difference,
            train: TrainConfig::paper(),
            init_seed: 0xFA_77E7,
            denom_bits: quantize::DEFAULT_DENOM_BITS,
        }
    }

    /// A reduced configuration (500 genes) for fast tests.
    #[must_use]
    pub fn small() -> Self {
        CaseStudyConfig {
            golub: GolubConfig::small(),
            ..Self::paper()
        }
    }
}

/// All artifacts of the trained-and-quantized case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The generated dataset (full gene width).
    pub data: GolubLeukemia,
    /// The mRMR gene selection.
    pub selection: Selection,
    /// Training split projected to the selected genes (raw integers).
    pub train5: Dataset,
    /// Test split projected to the selected genes (raw integers).
    pub test5: Dataset,
    /// Trained float network consuming *raw* inputs (normalization folded).
    pub float_net: Network<f64>,
    /// Exactly-quantized verification network.
    pub exact_net: Network<Rational>,
    /// Per-epoch training history.
    pub train_report: TrainReport,
    /// The normalization that was folded into the first layer.
    pub normalization: Affine,
}

impl CaseStudy {
    /// Training accuracy after the final epoch (paper: 100 %).
    #[must_use]
    pub fn train_accuracy(&self) -> f64 {
        self.train_report.final_accuracy()
    }

    /// Test accuracy of the folded float network on raw inputs
    /// (paper: 94.12 %).
    #[must_use]
    pub fn test_accuracy(&self) -> f64 {
        train::accuracy(&self.float_net, self.test5.samples(), self.test5.labels())
            .expect("shapes fixed by construction")
    }
}

/// Builds the complete case study from a configuration. Deterministic.
///
/// # Panics
///
/// Panics if the configuration is internally inconsistent (e.g. more
/// selected features than genes).
#[must_use]
pub fn build(config: &CaseStudyConfig) -> CaseStudy {
    let data = golub::generate(&config.golub);

    // mRMR on the training columns only (no test leakage).
    let selection = mrmr::select_mrmr(
        &data.train.columns(),
        data.train.labels(),
        config.selected_features,
        config.mrmr,
        Discretizer::SigmaBands,
    );
    let train5 = data.train.select_features(&selection.features);
    let test5 = data.test.select_features(&selection.features);

    // Normalize for training, then fold the affine into the first layer.
    // Scale-only (no mean subtraction): the folded network keeps the
    // approximate scale-equivariance of the paper's raw-integer-input
    // network (see `Affine::fit_max_abs`).
    let normalization = Affine::fit_max_abs(&train5);
    let train_norm = normalization.apply_dataset(&train5);

    let mut net = init::fresh_network(
        &mut StdRng::seed_from_u64(config.init_seed),
        &[config.selected_features, config.hidden, 2],
        Activation::ReLU,
        init::Init::XavierUniform,
    );
    let train_report = train::train(
        &mut net,
        train_norm.samples(),
        train_norm.labels(),
        &config.train,
    )
    .expect("shapes fixed by construction");

    let float_net = fold::fold_input_affine(&net, normalization.scale(), normalization.offset())
        .expect("affine fitted on the same width");
    let exact_net = quantize::to_rational(&float_net, config.denom_bits);

    CaseStudy {
        data,
        selection,
        train5,
        test5,
        float_net,
        exact_net,
        train_report,
        normalization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior;

    fn study() -> CaseStudy {
        build(&CaseStudyConfig::small())
    }

    #[test]
    fn shapes_match_the_paper() {
        let cs = study();
        assert_eq!(cs.train5.len(), 38);
        assert_eq!(cs.test5.len(), 34);
        assert_eq!(cs.train5.features(), 5);
        assert_eq!(cs.float_net.topology(), vec![5, 20, 2]);
        assert_eq!(cs.exact_net.topology(), vec![5, 20, 2]);
        assert_eq!(cs.selection.features.len(), 5);
    }

    #[test]
    fn training_reaches_paper_accuracy_shape() {
        let cs = study();
        // Paper: 100 % train accuracy; ≥ 94 % test accuracy (exact value
        // depends on the synthetic draw — `repro`'s E3 section prints both).
        assert_eq!(
            cs.train_accuracy(),
            1.0,
            "losses: {:?}",
            cs.train_report.epoch_loss
        );
        assert!(
            cs.test_accuracy() >= 0.85,
            "test accuracy {:.3} collapsed",
            cs.test_accuracy()
        );
        assert!(
            cs.test_accuracy() < 1.0,
            "hard test samples should make the test set imperfect, as in the paper"
        );
    }

    #[test]
    fn folded_network_consumes_raw_integers() {
        let cs = study();
        // Raw gene-expression inputs: integers, magnitudes in the hundreds
        // to thousands.
        let (sample, _) = cs.test5.iter().next().unwrap();
        assert!(sample.iter().all(|v| v.fract() == 0.0));
        // The exact net classifies the raw sample identically to float.
        let report = behavior::validate(&cs.exact_net, &cs.float_net, &cs.test5);
        assert!(report.translation_faithful(), "{report:?}");
    }

    #[test]
    fn deterministic_build() {
        let a = study();
        let b = study();
        assert_eq!(a.float_net, b.float_net);
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.test_accuracy(), b.test_accuracy());
    }

    #[test]
    fn train_bias_is_present() {
        let cs = study();
        // ~70 % of training samples in class L1 (ALL).
        let frac = cs.train5.label_fraction(golub::L1_ALL);
        assert!((frac - 27.0 / 38.0).abs() < 1e-12);
    }
}
