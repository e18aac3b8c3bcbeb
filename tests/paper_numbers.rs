//! Regression tests pinning the reproduction's paper-facing numbers.
//!
//! The Fig. 3 accounting must match the paper *exactly* (it is a property
//! of the modelling); the case-study numbers are pinned to the values
//! `repro` prints so that any drift in dataset, training or verification
//! is caught immediately.
//!
//! The full-size case study takes a few seconds to build and analyse; this
//! file is the slowest part of the integration suite by design.

use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::core::pipeline::{self, AnalysisConfig};
use fannet::data::golub::{L0_AML, L1_ALL};
use fannet::smv::statespace::PaperFsm;

#[test]
fn fig3_numbers_are_exact() {
    let fig3b = PaperFsm::without_noise(2);
    assert_eq!(fig3b.states(), 3, "paper: 3 states without noise");
    assert_eq!(fig3b.transitions(), 6, "paper: 6 transitions without noise");

    let fig3c = PaperFsm::with_noise(2, 6);
    assert_eq!(fig3c.states(), 65, "paper: 65 states with [0,1]% noise");
    assert_eq!(fig3c.transitions(), 4160, "paper: 4160 transitions");
}

#[test]
fn paper_case_study_headline_numbers() {
    let cs = build(&CaseStudyConfig::paper());

    // §V-A: 100% train / 94.12% test (= 32 of 34).
    assert_eq!(cs.train_accuracy(), 1.0, "paper: 100% training accuracy");
    assert!(
        (cs.test_accuracy() - 32.0 / 34.0).abs() < 1e-9,
        "paper: 94.12% test accuracy, measured {:.4}",
        cs.test_accuracy()
    );

    // §V-A: ~70% of training samples are ALL (L1).
    let l1_fraction = cs.train5.label_fraction(L1_ALL);
    assert!(
        (l1_fraction - 27.0 / 38.0).abs() < 1e-12,
        "paper: ~70% L1, measured {l1_fraction:.3}"
    );

    let report = pipeline::run(
        &cs.exact_net,
        &cs.float_net,
        &cs.train5,
        &cs.test5,
        &AnalysisConfig::default(),
    );

    // §V-C.1: the paper's noise tolerance is ±11%; this reproduction's
    // trained network measures the same (`repro`, E4–E8).
    assert_eq!(
        report.noise_tolerance(),
        11,
        "tolerance must stay ±11%, the paper's value and `repro`'s"
    );

    // §V-C.3: all extracted misclassifications flow L0 → L1.
    assert!(report.bias.flow(L0_AML, L1_ALL) > 0);
    assert_eq!(
        report.bias.flow(L1_ALL, L0_AML),
        0,
        "paper: no L1 → L0 misclassification"
    );
    assert_eq!(report.bias.bias_toward_majority(), Some(true));
    assert_eq!(report.bias.majority_flow_fraction(), 1.0);

    // §V-C.4: at least one node never carries positive noise in any
    // counterexample (the paper's i5 finding; the node index depends on
    // training randomness).
    assert!(
        !report.sensitivity.positive_insensitive_nodes().is_empty(),
        "paper shape: some node is insensitive to positive noise"
    );

    // §V-C.2: some inputs survive even ±50% noise.
    assert!(
        !report.boundary.far_from_boundary().is_empty(),
        "paper: noise as large as 50% did not flip some inputs"
    );

    // Fig. 4: sweep counts are monotone and nontrivial.
    let counts: Vec<usize> = report
        .sweep
        .iter()
        .map(|r| r.misclassified_inputs)
        .collect();
    assert_eq!(counts[0], 0, "nothing flips at ±5 (below tolerance)");
    assert!(*counts.last().unwrap() > 0, "something flips by ±40");
    for w in counts.windows(2) {
        assert!(w[1] >= w[0]);
    }
}
