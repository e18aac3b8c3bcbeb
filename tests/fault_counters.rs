//! Pins the fault-space search counters on the paper's case-study network.
//!
//! `tests/search_counters.rs` pins the input-noise searches; this test
//! pins the weight-fault and joint searches on the same trained 5–20–2
//! network. For every correctly classified test input it runs
//!
//! * `FaultChecker::check` under every screening tier for ±1 % and ±6 %
//!   relative weight noise, neuron 3 of layer 0 stuck at 0, and an
//!   8-bit quantized datapath;
//! * the cascade `FaultChecker::check` for one and two bit flips;
//! * `FaultChecker::tolerance` with the grid and checker of
//!   `FaultAnalysisConfig::default()` (the pipeline's fault section);
//! * the cascade `JointChecker::check` at ±2 % and ±5 % input noise with
//!   ±3 % weight noise,
//!
//! and compares the verdict (for a tolerance: robust ε, first failure and
//! probe count) and every non-timing `SearchStats` field with the table
//! in `tests/data/paper_fault_counters.txt`. A change to the fault or
//! joint search, its probes, screens or split rule that moves any counter
//! of any query fails here with the query named.
//!
//! Every screened query also checks the product domain's box rule live:
//! each visited box books one screen hit or one screen fallback; each
//! fallback splits, is evaluated exactly (a point box) or gets one exact
//! interval pass before it is abandoned; and the only other exact pass is
//! at most one per search, on an undecided root with a continuous fault
//! factor. Every query, screened or not, also checks the screen order:
//! the float screen runs on every box of a screened search, the zonotope
//! screen only under `cascade` and only on the boxes the float screen
//! leaves undecided.

mod common;

use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::core::faults::FaultAnalysisConfig;
use fannet::faults::{FaultChecker, FaultCheckerConfig, FaultModel, FaultStats, JointChecker};
use fannet::numeric::Rational;
use fannet::verify::region::NoiseRegion;
use fannet::verify::ScreeningTier;

const TABLE: &str = include_str!("data/paper_fault_counters.txt");

/// One table row: the query, its answer, then every non-timing counter
/// in declaration order (`budget_exhausted` as 0/1). Checks the box
/// rule on the counters of its `searches` (one per tolerance probe)
/// first.
fn row(
    tier: ScreeningTier,
    query: &str,
    input: usize,
    answer: &str,
    searches: u64,
    stats: &FaultStats,
) -> String {
    let FaultStats {
        boxes_visited,
        splits,
        pruned_correct,
        proved_wrong,
        exact_evals,
        screen_hits,
        screen_fallbacks,
        interval_hits,
        interval_fallbacks,
        zonotope_hits,
        zonotope_fallbacks,
        exact_decisions,
        exact_fallbacks,
        concrete_evals,
        budget_exhausted,
        interval_ns: _,
        zonotope_ns: _,
        exact_ns: _,
        depth_high_water,
    } = *stats;
    let counters = [
        boxes_visited,
        splits,
        pruned_correct,
        proved_wrong,
        exact_evals,
        screen_hits,
        screen_fallbacks,
        interval_hits,
        interval_fallbacks,
        zonotope_hits,
        zonotope_fallbacks,
        exact_decisions,
        exact_fallbacks,
        concrete_evals,
        u64::from(budget_exhausted),
        depth_high_water,
    ];
    let counters: Vec<String> = counters.iter().map(u64::to_string).collect();
    let line = format!(
        "{} {query} {input} {answer} {}",
        tier.name(),
        counters.join(" ")
    );
    assert_box_rule(tier, &line, searches, stats);
    common::assert_screen_order(tier, &line, stats);
    line
}

/// The product domain's box rule, checked on the counters of
/// `searches` screened searches (the unscreened search has no screens
/// to book).
fn assert_box_rule(tier: ScreeningTier, query: &str, searches: u64, s: &FaultStats) {
    if !tier.is_active() {
        return;
    }
    assert_eq!(
        s.screen_hits + s.screen_fallbacks,
        s.boxes_visited,
        "{query}: {s:?}"
    );
    // Fallbacks that neither split nor were evaluated at a point: the
    // boxes abandoned at max_depth, and roots the exact pass decided.
    let unsplit = s
        .screen_fallbacks
        .checked_sub(s.splits + s.exact_evals)
        .unwrap_or_else(|| panic!("{query}: {s:?}"));
    let exact_passes = s.exact_decisions + s.exact_fallbacks;
    assert!(
        unsplit <= exact_passes && exact_passes <= unsplit + searches,
        "{query}: {s:?}"
    );
}

fn noise(numer: i128) -> FaultModel {
    FaultModel::WeightNoise {
        rel_eps: Rational::new(numer, 100),
    }
}

#[test]
fn paper_network_fault_counters_are_pinned() {
    let cs = build(&CaseStudyConfig::paper());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let inputs: Vec<_> = correct
        .iter()
        .map(|&i| {
            let x = behavior::rational_input(&cs.test5.samples()[i]);
            (i, x, cs.test5.labels()[i])
        })
        .collect();
    let models = [
        ("noise-1/100", noise(1)),
        ("noise-6/100", noise(6)),
        (
            "stuck-0-3-0",
            FaultModel::StuckAt {
                layer: 0,
                neuron: 3,
                value: Rational::ZERO,
            },
        ),
        ("quant-8", FaultModel::Quantization { denom_bits: 8 }),
    ];
    let mut got = Vec::new();

    for tier in ScreeningTier::ALL {
        let checker = FaultChecker::new(
            cs.exact_net.clone(),
            FaultCheckerConfig::default().with_screening(tier),
        );
        for (i, x, label) in &inputs {
            for (name, model) in &models {
                let (outcome, stats) = checker.check(x, *label, model).expect("widths");
                got.push(row(tier, name, *i, outcome.wire_name(), 1, &stats));
            }
        }
    }

    let cascade = FaultCheckerConfig::default();
    let checker = FaultChecker::new(cs.exact_net.clone(), cascade.clone());
    for (i, x, label) in &inputs {
        for budget in [1, 2] {
            let model = FaultModel::BitFlips { budget };
            let (outcome, stats) = checker.check(x, *label, &model).expect("widths");
            let name = format!("flips-{budget}");
            got.push(row(
                cascade.screening,
                &name,
                *i,
                outcome.wire_name(),
                1,
                &stats,
            ));
        }
    }

    let analysis = FaultAnalysisConfig::default();
    let checker = FaultChecker::new(cs.exact_net.clone(), analysis.checker.clone());
    for (i, x, label) in &inputs {
        let (tolerance, stats) = checker
            .tolerance(x, *label, &analysis.search)
            .expect("widths");
        let show = |eps: Option<Rational>| eps.map_or_else(|| "-".to_string(), |e| e.to_string());
        let answer = format!(
            "{}:{}:{}",
            show(tolerance.robust_eps),
            show(tolerance.first_failure),
            tolerance.probes
        );
        got.push(row(
            analysis.checker.screening,
            "tolerance",
            *i,
            &answer,
            u64::from(tolerance.probes),
            &stats,
        ));
    }

    let joint = JointChecker::new(cs.exact_net.clone(), cascade.clone());
    for (i, x, label) in &inputs {
        for delta in [2, 5] {
            let region = NoiseRegion::symmetric(delta, x.len());
            let (outcome, stats) = joint.check(x, *label, &region, &noise(3)).expect("widths");
            let name = format!("joint-{delta}-noise-3/100");
            got.push(row(
                cascade.screening,
                &name,
                *i,
                outcome.wire_name(),
                1,
                &stats,
            ));
        }
    }

    let want: Vec<&str> = TABLE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    for (want, got) in want.iter().zip(&got) {
        assert_eq!(got, want, "counters moved (columns: see the table header)");
    }
    assert_eq!(got.len(), want.len(), "query count differs from the table");
}
