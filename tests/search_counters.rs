//! Pins the branch-and-bound counters on the paper's case-study network.
//!
//! The serve golden pins absolute counters only on a 2-input comparator;
//! this test pins them on the trained 5–20–2 network the paper analyses.
//! For every correctly classified test input and every screening tier it
//! runs `RegionChecker::check_region` at ±5/±16/±30 % and
//! `collect_region_counterexamples` at ±16 % with the pipeline's cap of
//! 60, and compares each `SearchStats` (timing fields excluded, the
//! split-depth high-water mark included) with the table in
//! `tests/data/paper_search_counters.txt`. A change to the search loop,
//! the screens or the split policy that moves any counter of any query
//! fails here with the query named.
//!
//! Every query also checks the box rule live: a screened search books
//! each visited box as one screen hit or one screen fallback, splits or
//! exactly evaluates each fallback, and never runs exact interval
//! propagation over a box; the unscreened search splits exactly the
//! boxes its exact interval tier leaves undecided. It checks the screen
//! order too: the float screen runs on every box of a screened search,
//! the zonotope screen only under `cascade` and only on the boxes the
//! float screen leaves undecided.

mod common;

use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::verify::bab::{BabStats, CheckerConfig, RegionChecker, ScreeningTier};
use fannet::verify::noise::ExclusionSet;
use fannet::verify::region::NoiseRegion;

const TABLE: &str = include_str!("data/paper_search_counters.txt");

/// One table row: the query, then every non-timing counter in
/// declaration order (`budget_exhausted` as 0/1). Checks the box rule
/// on the counters first.
fn row(tier: ScreeningTier, op: &str, delta: i64, input: usize, stats: &BabStats) -> String {
    let BabStats {
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
        "{} {op} {delta} {input} {}",
        tier.name(),
        counters.join(" ")
    );
    assert_box_rule(tier, &line, stats);
    common::assert_screen_order(tier, &line, stats);
    line
}

/// The input-noise box rule, checked on one query's counters.
fn assert_box_rule(tier: ScreeningTier, query: &str, s: &BabStats) {
    if tier.is_active() {
        assert_eq!(
            (s.exact_decisions, s.exact_fallbacks),
            (0, 0),
            "{query}: {s:?}"
        );
        assert_eq!(
            s.screen_hits + s.screen_fallbacks,
            s.boxes_visited,
            "{query}: {s:?}"
        );
        assert_eq!(
            s.screen_fallbacks,
            s.splits + s.exact_evals,
            "{query}: {s:?}"
        );
    } else {
        assert_eq!(s.exact_fallbacks, s.splits, "{query}: {s:?}");
    }
}

#[test]
fn paper_network_search_counters_are_pinned() {
    let cs = build(&CaseStudyConfig::paper());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let mut got = Vec::new();
    for tier in ScreeningTier::ALL {
        let checker = RegionChecker::new(
            &cs.exact_net,
            CheckerConfig::serial_exact().with_screening(tier),
        );
        for &i in &correct {
            let x = behavior::rational_input(&cs.test5.samples()[i]);
            let label = cs.test5.labels()[i];
            for delta in [5, 16, 30] {
                let region = NoiseRegion::symmetric(delta, x.len());
                let (_, stats) = checker
                    .check_region(&x, label, &region, &ExclusionSet::new())
                    .expect("widths");
                got.push(row(tier, "check", delta, i, &stats));
            }
            let region = NoiseRegion::symmetric(16, x.len());
            let (_, _, stats) = checker
                .collect_region_counterexamples(&x, label, &region, 60)
                .expect("widths");
            got.push(row(tier, "collect", 16, i, &stats));
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
