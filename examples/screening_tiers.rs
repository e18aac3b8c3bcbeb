//! Screening-tier showdown (DESIGN.md §6/§10): the same P2 queries
//! answered under every [`ScreeningTier`] — exact propagation only, the
//! interval screen, and the interval→zonotope cascade — with identical
//! verdicts and witnesses but very different work profiles. The point
//! of the cascade's zonotope tier is the collapse in explored
//! branch-and-bound boxes at wide noise ranges, where interval
//! decorrelation forces splits the affine-form output-difference
//! classification avoids.
//!
//! ```text
//! cargo run --release --example screening_tiers
//! ```
//!
//! [`ScreeningTier`]: fannet::verify::bab::ScreeningTier

use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::verify::bab::{find_counterexample_with, CheckerConfig, ScreeningTier};
use fannet::verify::region::NoiseRegion;
use std::time::Instant;

fn main() {
    let cs = build(&CaseStudyConfig::paper());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let idx = correct[0];
    let x = behavior::rational_input(&cs.test5.samples()[idx]);
    let label = cs.test5.labels()[idx];
    println!(
        "P2 queries against the trained 5–20–2 network, test input {idx} (label L{label});\n\
         every tier returns the identical verdict and witness — only the\n\
         per-box work changes.\n"
    );

    println!(
        "{:>5}  {:>9}  {:>10}  {:>7}  {:>7}  {:>11}  {:>11}  {:>8}",
        "range", "tier", "time", "boxes", "splits", "interval", "zonotope", "verdict"
    );
    for delta in [10i64, 20, 30, 40, 50] {
        let region = NoiseRegion::symmetric(delta, 5);
        let mut witness = None;
        for tier in ScreeningTier::ALL {
            let config = CheckerConfig::serial_exact().with_screening(tier);
            let t = Instant::now();
            let (outcome, stats) =
                find_counterexample_with(&cs.exact_net, &x, label, &region, &config)
                    .expect("widths match");
            let elapsed = t.elapsed();
            // The cross-tier invariant the whole design rests on.
            let ce = outcome.counterexample().map(|c| c.noise.clone());
            match &witness {
                None => witness = Some(ce),
                Some(baseline) => assert_eq!(
                    baseline, &ce,
                    "tiers must return identical outcomes and witnesses"
                ),
            }
            let rate = |r: Option<f64>| match r {
                Some(r) => format!("{:5.0}% hits", 100.0 * r),
                None => "—".to_string(),
            };
            println!(
                "±{delta:3}%  {:>9}  {:>8.2?}  {:>7}  {:>7}  {:>11}  {:>11}  {}",
                tier.name(),
                elapsed,
                stats.boxes_visited,
                stats.splits,
                rate(stats.interval_hit_rate()),
                rate(stats.zonotope_hit_rate()),
                if outcome.is_robust() {
                    "robust".to_string()
                } else {
                    format!(
                        "flips at {}",
                        outcome.counterexample().expect("checked").noise
                    )
                },
            );
        }
        println!();
    }
    println!(
        "reading the table: at small ranges the interval tier decides every box\n\
         at the root; at wide ranges its decorrelated outputs overlap and it\n\
         splits hundreds of boxes, while the zonotope classifies the *output\n\
         difference* — input correlations cancel — and prunes the tree near the\n\
         root. The cascade always pays the cheapest tier that works."
    );
}
