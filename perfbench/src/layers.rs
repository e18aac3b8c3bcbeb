//! Per-layer metrics, named by the repository's modules, and the
//! formulas that turn wire counters into them.
//!
//! Every traced run prints every metric of [`PER_LAYER`]. A layer that
//! does no work on a workload reports 0 there (the pipeline never enters
//! the server's queue; the server workloads never run a fault search),
//! and so does every ratio whose denominator counted nothing.

use std::collections::BTreeMap;

use fannet_search::SearchStats;
use serde::Value;

use crate::stats::{median, percentile, ratio, sorted};
use crate::wire;

/// Every per-layer metric: name, unit, and the end-to-end metric it
/// should move (the layer → end-to-end map).
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    // server: queue wait from `trace.queue_ns`; transport = client latency
    // − queue_ns − trace.wall_ns (framing, sequencing, writes, loopback).
    ("server.queue_ms_p50", "ms", "latency_p99_ms on noise-cold"),
    ("server.queue_ms_p99", "ms", "latency_p99_ms on noise-cold"),
    (
        "server.transport_ms_p50",
        "ms",
        "latency_p50_ms and throughput_rps on sweep-warm",
    ),
    (
        "server.transport_ms_p99",
        "ms",
        "latency_p50_ms and throughput_rps on sweep-warm",
    ),
    // protocol: `parse_request` / `render_response` timed in process over
    // the run's lines; bytes per response line as received.
    ("protocol.parse_us", "us", "cpu_ms_per_op on sweep-warm"),
    ("protocol.render_us", "us", "cpu_ms_per_op on sweep-warm"),
    (
        "protocol.response_bytes",
        "bytes",
        "cpu_ms_per_op on sweep-warm",
    ),
    // engine: `stats` deltas across the traced window, and
    // `trace.wall_ns` split by `trace.cache`.
    (
        "engine.hit_ratio",
        "fraction",
        "latency_p50_ms on sweep-warm",
    ),
    ("engine.misses", "count", "throughput_rps on noise-cold"),
    ("engine.evictions", "count", "throughput_rps on noise-cold"),
    ("engine.hit_us_p50", "us", "latency_p50_ms on sweep-warm"),
    ("engine.miss_ms_p50", "ms", "throughput_rps on noise-cold"),
    ("engine.miss_ms_p99", "ms", "throughput_rps on noise-cold"),
    // search: per solver-answered request (a cache miss or an uncached
    // extraction); ns per box from the traces' tier time and boxes.
    (
        "search.boxes_per_miss",
        "count",
        "throughput_rps on noise-cold",
    ),
    (
        "search.splits_per_miss",
        "count",
        "throughput_rps on noise-cold",
    ),
    ("search.ns_per_box", "ns", "throughput_rps on noise-cold"),
    // verify: input-noise tiers (see `TierYield::input_noise`).
    (
        "verify.interval.ns_share",
        "fraction",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.interval.evals",
        "count",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.interval.decided",
        "count",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.interval.yield",
        "fraction",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.zonotope.ns_share",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    (
        "verify.zonotope.evals",
        "count",
        "analysis_s on paper-pipeline",
    ),
    (
        "verify.zonotope.decided",
        "count",
        "analysis_s on paper-pipeline",
    ),
    (
        "verify.zonotope.yield",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    (
        "verify.exact.ns_share",
        "fraction",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.exact.evals",
        "count",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.exact.decided",
        "count",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    (
        "verify.exact.yield",
        "fraction",
        "throughput_rps, latency_p99_ms; analysis_s",
    ),
    // faults: the pipeline's fault and joint bisections replayed timed
    // (see `TierYield::fault_domain`).
    ("faults.boxes", "count", "analysis_s on paper-pipeline"),
    (
        "faults.budget_exhausted",
        "count",
        "analysis_s on paper-pipeline",
    ),
    (
        "faults.interval.ns_share",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    (
        "faults.zonotope.ns_share",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    (
        "faults.exact.ns_share",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    (
        "faults.zonotope.yield",
        "fraction",
        "analysis_s on paper-pipeline",
    ),
    // core: each section function `pipeline::run` calls, timed alone.
    ("core.tolerance_s", "s", "analysis_s on paper-pipeline"),
    ("core.adversarial_s", "s", "analysis_s on paper-pipeline"),
    ("core.boundary_s", "s", "analysis_s on paper-pipeline"),
    ("core.faults_s", "s", "analysis_s on paper-pipeline"),
    ("core.joint_s", "s", "analysis_s on paper-pipeline"),
    // obs: 1 − traced ÷ untraced throughput; guards the cost of tracing.
    ("obs.trace_overhead", "fraction", "none"),
];

/// Per-layer values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Every metric of [`PER_LAYER`] with its unit, 0 where unset.
    #[must_use]
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// Records the tier metrics under `prefix` (`verify` or `faults`).
    pub fn set_tiers(&mut self, prefix: &str, tiers: &[TierYield; 3]) {
        for t in tiers {
            for (field, value) in [
                ("ns_share", t.ns_share),
                ("evals", t.evals as f64),
                ("decided", t.decided as f64),
                ("yield", t.yield_()),
            ] {
                let name = format!("{prefix}.{}.{field}", t.tier);
                if let Some(&(n, _, _)) = PER_LAYER.iter().find(|(n, _, _)| *n == name) {
                    self.set(n, value);
                }
            }
        }
    }
}

/// One screening tier's work and what it decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierYield {
    /// `interval`, `zonotope` or `exact`.
    pub tier: &'static str,
    /// Boxes the tier was run on.
    pub evals: u64,
    /// Boxes the tier classified on its own.
    pub decided: u64,
    /// The tier's share of all tier nanoseconds.
    pub ns_share: f64,
}

impl TierYield {
    /// Decided ÷ evals (0 when the tier never ran).
    #[must_use]
    pub fn yield_(&self) -> f64 {
        ratio(self.decided as f64, self.evals as f64)
    }

    /// The three tiers of the input-noise domain from its counters, with
    /// `ns` = (interval, zonotope, exact) tier nanoseconds.
    ///
    /// Float tiers: evals = hits + fallbacks, decided = hits. The exact
    /// tier is the domain's fallback rather than a cascade member, so it
    /// never books `exact_decisions`; it runs exact interval propagation
    /// on every non-point box the screens leave undecided, so
    ///
    /// ```text
    /// exact evals   = screen_fallbacks − exact_evals
    /// exact decided = screen_fallbacks − exact_evals − splits
    /// ```
    ///
    /// (`exact_evals` counts point evaluations, which every screen
    /// fallback on a grid point needs for its witness, and each undecided
    /// non-point box is split exactly once).
    #[must_use]
    pub fn input_noise(s: &SearchStats, ns: [u64; 3]) -> [TierYield; 3] {
        let shares = shares(ns);
        let exact_evals = s.screen_fallbacks.saturating_sub(s.exact_evals);
        [
            TierYield {
                tier: "interval",
                evals: s.interval_hits + s.interval_fallbacks,
                decided: s.interval_hits,
                ns_share: shares[0],
            },
            TierYield {
                tier: "zonotope",
                evals: s.zonotope_hits + s.zonotope_fallbacks,
                decided: s.zonotope_hits,
                ns_share: shares[1],
            },
            TierYield {
                tier: "exact",
                evals: exact_evals,
                decided: exact_evals.saturating_sub(s.splits),
                ns_share: shares[2],
            },
        ]
    }

    /// The three tiers of the fault and joint domains, where the exact
    /// interval tier is a cascade member and books its own
    /// `exact_decisions` and `exact_fallbacks`.
    #[must_use]
    pub fn fault_domain(s: &SearchStats) -> [TierYield; 3] {
        let shares = shares([s.interval_ns, s.zonotope_ns, s.exact_ns]);
        [
            TierYield {
                tier: "interval",
                evals: s.interval_hits + s.interval_fallbacks,
                decided: s.interval_hits,
                ns_share: shares[0],
            },
            TierYield {
                tier: "zonotope",
                evals: s.zonotope_hits + s.zonotope_fallbacks,
                decided: s.zonotope_hits,
                ns_share: shares[1],
            },
            TierYield {
                tier: "exact",
                evals: s.exact_decisions + s.exact_fallbacks,
                decided: s.exact_decisions,
                ns_share: shares[2],
            },
        ]
    }
}

fn shares(ns: [u64; 3]) -> [f64; 3] {
    let total: u64 = ns.iter().sum();
    ns.map(|n| ratio(n as f64, total as f64))
}

/// The trace object of one traced response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trace {
    /// Engine wall time.
    pub wall_ns: u64,
    /// Time queued before a worker picked the request up.
    pub queue_ns: u64,
    /// Whether the cache answered (`exact` or `subsumed`).
    pub hit: bool,
    /// Tier nanoseconds (interval, zonotope, exact).
    pub tier_ns: [u64; 3],
    /// Boxes the solver visited.
    pub boxes: u64,
}

impl Trace {
    /// The trace of a parsed response, if it carries one.
    #[must_use]
    pub fn of(response: &Value) -> Option<Trace> {
        let t = wire::get(response, "trace")?;
        let n = |keys: &[&str]| wire::path(t, keys).and_then(wire::as_u64);
        let cache = wire::get(t, "cache").and_then(wire::as_str)?;
        Some(Trace {
            wall_ns: n(&["wall_ns"])?,
            queue_ns: n(&["queue_ns"])?,
            hit: cache != "miss",
            tier_ns: [
                n(&["tiers", "interval", "ns"])?,
                n(&["tiers", "zonotope", "ns"])?,
                n(&["tiers", "exact", "ns"])?,
            ],
            boxes: n(&["boxes_visited"])?,
        })
    }
}

/// Median and p99 of `values`.
#[must_use]
pub fn p50_p99(values: Vec<f64>) -> (f64, f64) {
    let v = sorted(values);
    (median(&v), percentile(&v, 99.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Network, Readout};
    use fannet_numeric::Rational;
    use fannet_tensor::Matrix;
    use fannet_verify::bab::{CheckerConfig, RegionChecker};
    use fannet_verify::{ExclusionSet, NoiseRegion};

    #[test]
    fn exact_yield_on_a_hand_checked_query() {
        // label 0 iff x0 ≥ x1 (identity layer, max readout), at
        // x = (100, 96) under ±3% on a 7 × 7 grid. Three grid points fail:
        // (−3, +2), (−3, +3) and (−2, +3) (e.g. 97 < 96 · 1.02 = 97.92).
        // Depth-first search splits the box 6 times on the way down to
        // (−3, +2) (each box on that path straddles the boundary, so
        // neither the float screen nor exact propagation decides it), the
        // interval screen prunes the 2 halves it can prove correct, and
        // (−3, +2) itself is a point evaluation: 9 boxes, 7 screen
        // fallbacks.
        let r = |n: i128| Rational::from_integer(n);
        let net = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let x = [r(100), r(96)];
        let checker = RegionChecker::new(&net, CheckerConfig::screened());
        let (outcome, s) = checker
            .check_region(&x, 0, &NoiseRegion::symmetric(3, 2), &ExclusionSet::new())
            .unwrap();
        assert_eq!(
            outcome
                .counterexample()
                .map(|ce| ce.noise.percents().to_vec()),
            Some(vec![-3, 2])
        );
        assert_eq!(
            (s.boxes_visited, s.splits, s.screen_hits, s.screen_fallbacks),
            (9, 6, 2, 7)
        );
        assert_eq!(s.exact_evals, 1, "the failing point");
        // The interval screen classifies all 9 boxes: the 2 pruned halves
        // and the failing point are decided, the 6 split boxes are not.
        let [interval, zonotope, exact] = TierYield::input_noise(&s, [1, 0, 3]);
        assert_eq!((interval.evals, interval.decided), (9, 3));
        assert_eq!((zonotope.evals, zonotope.decided), (0, 0));
        // Exact propagation ran on the 7 − 1 = 6 non-point fallbacks and
        // decided none: all 6 were split.
        assert_eq!((exact.evals, exact.decided, exact.yield_()), (6, 0, 0.0));
        assert_eq!((interval.ns_share, exact.ns_share), (0.25, 0.75));
    }

    #[test]
    fn fault_domain_uses_exact_decisions() {
        let s = SearchStats {
            interval_hits: 3,
            interval_fallbacks: 5,
            zonotope_hits: 2,
            zonotope_fallbacks: 3,
            exact_decisions: 1,
            exact_fallbacks: 2,
            interval_ns: 10,
            zonotope_ns: 30,
            exact_ns: 60,
            ..SearchStats::default()
        };
        let [i, z, e] = TierYield::fault_domain(&s);
        assert_eq!((i.evals, i.decided), (8, 3));
        assert_eq!((z.evals, z.decided, z.yield_()), (5, 2, 0.4));
        assert_eq!((e.evals, e.decided), (3, 1));
        assert_eq!((i.ns_share, z.ns_share, e.ns_share), (0.1, 0.3, 0.6));
    }

    #[test]
    fn every_metric_is_listed_once() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        let mut layers = Layers::default();
        layers.set_tiers("faults", &TierYield::fault_domain(&SearchStats::default()));
        assert_eq!(layers.all().len(), PER_LAYER.len());
    }
}
