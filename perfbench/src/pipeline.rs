//! The `paper-pipeline` workload: `pipeline::run` in process.
//!
//! Its ops are analysed inputs (the correctly classified test inputs of
//! one run); a "request" is one `pipeline::run` call, so the latency
//! metrics are the run's wall time (`analysis_s` is their median).

use std::time::Instant;

use fannet_core::adversarial::{self, InputAdversaries};
use fannet_core::behavior::{correctly_classified, rational_input};
use fannet_core::casestudy::{build, CaseStudy, CaseStudyConfig};
use fannet_core::pipeline::{self, AnalysisConfig, FannetReport};
use fannet_core::{boundary, faults, joint, par, tolerance};
use fannet_data::Dataset;
use fannet_faults::{FaultChecker, JointChecker};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::{SearchStats, TierTimer};
use fannet_verify::bab::{CheckerConfig, RegionChecker};
use fannet_verify::{exact, ExclusionSet, NoiseRegion};

use crate::gate::Tally;
use crate::layers::TierYield;
use crate::server::{self_cpu_s, vm_hwm_mb};
use crate::stats::{self, median, ratio};
use crate::workload::{Args, Outcome};

/// Case-study builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 7;
/// Fewest timed `pipeline::run` calls per window.
const MIN_RUNS: usize = 3;
/// Repetitions of the timed and untimed verify replays.
const REPLAYS: usize = 3;

/// Runs `paper-pipeline`.
///
/// # Errors
///
/// Returns a message when `/proc/self` cannot be read.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut cs: Option<CaseStudy> = None;
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        let built = build(&CaseStudyConfig::paper());
        builds.push(t.elapsed().as_secs_f64());
        cs = Some(built);
    }
    let cs = cs.expect("at least one build");
    let test = &cs.test5;
    let config = AnalysisConfig::default();
    let analyse = |config: &AnalysisConfig| {
        pipeline::run(&cs.exact_net, &cs.float_net, &cs.train5, test, config)
    };
    let mut out = Outcome::default();

    let first = analyse(&config);
    let mut reports = vec![];
    if args.trace {
        replay_layers(&cs, &config, &first, &mut out);
    } else {
        // Per-call wall and CPU; rates are taken from their medians, so a
        // burst of CPU steal on the host moves at most a few calls.
        let start = Instant::now();
        let mut walls = Vec::new();
        let mut cpu_per_op = Vec::new();
        while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
            let (t, cpu0) = (Instant::now(), self_cpu_s()?);
            let report = analyse(&config);
            walls.push(t.elapsed().as_secs_f64());
            let ops = report.tolerance.per_input.len() as f64;
            cpu_per_op.push(ratio((self_cpu_s()? - cpu0) * 1e3, ops));
            reports.push(report);
        }
        let peak_rss_mb = vm_hwm_mb("/proc/self/status")?;
        let ops = first.tolerance.per_input.len();
        let analysis_s = median(&walls);
        let ms = stats::sorted(walls.iter().map(|w| w * 1e3).collect());
        out.end_to_end = vec![
            ("setup_s", median(&builds), "s"),
            ("throughput_rps", ops as f64 / analysis_s, "req/s"),
            ("latency_p50_ms", analysis_s * 1e3, "ms"),
            ("latency_p99_ms", stats::percentile(&ms, 99.0), "ms"),
            ("cpu_ms_per_op", median(&cpu_per_op), "ms"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        out.notes.push(format!(
            "analysis_s {analysis_s} s: median wall of {} pipeline::run calls after one \
             untimed run, {ops} analysed inputs each (throughput counts inputs; \
             latency_p99_ms is the calls' nearest-rank p99, fewer than 10 beyond it)",
            walls.len()
        ));
        out.notes.push(format!(
            "setup_s is the median of {SETUP_BUILDS} casestudy::build calls"
        ));
    }
    reports.push(first);

    // The gate: the input-noise sections must agree with a serial_exact
    // run's; the fault and joint sections may certify less, never more.
    let reference = analyse(&AnalysisConfig {
        checker: CheckerConfig::serial_exact(),
        ..AnalysisConfig::default()
    });
    for report in &reports {
        compare(&cs.exact_net, test, report, &reference, &mut out.tally);
    }
    out.notes.push(format!(
        "gate: every analysed input of {} runs checked against a serial_exact pipeline run",
        reports.len()
    ));
    Ok(out)
}

/// Books one op per analysed input of `report`. An input fails when its
/// radius or boundary point differs from the reference's, when its
/// extraction is not a valid one (see [`extraction_valid`]), or when its
/// fault or joint section certifies an ε at or above the reference's
/// first failure. A validation or sweep that differs while every input
/// passed counts as one more failure.
fn compare(
    net: &Network<Rational>,
    test: &Dataset,
    report: &FannetReport,
    reference: &FannetReport,
    tally: &mut Tally,
) {
    let n = report.tolerance.per_input.len();
    tally.sent += n as u64;
    tally.checked += n as u64;
    let shapes_match = reference.tolerance.per_input.len() == n
        && [
            report.adversarial.per_input.len(),
            report.boundary.points.len(),
            report.fault.per_input.len(),
            report.joint.per_input.len(),
            reference.adversarial.per_input.len(),
            reference.boundary.points.len(),
            reference.fault.per_input.len(),
            reference.joint.per_input.len(),
        ]
        .iter()
        .all(|&len| len == n)
        && report.adversarial.delta == reference.adversarial.delta;
    if !shapes_match {
        tally.mismatched += n as u64;
        return;
    }
    let delta = reference.adversarial.delta;
    let mut failed = 0;
    for k in 0..n {
        let same = report.tolerance.per_input[k] == reference.tolerance.per_input[k]
            && report.boundary.points[k] == reference.boundary.points[k]
            && extraction_valid(
                net,
                test,
                delta,
                &report.adversarial.per_input[k],
                &reference.adversarial.per_input[k],
            );
        let fault = &report.fault.per_input[k];
        let fault_ref = &reference.fault.per_input[k];
        let fault_contradiction = certified_past(fault.robust_eps, fault_ref.first_failure);
        let joint_contradiction = report.joint.per_input[k]
            .per_delta
            .iter()
            .zip(&reference.joint.per_input[k].per_delta)
            .any(|(&got, &want)| exceeds(got, want));
        if !same || fault_contradiction || joint_contradiction {
            failed += 1;
        }
    }
    if failed == 0 && (report.validation != reference.validation || report.sweep != reference.sweep)
    {
        failed = 1;
    }
    tally.mismatched += failed;
}

/// Whether `got` is a valid capped P3 extraction at ±`delta`% given the
/// reference's: the same input, count and exhaustion flag; distinct
/// vectors, each inside the region and re-evaluated exactly to the same
/// counterexample; and, when the reference enumerated the region
/// completely, the same set. Which vectors a capped extraction keeps
/// depends on the order the screening tiers decide boxes in, so a capped
/// selection may legitimately differ from the reference's (the bias and
/// sensitivity summaries of that selection are not compared either).
fn extraction_valid(
    net: &Network<Rational>,
    test: &Dataset,
    delta: i64,
    got: &InputAdversaries,
    want: &InputAdversaries,
) -> bool {
    if got.index != want.index
        || got.label != want.label
        || got.exhausted != want.exhausted
        || got.counterexamples.len() != want.counterexamples.len()
    {
        return false;
    }
    let x = rational_input(&test.samples()[got.index]);
    let genuine = got.counterexamples.iter().all(|ce| {
        ce.noise.percents().iter().all(|p| p.abs() <= delta)
            && exact::witness(net, &x, got.label, &ce.noise)
                .ok()
                .flatten()
                .as_ref()
                == Some(ce)
    });
    let noise = |a: &InputAdversaries| {
        let mut v: Vec<Vec<i64>> = a
            .counterexamples
            .iter()
            .map(|ce| ce.noise.percents().to_vec())
            .collect();
        v.sort();
        v
    };
    let got_noise = noise(got);
    let distinct = got_noise.windows(2).all(|w| w[0] != w[1]);
    genuine && distinct && (!want.exhausted || got_noise == noise(want))
}

/// Whether `certified` reaches the reference's first failing grid point.
fn certified_past(certified: Option<Rational>, first_failure: Option<Rational>) -> bool {
    matches!((certified, first_failure), (Some(c), Some(f)) if c >= f)
}

/// Whether `certified` exceeds the reference's certified ε (the joint
/// report keeps no first failure; on the bisection grid the first failure
/// is the next point after the certified one).
fn exceeds(certified: Option<Rational>, reference: Option<Rational>) -> bool {
    match (certified, reference) {
        (Some(_), None) => true,
        (Some(c), Some(r)) => c > r,
        (None, _) => false,
    }
}

/// The traced run: every layer `pipeline::run` passes through, measured
/// by calling its public functions with the pipeline's own arguments.
fn replay_layers(
    cs: &CaseStudy,
    config: &AnalysisConfig,
    report: &FannetReport,
    out: &mut Outcome,
) {
    let (net, test) = (&cs.exact_net, &cs.test5);
    let correct = correctly_classified(net, test);
    let inputs: Vec<(Vec<Rational>, usize)> = correct
        .iter()
        .map(|&i| (rational_input(&test.samples()[i]), test.labels()[i]))
        .collect();
    let extraction_delta = report.adversarial.delta;
    let layers = &mut out.layers;

    // core: each section function, timed alone.
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let threads = config.input_threads;
    let mut radii = None;
    layers.set(
        "core.tolerance_s",
        timed(&mut || {
            radii = Some(tolerance::par_analyze(
                net,
                test,
                &correct,
                config.max_delta,
                &config.checker,
                threads,
            ));
        }),
    );
    let radii = radii.expect("set above");
    layers.set(
        "core.adversarial_s",
        timed(&mut || {
            let _ = adversarial::par_extract(
                net,
                test,
                &correct,
                extraction_delta,
                config.per_input_cap,
                &config.checker,
                threads,
            );
        }),
    );
    layers.set(
        "core.boundary_s",
        timed(&mut || {
            let _ = boundary::analyze(net, test, &radii, config.near_threshold);
        }),
    );
    layers.set(
        "core.faults_s",
        timed(&mut || {
            let _ = faults::analyze(net, test, &correct, &config.fault);
        }),
    );
    layers.set(
        "core.joint_s",
        timed(&mut || {
            let _ = joint::analyze(net, test, &correct, &config.joint);
        }),
    );

    // verify + search: the sweep's radius bisections and the extraction
    // checks, replayed serially through `check_region_timed` under the
    // pipeline's cascade; the same replay untimed gives the tracing cost.
    let checker = RegionChecker::new(net, config.checker.clone());
    let replay = |timer: TierTimer| {
        let t = Instant::now();
        let mut sum = SearchStats::default();
        let mut queries = 0u64;
        for (x, label) in &inputs {
            let mut probe = |delta: i64| {
                let region = NoiseRegion::symmetric(delta, x.len());
                let (outcome, s) = checker
                    .check_region_timed(x, *label, &region, &ExclusionSet::new(), timer)
                    .expect("widths match");
                sum.merge(&s);
                queries += 1;
                !outcome.is_robust()
            };
            // `tolerance::robustness_radius_on`'s probe sequence.
            if probe(config.max_delta) {
                let (mut lo, mut hi) = (0, config.max_delta);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if probe(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
            probe(extraction_delta);
        }
        (t.elapsed().as_secs_f64(), sum, queries)
    };
    let mut untimed = Vec::new();
    let mut traced = Vec::new();
    let mut last = (SearchStats::default(), 0);
    for _ in 0..REPLAYS {
        untimed.push(replay(TierTimer::disabled()).0);
        let (wall, sum, queries) = replay(TierTimer::enabled());
        traced.push(wall);
        last = (sum, queries);
    }
    let (sum, queries) = last;
    layers.set(
        "obs.trace_overhead",
        1.0 - ratio(median(&untimed), median(&traced)),
    );
    let tier_ns = [sum.interval_ns, sum.zonotope_ns, sum.exact_ns];
    layers.set_tiers("verify", &TierYield::input_noise(&sum, tier_ns));
    layers.set(
        "search.boxes_per_miss",
        ratio(sum.boxes_visited as f64, queries as f64),
    );
    layers.set(
        "search.splits_per_miss",
        ratio(sum.splits as f64, queries as f64),
    );
    layers.set(
        "search.ns_per_box",
        ratio(tier_ns.iter().sum::<u64>() as f64, sum.boxes_visited as f64),
    );

    // faults: the fault and joint bisections, replayed timed with the
    // pipeline's configurations and fan-out.
    let fault = FaultChecker::new(net.clone(), config.fault.checker.clone());
    let joint = JointChecker::new(net.clone(), config.joint.checker.clone());
    let per_input = par::ordered_map(&inputs, threads, |(x, label)| {
        let mut sum = SearchStats::default();
        let mut exhausted = 0u64;
        let (_, s) = fault
            .tolerance_timed(x, *label, &config.fault.search, TierTimer::enabled())
            .expect("widths match");
        exhausted += u64::from(s.budget_exhausted);
        sum.merge(&s);
        for &delta in &config.joint.deltas {
            let (_, s) = joint
                .tolerance_timed(x, *label, delta, &config.joint.search, TierTimer::enabled())
                .expect("widths match");
            exhausted += u64::from(s.budget_exhausted);
            sum.merge(&s);
        }
        (sum, exhausted)
    });
    let mut sum = SearchStats::default();
    let mut exhausted = 0;
    for (s, e) in &per_input {
        sum.merge(s);
        exhausted += e;
    }
    let [interval, zonotope, exact] = TierYield::fault_domain(&sum);
    layers.set("faults.boxes", sum.boxes_visited as f64);
    layers.set("faults.budget_exhausted", exhausted as f64);
    layers.set("faults.interval.ns_share", interval.ns_share);
    layers.set("faults.zonotope.ns_share", zonotope.ns_share);
    layers.set("faults.exact.ns_share", exact.ns_share);
    layers.set("faults.zonotope.yield", zonotope.yield_());

    out.notes.push(format!(
        "replayed {queries} sweep/extraction checks (cascade) and {} fault/joint bisections \
         over {} analysed inputs",
        inputs.len() * (1 + config.joint.deltas.len()),
        inputs.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Option<Rational> {
        Some(Rational::new(n, d))
    }

    #[test]
    fn contradiction_rules() {
        // Certifying up to the reference's first failure contradicts it.
        assert!(certified_past(r(5, 100), r(5, 100)));
        assert!(!certified_past(r(4, 100), r(5, 100)));
        assert!(!certified_past(None, r(1, 100)));
        assert!(!certified_past(r(25, 100), None));
        // Joint: more than the reference certified.
        assert!(exceeds(r(3, 100), r(2, 100)));
        assert!(exceeds(r(0, 100), None));
        assert!(!exceeds(r(2, 100), r(2, 100)));
        assert!(!exceeds(None, r(2, 100)));
    }
}
