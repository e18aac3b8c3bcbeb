//! `fannet` — command-line front end for the FANNet reproduction.
//!
//! ```text
//! fannet train [--small] --out model.json     train the leukemia case study
//!                                             and save the exact model
//! fannet check --model model.json --input 1,2,3,4,5 --label 0 --delta 11
//!                                             one P2 robustness query
//!                                             (--screening picks the tier)
//! fannet radius --model model.json --input 1,2,3,4,5 --label 0 [--max 50]
//!                                             exact robustness radius
//! fannet faults --model weight-noise --eps 0.02 [--net model.json]
//!                                             weight-fault robustness: per-class
//!                                             fault tolerance of the case-study
//!                                             network, or one query with
//!                                             --input/--label (DESIGN.md §11)
//! fannet joint [--deltas 0,2,5] [--small]     joint input×weight robustness:
//!                                             the per-class (δ, ε) frontier of
//!                                             the case-study network, or one
//!                                             query with --input/--label
//!                                             --delta/--model (DESIGN.md §12)
//! fannet export-smv --model model.json --input 1,2,3,4,5 --label 0 --delta 1
//!                                             print the SMV translation
//! fannet serve --model model.json [--once] [--threads N]
//!                                             resident JSONL query engine:
//!                                             requests on stdin, responses
//!                                             on stdout (DESIGN.md §8)
//! fannet listen --addr host:port --model model.json [--threads N]
//!                                             the same engine over TCP:
//!                                             concurrent connections, bounded
//!                                             queue, graceful drain
//!                                             (DESIGN.md §13)
//! ```
//!
//! Models are the JSON documents written by `fannet::nn::io` (exact
//! rational weights serialize as `"num/den"` strings).

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::core::faults as core_faults;
use fannet::core::joint as core_joint;
use fannet::core::tolerance::robustness_radius;
use fannet::engine::{Engine, EngineConfig};
use fannet::faults::{FaultChecker, FaultModel, FaultOutcome, JointChecker, ToleranceSearch};
use fannet::nn::io;
use fannet::nn::Network;
use fannet::numeric::Rational;
use fannet::server::session::SessionConfig;
use fannet::server::{serve_stdio, serve_tcp, signal};
use fannet::smv::nn_to_smv::{network_to_smv, TranslationConfig};
use fannet::smv::printer::print_module;
use fannet::verify::bab::{
    default_threads, find_counterexample_with, CheckerConfig, ScreeningTier,
};
use fannet::verify::region::NoiseRegion;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fannet train [--small] --out <model.json>
  fannet check --model <model.json> --input <v1,v2,...> --label <L> --delta <D>
               [--screening <none|interval|cascade>]
  fannet radius --model <model.json> --input <v1,v2,...> --label <L> [--max <D>]
  fannet faults --model <weight-noise|stuck-at|bit-flips|quantization>
                [--eps <E>] [--layer <L> --neuron <N> --value <V>]
                [--budget <K>] [--denom-bits <B>]
                [--net <model.json>] [--small]
                [--input <v1,v2,...> --label <L>]
                [--denom <D>] [--max-numer <K>]
    without --net, trains the Golub case study and reports per-class
    fault tolerance over its test set; with --input/--label, one query
  fannet joint [--deltas <d1,d2,...>] [--denom <D>] [--max-numer <K>]
               [--max-boxes <N>] [--small]
               [--input <v1,v2,...> --label <L> --delta <D>
                --model <weight-noise|stuck-at|bit-flips|quantization> ...
                [--net <model.json>]]
    without --input, trains the Golub case study and reports the
    per-class joint (input-noise δ, weight-noise ε) frontier over its
    test set; with --input/--label, one joint query at ±delta%
  fannet export-smv --model <model.json> --input <v1,v2,...> --label <L> --delta <D>
  fannet serve --model <model.json> [--once] [--threads <N>]
               [--cache-capacity <N>] [--queue-capacity <N>] [--max-line-bytes <N>]
               [--screening <none|interval|cascade>] [--no-screening]
               [--slow-query-ms <MS>] [--log-level <trace|debug|info|warn|error>]
               [--trace-out <trace.json>]
    JSONL requests on stdin, one response per line on stdout, e.g.
      {\"op\":\"check\",\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}
      {\"op\":\"tolerance\",\"input\":[\"100\",\"82\"],\"label\":0,\"max_delta\":50}
      {\"op\":\"sensitivity\",\"input\":[\"100\",\"99\"],\"label\":0,\"delta\":3,\"cap\":10}
      {\"op\":\"fault_check\",\"input\":[\"100\",\"82\"],\"label\":0,\"model\":\"weight-noise\",\"eps\":\"1/50\"}
      {\"op\":\"fault_tolerance\",\"input\":[\"100\",\"82\"],\"label\":0,\"denom\":1000,\"max_numer\":200}
      {\"op\":\"joint_check\",\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":3,\"model\":\"weight-noise\",\"eps\":\"1/50\"}
      {\"op\":\"joint_tolerance\",\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":3,\"denom\":100,\"max_numer\":25}
      {\"op\":\"stats\"}
      {\"op\":\"metrics\"}
      {\"op\":\"shutdown\"}
    any solver-backed op takes \"trace\":true for a per-query cost trace;
    --slow-query-ms logs slower requests (full trace, stderr JSON),
    --log-level sets the structured-logger threshold (default info), and
    --trace-out streams a Chrome trace-event JSON timeline (open it in
    Perfetto or chrome://tracing) with one lane per connection and
    queue/service/sequence/write spans per request
  fannet listen --addr <host:port> --model <model.json> [--threads <N>]
               [--cache-capacity <N>] [--queue-capacity <N>] [--max-line-bytes <N>]
               [--screening <none|interval|cascade>] [--no-screening]
               [--slow-query-ms <MS>] [--log-level <trace|debug|info|warn|error>]
               [--trace-out <trace.json>]
    the same JSONL protocol over TCP: one resident engine shared by all
    connections, per-connection response ordering, bounded-queue
    backpressure; prints `listening on <addr>` once bound, drains on
    SIGINT/SIGTERM or an in-band shutdown request";

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "train" => train(rest),
        "check" => check(rest),
        "radius" => radius(rest),
        "faults" => faults(rest),
        "joint" => joint(rest),
        "export-smv" => export_smv(rest),
        "serve" => serve(rest),
        "listen" => listen(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Looks up the value of `--name`, accepting both the space-separated
/// (`--name value`) and the `=`-joined (`--name=value`) spellings.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(name)?.strip_prefix('='))
        })
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing required flag {name} <value>"))
}

fn has_switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_input(text: &str) -> Result<Vec<Rational>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<Rational>()
                .map_err(|e| format!("bad input component `{part}`: {e}"))
        })
        .collect()
}

fn parse_label(text: &str) -> Result<usize, String> {
    text.parse().map_err(|_| format!("bad label `{text}`"))
}

fn parse_delta(text: &str) -> Result<i64, String> {
    let d: i64 = text.parse().map_err(|_| format!("bad delta `{text}`"))?;
    if !(0..=100).contains(&d) {
        return Err(format!("delta {d} outside the model's [0, 100] range"));
    }
    Ok(d)
}

fn load_model(path: &str) -> Result<Network<Rational>, String> {
    io::load(path).map_err(|e| format!("cannot load model `{path}`: {e}"))
}

fn validate_query(net: &Network<Rational>, x: &[Rational], label: usize) -> Result<(), String> {
    if x.len() != net.inputs() {
        return Err(format!(
            "input has {} components but the model expects {}",
            x.len(),
            net.inputs()
        ));
    }
    if label >= net.outputs() {
        return Err(format!(
            "label {label} out of range for {} outputs",
            net.outputs()
        ));
    }
    Ok(())
}

fn train(args: &[String]) -> Result<(), String> {
    let out = required(args, "--out")?;
    let config = if has_switch(args, "--small") {
        CaseStudyConfig::small()
    } else {
        CaseStudyConfig::paper()
    };
    eprintln!(
        "training the {}-gene leukemia case study…",
        config.golub.genes
    );
    let cs = build(&config);
    io::save(&cs.exact_net, out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "saved exact model to {out} (train acc {:.1}%, test acc {:.2}%)",
        100.0 * cs.train_accuracy(),
        100.0 * cs.test_accuracy()
    );
    println!(
        "selected genes: {:?} — inputs to `check`/`radius` are these raw expressions",
        cs.selection.features
    );
    Ok(())
}

/// The `--screening <tier>` flag; each subcommand passes its own
/// `default` (`check` defaults to the cascade, `serve` to the interval
/// tier). Every tier returns identical verdicts — the flag only chooses
/// who pays per box.
fn parse_screening(args: &[String], default: ScreeningTier) -> Result<ScreeningTier, String> {
    match flag(args, "--screening") {
        Some(text) => ScreeningTier::parse(text),
        None => Ok(default),
    }
}

fn check(args: &[String]) -> Result<(), String> {
    let net = load_model(required(args, "--model")?)?;
    let x = parse_input(required(args, "--input")?)?;
    let label = parse_label(required(args, "--label")?)?;
    let delta = parse_delta(required(args, "--delta")?)?;
    let screening = parse_screening(args, ScreeningTier::Cascade)?;
    validate_query(&net, &x, label)?;

    let region = NoiseRegion::symmetric(delta, x.len());
    let config = CheckerConfig::serial_exact().with_screening(screening);
    let (outcome, stats) =
        find_counterexample_with(&net, &x, label, &region, &config).map_err(|e| e.to_string())?;
    match outcome.counterexample() {
        None => println!(
            "ROBUST: no noise vector within ±{delta}% flips label L{label} \
             ({} boxes, {} exact evaluations — this is a proof)",
            stats.boxes_visited, stats.exact_evals
        ),
        Some(ce) => {
            println!("COUNTEREXAMPLE: {}", ce);
            println!(
                "  noisy input: {:?}",
                ce.noisy_input
                    .iter()
                    .map(Rational::to_f64)
                    .collect::<Vec<_>>()
            );
            println!(
                "  outputs:     {:?}",
                ce.outputs.iter().map(Rational::to_f64).collect::<Vec<_>>()
            );
        }
    }
    if screening.is_active() {
        println!(
            "screening [{screening}]: interval tier decided {} of {} boxes, \
             zonotope tier {} of {}; {} undecided boxes split, \
             {} grid points evaluated exactly",
            stats.interval_hits,
            stats.interval_hits + stats.interval_fallbacks,
            stats.zonotope_hits,
            stats.zonotope_hits + stats.zonotope_fallbacks,
            stats.splits,
            stats.exact_evals,
        );
    }
    Ok(())
}

/// Resolves the `--model <kind>` fault-model flags of `fannet faults`.
fn parse_fault_model(args: &[String]) -> Result<FaultModel, String> {
    let parse_rational = |name: &str, text: &str| -> Result<Rational, String> {
        text.parse::<Rational>()
            .map_err(|e| format!("bad {name} `{text}`: {e}"))
    };
    match required(args, "--model")? {
        "weight-noise" => {
            let eps = parse_rational("--eps", required(args, "--eps")?)?;
            if eps.is_negative() {
                return Err(format!("--eps must be non-negative, got {eps}"));
            }
            Ok(FaultModel::WeightNoise { rel_eps: eps })
        }
        "stuck-at" => Ok(FaultModel::StuckAt {
            layer: required(args, "--layer")?
                .parse()
                .map_err(|_| "bad --layer".to_string())?,
            neuron: required(args, "--neuron")?
                .parse()
                .map_err(|_| "bad --neuron".to_string())?,
            value: parse_rational("--value", required(args, "--value")?)?,
        }),
        "bit-flips" => Ok(FaultModel::BitFlips {
            budget: match flag(args, "--budget") {
                Some(text) => text.parse().map_err(|_| "bad --budget".to_string())?,
                None => 1,
            },
        }),
        "quantization" => {
            let bits: u32 = match flag(args, "--denom-bits") {
                Some(text) => text.parse().map_err(|_| "bad --denom-bits".to_string())?,
                None => fannet::nn::quantize::DEFAULT_DENOM_BITS,
            };
            if bits >= 126 {
                return Err(format!("--denom-bits {bits} overflows the exact domain"));
            }
            Ok(FaultModel::Quantization { denom_bits: bits })
        }
        other => Err(format!(
            "unknown fault model `{other}` (expected weight-noise/stuck-at/bit-flips/quantization)"
        )),
    }
}

/// `fannet faults`: weight-fault robustness (DESIGN.md §11) — one query
/// with `--input`/`--label`, or the per-class fault-tolerance report of
/// the Golub case study when no input is given.
fn faults(args: &[String]) -> Result<(), String> {
    let model = parse_fault_model(args)?;
    let denom: i64 = match flag(args, "--denom") {
        Some(text) => match text.parse() {
            Ok(d) if d > 0 => d,
            _ => return Err(format!("bad --denom `{text}` (need a positive integer)")),
        },
        None => 100,
    };
    let max_numer: i64 = match flag(args, "--max-numer") {
        Some(text) => match text.parse() {
            Ok(k) if k >= 0 => k,
            _ => return Err(format!("bad --max-numer `{text}`")),
        },
        None => 25,
    };
    let search = ToleranceSearch::new(i128::from(denom), i128::from(max_numer));

    if let Some(input) = flag(args, "--input") {
        // Single-query mode (works with --net or the trained case study).
        let x = parse_input(input)?;
        let label = parse_label(required(args, "--label")?)?;
        let net = match flag(args, "--net") {
            Some(path) => load_model(path)?,
            None => faults_case_study(args).exact_net,
        };
        validate_query(&net, &x, label)?;
        let checker = FaultChecker::new(net, Default::default());
        let (outcome, stats) = checker.check(&x, label, &model)?;
        match &outcome {
            FaultOutcome::Robust => println!(
                "ROBUST under {model}: every faulted network keeps label L{label} \
                 ({} fault boxes, {} concrete probes — this is a proof)",
                stats.boxes_visited, stats.concrete_evals
            ),
            FaultOutcome::Vulnerable(w) => {
                println!("VULNERABLE under {model}: {}", w.description);
                println!("  predicted L{} instead of L{}", w.predicted, w.expected);
                println!(
                    "  outputs: {:?}",
                    w.outputs.iter().map(Rational::to_f64).collect::<Vec<_>>()
                );
            }
            FaultOutcome::Unknown => println!(
                "UNKNOWN under {model}: the budgeted fault-space search could not \
                 decide ({} boxes, budget exhausted: {})",
                stats.boxes_visited, stats.budget_exhausted
            ),
        }
        let (tolerance, _) = checker.tolerance(&x, label, &search)?;
        match tolerance.robust_eps {
            Some(eps) => println!(
                "weight-noise fault tolerance of this input: eps >= {eps} (~{:.4}, \
                 grid k/{denom}, k <= {max_numer})",
                eps.to_f64()
            ),
            None => println!("fault-free network already misclassifies this input"),
        }
        return Ok(());
    }
    if flag(args, "--net").is_some() {
        return Err(
            "give --input/--label with --net (the per-class report needs the case-study \
             dataset; omit --net to train it)"
                .to_string(),
        );
    }

    // Per-class report over the trained case study's test set.
    let cs = faults_case_study(args);
    let correct = fannet::core::behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let config = core_faults::FaultAnalysisConfig {
        search,
        ..Default::default()
    };
    println!(
        "== weight-fault analysis of the {} network ==",
        cs.exact_net
            .topology()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("-")
    );
    let verdicts = core_faults::class_verdicts(&cs.exact_net, &cs.test5, &correct, &model, &config);
    println!("verdicts under {model}:");
    for (class, (robust, vulnerable, unknown)) in verdicts.iter().enumerate() {
        println!("  class L{class}: {robust} robust / {vulnerable} vulnerable / {unknown} unknown");
    }
    let report = core_faults::analyze(&cs.exact_net, &cs.test5, &correct, &config);
    println!("per-class weight-noise fault tolerance (grid k/{denom}, k <= {max_numer}):");
    for (class, eps) in report.per_class_tolerance().iter().enumerate() {
        match eps {
            Some(e) => println!("  class L{class}: eps >= {e} (~{:.4})", e.to_f64()),
            None => println!("  class L{class}: no analysed inputs"),
        }
    }
    match report.network_tolerance() {
        Some(e) => println!("network fault tolerance: eps >= {e} (~{:.4})", e.to_f64()),
        None => println!("network fault tolerance: no analysed inputs"),
    }
    Ok(())
}

/// `fannet joint`: joint input-noise × weight-fault robustness
/// (DESIGN.md §12) — one product query with `--input`/`--label`, or the
/// per-class (δ, ε) frontier of the Golub case study when no input is
/// given. Deterministic throughout (the search is serial and the δ/ε
/// grids are fixed), so repeat runs print the identical report.
fn joint(args: &[String]) -> Result<(), String> {
    let denom: i64 = match flag(args, "--denom") {
        Some(text) => match text.parse() {
            Ok(d) if d > 0 => d,
            _ => return Err(format!("bad --denom `{text}` (need a positive integer)")),
        },
        None => 100,
    };
    let max_numer: i64 = match flag(args, "--max-numer") {
        Some(text) => match text.parse() {
            Ok(k) if k >= 0 => k,
            _ => return Err(format!("bad --max-numer `{text}`")),
        },
        None => 25,
    };
    let search = ToleranceSearch::new(i128::from(denom), i128::from(max_numer));

    if let Some(input) = flag(args, "--input") {
        // Single-query mode (works with --net or the trained case study).
        let x = parse_input(input)?;
        let label = parse_label(required(args, "--label")?)?;
        let delta = parse_delta(required(args, "--delta")?)?;
        let model = parse_fault_model(args)?;
        let net = match flag(args, "--net") {
            Some(path) => load_model(path)?,
            None => faults_case_study(args).exact_net,
        };
        validate_query(&net, &x, label)?;
        // Single queries get the engine/serve budget (512 boxes): the
        // frontier's slim fan-out default would answer the *same* query
        // UNKNOWN where `fannet serve`'s joint_check proves it.
        let base = fannet::faults::FaultCheckerConfig::default();
        let checker = JointChecker::new(net, joint_checker_config(args, base)?);
        let noise = fannet::verify::region::NoiseRegion::symmetric(delta, x.len());
        let (outcome, stats) = checker.check(&x, label, &noise, &model)?;
        match &outcome {
            FaultOutcome::Robust => println!(
                "ROBUST: every noise vector within ±{delta}% and every faulted \
                 network under {model} keep label L{label} ({} product boxes, \
                 {} concrete probes — this is a proof)",
                stats.boxes_visited, stats.concrete_evals
            ),
            FaultOutcome::Vulnerable(w) => {
                println!("VULNERABLE under ±{delta}% × {model}: {}", w.description);
                println!("  witness noise: {}", w.noise);
                println!("  predicted L{} instead of L{}", w.predicted, w.expected);
                println!(
                    "  outputs: {:?}",
                    w.outputs.iter().map(Rational::to_f64).collect::<Vec<_>>()
                );
            }
            FaultOutcome::Unknown => println!(
                "UNKNOWN: the budgeted joint search could not decide ±{delta}% × \
                 {model} ({} boxes, budget exhausted: {})",
                stats.boxes_visited, stats.budget_exhausted
            ),
        }
        let (tolerance, _) = checker.tolerance(&x, label, delta, &search)?;
        match tolerance.robust_eps {
            Some(eps) => println!(
                "joint weight-noise tolerance at ±{delta}% input noise: eps >= {eps} \
                 (~{:.4}, grid k/{denom}, k <= {max_numer})",
                eps.to_f64()
            ),
            None => println!(
                "no weight-noise eps is certified at ±{delta}% input noise \
                 (the input noise alone flips, or the search could not decide)"
            ),
        }
        return Ok(());
    }
    if flag(args, "--net").is_some() {
        return Err(
            "give --input/--label with --net (the per-class frontier needs the \
             case-study dataset; omit --net to train it)"
                .to_string(),
        );
    }

    // Per-class frontier over the trained case study's test set.
    let deltas: Vec<i64> = match flag(args, "--deltas") {
        Some(text) => text
            .split(',')
            .map(|part| parse_delta(part.trim()))
            .collect::<Result<_, _>>()?,
        None => vec![0, 1, 2, 3, 5],
    };
    if deltas.is_empty() {
        return Err("--deltas needs at least one radius".to_string());
    }
    let cs = faults_case_study(args);
    let correct = fannet::core::behavior::correctly_classified(&cs.exact_net, &cs.test5);
    let base = core_joint::JointAnalysisConfig::default().checker;
    let config = core_joint::JointAnalysisConfig {
        deltas: deltas.clone(),
        search,
        checker: joint_checker_config(args, base)?,
        ..Default::default()
    };
    println!(
        "== joint input×weight robustness of the {} network ==",
        cs.exact_net
            .topology()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("-")
    );
    println!(
        "largest certified weight-noise eps (grid k/{denom}, k <= {max_numer}) \
         per input-noise radius ±δ%:"
    );
    let report = core_joint::analyze(&cs.exact_net, &cs.test5, &correct, &config);
    let header: Vec<String> = deltas.iter().map(|d| format!("δ=±{d}%")).collect();
    println!("  class     {}", header.join("   "));
    let fmt_cell = |eps: &Option<Rational>| match eps {
        Some(e) => format!("{:.3}", e.to_f64()),
        None => "  -  ".to_string(),
    };
    for (class, row) in report.per_class_frontier().iter().enumerate() {
        let cells: Vec<String> = row.iter().map(fmt_cell).collect();
        println!("  L{class}       {}", cells.join("   "));
    }
    let cells: Vec<String> = report.network_frontier().iter().map(fmt_cell).collect();
    println!("  network  {}", cells.join("   "));
    println!(
        "(each cell is a proof: every correctly-classified input of the class \
         keeps its label under ±δ% input noise and ±ε·|w| weight noise \
         simultaneously; `-` = not certified at this radius)"
    );
    Ok(())
}

/// The `--max-boxes` override of `fannet joint`'s product searches,
/// applied to the mode's base budget (single queries run the full
/// engine default, the per-input frontier the slimmer fan-out budget).
fn joint_checker_config(
    args: &[String],
    base: fannet::faults::FaultCheckerConfig,
) -> Result<fannet::faults::FaultCheckerConfig, String> {
    match flag(args, "--max-boxes") {
        Some(text) => match text.parse::<u64>() {
            Ok(n) if n > 0 => Ok(base.with_max_boxes(n)),
            _ => Err(format!(
                "bad --max-boxes `{text}` (need a positive integer)"
            )),
        },
        None => Ok(base),
    }
}

/// Trains the case study for `fannet faults` (`--small` for the quick
/// variant), with progress on stderr.
fn faults_case_study(args: &[String]) -> fannet::core::CaseStudy {
    let config = if has_switch(args, "--small") {
        CaseStudyConfig::small()
    } else {
        CaseStudyConfig::paper()
    };
    eprintln!(
        "no --net given; training the {}-gene leukemia case study…",
        config.golub.genes
    );
    build(&config)
}

fn radius(args: &[String]) -> Result<(), String> {
    let net = load_model(required(args, "--model")?)?;
    let x = parse_input(required(args, "--input")?)?;
    let label = parse_label(required(args, "--label")?)?;
    let max = match flag(args, "--max") {
        Some(text) => parse_delta(text)?.max(1),
        None => 50,
    };
    validate_query(&net, &x, label)?;

    match robustness_radius(&net, &x, label, max) {
        Some(radius) => println!(
            "first flip at ±{radius}% (tolerance of this input: ±{}%)",
            radius - 1
        ),
        None => println!("robust through ±{max}%"),
    }
    Ok(())
}

/// Builds the resident engine and session knobs shared by `fannet
/// serve` and `fannet listen`: `--threads` sizes the worker pool,
/// `--cache-capacity` the verdict cache, `--queue-capacity` the bounded
/// request queue (full ⇒ readers block ⇒ backpressure), and
/// `--max-line-bytes` the per-line framing cap.
fn serving_engine(args: &[String]) -> Result<(Arc<Engine>, SessionConfig), String> {
    let net = load_model(required(args, "--model")?)?;
    let workers = match flag(args, "--threads") {
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| format!("bad --threads `{text}`"))?
            .max(1),
        None => default_threads(),
    };
    let cache_capacity = match flag(args, "--cache-capacity") {
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(format!(
                    "bad --cache-capacity `{text}` (need a positive integer)"
                ))
            }
        },
        None => EngineConfig::serving().cache_capacity,
    };
    let queue_capacity = match flag(args, "--queue-capacity") {
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(format!(
                    "bad --queue-capacity `{text}` (need a positive integer)"
                ))
            }
        },
        None => fannet::server::DEFAULT_QUEUE_CAPACITY,
    };
    let max_line_bytes = match flag(args, "--max-line-bytes") {
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(format!(
                    "bad --max-line-bytes `{text}` (need a positive integer)"
                ))
            }
        },
        None => fannet::server::DEFAULT_MAX_LINE_BYTES,
    };
    let slow_query_ms = match flag(args, "--slow-query-ms") {
        Some(text) => match text.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return Err(format!(
                    "bad --slow-query-ms `{text}` (need a non-negative integer)"
                ))
            }
        },
        None => None,
    };
    if let Some(text) = flag(args, "--log-level") {
        let level = fannet_obs::Level::parse(text)?;
        fannet_obs::set_level(level);
    }
    // Parallelism is spent across requests, not inside one query. The
    // default tier stays `interval` (the serving-latency sweet spot for
    // typical request mixes — see DESIGN.md §10); `--screening cascade`
    // adds the zonotope tier, `--no-screening` is the legacy spelling of
    // `--screening none`. Verdicts are identical under every tier.
    let screening = if has_switch(args, "--no-screening") {
        if flag(args, "--screening").is_some() {
            return Err("give either --screening or --no-screening, not both".to_string());
        }
        ScreeningTier::None
    } else {
        parse_screening(args, ScreeningTier::Interval)?
    };
    // `--trace-out` opens the timeline sink up front (so a bad path
    // fails before the engine loads) and installs it as the global
    // trace writer, which also routes the engine's internal spans into
    // the same file as pid-2 lanes.
    let trace_out = match flag(args, "--trace-out") {
        Some(path) => {
            let writer = fannet_obs::TraceWriter::to_file(std::path::Path::new(path))
                .map_err(|e| format!("cannot open --trace-out `{path}`: {e}"))?;
            let writer = Arc::new(writer);
            fannet_obs::install_global(Arc::clone(&writer));
            Some(writer)
        }
        None => None,
    };
    let checker = CheckerConfig::serial_exact().with_screening(screening);
    let engine = Engine::new(
        net,
        EngineConfig {
            checker,
            cache_capacity,
        },
    );
    Ok((
        Arc::new(engine),
        SessionConfig {
            workers,
            queue_capacity,
            max_line_bytes,
            slow_query_ms,
            trace_out,
        },
    ))
}

/// `fannet serve`: one resident engine answering JSONL requests over
/// stdin/stdout, through the same connection-handler core as `fannet
/// listen` (DESIGN.md §13) — a worker pool drains a bounded queue and a
/// sequencer keeps responses in request order, so `--threads N` speeds
/// up a pipelined client without reordering anything. Exits at stdin
/// EOF or on a `shutdown` request. `--once` is accepted for
/// compatibility with the historical batch mode; both modes stream.
fn serve(args: &[String]) -> Result<(), String> {
    let (engine, config) = serving_engine(args)?;
    serve_stdio(engine, &config, std::io::stdin(), std::io::stdout());
    // Close the timeline array so the file is valid JSON; idempotent,
    // and a no-op when --trace-out was not given.
    if let Some(trace) = &config.trace_out {
        trace.finish();
    }
    Ok(())
}

/// `fannet listen`: the serving core over TCP. Every accepted
/// connection speaks the same JSONL protocol against one shared
/// resident engine; `listening on <addr>` on stdout signals readiness
/// (and reveals the port under `--addr host:0`). Drains gracefully on
/// SIGINT/SIGTERM or an in-band `shutdown` request.
fn listen(args: &[String]) -> Result<(), String> {
    let (engine, config) = serving_engine(args)?;
    let addr = required(args, "--addr")?;
    signal::install();
    serve_tcp(engine, &config, addr, signal::triggered, |bound| {
        // The bare stdout line is the readiness contract scripts wait
        // on; the structured record is the operator's copy on stderr.
        println!("listening on {bound}");
        let _ = std::io::stdout().flush();
        fannet_obs::log::info(
            "fannet::listen",
            "listening",
            &[("addr", bound.to_string().into())],
        );
    })
    .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
    if let Some(trace) = &config.trace_out {
        trace.finish();
    }
    Ok(())
}

fn export_smv(args: &[String]) -> Result<(), String> {
    let net = load_model(required(args, "--model")?)?;
    let x = parse_input(required(args, "--input")?)?;
    let label = parse_label(required(args, "--label")?)?;
    let delta = parse_delta(required(args, "--delta")?)?;
    validate_query(&net, &x, label)?;

    let module = network_to_smv(&net, &x, label, &TranslationConfig::symmetric(delta));
    print!("{}", print_module(&module));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = strings(&["--model", "m.json", "--delta", "5"]);
        assert_eq!(flag(&args, "--model"), Some("m.json"));
        assert_eq!(flag(&args, "--delta"), Some("5"));
        assert_eq!(flag(&args, "--missing"), None);
        assert!(required(&args, "--nope").is_err());
        assert!(has_switch(&args, "--model"));
        assert!(!has_switch(&args, "--small"));
        // The `=`-joined spelling is equivalent.
        let eq = strings(&["--screening=cascade", "--model=m.json"]);
        assert_eq!(flag(&eq, "--screening"), Some("cascade"));
        assert_eq!(flag(&eq, "--model"), Some("m.json"));
        assert_eq!(flag(&eq, "--delta"), None);
        // A space-separated occurrence wins over a later `=` form.
        let both = strings(&["--delta", "5", "--delta=9"]);
        assert_eq!(flag(&both, "--delta"), Some("5"));
    }

    #[test]
    fn input_parsing() {
        let x = parse_input("1, -2, 3/4").unwrap();
        assert_eq!(x[2], Rational::new(3, 4));
        assert!(parse_input("1,abc").is_err());
        assert!(parse_label("3").is_ok());
        assert!(parse_label("-1").is_err());
        assert!(parse_delta("11").is_ok());
        assert!(parse_delta("101").is_err());
        assert!(parse_delta("x").is_err());
    }

    #[test]
    fn screening_flag_parsing() {
        assert_eq!(
            parse_screening(
                &strings(&["--screening", "cascade"]),
                ScreeningTier::Interval
            ),
            Ok(ScreeningTier::Cascade)
        );
        assert_eq!(
            parse_screening(&[], ScreeningTier::Interval),
            Ok(ScreeningTier::Interval)
        );
        assert!(parse_screening(&strings(&["--screening", "bogus"]), ScreeningTier::None).is_err());
        // The zonotope screen runs only inside the cascade; the removed
        // zonotope-only spelling fails with the list of valid settings.
        assert_eq!(
            parse_screening(
                &strings(&["--screening", "zonotope"]),
                ScreeningTier::Interval
            ),
            Err(
                "unknown screening tier `zonotope` (expected one of: none, interval, cascade)"
                    .to_string()
            )
        );
    }

    #[test]
    fn fault_model_flag_parsing() {
        assert_eq!(
            parse_fault_model(&strings(&["--model", "weight-noise", "--eps", "0.02"])),
            Ok(FaultModel::WeightNoise {
                rel_eps: Rational::new(1, 50)
            })
        );
        assert_eq!(
            parse_fault_model(&strings(&[
                "--model", "stuck-at", "--layer", "0", "--neuron", "3", "--value", "-1/2"
            ])),
            Ok(FaultModel::StuckAt {
                layer: 0,
                neuron: 3,
                value: Rational::new(-1, 2)
            })
        );
        assert_eq!(
            parse_fault_model(&strings(&["--model", "bit-flips"])),
            Ok(FaultModel::BitFlips { budget: 1 })
        );
        assert_eq!(
            parse_fault_model(&strings(&["--model", "quantization", "--denom-bits", "8"])),
            Ok(FaultModel::Quantization { denom_bits: 8 })
        );
        assert!(parse_fault_model(&strings(&["--model", "weight-noise"]))
            .unwrap_err()
            .contains("--eps"));
        assert!(
            parse_fault_model(&strings(&["--model", "weight-noise", "--eps", "-1/50"]))
                .unwrap_err()
                .contains("non-negative")
        );
        assert!(parse_fault_model(&strings(&["--model", "frobnicate"]))
            .unwrap_err()
            .contains("unknown fault model"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&strings(&["help"])).is_ok());
    }
}
