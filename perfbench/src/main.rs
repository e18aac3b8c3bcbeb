//! `fannet-perfbench`: one seeded run of one workload against the
//! program as users run it, printing every metric by name and unit.
//!
//! ```text
//! bash perfbench/run.sh --workload <noise-cold|sweep-warm|paper-pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the traced run that yields every per-layer metric.
//! The last stdout line is the JSON result
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Workloads, their reasons and the layer map are documented in
//! [`workload`]. The benchmark's self-tests run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod client;
mod gate;
mod gen;
mod layers;
mod pipeline;
mod server;
mod stats;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Args, Outcome, ServerWorkload, WORKLOADS};

const USAGE: &str = "usage: fannet-perfbench --workload <noise-cold|sweep-warm|paper-pipeline> \
                     --seed <n> --seconds <s> --trace <0|1> --fannet <path> --work-dir <dir>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let outcome = match args.workload.as_str() {
            "noise-cold" => workload::run_server(ServerWorkload::NoiseCold, &args),
            "sweep-warm" => workload::run_server(ServerWorkload::SweepWarm, &args),
            _ => pipeline::run(&args),
        }?;
        if outcome.tally.sent == 0 {
            return Err("the run attempted no operation".to_string());
        }
        Ok((args, outcome))
    });
    match result {
        Ok((args, outcome)) => {
            report(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("fannet-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}\n{USAGE}"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seed = flag("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = flag("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let fannet = PathBuf::from(flag("--fannet")?);
    if !fannet.is_file() {
        return Err(format!("no fannet binary at {}", fannet.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        fannet,
        work_dir: PathBuf::from(flag("--work-dir")?),
    })
}

/// Prints the human-readable summary, then the JSON result line.
fn report(args: &Args, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        outcome.layers.all()
    } else {
        outcome.end_to_end.clone()
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let tally = &outcome.tally;
    println!(
        "  {:<28} {:>14.6} fraction  ({})",
        "error_rate",
        tally.error_rate(),
        tally.summary()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed() == 0,
        tally.sent,
        tally.failed(),
        body.join(",")
    );
}
