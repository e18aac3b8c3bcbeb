//! The benchmark's workloads and the reasoning behind them.
//!
//! # Workloads
//!
//! FANNet's results are batches of queries over the test set, answered
//! through two entry points: `fannet listen` (the JSONL protocol over
//! TCP) and `fannet_core::pipeline::run`. Every workload runs the paper's
//! 5–20–2 case-study network; the seed generates every request of the
//! server workloads.
//!
//! - **`noise-cold`** — `fannet listen` at its defaults (2 workers,
//!   interval screening, 4096-entry cache), driven closed-loop over 2
//!   connections with 8 requests in flight each. Every request is a fresh
//!   input (a test input with each gene scaled within ±5%, labelled with
//!   the network's prediction); each block of three requests holds one
//!   `check` (δ ∈ {20, 30, 40}), one `tolerance` (`max_delta` 50) and one
//!   `sensitivity` (δ 30, cap 20). *Why:* the cache never answers and the
//!   working set outgrows its 4096 entries, so time goes to `search` and
//!   `verify` while the queue and sequencer stay full.
//! - **`sweep-warm`** — the same server, 2 connections with 1 request in
//!   flight each, replaying the paper's Fig. 4 sweep (`check` at δ
//!   5…40 plus one `tolerance` per correctly classified test input: 288
//!   requests) in a seeded order per connection, after one untimed
//!   pipelined pass warmed the cache. *Why:* every answer is a cache hit,
//!   so time goes to framing, `protocol` parse/render, cache lookup and
//!   the socket. A solver change must leave it unchanged; a transport or
//!   protocol change must speed it up.
//! - **`paper-pipeline`** — `pipeline::run(AnalysisConfig::default())` on
//!   the case study in process, repeated after one untimed run. *Why:*
//!   the only workload that runs the zonotope tier of the input-noise
//!   cascade, the per-input `par_` fan-out, and the fault and joint
//!   searches (~90% of its time).
//!
//! The seed does not pick the network: case studies trained from other
//! dataset and initialisation seeds cost 0.4 s to 3.0 s for the same
//! query mix (measured over six seeds), which no noise bound could absorb.
//! For the same reason `paper-pipeline` ignores the seed: reordering the
//! test set moved the two-worker fan-out's wall time by 6%.
//!
//! # End-to-end metrics
//!
//! Measured on untraced runs. The server workloads take rates and
//! medians per slice of the window (10 slices) and report their median,
//! so a burst of CPU steal on a shared host moves only a few slices.
//!
//! - `setup_s` — spawn of `fannet listen` until its `listening on` line,
//!   median of 15 spawns; for `paper-pipeline`, `casestudy::build`,
//!   median of 7 builds.
//! - `throughput_rps` — requests completed per second; for
//!   `paper-pipeline`, analysed inputs per second of the median
//!   `pipeline::run` call.
//! - `latency_p50_ms`, `latency_p99_ms` — request line written → response
//!   line read; p99 is the nearest-rank p99 over the whole window and each
//!   run prints its sample count (p99 needs 1000 samples to have 10 beyond
//!   it). For `paper-pipeline` a request is one `pipeline::run` call: p50
//!   is `analysis_s` in milliseconds, and p99, over fewer than 20 calls,
//!   is their slowest — reported because every workload reports every
//!   metric, though the percentile rule does not support it.
//! - `cpu_ms_per_op` — utime + stime of the process under test ÷ ops
//!   completed (requests; analysed inputs for the pipeline).
//! - `peak_rss_mb` — `VmHWM` of the process under test (the server, or
//!   the benchmark process itself for the in-process pipeline).
//! - `error_rate` — failed ÷ attempted ops (see [`crate::gate`]). Every
//!   run prints it and the result line carries it as `attempted` and
//!   `failed`; it is no metric of `BENCHMARK.json`, whose metrics must
//!   never read 0.
//!
//! # Layer → end-to-end map
//!
//! [`crate::layers::PER_LAYER`] pairs each per-layer metric with the
//! end-to-end metric it should move. Predicted effects: a `verify` or
//! `search` change moves `noise-cold` and leaves `sweep-warm` unchanged; a
//! `faults` change moves only `paper-pipeline`; no workload runs
//! intra-query threads at the defaults.
//!
//! # Observations at the commit that introduced the benchmark
//!
//! - **Delayed-ACK stall.** The server writes each response with two
//!   `write_all` calls (line, then `\n`) on a socket without
//!   `TCP_NODELAY`; Nagle's algorithm holds the newline until the
//!   client's delayed ACK (~40 ms). `sweep-warm` is therefore
//!   transport-bound at ~44 ms per request (`server.transport_ms_p50`).
//! - **Exact yield is zero.** On `noise-cold`, exact interval
//!   propagation takes over 90% of tier time and decides no box
//!   (`verify.exact.yield` = 0).
//! - **~360 rps cap.** The same stall caps `noise-cold` near
//!   2 connections × 8 in flight ÷ 44 ms ≈ 360 rps, so a solver more
//!   than ~4× faster would hit the cap rather than show its full gain.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fannet_core::casestudy::{build, CaseStudyConfig};
use fannet_engine::protocol::{handle, parse_request, render_response, Response};
use fannet_engine::{Engine, EngineConfig};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::{CheckerConfig, ScreeningTier};
use serde::Value;

use crate::client::{self, Exchange, Plan};
use crate::gate::{self, Tally};
use crate::gen::{self, NoiseCold, Query, Replay, SplitMix64};
use crate::layers::{p50_p99, Layers, TierYield, Trace};
use crate::server::{self, Control, Server};
use crate::stats::{self, median, ratio};
use crate::wire::{self, EngineCounters};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["noise-cold", "sweep-warm", "paper-pipeline"];

/// Closed-loop client connections of the server workloads.
const CONNECTIONS: usize = 2;
/// Requests in flight per connection on `noise-cold`.
const NOISE_COLD_DEPTH: usize = 8;
/// Requests in flight per connection on `sweep-warm`.
const SWEEP_WARM_DEPTH: usize = 1;
/// Untimed closed-loop lead-in before the measured window.
const LEAD_IN: Duration = Duration::from_secs(5);
/// Slices of an untraced window; rates and medians are taken per slice.
const SLICES: u32 = 10;
/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// Answers per op that `noise-cold` compares with the reference.
const GATE_PER_OP: usize = 10;
/// Sweep queries whose every answer `sweep-warm` compares with the
/// reference (the rest must equal the warm-up pass's answer).
const GATE_SWEEP_KEYS: usize = 36;
/// Requests answered in process to time `render_response`.
const RENDER_SAMPLE: usize = 24;
/// Repetitions of the in-process protocol timings.
const PROTOCOL_PASSES: usize = 20;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// The `fannet` binary under test.
    pub fannet: PathBuf,
    /// Scratch directory for the model file and server logs.
    pub work_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable lines, printed before the JSON result.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced runs): name, value, unit.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// The correctness gate.
    pub tally: Tally,
}

/// Which server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerWorkload {
    /// Fresh inputs, 8 in flight per connection.
    NoiseCold,
    /// Warm sweep replay, 1 in flight per connection.
    SweepWarm,
}

/// CPU and engine counters at a phase boundary.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    at: Instant,
    cpu_ns: u64,
    counters: Option<EngineCounters>,
}

/// Runs `noise-cold` or `sweep-warm`.
///
/// # Errors
///
/// Returns a message when the server cannot be started or driven.
pub fn run_server(kind: ServerWorkload, args: &Args) -> Result<Outcome, String> {
    let cs = build(&CaseStudyConfig::paper());
    let net = &cs.exact_net;
    let corpus = gen::corpus(&cs);
    let sweep = gen::sweep_queries(&corpus);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let model = args.work_dir.join("paper-model.json");
    fannet_nn::io::save(net, &model).map_err(|e| format!("cannot write model: {e}"))?;
    let log = args.work_dir.join(format!("listen-{}.log", args.workload));
    server::fresh_log(&log)?;

    // Setup: spawn → `listening on`, several times; the last server is
    // the one under test.
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let (s, secs) = Server::spawn(&args.fannet, &model, &log)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let addr = server.addr;
    // Only the traced run reads `stats`; an idle control connection
    // would add its reader's timeout polls to the untraced CPU figures.
    let mut control = if args.trace {
        Some(Control::connect(addr)?)
    } else {
        None
    };

    let mut warm = Vec::new();
    if kind == ServerWorkload::SweepWarm {
        warm = client::pipelined(addr, &sweep)?;
    }

    // Phases: lead-in, then the window in equal slices (untraced run) or
    // an untraced and a traced half (traced run).
    let start = Instant::now() + Duration::from_millis(50);
    let window = Duration::from_secs_f64(args.seconds);
    let mut ends = vec![start + LEAD_IN];
    let mut traced = vec![false];
    let slices = if args.trace { 2 } else { SLICES };
    for s in 1..=slices {
        ends.push(ends[0] + window * s / slices);
        traced.push(args.trace && s == 2);
    }
    let plan = Plan { ends, traced };
    let depth = match kind {
        ServerWorkload::NoiseCold => NOISE_COLD_DEPTH,
        ServerWorkload::SweepWarm => SWEEP_WARM_DEPTH,
    };

    let (logs, snapshots) = std::thread::scope(|scope| -> Result<_, String> {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (plan, corpus, sweep) = (&plan, &corpus, &sweep);
                scope.spawn(move || {
                    let stream = conn as u64;
                    match kind {
                        ServerWorkload::NoiseCold => {
                            let mut g = NoiseCold::new(args.seed, stream, corpus, net);
                            client::drive(addr, depth, plan, &mut || g.next_query())
                        }
                        ServerWorkload::SweepWarm => {
                            let mut g = Replay::new(args.seed, stream, sweep);
                            client::drive(addr, depth, plan, &mut || g.next_query())
                        }
                    }
                })
            })
            .collect();
        let mut snapshots = Vec::new();
        for &end in &plan.ends {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let at = Instant::now();
            let cpu_ns = server.cpu_ns()?;
            let counters = control.as_mut().map(Control::stats).transpose()?;
            snapshots.push(Snapshot {
                at,
                cpu_ns,
                counters,
            });
        }
        let mut logs = Vec::new();
        for h in handles {
            logs.push(h.join().expect("client threads never panic")?);
        }
        Ok((logs, snapshots))
    })?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(control);
    server.shutdown()?;

    let exchanges: Vec<Exchange> = logs.into_iter().flatten().collect();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "fannet listen at its defaults; {CONNECTIONS} connections x {depth} in flight; \
         lead-in {:.0} s, window {:.1} s",
        LEAD_IN.as_secs_f64(),
        args.seconds
    ));

    // The gate, outside every timed window.
    let answers = gate::sequence(&exchanges, &mut out.tally);
    match kind {
        ServerWorkload::NoiseCold => {
            let picks = gate::sample_per_op(
                &exchanges,
                &answers,
                GATE_PER_OP,
                gen::stream_seed(args.seed, 100),
            );
            gate::compare_sample(net, &exchanges, &answers, &picks, 2, &mut out.tally);
            out.notes.push(format!(
                "gate: {} sampled answers ({GATE_PER_OP} per op) checked against the reference",
                picks.len()
            ));
        }
        ServerWorkload::SweepWarm => {
            gate_sweep(
                args.seed, net, &sweep, &warm, &exchanges, &answers, &mut out,
            );
        }
    }

    let in_window = |from: &Snapshot, to: &Snapshot| -> Vec<&Exchange> {
        exchanges
            .iter()
            .filter(|e| e.received.is_some_and(|r| r >= from.at && r < to.at))
            .collect()
    };
    let rps = |from: &Snapshot, to: &Snapshot| {
        in_window(from, to).len() as f64 / to.at.duration_since(from.at).as_secs_f64()
    };

    if args.trace {
        let (lead, untraced, traced) = (&snapshots[0], &snapshots[1], &snapshots[2]);
        let quiet = in_window(lead, untraced);
        let loud = in_window(untraced, traced);
        let layers = &mut out.layers;
        layers.set(
            "obs.trace_overhead",
            1.0 - ratio(rps(untraced, traced), rps(lead, untraced)),
        );
        let bytes: usize = quiet
            .iter()
            .filter_map(|e| e.response.as_ref())
            .map(|r| r.len() + 1)
            .sum();
        layers.set(
            "protocol.response_bytes",
            ratio(bytes as f64, quiet.len() as f64),
        );
        server_layers(
            layers,
            &loud,
            untraced.counters.as_ref(),
            traced.counters.as_ref(),
        );
        protocol_layers(kind, args.seed, net, &loud, layers);
    } else {
        // Rates, per-op CPU and the median latency are medians over the
        // window's slices, so a burst of CPU steal on the host moves at
        // most a few slices; p99 needs every sample of the window.
        let mut slice_rps = Vec::new();
        let mut slice_cpu = Vec::new();
        let mut slice_p50 = Vec::new();
        for pair in snapshots.windows(2) {
            let (from, to) = (&pair[0], &pair[1]);
            let done = in_window(from, to);
            let lat = stats::sorted(done.iter().filter_map(|e| e.latency_ms()).collect());
            slice_rps.push(rps(from, to));
            slice_cpu.push(ratio(
                (to.cpu_ns - from.cpu_ns) as f64 / 1e6,
                done.len() as f64,
            ));
            slice_p50.push(stats::percentile(&lat, 50.0));
        }
        let (first, last) = (&snapshots[0], &snapshots[snapshots.len() - 1]);
        let all = stats::sorted(
            in_window(first, last)
                .iter()
                .filter_map(|e| e.latency_ms())
                .collect(),
        );
        let n = all.len();
        out.end_to_end = vec![
            ("setup_s", median(&setups), "s"),
            ("throughput_rps", median(&slice_rps), "req/s"),
            ("latency_p50_ms", median(&slice_p50), "ms"),
            ("latency_p99_ms", stats::percentile(&all, 99.0), "ms"),
            ("cpu_ms_per_op", median(&slice_cpu), "ms"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        out.notes.push(format!(
            "{n} requests completed in the window; {} beyond p99{}",
            stats::beyond(n, 99.0),
            if stats::supports(n, 99.0) {
                ""
            } else {
                " (fewer than 10: p99 is not supported by this window)"
            }
        ));
        out.notes.push(format!(
            "throughput, cpu per op and p50 are medians over {SLICES} slices of the window; \
             setup_s is the median of {SETUP_SPAWNS} spawns (spawn -> `listening on`)"
        ));
    }
    Ok(out)
}

/// `sweep-warm`'s gate: every answer of a sampled sweep query is
/// compared with the reference, every other answer with what the server
/// answered for the same query during the warm-up pass.
fn gate_sweep(
    seed: u64,
    net: &Network<Rational>,
    sweep: &[Query],
    warm: &[Exchange],
    exchanges: &[Exchange],
    answers: &[Option<Value>],
    out: &mut Outcome,
) {
    let mut order: Vec<usize> = (0..sweep.len()).collect();
    SplitMix64::new(gen::stream_seed(seed, 101)).shuffle(&mut order);
    order.truncate(GATE_SWEEP_KEYS);
    let reference: HashMap<usize, Value> = order
        .iter()
        .copied()
        .zip(fannet_core::par::ordered_map(&order, 2, |&k| {
            gate::reference(net, &sweep[k])
        }))
        .collect();

    // The warm-up pass is gated like any other traffic; its answers are
    // what every later answer to the same query must repeat.
    let tally = &mut out.tally;
    let mut expected = gate::sequence(warm, tally);
    for (&k, want) in &reference {
        tally.checked += 1;
        // A failed warm-up exchange is already booked by `sequence`.
        if expected[k].as_ref().is_some_and(|got| got != want) {
            tally.mismatched += 1;
            expected[k] = None;
        }
    }
    let key: HashMap<String, usize> = sweep
        .iter()
        .enumerate()
        .map(|(i, q)| (q.line(0, false), i))
        .collect();
    for (ex, got) in exchanges.iter().zip(answers) {
        let Some(got) = got else { continue };
        let k = key[&ex.query.line(0, false)];
        tally.checked += u64::from(reference.contains_key(&k));
        if expected[k].as_ref() != Some(got) {
            tally.mismatched += 1;
        }
    }
    out.notes.push(format!(
        "gate: every answer to {GATE_SWEEP_KEYS} sampled sweep queries checked against the \
         reference; every other answer against the warm-up pass"
    ));
}

/// The `server`, `engine`, `search` and `verify` layers from the traced
/// window: traces of its responses, and `stats` deltas across it.
fn server_layers(
    layers: &mut Layers,
    window: &[&Exchange],
    before: Option<&EngineCounters>,
    after: Option<&EngineCounters>,
) {
    let mut queue = Vec::new();
    let mut transport = Vec::new();
    let mut hit_us = Vec::new();
    let mut miss_ms = Vec::new();
    let mut tier_ns = [0u64; 3];
    let mut boxes = 0u64;
    let mut solver_answered = 0u64;
    for ex in window {
        let Some(v) = ex.response.as_deref().and_then(|l| wire::parse(l).ok()) else {
            continue;
        };
        if ex.query.op_name() == "sensitivity" {
            // Never cached and never timed: a solver run without a trace.
            solver_answered += 1;
        }
        let (Some(t), Some(lat)) = (Trace::of(&v), ex.latency_ms()) else {
            continue;
        };
        queue.push(t.queue_ns as f64 / 1e6);
        transport.push(lat - (t.queue_ns + t.wall_ns) as f64 / 1e6);
        if t.hit {
            hit_us.push(t.wall_ns as f64 / 1e3);
        } else {
            solver_answered += 1;
            miss_ms.push(t.wall_ns as f64 / 1e6);
            for (sum, ns) in tier_ns.iter_mut().zip(t.tier_ns) {
                *sum += ns;
            }
            boxes += t.boxes;
        }
    }
    let (q50, q99) = p50_p99(queue);
    let (t50, t99) = p50_p99(transport);
    let (m50, m99) = p50_p99(miss_ms);
    layers.set("server.queue_ms_p50", q50);
    layers.set("server.queue_ms_p99", q99);
    layers.set("server.transport_ms_p50", t50);
    layers.set("server.transport_ms_p99", t99);
    layers.set("engine.hit_us_p50", median(&hit_us));
    layers.set("engine.miss_ms_p50", m50);
    layers.set("engine.miss_ms_p99", m99);
    layers.set(
        "search.ns_per_box",
        ratio(tier_ns.iter().sum::<u64>() as f64, boxes as f64),
    );
    if let (Some(before), Some(after)) = (before, after) {
        let d = after.since(before);
        let hits = (d.exact_hits + d.subsumption_hits) as f64;
        layers.set("engine.hit_ratio", ratio(hits, hits + d.misses as f64));
        layers.set("engine.misses", d.misses as f64);
        layers.set("engine.evictions", d.evictions as f64);
        layers.set(
            "search.boxes_per_miss",
            ratio(d.solver.boxes_visited as f64, solver_answered as f64),
        );
        layers.set(
            "search.splits_per_miss",
            ratio(d.solver.splits as f64, solver_answered as f64),
        );
        layers.set_tiers("verify", &TierYield::input_noise(&d.solver, tier_ns));
    }
}

/// The `protocol` layer: `parse_request` over the traced window's
/// request lines, and `render_response` over the responses an in-process
/// engine (configured as `fannet listen`'s defaults) gives to a sample of
/// them — cache hits on `sweep-warm`, solver answers on `noise-cold`.
fn protocol_layers(
    kind: ServerWorkload,
    seed: u64,
    net: &Network<Rational>,
    window: &[&Exchange],
    layers: &mut Layers,
) {
    let lines: Vec<String> = window
        .iter()
        .map(|e| e.query.line(e.id, e.traced))
        .collect();
    let per_pass = |f: &mut dyn FnMut()| {
        let passes: Vec<f64> = (0..PROTOCOL_PASSES)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&passes)
    };
    let parse_s = per_pass(&mut || {
        for l in &lines {
            std::hint::black_box(parse_request(std::hint::black_box(l)).ok());
        }
    });
    layers.set(
        "protocol.parse_us",
        ratio(parse_s * 1e6, lines.len() as f64),
    );

    let engine = Engine::new(
        net.clone(),
        EngineConfig {
            checker: CheckerConfig::serial_exact().with_screening(ScreeningTier::Interval),
            cache_capacity: 4096,
        },
    );
    let mut picks: Vec<usize> = (0..lines.len()).collect();
    SplitMix64::new(gen::stream_seed(seed, 102)).shuffle(&mut picks);
    picks.truncate(RENDER_SAMPLE);
    let responses: Vec<Response> = picks
        .iter()
        .filter_map(|&i| parse_request(&lines[i]).ok())
        .map(|req| {
            let first = handle(&engine, &req);
            match kind {
                ServerWorkload::NoiseCold => first,
                ServerWorkload::SweepWarm => handle(&engine, &req),
            }
        })
        .collect();
    let render_s = per_pass(&mut || {
        for r in &responses {
            std::hint::black_box(render_response(std::hint::black_box(r)));
        }
    });
    layers.set(
        "protocol.render_us",
        ratio(render_s * 1e6, responses.len() as f64),
    );
}
