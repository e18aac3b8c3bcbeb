//! End-to-end smoke test of `fannet serve`: pipes the committed JSONL
//! request batch through the real binary and diffs against the committed
//! golden responses — the same check CI's serve-smoke job runs in shell.
//!
//! Run with `--threads 1` so the `stats` response's counters are
//! scheduling-independent (verdicts are deterministic at any thread
//! count; the counters are not, because concurrent queries race for who
//! misses first).
//!
//! Four fields of the `server` block are wall-clock- or scheduling-
//! dependent even at one worker (`uptime_ms`, `qps`, `queue_depth`,
//! `queue_high_water` — how far the reader ran ahead of the worker).
//! The committed golden holds them masked to `0`, and [`mask_volatile`]
//! applies the same rewrite to live output before diffing; everything
//! else, including the rest of the `server` block, compares byte-exact.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn repo_file(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Zeroes the volatile `server` gauges (lifetime and windowed rates,
/// percentile scalars, per-request nanosecond stamps, per-connection
/// byte/blocking gauges), blanks the `peer` string (a TCP peer carries
/// an ephemeral port where stdio says "stdio"), and blanks the (wholly
/// wall-clock-dependent) `text` payload of a `metrics` response,
/// leaving every other byte alone (mirrors the `sed` rewrite of CI's
/// serve-smoke job).
fn mask_volatile(text: &str) -> String {
    let mut masked = text.to_string();
    for key in [
        "uptime_ms",
        "qps",
        "qps_10s",
        "qps_60s",
        "queue_depth",
        "queue_high_water",
        "p50_ns",
        "p90_ns",
        "p99_ns",
        "count_10s",
        "p50_10s_ns",
        "p99_10s_ns",
        "wall_ns",
        "queue_ns",
        "ns",
        "bytes_out",
        "queue_blocked_ns",
        "queue_peak",
    ] {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = masked[from..].find(&pat) {
            let start = from + at + pat.len();
            let end = start
                + masked[start..]
                    .find([',', '}'])
                    .expect("JSON value terminates");
            masked.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    // `peer` is the one volatile *string* gauge.
    let mut from = 0;
    while let Some(at) = masked[from..].find("\"peer\":\"") {
        let start = from + at + "\"peer\":\"".len();
        let end = start + masked[start..].find('"').expect("string closes");
        masked.replace_range(start..end, "");
        from = start + 1;
    }
    // `text` is the final deterministic-order field of a `metrics`
    // line; truncating there also drops the trailing `recent` timeline
    // ring, which is volatile in every field.
    masked
        .lines()
        .map(|line| match line.find("\"text\":\"") {
            Some(at) => format!("{}\"text\":\"\"}}", &line[..at]),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + if masked.ends_with('\n') { "\n" } else { "" }
}

fn run_serve(extra_args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fannet"))
        .arg("serve")
        .args(["--model", &repo_file("tests/data/serve_model.json")])
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fannet binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("fannet serve exits");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

#[test]
fn once_batch_matches_committed_golden_responses() {
    let requests =
        std::fs::read_to_string(repo_file("tests/data/serve_requests.jsonl")).expect("requests");
    let golden =
        std::fs::read_to_string(repo_file("tests/data/serve_golden.jsonl")).expect("golden");
    let (stdout, stderr, ok) = run_serve(&["--once", "--threads", "1"], &requests);
    assert!(ok, "serve must exit cleanly: {stderr}");
    assert_eq!(
        mask_volatile(&stdout),
        golden,
        "JSONL responses drifted from tests/data/serve_golden.jsonl — if the \
         change is intentional, regenerate it with:\n  fannet serve --once \
         --threads 1 --model tests/data/serve_model.json \
         < tests/data/serve_requests.jsonl \
         | sed -E 's/\"(uptime_ms|qps|qps_10s|qps_60s|queue_depth|queue_high_water|p50_ns|p90_ns|p99_ns|count_10s|p50_10s_ns|p99_10s_ns|wall_ns|queue_ns|ns|bytes_out|queue_blocked_ns|queue_peak)\":[0-9.eE+-]+/\"\\1\":0/g; \
         s/\"peer\":\"[^\"]*\"/\"peer\":\"\"/g; \
         s/\"text\":\".*/\"text\":\"\"}}/' \
         > tests/data/serve_golden.jsonl"
    );
}

/// A `shutdown` request must end the session even though stdin never
/// reaches EOF — the in-band stop the TCP front end relies on, checked
/// here through the stdio front end that shares the core.
#[test]
fn shutdown_request_exits_without_stdin_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fannet"))
        .arg("serve")
        .args(["--model", &repo_file("tests/data/serve_model.json")])
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fannet binary spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(
            b"{\"op\":\"check\",\"id\":1,\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}\n\
              {\"op\":\"shutdown\",\"id\":2}\n",
        )
        .expect("requests written");
    stdin.flush().expect("requests flushed");
    // `stdin` stays open in this variable: the exit below can only come
    // from the shutdown drain, never from an EOF.
    let out = child.wait_with_output().expect("fannet serve exits");
    drop(stdin);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with("{\"op\":\"check\",\"id\":1,\"verdict\":\"robust\""),
        "{stdout}"
    );
    assert_eq!(lines[1], "{\"op\":\"shutdown\",\"id\":2,\"ok\":true}");
}

/// An oversized request line is answered with one contained error
/// response and the session keeps serving the next line.
#[test]
fn oversized_line_is_contained() {
    let huge = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(512));
    let input = format!(
        "{huge}{{\"op\":\"check\",\"id\":2,\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}}\n"
    );
    let (stdout, stderr, ok) = run_serve(&["--threads", "1", "--max-line-bytes", "256"], &input);
    assert!(ok, "serve must exit cleanly: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains("exceeds --max-line-bytes (256 bytes)"),
        "{stdout}"
    );
    assert!(
        lines[1].starts_with("{\"op\":\"check\",\"id\":2,\"verdict\":\"robust\""),
        "{stdout}"
    );
}

/// A line of 200,000 nested `[` fits under the default line cap; the
/// parser's nesting limit turns it into one error response instead of
/// a stack overflow, and the session keeps serving.
#[test]
fn deeply_nested_line_is_contained() {
    let input = format!(
        "{}\n{{\"op\":\"check\",\"id\":2,\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}}\n",
        "[".repeat(200_000)
    );
    let (stdout, stderr, ok) = run_serve(&["--threads", "1"], &input);
    assert!(ok, "serve must exit cleanly: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with("{\"op\":\"error\"") && lines[0].contains("nesting deeper than 128"),
        "{stdout}"
    );
    assert!(
        lines[1].starts_with("{\"op\":\"check\",\"id\":2,\"verdict\":\"robust\""),
        "{stdout}"
    );
}

#[test]
fn parallel_batch_verdicts_match_golden_modulo_stats() {
    let requests =
        std::fs::read_to_string(repo_file("tests/data/serve_requests.jsonl")).expect("requests");
    let golden =
        std::fs::read_to_string(repo_file("tests/data/serve_golden.jsonl")).expect("golden");
    let (stdout, stderr, ok) = run_serve(&["--once", "--threads", "4"], &requests);
    assert!(ok, "serve must exit cleanly: {stderr}");
    // Verdict-bearing fields are deterministic at any thread count; only
    // `source` attribution and counters may shift, so compare the stable
    // prefix of every non-stats line.
    let stable = |line: &str| {
        line.split(",\"source\":")
            .next()
            .expect("split yields a prefix")
            .to_string()
    };
    let got: Vec<String> = mask_volatile(&stdout)
        .lines()
        .filter(|l| !l.contains("\"op\":\"stats\""))
        .map(stable)
        .collect();
    let want: Vec<String> = golden
        .lines()
        .filter(|l| !l.contains("\"op\":\"stats\""))
        .map(stable)
        .collect();
    assert_eq!(got, want);
}

/// Verdict-bearing fields must be identical across screening tiers —
/// the tiers only change who pays for each box, never the answer (the
/// same invariant CI's serve-smoke job re-checks in shell for the
/// cascade tier). Solver counters legitimately differ per tier, so the
/// comparison strips from the `source`/`stats` suffix on.
#[test]
fn all_screening_tiers_match_golden_verdicts_modulo_stats() {
    let requests =
        std::fs::read_to_string(repo_file("tests/data/serve_requests.jsonl")).expect("requests");
    let golden =
        std::fs::read_to_string(repo_file("tests/data/serve_golden.jsonl")).expect("golden");
    let stable = |line: &str| {
        line.split(",\"source\":")
            .next()
            .expect("split yields a prefix")
            .to_string()
    };
    let want: Vec<String> = golden
        .lines()
        .filter(|l| !l.contains("\"op\":\"stats\""))
        .map(stable)
        .collect();
    for tier in ["none", "interval", "cascade"] {
        let (stdout, stderr, ok) = run_serve(
            &["--once", "--threads", "1", "--screening", tier],
            &requests,
        );
        assert!(ok, "serve --screening {tier} must exit cleanly: {stderr}");
        let got: Vec<String> = mask_volatile(&stdout)
            .lines()
            .filter(|l| !l.contains("\"op\":\"stats\""))
            .map(stable)
            .collect();
        assert_eq!(got, want, "tier {tier} drifted from the golden verdicts");
    }
}

#[test]
fn conflicting_screening_flags_fail_with_usage() {
    let (_, stderr, ok) = run_serve(&["--once", "--no-screening", "--screening", "cascade"], "");
    assert!(!ok);
    assert!(stderr.contains("not both"), "{stderr}");
}

#[test]
fn streaming_mode_answers_in_order_and_skips_blank_lines() {
    let input = concat!(
        "{\"op\":\"check\",\"id\":1,\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}\n",
        "\n",
        "{\"op\":\"check\",\"id\":2,\"input\":[\"100\",\"82\"],\"label\":0,\"delta\":5}\n",
        "not json\n",
        "{\"op\":\"stats\",\"id\":3}\n",
    );
    // No --once: the streaming loop drains chunks until stdin closes.
    let (stdout, stderr, ok) = run_serve(&["--threads", "1"], input);
    assert!(ok, "serve must exit cleanly: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(lines[0].starts_with("{\"op\":\"check\",\"id\":1,\"verdict\":\"robust\""));
    assert!(lines[1].starts_with("{\"op\":\"check\",\"id\":2,\"verdict\":\"robust\""));
    assert!(lines[2].starts_with("{\"op\":\"error\""), "{}", lines[2]);
    assert!(
        lines[3].starts_with("{\"op\":\"stats\",\"id\":3"),
        "{}",
        lines[3]
    );
}

/// `--trace-out` writes a Chrome trace-event (catapult) JSON array —
/// the format Perfetto and chrome://tracing load directly — with one
/// complete `service` span per answered request (alongside its queue/
/// sequence/write spans in the same per-connection lane).
#[test]
fn trace_out_writes_one_complete_service_event_per_request() {
    let requests =
        std::fs::read_to_string(repo_file("tests/data/serve_requests.jsonl")).expect("requests");
    let path = std::env::temp_dir().join(format!("fannet-trace-{}.json", std::process::id()));
    let (stdout, stderr, ok) = run_serve(
        &[
            "--once",
            "--threads",
            "1",
            "--trace-out",
            path.to_str().expect("utf-8 path"),
        ],
        &requests,
    );
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    assert!(ok, "serve must exit cleanly: {stderr}");
    let trimmed = trace.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "trace must be a closed JSON array: {trimmed:?}"
    );
    let responses = stdout.lines().count();
    assert_eq!(
        trace.matches("\"name\":\"service\"").count(),
        responses,
        "one service span per answered request"
    );
    // Every event in the file is a complete event ("ph":"X").
    assert_eq!(
        trace.matches("\"ph\":\"X\"").count(),
        trace.matches("\"name\":").count()
    );
}

#[test]
fn bad_model_path_fails_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_fannet"))
        .args(["serve", "--model", "/nonexistent/model.json", "--once"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load model"), "{stderr}");
}
