//! The correctness gate behind `error_rate`: after the timed window,
//! every exchange is checked for error lines, missing responses and
//! out-of-order responses, and answers are compared with a reference the
//! code under test cannot move — the cold in-process checker under
//! `CheckerConfig::serial_exact()` (no screening, no cache, no server).
//!
//! A failed exchange counts once, whatever went wrong with it.

use std::collections::HashMap;

use fannet_core::tolerance::robustness_radius_with;
use fannet_engine::protocol::{node_signs, Response};
use fannet_engine::AnswerSource;
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::{
    collect_region_counterexamples_with, find_counterexample_with, BabStats, CheckerConfig,
};
use serde::Value;

use crate::client::Exchange;
use crate::gen::{Op, Query, SplitMix64};
use crate::wire;

/// Response fields that are not part of the answer: the echo tag, how
/// the server obtained the answer, its counters and its cost trace.
const NOT_ANSWER: [&str; 5] = ["id", "source", "stats", "search", "trace"];

/// What the gate found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// `"op":"error"` responses.
    pub errors: u64,
    /// Requests whose response never arrived.
    pub missing: u64,
    /// Responses carrying another request's id.
    pub reordered: u64,
    /// Unparsable responses and answers that differ from the reference.
    pub mismatched: u64,
    /// Answers compared with the reference.
    pub checked: u64,
}

impl Tally {
    /// Failed requests.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.missing + self.reordered + self.mismatched
    }

    /// Failed ÷ sent.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.sent as f64)
    }

    /// The human-readable summary line.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "sent {}, succeeded {}, failed {} (errors {}, missing {}, out of order {}, \
             mismatched {}); {} answers compared with the serial_exact reference",
            self.sent,
            self.sent - self.failed(),
            self.failed(),
            self.errors,
            self.missing,
            self.reordered,
            self.mismatched,
            self.checked
        )
    }
}

/// The answer fields of a parsed response.
#[must_use]
pub fn answer(response: &Value) -> Value {
    match response {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| !NOT_ANSWER.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The reference answer to `query`: the cold serial-exact checker,
/// rendered through the protocol's response model.
#[must_use]
pub fn reference(net: &Network<Rational>, query: &Query) -> Value {
    let response = reference_response(net, query, None);
    answer(&serde::ser::to_value(&response).expect("responses serialize"))
}

/// The response the cold serial-exact checker gives to `query`, tagged
/// `id`.
#[must_use]
pub fn reference_response(net: &Network<Rational>, query: &Query, id: Option<u64>) -> Response {
    let x = query.rational_input();
    let config = CheckerConfig::serial_exact();
    match query.op {
        Op::Check { .. } => {
            let region = query.region().expect("checks have a region");
            let (outcome, _) = find_counterexample_with(net, &x, query.label, &region, &config)
                .expect("query widths match the network");
            Response::Check {
                id,
                outcome,
                source: AnswerSource::Solver,
                stats: BabStats::default(),
                trace: None,
            }
        }
        Op::Tolerance { max_delta } => Response::Tolerance {
            id,
            radius: robustness_radius_with(net, &x, query.label, max_delta, &config),
            max_delta,
            trace: None,
        },
        Op::Sensitivity { cap, .. } => {
            let region = query.region().expect("extractions have a region");
            let (ces, exhausted, _) =
                collect_region_counterexamples_with(net, &x, query.label, &region, cap, &config)
                    .expect("query widths match the network");
            Response::Sensitivity {
                id,
                count: ces.len(),
                exhausted,
                nodes: node_signs(x.len(), &ces),
            }
        }
    }
}

/// Books error lines, missing and out-of-order responses, and
/// unparsable lines. Returns the parsed answer of every exchange that
/// passed (`None` for the failed ones).
pub fn sequence(exchanges: &[Exchange], tally: &mut Tally) -> Vec<Option<Value>> {
    tally.sent += exchanges.len() as u64;
    exchanges
        .iter()
        .map(|ex| {
            let Some(line) = &ex.response else {
                tally.missing += 1;
                return None;
            };
            let Ok(v) = wire::parse(line) else {
                tally.mismatched += 1;
                return None;
            };
            let op = wire::get(&v, "op").and_then(wire::as_str);
            let id = wire::get(&v, "id").and_then(wire::as_u64);
            if op == Some("error") {
                tally.errors += 1;
                None
            } else if id != Some(ex.id) {
                tally.reordered += 1;
                None
            } else if op != Some(ex.query.op_name()) {
                tally.mismatched += 1;
                None
            } else {
                Some(answer(&v))
            }
        })
        .collect()
}

/// Compares the answers of the exchanges at `picks` with the reference,
/// computed on `threads` workers; books mismatches.
pub fn compare_sample(
    net: &Network<Rational>,
    exchanges: &[Exchange],
    answers: &[Option<Value>],
    picks: &[usize],
    threads: usize,
    tally: &mut Tally,
) {
    let expected =
        fannet_core::par::ordered_map(picks, threads, |&i| reference(net, &exchanges[i].query));
    for (&i, want) in picks.iter().zip(&expected) {
        tally.checked += 1;
        if answers[i].as_ref() != Some(want) {
            tally.mismatched += 1;
        }
    }
}

/// A seeded sample of up to `per_op` answered exchanges of each op.
#[must_use]
pub fn sample_per_op(
    exchanges: &[Exchange],
    answers: &[Option<Value>],
    per_op: usize,
    seed: u64,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..exchanges.len())
        .filter(|&i| answers[i].is_some())
        .collect();
    SplitMix64::new(seed).shuffle(&mut order);
    let mut taken: HashMap<&str, usize> = HashMap::new();
    let mut picks: Vec<usize> = order
        .into_iter()
        .filter(|&i| {
            let n = taken.entry(exchanges[i].query.op_name()).or_insert(0);
            *n += 1;
            *n <= per_op
        })
        .collect();
    picks.sort_unstable();
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{corpus, sweep_queries};
    use fannet_core::casestudy::{build, CaseStudyConfig};
    use fannet_engine::protocol::render_response;
    use std::time::Instant;

    /// A well-formed response line answering `query` with id `id`.
    fn reply(net: &Network<Rational>, query: &Query, id: u64) -> String {
        render_response(&reference_response(net, query, Some(id)))
    }

    fn exchange(id: u64, query: &Query, response: Option<String>) -> Exchange {
        let now = Instant::now();
        Exchange {
            id,
            query: query.clone(),
            traced: false,
            sent: now,
            received: response.as_ref().map(|_| now),
            response,
        }
    }

    #[test]
    fn error_rate_counts_corrupted_missing_and_reordered() {
        let cs = build(&CaseStudyConfig::small());
        let net = &cs.exact_net;
        let queries = sweep_queries(&corpus(&cs));
        let q: Vec<&Query> = vec![
            &queries[8],
            &queries[3],
            &queries[17],
            &queries[5],
            &queries[6],
        ];
        // A clean stream passes.
        let clean: Vec<Exchange> = (0..5)
            .map(|i| exchange(i, q[i as usize], Some(reply(net, q[i as usize], i))))
            .collect();
        let mut tally = Tally::default();
        let answers = sequence(&clean, &mut tally);
        compare_sample(net, &clean, &answers, &[0, 1, 2, 3, 4], 1, &mut tally);
        assert_eq!((tally.failed(), tally.checked), (0, 5));

        // Exchange 0: a corrupted answer (the tolerance radius moved);
        // 1 and 2: responses swapped; 4: never answered.
        let mut broken = clean.clone();
        let radius = reply(net, q[0], 0);
        let moved = if radius.contains("\"radius\":null") {
            radius.replace("\"radius\":null", "\"radius\":7")
        } else {
            radius.replacen("\"radius\":", "\"radius\":1", 1)
        };
        assert_ne!(moved, radius);
        broken[0].response = Some(moved);
        broken[1].response = clean[2].response.clone();
        broken[2].response = clean[1].response.clone();
        broken[4].response = None;
        let mut tally = Tally::default();
        let answers = sequence(&broken, &mut tally);
        compare_sample(net, &broken, &answers, &[0, 3], 1, &mut tally);
        assert_eq!(
            tally,
            Tally {
                sent: 5,
                errors: 0,
                missing: 1,
                reordered: 2,
                mismatched: 1,
                checked: 2,
            }
        );
        assert_eq!(tally.failed(), 4);
        assert!((tally.error_rate() - 0.8).abs() < 1e-12);

        // An error line and a garbled line each count once.
        let mut bad = clean.clone();
        bad[3].response = Some(r#"{"op":"error","id":3,"message":"boom"}"#.to_string());
        bad[4].response = Some("{\"op\":\"check\",".to_string());
        let mut tally = Tally::default();
        let _ = sequence(&bad, &mut tally);
        assert_eq!((tally.errors, tally.mismatched, tally.failed()), (1, 1, 2));
    }

    #[test]
    fn reference_matches_the_protocol_rendering() {
        let cs = build(&CaseStudyConfig::small());
        let queries = sweep_queries(&corpus(&cs));
        let q = &queries[17];
        assert_eq!(q.op_name(), "tolerance");
        let rendered = render_response(&Response::Tolerance {
            id: Some(9),
            radius: robustness_radius_with(
                &cs.exact_net,
                &q.rational_input(),
                q.label,
                50,
                &CheckerConfig::screened(),
            ),
            max_delta: 50,
            trace: None,
        });
        let parsed = wire::parse(&rendered).unwrap();
        assert_eq!(answer(&parsed), reference(&cs.exact_net, q));
    }
}
