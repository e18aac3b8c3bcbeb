//! Seeded inputs: the case study's test corpus and the request streams
//! built from it.
//!
//! Streams come from a self-contained SplitMix64, not from the
//! repository's RNG, so a seed names the same bytes at every commit of
//! the program under test.

use fannet_core::behavior::correctly_classified;
use fannet_core::casestudy::CaseStudy;
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::region::NoiseRegion;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n > 0` (modulo bias below 2^-50 at the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The generator seed of stream `stream` (a connection, or a sample)
/// under benchmark seed `seed`: distinct streams never share draws.
#[must_use]
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// A solver-backed request kind with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// P2 check at ±`delta`%.
    Check {
        /// Symmetric noise radius, percent.
        delta: i64,
    },
    /// Robustness radius by binary search up to ±`max_delta`%.
    Tolerance {
        /// Largest radius probed.
        max_delta: i64,
    },
    /// P3 extraction of up to `cap` counterexamples at ±`delta`%.
    Sensitivity {
        /// Symmetric noise radius, percent.
        delta: i64,
        /// Extraction cap.
        cap: usize,
    },
}

/// One query: an op over a raw integer input and its expected label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// What to ask.
    pub op: Op,
    /// Raw gene expressions (integers, as the deployed network takes them).
    pub input: Vec<i64>,
    /// Expected label.
    pub label: usize,
}

impl Query {
    /// The wire op name.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self.op {
            Op::Check { .. } => "check",
            Op::Tolerance { .. } => "tolerance",
            Op::Sensitivity { .. } => "sensitivity",
        }
    }

    /// The JSONL request line (without its newline).
    #[must_use]
    pub fn line(&self, id: u64, trace: bool) -> String {
        let input: Vec<String> = self.input.iter().map(|v| format!("\"{v}\"")).collect();
        let params = match self.op {
            Op::Check { delta } => format!("\"delta\":{delta}"),
            Op::Tolerance { max_delta } => format!("\"max_delta\":{max_delta}"),
            Op::Sensitivity { delta, cap } => format!("\"delta\":{delta},\"cap\":{cap}"),
        };
        let trace = if trace { ",\"trace\":true" } else { "" };
        format!(
            "{{\"op\":\"{}\",\"id\":{id},\"input\":[{}],\"label\":{},{params}{trace}}}",
            self.op_name(),
            input.join(","),
            self.label
        )
    }

    /// The input as exact rationals.
    #[must_use]
    pub fn rational_input(&self) -> Vec<Rational> {
        self.input
            .iter()
            .map(|&v| Rational::from_integer(i128::from(v)))
            .collect()
    }

    /// The symmetric region of a check or sensitivity query.
    #[must_use]
    pub fn region(&self) -> Option<NoiseRegion> {
        match self.op {
            Op::Check { delta } | Op::Sensitivity { delta, .. } => {
                Some(NoiseRegion::symmetric(delta, self.input.len()))
            }
            Op::Tolerance { .. } => None,
        }
    }
}

/// The correctly classified test inputs of the case study, as raw
/// integers with their labels — the corpus every workload draws from.
#[must_use]
pub fn corpus(cs: &CaseStudy) -> Vec<(Vec<i64>, usize)> {
    correctly_classified(&cs.exact_net, &cs.test5)
        .into_iter()
        .map(|i| {
            // Raw gene expressions are integers by construction.
            let x = cs.test5.samples()[i].iter().map(|&v| v as i64).collect();
            (x, cs.test5.labels()[i])
        })
        .collect()
}

/// `value` scaled by `(1000 + per_mille) / 1000`, rounded half away from
/// zero.
#[must_use]
pub fn scale(value: i64, per_mille: i64) -> i64 {
    let num = value * (1000 + per_mille);
    (num + 500 * num.signum()) / 1000
}

/// Check radii of `noise-cold`, percent.
const COLD_CHECK_DELTAS: [i64; 3] = [20, 30, 40];

/// The `noise-cold` stream of one connection: every request carries a
/// fresh input (a corpus input with each gene scaled by its own factor
/// within ±5%) labelled with the network's own prediction.
///
/// The stream is stratified so that any window sees the same mix: it
/// visits the corpus in rounds, each a fresh seeded permutation of the
/// inputs, and gives each visited input a block of three requests — one
/// check, one tolerance (`max_delta` 50), one sensitivity (δ 30, cap 20) —
/// in a seeded order. Each input's check radius cycles through
/// δ ∈ {20, 30, 40} from round to round. Drawing inputs independently
/// instead let the share of expensive inputs, and with it the run's
/// throughput, differ by several percent between seeds.
#[derive(Debug)]
pub struct NoiseCold<'a> {
    rng: SplitMix64,
    corpus: &'a [(Vec<i64>, usize)],
    net: &'a Network<Rational>,
    /// The current round's input order, and the next position in it.
    order: Vec<usize>,
    pos: usize,
    round: usize,
    /// Per-input offset into [`COLD_CHECK_DELTAS`].
    phase: Vec<usize>,
    /// The current input and the ops of its block still to send.
    base: usize,
    block: Vec<Op>,
}

impl<'a> NoiseCold<'a> {
    /// Stream `stream` under benchmark seed `seed`.
    #[must_use]
    pub fn new(
        seed: u64,
        stream: u64,
        corpus: &'a [(Vec<i64>, usize)],
        net: &'a Network<Rational>,
    ) -> Self {
        let mut rng = SplitMix64::new(stream_seed(seed, stream));
        let phase = corpus.iter().map(|_| rng.below(3)).collect();
        NoiseCold {
            rng,
            corpus,
            net,
            order: (0..corpus.len()).collect(),
            pos: corpus.len(),
            round: 0,
            phase,
            base: 0,
            block: Vec::new(),
        }
    }

    /// The next request of the stream.
    pub fn next_query(&mut self) -> Query {
        if self.block.is_empty() {
            if self.pos == self.order.len() {
                self.rng.shuffle(&mut self.order);
                self.pos = 0;
                self.round += 1;
            }
            self.base = self.order[self.pos];
            self.pos += 1;
            let delta = COLD_CHECK_DELTAS[(self.phase[self.base] + self.round) % 3];
            self.block = vec![
                Op::Check { delta },
                Op::Tolerance { max_delta: 50 },
                Op::Sensitivity { delta: 30, cap: 20 },
            ];
            self.rng.shuffle(&mut self.block);
        }
        let op = self.block.pop().expect("block refilled above");
        let (base, _) = &self.corpus[self.base];
        let input: Vec<i64> = base
            .iter()
            .map(|&g| scale(g, self.rng.below(101) as i64 - 50))
            .collect();
        let query = Query {
            op,
            input,
            label: 0,
        };
        let label = self
            .net
            .classify(&query.rational_input())
            .expect("corpus width matches the network");
        Query { label, ..query }
    }
}

/// The paper's Fig. 4 sweep over the corpus: checks at δ = 5, 10, …, 40
/// plus one tolerance (`max_delta` 50) per input.
#[must_use]
pub fn sweep_queries(corpus: &[(Vec<i64>, usize)]) -> Vec<Query> {
    let mut queries = Vec::new();
    for (input, label) in corpus {
        for delta in (5..=40).step_by(5) {
            queries.push(Query {
                op: Op::Check { delta },
                input: input.clone(),
                label: *label,
            });
        }
        queries.push(Query {
            op: Op::Tolerance { max_delta: 50 },
            input: input.clone(),
            label: *label,
        });
    }
    queries
}

/// The `sweep-warm` stream of one connection: the sweep replayed pass
/// after pass, each pass in a fresh seeded order.
#[derive(Debug)]
pub struct Replay<'a> {
    rng: SplitMix64,
    queries: &'a [Query],
    order: Vec<usize>,
    pos: usize,
}

impl<'a> Replay<'a> {
    /// Stream `stream` under benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64, queries: &'a [Query]) -> Self {
        Replay {
            rng: SplitMix64::new(stream_seed(seed, stream)),
            queries,
            order: (0..queries.len()).collect(),
            pos: queries.len(),
        }
    }

    /// The next request of the stream.
    pub fn next_query(&mut self) -> Query {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.queries[self.order[self.pos - 1]].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_core::casestudy::{build, CaseStudyConfig};

    fn lines(seed: u64, cs: &CaseStudy, corpus: &[(Vec<i64>, usize)], n: usize) -> String {
        let mut cold = NoiseCold::new(seed, 0, corpus, &cs.exact_net);
        let sweep = sweep_queries(corpus);
        let mut warm = Replay::new(seed, 0, &sweep);
        let mut out = String::new();
        for id in 0..n as u64 {
            out.push_str(&cold.next_query().line(id, false));
            out.push('\n');
            out.push_str(&warm.next_query().line(id, false));
            out.push('\n');
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let cs = build(&CaseStudyConfig::small());
        let corpus = corpus(&cs);
        let a = lines(7, &cs, &corpus, 600);
        assert_eq!(a, lines(7, &cs, &corpus, 600));
        assert_ne!(a, lines(8, &cs, &corpus, 600));
    }

    #[test]
    fn noise_cold_is_stationary_and_fresh() {
        let cs = build(&CaseStudyConfig::small());
        let corpus = corpus(&cs);
        let n = corpus.len();
        let mut cold = NoiseCold::new(1, 3, &corpus, &cs.exact_net);
        // Each query with the corpus input it perturbs.
        let queries: Vec<(Query, usize)> =
            (0..9 * n).map(|_| (cold.next_query(), cold.base)).collect();
        let mut inputs: Vec<&Vec<i64>> = queries.iter().map(|(q, _)| &q.input).collect();
        inputs.sort();
        inputs.dedup();
        assert_eq!(
            inputs.len(),
            queries.len(),
            "every request is a fresh input"
        );
        for (q, base) in &queries {
            let within = corpus[*base]
                .0
                .iter()
                .zip(&q.input)
                .all(|(&g, &v)| (v - g).abs() * 100 <= 5 * g.abs() + 100);
            assert!(
                within,
                "input within ±5% (plus rounding) of its corpus input"
            );
        }
        // Three rounds: each block is one input's check, tolerance and
        // sensitivity; each round visits every input once; across the
        // rounds every input's check takes each radius once.
        let mut deltas = vec![Vec::new(); n];
        for (b, block) in queries.chunks(3).enumerate() {
            let mut names: Vec<&str> = block.iter().map(|(q, _)| q.op_name()).collect();
            names.sort_unstable();
            assert_eq!(names, ["check", "sensitivity", "tolerance"]);
            let base = block[0].1;
            assert!(block.iter().all(|&(_, b)| b == base));
            if b % n == 0 {
                assert!(deltas.iter().all(|d| d.len() == b / n), "round {}", b / n);
            }
            for (q, _) in block {
                if let Op::Check { delta } = q.op {
                    deltas[base].push(delta);
                }
            }
        }
        for mut d in deltas {
            d.sort_unstable();
            assert_eq!(d, COLD_CHECK_DELTAS);
        }
    }

    #[test]
    fn sweep_replays_every_query_once_per_pass() {
        let cs = build(&CaseStudyConfig::small());
        let corpus = corpus(&cs);
        let sweep = sweep_queries(&corpus);
        assert_eq!(sweep.len(), corpus.len() * 9);
        let mut replay = Replay::new(5, 1, &sweep);
        let mut pass: Vec<String> = (0..sweep.len())
            .map(|_| replay.next_query().line(0, false))
            .collect();
        let mut all: Vec<String> = sweep.iter().map(|q| q.line(0, false)).collect();
        pass.sort();
        all.sort();
        assert_eq!(pass, all);
    }

    #[test]
    fn request_line_shape() {
        let q = Query {
            op: Op::Sensitivity { delta: 30, cap: 20 },
            input: vec![12, -3],
            label: 1,
        };
        assert_eq!(
            q.line(4, true),
            r#"{"op":"sensitivity","id":4,"input":["12","-3"],"label":1,"delta":30,"cap":20,"trace":true}"#
        );
        assert_eq!(scale(1000, 50), 1050);
        assert_eq!(scale(-1000, -50), -950);
        assert_eq!(scale(15, 33), 15);
    }
}
