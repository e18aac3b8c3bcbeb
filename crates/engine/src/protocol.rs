//! The JSONL request/response protocol of `fannet serve` (DESIGN.md §8).
//!
//! One request per line, one response per line, `i`-th response
//! answering the `i`-th request — over stdin/stdout (`fannet serve`) or
//! a TCP connection (`fannet listen`, DESIGN.md §13). The operations:
//!
//! ```text
//! {"op":"check","id":1,"input":["100","82"],"label":0,"delta":5}
//! {"op":"check","input":["100","82"],"label":0,"region":[[-5,5],[0,3]]}
//! {"op":"tolerance","input":["100","82"],"label":0,"max_delta":50}
//! {"op":"sensitivity","input":["100","99"],"label":0,"delta":3,"cap":10}
//! {"op":"fault_check","input":["100","82"],"label":0,"model":"weight-noise","eps":"1/50"}
//! {"op":"fault_check","input":["100","82"],"label":0,"model":"stuck-at","layer":0,"neuron":1,"value":"0"}
//! {"op":"fault_check","input":["100","82"],"label":0,"model":"bit-flips","budget":1}
//! {"op":"fault_check","input":["100","82"],"label":0,"model":"quantization","denom_bits":8}
//! {"op":"fault_tolerance","input":["100","82"],"label":0,"denom":1000,"max_numer":200}
//! {"op":"joint_check","input":["100","82"],"label":0,"delta":3,"model":"weight-noise","eps":"1/50"}
//! {"op":"joint_tolerance","input":["100","82"],"label":0,"delta":3,"denom":100,"max_numer":25}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! Inputs are exact rationals: strings (`"82"`, `"3/4"`, `"-1.25"`) or
//! bare JSON integers. `delta` is shorthand for the symmetric region
//! `±delta` over every input node; `region` gives explicit per-node
//! `[lo, hi]` percent bounds. `id` is an optional client tag echoed back
//! verbatim; `max_delta` defaults to 50 and `cap` to 100. Fault queries
//! (DESIGN.md §11) name a [`FaultModel`] by its kind plus flat model
//! parameters; `fault_tolerance` bisects relative weight noise on the
//! grid `{0, 1/denom, …, max_numer/denom}` (defaults 1000 and 200).
//! Joint queries (DESIGN.md §12) combine an input-noise region with a
//! fault model — `joint_check` decides the product claim, and
//! `joint_tolerance` bisects ε at a fixed ±`delta` (default 0, which
//! degenerates to `fault_tolerance`).
//!
//! Every solver-backed op additionally accepts `"trace":true` to attach
//! a per-query cost trace ([`QueryTrace`]: wall nanoseconds, cache
//! outcome, per-tier time and counters) to its response — verdicts and
//! witnesses stay bit-identical (DESIGN.md §14). `metrics` renders the
//! process-wide latency histograms as Prometheus text exposition.
//!
//! Responses are flat JSON objects tagged with the same `op` (or
//! `"error"`), e.g.:
//!
//! ```text
//! {"op":"check","id":1,"verdict":"robust","source":"solver","stats":{…}}
//! {"op":"check","verdict":"counterexample","noise":[-12,4],"predicted":1,
//!  "expected":0,"noisy_input":["88/1","…"],"outputs":["…"],"source":"exact_hit","stats":{…}}
//! {"op":"tolerance","radius":12,"max_delta":50}   // null ⇔ robust through ±max_delta
//! {"op":"fault_check","verdict":"robust","source":"solver","stats":{…}}
//! {"op":"joint_check","verdict":"vulnerable","noise":[-3,3],"fault":"…","source":"solver","stats":{…}}
//! {"op":"sensitivity","count":4,"exhausted":true,"nodes":[{"node":0,…}]}
//! {"op":"stats","fingerprint":"…","exact_hits":…,"cache_len":…,"solver_search":{…},"server":{…}}
//! {"op":"shutdown","ok":true}
//! {"op":"error","id":7,"message":"label 3 out of range for 2 outputs"}
//! ```
//!
//! Every counter block on the wire is one `SearchStats` object with the
//! same fifteen keys: the per-answer `stats` of `check`, `fault_check`
//! and `joint_check`, and the cumulative `solver_search`,
//! `fault_solver_search` and `joint_solver` blocks of `stats`.
//!
//! When a serving front end answers a `stats` request it adds a
//! `server` object (uptime, qps, queue gauges, per-op dispatch counts —
//! [`crate::stats::ServerStats`]) after the engine's keys; a bare
//! [`handle`] call leaves it out. `shutdown` asks the front end to
//! drain and exit: in-flight requests finish and their responses are
//! delivered, then the session closes (DESIGN.md §13).
//!
//! The wire impls are written by hand against the serde shim's `Value`
//! data model: the derive shim has no field attributes, and a protocol
//! wants lowercase tags, optional fields and flat objects.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fannet_faults::{
    FaultModel, FaultOutcome, FaultTolerance, JointOutcome, JointTolerance, ToleranceSearch,
};
use fannet_numeric::Rational;
use fannet_search::{SearchStats, TierTimer};
use fannet_verify::bab::RegionOutcome;
use fannet_verify::exact::Counterexample;
use fannet_verify::region::NoiseRegion;
use serde::de::{take_entry, DeserializeOwned};
use serde::{Deserialize, Serialize, Serializer, Value};

use crate::engine::{Answer, AnswerSource, Engine, Query, QueryKind};
use crate::stats::Counters;

/// Default `max_delta` of a `tolerance` request.
pub const DEFAULT_MAX_DELTA: i64 = 50;
/// Default counterexample cap of a `sensitivity` request.
pub const DEFAULT_CAP: usize = 100;

/// One decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One engine query: any of the seven query ops (DESIGN.md §8).
    Query {
        /// Client tag echoed in the response.
        id: Option<u64>,
        /// The question, answered by [`Engine::answer`].
        query: Query,
        /// `true` to attach a per-query cost trace to the response
        /// (DESIGN.md §14). Never changes the verdict or witness;
        /// `sensitivity` responses carry no trace.
        trace: bool,
    },
    /// Engine/cache/solver counters.
    Stats {
        /// Client tag echoed in the response.
        id: Option<u64>,
    },
    /// Prometheus-style text exposition of latency histograms
    /// (DESIGN.md §14): per-tier solver time from the process-global
    /// span registry, plus per-op request latency when a serving front
    /// end enriches the reply.
    Metrics {
        /// Client tag echoed in the response.
        id: Option<u64>,
    },
    /// Graceful drain: the front end acknowledges, finishes in-flight
    /// requests and exits (DESIGN.md §13). The engine itself is
    /// untouched — this op exists so a TCP server, which never sees a
    /// stdin EOF, has an in-band way to stop.
    Shutdown {
        /// Client tag echoed in the response.
        id: Option<u64>,
    },
}

/// Per-node sign statistics of a `sensitivity` reply (the serving-side
/// counterpart of `fannet_core::sensitivity::NodeSensitivity`, computed
/// here because the engine sits below `fannet-core` in the crate DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSigns {
    /// Input node (0-based).
    pub node: usize,
    /// Extracted vectors with strictly positive noise here.
    pub positive: usize,
    /// Extracted vectors with strictly negative noise here.
    pub negative: usize,
    /// Extracted vectors with zero noise here.
    pub zero: usize,
    /// Largest positive percent observed.
    pub max_positive: i64,
    /// Most negative percent observed.
    pub min_negative: i64,
}

/// Per-query cost attribution (DESIGN.md §14): wall time, cache
/// outcome, and per-tier nanoseconds of one answered query. Attached to
/// a response only when the request asked (`"trace": true`); also
/// surfaced to the serving session for slow-query logging.
///
/// Serialized as:
///
/// ```text
/// "trace":{"wall_ns":…,"cache":"exact"|"subsumed"|"miss",
///          "tiers":{"interval":{"ns":…,"hits":…,"fallbacks":…},
///                   "zonotope":{…},
///                   "exact":{"ns":…,"decisions":…,"fallbacks":…,"evals":…}},
///          "boxes_visited":…,"depth_high_water":…[,"queue_ns":…]}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// Wall-clock nanoseconds of the whole engine call (cache lookups
    /// and witness handling included, framing excluded).
    pub wall_ns: u64,
    /// How the cache answered ([`AnswerSource`]); for tolerance
    /// bisections, the aggregate over every probe.
    pub cache: AnswerSource,
    /// Solver counters of the answer, timing fields populated (zero on
    /// cache hits — the cache did no tier work).
    pub stats: fannet_search::SearchStats,
    /// Nanoseconds the request waited in the serving queue before a
    /// worker dispatched it (DESIGN.md §15). The bare engine has no
    /// queue, so [`handle_traced`] leaves this `None` and the key is
    /// omitted; the serving session fills it before rendering.
    pub queue_ns: Option<u64>,
}

impl QueryTrace {
    /// The wire spelling of the cache outcome.
    #[must_use]
    pub fn cache_name(&self) -> &'static str {
        match self.cache {
            AnswerSource::ExactHit => "exact",
            AnswerSource::SubsumptionHit => "subsumed",
            AnswerSource::Solver => "miss",
        }
    }
}

impl Serialize for QueryTrace {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        struct Tiers<'a>(&'a fannet_search::SearchStats);
        struct Screen {
            ns: u64,
            hits: u64,
            fallbacks: u64,
        }
        struct Exact<'a>(&'a fannet_search::SearchStats);
        impl Serialize for Screen {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeStruct as _;
                let mut st = serializer.serialize_struct("Screen", 3)?;
                st.serialize_field("ns", &self.ns)?;
                st.serialize_field("hits", &self.hits)?;
                st.serialize_field("fallbacks", &self.fallbacks)?;
                st.end()
            }
        }
        impl Serialize for Exact<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeStruct as _;
                let s = self.0;
                let mut st = serializer.serialize_struct("Exact", 4)?;
                st.serialize_field("ns", &s.exact_ns)?;
                st.serialize_field("decisions", &s.exact_decisions)?;
                st.serialize_field("fallbacks", &s.exact_fallbacks)?;
                st.serialize_field("evals", &s.exact_evals)?;
                st.end()
            }
        }
        impl Serialize for Tiers<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeStruct as _;
                let s = self.0;
                let mut st = serializer.serialize_struct("Tiers", 3)?;
                st.serialize_field(
                    "interval",
                    &Screen {
                        ns: s.interval_ns,
                        hits: s.interval_hits,
                        fallbacks: s.interval_fallbacks,
                    },
                )?;
                st.serialize_field(
                    "zonotope",
                    &Screen {
                        ns: s.zonotope_ns,
                        hits: s.zonotope_hits,
                        fallbacks: s.zonotope_fallbacks,
                    },
                )?;
                st.serialize_field("exact", &Exact(s))?;
                st.end()
            }
        }
        let mut st = serializer.serialize_struct("QueryTrace", 6)?;
        st.serialize_field("wall_ns", &self.wall_ns)?;
        st.serialize_field("cache", self.cache_name())?;
        st.serialize_field("tiers", &Tiers(&self.stats))?;
        st.serialize_field("boxes_visited", &self.stats.boxes_visited)?;
        st.serialize_field("depth_high_water", &self.stats.depth_high_water)?;
        if let Some(queue_ns) = self.queue_ns {
            st.serialize_field("queue_ns", &queue_ns)?;
        }
        st.end()
    }
}

/// One request's lifecycle phase breakdown (DESIGN.md §15), kept by
/// the serving session in a bounded ring and surfaced through the
/// `metrics` op's `recent` field — the queryable twin of a
/// `--trace-out` timeline row.
///
/// Serialized as
/// `{"conn":…[,"id":…],"op":"…","queue_ns":…,"service_ns":…,
///   "sequence_ns":…,"write_ns":…,"wall_ns":…}` with `id` omitted for
/// untagged requests (matching every other response surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTimeline {
    /// The submitting connection's session-unique id.
    pub conn: u64,
    /// Echo of the request tag.
    pub id: Option<u64>,
    /// The request's operation name (`"invalid"` for undecodable lines).
    pub op: &'static str,
    /// Nanoseconds waited in the bounded queue.
    pub queue_ns: u64,
    /// Nanoseconds inside the engine call.
    pub service_ns: u64,
    /// Nanoseconds parked in the per-connection sequencer.
    pub sequence_ns: u64,
    /// Nanoseconds writing the response line.
    pub write_ns: u64,
    /// Nanoseconds from enqueue to the write's return; the four phases
    /// sum to at most this (the remainder is scheduling slack).
    pub wall_ns: u64,
}

impl Serialize for RequestTimeline {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("RequestTimeline", 8)?;
        st.serialize_field("conn", &self.conn)?;
        if let Some(id) = self.id {
            st.serialize_field("id", &id)?;
        }
        st.serialize_field("op", self.op)?;
        st.serialize_field("queue_ns", &self.queue_ns)?;
        st.serialize_field("service_ns", &self.service_ns)?;
        st.serialize_field("sequence_ns", &self.sequence_ns)?;
        st.serialize_field("write_ns", &self.write_ns)?;
        st.serialize_field("wall_ns", &self.wall_ns)?;
        st.end()
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
// One transient value per answered request; the size spread (the
// `Stats` reply carries three full counter blocks) costs nothing worth
// an indirection.
#[allow(clippy::large_enum_variant)]
pub enum Response {
    /// Answer to a [`QueryKind::Check`] query.
    Check {
        /// Echo of the request tag.
        id: Option<u64>,
        /// Canonical outcome (verdict and witness).
        outcome: RegionOutcome,
        /// Cache path that produced it.
        source: AnswerSource,
        /// Solver counters of this answer (zero on cache hits).
        stats: SearchStats,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::Tolerance`] query.
    Tolerance {
        /// Echo of the request tag.
        id: Option<u64>,
        /// Smallest flipping `δ`, `None` if robust through `±max_delta`.
        radius: Option<i64>,
        /// The `max_delta` that bounded the search.
        max_delta: i64,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::FaultCheck`] query.
    FaultCheck {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The verdict (with witness, when vulnerable).
        outcome: FaultOutcome,
        /// Cache path that produced it.
        source: AnswerSource,
        /// Fault-checker counters of this answer (zero on cache hits).
        stats: SearchStats,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::FaultTolerance`] query.
    FaultTolerance {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The bisection result.
        tolerance: FaultTolerance,
        /// The grid that bounded the search.
        search: ToleranceSearch,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::JointCheck`] query.
    JointCheck {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The verdict (with joint witness, when vulnerable).
        outcome: JointOutcome,
        /// Cache path that produced it.
        source: AnswerSource,
        /// Joint-checker counters of this answer (zero on cache hits).
        stats: SearchStats,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::JointTolerance`] query.
    JointTolerance {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The bisection result.
        tolerance: JointTolerance,
        /// The input-noise radius that fixed the δ axis.
        delta: i64,
        /// The grid that bounded the ε search.
        search: ToleranceSearch,
        /// Cost attribution, present iff the request set `"trace"`.
        trace: Option<QueryTrace>,
    },
    /// Answer to a [`QueryKind::Sensitivity`] query.
    Sensitivity {
        /// Echo of the request tag.
        id: Option<u64>,
        /// Counterexamples extracted.
        count: usize,
        /// `true` iff the region was exhausted before the cap.
        exhausted: bool,
        /// Per-node sign statistics.
        nodes: Vec<NodeSigns>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The served network's content fingerprint (cache namespace).
        fingerprint: String,
        /// Cache and cumulative solver counters of every domain.
        counters: Counters,
        /// Front-end metrics (uptime, qps, queue depth, per-op counts),
        /// filled by the serving session that owns the sockets; `None`
        /// when the request was answered outside a serving front end
        /// (e.g. a bare [`handle`] call).
        server: Option<crate::stats::ServerStats>,
    },
    /// Answer to [`Request::Metrics`]: Prometheus-style text exposition.
    Metrics {
        /// Echo of the request tag.
        id: Option<u64>,
        /// The exposition body (may be empty when nothing was recorded
        /// yet). A serving front end appends its per-op request-latency
        /// families before rendering.
        text: String,
        /// The last requests' phase timelines, oldest first, filled by
        /// the serving session's bounded ring; empty (and omitted from
        /// the wire) outside a serving front end.
        recent: Vec<RequestTimeline>,
    },
    /// Answer to [`Request::Shutdown`]: the drain is acknowledged before
    /// the front end stops reading.
    Shutdown {
        /// Echo of the request tag.
        id: Option<u64>,
    },
    /// Any failure: malformed line, bad query, or a solver panic.
    Error {
        /// Echo of the request tag, when one was decoded.
        id: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

fn field_error(msg: impl std::fmt::Display) -> String {
    msg.to_string()
}

fn rational_from_value(v: Value) -> Result<Rational, String> {
    match v {
        Value::Str(s) => s
            .parse::<Rational>()
            .map_err(|e| field_error(format!("bad input component: {e}"))),
        Value::Int(n) => Ok(Rational::from_integer(n)),
        other => Err(field_error(format!(
            "input components must be strings or integers, found {other:?}"
        ))),
    }
}

fn take_input(m: &mut Vec<(String, Value)>) -> Result<Vec<Rational>, String> {
    match take_entry(m, "input") {
        Some(Value::Seq(items)) => items.into_iter().map(rational_from_value).collect(),
        Some(other) => Err(format!("`input` must be an array, found {other:?}")),
        None => Err("missing field `input`".to_string()),
    }
}

fn take_parsed<T: DeserializeOwned>(
    m: &mut Vec<(String, Value)>,
    field: &str,
) -> Result<Option<T>, String> {
    match take_entry(m, field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => serde::de::from_value(v)
            .map(Some)
            .map_err(|e| format!("bad `{field}`: {e}")),
    }
}

fn take_required<T: DeserializeOwned>(
    m: &mut Vec<(String, Value)>,
    field: &str,
) -> Result<T, String> {
    take_parsed(m, field)?.ok_or_else(|| format!("missing field `{field}`"))
}

/// Resolves the `delta` / `region` pair into a validated [`NoiseRegion`].
fn take_region(m: &mut Vec<(String, Value)>, nodes: usize) -> Result<NoiseRegion, String> {
    let delta: Option<i64> = take_parsed(m, "delta")?;
    let ranges: Option<Vec<(i64, i64)>> = take_parsed(m, "region")?;
    match (delta, ranges) {
        (Some(_), Some(_)) => Err("give either `delta` or `region`, not both".to_string()),
        (Some(d), None) => {
            if !(0..=100).contains(&d) {
                return Err(format!("delta {d} outside the model's [0, 100] range"));
            }
            Ok(NoiseRegion::symmetric(d, nodes))
        }
        (None, Some(r)) => NoiseRegion::try_new(r),
        (None, None) => Err("missing field `delta` (or `region`)".to_string()),
    }
}

/// Resolves the flat fault-model fields of a `fault_check` request.
fn take_fault_model(m: &mut Vec<(String, Value)>) -> Result<FaultModel, String> {
    let kind = match take_entry(m, "model") {
        Some(Value::Str(s)) => s,
        Some(other) => return Err(format!("`model` must be a string, found {other:?}")),
        None => return Err("missing field `model`".to_string()),
    };
    match kind.as_str() {
        "weight-noise" | "weight_noise" => {
            let rel_eps: Rational = take_required(m, "eps")?;
            if rel_eps.is_negative() {
                return Err(format!(
                    "weight-noise eps must be non-negative, got {rel_eps}"
                ));
            }
            Ok(FaultModel::WeightNoise { rel_eps })
        }
        "stuck-at" | "stuck_at" => Ok(FaultModel::StuckAt {
            layer: take_required(m, "layer")?,
            neuron: take_required(m, "neuron")?,
            value: take_required(m, "value")?,
        }),
        "bit-flips" | "bit_flips" => Ok(FaultModel::BitFlips {
            budget: take_required(m, "budget")?,
        }),
        "quantization" => {
            let bits: usize = take_required(m, "denom_bits")?;
            if bits >= 126 {
                return Err(format!("denom_bits {bits} overflows the exact domain"));
            }
            Ok(FaultModel::Quantization {
                denom_bits: bits as u32,
            })
        }
        other => Err(format!(
            "unknown fault model `{other}` (expected weight-noise/stuck-at/bit-flips/quantization)"
        )),
    }
}

/// Resolves the `denom` / `max_numer` pair of a tolerance-grid request.
fn take_tolerance_grid(m: &mut Vec<(String, Value)>) -> Result<ToleranceSearch, String> {
    let denom: i64 = take_parsed(m, "denom")?.unwrap_or(1000);
    let max_numer: i64 = take_parsed(m, "max_numer")?.unwrap_or(200);
    if denom <= 0 {
        return Err(format!("denom must be positive, got {denom}"));
    }
    if max_numer < 0 {
        return Err(format!("max_numer must be non-negative, got {max_numer}"));
    }
    Ok(ToleranceSearch::new(
        i128::from(denom),
        i128::from(max_numer),
    ))
}

/// Decodes one JSONL line into a [`Request`].
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops,
/// missing fields or out-of-model regions. The caller wraps it into a
/// [`Response::Error`] so one bad line never kills a serving session.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = ValueDocument::parse(line)?;
    let Value::Map(mut m) = value else {
        return Err("request line must be a JSON object".to_string());
    };
    let op = match take_entry(&mut m, "op") {
        Some(Value::Str(s)) => s,
        Some(other) => return Err(format!("`op` must be a string, found {other:?}")),
        None => return Err("missing field `op`".to_string()),
    };
    let id: Option<u64> = take_parsed(&mut m, "id")?;
    let trace: bool = take_parsed(&mut m, "trace")?.unwrap_or(false);
    match op.as_str() {
        "stats" => return Ok(Request::Stats { id }),
        "metrics" => return Ok(Request::Metrics { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "check" | "tolerance" | "sensitivity" | "fault_check" | "fault_tolerance"
        | "joint_check" | "joint_tolerance" => {}
        other => {
            return Err(format!(
                "unknown op `{other}` (expected check/tolerance/sensitivity/fault_check/\
                 fault_tolerance/joint_check/joint_tolerance/stats/metrics/shutdown)"
            ))
        }
    }
    let input = take_input(&mut m)?;
    let label = take_required(&mut m, "label")?;
    let nodes = input.len();
    let kind = match op.as_str() {
        "check" => QueryKind::Check {
            region: take_region(&mut m, nodes)?,
        },
        "tolerance" => {
            let max_delta = take_parsed(&mut m, "max_delta")?.unwrap_or(DEFAULT_MAX_DELTA);
            if !(1..=100).contains(&max_delta) {
                return Err(format!("max_delta {max_delta} outside [1, 100]"));
            }
            QueryKind::Tolerance { max_delta }
        }
        "sensitivity" => {
            let region = take_region(&mut m, nodes)?;
            let cap = take_parsed(&mut m, "cap")?.unwrap_or(DEFAULT_CAP);
            if cap == 0 {
                return Err("cap must be positive".to_string());
            }
            QueryKind::Sensitivity { region, cap }
        }
        "fault_check" => QueryKind::FaultCheck {
            model: take_fault_model(&mut m)?,
        },
        "fault_tolerance" => QueryKind::FaultTolerance {
            search: take_tolerance_grid(&mut m)?,
        },
        "joint_check" => {
            let region = take_region(&mut m, nodes)?;
            let model = take_fault_model(&mut m)?;
            QueryKind::JointCheck { region, model }
        }
        "joint_tolerance" => {
            let delta: i64 = take_parsed(&mut m, "delta")?.unwrap_or(0);
            if !(0..=100).contains(&delta) {
                return Err(format!("delta {delta} outside the model's [0, 100] range"));
            }
            let search = take_tolerance_grid(&mut m)?;
            QueryKind::JointTolerance { delta, search }
        }
        _ => unreachable!("query ops are matched above"),
    };
    Ok(Request::Query {
        id,
        query: Query { input, label, kind },
        trace,
    })
}

/// Adapter: the serde_json shim exposes typed `from_str` only, so parse
/// into the shim's raw `Value` through a thin `Deserialize` wrapper.
struct ValueDocument(Value);

impl<'de> Deserialize<'de> for ValueDocument {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        serde::Deserializer::take_value(d).map(ValueDocument)
    }
}

impl ValueDocument {
    fn parse(line: &str) -> Result<Value, String> {
        serde_json::from_str::<ValueDocument>(line)
            .map(|doc| doc.0)
            .map_err(|e| format!("malformed JSON: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

impl Serialize for Response {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("Response", 8)?;
        match self {
            Response::Check {
                id,
                outcome,
                source,
                stats,
                trace,
            } => {
                st.serialize_field("op", "check")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                match outcome {
                    RegionOutcome::Robust => st.serialize_field("verdict", "robust")?,
                    RegionOutcome::Counterexample(ce) => {
                        st.serialize_field("verdict", "counterexample")?;
                        st.serialize_field("noise", ce.noise.percents())?;
                        st.serialize_field("predicted", &ce.predicted)?;
                        st.serialize_field("expected", &ce.expected)?;
                        st.serialize_field("noisy_input", &ce.noisy_input)?;
                        st.serialize_field("outputs", &ce.outputs)?;
                    }
                }
                st.serialize_field("source", source.wire_name())?;
                st.serialize_field("stats", stats)?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::Tolerance {
                id,
                radius,
                max_delta,
                trace,
            } => {
                st.serialize_field("op", "tolerance")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("radius", radius)?;
                st.serialize_field("max_delta", max_delta)?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::FaultCheck {
                id,
                outcome,
                source,
                stats,
                trace,
            } => {
                st.serialize_field("op", "fault_check")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("verdict", outcome.wire_name())?;
                if let FaultOutcome::Vulnerable(witness) = outcome {
                    st.serialize_field("fault", &witness.description)?;
                    st.serialize_field("predicted", &witness.predicted)?;
                    st.serialize_field("expected", &witness.expected)?;
                    st.serialize_field("outputs", &witness.outputs)?;
                }
                st.serialize_field("source", source.wire_name())?;
                st.serialize_field("stats", stats)?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::FaultTolerance {
                id,
                tolerance,
                search,
                trace,
            } => {
                st.serialize_field("op", "fault_tolerance")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("robust_eps", &tolerance.robust_eps)?;
                st.serialize_field("first_failure", &tolerance.first_failure)?;
                st.serialize_field("probes", &tolerance.probes)?;
                st.serialize_field("denom", &(search.denom as i64))?;
                st.serialize_field("max_numer", &(search.max_numer as i64))?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::JointCheck {
                id,
                outcome,
                source,
                stats,
                trace,
            } => {
                st.serialize_field("op", "joint_check")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("verdict", outcome.wire_name())?;
                if let JointOutcome::Vulnerable(witness) = outcome {
                    st.serialize_field("noise", witness.noise.percents())?;
                    st.serialize_field("fault", &witness.description)?;
                    st.serialize_field("predicted", &witness.predicted)?;
                    st.serialize_field("expected", &witness.expected)?;
                    st.serialize_field("outputs", &witness.outputs)?;
                }
                st.serialize_field("source", source.wire_name())?;
                st.serialize_field("stats", stats)?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::JointTolerance {
                id,
                tolerance,
                delta,
                search,
                trace,
            } => {
                st.serialize_field("op", "joint_tolerance")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("robust_eps", &tolerance.robust_eps)?;
                st.serialize_field("first_failure", &tolerance.first_failure)?;
                st.serialize_field("probes", &tolerance.probes)?;
                st.serialize_field("delta", delta)?;
                st.serialize_field("denom", &(search.denom as i64))?;
                st.serialize_field("max_numer", &(search.max_numer as i64))?;
                if let Some(trace) = trace {
                    st.serialize_field("trace", trace)?;
                }
            }
            Response::Sensitivity {
                id,
                count,
                exhausted,
                nodes,
            } => {
                st.serialize_field("op", "sensitivity")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("count", count)?;
                st.serialize_field("exhausted", exhausted)?;
                st.serialize_field("nodes", nodes)?;
            }
            Response::Stats {
                id,
                fingerprint,
                counters:
                    Counters {
                        region,
                        fault,
                        joint,
                    },
                server,
            } => {
                st.serialize_field("op", "stats")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("fingerprint", fingerprint)?;
                st.serialize_field("exact_hits", &region.cache.exact_hits)?;
                st.serialize_field("subsumption_hits", &region.cache.subsumption_hits)?;
                st.serialize_field("misses", &region.cache.misses)?;
                st.serialize_field("evictions", &region.cache.evictions)?;
                st.serialize_field("cache_len", &region.len)?;
                st.serialize_field("solver_search", &region.solver)?;
                st.serialize_field("fault_hits", &fault.cache.exact_hits)?;
                st.serialize_field("fault_misses", &fault.cache.misses)?;
                st.serialize_field("fault_evictions", &fault.cache.evictions)?;
                st.serialize_field("fault_cache_len", &fault.len)?;
                st.serialize_field("fault_solver_search", &fault.solver)?;
                st.serialize_field("joint_hits", &joint.cache.exact_hits)?;
                st.serialize_field("joint_misses", &joint.cache.misses)?;
                st.serialize_field("joint_evictions", &joint.cache.evictions)?;
                st.serialize_field("joint_cache_len", &joint.len)?;
                st.serialize_field("joint_solver", &joint.solver)?;
                if let Some(server) = server {
                    st.serialize_field("server", server)?;
                }
            }
            Response::Metrics { id, text, recent } => {
                st.serialize_field("op", "metrics")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                // `recent` serializes after `text` so golden masks that
                // truncate at `"text":"` also hide these volatile
                // nanosecond fields; omitted entirely when empty so the
                // bare-dispatch wire shape is unchanged.
                st.serialize_field("text", text)?;
                if !recent.is_empty() {
                    st.serialize_field("recent", recent)?;
                }
            }
            Response::Shutdown { id } => {
                st.serialize_field("op", "shutdown")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("ok", &true)?;
            }
            Response::Error { id, message } => {
                st.serialize_field("op", "error")?;
                if let Some(id) = id {
                    st.serialize_field("id", id)?;
                }
                st.serialize_field("message", message)?;
            }
        }
        st.end()
    }
}

/// Renders a response as its compact single-line wire form.
///
/// # Panics
///
/// Panics if serialization fails (the response model is total).
#[must_use]
pub fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("response serialization is total")
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Per-node sign statistics over extracted counterexample noise vectors.
#[must_use]
pub fn node_signs(width: usize, counterexamples: &[Counterexample]) -> Vec<NodeSigns> {
    let mut nodes: Vec<NodeSigns> = (0..width)
        .map(|node| NodeSigns {
            node,
            positive: 0,
            negative: 0,
            zero: 0,
            max_positive: 0,
            min_negative: 0,
        })
        .collect();
    for ce in counterexamples {
        for (node, &p) in ce.noise.percents().iter().enumerate() {
            let entry = &mut nodes[node];
            if p > 0 {
                entry.positive += 1;
                entry.max_positive = entry.max_positive.max(p);
            } else if p < 0 {
                entry.negative += 1;
                entry.min_negative = entry.min_negative.min(p);
            } else {
                entry.zero += 1;
            }
        }
    }
    nodes
}

/// Answers one request against a resident engine.
///
/// Never panics: query validation failures, shape errors and solver
/// panics (e.g. `i128` overflow on hostile inputs) all come back as
/// [`Response::Error`], so a serving session survives any single request.
#[must_use]
pub fn handle(engine: &Engine, request: &Request) -> Response {
    handle_traced(engine, request, false).0
}

/// [`handle`] with cost attribution: returns the response plus the
/// [`QueryTrace`] of the answered query when one was measured.
///
/// Timing runs when the request asked (`"trace": true`) **or** when
/// `force_timing` is set (a serving front end with a slow-query
/// threshold); the trace is embedded in the response only when the
/// request asked, so forced timing never changes the wire shape.
/// Verdicts and witnesses are bit-identical either way.
#[must_use]
pub fn handle_traced(
    engine: &Engine,
    request: &Request,
    force_timing: bool,
) -> (Response, Option<QueryTrace>) {
    let id = request_id(request);
    match catch_unwind(AssertUnwindSafe(|| dispatch(engine, request, force_timing))) {
        Ok(answered) => answered,
        Err(panic) => (
            Response::Error {
                id,
                message: format!("query aborted: {}", panic_message(&*panic)),
            },
            None,
        ),
    }
}

/// The client tag of a request.
#[must_use]
pub fn request_id(request: &Request) -> Option<u64> {
    match request {
        Request::Query { id, .. }
        | Request::Stats { id }
        | Request::Metrics { id }
        | Request::Shutdown { id } => *id,
    }
}

/// The wire op name of a request (per-op metrics keys).
#[must_use]
pub fn request_op(request: &Request) -> &'static str {
    match request {
        Request::Query { query, .. } => match query.kind {
            QueryKind::Check { .. } => "check",
            QueryKind::Tolerance { .. } => "tolerance",
            QueryKind::Sensitivity { .. } => "sensitivity",
            QueryKind::FaultCheck { .. } => "fault_check",
            QueryKind::FaultTolerance { .. } => "fault_tolerance",
            QueryKind::JointCheck { .. } => "joint_check",
            QueryKind::JointTolerance { .. } => "joint_tolerance",
        },
        Request::Stats { .. } => "stats",
        Request::Metrics { .. } => "metrics",
        Request::Shutdown { .. } => "shutdown",
    }
}

/// The embedded [`QueryTrace`] of a response, mutably, when the
/// request asked for one. The serving session uses this to fill
/// [`QueryTrace::queue_ns`] — queue wait is a front-end quantity the
/// engine cannot measure — before rendering the line.
#[must_use]
pub fn response_trace_mut(response: &mut Response) -> Option<&mut QueryTrace> {
    match response {
        Response::Check { trace, .. }
        | Response::Tolerance { trace, .. }
        | Response::FaultCheck { trace, .. }
        | Response::FaultTolerance { trace, .. }
        | Response::JointCheck { trace, .. }
        | Response::JointTolerance { trace, .. } => trace.as_mut(),
        Response::Sensitivity { .. }
        | Response::Stats { .. }
        | Response::Metrics { .. }
        | Response::Shutdown { .. }
        | Response::Error { .. } => None,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "solver panicked".to_string()
    }
}

fn dispatch(
    engine: &Engine,
    request: &Request,
    force_timing: bool,
) -> (Response, Option<QueryTrace>) {
    let id = request_id(request);
    match request {
        Request::Query { query, trace, .. } => respond(engine, id, query, *trace, force_timing),
        Request::Stats { .. } => (
            Response::Stats {
                id,
                fingerprint: engine.fingerprint().to_hex(),
                counters: engine.counters(),
                server: None,
            },
            None,
        ),
        // A bare (front-end-less) dispatch only knows the process-wide
        // span registry; a serving session prepends its own per-op
        // request-latency families before answering.
        Request::Metrics { .. } => {
            let series: Vec<(String, fannet_obs::Histogram)> = fannet_obs::global_registry()
                .snapshot()
                .into_iter()
                .map(|(name, hist)| (format!("span=\"{name}\""), hist))
                .collect();
            (
                Response::Metrics {
                    id,
                    text: fannet_obs::render_prometheus("fannet_span_ns", &series),
                    recent: Vec::new(),
                },
                None,
            )
        }
        // The engine has nothing to drain; the owning front end watches
        // for this reply and stops reading (DESIGN.md §13).
        Request::Shutdown { .. } => (Response::Shutdown { id }, None),
    }
}

/// One engine call and its response. Timing runs when the client asked
/// (`embed`) or the front end forces it; wall time is measured around
/// the engine call only — parse/serialize overhead is the front end's to
/// attribute, not the query's.
fn respond(
    engine: &Engine,
    id: Option<u64>,
    query: &Query,
    embed: bool,
    force_timing: bool,
) -> (Response, Option<QueryTrace>) {
    let timed = embed || force_timing;
    let timer = if timed {
        TierTimer::enabled()
    } else {
        TierTimer::disabled()
    };
    let start = timed.then(std::time::Instant::now);
    let reply = match engine.answer(query, timer) {
        Ok(reply) => reply,
        Err(e) => {
            let message = e.to_string();
            return (Response::Error { id, message }, None);
        }
    };
    let measured = start.map(|s| QueryTrace {
        wall_ns: u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX),
        cache: reply.source,
        stats: reply.stats,
        queue_ns: None,
    });
    let trace = measured.filter(|_| embed);
    let (source, stats) = (reply.source, reply.stats);
    let response = match (reply.answer, &query.kind) {
        (Answer::Region(outcome), _) => Response::Check {
            id,
            outcome,
            source,
            stats,
            trace,
        },
        (Answer::Radius(radius), &QueryKind::Tolerance { max_delta }) => Response::Tolerance {
            id,
            radius,
            max_delta,
            trace,
        },
        // Extractions carry no trace, measured or embedded.
        (Answer::Counterexamples { found, exhausted }, _) => {
            let response = Response::Sensitivity {
                id,
                count: found.len(),
                exhausted,
                nodes: node_signs(query.input.len(), &found),
            };
            return (response, None);
        }
        (Answer::Fault(outcome), _) => Response::FaultCheck {
            id,
            outcome,
            source,
            stats,
            trace,
        },
        (Answer::FaultTolerance(tolerance), &QueryKind::FaultTolerance { search }) => {
            Response::FaultTolerance {
                id,
                tolerance,
                search,
                trace,
            }
        }
        (Answer::Joint(outcome), _) => Response::JointCheck {
            id,
            outcome,
            source,
            stats,
            trace,
        },
        (Answer::JointTolerance(tolerance), &QueryKind::JointTolerance { delta, search }) => {
            Response::JointTolerance {
                id,
                tolerance,
                delta,
                search,
                trace,
            }
        }
        (answer, kind) => unreachable!("{kind:?} answered with {answer:?}"),
    };
    (response, measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use fannet_nn::{Activation, DenseLayer, Network, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn engine() -> Engine {
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
        Engine::new(net, EngineConfig::serving())
    }

    /// An untraced query request.
    fn query(id: Option<u64>, input: Vec<Rational>, label: usize, kind: QueryKind) -> Request {
        Request::Query {
            id,
            query: Query { input, label, kind },
            trace: false,
        }
    }

    fn kind_of(request: Request) -> QueryKind {
        match request {
            Request::Query { query, .. } => query.kind,
            other => panic!("not a query: {other:?}"),
        }
    }

    #[test]
    fn parses_every_op() {
        let req =
            parse_request(r#"{"op":"check","id":7,"input":["100","82"],"label":0,"delta":5}"#)
                .unwrap();
        assert_eq!(
            req,
            query(
                Some(7),
                vec![r(100), r(82)],
                0,
                QueryKind::Check {
                    region: NoiseRegion::symmetric(5, 2)
                }
            )
        );
        let req =
            parse_request(r#"{"op":"check","input":[100,82],"label":0,"region":[[-5,5],[0,3]]}"#)
                .unwrap();
        assert_eq!(
            req,
            query(
                None,
                vec![r(100), r(82)],
                0,
                QueryKind::Check {
                    region: NoiseRegion::new(vec![(-5, 5), (0, 3)])
                }
            )
        );
        let req = parse_request(r#"{"op":"tolerance","input":["3/4","-1.25"],"label":1}"#).unwrap();
        assert_eq!(
            req,
            query(
                None,
                vec![Rational::new(3, 4), Rational::new(-5, 4)],
                1,
                QueryKind::Tolerance {
                    max_delta: DEFAULT_MAX_DELTA
                }
            )
        );
        let req = parse_request(
            r#"{"op":"sensitivity","input":["100","99"],"label":0,"delta":3,"cap":10}"#,
        )
        .unwrap();
        assert!(matches!(
            req,
            Request::Query {
                query: Query {
                    kind: QueryKind::Sensitivity { cap: 10, .. },
                    ..
                },
                ..
            }
        ));
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        );
    }

    #[test]
    fn parses_fault_ops() {
        let req = parse_request(
            r#"{"op":"fault_check","id":2,"input":["100","82"],"label":0,"model":"weight-noise","eps":"1/50"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            query(
                Some(2),
                vec![r(100), r(82)],
                0,
                QueryKind::FaultCheck {
                    model: FaultModel::WeightNoise {
                        rel_eps: Rational::new(1, 50),
                    },
                }
            )
        );
        let req = parse_request(
            r#"{"op":"fault_check","input":[1,2],"label":0,"model":"stuck-at","layer":0,"neuron":1,"value":"-3/2"}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::FaultCheck {
                model: FaultModel::StuckAt {
                    layer: 0,
                    neuron: 1,
                    ..
                },
                ..
            }
        ));
        let req = parse_request(
            r#"{"op":"fault_check","input":[1,2],"label":0,"model":"bit_flips","budget":2}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::FaultCheck {
                model: FaultModel::BitFlips { budget: 2 },
                ..
            }
        ));
        let req = parse_request(
            r#"{"op":"fault_check","input":[1,2],"label":0,"model":"quantization","denom_bits":8}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::FaultCheck {
                model: FaultModel::Quantization { denom_bits: 8 },
                ..
            }
        ));
        // Tolerance defaults and explicit grids.
        let req =
            parse_request(r#"{"op":"fault_tolerance","input":["100","82"],"label":0}"#).unwrap();
        assert_eq!(
            req,
            query(
                None,
                vec![r(100), r(82)],
                0,
                QueryKind::FaultTolerance {
                    search: ToleranceSearch::new(1000, 200)
                }
            )
        );
        let req = parse_request(
            r#"{"op":"fault_tolerance","input":["100","82"],"label":0,"denom":100,"max_numer":25}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::FaultTolerance {
                search: ToleranceSearch {
                    denom: 100,
                    max_numer: 25,
                },
                ..
            }
        ));
    }

    #[test]
    fn parses_joint_ops() {
        let req = parse_request(
            r#"{"op":"joint_check","id":3,"input":["100","82"],"label":0,"delta":3,"model":"weight-noise","eps":"1/50"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            query(
                Some(3),
                vec![r(100), r(82)],
                0,
                QueryKind::JointCheck {
                    region: NoiseRegion::symmetric(3, 2),
                    model: FaultModel::WeightNoise {
                        rel_eps: Rational::new(1, 50),
                    },
                }
            )
        );
        // Explicit per-node region bounds work too.
        let req = parse_request(
            r#"{"op":"joint_check","input":[1,2],"label":0,"region":[[-2,2],[0,1]],"model":"bit-flips","budget":1}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::JointCheck {
                model: FaultModel::BitFlips { budget: 1 },
                ..
            }
        ));
        // joint_tolerance defaults: δ = 0, grid 200/1000.
        let req =
            parse_request(r#"{"op":"joint_tolerance","input":["100","82"],"label":0}"#).unwrap();
        assert_eq!(
            req,
            query(
                None,
                vec![r(100), r(82)],
                0,
                QueryKind::JointTolerance {
                    delta: 0,
                    search: ToleranceSearch::new(1000, 200),
                }
            )
        );
        let req = parse_request(
            r#"{"op":"joint_tolerance","input":["100","82"],"label":0,"delta":5,"denom":100,"max_numer":25}"#,
        )
        .unwrap();
        assert!(matches!(
            kind_of(req),
            QueryKind::JointTolerance {
                delta: 5,
                search: ToleranceSearch {
                    denom: 100,
                    max_numer: 25,
                },
                ..
            }
        ));
        // Validation mirrors the underlying ops.
        assert!(
            parse_request(r#"{"op":"joint_check","input":[1,2],"label":0,"delta":3}"#)
                .unwrap_err()
                .contains("missing field `model`")
        );
        assert!(
            parse_request(r#"{"op":"joint_tolerance","input":[1,2],"label":0,"delta":101}"#)
                .unwrap_err()
                .contains("outside the model's")
        );
        assert!(
            parse_request(r#"{"op":"joint_tolerance","input":[1,2],"label":0,"denom":0}"#)
                .unwrap_err()
                .contains("denom must be positive")
        );
    }

    #[test]
    fn joint_round_trips_through_handle_and_render() {
        let e = engine();
        let req = parse_request(
            r#"{"op":"joint_check","id":7,"input":["100","82"],"label":0,"delta":2,"model":"weight-noise","eps":"1/50"}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(
            line.starts_with(r#"{"op":"joint_check","id":7,"verdict":"robust""#),
            "{line}"
        );
        assert!(line.contains(r#""source":"solver""#), "{line}");
        // A vulnerable joint reply carries the witness noise vector.
        let req = parse_request(
            r#"{"op":"joint_check","input":["100","82"],"label":0,"delta":5,"model":"weight-noise","eps":"1/5"}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(line.contains(r#""verdict":"vulnerable""#), "{line}");
        assert!(line.contains(r#""noise":["#), "{line}");
        assert!(line.contains(r#""fault":""#), "{line}");
        // Tolerance reports the certified grid point and echoes δ.
        let req = parse_request(
            r#"{"op":"joint_tolerance","id":8,"input":["100","82"],"label":0,"delta":2,"denom":100,"max_numer":50}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(
            line.starts_with(r#"{"op":"joint_tolerance","id":8,"robust_eps":"7/100""#),
            "{line}"
        );
        assert!(line.contains(r#""delta":2"#), "{line}");
        // Label validation surfaces as an error response.
        let req = parse_request(
            r#"{"op":"joint_check","input":["100","82"],"label":7,"delta":1,"model":"bit-flips","budget":1}"#,
        )
        .unwrap();
        assert!(matches!(handle(&e, &req), Response::Error { .. }));
    }

    /// The top-level entries of a rendered response line.
    fn entries(line: &str) -> Vec<(String, Value)> {
        match ValueDocument::parse(line).unwrap() {
            Value::Map(entries) => entries,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn every_counter_block_is_one_unified_stats_object() {
        const WIRE_FIELDS: [&str; 15] = [
            "boxes_visited",
            "splits",
            "pruned_correct",
            "proved_wrong",
            "exact_evals",
            "screen_hits",
            "screen_fallbacks",
            "interval_hits",
            "interval_fallbacks",
            "zonotope_hits",
            "zonotope_fallbacks",
            "exact_decisions",
            "exact_fallbacks",
            "concrete_evals",
            "budget_exhausted",
        ];
        let e = engine();
        let requests = [
            r#"{"op":"check","input":["100","82"],"label":0,"delta":15}"#,
            r#"{"op":"tolerance","input":["100","82"],"label":0,"max_delta":30}"#,
            r#"{"op":"sensitivity","input":["100","99"],"label":0,"delta":3}"#,
            r#"{"op":"fault_check","input":["100","82"],"label":0,"model":"weight-noise","eps":"1/50"}"#,
            r#"{"op":"fault_tolerance","input":["100","82"],"label":0,"denom":100,"max_numer":25}"#,
            r#"{"op":"joint_check","input":["100","82"],"label":0,"delta":3,"model":"weight-noise","eps":"1/100"}"#,
            r#"{"op":"joint_tolerance","input":["100","82"],"label":0,"delta":2,"denom":100,"max_numer":10}"#,
            r#"{"op":"stats"}"#,
        ];
        for request in requests {
            let response = handle(&e, &parse_request(request).unwrap());
            let line = render_response(&response);
            let entries = entries(&line);
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert!(!keys.contains(&"search"), "{line}");
            let stats: Vec<&Value> = entries
                .iter()
                .filter(|(k, _)| k == "stats")
                .map(|(_, v)| v)
                .collect();
            let answered = match &response {
                Response::Check { stats, .. }
                | Response::FaultCheck { stats, .. }
                | Response::JointCheck { stats, .. } => Some(*stats),
                _ => None,
            };
            let Some(answered) = answered else {
                assert!(stats.is_empty(), "{line}");
                continue;
            };
            // Exactly one `stats` object per check line, carrying the
            // fifteen wire fields of the answer's counters.
            assert_eq!(stats.len(), 1, "{line}");
            let Value::Map(block) = stats[0] else {
                panic!("`stats` is not an object: {line}");
            };
            let fields: Vec<&str> = block.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(fields, WIRE_FIELDS, "{line}");
            let decoded: SearchStats = serde::de::from_value(stats[0].clone()).unwrap();
            assert_eq!(
                decoded,
                SearchStats {
                    depth_high_water: 0,
                    ..answered
                },
                "{line}"
            );
        }
        // The cumulative view: no `solver`/`fault_solver` blocks;
        // the keys `perfbench` reads are all still there.
        let line = render_response(&handle(&e, &parse_request(r#"{"op":"stats"}"#).unwrap()));
        let entries = entries(&line);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert!(
            !keys.contains(&"solver") && !keys.contains(&"fault_solver"),
            "{line}"
        );
        for key in [
            "exact_hits",
            "subsumption_hits",
            "misses",
            "evictions",
            "solver_search",
            "fault_solver_search",
            "joint_solver",
        ] {
            assert!(keys.contains(&key), "`{key}` missing: {line}");
        }
        let (_, solver) = entries.iter().find(|(k, _)| k == "solver_search").unwrap();
        let solver: SearchStats = serde::de::from_value(solver.clone()).unwrap();
        assert_eq!(
            SearchStats {
                depth_high_water: 0,
                ..e.counters().region.solver
            },
            solver
        );
    }

    #[test]
    fn rejects_malformed_fault_requests() {
        for (line, needle) in [
            (
                r#"{"op":"fault_check","input":[1,2],"label":0}"#,
                "missing field `model`",
            ),
            (
                r#"{"op":"fault_check","input":[1,2],"label":0,"model":"frobnicate"}"#,
                "unknown fault model",
            ),
            (
                r#"{"op":"fault_check","input":[1,2],"label":0,"model":"weight-noise"}"#,
                "missing field `eps`",
            ),
            (
                r#"{"op":"fault_check","input":[1,2],"label":0,"model":"weight-noise","eps":"-1/50"}"#,
                "non-negative",
            ),
            (
                r#"{"op":"fault_check","input":[1,2],"label":0,"model":"quantization","denom_bits":127}"#,
                "overflows",
            ),
            (
                r#"{"op":"fault_tolerance","input":[1,2],"label":0,"denom":0}"#,
                "denom must be positive",
            ),
            (
                r#"{"op":"fault_tolerance","input":[1,2],"label":0,"max_numer":-1}"#,
                "non-negative",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}` lacks `{needle}`");
        }
    }

    #[test]
    fn fault_round_trips_through_handle_and_render() {
        let e = engine();
        let req = parse_request(
            r#"{"op":"fault_check","id":5,"input":["100","82"],"label":0,"model":"weight-noise","eps":"1/50"}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(
            line.starts_with(r#"{"op":"fault_check","id":5,"verdict":"robust""#),
            "{line}"
        );
        assert!(line.contains(r#""source":"solver""#), "{line}");
        // Vulnerable replies carry the witness fields.
        let req = parse_request(
            r#"{"op":"fault_check","input":["100","82"],"label":0,"model":"weight-noise","eps":"1/5"}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(line.contains(r#""verdict":"vulnerable""#), "{line}");
        assert!(line.contains(r#""fault":""#), "{line}");
        assert!(line.contains(r#""predicted":1"#), "{line}");
        // Tolerance reports the certified grid point.
        let req = parse_request(
            r#"{"op":"fault_tolerance","id":6,"input":["100","82"],"label":0,"denom":100,"max_numer":50}"#,
        )
        .unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(
            line.starts_with(r#"{"op":"fault_tolerance","id":6,"robust_eps":"9/100""#),
            "{line}"
        );
        assert!(line.contains(r#""first_failure":"1/10""#), "{line}");
        // Label validation surfaces as an error response.
        let req = parse_request(
            r#"{"op":"fault_check","input":["100","82"],"label":7,"model":"bit-flips","budget":1}"#,
        )
        .unwrap();
        assert!(matches!(handle(&e, &req), Response::Error { .. }));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[]", "must be a JSON object"),
            (r#"{"input":[],"label":0}"#, "missing field `op`"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (
                r#"{"op":"check","label":0,"delta":5}"#,
                "missing field `input`",
            ),
            (
                r#"{"op":"check","input":["1","2"],"label":0}"#,
                "missing field `delta`",
            ),
            (
                r#"{"op":"check","input":["1","2"],"label":0,"delta":5,"region":[[0,0],[0,0]]}"#,
                "not both",
            ),
            (
                r#"{"op":"check","input":["1","2"],"label":0,"delta":101}"#,
                "outside the model's",
            ),
            (
                r#"{"op":"check","input":["1","2"],"label":0,"region":[[5,-5],[0,0]]}"#,
                "inverted",
            ),
            (
                r#"{"op":"tolerance","input":["1","2"],"label":0,"max_delta":0}"#,
                "outside [1, 100]",
            ),
            (
                r#"{"op":"sensitivity","input":["1","2"],"label":0,"delta":1,"cap":0}"#,
                "cap must be positive",
            ),
            (
                r#"{"op":"check","input":[true],"label":0,"delta":1}"#,
                "strings or integers",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}` lacks `{needle}`");
        }
    }

    #[test]
    fn handles_and_renders_check_round() {
        let e = engine();
        let req =
            parse_request(r#"{"op":"check","id":1,"input":["100","82"],"label":0,"delta":5}"#)
                .unwrap();
        let resp = handle(&e, &req);
        let line = render_response(&resp);
        assert!(
            line.starts_with(r#"{"op":"check","id":1,"verdict":"robust""#),
            "{line}"
        );
        assert!(line.contains(r#""source":"solver""#), "{line}");

        let req =
            parse_request(r#"{"op":"check","input":["100","82"],"label":0,"delta":15}"#).unwrap();
        let line = render_response(&handle(&e, &req));
        assert!(line.contains(r#""verdict":"counterexample""#), "{line}");
        assert!(line.contains(r#""noise":["#), "{line}");
        assert!(line.contains(r#""predicted":1"#), "{line}");
    }

    /// Strips the trailing `"trace"` object off a traced response line.
    fn without_trace(line: &str) -> String {
        let idx = line
            .find(r#","trace":{"wall_ns""#)
            .unwrap_or_else(|| panic!("no trace object in {line}"));
        format!("{}}}", &line[..idx])
    }

    #[test]
    fn traced_responses_bit_identical_across_tiers() {
        use fannet_verify::bab::CheckerConfig;
        // Same op with and without `"trace":true`, answered by fresh
        // engines under every screening tier: the traced line must be
        // the untraced line plus a trailing trace object — verdicts,
        // witnesses and counters byte-identical (DESIGN.md §14).
        let requests = [
            r#"{"op":"check","id":1,"input":["100","82"],"label":0,"delta":5}"#,
            r#"{"op":"check","id":2,"input":["100","82"],"label":0,"delta":15}"#,
            r#"{"op":"tolerance","id":3,"input":["100","82"],"label":0,"max_delta":30}"#,
            r#"{"op":"fault_check","id":4,"input":["100","82"],"label":0,"model":"weight-noise","eps":"1/50"}"#,
            r#"{"op":"fault_tolerance","id":5,"input":["100","82"],"label":0,"denom":100,"max_numer":25}"#,
            r#"{"op":"joint_check","id":6,"input":["100","82"],"label":0,"delta":3,"model":"weight-noise","eps":"1/100"}"#,
            r#"{"op":"joint_tolerance","id":7,"input":["100","82"],"label":0,"delta":2,"denom":100,"max_numer":10}"#,
        ];
        for (tier, checker) in [
            ("serial_exact", CheckerConfig::serial_exact()),
            ("screened", CheckerConfig::screened()),
            ("zonotope", CheckerConfig::zonotope()),
            ("cascade", CheckerConfig::cascade()),
        ] {
            let net = || {
                Network::new(
                    vec![DenseLayer::new(
                        Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                        vec![r(0), r(0)],
                        Activation::Identity,
                    )
                    .unwrap()],
                    Readout::MaxPool,
                )
                .unwrap()
            };
            let config = EngineConfig {
                checker,
                cache_capacity: 64,
            };
            let plain = Engine::new(net(), config.clone());
            let traced = Engine::new(net(), config);
            for request in requests {
                let req = parse_request(request).unwrap();
                let untraced_line = render_response(&handle(&plain, &req));
                let traced_req =
                    parse_request(&request.replace(r#"{"op""#, r#"{"trace":true,"op""#)).unwrap();
                assert!(
                    matches!(traced_req, Request::Query { trace: true, .. }),
                    "{tier}: {request}"
                );
                let traced_line = render_response(&handle(&traced, &traced_req));
                assert_eq!(
                    without_trace(&traced_line),
                    untraced_line,
                    "{tier}: {request}"
                );
                assert!(traced_line.contains(r#""cache":"miss""#), "{traced_line}");
                assert!(
                    traced_line.contains(r#""tiers":{"interval":{"ns":"#),
                    "{traced_line}"
                );
            }
            // Answered again from the warm cache: identical payload,
            // trace now reporting an exact hit with zero solver cost.
            let req = parse_request(requests[0]).unwrap();
            let untraced_line = render_response(&handle(&plain, &req));
            let traced_req =
                parse_request(&requests[0].replace(r#"{"op""#, r#"{"trace":true,"op""#)).unwrap();
            let traced_line = render_response(&handle(&traced, &traced_req));
            assert_eq!(
                without_trace(&traced_line),
                untraced_line,
                "{tier}: warm repeat"
            );
            assert!(traced_line.contains(r#""cache":"exact""#), "{traced_line}");
            assert!(
                traced_line.contains(r#""boxes_visited":0"#),
                "{traced_line}"
            );
        }
    }

    #[test]
    fn forced_timing_measures_without_changing_the_wire() {
        let e = engine();
        let req =
            parse_request(r#"{"op":"check","id":1,"input":["100","82"],"label":0,"delta":5}"#)
                .unwrap();
        let (resp, trace) = handle_traced(&e, &req, true);
        let trace = trace.expect("forced timing yields a trace");
        assert!(trace.wall_ns > 0);
        assert_eq!(trace.cache_name(), "miss");
        // The response itself carries no trace — the client never asked.
        assert!(!render_response(&resp).contains(r#""trace""#));
        // Stats ops produce no trace even under forced timing.
        let (_, trace) = handle_traced(&e, &parse_request(r#"{"op":"stats"}"#).unwrap(), true);
        assert!(trace.is_none());
    }

    #[test]
    fn metrics_op_renders_prometheus_text() {
        let e = engine();
        fannet_obs::global_registry().record("protocol_test_span", 1 << 12);
        let req = parse_request(r#"{"op":"metrics","id":9}"#).unwrap();
        assert_eq!(req, Request::Metrics { id: Some(9) });
        let resp = handle(&e, &req);
        let Response::Metrics {
            id: Some(9),
            text,
            recent,
        } = resp
        else {
            panic!("unexpected response {resp:?}");
        };
        // Bare dispatch has no request ring; the key stays off the wire.
        assert!(recent.is_empty());
        assert!(text.contains("# TYPE fannet_span_ns histogram"), "{text}");
        assert!(
            text.contains(r#"fannet_span_ns_count{span="protocol_test_span"}"#),
            "{text}"
        );
        assert!(text.contains("# TYPE fannet_span_ns_p99 gauge"), "{text}");
    }

    #[test]
    fn metrics_recent_serializes_after_text_when_filled() {
        let timeline = RequestTimeline {
            conn: 2,
            id: Some(41),
            op: "check",
            queue_ns: 100,
            service_ns: 2000,
            sequence_ns: 30,
            write_ns: 4,
            wall_ns: 2200,
        };
        let resp = Response::Metrics {
            id: Some(9),
            text: String::new(),
            recent: vec![timeline],
        };
        let line = render_response(&resp);
        assert_eq!(
            line,
            "{\"op\":\"metrics\",\"id\":9,\"text\":\"\",\"recent\":[\
             {\"conn\":2,\"id\":41,\"op\":\"check\",\"queue_ns\":100,\
             \"service_ns\":2000,\"sequence_ns\":30,\"write_ns\":4,\
             \"wall_ns\":2200}]}"
        );
        // Untagged requests omit `id` from their timeline row too.
        let untagged = RequestTimeline {
            id: None,
            ..timeline
        };
        let line = render_response(&Response::Metrics {
            id: None,
            text: String::new(),
            recent: vec![untagged],
        });
        assert!(
            line.contains("\"recent\":[{\"conn\":2,\"op\":\"check\""),
            "{line}"
        );
    }

    #[test]
    fn query_trace_queue_ns_is_off_the_wire_until_filled() {
        let e = engine();
        let req = parse_request(
            r#"{"op":"check","id":1,"input":["100","82"],"label":0,"delta":3,"trace":true}"#,
        )
        .unwrap();
        let mut resp = handle(&e, &req);
        let line = render_response(&resp);
        assert!(line.contains(r#""trace":{"wall_ns":"#), "{line}");
        assert!(!line.contains(r#""queue_ns":"#), "{line}");
        // A serving front end fills the slot; the key then serializes
        // after every engine-owned trace key.
        let trace = response_trace_mut(&mut resp).expect("trace embedded");
        trace.queue_ns = Some(777);
        let line = render_response(&resp);
        assert!(
            line.contains(r#""depth_high_water":0,"queue_ns":777}"#),
            "{line}"
        );
        // Traceless responses expose no slot at all.
        let mut stats = handle(&e, &parse_request(r#"{"op":"stats"}"#).unwrap());
        assert!(response_trace_mut(&mut stats).is_none());
    }

    #[test]
    fn bad_queries_become_error_responses_not_panics() {
        let e = engine();
        // Label out of range.
        let region = NoiseRegion::symmetric(1, 2);
        let req = query(Some(9), vec![r(1), r(2)], 5, QueryKind::Check { region });
        let resp = handle(&e, &req);
        assert!(
            matches!(&resp, Response::Error { id: Some(9), message } if message.contains("out of range")),
            "{resp:?}"
        );
        // Width mismatch.
        let req = query(None, vec![r(1)], 0, QueryKind::Tolerance { max_delta: 10 });
        assert!(matches!(handle(&e, &req), Response::Error { .. }));
    }

    #[test]
    fn solver_panic_is_contained() {
        use fannet_numeric::Rational;
        // Weights huge enough that exact propagation overflows i128.
        let huge = Rational::from_integer(i128::MAX / 4);
        let net = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![huge, huge], vec![huge, -huge]]).unwrap(),
                vec![Rational::ZERO, Rational::ZERO],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let e = Engine::new(
            net,
            EngineConfig {
                checker: fannet_verify::bab::CheckerConfig::serial_exact(),
                cache_capacity: 16,
            },
        );
        let region = NoiseRegion::symmetric(8, 2);
        let input = vec![r(1 << 20), r(1 << 20)];
        let req = query(Some(3), input, 0, QueryKind::Check { region });
        let resp = handle(&e, &req);
        // The panic's own message survives containment.
        assert!(
            matches!(&resp, Response::Error { id: Some(3), message }
                if message.starts_with("query aborted: ") && message.contains("overflow")),
            "{resp:?}"
        );
    }

    #[test]
    fn stats_response_reports_cache_counters() {
        let e = engine();
        let check =
            parse_request(r#"{"op":"check","input":["100","82"],"label":0,"delta":5}"#).unwrap();
        let _ = handle(&e, &check);
        let _ = handle(&e, &check);
        let line = render_response(&handle(&e, &parse_request(r#"{"op":"stats"}"#).unwrap()));
        assert!(line.contains(r#""exact_hits":1"#), "{line}");
        assert!(line.contains(r#""misses":1"#), "{line}");
        assert!(line.contains(r#""cache_len":1"#), "{line}");
        assert!(line.contains(r#""fingerprint":""#), "{line}");
        assert!(
            line.contains(r#""solver_search":{"boxes_visited":"#),
            "{line}"
        );
    }

    #[test]
    fn shutdown_round_trips_and_engine_is_untouched() {
        let e = engine();
        let req = parse_request(r#"{"op":"shutdown","id":9}"#).unwrap();
        assert_eq!(req, Request::Shutdown { id: Some(9) });
        let line = render_response(&handle(&e, &req));
        assert_eq!(line, r#"{"op":"shutdown","id":9,"ok":true}"#);
        // No engine state was consulted or mutated.
        assert_eq!(e.counters(), Counters::default());
        // Untagged spelling.
        let line = render_response(&handle(&e, &parse_request(r#"{"op":"shutdown"}"#).unwrap()));
        assert_eq!(line, r#"{"op":"shutdown","ok":true}"#);
    }

    #[test]
    fn bare_handle_leaves_server_metrics_out_of_stats() {
        let e = engine();
        let line = render_response(&handle(&e, &parse_request(r#"{"op":"stats"}"#).unwrap()));
        assert!(!line.contains(r#""server":"#), "{line}");
        // A serving front end fills the slot; the key then serializes
        // after every engine key (see fannet-server).
        let req = parse_request(r#"{"op":"stats"}"#).unwrap();
        let mut resp = handle(&e, &req);
        if let Response::Stats { server, .. } = &mut resp {
            *server = Some(crate::stats::ServerStats {
                uptime_ms: 1,
                requests_total: 1,
                requests_in_flight: 1,
                qps: 1.0,
                qps_10s: 1.0,
                qps_60s: 1.0,
                queue_depth: 0,
                queue_high_water: 1,
                queue_capacity: 64,
                connections_open: 1,
                connections_total: 1,
                ops: crate::stats::OpCounts {
                    stats: 1,
                    ..Default::default()
                },
                latency: crate::stats::LatencyStats::default(),
                window: crate::stats::WindowStats::default(),
                connections: Vec::new(),
            });
        }
        let line = render_response(&resp);
        assert!(
            line.contains(r#""joint_solver":{"#) && line.contains(r#""server":{"uptime_ms":1"#),
            "{line}"
        );
        assert!(line.contains(r#""ops":{"check":0"#), "{line}");
    }

    #[test]
    fn sensitivity_counts_signs() {
        let e = engine();
        let req = parse_request(
            r#"{"op":"sensitivity","id":4,"input":["100","99"],"label":0,"delta":3}"#,
        )
        .unwrap();
        let resp = handle(&e, &req);
        let Response::Sensitivity {
            count,
            exhausted,
            nodes,
            ..
        } = &resp
        else {
            panic!("{resp:?}");
        };
        assert!(*exhausted);
        assert!(*count > 0);
        assert_eq!(nodes.len(), 2);
        // Flipping 100 vs 99 needs the x1 side pushed up relative to x0:
        // node 1 appears with positive noise, and never more negative
        // than node 0 is positive-capped by the ±3 region.
        assert!(nodes[1].positive > 0);
        assert!(nodes[0].max_positive <= 3 && nodes[1].max_positive <= 3);
        assert_eq!(
            nodes[0].positive + nodes[0].negative + nodes[0].zero,
            *count
        );
        let line = render_response(&resp);
        assert!(line.contains(r#""nodes":[{"node":0"#), "{line}");
    }
}
