//! Cache-effectiveness counters (DESIGN.md §8).

use fannet_search::SearchStats;
use serde::{Deserialize, Serialize};

/// How one of the engine's verdict caches answered lookups over its
/// lifetime.
///
/// Every lookup increments exactly one of `exact_hits`,
/// `subsumption_hits` or `misses`: one per check query, one per probe of
/// a tolerance bisection. A radius search's warm-start bracket
/// additionally counts one subsumption hit per bound it narrows from a
/// cached verdict — those are probes the search never has to issue. The
/// exact-key fault and joint caches never count a subsumption hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Lookups answered by an entry with the *identical* key — verdict
    /// and witness reused verbatim.
    pub exact_hits: u64,
    /// Lookups answered by the subsumption order: a `Robust(R)` entry with
    /// `query ⊆ R`, or (verdict-level lookups only) a `Counterexample(w)`
    /// entry with `w ∈ query`.
    pub subsumption_hits: u64,
    /// Lookups no cached verdict could answer; the solver ran.
    pub misses: u64,
    /// Entries discarded by the LRU bound.
    pub evictions: u64,
}

impl EngineStats {
    /// Total lookups served.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.exact_hits + self.subsumption_hits + self.misses
    }

    /// Fraction of lookups answered without running the solver; `None`
    /// before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.lookups();
        if total == 0 {
            None
        } else {
            Some((self.exact_hits + self.subsumption_hits) as f64 / total as f64)
        }
    }

    /// Accumulates another engine's counters into `self`.
    pub fn merge(&mut self, other: &EngineStats) {
        self.exact_hits += other.exact_hits;
        self.subsumption_hits += other.subsumption_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Lifetime counters of one cache domain (input-noise regions, weight
/// faults or joint input×weight claims).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCounters {
    /// How the domain's cache answered lookups.
    pub cache: EngineStats,
    /// Verdicts the cache holds now.
    pub len: usize,
    /// The merge of every solver run's counters in this domain (P3
    /// extractions included, in the region domain).
    pub solver: SearchStats,
}

/// A snapshot of [`crate::Engine::counters`]: one block per domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// The input-noise region domain (`check`, `tolerance`,
    /// `sensitivity`).
    pub region: DomainCounters,
    /// The weight-fault domain (`fault_check`, `fault_tolerance`).
    pub fault: DomainCounters,
    /// The joint input×weight domain (`joint_check`, `joint_tolerance`).
    pub joint: DomainCounters,
}

/// Per-operation dispatch counts of a serving front end.
///
/// Requests are counted when a worker *starts* handling them (dispatch
/// time), so with one worker the counts a `stats` request observes are
/// deterministic: every earlier request of the session, plus itself.
/// Lines that never parsed into a request (malformed JSON, oversized or
/// non-UTF-8 frames) count under `invalid`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// `check` requests dispatched.
    pub check: u64,
    /// `tolerance` requests dispatched.
    pub tolerance: u64,
    /// `sensitivity` requests dispatched.
    pub sensitivity: u64,
    /// `fault_check` requests dispatched.
    pub fault_check: u64,
    /// `fault_tolerance` requests dispatched.
    pub fault_tolerance: u64,
    /// `joint_check` requests dispatched.
    pub joint_check: u64,
    /// `joint_tolerance` requests dispatched.
    pub joint_tolerance: u64,
    /// `stats` requests dispatched.
    pub stats: u64,
    /// `metrics` requests dispatched.
    pub metrics: u64,
    /// `shutdown` requests dispatched.
    pub shutdown: u64,
    /// Lines that produced an error response before dispatch (malformed
    /// JSON, unknown op, oversized frame, invalid UTF-8).
    pub invalid: u64,
}

impl OpCounts {
    /// Total lines dispatched (every counter summed).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.check
            + self.tolerance
            + self.sensitivity
            + self.fault_check
            + self.fault_tolerance
            + self.joint_check
            + self.joint_tolerance
            + self.stats
            + self.metrics
            + self.shutdown
            + self.invalid
    }
}

/// Latency summary of one request class, derived from its log2-bucket
/// histogram ([`fannet_obs::Histogram`]) at `stats` time.
///
/// `count` is deterministic (it equals the matching [`OpCounts`]
/// counter); the three percentile fields are wall-clock-dependent and
/// masked by golden tests alongside `uptime_ms`/`qps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Requests of this class measured.
    pub count: u64,
    /// Conservative median latency, nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// Conservative 90th-percentile latency, nanoseconds.
    pub p90_ns: u64,
    /// Conservative 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
}

/// Lifecycle-phase latency of a serving front end (DESIGN.md §15),
/// serialized as the `phases` block of [`LatencyStats`].
///
/// Each request's wall time decomposes into the queue wait (enqueue →
/// worker dispatch), the service time (the engine call), the sequencer
/// park (completion → first byte of the in-order write) and the write
/// itself, so `queue + service + sequence + write ≤ wall` per request
/// by construction. The first three phases are recorded *before* the
/// response bytes leave the server, so any response a client holds is
/// already counted; `write` lands just after the write returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseLatencyStats {
    /// Time spent waiting in the bounded request queue.
    pub queue: OpLatency,
    /// Time spent inside the engine handling the request.
    pub service: OpLatency,
    /// Time parked in the per-connection sequencer awaiting order.
    pub sequence: OpLatency,
    /// Time spent writing the response line to the connection.
    pub write: OpLatency,
}

/// Per-operation request latency of a serving front end (DESIGN.md §14),
/// serialized as the `latency` block of [`ServerStats`].
///
/// Only dispatched requests are measured (the `invalid` class has no
/// engine call to clock), so each `count` matches its [`OpCounts`]
/// counter under single-worker determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// `check` request latency.
    pub check: OpLatency,
    /// `tolerance` request latency.
    pub tolerance: OpLatency,
    /// `sensitivity` request latency.
    pub sensitivity: OpLatency,
    /// `fault_check` request latency.
    pub fault_check: OpLatency,
    /// `fault_tolerance` request latency.
    pub fault_tolerance: OpLatency,
    /// `joint_check` request latency.
    pub joint_check: OpLatency,
    /// `joint_tolerance` request latency.
    pub joint_tolerance: OpLatency,
    /// `stats` request latency.
    pub stats: OpLatency,
    /// `metrics` request latency.
    pub metrics: OpLatency,
    /// Request-lifecycle phase latency, pooled across operations.
    pub phases: PhaseLatencyStats,
}

/// Rolling-window summary of one request class (DESIGN.md §15): the
/// trailing-10-second count and latency percentiles from the
/// per-second bucket ring, next to the lifetime numbers in
/// [`LatencyStats`]. Every field is wall-clock-dependent and masked by
/// golden tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpWindow {
    /// Requests of this class in the trailing 10 seconds.
    pub count_10s: u64,
    /// Conservative median latency over the trailing 10 seconds.
    pub p50_10s_ns: u64,
    /// Conservative 99th-percentile latency over the trailing 10 seconds.
    pub p99_10s_ns: u64,
}

/// Per-operation rolling windows, serialized as the `window` block of
/// [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// `check` rolling window.
    pub check: OpWindow,
    /// `tolerance` rolling window.
    pub tolerance: OpWindow,
    /// `sensitivity` rolling window.
    pub sensitivity: OpWindow,
    /// `fault_check` rolling window.
    pub fault_check: OpWindow,
    /// `fault_tolerance` rolling window.
    pub fault_tolerance: OpWindow,
    /// `joint_check` rolling window.
    pub joint_check: OpWindow,
    /// `joint_tolerance` rolling window.
    pub joint_tolerance: OpWindow,
    /// `stats` rolling window.
    pub stats: OpWindow,
    /// `metrics` rolling window.
    pub metrics: OpWindow,
}

/// One row of the `server.connections` top-N table (DESIGN.md §15):
/// traffic and queue pressure attributed to a single connection — the
/// data a fairness scheduler would act on.
///
/// `peer`, `bytes_out`, `queue_blocked_ns` and `queue_peak` are
/// environment- or timing-dependent and masked by golden tests;
/// `requests`, `ops` and `bytes_in` are deterministic replays of the
/// submitted workload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConnectionInfo {
    /// Session-unique connection id (1-based, accept order).
    pub id: u64,
    /// Peer address (`"stdio"` for the stdin front end).
    pub peer: String,
    /// Whether the connection is still open.
    pub open: bool,
    /// Requests this connection submitted (including invalid frames).
    pub requests: u64,
    /// Those requests broken down by operation.
    pub ops: OpCounts,
    /// Request bytes read from the connection (newlines included).
    pub bytes_in: u64,
    /// Response bytes written to the connection (newlines included).
    pub bytes_out: u64,
    /// Cumulative nanoseconds this connection's reader spent blocked on
    /// the bounded queue (backpressure actually applied to this peer).
    pub queue_blocked_ns: u64,
    /// Most requests this connection ever had in the queue at once —
    /// its contribution to `queue_high_water`.
    pub queue_peak: u64,
}

/// The operator metrics surface of a serving front end (DESIGN.md §13),
/// serialized under the `server` key of a `stats` response — alongside,
/// never instead of, the engine's cache/solver counters.
///
/// `uptime_ms`, `qps`, `queue_depth` and `queue_high_water` are
/// wall-clock- or scheduling-dependent, as are the `p50_ns`/`p90_ns`/
/// `p99_ns` fields of the `latency` block; golden tests mask exactly
/// those fields and compare everything else byte-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Milliseconds since the front end started serving.
    pub uptime_ms: u64,
    /// Requests dispatched to a worker over the session's lifetime
    /// (equals [`OpCounts::total`]).
    pub requests_total: u64,
    /// Requests currently being handled by a worker (a `stats` request
    /// counts itself, so a quiet single-worker session reports 1).
    pub requests_in_flight: u64,
    /// `requests_total` per second of uptime (lifetime average).
    pub qps: f64,
    /// Requests per second over the trailing 10 seconds.
    pub qps_10s: f64,
    /// Requests per second over the trailing 60 seconds.
    pub qps_60s: f64,
    /// Requests queued but not yet claimed by a worker, sampled when the
    /// `stats` request was handled.
    pub queue_depth: u64,
    /// Deepest the bounded request queue ever got.
    pub queue_high_water: u64,
    /// The queue bound: readers block (and TCP flow control pushes back
    /// on clients) once this many requests are waiting.
    pub queue_capacity: u64,
    /// Connections currently open (the stdin front end reports 1).
    pub connections_open: u64,
    /// Connections accepted over the session's lifetime.
    pub connections_total: u64,
    /// Per-operation dispatch counts.
    pub ops: OpCounts,
    /// Per-operation request latency summaries.
    pub latency: LatencyStats,
    /// Per-operation rolling 10-second windows.
    pub window: WindowStats,
    /// Top connections by request count (at most
    /// [`CONNECTION_TABLE_ROWS`] rows, busiest first, ties by id).
    pub connections: Vec<ConnectionInfo>,
}

/// Row cap of the `server.connections` table: enough to see every
/// client of a test or bench run, bounded so a server hammered by churn
/// cannot grow its `stats` response without limit.
pub const CONNECTION_TABLE_ROWS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identities() {
        let s = EngineStats {
            exact_hits: 2,
            subsumption_hits: 3,
            misses: 5,
            evictions: 1,
        };
        assert_eq!(s.lookups(), 10);
        assert_eq!(s.hit_rate(), Some(0.5));
        assert_eq!(EngineStats::default().hit_rate(), None);
        let mut m = s;
        m.merge(&s);
        assert_eq!(m.lookups(), 20);
        assert_eq!(m.evictions, 2);
    }

    #[test]
    fn serializes_flat() {
        let s = EngineStats::default();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"subsumption_hits\":0"), "{json}");
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn op_counts_total_sums_every_counter() {
        let ops = OpCounts {
            check: 1,
            tolerance: 2,
            sensitivity: 3,
            fault_check: 4,
            fault_tolerance: 5,
            joint_check: 6,
            joint_tolerance: 7,
            stats: 8,
            metrics: 11,
            shutdown: 9,
            invalid: 10,
        };
        assert_eq!(ops.total(), 66);
        assert_eq!(OpCounts::default().total(), 0);
    }

    #[test]
    fn server_stats_round_trip() {
        let s = ServerStats {
            uptime_ms: 1500,
            requests_total: 12,
            requests_in_flight: 1,
            qps: 8.0,
            qps_10s: 1.5,
            qps_60s: 0.25,
            queue_depth: 0,
            queue_high_water: 3,
            queue_capacity: 1024,
            connections_open: 2,
            connections_total: 5,
            ops: OpCounts {
                check: 11,
                stats: 1,
                ..OpCounts::default()
            },
            latency: LatencyStats {
                check: OpLatency {
                    count: 11,
                    p50_ns: 4095,
                    p90_ns: 8191,
                    p99_ns: 8191,
                },
                phases: PhaseLatencyStats {
                    queue: OpLatency {
                        count: 12,
                        p50_ns: 1023,
                        p90_ns: 2047,
                        p99_ns: 2047,
                    },
                    ..PhaseLatencyStats::default()
                },
                ..LatencyStats::default()
            },
            window: WindowStats {
                check: OpWindow {
                    count_10s: 4,
                    p50_10s_ns: 4095,
                    p99_10s_ns: 8191,
                },
                ..WindowStats::default()
            },
            connections: vec![ConnectionInfo {
                id: 1,
                peer: "127.0.0.1:55110".to_string(),
                open: true,
                requests: 12,
                ops: OpCounts {
                    check: 11,
                    stats: 1,
                    ..OpCounts::default()
                },
                bytes_in: 640,
                bytes_out: 981,
                queue_blocked_ns: 1200,
                queue_peak: 3,
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"queue_high_water\":3"), "{json}");
        assert!(json.contains("\"qps_10s\":1.5"), "{json}");
        assert!(json.contains("\"ops\":{\"check\":11"), "{json}");
        assert!(
            json.contains("\"latency\":{\"check\":{\"count\":11,\"p50_ns\":4095"),
            "{json}"
        );
        assert!(
            json.contains("\"phases\":{\"queue\":{\"count\":12,\"p50_ns\":1023"),
            "{json}"
        );
        assert!(
            json.contains("\"window\":{\"check\":{\"count_10s\":4,\"p50_10s_ns\":4095"),
            "{json}"
        );
        assert!(
            json.contains("\"connections\":[{\"id\":1,\"peer\":\"127.0.0.1:55110\",\"open\":true"),
            "{json}"
        );
        let back: ServerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
