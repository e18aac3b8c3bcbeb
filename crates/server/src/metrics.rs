//! The operator metrics surface (DESIGN.md §13, §15).
//!
//! One [`ServerMetrics`] per serving session, shared by every reader and
//! worker thread. Requests are counted at *dispatch* time — when a
//! worker claims the job, not when the reader enqueues it — so with one
//! worker the counts a `stats` request observes are deterministic:
//! every request dispatched before it, plus itself. That determinism is
//! what lets the golden tests compare the `server` block (minus the
//! wall-clock/scheduling gauges) byte-exact.
//!
//! PR 9 widens the surface along three axes (DESIGN.md §15):
//!
//! * **Phases** — pooled queue/service/sequence/write histograms fed by
//!   the session's lifecycle stamps, surfaced as `latency.phases` and
//!   the `fannet_phase_ns{phase=…}` family.
//! * **Windows** — per-second [`RateWindow`] rings behind `qps_10s`/
//!   `qps_60s` and the per-op `window` block.
//! * **Connections** — one [`ConnStats`] per registered connection,
//!   aggregated into the `server.connections` top-N table; closed
//!   connections are retained (bounded) so a short-lived client still
//!   shows up in a post-mortem `stats` call.
//!
//! A bounded ring of [`RequestTimeline`]s (the last
//! [`RECENT_TIMELINES`] completed requests) backs the `metrics` op's
//! `recent` field.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fannet_engine::protocol::{QueryTrace, Request, RequestTimeline};
use fannet_engine::{
    ConnectionInfo, LatencyStats, OpCounts, OpLatency, OpWindow, PhaseLatencyStats, QueryKind,
    ServerStats, WindowStats, CONNECTION_TABLE_ROWS,
};
use fannet_obs::{Histogram, RateWindow};

/// Ops whose request latency gets its own histogram, in the order of
/// the [`LatencyStats`] fields. `shutdown` and `invalid` are excluded:
/// neither runs the engine, so there is nothing to attribute.
const OP_NAMES: [&str; 9] = [
    "check",
    "tolerance",
    "sensitivity",
    "fault_check",
    "fault_tolerance",
    "joint_check",
    "joint_tolerance",
    "stats",
    "metrics",
];

/// Screening-tier labels, in [`fannet_search::SearchStats`] order.
const TIER_NAMES: [&str; 3] = ["interval", "zonotope", "exact"];

/// Request-lifecycle phase labels, in [`PhaseLatencyStats`] field order.
const PHASE_NAMES: [&str; 4] = ["queue", "service", "sequence", "write"];

/// Completed request timelines kept for the `metrics` op's `recent`
/// field — enough to reconstruct a recent burst, bounded so the ring
/// never grows with load.
pub const RECENT_TIMELINES: usize = 32;

/// Closed connections retained in the registry beyond the open ones.
/// Keeps post-mortem visibility for recent clients while bounding a
/// churn-heavy server's memory.
const RETAINED_CLOSED: usize = 32;

/// Per-op request latency plus per-screening-tier solver time
/// (DESIGN.md §14) plus pooled lifecycle-phase time (DESIGN.md §15),
/// behind one lock like the op counts.
#[derive(Debug, Default)]
struct Latencies {
    ops: [Histogram; OP_NAMES.len()],
    tiers: [Histogram; TIER_NAMES.len()],
    phases: [Histogram; PHASE_NAMES.len()],
}

/// The per-second bucket rings: one for overall request rate, one per
/// measured op for windowed percentiles. Boxed where it is stored —
/// ten rings of 64 histogram buckets are a few hundred kilobytes.
#[derive(Debug, Default)]
struct Windows {
    all: RateWindow,
    ops: [RateWindow; OP_NAMES.len()],
}

/// Traffic and queue-pressure counters of one connection — the rows of
/// the `server.connections` table (DESIGN.md §15). Created by
/// [`ServerMetrics::register_connection`]; the session's reader, worker
/// and sequencer threads update it lock-free except for the op counts.
#[derive(Debug)]
pub struct ConnStats {
    /// Session-unique id, 1-based in accept order (the stdio front
    /// end's single connection is id 1).
    pub id: u64,
    /// Peer address (`"stdio"` for the stdin front end).
    pub peer: String,
    /// When the connection was accepted (lifecycle-log durations).
    pub opened: Instant,
    open: AtomicBool,
    ops: Mutex<OpCounts>,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    queue_blocked_ns: AtomicU64,
    in_queue: AtomicU64,
    queue_peak: AtomicU64,
}

impl ConnStats {
    fn new(id: u64, peer: &str) -> Self {
        ConnStats {
            id,
            peer: peer.to_string(),
            opened: Instant::now(),
            open: AtomicBool::new(true),
            ops: Mutex::new(OpCounts::default()),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            queue_blocked_ns: AtomicU64::new(0),
            in_queue: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
        }
    }

    /// Counts a dispatched request of this connection by op.
    pub fn count_request(&self, request: &Request) {
        bump_op(
            &mut self.ops.lock().expect("conn stats lock poisoned"),
            request,
        );
    }

    /// Counts a frame of this connection that never parsed.
    pub fn count_invalid(&self) {
        self.ops.lock().expect("conn stats lock poisoned").invalid += 1;
    }

    /// Adds `n` request bytes read from this connection.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` response bytes written to this connection.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds nanoseconds the reader spent inside a queue push — time
    /// backpressure actually held this connection's reader.
    pub fn add_queue_blocked_ns(&self, ns: u64) {
        self.queue_blocked_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one more of this connection's requests entering the
    /// queue, tracking its personal high-water mark.
    pub fn enter_queue(&self) {
        let depth = self.in_queue.fetch_add(1, Ordering::SeqCst) + 1;
        self.queue_peak.fetch_max(depth, Ordering::SeqCst);
    }

    /// Records one of this connection's requests leaving the queue
    /// (claimed by a worker, or withdrawn on a closed queue).
    pub fn leave_queue(&self) {
        self.in_queue.fetch_sub(1, Ordering::SeqCst);
    }

    /// Total requests this connection submitted so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.ops.lock().expect("conn stats lock poisoned").total()
    }

    /// Response bytes written so far (lifecycle close log).
    #[must_use]
    pub fn bytes_out_total(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Request bytes read so far (lifecycle close log).
    #[must_use]
    pub fn bytes_in_total(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Cumulative queue-blocked nanoseconds so far.
    #[must_use]
    pub fn queue_blocked_total_ns(&self) -> u64 {
        self.queue_blocked_ns.load(Ordering::Relaxed)
    }

    fn row(&self) -> ConnectionInfo {
        ConnectionInfo {
            id: self.id,
            peer: self.peer.clone(),
            open: self.open.load(Ordering::SeqCst),
            requests: self.requests(),
            ops: *self.ops.lock().expect("conn stats lock poisoned"),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            queue_blocked_ns: self.queue_blocked_ns.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::SeqCst),
        }
    }
}

/// Bumps the matching per-op counter for `request`.
fn bump_op(ops: &mut OpCounts, request: &Request) {
    match request {
        Request::Query { query, .. } => match query.kind {
            QueryKind::Check { .. } => ops.check += 1,
            QueryKind::Tolerance { .. } => ops.tolerance += 1,
            QueryKind::Sensitivity { .. } => ops.sensitivity += 1,
            QueryKind::FaultCheck { .. } => ops.fault_check += 1,
            QueryKind::FaultTolerance { .. } => ops.fault_tolerance += 1,
            QueryKind::JointCheck { .. } => ops.joint_check += 1,
            QueryKind::JointTolerance { .. } => ops.joint_tolerance += 1,
        },
        Request::Stats { .. } => ops.stats += 1,
        Request::Metrics { .. } => ops.metrics += 1,
        Request::Shutdown { .. } => ops.shutdown += 1,
    }
}

/// Shared counters of one serving session.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    in_flight: AtomicU64,
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    next_conn_id: AtomicU64,
    /// One lock for the whole per-op block so a snapshot reads a
    /// consistent set (individual atomics could tear across ops).
    ops: Mutex<OpCounts>,
    latency: Mutex<Latencies>,
    windows: Mutex<Box<Windows>>,
    connections: Mutex<Vec<Arc<ConnStats>>>,
    recent: Mutex<VecDeque<RequestTimeline>>,
}

impl ServerMetrics {
    /// Fresh counters; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            in_flight: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            ops: Mutex::new(OpCounts::default()),
            latency: Mutex::new(Latencies::default()),
            windows: Mutex::new(Box::default()),
            connections: Mutex::new(Vec::new()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_TIMELINES)),
        }
    }

    /// Seconds elapsed on this session's monotonic clock — the index
    /// every [`RateWindow`] of the session is driven by.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records a worker claiming `request`; pair with [`Self::end`].
    pub fn begin(&self, request: &Request) {
        bump_op(
            &mut self.ops.lock().expect("metrics lock poisoned"),
            request,
        );
        self.windows
            .lock()
            .expect("metrics lock poisoned")
            .all
            .record(self.now_s(), 0);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Records a worker claiming a line that never parsed into a
    /// request (malformed JSON, oversized or non-UTF-8 frame); pair
    /// with [`Self::end`].
    pub fn begin_invalid(&self) {
        self.ops.lock().expect("metrics lock poisoned").invalid += 1;
        self.windows
            .lock()
            .expect("metrics lock poisoned")
            .all
            .record(self.now_s(), 0);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Records the matching request leaving its worker.
    pub fn end(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records a dispatched request's wall time into its op's latency
    /// histogram and rolling window. Unlisted ops (`shutdown`) are
    /// ignored.
    pub fn record_latency(&self, op: &str, wall_ns: u64) {
        if let Some(i) = OP_NAMES.iter().position(|&name| name == op) {
            self.latency.lock().expect("metrics lock poisoned").ops[i].record_ns(wall_ns);
            self.windows.lock().expect("metrics lock poisoned").ops[i]
                .record(self.now_s(), wall_ns);
        }
    }

    /// Records the pre-write lifecycle phases of one request: its queue
    /// wait, service time, and sequencer park. Called by the sequencer
    /// *before* the response bytes leave the server, so any response a
    /// client can observe is already counted — the invariant the
    /// concurrency tests assert exactly.
    pub fn record_phases(&self, queue_ns: u64, service_ns: u64, sequence_ns: u64) {
        let mut latency = self.latency.lock().expect("metrics lock poisoned");
        latency.phases[0].record_ns(queue_ns);
        latency.phases[1].record_ns(service_ns);
        latency.phases[2].record_ns(sequence_ns);
    }

    /// Records the write phase of one request, after the write returned.
    pub fn record_write_phase(&self, write_ns: u64) {
        self.latency.lock().expect("metrics lock poisoned").phases[3].record_ns(write_ns);
    }

    /// Pushes one completed request's timeline into the bounded ring
    /// behind the `metrics` op's `recent` field.
    pub fn record_timeline(&self, timeline: RequestTimeline) {
        let mut recent = self.recent.lock().expect("metrics lock poisoned");
        if recent.len() == RECENT_TIMELINES {
            recent.pop_front();
        }
        recent.push_back(timeline);
    }

    /// The last completed request timelines, oldest first.
    #[must_use]
    pub fn recent_timelines(&self) -> Vec<RequestTimeline> {
        self.recent
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Records a solver-backed query's per-tier time. Tiers the cascade
    /// never entered record `0` ns, so each tier histogram keeps one
    /// observation per measured query and the percentiles read as
    /// "nanoseconds this tier costs a typical query".
    pub fn record_tiers(&self, trace: &QueryTrace) {
        let mut latency = self.latency.lock().expect("metrics lock poisoned");
        for (hist, ns) in latency.tiers.iter_mut().zip([
            trace.stats.interval_ns,
            trace.stats.zonotope_ns,
            trace.stats.exact_ns,
        ]) {
            hist.record_ns(ns);
        }
    }

    /// Renders the session's latency histograms as Prometheus text:
    /// the `fannet_request_ns` family keyed by op, `fannet_tier_ns`
    /// keyed by screening tier, `fannet_phase_ns` keyed by lifecycle
    /// phase — each with derived percentile gauges — plus the
    /// `fannet_qps_10s`/`fannet_qps_60s` windowed-rate gauges.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let (ops, tiers, phases) = {
            let latency = self.latency.lock().expect("metrics lock poisoned");
            let label = |key: &str, names: &[&str], hists: &[Histogram]| {
                names
                    .iter()
                    .zip(hists.iter())
                    .map(|(name, hist)| (format!("{key}=\"{name}\""), *hist))
                    .collect::<Vec<(String, Histogram)>>()
            };
            (
                label("op", &OP_NAMES, &latency.ops),
                label("tier", &TIER_NAMES, &latency.tiers),
                label("phase", &PHASE_NAMES, &latency.phases),
            )
        };
        let mut out = fannet_obs::render_prometheus("fannet_request_ns", &ops);
        out.push_str(&fannet_obs::render_prometheus("fannet_tier_ns", &tiers));
        out.push_str(&fannet_obs::render_prometheus("fannet_phase_ns", &phases));
        let now_s = self.now_s();
        let windows = self.windows.lock().expect("metrics lock poisoned");
        for (name, window_s) in [("fannet_qps_10s", 10u64), ("fannet_qps_60s", 60u64)] {
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                windows.all.rate_last(now_s, window_s)
            ));
        }
        out
    }

    /// Registers an accepted connection: assigns its session-unique id
    /// and adds it to the registry behind the `server.connections`
    /// table.
    #[must_use]
    pub fn register_connection(&self, peer: &str) -> Arc<ConnStats> {
        let id = self.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let stats = Arc::new(ConnStats::new(id, peer));
        self.connections_open.fetch_add(1, Ordering::SeqCst);
        self.connections_total.fetch_add(1, Ordering::SeqCst);
        self.connections
            .lock()
            .expect("metrics lock poisoned")
            .push(Arc::clone(&stats));
        stats
    }

    /// Records a registered connection ending (EOF, error, or drain);
    /// returns whether this call actually closed it (idempotent per
    /// connection, so lifecycle logging fires once). Closed connections
    /// stay in the registry for post-mortem `stats` calls, bounded to
    /// `RETAINED_CLOSED` (quietest evicted first).
    pub fn close_connection(&self, stats: &ConnStats) -> bool {
        if !stats.open.swap(false, Ordering::SeqCst) {
            return false;
        }
        self.connections_open.fetch_sub(1, Ordering::SeqCst);
        let mut connections = self.connections.lock().expect("metrics lock poisoned");
        let closed = |c: &Arc<ConnStats>| !c.open.load(Ordering::SeqCst);
        while connections.iter().filter(|c| closed(c)).count() > RETAINED_CLOSED {
            let Some(evict) = connections
                .iter()
                .enumerate()
                .filter(|(_, c)| closed(c))
                .min_by_key(|(_, c)| (c.requests(), c.id))
                .map(|(i, _)| i)
            else {
                break;
            };
            connections.remove(evict);
        }
        true
    }

    /// Assembles the wire block for a `stats` response; the queue
    /// gauges come from the caller because the queue lives next to the
    /// metrics in the session, not inside them.
    #[must_use]
    pub fn snapshot(
        &self,
        queue_depth: u64,
        queue_high_water: u64,
        queue_capacity: u64,
    ) -> ServerStats {
        let ops = *self.ops.lock().expect("metrics lock poisoned");
        let summarize = |hist: &Histogram| {
            let s = hist.summary();
            OpLatency {
                count: s.count,
                p50_ns: s.p50_ns,
                p90_ns: s.p90_ns,
                p99_ns: s.p99_ns,
            }
        };
        let latency = {
            let latency = self.latency.lock().expect("metrics lock poisoned");
            let [check, tolerance, sensitivity, fault_check, fault_tolerance, joint_check, joint_tolerance, stats, metrics] =
                &latency.ops;
            let [queue, service, sequence, write] = &latency.phases;
            LatencyStats {
                check: summarize(check),
                tolerance: summarize(tolerance),
                sensitivity: summarize(sensitivity),
                fault_check: summarize(fault_check),
                fault_tolerance: summarize(fault_tolerance),
                joint_check: summarize(joint_check),
                joint_tolerance: summarize(joint_tolerance),
                stats: summarize(stats),
                metrics: summarize(metrics),
                phases: PhaseLatencyStats {
                    queue: summarize(queue),
                    service: summarize(service),
                    sequence: summarize(sequence),
                    write: summarize(write),
                },
            }
        };
        let now_s = self.now_s();
        let (qps_10s, qps_60s, window) = {
            let windows = self.windows.lock().expect("metrics lock poisoned");
            let op_window = |i: usize| {
                let merged = windows.ops[i].merged_last(now_s, 10);
                let s = merged.summary();
                OpWindow {
                    count_10s: s.count,
                    p50_10s_ns: s.p50_ns,
                    p99_10s_ns: s.p99_ns,
                }
            };
            (
                windows.all.rate_last(now_s, 10),
                windows.all.rate_last(now_s, 60),
                WindowStats {
                    check: op_window(0),
                    tolerance: op_window(1),
                    sensitivity: op_window(2),
                    fault_check: op_window(3),
                    fault_tolerance: op_window(4),
                    joint_check: op_window(5),
                    joint_tolerance: op_window(6),
                    stats: op_window(7),
                    metrics: op_window(8),
                },
            )
        };
        let connections = {
            let registry = self.connections.lock().expect("metrics lock poisoned");
            let mut rows: Vec<ConnectionInfo> = registry.iter().map(|c| c.row()).collect();
            rows.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.id.cmp(&b.id)));
            rows.truncate(CONNECTION_TABLE_ROWS);
            rows
        };
        let uptime = self.started.elapsed();
        let uptime_ms = u64::try_from(uptime.as_millis()).unwrap_or(u64::MAX);
        let requests_total = ops.total();
        let secs = uptime.as_secs_f64();
        let qps = if secs > 0.0 {
            requests_total as f64 / secs
        } else {
            0.0
        };
        ServerStats {
            uptime_ms,
            requests_total,
            requests_in_flight: self.in_flight.load(Ordering::SeqCst),
            qps,
            qps_10s,
            qps_60s,
            queue_depth,
            queue_high_water,
            queue_capacity,
            connections_open: self.connections_open.load(Ordering::SeqCst),
            connections_total: self.connections_total.load(Ordering::SeqCst),
            ops,
            latency,
            window,
            connections,
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_engine::protocol::parse_request;

    #[test]
    fn dispatch_counts_by_op_and_in_flight_pairs() {
        let m = ServerMetrics::new();
        let check = parse_request(r#"{"op":"check","input":[1,2],"label":0,"delta":1}"#).unwrap();
        let stats = parse_request(r#"{"op":"stats"}"#).unwrap();
        m.begin(&check);
        m.begin(&stats);
        m.begin_invalid();
        let snap = m.snapshot(2, 3, 64);
        assert_eq!(snap.ops.check, 1);
        assert_eq!(snap.ops.stats, 1);
        assert_eq!(snap.ops.invalid, 1);
        assert_eq!(snap.requests_total, 3);
        assert_eq!(snap.requests_in_flight, 3);
        assert_eq!(
            (snap.queue_depth, snap.queue_high_water, snap.queue_capacity),
            (2, 3, 64)
        );
        m.end();
        m.end();
        m.end();
        assert_eq!(m.snapshot(0, 3, 64).requests_in_flight, 0);
    }

    #[test]
    fn connection_registry_tracks_gauges_rows_and_close_idempotence() {
        let m = ServerMetrics::new();
        let a = m.register_connection("stdio");
        let b = m.register_connection("127.0.0.1:9");
        assert_eq!((a.id, b.id), (1, 2));
        let check = parse_request(r#"{"op":"check","input":[1,2],"label":0,"delta":1}"#).unwrap();
        b.count_request(&check);
        b.count_request(&check);
        a.count_request(&check);
        a.count_invalid();
        a.add_bytes_in(40);
        a.add_bytes_out(55);
        a.add_queue_blocked_ns(120);
        a.enter_queue();
        a.enter_queue();
        a.leave_queue();
        assert!(m.close_connection(&b));
        assert!(!m.close_connection(&b)); // idempotent
        let snap = m.snapshot(0, 0, 1);
        assert_eq!(snap.connections_open, 1);
        assert_eq!(snap.connections_total, 2);
        // Both rows present, busiest first, ties broken by id.
        assert_eq!(snap.connections.len(), 2);
        assert_eq!(snap.connections[0].id, 1);
        assert_eq!(snap.connections[0].requests, 2);
        assert_eq!(snap.connections[0].ops.invalid, 1);
        assert_eq!(snap.connections[0].bytes_in, 40);
        assert_eq!(snap.connections[0].bytes_out, 55);
        assert_eq!(snap.connections[0].queue_blocked_ns, 120);
        assert_eq!(snap.connections[0].queue_peak, 2);
        assert!(snap.connections[0].open);
        assert_eq!(snap.connections[1].id, 2);
        assert!(!snap.connections[1].open);
    }

    #[test]
    fn closed_connections_are_evicted_quietest_first_beyond_the_cap() {
        let m = ServerMetrics::new();
        let check = parse_request(r#"{"op":"check","input":[1,2],"label":0,"delta":1}"#).unwrap();
        let busy = m.register_connection("busy");
        for _ in 0..10 {
            busy.count_request(&check);
        }
        m.close_connection(&busy);
        let quiet: Vec<_> = (0..RETAINED_CLOSED)
            .map(|_| m.register_connection("quiet"))
            .collect();
        for c in &quiet {
            m.close_connection(c);
        }
        // One over the cap: the quietest closed connection goes, the
        // busy one stays visible for post-mortems.
        let snap = m.snapshot(0, 0, 1);
        assert_eq!(snap.connections_total as usize, 1 + RETAINED_CLOSED);
        assert_eq!(snap.connections[0].id, busy.id);
        assert_eq!(snap.connections[0].requests, 10);
    }

    #[test]
    fn phases_and_timelines_accumulate() {
        let m = ServerMetrics::new();
        m.record_phases(100, 2000, 30);
        m.record_phases(200, 3000, 40);
        m.record_write_phase(7);
        let snap = m.snapshot(0, 0, 1);
        let phases = snap.latency.phases;
        assert_eq!(phases.queue.count, 2);
        assert_eq!(phases.service.count, 2);
        assert_eq!(phases.sequence.count, 2);
        assert_eq!(phases.write.count, 1);
        assert!(phases.service.p99_ns >= 3000);
        let timeline = RequestTimeline {
            conn: 1,
            id: Some(5),
            op: "check",
            queue_ns: 100,
            service_ns: 2000,
            sequence_ns: 30,
            write_ns: 7,
            wall_ns: 2300,
        };
        for i in 0..(RECENT_TIMELINES as u64 + 4) {
            m.record_timeline(RequestTimeline {
                id: Some(i),
                ..timeline
            });
        }
        let recent = m.recent_timelines();
        assert_eq!(recent.len(), RECENT_TIMELINES);
        // Oldest entries fell off the front of the ring.
        assert_eq!(recent[0].id, Some(4));
        assert_eq!(recent.last().unwrap().id, Some(RECENT_TIMELINES as u64 + 3));
    }

    #[test]
    fn windowed_rates_follow_recent_traffic() {
        let m = ServerMetrics::new();
        let check = parse_request(r#"{"op":"check","input":[1,2],"label":0,"delta":1}"#).unwrap();
        for _ in 0..20 {
            m.begin(&check);
            m.record_latency("check", 1_000);
            m.end();
        }
        let snap = m.snapshot(0, 0, 1);
        // All 20 landed within the last 10 seconds of a fresh session.
        assert!((snap.qps_10s - 2.0).abs() < 1e-9, "{}", snap.qps_10s);
        assert!(
            (snap.qps_60s - 20.0 / 60.0).abs() < 1e-9,
            "{}",
            snap.qps_60s
        );
        assert_eq!(snap.window.check.count_10s, 20);
        assert!(snap.window.check.p99_10s_ns >= 1_000);
        assert_eq!(snap.window.stats.count_10s, 0);
    }

    #[test]
    fn prometheus_exposition_includes_phases_and_rate_gauges() {
        let m = ServerMetrics::new();
        let check = parse_request(r#"{"op":"check","input":[1,2],"label":0,"delta":1}"#).unwrap();
        m.begin(&check);
        m.record_latency("check", 1_000);
        m.record_phases(10, 1_000, 5);
        m.record_write_phase(3);
        m.end();
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE fannet_phase_ns histogram"), "{text}");
        for phase in PHASE_NAMES {
            assert!(
                text.contains(&format!("fannet_phase_ns_count{{phase=\"{phase}\"}} 1")),
                "{phase}: {text}"
            );
        }
        assert!(text.contains("# TYPE fannet_qps_10s gauge"), "{text}");
        assert!(text.contains("\nfannet_qps_10s 0.1"), "{text}");
        assert!(text.contains("# TYPE fannet_qps_60s gauge"), "{text}");
    }
}
