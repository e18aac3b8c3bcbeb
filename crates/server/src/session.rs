//! The connection-handler core shared by `fannet serve` and
//! `fannet listen` (DESIGN.md §13).
//!
//! A [`Session`] owns one resident [`Engine`], a worker pool draining a
//! bounded [`BoundedQueue`] of framed request lines, and the shared
//! [`ServerMetrics`]. Front ends differ only in where connections come
//! from: the stdio front end ([`serve_stdio`]) opens exactly one
//! (stdin/stdout), the TCP front end ([`crate::tcp::serve_tcp`]) opens
//! one per accepted socket.
//!
//! ## The ordering guarantee
//!
//! Each connection's reader assigns consecutive sequence numbers to its
//! frames. Workers answer jobs in whatever order the pool schedules
//! them, but a completed response is handed to the *connection
//! sequencer* (`Connection::complete`), which parks out-of-order
//! completions in a `BTreeMap` and writes a response only when every
//! earlier one of the same connection has been written. Every client
//! therefore sees responses in request order, regardless of worker
//! count — the property the historical sequential serve loop provided
//! for free, kept under concurrency.
//!
//! ## Containment
//!
//! One malformed, oversized or panicking request becomes one `error`
//! response ([`fannet_engine::protocol::handle`] already contains solver
//! panics); one connection whose client vanished mid-write — or, over
//! TCP, stopped reading for [`crate::tcp::WRITE_STALL`] — has its
//! writer dropped and its remaining responses discarded, while every
//! other connection keeps streaming.
//!
//! ## Drain
//!
//! A `shutdown` request (or a signal, for the TCP front end) sets the
//! session-wide shutdown flag. Readers stop submitting, in-flight
//! requests finish and their responses are delivered, then the queue
//! closes and the workers exit ([`Session::drain`]). Lines a client
//! pipelined after the acknowledged `shutdown` may be answered or
//! dropped, depending on how far its reader got.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fannet_engine::protocol::{self, RequestTimeline, Response};
use fannet_engine::Engine;
use fannet_obs::TraceWriter;

use crate::frame::{Frame, FramedLineReader, DEFAULT_MAX_LINE_BYTES};
use crate::metrics::{ConnStats, ServerMetrics};
use crate::queue::BoundedQueue;

/// Saturating nanoseconds from `from` to `to` (zero if time appears to
/// run backwards across threads).
fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Default bound of the request queue (`--queue-capacity`).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Tuning knobs of a serving session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Requests the queue holds before readers block (backpressure).
    pub queue_capacity: usize,
    /// Per-line byte cap of the framing layer.
    pub max_line_bytes: usize,
    /// Log any request slower than this many milliseconds, with its
    /// full cost trace, through the structured logger
    /// (`--slow-query-ms`, DESIGN.md §14). `None` disables the log.
    pub slow_query_ms: Option<u64>,
    /// Stream every request's lifecycle phases (and, via the global
    /// hook, the engine's pipeline spans) to this Chrome trace-event
    /// writer (`--trace-out`, DESIGN.md §15). `None` disables export.
    pub trace_out: Option<Arc<TraceWriter>>,
}

impl SessionConfig {
    /// `workers` threads with the default queue bound and line cap.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        SessionConfig {
            workers,
            ..SessionConfig::default()
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            slow_query_ms: None,
            trace_out: None,
        }
    }
}

/// Everything the reader, worker and front-end threads share.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) metrics: ServerMetrics,
    /// Set by a `shutdown` request or an external signal; readers stop
    /// submitting once they observe it.
    pub(crate) shutdown: AtomicBool,
    pub(crate) progress: Mutex<Progress>,
    /// Signalled on every completion (and on a withdrawn submission) so
    /// [`Session::drain`] can wait for `completed == submitted`.
    pub(crate) idle: Condvar,
    pub(crate) max_line_bytes: usize,
    pub(crate) slow_query_ms: Option<u64>,
    /// The Chrome trace-event writer request phases stream to
    /// (`--trace-out`); `None` when export is off.
    pub(crate) trace: Option<Arc<TraceWriter>>,
}

/// Submission/completion accounting for the drain barrier.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
}

/// One framed line waiting for (or claimed by) a worker.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) conn: Arc<Connection>,
    pub(crate) seq: u64,
    pub(crate) frame: Frame,
    /// When the reader enqueued the frame — the zero point of the
    /// request's lifecycle phases (DESIGN.md §15).
    pub(crate) enqueued: Instant,
}

/// Lifecycle stamps a completed response carries into the sequencer:
/// everything needed to finish the phase breakdown once the write
/// actually happens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestMeta {
    op: &'static str,
    id: Option<u64>,
    enqueued: Instant,
    queue_ns: u64,
    service_ns: u64,
    /// When the worker handed the response to the sequencer; park →
    /// write-start is the `sequence` phase.
    parked: Instant,
}

/// The write side of one client connection, with its response sequencer.
#[derive(Debug)]
pub struct Connection {
    next_seq: AtomicU64,
    /// This connection's row of the accounting table; readers, workers
    /// and the sequencer all stamp it.
    pub(crate) stats: Arc<ConnStats>,
    out: Mutex<OutState>,
}

/// One parked completion: the rendered line plus its lifecycle stamps.
#[derive(Debug)]
struct Pending {
    /// The response line, terminating `\n` included.
    line: String,
    meta: RequestMeta,
}

struct OutState {
    /// Sequence number the next written response must carry.
    next: u64,
    /// Completions that arrived ahead of an earlier, still-running job.
    pending: BTreeMap<u64, Pending>,
    /// `None` once a write failed — the client is gone; later responses
    /// are sequenced (for the drain accounting) but discarded.
    writer: Option<Box<dyn Write + Send>>,
}

// `Box<dyn Write + Send>` has no Debug; summarize the sequencer state.
impl std::fmt::Debug for OutState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutState")
            .field("next", &self.next)
            .field("parked", &self.pending.len())
            .field("alive", &self.writer.is_some())
            .finish()
    }
}

impl Connection {
    fn new(stats: Arc<ConnStats>, writer: Box<dyn Write + Send>) -> Self {
        Connection {
            next_seq: AtomicU64::new(0),
            stats,
            out: Mutex::new(OutState {
                next: 0,
                pending: BTreeMap::new(),
                writer: Some(writer),
            }),
        }
    }

    /// Hands a completed response line to the sequencer: it is written
    /// immediately if every earlier response went out, parked otherwise.
    ///
    /// This is also where each written request's phase breakdown is
    /// finalized. The queue/service/sequence phases are recorded
    /// *before* the physical write — so by the time a client can read a
    /// response, its phases are in the histograms (the exact-count
    /// invariant the concurrency tests assert) — while the write phase,
    /// the timeline ring entry and the trace-event rows land right
    /// after the write returns.
    fn complete(&self, shared: &Shared, seq: u64, line: String, meta: RequestMeta) {
        let mut out = self.out.lock().expect("connection lock poisoned");
        out.pending.insert(seq, Pending { line, meta });
        loop {
            let next = out.next;
            let Some(Pending { line, meta }) = out.pending.remove(&next) else {
                break;
            };
            out.next += 1;
            let write_start = Instant::now();
            let sequence_ns = ns_between(meta.parked, write_start);
            shared
                .metrics
                .record_phases(meta.queue_ns, meta.service_ns, sequence_ns);
            let mut wrote = false;
            if let Some(writer) = out.writer.as_mut() {
                // One buffer per response (the line ends in its `\n`):
                // a split write would leave the newline to Nagle.
                let result = writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.flush());
                if result.is_err() {
                    // Dead client: contain it, keep the session alive.
                    out.writer = None;
                } else {
                    wrote = true;
                }
            }
            let write_ns = ns_between(write_start, Instant::now());
            let wall_ns = ns_between(meta.enqueued, Instant::now());
            shared.metrics.record_write_phase(write_ns);
            if wrote {
                self.stats.add_bytes_out(line.len() as u64);
            }
            shared.metrics.record_timeline(RequestTimeline {
                conn: self.stats.id,
                id: meta.id,
                op: meta.op,
                queue_ns: meta.queue_ns,
                service_ns: meta.service_ns,
                sequence_ns,
                write_ns,
                wall_ns,
            });
            if let Some(trace) = &shared.trace {
                self.emit_trace_events(trace, &meta, sequence_ns, write_ns);
            }
        }
    }

    /// Emits one complete event per lifecycle phase onto this
    /// connection's lane (`pid` 1, `tid` = connection id), so the four
    /// phases of a request line up end to end in Perfetto.
    fn emit_trace_events(
        &self,
        trace: &TraceWriter,
        meta: &RequestMeta,
        sequence_ns: u64,
        write_ns: u64,
    ) {
        let mut args: Vec<(&str, fannet_obs::FieldValue)> =
            vec![("conn", self.stats.id.into()), ("op", meta.op.into())];
        if let Some(id) = meta.id {
            args.push(("id", id.into()));
        }
        let queue_ts = trace.offset_us(meta.enqueued);
        let queue_us = meta.queue_ns / 1_000;
        let service_us = meta.service_ns / 1_000;
        let park_ts = trace.offset_us(meta.parked);
        let sequence_us = sequence_ns / 1_000;
        let lane = fannet_obs::Lane::request(self.stats.id);
        trace.complete_event("queue", "request", lane, queue_ts, queue_us, &args);
        trace.complete_event(
            "service",
            "request",
            lane,
            queue_ts + queue_us,
            service_us,
            &args,
        );
        trace.complete_event("sequence", "request", lane, park_ts, sequence_us, &args);
        trace.complete_event(
            "write",
            "request",
            lane,
            park_ts + sequence_us,
            write_ns / 1_000,
            &args,
        );
    }
}

/// A running worker pool bound to one resident engine.
#[derive(Debug)]
pub struct Session {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Session {
    /// Spawns `config.workers` worker threads against `engine`.
    #[must_use]
    pub fn new(engine: Arc<Engine>, config: &SessionConfig) -> Self {
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            progress: Mutex::new(Progress::default()),
            idle: Condvar::new(),
            max_line_bytes: config.max_line_bytes,
            slow_query_ms: config.slow_query_ms,
            trace: config.trace_out.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Session { shared, workers }
    }

    /// Registers a new client connection writing responses to `writer`,
    /// identified as `peer` in the accounting table and lifecycle logs
    /// (`"stdio"` for the stdin front end, the socket address for TCP).
    #[must_use]
    pub fn open_connection(&self, peer: &str, writer: Box<dyn Write + Send>) -> Arc<Connection> {
        open_connection(&self.shared, peer, writer)
    }

    /// Records `conn`'s reader ending (EOF, error, or drain). In-flight
    /// requests of the connection still complete and still write.
    pub fn close_connection(&self, conn: &Arc<Connection>) {
        close_connection(&self.shared, conn);
    }

    /// Reads `input` to EOF (or until shutdown), submitting one job per
    /// frame. Blank lines are skipped without consuming a sequence
    /// number, matching the historical serve loop. Runs on the calling
    /// thread; spawn one per connection.
    pub fn run_reader<R: Read>(&self, conn: &Arc<Connection>, input: R) {
        run_reader(&self.shared, conn, input);
    }

    /// Asks the session to stop: readers cease submitting at their next
    /// shutdown-flag poll.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a `shutdown` request or external signal was observed.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for every submitted request to complete (responses
    /// written), then closes the queue and joins the workers.
    ///
    /// Call after the readers stopped submitting — at EOF of the stdio
    /// front end, or after the shutdown flag stopped the TCP readers.
    pub fn drain(self) {
        {
            let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
            while progress.completed < progress.submitted {
                progress = self
                    .shared
                    .idle
                    .wait(progress)
                    .expect("progress lock poisoned");
            }
        }
        self.shared.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Registers a connection against `shared`: one [`ConnStats`] row, one
/// structured accept record (DESIGN.md §15).
pub(crate) fn open_connection(
    shared: &Arc<Shared>,
    peer: &str,
    writer: Box<dyn Write + Send>,
) -> Arc<Connection> {
    let stats = shared.metrics.register_connection(peer);
    fannet_obs::log::info(
        "fannet_server::connection",
        "connection opened",
        &[
            ("conn", stats.id.into()),
            ("peer", stats.peer.as_str().into()),
        ],
    );
    Arc::new(Connection::new(stats, writer))
}

/// Marks `conn` closed (idempotently) and emits the structured close
/// record: how long the connection lived, what it sent and received,
/// and how long backpressure held its reader.
pub(crate) fn close_connection(shared: &Shared, conn: &Connection) {
    let stats = &conn.stats;
    if !shared.metrics.close_connection(stats) {
        return;
    }
    let duration_ms = u64::try_from(stats.opened.elapsed().as_millis()).unwrap_or(u64::MAX);
    fannet_obs::log::info(
        "fannet_server::connection",
        "connection closed",
        &[
            ("conn", stats.id.into()),
            ("peer", stats.peer.as_str().into()),
            ("duration_ms", duration_ms.into()),
            ("requests", stats.requests().into()),
            ("bytes_in", stats.bytes_in_total().into()),
            ("bytes_out", stats.bytes_out_total().into()),
            ("queue_blocked_ns", stats.queue_blocked_total_ns().into()),
        ],
    );
}

/// The body of a TCP per-connection reader thread: read to EOF (or
/// shutdown), then record the connection closed.
pub(crate) fn run_connection_reader<R: Read>(
    shared: &Arc<Shared>,
    conn: &Arc<Connection>,
    input: R,
) {
    run_reader(shared, conn, input);
    close_connection(shared, conn);
}

/// The per-connection read loop: frame, filter blanks, submit.
fn run_reader<R: Read>(shared: &Arc<Shared>, conn: &Arc<Connection>, input: R) {
    let stop = || shared.shutdown.load(Ordering::SeqCst);
    let mut reader = FramedLineReader::new(input, shared.max_line_bytes);
    loop {
        if stop() {
            break;
        }
        let Some(frame) = reader.next_frame(&stop) else {
            break;
        };
        if let Frame::Line(line) = &frame {
            if line.trim().is_empty() {
                continue;
            }
        }
        // Submission is counted before the push so the drain barrier can
        // never observe a completion ahead of its submission.
        let seq = conn.next_seq.fetch_add(1, Ordering::SeqCst);
        shared
            .progress
            .lock()
            .expect("progress lock poisoned")
            .submitted += 1;
        let job = Job {
            conn: Arc::clone(conn),
            seq,
            frame,
            enqueued: Instant::now(),
        };
        conn.stats.enter_queue();
        let push_start = Instant::now();
        if shared.queue.push(job).is_err() {
            // Queue closed mid-push: withdraw the submission.
            conn.stats.leave_queue();
            shared
                .progress
                .lock()
                .expect("progress lock poisoned")
                .submitted -= 1;
            shared.idle.notify_all();
            break;
        }
        // Push time is backpressure actually applied to this peer —
        // near zero when the queue had room, the full block otherwise.
        conn.stats
            .add_queue_blocked_ns(ns_between(push_start, Instant::now()));
    }
}

/// One worker: claim a job, answer it, sequence the response.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        job.conn.stats.leave_queue();
        let dispatched = Instant::now();
        let queue_ns = ns_between(job.enqueued, dispatched);
        let (line, op, id) = process_frame(shared, &job, queue_ns);
        let service_ns = ns_between(dispatched, Instant::now());
        shared.metrics.end();
        let meta = RequestMeta {
            op,
            id,
            enqueued: job.enqueued,
            queue_ns,
            service_ns,
            parked: Instant::now(),
        };
        job.conn.complete(shared, job.seq, line, meta);
        shared
            .progress
            .lock()
            .expect("progress lock poisoned")
            .completed += 1;
        shared.idle.notify_all();
    }
}

/// Answers one frame; this is where requests are counted (dispatch
/// time, session-wide and per-connection), timed into the latency
/// histograms, checked against the slow-query threshold, and where a
/// `stats` response gains its `server` block (a `metrics` response its
/// request/tier/phase families and `recent` timelines). Returns the
/// rendered line with its terminating `\n`, plus the op name and
/// request tag the sequencer stamps into the phase records
/// (`"invalid"` for undecodable frames).
fn process_frame(shared: &Shared, job: &Job, queue_ns: u64) -> (String, &'static str, Option<u64>) {
    let conn_stats = &job.conn.stats;
    let mut op: &'static str = "invalid";
    let mut id: Option<u64> = None;
    let response = match &job.frame {
        Frame::Line(line) => {
            // Bytes are attributed at dispatch, like the op counts, so
            // the accounting a `stats` request observes under a single
            // worker is deterministic.
            conn_stats.add_bytes_in(line.len() as u64 + 1);
            match protocol::parse_request(line) {
                Ok(request) => {
                    shared.metrics.begin(&request);
                    conn_stats.count_request(&request);
                    // Timing is always forced so the histograms and the
                    // slow-query log see every request; the response embeds
                    // the trace only when the client asked (`"trace":true`).
                    let start = Instant::now();
                    let (mut response, trace) =
                        protocol::handle_traced(&shared.engine, &request, true);
                    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    op = protocol::request_op(&request);
                    id = protocol::request_id(&request);
                    shared.metrics.record_latency(op, wall_ns);
                    if let Some(trace) = &trace {
                        shared.metrics.record_tiers(trace);
                    }
                    log_if_slow(shared, op, &request, wall_ns, queue_ns, trace.as_ref());
                    // The engine cannot see the serving queue; attribute
                    // the wait here so a `"trace":true` client learns
                    // where its request actually stalled.
                    if let Some(embedded) = protocol::response_trace_mut(&mut response) {
                        embedded.queue_ns = Some(queue_ns);
                    }
                    match &mut response {
                        Response::Stats { server, .. } => {
                            *server = Some(shared.metrics.snapshot(
                                shared.queue.depth() as u64,
                                shared.queue.high_water() as u64,
                                shared.queue.capacity() as u64,
                            ));
                        }
                        Response::Metrics { text, recent, .. } => {
                            // Server families first, then whatever the bare
                            // dispatch rendered (the process span registry).
                            *text = format!("{}{}", shared.metrics.render_prometheus(), text);
                            *recent = shared.metrics.recent_timelines();
                        }
                        Response::Shutdown { .. } => {
                            shared.shutdown.store(true, Ordering::SeqCst);
                        }
                        _ => {}
                    }
                    response
                }
                Err(message) => {
                    shared.metrics.begin_invalid();
                    conn_stats.count_invalid();
                    Response::Error { id: None, message }
                }
            }
        }
        Frame::TooLong { limit } => {
            shared.metrics.begin_invalid();
            conn_stats.count_invalid();
            Response::Error {
                id: None,
                message: format!("line exceeds --max-line-bytes ({limit} bytes)"),
            }
        }
        Frame::Invalid => {
            shared.metrics.begin_invalid();
            conn_stats.count_invalid();
            Response::Error {
                id: None,
                message: "line is not valid UTF-8".to_string(),
            }
        }
    };
    let mut line = protocol::render_response(&response);
    line.push('\n');
    (line, op, id)
}

/// Emits the slow-query record when `wall_ns` crosses the configured
/// threshold: the full cost trace of the offending request, one JSON
/// line on stderr via the structured logger (DESIGN.md §14).
fn log_if_slow(
    shared: &Shared,
    op: &'static str,
    request: &protocol::Request,
    wall_ns: u64,
    queue_ns: u64,
    trace: Option<&protocol::QueryTrace>,
) {
    let Some(threshold_ms) = shared.slow_query_ms else {
        return;
    };
    if wall_ns < threshold_ms.saturating_mul(1_000_000) {
        return;
    }
    let mut fields: Vec<(&str, fannet_obs::FieldValue)> = vec![
        ("op", op.into()),
        ("wall_ns", wall_ns.into()),
        ("queue_ns", queue_ns.into()),
        ("threshold_ms", threshold_ms.into()),
    ];
    if let Some(id) = protocol::request_id(request) {
        fields.push(("id", id.into()));
    }
    if let Some(trace) = trace {
        fields.push(("cache", trace.cache_name().into()));
        fields.push(("interval_ns", trace.stats.interval_ns.into()));
        fields.push(("zonotope_ns", trace.stats.zonotope_ns.into()));
        fields.push(("exact_ns", trace.stats.exact_ns.into()));
        fields.push(("boxes_visited", trace.stats.boxes_visited.into()));
        fields.push(("depth_high_water", trace.stats.depth_high_water.into()));
    }
    fannet_obs::log::warn("fannet_server::slow_query", "slow query", &fields);
}

/// Runs the stdio front end: one connection reading `input`, writing
/// `output`, over a fresh session. Returns when the input reaches EOF or
/// a `shutdown` request drains the session — whichever comes first.
///
/// The reader runs on its own thread so a `shutdown` request can end
/// the session while `input` (an untimed pipe, typically stdin) stays
/// open and blocked. After a shutdown-without-EOF the reader thread is
/// left parked on that read; the caller is expected to exit.
pub fn serve_stdio<R, W>(engine: Arc<Engine>, config: &SessionConfig, input: R, output: W)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let session = Session::new(engine, config);
    let conn = session.open_connection("stdio", Box::new(output));
    let reader_done = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let shared = Arc::clone(&session.shared);
        let conn = Arc::clone(&conn);
        let reader_done = Arc::clone(&reader_done);
        std::thread::spawn(move || {
            run_reader(&shared, &conn, input);
            let (done, bell) = &*reader_done;
            *done.lock().expect("reader-done lock poisoned") = true;
            bell.notify_all();
        });
    }
    // Wait for EOF or shutdown; the poll interval only bounds how fast a
    // shutdown request turns into an exit.
    {
        let (done, bell) = &*reader_done;
        let mut finished = done.lock().expect("reader-done lock poisoned");
        while !*finished && !session.shutdown_requested() {
            let (guard, _) = bell
                .wait_timeout(finished, Duration::from_millis(50))
                .expect("reader-done lock poisoned");
            finished = guard;
        }
    }
    // The connection's write side stays live until every queued request
    // has answered — close it after the drain, so a `stats` request
    // always observes `connections_open` = 1 regardless of how fast the
    // input reached EOF (and the close record reports final totals).
    let shared = Arc::clone(&session.shared);
    session.drain();
    close_connection(&shared, &conn);
}

/// Convenience used by tests and callers that already hold raw lines:
/// answers them through a full session round-trip (submit → worker →
/// sequencer) and returns the response lines in order.
#[must_use]
pub fn answer_lines(engine: Arc<Engine>, config: &SessionConfig, input: &str) -> Vec<String> {
    let output = SharedBuffer::default();
    serve_stdio(
        engine,
        config,
        std::io::Cursor::new(input.to_string()),
        output.clone(),
    );
    let text = output.take();
    text.lines().map(str::to_string).collect()
}

/// An in-memory `Write` target shared across threads (test plumbing).
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// The UTF-8 contents written so far.
    ///
    /// # Panics
    ///
    /// Panics if a writer produced invalid UTF-8 (responses never do).
    #[must_use]
    pub fn take(&self) -> String {
        String::from_utf8(self.0.lock().expect("buffer lock poisoned").clone())
            .expect("responses are UTF-8")
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
