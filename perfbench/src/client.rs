//! The closed-loop load generator: each connection keeps a fixed number
//! of requests in flight and sends the next one only when a response
//! line arrives.
//!
//! The connection threads do nothing but write request lines, read
//! response lines and stamp both; every response is parsed and checked
//! after the run, outside the timed window, so the generator steals as
//! little CPU as possible from the server it shares the machine with.
//! The client sets `TCP_NODELAY`, so Nagle's algorithm on the client side
//! never holds a request back and every transport stall the benchmark
//! sees is the server's.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use crate::gen::Query;
use crate::server::REPLY_TIMEOUT;

/// The phases of a run: consecutive intervals ending at `ends`, each
/// sending traced or untraced requests. Requests are sent until the last
/// phase ends; in-flight requests are then drained.
#[derive(Debug, Clone)]
pub struct Plan {
    /// End instant of each phase, ascending.
    pub ends: Vec<Instant>,
    /// Whether requests sent during each phase carry `"trace":true`.
    pub traced: Vec<bool>,
}

impl Plan {
    /// Whether a request sent at `at` is traced.
    #[must_use]
    pub fn traced_at(&self, at: Instant) -> bool {
        let phase = self.ends.iter().position(|&end| at < end);
        phase.is_some_and(|p| self.traced[p])
    }

    /// The instant the last phase ends.
    #[must_use]
    pub fn end(&self) -> Instant {
        *self.ends.last().expect("a plan has at least one phase")
    }
}

/// One request and what came back for it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request's `id` tag (its position on the connection).
    pub id: u64,
    /// What was asked.
    pub query: Query,
    /// Whether the request carried `"trace":true`.
    pub traced: bool,
    /// When the request line was written.
    pub sent: Instant,
    /// When its full response line had been read (`None` if it never was).
    pub received: Option<Instant>,
    /// The response line without its newline.
    pub response: Option<String>,
}

impl Exchange {
    /// Request written → response read, milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.received
            .map(|r| r.duration_since(self.sent).as_secs_f64() * 1e3)
    }
}

/// Drives one connection through `plan` with `depth` requests in flight,
/// drawing requests from `next`. Returns every exchange in send order;
/// a connection that breaks leaves its unanswered exchanges without a
/// response (counted as missing by the gate).
///
/// # Errors
///
/// Returns a message when the connection cannot be opened.
pub fn drive(
    addr: SocketAddr,
    depth: usize,
    plan: &Plan,
    next: &mut dyn FnMut() -> Query,
) -> Result<Vec<Exchange>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let end = plan.end();
    let mut log: Vec<Exchange> = Vec::new();
    let mut in_flight: VecDeque<usize> = VecDeque::new();

    // Returns whether the connection still takes writes; a request whose
    // write failed stays logged without a response.
    let mut send = |log: &mut Vec<Exchange>, in_flight: &mut VecDeque<usize>| -> bool {
        let query = next();
        let id = log.len() as u64;
        let traced = plan.traced_at(Instant::now());
        let mut line = query.line(id, traced);
        line.push('\n');
        let sent = Instant::now();
        let written = writer.write_all(line.as_bytes()).is_ok();
        if written {
            in_flight.push_back(log.len());
        }
        log.push(Exchange {
            id,
            query,
            traced,
            sent,
            received: None,
            response: None,
        });
        written
    };

    let mut open = true;
    while open && in_flight.len() < depth && Instant::now() < end {
        open = send(&mut log, &mut in_flight);
    }
    let mut buf = String::new();
    while let Some(&front) = in_flight.front() {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(n) if n > 0 && buf.ends_with('\n') => {}
            // EOF, a torn last line, a timeout or a reset: the rest of
            // this connection's requests go unanswered.
            _ => break,
        }
        let now = Instant::now();
        let exchange = &mut log[front];
        exchange.received = Some(now);
        exchange.response = Some(buf.trim_end_matches(['\r', '\n']).to_string());
        in_flight.pop_front();
        if open && now < end {
            open = send(&mut log, &mut in_flight);
        }
    }
    Ok(log)
}

/// Sends `queries` pipelined over one connection and reads every reply
/// (the untimed cache warm-up pass); request `i` carries id `i`.
///
/// # Errors
///
/// Returns a message when the connection cannot be opened.
pub fn pipelined(addr: SocketAddr, queries: &[Query]) -> Result<Vec<Exchange>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut batch = String::new();
    for (id, q) in queries.iter().enumerate() {
        batch.push_str(&q.line(id as u64, false));
        batch.push('\n');
    }
    let sent = Instant::now();
    let mut log: Vec<Exchange> = queries
        .iter()
        .enumerate()
        .map(|(id, query)| Exchange {
            id: id as u64,
            query: query.clone(),
            traced: false,
            sent,
            received: None,
            response: None,
        })
        .collect();
    // Write from a helper thread: the server answers while the batch is
    // still arriving, and reading concurrently keeps both socket buffers
    // from filling up.
    std::thread::scope(|scope| {
        let writing = scope.spawn(move || writer.write_all(batch.as_bytes()));
        let mut reader = BufReader::new(stream);
        for exchange in &mut log {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 && line.ends_with('\n') => {
                    exchange.received = Some(Instant::now());
                    exchange.response = Some(line.trim_end_matches(['\r', '\n']).to_string());
                }
                _ => break,
            }
        }
        writing
            .join()
            .expect("writer thread never panics")
            .map_err(|e| format!("warm-up write failed: {e}"))
    })?;
    Ok(log)
}
