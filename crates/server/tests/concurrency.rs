//! Concurrency contracts of the session core (DESIGN.md §13): per-
//! connection response ordering under a multi-worker pool, byte-level
//! agreement with a single-worker run, containment of dead clients,
//! stalled clients and garbage frames, one write per response, prompt
//! accepts and round trips, and the graceful drain — over in-memory
//! connections and over real loopback TCP.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fannet_engine::{Engine, EngineConfig};
use fannet_nn::{Activation, DenseLayer, Network, Readout};
use fannet_numeric::Rational;
use fannet_server::session::{answer_lines, serve_stdio, Session, SessionConfig};
use fannet_server::tcp::{serve_tcp, WRITE_STALL};
use fannet_tensor::Matrix;

fn r(n: i128) -> Rational {
    Rational::from_integer(n)
}

/// The 2→2 identity network the engine protocol tests use: tiny enough
/// that a request costs microseconds, rich enough that checks flip.
fn engine() -> Arc<Engine> {
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
    Arc::new(Engine::new(net, EngineConfig::serving()))
}

/// A pipelined mixed workload; `tag` keeps ids distinct per client.
fn mixed_requests(tag: u64, rounds: u64) -> String {
    let mut lines = String::new();
    for i in 0..rounds {
        let id = tag * 1000 + i * 10;
        let d = 1 + (i % 5);
        lines += &format!(
            "{{\"op\":\"check\",\"id\":{},\"input\":[100,82],\"label\":0,\"delta\":{d}}}\n",
            id + 1
        );
        lines += &format!(
            "{{\"op\":\"tolerance\",\"id\":{},\"input\":[100,{}],\"label\":0,\"max_delta\":20}}\n",
            id + 2,
            80 + i
        );
        lines += &format!(
            "{{\"op\":\"fault_check\",\"id\":{},\"input\":[100,82],\"label\":0,\"model\":\"weight-noise\",\"eps\":\"1/{}\"}}\n",
            id + 3,
            40 + i
        );
        lines += &format!(
            "{{\"op\":\"joint_check\",\"id\":{},\"input\":[100,82],\"label\":0,\"delta\":{d},\"model\":\"bit-flips\",\"budget\":1}}\n",
            id + 4
        );
    }
    lines
}

fn response_ids(lines: &[String]) -> Vec<u64> {
    lines
        .iter()
        .map(|line| {
            let tail = line.split("\"id\":").nth(1).expect("response carries id");
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect()
}

/// Everything before the first scheduling-dependent field. `source`
/// depends on what the shared cache already learned from *other*
/// clients, so cross-run comparisons stop there; the verdict and any
/// witness serialize before it.
fn stable_prefix(line: &str) -> &str {
    line.split(",\"source\":").next().unwrap()
}

#[test]
fn multi_worker_pool_preserves_per_connection_order() {
    let input = mixed_requests(1, 6);
    let answers = answer_lines(engine(), &SessionConfig::with_workers(4), &input);
    assert_eq!(answers.len(), 24);
    let ids = response_ids(&answers);
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "responses must come back in request order");
}

#[test]
fn multi_worker_run_matches_single_worker_byte_for_byte() {
    let input = mixed_requests(2, 5);
    // Fresh engines: both runs start with a cold cache, and within one
    // connection the request order fixes the cache history, so even the
    // `source` fields must agree.
    let single = answer_lines(engine(), &SessionConfig::with_workers(1), &input);
    let multi = answer_lines(engine(), &SessionConfig::with_workers(4), &input);
    assert_eq!(single.len(), multi.len());
    for (s, m) in single.iter().zip(&multi) {
        assert_eq!(stable_prefix(s), stable_prefix(m));
    }
    // And under one worker the whole line is reproducible.
    let again = answer_lines(engine(), &SessionConfig::with_workers(1), &input);
    assert_eq!(single, again);
}

#[test]
fn garbage_frames_are_contained_per_line() {
    let config = SessionConfig {
        workers: 2,
        queue_capacity: 4,
        max_line_bytes: 64,
        slow_query_ms: None,
        trace_out: None,
    };
    let mut input = String::new();
    input += "{\"op\":\"check\",\"id\":1,\"input\":[100,82],\"label\":0,\"delta\":2}\n";
    input += "not json at all\n";
    input += &format!("{{\"pad\":\"{}\"}}\n", "x".repeat(200)); // over the 64-byte cap
    input += "\n"; // blank: skipped, no response
    input += "{\"op\":\"stats\",\"id\":4}\n";
    let answers = answer_lines(engine(), &config, &input);
    assert_eq!(answers.len(), 4, "{answers:?}");
    assert!(
        answers[0].starts_with("{\"op\":\"check\",\"id\":1"),
        "{}",
        answers[0]
    );
    assert!(answers[1].contains("malformed JSON"), "{}", answers[1]);
    assert!(
        answers[2].contains("exceeds --max-line-bytes (64 bytes)"),
        "{}",
        answers[2]
    );
    // The session survived and still counts: 1 check + 1 stats + 2 invalid.
    assert!(
        answers[3].contains("\"ops\":{\"check\":1"),
        "{}",
        answers[3]
    );
    assert!(answers[3].contains("\"invalid\":2"), "{}", answers[3]);
}

/// A writer whose client vanished: every write fails.
struct DeadWriter;

impl Write for DeadWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "client gone",
        ))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An in-memory sink for the surviving connection.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn dead_connection_never_kills_the_session() {
    let session = Session::new(engine(), &SessionConfig::with_workers(2));
    let dead = session.open_connection("dead", Box::new(DeadWriter));
    let sink = Sink::default();
    let live = session.open_connection("live", Box::new(sink.clone()));
    let dead_input = mixed_requests(7, 3);
    let live_input = mixed_requests(8, 3);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            session.run_reader(&dead, std::io::Cursor::new(dead_input.as_bytes()));
            session.close_connection(&dead);
        });
        scope.spawn(|| {
            session.run_reader(&live, std::io::Cursor::new(live_input.as_bytes()));
            session.close_connection(&live);
        });
    });
    session.drain();
    let lines: Vec<String> = sink
        .0
        .lock()
        .unwrap()
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| String::from_utf8(l.to_vec()).unwrap())
        .collect();
    assert_eq!(lines.len(), 12, "the live client got every response");
    let ids = response_ids(&lines);
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "ordering survives a dying sibling");
}

/// A stdin that delivers a `shutdown` request and then stays open
/// forever (returning `WouldBlock`, as a timed socket would).
struct OpenForever {
    payload: std::io::Cursor<Vec<u8>>,
}

impl Read for OpenForever {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.payload.read(buf) {
            Ok(0) => {
                std::thread::sleep(Duration::from_millis(5));
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "idle"))
            }
            other => other,
        }
    }
}

#[test]
fn shutdown_request_drains_without_eof() {
    let sink = Sink::default();
    let input = OpenForever {
        payload: std::io::Cursor::new(
            b"{\"op\":\"check\",\"id\":1,\"input\":[100,82],\"label\":0,\"delta\":2}\n{\"op\":\"shutdown\",\"id\":2}\n".to_vec(),
        ),
    };
    // Must return even though the input never reaches EOF.
    serve_stdio(
        engine(),
        &SessionConfig::with_workers(2),
        input,
        sink.clone(),
    );
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].starts_with("{\"op\":\"check\",\"id\":1"), "{out}");
    assert_eq!(lines[1], "{\"op\":\"shutdown\",\"id\":2,\"ok\":true}");
}

#[test]
fn loopback_tcp_serves_concurrent_clients_in_order_and_drains() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 3;
    let (addr_tx, addr_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = engine();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            serve_tcp(
                engine,
                &SessionConfig::with_workers(3),
                "127.0.0.1:0",
                move || stop.load(Ordering::SeqCst),
                move |addr| addr_tx.send(addr).unwrap(),
            )
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener came up");

    // A single-client reference run against a fresh engine, for the
    // stable-prefix comparison below.
    let references: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            answer_lines(
                engine(),
                &SessionConfig::with_workers(1),
                &mixed_requests(c, ROUNDS),
            )
        })
        .collect();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let input = mixed_requests(c, ROUNDS);
                // Pipeline everything before reading a single response.
                stream.write_all(input.as_bytes()).unwrap();
                stream.flush().unwrap();
                let expected = input.lines().count();
                let mut reader = BufReader::new(stream);
                let mut lines = Vec::new();
                for _ in 0..expected {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    lines.push(line.trim_end().to_string());
                }
                lines
            })
        })
        .collect();
    for (c, client) in clients.into_iter().enumerate() {
        let lines = client.join().unwrap();
        let ids = response_ids(&lines);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "client {c} saw responses out of order");
        // Interleaving with other clients must not change any answer
        // (the shared cache may change `source`, nothing before it).
        let reference = &references[c];
        assert_eq!(lines.len(), reference.len());
        for (got, want) in lines.iter().zip(reference) {
            assert_eq!(stable_prefix(got), stable_prefix(want), "client {c}");
        }
    }

    // Disconnect mid-batch: a client that slams the door after writing
    // must not disturb the next client.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(mixed_requests(99, 2).as_bytes()).unwrap();
        drop(stream); // vanish without reading a byte
    }
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"op\":\"check\",\"id\":1,\"input\":[100,82],\"label\":0,\"delta\":2}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"op\":\"check\",\"id\":1"), "{line}");
    }

    // In-band shutdown: the ack arrives, then the server drains.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "{\"op\":\"shutdown\",\"ok\":true}");
    }
    server.join().unwrap().expect("listener exits cleanly");
}

/// Pulls the integer right after `anchor` out of a JSON line.
fn count_after(text: &str, anchor: &str) -> u64 {
    let at = text
        .find(anchor)
        .unwrap_or_else(|| panic!("`{anchor}` missing in {text}"));
    text[at + anchor.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// The request-lifecycle accounting (DESIGN.md §15) under real load:
/// 4 pipelined loopback clients × 16 mixed requests against worker
/// pools of both sizes, then a fifth connection reads `stats` and
/// `metrics`. Every count must sum exactly to the submitted workload at
/// any worker count — the queue/service/sequence phases and the per-op
/// latency histograms are recorded *before* a response's bytes leave
/// the server, so clients holding all their responses prove the counts
/// are in — and every `recent` timeline must satisfy the phase-sum
/// bound `queue + service + sequence + write ≤ wall`.
#[test]
fn accounting_sums_to_the_submitted_workload() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 4; // 16 requests per client, 4 per op
    for workers in [1usize, 3] {
        let (addr_tx, addr_rx) = mpsc::channel();
        let server = {
            let engine = engine();
            std::thread::spawn(move || {
                serve_tcp(
                    engine,
                    &SessionConfig::with_workers(workers),
                    "127.0.0.1:0",
                    || false,
                    move |addr| addr_tx.send(addr).unwrap(),
                )
            })
        };
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("listener came up");

        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let input = mixed_requests(c, ROUNDS);
                    stream.write_all(input.as_bytes()).unwrap();
                    stream.flush().unwrap();
                    let mut reader = BufReader::new(stream);
                    for _ in 0..input.lines().count() {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        assert!(!line.is_empty(), "response arrived");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }

        // The fifth connection audits the books.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"stats\",\"id\":1}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stats = String::new();
        reader.read_line(&mut stats).unwrap();

        let total = CLIENTS * ROUNDS * 4;
        let latency = &stats[stats.find("\"latency\":").expect("latency block")..];
        for op in ["check", "tolerance", "fault_check", "joint_check"] {
            assert_eq!(
                count_after(latency, &format!("\"{op}\":{{\"count\":")),
                CLIENTS * ROUNDS,
                "per-op latency count of {op} at {workers} workers"
            );
        }
        let phases = &stats[stats.find("\"phases\":").expect("phases block")..];
        for phase in ["queue", "service", "sequence"] {
            assert_eq!(
                count_after(phases, &format!("\"{phase}\":{{\"count\":")),
                total,
                "{phase} phase count at {workers} workers"
            );
        }
        // The write stamp lands after each response's write returns,
        // which races the snapshot only for responses still in flight —
        // and every workload response has been *received*, so at most
        // the audit connection's own are outstanding.
        let writes = count_after(phases, "\"write\":{\"count\":");
        assert!(writes <= total, "{writes} writes at {workers} workers");
        // Per-connection attribution: the four workload connections
        // (now closed, retained in the table) plus this one, busiest
        // first.
        let connections = &stats[stats.find("\"connections\":[").expect("connection table")..];
        let per_conn: Vec<u64> = connections
            .split("\"requests\":")
            .skip(1)
            .map(|tail| {
                tail.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            per_conn,
            [16, 16, 16, 16, 1],
            "per-connection request counts at {workers} workers"
        );

        // Every recent timeline satisfies the phase-sum bound.
        stream
            .write_all(b"{\"op\":\"metrics\",\"id\":2}\n")
            .unwrap();
        let mut metrics = String::new();
        reader.read_line(&mut metrics).unwrap();
        let recent = &metrics[metrics.find("\"recent\":[").expect("recent timelines")..];
        let mut entries = 0;
        for entry in recent.split("{\"conn\":").skip(1) {
            let phase_sum = count_after(entry, "\"queue_ns\":")
                + count_after(entry, "\"service_ns\":")
                + count_after(entry, "\"sequence_ns\":")
                + count_after(entry, "\"write_ns\":");
            let wall = count_after(entry, "\"wall_ns\":");
            assert!(
                phase_sum <= wall,
                "phase sum {phase_sum} exceeds wall {wall} at {workers} workers: {entry}"
            );
            entries += 1;
        }
        assert!(entries > 0, "the timeline ring surfaced entries");

        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert_eq!(ack.trim_end(), "{\"op\":\"shutdown\",\"ok\":true}");
        server.join().unwrap().expect("listener exits cleanly");
    }
}

#[test]
fn external_stop_flag_drains_the_listener() {
    let (addr_tx, addr_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = engine();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            serve_tcp(
                engine,
                &SessionConfig::with_workers(1),
                "127.0.0.1:0",
                move || stop.load(Ordering::SeqCst),
                move |addr| addr_tx.send(addr).unwrap(),
            )
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener came up");
    // An idle open connection must not block the drain.
    let _idle = TcpStream::connect(addr).unwrap();
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("signal-style stop drains");
}

/// A one-line warm `check`: after the first, every answer is a cache hit.
const CHECK: &[u8] = b"{\"op\":\"check\",\"id\":1,\"input\":[100,82],\"label\":0,\"delta\":2}\n";

/// Starts `serve_tcp` on an ephemeral loopback port with `workers`
/// workers; returns the bound address and the listener thread.
fn spawn_listener(workers: usize) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        serve_tcp(
            engine(),
            &SessionConfig::with_workers(workers),
            "127.0.0.1:0",
            || false,
            move |addr| addr_tx.send(addr).unwrap(),
        )
    });
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener came up");
    (addr, server)
}

/// Sends an in-band `shutdown` on a fresh connection, checks the ack and
/// waits for the listener to drain.
fn shut_down(addr: SocketAddr, server: JoinHandle<std::io::Result<()>>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    assert_eq!(ack.trim_end(), "{\"op\":\"shutdown\",\"ok\":true}");
    server.join().unwrap().expect("listener exits cleanly");
}

/// A writer that records every `write` call it receives.
#[derive(Clone, Default)]
struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The sequencer hands each response to the writer as one buffer ending
/// in its newline: a response split across writes would leave its tail
/// to Nagle's algorithm on a socket.
#[test]
fn each_response_is_one_write_ending_in_newline() {
    let session = Session::new(engine(), &SessionConfig::with_workers(3));
    let log = WriteLog::default();
    let conn = session.open_connection("log", Box::new(log.clone()));
    let input = mixed_requests(3, 4) + "not json\n{\"op\":\"stats\",\"id\":9}\n";
    session.run_reader(&conn, std::io::Cursor::new(input.as_bytes()));
    session.close_connection(&conn);
    session.drain();
    let writes = log.0.lock().unwrap();
    assert_eq!(
        writes.len(),
        input.lines().count(),
        "one write per response"
    );
    for write in writes.iter() {
        let text = String::from_utf8_lossy(write);
        assert!(text.ends_with('\n'), "{text}");
        assert_eq!(text.matches('\n').count(), 1, "{text}");
    }
}

/// Request/response round trips on one connection are not held back by
/// Nagle's algorithm waiting for the client's delayed ACK (~40 ms each).
#[test]
fn sequential_round_trips_are_answered_at_once() {
    let (addr, server) = spawn_listener(1);
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let start = Instant::now();
    for id in 0..50 {
        writer
            .write_all(
                format!(
                    "{{\"op\":\"check\",\"id\":{id},\"input\":[100,82],\"label\":0,\"delta\":2}}\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with(&format!("{{\"op\":\"check\",\"id\":{id},")),
            "{line}"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 round trips took {elapsed:?}"
    );
    drop((reader, writer));
    shut_down(addr, server);
}

/// A client is accepted the moment it connects, not at the next tick of
/// a polling loop.
#[test]
fn fresh_connections_are_accepted_at_once() {
    let (addr, server) = spawn_listener(1);
    let start = Instant::now();
    for _ in 0..20 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(CHECK).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"op\":\"check\",\"id\":1,"), "{line}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "20 one-request connections took {elapsed:?}"
    );
    shut_down(addr, server);
}

/// A client that pipelines far more than the socket buffers hold and
/// never reads must not stall anyone else. Its responses (400k of
/// ~350 B) overrun any loopback buffer, so the sequencer's write to it
/// blocks, holding that connection's lock; without a bound, the second
/// worker then blocks on the lock, the queue fills and every reader
/// stops. A second client makes round trips from the start of the flood
/// until one of them has waited out that stall; with the [`WRITE_STALL`]
/// write timeout the flooding client is cut off, so that round trip
/// completes within `WRITE_STALL` + 5 s, and the flooding client sees its
/// stream end (EOF or reset) instead of waiting forever.
#[test]
fn client_that_stops_reading_is_cut_off_without_stalling_others() {
    const CHUNK_LINES: usize = 1_000;
    const FLOOD_CHUNKS: usize = 400;
    let (addr, server) = spawn_listener(2);
    let (flooding_tx, flooding_rx) = mpsc::channel();
    let (read_tx, read_rx) = mpsc::channel::<()>();
    let flooder = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Bounds the test when the server never lets go.
        stream.set_write_timeout(Some(WRITE_STALL * 2)).unwrap();
        stream.set_read_timeout(Some(WRITE_STALL * 2)).unwrap();
        let chunk = CHECK.repeat(CHUNK_LINES);
        for sent in 0..FLOOD_CHUNKS {
            if sent == 1 {
                flooding_tx.send(()).unwrap();
            }
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
        // Read nothing until the other client got through the stall.
        read_rx.recv().unwrap();
        let mut buf = vec![0u8; 1 << 16];
        let mut received = 0usize;
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Ok(received),
                Ok(n) => received += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(received);
                }
                // A reset ends the stream as surely as a FIN.
                Err(_) => return Ok(received),
            }
        }
    });
    flooding_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the flood started");

    let bound = WRITE_STALL + Duration::from_secs(5);
    let other = TcpStream::connect(addr).unwrap();
    other.set_read_timeout(Some(bound)).unwrap();
    let mut reader = BufReader::new(other.try_clone().unwrap());
    let mut writer = other;
    let deadline = Instant::now() + Duration::from_secs(60);
    let waited = loop {
        let sent = Instant::now();
        writer.write_all(CHECK).unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("the other client is answered while one client stalls");
        assert!(line.starts_with("{\"op\":\"check\",\"id\":1,"), "{line}");
        let waited = sent.elapsed();
        if waited >= WRITE_STALL / 2 {
            break waited;
        }
        assert!(
            Instant::now() < deadline,
            "the flood never stalled the server"
        );
    };
    assert!(waited < bound, "answered after {waited:?}");

    read_tx.send(()).unwrap();
    let received = flooder.join().unwrap();
    assert!(
        received.is_ok(),
        "the stalled client's stream never ended after {} bytes",
        received.unwrap_err()
    );
    drop((reader, writer));
    shut_down(addr, server);
}
