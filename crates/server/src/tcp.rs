//! The TCP front end of `fannet listen` (DESIGN.md §13).
//!
//! A hand-rolled `std::net` listener — the workspace is offline, so
//! there is no async runtime to reach for, and none is needed: one
//! reader thread per connection feeding the shared bounded queue scales
//! to the handful-to-hundreds of operator connections this server is
//! for, while the queue bound (not the thread count) is what limits
//! memory under load.
//!
//! Three socket choices make the graceful drain work without `poll(2)`:
//!
//! * the accept loop blocks in `accept` on a scoped thread, so a client
//!   is taken the moment it connects; the caller's thread polls the
//!   shutdown flag (set by a `shutdown` request on any connection, or by
//!   SIGINT/SIGTERM via [`crate::signal`], which can only set an atomic)
//!   every [`ACCEPT_POLL`] and, once it is set, wakes the accept with a
//!   connection to the listener's own address;
//! * every accepted socket gets a read timeout of [`READ_POLL`], so a
//!   reader blocked on an idle client re-checks the flag instead of
//!   sleeping forever;
//! * every accepted socket gets a write timeout of [`WRITE_STALL`], and
//!   a write that fails or times out shuts the socket down both ways: a
//!   client that stops reading is disconnected instead of holding its
//!   sequencer — and through it the workers, the queue and every other
//!   client — hostage, and the drain stays bounded.
//!
//! Accepted sockets also set `TCP_NODELAY`. The sequencer writes each
//! response as one buffer, so Nagle's algorithm has nothing to coalesce
//! and would only hold a response back until the client's delayed ACK.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fannet_engine::Engine;

use crate::session::{Session, SessionConfig};

/// How often the caller's thread polls for a shutdown request, and how
/// long the accept loop backs off after a failed `accept` (EMFILE would
/// otherwise make it spin).
pub const ACCEPT_POLL: Duration = Duration::from_millis(50);
/// Read timeout armed on every accepted socket (the shutdown-flag poll
/// interval of an idle connection).
pub const READ_POLL: Duration = Duration::from_millis(100);
/// Write timeout armed on every accepted socket: a client that keeps a
/// response write blocked this long is disconnected.
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// Binds `addr` and serves JSONL connections until a `shutdown` request
/// or `external_stop` (typically [`crate::signal::triggered`]) asks for
/// the drain. `ready` runs once with the bound address, before the
/// first accept — the hook tests use to learn an OS-assigned port.
///
/// # Errors
///
/// Returns the bind/configuration error if the listener cannot start;
/// per-connection failures after that are contained, never returned.
pub fn serve_tcp<A: ToSocketAddrs>(
    engine: Arc<Engine>,
    config: &SessionConfig,
    addr: A,
    external_stop: impl Fn() -> bool,
    ready: impl FnOnce(SocketAddr),
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    ready(bound);

    let session = Session::new(engine, config);
    let readers = std::thread::scope(|scope| {
        let acceptor = scope.spawn(|| accept_loop(&listener, &session));
        let wake = wake_addr(bound);
        loop {
            if external_stop() {
                session.request_shutdown();
            }
            // An established wake-up connection sits in the accept
            // queue, so the blocked accept returns and sees the flag; a
            // failed one is retried at the next poll.
            let woken = session.shutdown_requested()
                && TcpStream::connect_timeout(&wake, ACCEPT_POLL).is_ok();
            if woken || acceptor.is_finished() {
                break;
            }
            std::thread::sleep(ACCEPT_POLL);
        }
        acceptor.join().expect("accept loop panicked")
    });
    // Drain: stop accepting (done — the accept loop exited), wait for the
    // readers (each notices the flag within READ_POLL), then let every
    // submitted request finish and deliver its response.
    for reader in readers {
        let _ = reader.join();
    }
    session.drain();
    Ok(())
}

/// Accepts connections until an accept returns after the shutdown flag
/// was set, spawning one reader thread per connection; returns the
/// readers still running.
fn accept_loop(listener: &TcpListener, session: &Session) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !session.shutdown_requested() {
        match listener.accept() {
            // The wake-up connection, or a client that arrived too late.
            Ok(_) if session.shutdown_requested() => break,
            Ok((stream, peer)) => {
                // The reader polls the shutdown flag on every timeout;
                // the writer is an independent clone so responses flow
                // while the reader blocks.
                let configured = stream
                    .set_nodelay(true)
                    .and_then(|()| stream.set_read_timeout(Some(READ_POLL)))
                    .and_then(|()| stream.set_write_timeout(Some(WRITE_STALL)));
                if configured.is_err() {
                    continue;
                }
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                let conn =
                    session.open_connection(&peer.to_string(), Box::new(SocketWriter(writer)));
                let shared = Arc::clone(&session.shared);
                readers.push(std::thread::spawn(move || {
                    crate::session::run_connection_reader(&shared, &conn, stream);
                }));
                readers.retain(|reader| !reader.is_finished());
            }
            // A failed accept (e.g. a connection reset before we got to
            // it, or EMFILE) must not take the listener down.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    readers
}

/// Where the shutdown watcher connects to wake a blocked `accept`: the
/// bound address, with a wildcard IP replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if wake.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// The write half of an accepted socket. A write that fails or times
/// out ([`WRITE_STALL`]) shuts the socket down both ways: the sequencer
/// then drops this writer and discards the connection's remaining
/// responses, the connection's reader reaches EOF, and the client sees
/// its stream end instead of waiting forever on a truncated one.
struct SocketWriter(TcpStream);

impl Write for SocketWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let result = match self.0.write(buf) {
            // A timeout that fires after some bytes went out returns
            // their count, not an error, and `write_all` would block
            // again: a client whose kernel still takes a few bytes now
            // and then could hold the workers for many WRITE_STALLs.
            // A short write that blocked half the bound is a stall; a
            // shorter one was cut by a signal and is simply continued.
            Ok(n) if n < buf.len() && start.elapsed() >= WRITE_STALL / 2 => {
                Err(io::ErrorKind::TimedOut.into())
            }
            other => other,
        };
        // A signal interrupts a timed socket call even under
        // SA_RESTART; `write_all` retries those.
        if result
            .as_ref()
            .is_err_and(|e| e.kind() != io::ErrorKind::Interrupted)
        {
            let _ = self.0.shutdown(Shutdown::Both);
        }
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let addr = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(addr("0.0.0.0:7")), addr("127.0.0.1:7"));
        assert_eq!(wake_addr(addr("[::]:7")), addr("[::1]:7"));
        assert_eq!(wake_addr(addr("10.1.2.3:7")), addr("10.1.2.3:7"));
    }
}
