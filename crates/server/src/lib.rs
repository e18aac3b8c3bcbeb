//! # fannet-server
//!
//! The concurrent serving front end of the verification engine
//! (DESIGN.md §13): `fannet listen` (TCP) and `fannet serve` (stdio)
//! are two thin shells around one connection-handler core.
//!
//! * [`queue`] — the bounded request queue whose blocking `push` *is*
//!   the backpressure contract: a full queue stops the reader, the
//!   socket buffer fills, TCP flow control throttles the client.
//! * [`frame`] — bounded line framing; an oversized or non-UTF-8 line
//!   becomes one contained `error` response, never an OOM or a dead
//!   connection.
//! * [`session`] — the core: a worker pool draining the queue onto the
//!   shared resident [`fannet_engine::Engine`], with a per-connection
//!   sequencer that re-orders completions so every client sees
//!   responses in request order, and a drain barrier for graceful
//!   shutdown.
//! * [`metrics`] — the operator surface a `stats` request reports under
//!   its `server` key (uptime, qps, queue gauges, per-op counts).
//! * [`tcp`] — the `std::net` listener: a blocking accept woken by a
//!   self-connection at shutdown, one reader thread per connection,
//!   `TCP_NODELAY` so each response leaves at once, read timeouts so
//!   the drain can interrupt idle readers, and a write timeout that
//!   disconnects a client that stops reading.
//! * [`signal`] — SIGINT/SIGTERM → the same graceful drain, without a
//!   `libc` dependency.
//!
//! The protocol itself (request parsing, dispatch, response rendering,
//! panic containment) lives in [`fannet_engine::protocol`]; this crate
//! adds concurrency, flow control and lifecycle around it, which is why
//! the stdio front end is byte-identical to the historical sequential
//! serve loop.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use fannet_engine::{Engine, EngineConfig};
//! use fannet_nn::{Activation, DenseLayer, Network, Readout};
//! use fannet_numeric::Rational;
//! use fannet_server::session::{answer_lines, SessionConfig};
//! use fannet_tensor::Matrix;
//!
//! let r = |n: i128| Rational::from_integer(n);
//! let net = Network::new(vec![DenseLayer::new(
//!     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
//!     vec![r(0), r(0)],
//!     Activation::Identity,
//! )?], Readout::MaxPool)?;
//! let engine = Arc::new(Engine::new(net, EngineConfig::serving()));
//!
//! // Four pipelined requests through the full session round-trip:
//! // responses come back in request order, whatever the worker count.
//! let responses = answer_lines(
//!     engine,
//!     &SessionConfig::with_workers(4),
//!     "{\"op\":\"check\",\"id\":1,\"input\":[100,82],\"label\":0,\"delta\":5}\n\
//!      {\"op\":\"tolerance\",\"id\":2,\"input\":[100,82],\"label\":0}\n\
//!      not json\n\
//!      {\"op\":\"stats\",\"id\":4}\n",
//! );
//! assert_eq!(responses.len(), 4);
//! assert!(responses[0].starts_with("{\"op\":\"check\",\"id\":1"));
//! assert!(responses[1].starts_with("{\"op\":\"tolerance\",\"id\":2"));
//! assert!(responses[2].starts_with("{\"op\":\"error\""));
//! assert!(responses[3].contains("\"server\":{"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod frame;
pub mod metrics;
pub mod queue;
pub mod session;
pub mod signal;
pub mod tcp;

pub use frame::{Frame, FramedLineReader, DEFAULT_MAX_LINE_BYTES};
pub use metrics::ServerMetrics;
pub use queue::BoundedQueue;
pub use session::{answer_lines, serve_stdio, Session, SessionConfig, DEFAULT_QUEUE_CAPACITY};
pub use tcp::serve_tcp;
