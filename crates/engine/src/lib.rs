//! # fannet-engine
//!
//! The persistent verification query engine (DESIGN.md §8): everything
//! the FANNet analyses need to stop paying for cold starts.
//!
//! PR 1 made a single P2 query fast; this crate makes *workloads* fast.
//! The paper's headline analyses — noise-tolerance sweeps, per-node
//! sensitivity, bias flows — decompose into thousands of region queries
//! against the *same* trained network, and those queries are heavily
//! related: a region proven robust proves every nested region, a found
//! counterexample decides every region containing it. A resident
//! [`Engine`] exploits that structure:
//!
//! * [`engine`] — owns the network, its content [`fingerprint`]
//!   namespace, the float shadow and the checker configuration, and
//!   answers every [`Query`] — region, fault and joint checks and
//!   tolerance searches, plus P3 extractions — through
//!   [`Engine::answer`], one validate → lookup → solve → merge-and-insert
//!   path.
//! * [`cache`] — the subsumption-aware region-verdict cache and the
//!   exact-key LRU behind the fault and joint verdicts, with
//!   [`EngineStats`] accounting ([`Engine::counters`] snapshots all
//!   three domains).
//! * [`protocol`] — the JSONL request/response wire format of
//!   `fannet serve`.
//!
//! Soundness is inherited, never traded: every cache rule is a theorem
//! about the checker's semantics (DESIGN.md §8), and every answer the
//! engine returns for a witness-bearing query is bit-identical to a cold
//! `check_region` run — enforced by `tests/engine_equivalence.rs`.
//!
//! ## Example
//!
//! ```
//! use fannet_engine::{Answer, Engine, EngineConfig, Query, QueryKind};
//! use fannet_nn::{Activation, DenseLayer, Network, Readout};
//! use fannet_numeric::Rational;
//! use fannet_search::TierTimer;
//! use fannet_tensor::Matrix;
//! use fannet_verify::region::NoiseRegion;
//!
//! let r = |n: i128| Rational::from_integer(n);
//! let net = Network::new(vec![DenseLayer::new(
//!     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
//!     vec![r(0), r(0)],
//!     Activation::Identity,
//! )?], Readout::MaxPool)?;
//!
//! let engine = Engine::new(net, EngineConfig::serving());
//! let check = |delta| Query {
//!     input: vec![r(100), r(82)],
//!     label: 0,
//!     kind: QueryKind::Check { region: NoiseRegion::symmetric(delta, 2) },
//! };
//! // First answer runs the solver; the repeat is an exact cache hit.
//! let cold = engine.answer(&check(5), TierTimer::disabled())?;
//! let warm = engine.answer(&check(5), TierTimer::disabled())?;
//! assert_eq!(cold.answer, warm.answer);
//! assert_eq!(engine.counters().region.cache.exact_hits, 1);
//! // The robust proof at ±5 also answers any nested region.
//! let nested = engine.answer(&check(2), TierTimer::disabled())?;
//! assert!(matches!(nested.answer, Answer::Region(ref o) if o.is_robust()));
//! assert_eq!(engine.counters().region.cache.subsumption_hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod stats;

pub use engine::{Answer, AnswerSource, Engine, EngineConfig, Query, QueryError, QueryKind, Reply};
pub use fannet_nn::fingerprint;
pub use stats::{
    ConnectionInfo, Counters, DomainCounters, EngineStats, LatencyStats, OpCounts, OpLatency,
    OpWindow, PhaseLatencyStats, ServerStats, WindowStats, CONNECTION_TABLE_ROWS,
};
