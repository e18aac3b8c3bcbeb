//! # fannet-search
//!
//! The domain-generic branch-and-bound core behind every FANNet analysis
//! (DESIGN.md §12). Input-noise verification (`fannet-verify`) and the
//! joint input×weight product domain of `fannet-faults`, whose zero
//! noise box is weight-fault verification, are both instances of one
//! algorithm:
//!
//! 1. screen each box with sound over-approximations, cheapest first
//!    (one screen pass in `fannet-verify` serves both domains), each
//!    screen that runs booking its [`BoxVerdict`] into its
//!    [`TierKind`]'s counters ([`SearchStats::book_tier`], timed by a
//!    [`TierTimer`]);
//! 2. prune boxes proven uniformly correct, stop on boxes proven
//!    uniformly wrong (with a concrete witness), split the rest
//!    ([`SearchDomain::decide`], [`BoxDecision`]);
//! 3. explore the box tree depth-first, left half first, so witnesses
//!    arrive in canonical order ([`collect_witnesses`], one loop);
//!    [`search_serial`] is that walk stopped at the first witness;
//! 4. bound the answer from below with a verdict-driven bisection
//!    ([`tolerance_search`]).
//!
//! The crate owns no abstract domain of its own: a `SearchDomain`
//! supplies the region type, the split policy and the per-box decision,
//! and discharges the soundness obligations documented on the trait.
//! [`SearchStats`] is the single counter block shared by every
//! instantiation — per-tier hits/fallbacks, boxes, splits, budgets.
//!
//! Every search runs on the calling thread. Analyses and servers get
//! their parallelism one level up, across independent queries
//! (DESIGN.md §7).

pub mod bisect;
pub mod domain;
pub mod solve;
pub mod stats;
pub mod tier;

pub use bisect::{tolerance_search, ToleranceResult, ToleranceSearch};
pub use domain::{BoxDecision, SearchDomain, SearchOutcome};
pub use solve::{collect_witnesses, search_serial};
pub use stats::SearchStats;
pub use tier::{BoxVerdict, ScreeningTier, TierKind, TierTimer};
