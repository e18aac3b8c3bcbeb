//! The resident verification engine (DESIGN.md §8).
//!
//! An [`Engine`] owns everything a cold checker rebuilds per invocation —
//! the exact network, its float shadow, the checker configuration — plus
//! one verdict cache per query domain, and answers every [`Query`]
//! through one path: validate → lookup → solve → merge-and-insert. It is
//! `Sync`: one engine serves concurrent workers, which is how
//! `fannet serve` turns one resident process into a query server.

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use fannet_faults::{
    FaultCheckerConfig, FaultModel, FaultOutcome, FaultTolerance, JointChecker, JointTolerance,
    ToleranceSearch,
};
use fannet_nn::fingerprint::{fingerprint, NetworkFingerprint};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::{SearchStats, TierTimer};
use fannet_tensor::ShapeError;
use fannet_verify::bab::{CheckerConfig, RegionChecker, RegionOutcome};
use fannet_verify::exact::Counterexample;
use fannet_verify::noise::ExclusionSet;
use fannet_verify::propagate::FloatShadow;
use fannet_verify::region::NoiseRegion;
use fannet_verify::zonotope::ZonotopeShadow;

use crate::cache::{ExactLru, Lookup, VerdictCache, WitnessPolicy};
use crate::stats::{Counters, DomainCounters};

/// How an engine runs its solver and bounds its caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Screening tiers of every solver run the engine performs.
    pub checker: CheckerConfig,
    /// LRU bound of each verdict cache (entries, not bytes).
    pub cache_capacity: usize,
}

impl EngineConfig {
    /// Serving preset: interval-screened solver runs and 4096 cached
    /// verdicts. Every solver run is serial; callers spend cores across
    /// independent requests (the same division of labour as
    /// `fannet_core`'s per-input layer).
    #[must_use]
    pub fn serving() -> Self {
        EngineConfig {
            checker: CheckerConfig::screened(),
            cache_capacity: 4096,
        }
    }
}

/// Where a [`Reply`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// A cached verdict with the identical key.
    ExactHit,
    /// A cached verdict related by the subsumption order.
    SubsumptionHit,
    /// A fresh solver run.
    Solver,
}

impl AnswerSource {
    /// The JSONL wire spelling.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            AnswerSource::ExactHit => "exact_hit",
            AnswerSource::SubsumptionHit => "subsumption_hit",
            AnswerSource::Solver => "solver",
        }
    }
}

/// One question about one input of the served network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Exact input vector.
    pub input: Vec<Rational>,
    /// Expected label `Sx`.
    pub label: usize,
    /// What to decide about `(input, label)`.
    pub kind: QueryKind,
}

/// The seven query kinds: {region, fault, joint} × {check, tolerance},
/// plus the P3 extraction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Property P2 over an input-noise region, **witness-exact**: the
    /// answer (verdict *and* counterexample) is bit-identical to a cold
    /// [`fannet_verify::bab::check_region`] run.
    Check {
        /// Region to certify.
        region: NoiseRegion,
    },
    /// Exact robustness radius: the smallest `δ ∈ [1, max_delta]` whose
    /// `±δ` region contains a counterexample, or `None` if the input is
    /// robust throughout `±max_delta` — the value of
    /// `fannet_core::tolerance`'s cold binary search.
    Tolerance {
        /// Largest radius probed, in `[1, 100]`.
        max_delta: i64,
    },
    /// Up to `cap` counterexamples in `region` (the P3 extraction behind
    /// `sensitivity` requests). Uncached — the result is a set, not a
    /// verdict — and untimed.
    Sensitivity {
        /// Region to extract from.
        region: NoiseRegion,
        /// Maximum counterexamples to extract (positive).
        cap: usize,
    },
    /// Weight-fault robustness under `model` (DESIGN.md §11), bit-identical
    /// to a cold [`fannet_faults::FaultChecker`] with the default
    /// configuration.
    FaultCheck {
        /// The fault model to verify against.
        model: FaultModel,
    },
    /// Weight-noise fault tolerance on the ε grid `search`, bit-identical
    /// to [`fannet_faults::FaultChecker::tolerance`].
    FaultTolerance {
        /// The ε grid searched.
        search: ToleranceSearch,
    },
    /// Joint input-noise × weight-fault robustness (DESIGN.md §12),
    /// bit-identical to a cold [`JointChecker`] with the default
    /// configuration.
    JointCheck {
        /// The input-noise factor of the product claim.
        region: NoiseRegion,
        /// The weight-fault factor of the product claim.
        model: FaultModel,
    },
    /// Joint weight-noise tolerance at a fixed `±delta` input-noise
    /// radius, bit-identical to [`JointChecker::tolerance`].
    JointTolerance {
        /// Symmetric input-noise radius (±δ%), in `[0, 100]`.
        delta: i64,
        /// The ε grid searched.
        search: ToleranceSearch,
    },
}

/// What the engine decided, one variant per [`QueryKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// [`QueryKind::Check`]: the canonical outcome.
    Region(RegionOutcome),
    /// [`QueryKind::Tolerance`]: the smallest flipping `δ`, `None` if
    /// robust through `±max_delta`.
    Radius(Option<i64>),
    /// [`QueryKind::Sensitivity`]: the extracted counterexamples.
    Counterexamples {
        /// Counterexamples in split-tree order.
        found: Vec<Counterexample>,
        /// `true` iff the region was exhausted before the cap.
        exhausted: bool,
    },
    /// [`QueryKind::FaultCheck`]: the verdict (with witness, when
    /// vulnerable).
    Fault(FaultOutcome),
    /// [`QueryKind::FaultTolerance`]: the bisection result.
    FaultTolerance(FaultTolerance),
    /// [`QueryKind::JointCheck`]: the verdict (with joint witness, when
    /// vulnerable).
    Joint(FaultOutcome),
    /// [`QueryKind::JointTolerance`]: the bisection result.
    JointTolerance(JointTolerance),
}

/// An engine answer plus how it was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// What was decided.
    pub answer: Answer,
    /// Cache path that produced it. A tolerance bisection reports the
    /// aggregate over its probes: [`AnswerSource::Solver`] if any probe
    /// ran the solver, else [`AnswerSource::SubsumptionHit`] if any probe
    /// (or the warm bracket alone) answered by containment, else
    /// [`AnswerSource::ExactHit`]. Fault and joint lookups are exact-key
    /// only, so they never report a subsumption hit.
    pub source: AnswerSource,
    /// Solver counters of this answer — zero on cache hits, the merge
    /// of every solver probe for a bisection. An enabled [`TierTimer`]
    /// additionally books per-tier nanoseconds here (DESIGN.md §14).
    pub stats: SearchStats,
}

/// A query the engine refused: it failed validation before touching
/// any cache, or its solver reported a malformed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError(String);

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for QueryError {}

impl From<String> for QueryError {
    fn from(message: String) -> Self {
        QueryError(message)
    }
}

impl From<ShapeError> for QueryError {
    fn from(e: ShapeError) -> Self {
        QueryError(e.to_string())
    }
}

/// One cache domain: its verdict store plus the merged counters of
/// every solver run it could not answer, guarded together.
#[derive(Debug)]
struct Domain<C> {
    cache: C,
    solver: SearchStats,
}

impl<C> Domain<C> {
    fn new(cache: C) -> Mutex<Self> {
        Mutex::new(Domain {
            cache,
            solver: SearchStats::default(),
        })
    }
}

fn lock<C>(domain: &Mutex<Domain<C>>) -> MutexGuard<'_, Domain<C>> {
    domain.lock().expect("engine cache poisoned")
}

/// The cache path every kind takes: look up under the lock; on a miss
/// run `solve` with no lock held, then merge its counters and insert its
/// answer under the lock again.
fn cached<C, V: Clone>(
    domain: &Mutex<Domain<C>>,
    lookup: impl FnOnce(&mut C) -> Option<(V, AnswerSource)>,
    solve: impl FnOnce() -> Result<(V, SearchStats), QueryError>,
    insert: impl FnOnce(&mut C, V),
) -> Result<(V, AnswerSource, SearchStats), QueryError> {
    let hit = lookup(&mut lock(domain).cache);
    if let Some((value, source)) = hit {
        return Ok((value, source, SearchStats::default()));
    }
    let (value, stats) = solve()?;
    let mut domain = lock(domain);
    domain.solver.merge(&stats);
    insert(&mut domain.cache, value.clone());
    Ok((value, AnswerSource::Solver, stats))
}

/// The merged counters and aggregate source of a bisection's probes.
#[derive(Default)]
struct Probes {
    stats: SearchStats,
    solved: bool,
    subsumed: bool,
}

impl Probes {
    fn add(&mut self, source: AnswerSource, stats: &SearchStats) {
        self.stats.merge(stats);
        self.solved |= source == AnswerSource::Solver;
        self.subsumed |= source == AnswerSource::SubsumptionHit;
    }

    fn reply(self, answer: Answer) -> Reply {
        let source = if self.solved {
            AnswerSource::Solver
        } else if self.subsumed {
            AnswerSource::SubsumptionHit
        } else {
            AnswerSource::ExactHit
        };
        Reply {
            answer,
            source,
            stats: self.stats,
        }
    }
}

/// The fault and joint verdict stores: exact-key LRUs keyed by the
/// check query itself (see [`ExactLru`] for why reuse is exact-key only).
type FaultCache = ExactLru<Query, FaultOutcome>;

/// A long-lived verification engine for one trained network.
pub struct Engine {
    net: Network<Rational>,
    fingerprint: NetworkFingerprint,
    config: EngineConfig,
    /// Built once iff the interval tier is on; borrowed (never cloned)
    /// by per-query handles.
    shadow: Option<FloatShadow>,
    /// Built once iff the zonotope tier is on; borrowed (never cloned)
    /// by per-query handles.
    zonotope: Option<ZonotopeShadow>,
    /// The resident joint input×weight checker (DESIGN.md §12): it
    /// answers joint checks, and fault checks at the zero noise box
    /// (DESIGN.md §11). It runs the deterministic default
    /// [`FaultCheckerConfig`], so cold `FaultChecker` and `JointChecker`
    /// runs reproduce engine answers bit for bit.
    joint: JointChecker,
    region_cache: Mutex<Domain<VerdictCache>>,
    fault_cache: Mutex<Domain<FaultCache>>,
    joint_cache: Mutex<Domain<FaultCache>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("fingerprint", &self.fingerprint)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds the engine: fingerprints the network and constructs each
    /// screening shadow once (iff its tier is active in the checker).
    ///
    /// # Panics
    ///
    /// Panics if screening is requested and the network is not
    /// piecewise-linear.
    #[must_use]
    pub fn new(net: Network<Rational>, config: EngineConfig) -> Self {
        let shadow = config
            .checker
            .screening
            .is_active()
            .then(|| FloatShadow::new(&net));
        let zonotope = config
            .checker
            .screening
            .uses_zonotope()
            .then(|| ZonotopeShadow::new(&net));
        let capacity = config.cache_capacity;
        Engine {
            fingerprint: fingerprint(&net),
            shadow,
            zonotope,
            joint: JointChecker::new(net.clone(), FaultCheckerConfig::default()),
            region_cache: Domain::new(VerdictCache::new(capacity)),
            fault_cache: Domain::new(ExactLru::new(capacity)),
            joint_cache: Domain::new(ExactLru::new(capacity)),
            net,
            config,
        }
    }

    /// The served network.
    #[must_use]
    pub fn network(&self) -> &Network<Rational> {
        &self.net
    }

    /// The cache namespace: the network's content fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> NetworkFingerprint {
        self.fingerprint
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime counters of every domain. Each domain's block is read
    /// under its own lock, so it is internally consistent.
    #[must_use]
    pub fn counters(&self) -> Counters {
        fn read<C>(
            domain: &Mutex<Domain<C>>,
            stats: impl Fn(&C) -> (crate::EngineStats, usize),
        ) -> DomainCounters {
            let domain = lock(domain);
            let (cache, len) = stats(&domain.cache);
            DomainCounters {
                cache,
                len,
                solver: domain.solver,
            }
        }
        Counters {
            region: read(&self.region_cache, |c| (c.stats(), c.len())),
            fault: read(&self.fault_cache, |c| (c.stats(), c.len())),
            joint: read(&self.joint_cache, |c| (c.stats(), c.len())),
        }
    }

    /// Answers one query. Validation runs first and touches no cache, so
    /// a refused query never skews the hit/miss accounting; every other
    /// answer takes the domain's cache path, and locks are held only
    /// around lookups and inserts, never across a solver run.
    ///
    /// An enabled `timer` books per-tier nanoseconds into the reply's
    /// stats for cost attribution (DESIGN.md §14); the answer, source,
    /// counters and cache behaviour are bit-identical to an untimed call.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on a width mismatch, an out-of-range label,
    /// `max_delta` outside `[1, 100]`, a joint `delta` outside `[0, 100]`,
    /// `cap == 0`, an invalid ε grid, or a fault model the network does
    /// not admit.
    pub fn answer(&self, query: &Query, timer: TierTimer) -> Result<Reply, QueryError> {
        self.validate(query)?;
        let (x, label) = (query.input.as_slice(), query.label);
        match &query.kind {
            QueryKind::Check { region } => {
                let (outcome, source, stats) =
                    self.region_check(x, label, region, WitnessPolicy::Canonical, timer)?;
                Ok(Reply {
                    answer: Answer::Region(outcome),
                    source,
                    stats,
                })
            }
            QueryKind::Tolerance { max_delta } => self.radius(x, label, *max_delta, timer),
            QueryKind::Sensitivity { region, cap } => {
                let (found, exhausted, stats) = self
                    .checker()
                    .collect_region_counterexamples(x, label, region, *cap)?;
                lock(&self.region_cache).solver.merge(&stats);
                Ok(Reply {
                    answer: Answer::Counterexamples { found, exhausted },
                    source: AnswerSource::Solver,
                    stats,
                })
            }
            QueryKind::FaultCheck { model } => {
                let zero = NoiseRegion::symmetric(0, x.len());
                let (outcome, source, stats) =
                    self.product_check(&self.fault_cache, query, &zero, model, timer)?;
                Ok(Reply {
                    answer: Answer::Fault(outcome),
                    source,
                    stats,
                })
            }
            QueryKind::FaultTolerance { search } => {
                // Every probe is the fault check a client would send, so
                // probes and checks share cache entries; the probe
                // sequence is a pure function of the verdicts, which
                // cached answers reproduce, so the result equals the cold
                // search's and a warm repeat runs no checker at all.
                let zero = NoiseRegion::symmetric(0, x.len());
                let mut probes = Probes::default();
                let tolerance = fannet_search::tolerance_search(search, |rel_eps| {
                    let model = FaultModel::WeightNoise { rel_eps };
                    let probe = Query {
                        input: query.input.clone(),
                        label,
                        kind: QueryKind::FaultCheck {
                            model: model.clone(),
                        },
                    };
                    let (outcome, source, stats) =
                        self.product_check(&self.fault_cache, &probe, &zero, &model, timer)?;
                    probes.add(source, &stats);
                    Ok::<_, QueryError>(outcome.is_robust())
                })?;
                Ok(probes.reply(Answer::FaultTolerance(tolerance)))
            }
            QueryKind::JointCheck { region, model } => {
                let (outcome, source, stats) =
                    self.product_check(&self.joint_cache, query, region, model, timer)?;
                Ok(Reply {
                    answer: Answer::Joint(outcome),
                    source,
                    stats,
                })
            }
            QueryKind::JointTolerance { delta, search } => {
                // Probes are joint checks at ±delta, like the fault case.
                let region = NoiseRegion::symmetric(*delta, x.len());
                let mut probes = Probes::default();
                let tolerance = fannet_search::tolerance_search(search, |rel_eps| {
                    let model = FaultModel::WeightNoise { rel_eps };
                    let probe = Query {
                        input: query.input.clone(),
                        label,
                        kind: QueryKind::JointCheck {
                            region: region.clone(),
                            model: model.clone(),
                        },
                    };
                    let (outcome, source, stats) =
                        self.product_check(&self.joint_cache, &probe, &region, &model, timer)?;
                    probes.add(source, &stats);
                    Ok::<_, QueryError>(outcome.is_robust())
                })?;
                Ok(probes.reply(Answer::JointTolerance(tolerance)))
            }
        }
    }

    /// Every precondition of every kind, checked before any cache sees
    /// the query.
    fn validate(&self, query: &Query) -> Result<(), QueryError> {
        let (inputs, outputs) = (self.net.inputs(), self.net.outputs());
        if query.label >= outputs {
            return Err(QueryError(format!(
                "label {} out of range for {outputs} outputs",
                query.label
            )));
        }
        if query.input.len() != inputs {
            return Err(QueryError(format!(
                "input of width {} against network with {inputs} inputs",
                query.input.len()
            )));
        }
        // Per kind: the region to width-check, the fault model to admit,
        // the ε grid to check, and whether a fault checker runs at all
        // (the tolerance kinds probe weight noise, which any
        // piecewise-linear network admits).
        let (region, model, grid, faulted) = match &query.kind {
            QueryKind::Check { region } => (Some(region), None, None, false),
            QueryKind::Tolerance { max_delta } => {
                if !(1..=100).contains(max_delta) {
                    return Err(QueryError(format!(
                        "max_delta {max_delta} outside [1, 100]"
                    )));
                }
                (None, None, None, false)
            }
            QueryKind::Sensitivity { region, cap } => {
                if *cap == 0 {
                    return Err(QueryError("cap must be positive".to_string()));
                }
                (Some(region), None, None, false)
            }
            QueryKind::FaultCheck { model } => (None, Some(model), None, true),
            QueryKind::FaultTolerance { search } => (None, None, Some(search), true),
            QueryKind::JointCheck { region, model } => (Some(region), Some(model), None, true),
            QueryKind::JointTolerance { delta, search } => {
                if !(0..=100).contains(delta) {
                    return Err(QueryError(format!(
                        "delta {delta} outside the model's [0, 100] range"
                    )));
                }
                (None, None, Some(search), true)
            }
        };
        if let Some(region) = region.filter(|r| r.nodes() != inputs) {
            return Err(QueryError(format!(
                "noise region over {} nodes against network with {inputs} inputs",
                region.nodes()
            )));
        }
        if let Some(search) = grid {
            if search.denom <= 0 {
                return Err(QueryError(format!(
                    "denom must be positive, got {}",
                    search.denom
                )));
            }
            if search.max_numer < 0 {
                return Err(QueryError(format!(
                    "max_numer must be non-negative, got {}",
                    search.max_numer
                )));
            }
        }
        if faulted && !self.net.is_piecewise_linear() {
            return Err(QueryError(
                "fault verification requires piecewise-linear activations".to_string(),
            ));
        }
        if let Some(model) = model {
            model.validate(&self.net)?;
        }
        Ok(())
    }

    /// A per-query checker handle borrowing the resident screening
    /// shadows (no per-query weight cloning).
    fn checker(&self) -> RegionChecker<'_> {
        RegionChecker::with_shadows(
            &self.net,
            self.config.checker.clone(),
            self.shadow.as_ref(),
            self.zonotope.as_ref(),
        )
    }

    /// The region domain's cache path. `policy` decides which cached
    /// verdicts may answer: a witness-bearing check reuses only exact
    /// hits and `Robust` subsumption (a cached counterexample for another
    /// region need not be this region's DFS-first one), while a
    /// verdict-only probe also accepts counterexample containment.
    fn region_check(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        policy: WitnessPolicy,
        timer: TierTimer,
    ) -> Result<(RegionOutcome, AnswerSource, SearchStats), QueryError> {
        cached(
            &self.region_cache,
            |cache| match cache.lookup(x, label, region, policy) {
                Lookup::Exact(outcome) => Some((outcome, AnswerSource::ExactHit)),
                Lookup::Subsumed(outcome) => Some((outcome, AnswerSource::SubsumptionHit)),
                Lookup::Miss => None,
            },
            || {
                Ok(self.checker().check_region_timed(
                    x,
                    label,
                    region,
                    &ExclusionSet::new(),
                    timer,
                )?)
            },
            |cache, outcome| cache.insert(x, label, region.clone(), outcome),
        )
    }

    /// The cache path of the joint checker. A fault check is the joint
    /// check at the zero noise box, looked up in and stored to
    /// `fault_cache`, so the `stats` op still counts the two ops apart.
    fn product_check(
        &self,
        domain: &Mutex<Domain<FaultCache>>,
        key: &Query,
        region: &NoiseRegion,
        model: &FaultModel,
        timer: TierTimer,
    ) -> Result<(FaultOutcome, AnswerSource, SearchStats), QueryError> {
        cached(
            domain,
            |cache| cache.lookup(key).map(|o| (o, AnswerSource::ExactHit)),
            || {
                Ok(self
                    .joint
                    .check_timed(&key.input, key.label, region, model, timer)?)
            },
            |cache, outcome| cache.insert(key.clone(), outcome),
        )
    }

    /// The incremental radius search, returning the cold binary search's
    /// value exactly. Three accelerations compose, all sound:
    ///
    /// 1. **warm start** — cached verdicts for this `(x, label)` bracket
    ///    the search before any probe runs;
    /// 2. **subsumed probes** — a probe at `±δ` is free when a cached
    ///    witness `w` has `‖w‖∞ ≤ δ` (counterexample containment) or a
    ///    cached robust region contains `±δ`;
    /// 3. **witness-norm descent** — when a probe at `±mid` solves to a
    ///    counterexample `w`, the upper bound drops to `max(‖w‖∞, 1)`
    ///    rather than `mid` (`w` itself lies in `±‖w‖∞`).
    fn radius(
        &self,
        x: &[Rational],
        label: usize,
        max_delta: i64,
        timer: TierTimer,
    ) -> Result<Reply, QueryError> {
        let (robust_through, flips_at) = lock(&self.region_cache).cache.symmetric_bracket(x, label);
        let mut probes = Probes::default();
        if robust_through >= max_delta {
            // The warm bracket alone decided — a containment answer.
            probes.subsumed = true;
            return Ok(probes.reply(Answer::Radius(None)));
        }
        // `Some(max(‖w‖∞, 1))` iff `±delta` holds a counterexample `w`.
        let flips = |delta: i64, probes: &mut Probes| -> Result<Option<i64>, QueryError> {
            let region = NoiseRegion::symmetric(delta, x.len());
            let (outcome, source, stats) =
                self.region_check(x, label, &region, WitnessPolicy::VerdictOnly, timer)?;
            probes.add(source, &stats);
            Ok(outcome.counterexample().map(|ce| ce.noise.max_abs().max(1)))
        };
        let mut lo = robust_through; // invariant: ±lo has no CE (or lo = 0)
        let mut hi = match flips_at.filter(|&m| m <= max_delta) {
            Some(m) => m, // invariant: ±hi contains a CE
            None => match flips(max_delta, &mut probes)? {
                Some(m) => m,
                None => return Ok(probes.reply(Answer::Radius(None))),
            },
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match flips(mid, &mut probes)? {
                Some(m) => hi = m,
                None => lo = mid,
            }
        }
        Ok(probes.reply(Answer::Radius(Some(hi))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_faults::FaultChecker;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;
    use fannet_verify::bab;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    /// label 0 iff x0 ≥ x1.
    fn comparator() -> Network<Rational> {
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
    }

    fn engine() -> Engine {
        Engine::new(comparator(), EngineConfig::serving())
    }

    fn ask(e: &Engine, x: &[Rational], label: usize, kind: QueryKind) -> Result<Reply, QueryError> {
        let query = Query {
            input: x.to_vec(),
            label,
            kind,
        };
        e.answer(&query, TierTimer::disabled())
    }

    fn check(e: &Engine, x: &[Rational], label: usize, region: NoiseRegion) -> Reply {
        ask(e, x, label, QueryKind::Check { region }).unwrap()
    }

    fn outcome(reply: &Reply) -> &RegionOutcome {
        match &reply.answer {
            Answer::Region(outcome) => outcome,
            other => panic!("not a region answer: {other:?}"),
        }
    }

    fn radius(e: &Engine, x: &[Rational], label: usize, max_delta: i64) -> Option<i64> {
        match ask(e, x, label, QueryKind::Tolerance { max_delta })
            .unwrap()
            .answer
        {
            Answer::Radius(radius) => radius,
            other => panic!("not a radius: {other:?}"),
        }
    }

    fn eps(n: i128) -> FaultModel {
        FaultModel::WeightNoise {
            rel_eps: Rational::new(n, 100),
        }
    }

    #[test]
    fn check_cold_then_exact_hit() {
        let e = engine();
        let x = [r(100), r(82)];
        let region = NoiseRegion::symmetric(5, 2);
        let first = check(&e, &x, 0, region.clone());
        assert_eq!(first.source, AnswerSource::Solver);
        assert!(outcome(&first).is_robust());
        let second = check(&e, &x, 0, region);
        assert_eq!(second.source, AnswerSource::ExactHit);
        assert_eq!(second.answer, first.answer);
        assert_eq!(
            second.stats,
            SearchStats::default(),
            "cache hits do no work"
        );
        let s = e.counters().region.cache;
        assert_eq!((s.exact_hits, s.misses), (1, 1));
    }

    #[test]
    fn robust_subsumption_answers_nested_check() {
        let e = engine();
        let x = [r(100), r(82)];
        let _ = check(&e, &x, 0, NoiseRegion::symmetric(9, 2));
        let nested = check(&e, &x, 0, NoiseRegion::symmetric(3, 2));
        assert_eq!(nested.source, AnswerSource::SubsumptionHit);
        assert!(outcome(&nested).is_robust());
        assert_eq!(e.counters().region.cache.subsumption_hits, 1);
    }

    #[test]
    fn check_replies_match_cold_solver_bit_for_bit() {
        let e = engine();
        let x = [r(100), r(82)];
        // Mixed robust/flipping deltas, issued twice (miss then hit paths).
        for _ in 0..2 {
            for delta in [3, 9, 12, 20, 7] {
                let region = NoiseRegion::symmetric(delta, 2);
                let reply = check(&e, &x, 0, region.clone());
                let (cold, _) =
                    bab::check_region(e.network(), &x, 0, &region, &ExclusionSet::new()).unwrap();
                assert_eq!(outcome(&reply), &cold, "delta {delta}");
            }
        }
    }

    #[test]
    fn tolerance_matches_cold_binary_search() {
        let e = engine();
        // Closed form: first flip at min Δ with x0(100−Δ) < x1(100+Δ).
        for (x0, x1, want) in [
            (100i64, 82i64, Some(10)),
            (100, 99, Some(1)),
            (100, 50, None),
        ] {
            let x = [r(i128::from(x0)), r(i128::from(x1))];
            assert_eq!(radius(&e, &x, 0, 20), want, "({x0}, {x1})");
        }
    }

    #[test]
    fn repeated_tolerance_resolves_from_cache_alone() {
        let e = engine();
        let x = [r(100), r(82)];
        assert_eq!(radius(&e, &x, 0, 20), Some(10));
        let before = e.counters().region.cache;
        assert_eq!(radius(&e, &x, 0, 20), Some(10));
        let after = e.counters().region.cache;
        assert_eq!(after.misses, before.misses, "no solver runs on re-search");
        assert!(
            after.subsumption_hits > before.subsumption_hits,
            "the warm-start bracket is a subsumption answer: {after:?}"
        );
    }

    #[test]
    fn tolerance_warm_starts_from_check_traffic() {
        let e = engine();
        let x = [r(100), r(82)];
        // Prior check traffic proves ±9 robust; the radius search's
        // bracket reuses that verdict instead of re-probing below it.
        let _ = check(&e, &x, 0, NoiseRegion::symmetric(9, 2));
        let subsumed_before = e.counters().region.cache.subsumption_hits;
        assert_eq!(radius(&e, &x, 0, 50), Some(10));
        assert!(e.counters().region.cache.subsumption_hits > subsumed_before);
        // All later probes stay strictly above the bracket's floor.
        assert_eq!(radius(&e, &x, 0, 9), None, "±9 is proven robust");
    }

    #[test]
    fn collect_feeds_solver_stats() {
        let e = engine();
        let x = [r(100), r(99)];
        let reply = ask(
            &e,
            &x,
            0,
            QueryKind::Sensitivity {
                region: NoiseRegion::symmetric(3, 2),
                cap: usize::MAX,
            },
        )
        .unwrap();
        let Answer::Counterexamples { found, exhausted } = &reply.answer else {
            panic!("{reply:?}");
        };
        assert!(*exhausted);
        assert!(!found.is_empty());
        assert!(e.counters().region.solver.boxes_visited > 0);
    }

    /// Asserts that `kind` on `(x, label)` is refused and that no
    /// counter of any domain moved.
    fn assert_refused(e: &Engine, x: &[Rational], label: usize, kind: QueryKind) {
        let before = e.counters();
        let got = ask(e, x, label, kind.clone());
        assert!(got.is_err(), "{kind:?} on {x:?}/{label} answered {got:?}");
        assert_eq!(e.counters(), before, "{kind:?} touched a cache");
    }

    /// One valid instance of every query kind over `nodes` inputs.
    fn every_kind(nodes: usize) -> Vec<QueryKind> {
        let grid = ToleranceSearch::new(100, 10);
        vec![
            QueryKind::Check {
                region: NoiseRegion::symmetric(1, nodes),
            },
            QueryKind::Tolerance { max_delta: 10 },
            QueryKind::Sensitivity {
                region: NoiseRegion::symmetric(1, nodes),
                cap: 4,
            },
            QueryKind::FaultCheck { model: eps(1) },
            QueryKind::FaultTolerance { search: grid },
            QueryKind::JointCheck {
                region: NoiseRegion::symmetric(1, nodes),
                model: eps(1),
            },
            QueryKind::JointTolerance {
                delta: 1,
                search: grid,
            },
        ]
    }

    #[test]
    fn width_mismatches_are_errors_not_panics() {
        let e = engine();
        // A populated cache, so "unchanged" is not trivially all zeros.
        for kind in every_kind(2) {
            ask(&e, &[r(100), r(82)], 0, kind).unwrap();
        }
        for kind in every_kind(2) {
            assert_refused(&e, &[r(1)], 0, kind);
        }
        // Regions over the wrong number of nodes, right-width input.
        for kind in every_kind(3) {
            if matches!(
                kind,
                QueryKind::Check { .. }
                    | QueryKind::Sensitivity { .. }
                    | QueryKind::JointCheck { .. }
            ) {
                assert_refused(&e, &[r(1), r(2)], 0, kind);
            }
        }
        // An out-of-range label, for every kind, is refused before any
        // solver sees it.
        for kind in every_kind(2) {
            assert_refused(&e, &[r(1), r(2)], 2, kind);
        }
        let x = [r(100), r(82)];
        for max_delta in [0, 101, -3] {
            assert_refused(&e, &x, 0, QueryKind::Tolerance { max_delta });
        }
        let region = NoiseRegion::symmetric(1, 2);
        assert_refused(&e, &x, 0, QueryKind::Sensitivity { region, cap: 0 });
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = engine();
        let b = engine();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fault_check_cold_then_exact_hit_bit_identical() {
        let e = engine();
        let x = [r(100), r(82)];
        let cold_checker = FaultChecker::new(comparator(), FaultCheckerConfig::default());
        for n in [1, 5, 15] {
            let model = eps(n);
            let (cold, cold_stats) = cold_checker.check(&x, 0, &model).unwrap();
            let kind = QueryKind::FaultCheck { model };
            let first = ask(&e, &x, 0, kind.clone()).unwrap();
            assert_eq!(first.source, AnswerSource::Solver);
            assert_eq!(first.answer, Answer::Fault(cold.clone()), "eps {n}/100");
            assert_eq!(first.stats, cold_stats);
            let warm = ask(&e, &x, 0, kind).unwrap();
            assert_eq!(warm.source, AnswerSource::ExactHit);
            assert_eq!(warm.answer, Answer::Fault(cold));
            assert_eq!(warm.stats, SearchStats::default(), "hits do no work");
        }
        let fault = e.counters().fault;
        assert_eq!((fault.cache.exact_hits, fault.cache.misses), (3, 3));
        assert_eq!(fault.len, 3);
        assert!(fault.solver.concrete_evals > 0);
    }

    #[test]
    fn fault_tolerance_matches_cold_search_and_replays_from_cache() {
        let e = engine();
        let cold_checker = FaultChecker::new(comparator(), FaultCheckerConfig::default());
        let search = ToleranceSearch::new(1000, 400);
        for (x0, x1) in [(100i128, 82i128), (100, 95), (100, 50)] {
            let x = [r(x0), r(x1)];
            let (cold, _) = cold_checker.tolerance(&x, 0, &search).unwrap();
            let kind = QueryKind::FaultTolerance { search };
            let warm = ask(&e, &x, 0, kind.clone()).unwrap();
            assert_eq!(
                warm.answer,
                Answer::FaultTolerance(cold.clone()),
                "({x0}, {x1})"
            );
            // The repeat resolves every probe from the cache.
            let misses_before = e.counters().fault.cache.misses;
            let again = ask(&e, &x, 0, kind).unwrap();
            assert_eq!(again.answer, Answer::FaultTolerance(cold));
            assert_eq!(again.source, AnswerSource::ExactHit);
            assert_eq!(
                e.counters().fault.cache.misses,
                misses_before,
                "warm re-search must issue zero checker runs"
            );
        }
    }

    #[test]
    fn sigmoid_model_engine_builds_and_contains_fault_errors() {
        // A screening-free engine must still construct for any loadable
        // model (a sigmoid net used to crash Engine::new through the
        // fault checker's admissibility assert); fault queries surface
        // the error per request, and invalid queries never touch the
        // fault cache's hit/miss accounting.
        let net = Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Sigmoid,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap();
        let e = Engine::new(
            net,
            EngineConfig {
                checker: CheckerConfig::serial_exact(),
                cache_capacity: 16,
            },
        );
        let kind = QueryKind::FaultCheck { model: eps(1) };
        let err = ask(&e, &[r(1), r(2)], 0, kind.clone()).unwrap_err();
        assert!(err.to_string().contains("piecewise-linear"), "{err}");
        // Width/label/admissibility failures are all rejected before the
        // cache, so the hit/miss accounting stays clean.
        assert_refused(&e, &[r(1)], 0, kind.clone());
        assert_refused(&e, &[r(1), r(2)], 9, kind);
        let search = ToleranceSearch::new(100, 10);
        assert_refused(&e, &[r(1), r(2)], 0, QueryKind::FaultTolerance { search });
        assert_eq!(e.counters(), Counters::default());
    }

    #[test]
    fn joint_check_cold_then_exact_hit_bit_identical() {
        let e = engine();
        let x = [r(100), r(82)];
        let cold_checker = JointChecker::new(comparator(), FaultCheckerConfig::default());
        let region = NoiseRegion::symmetric(3, 2);
        for n in [1, 4, 15] {
            let model = eps(n);
            let (cold, cold_stats) = cold_checker.check(&x, 0, &region, &model).unwrap();
            let kind = QueryKind::JointCheck {
                region: region.clone(),
                model,
            };
            let first = ask(&e, &x, 0, kind.clone()).unwrap();
            assert_eq!(first.source, AnswerSource::Solver);
            assert_eq!(first.answer, Answer::Joint(cold.clone()), "eps {n}/100");
            assert_eq!(first.stats, cold_stats);
            let warm = ask(&e, &x, 0, kind).unwrap();
            assert_eq!(warm.source, AnswerSource::ExactHit);
            assert_eq!(warm.answer, Answer::Joint(cold));
            assert_eq!(warm.stats, SearchStats::default(), "hits do no work");
        }
        let counters = e.counters();
        let joint = counters.joint;
        assert_eq!((joint.cache.exact_hits, joint.cache.misses), (3, 3));
        assert_eq!(joint.len, 3);
        assert!(joint.solver.concrete_evals > 0);
        // The joint namespace is disjoint from the fault cache.
        assert_eq!(counters.fault.len, 0);
    }

    #[test]
    fn joint_tolerance_matches_cold_search_and_replays_from_cache() {
        let e = engine();
        let cold_checker = JointChecker::new(comparator(), FaultCheckerConfig::default());
        let search = ToleranceSearch::new(100, 25);
        for delta in [0i64, 2, 5] {
            let x = [r(100), r(82)];
            let (cold, _) = cold_checker.tolerance(&x, 0, delta, &search).unwrap();
            let kind = QueryKind::JointTolerance { delta, search };
            let warm = ask(&e, &x, 0, kind.clone()).unwrap();
            assert_eq!(
                warm.answer,
                Answer::JointTolerance(cold.clone()),
                "delta {delta}"
            );
            // The repeat resolves every probe from the cache.
            let misses_before = e.counters().joint.cache.misses;
            let again = ask(&e, &x, 0, kind).unwrap();
            assert_eq!(again.answer, Answer::JointTolerance(cold));
            assert_eq!(
                e.counters().joint.cache.misses,
                misses_before,
                "warm re-search must issue zero checker runs"
            );
        }
    }

    #[test]
    fn zero_delta_joint_check_answers_as_the_fault_check() {
        let e = engine();
        let stuck = FaultModel::StuckAt {
            layer: 0,
            neuron: 0,
            value: Rational::ZERO,
        };
        let flip = FaultModel::BitFlips { budget: 1 };
        let cases = [
            ((100, 82), eps(2), "robust"),
            ((100, 82), eps(20), "vulnerable"),
            ((100, 82), stuck, "vulnerable"),
            ((100, 82), flip.clone(), "vulnerable"),
            (
                (100, 82),
                FaultModel::Quantization { denom_bits: 8 },
                "robust",
            ),
            // Every single flip of (100, −100) at worst ties, and the
            // lower-index rule keeps L0: the complete single-flip
            // enumeration proves it at δ = 0 as in the fault check.
            ((100, -100), flip, "robust"),
        ];
        for ((x0, x1), model, verdict) in cases {
            let x = [r(x0), r(x1)];
            let fault = QueryKind::FaultCheck {
                model: model.clone(),
            };
            let joint = QueryKind::JointCheck {
                region: NoiseRegion::symmetric(0, 2),
                model: model.clone(),
            };
            let fault = ask(&e, &x, 0, fault).unwrap();
            let joint = ask(&e, &x, 0, joint).unwrap();
            let (Answer::Fault(f), Answer::Joint(j)) = (&fault.answer, &joint.answer) else {
                panic!("not a fault and a joint answer: {fault:?} {joint:?}");
            };
            // Verdict, witness (noise vector included) and counters.
            assert_eq!(
                (j, joint.stats),
                (f, fault.stats),
                "{model} at ({x0}, {x1})"
            );
            assert_eq!(f.wire_name(), verdict, "{model} at ({x0}, {x1})");
        }
    }

    #[test]
    fn joint_queries_reject_bad_inputs() {
        let e = engine();
        let grid = ToleranceSearch::new(100, 10);
        let region = || NoiseRegion::symmetric(2, 2);
        let joint = || QueryKind::JointCheck {
            region: region(),
            model: eps(1),
        };
        assert_refused(&e, &[r(1)], 0, joint());
        assert_refused(&e, &[r(1), r(2)], 9, joint());
        assert_refused(
            &e,
            &[r(1), r(2)],
            0,
            QueryKind::JointCheck {
                region: NoiseRegion::symmetric(1, 3),
                model: eps(1),
            },
        );
        assert_refused(
            &e,
            &[r(1), r(2)],
            0,
            QueryKind::JointCheck {
                region: region(),
                model: FaultModel::StuckAt {
                    layer: 7,
                    neuron: 0,
                    value: Rational::ZERO,
                },
            },
        );
        for delta in [101, -1] {
            let kind = QueryKind::JointTolerance {
                delta,
                search: grid,
            };
            assert_refused(&e, &[r(100), r(82)], 0, kind);
        }
        let bad_grid = ToleranceSearch {
            denom: 0,
            max_numer: 10,
        };
        let kind = QueryKind::JointTolerance {
            delta: 1,
            search: bad_grid,
        };
        assert_refused(&e, &[r(100), r(82)], 0, kind);
        assert_refused(
            &e,
            &[r(1), r(2)],
            9,
            QueryKind::JointTolerance {
                delta: 1,
                search: grid,
            },
        );
        assert_eq!(e.counters(), Counters::default());
    }

    #[test]
    fn fault_queries_reject_bad_inputs() {
        let e = engine();
        let fault = |model| QueryKind::FaultCheck { model };
        assert_refused(&e, &[r(1)], 0, fault(eps(1)));
        assert_refused(&e, &[r(1), r(2)], 9, fault(eps(1)));
        assert_refused(
            &e,
            &[r(1), r(2)],
            0,
            fault(FaultModel::StuckAt {
                layer: 7,
                neuron: 0,
                value: Rational::ZERO,
            }),
        );
        assert_refused(&e, &[r(1), r(2)], 0, fault(eps(-1)));
        let grid = ToleranceSearch::new(100, 10);
        assert_refused(&e, &[r(1)], 0, QueryKind::FaultTolerance { search: grid });
        assert_refused(
            &e,
            &[r(1), r(2)],
            9,
            QueryKind::FaultTolerance { search: grid },
        );
        for search in [
            ToleranceSearch {
                denom: 0,
                max_numer: 10,
            },
            ToleranceSearch {
                denom: 100,
                max_numer: -1,
            },
        ] {
            assert_refused(&e, &[r(1), r(2)], 0, QueryKind::FaultTolerance { search });
        }
        assert_eq!(e.counters(), Counters::default());
    }

    #[test]
    fn cumulative_solver_counters_are_the_merge_of_every_reply() {
        // A mixed stream of all seven kinds, cold then warm, alternating
        // timed and untimed calls: each domain's cumulative counters must
        // equal the merge of the per-reply stats routed to it — the
        // counters now live under the cache locks, and nothing may be
        // booked twice or dropped.
        let e = engine();
        let mut want = Counters::default();
        let inputs = [[r(100), r(82)], [r(100), r(99)], [r(60), r(90)]];
        let mut n = 0;
        for _round in 0..2 {
            for x in &inputs {
                let label = e.network().classify(x).unwrap();
                for kind in every_kind(2).into_iter().chain([
                    QueryKind::Check {
                        region: NoiseRegion::symmetric(12, 2),
                    },
                    QueryKind::Tolerance { max_delta: 40 },
                    QueryKind::FaultCheck { model: eps(20) },
                ]) {
                    let timer = if n % 2 == 0 {
                        TierTimer::disabled()
                    } else {
                        TierTimer::enabled()
                    };
                    n += 1;
                    let query = Query {
                        input: x.to_vec(),
                        label,
                        kind,
                    };
                    let reply = e.answer(&query, timer).unwrap();
                    let domain = match query.kind {
                        QueryKind::Check { .. }
                        | QueryKind::Tolerance { .. }
                        | QueryKind::Sensitivity { .. } => &mut want.region,
                        QueryKind::FaultCheck { .. } | QueryKind::FaultTolerance { .. } => {
                            &mut want.fault
                        }
                        QueryKind::JointCheck { .. } | QueryKind::JointTolerance { .. } => {
                            &mut want.joint
                        }
                    };
                    domain.solver.merge(&reply.stats);
                }
            }
        }
        let got = e.counters();
        assert_eq!(got.region.solver, want.region.solver);
        assert_eq!(got.fault.solver, want.fault.solver);
        assert_eq!(got.joint.solver, want.joint.solver);
        for domain in [got.region, got.fault, got.joint] {
            assert!(domain.solver.boxes_visited > 0, "{got:?}");
            assert!(
                domain.cache.misses > 0 && domain.cache.exact_hits > 0,
                "{got:?}"
            );
        }
    }
}
