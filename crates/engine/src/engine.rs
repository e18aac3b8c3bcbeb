//! The resident verification engine (DESIGN.md §8).
//!
//! An [`Engine`] owns everything PR 1's checker rebuilt per invocation —
//! the exact network, its float shadow, the checker configuration — plus
//! the [`VerdictCache`], and answers P2 queries through the cache instead
//! of starting every branch-and-bound cold. It is `Sync`: one engine
//! serves concurrent batch workers, which is how `fannet serve` turns one
//! resident process into a query server.

use std::sync::Mutex;

use fannet_faults::{
    tolerance_search, FaultChecker, FaultCheckerConfig, FaultModel, FaultOutcome, FaultStats,
    FaultTolerance, JointChecker, JointOutcome, JointTolerance, ToleranceSearch,
};
use fannet_nn::fingerprint::{fingerprint, NetworkFingerprint};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::TierTimer;
use fannet_tensor::ShapeError;
use fannet_verify::bab::{BabStats, CheckerConfig, RegionChecker, RegionOutcome};
use fannet_verify::exact::Counterexample;
use fannet_verify::noise::ExclusionSet;
use fannet_verify::propagate::FloatShadow;
use fannet_verify::region::NoiseRegion;
use fannet_verify::zonotope::ZonotopeShadow;

use crate::cache::{
    ExactCacheStats, FaultCacheStats, FaultVerdictCache, JointVerdictCache, Lookup, VerdictCache,
    WitnessPolicy,
};
use crate::stats::EngineStats;

/// How an engine runs its solver and bounds its cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Screening tiers of every solver run the engine performs.
    pub checker: CheckerConfig,
    /// LRU bound of the verdict cache (entries, not bytes).
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

/// Where a [`CheckReply`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// A cached verdict with the identical region key.
    ExactHit,
    /// A cached verdict related by the subsumption order.
    SubsumptionHit,
    /// A fresh branch-and-bound run.
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

/// An engine answer: the outcome plus how it was obtained.
///
/// `stats` are the solver counters of **this** answer — all zero when the
/// cache answered.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReply {
    /// The verdict, bit-identical to a cold `check_region` run.
    pub outcome: RegionOutcome,
    /// Cache path that produced it.
    pub source: AnswerSource,
    /// Branch-and-bound counters of this answer (zero on cache hits).
    pub stats: BabStats,
}

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
    cache: Mutex<VerdictCache>,
    /// Cumulative branch-and-bound counters across every solver run.
    solver_stats: Mutex<BabStats>,
    /// The resident weight-fault checker (DESIGN.md §11); runs the
    /// deterministic default [`FaultCheckerConfig`], so cold
    /// `FaultChecker` runs reproduce engine answers bit for bit.
    faults: FaultChecker,
    fault_cache: Mutex<FaultVerdictCache>,
    /// Cumulative fault-checker counters across every cold fault run.
    fault_stats: Mutex<FaultStats>,
    /// The resident joint input×weight checker (DESIGN.md §12); runs
    /// the deterministic default [`FaultCheckerConfig`] like the fault
    /// checker, so cold [`JointChecker`] runs reproduce engine answers
    /// bit for bit.
    joint: JointChecker,
    joint_cache: Mutex<JointVerdictCache>,
    /// Cumulative joint-checker counters across every cold joint run.
    joint_stats: Mutex<FaultStats>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
        let fp = fingerprint(&net);
        let shadow = config
            .checker
            .screening
            .uses_interval()
            .then(|| FloatShadow::new(&net));
        let zonotope = config
            .checker
            .screening
            .uses_zonotope()
            .then(|| ZonotopeShadow::new(&net));
        let cache = VerdictCache::new(config.cache_capacity);
        let fault_cache = FaultVerdictCache::new(config.cache_capacity);
        let joint_cache = JointVerdictCache::new(config.cache_capacity);
        let faults = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
        let joint = JointChecker::new(net.clone(), FaultCheckerConfig::default());
        Engine {
            net,
            fingerprint: fp,
            config,
            shadow,
            zonotope,
            cache: Mutex::new(cache),
            solver_stats: Mutex::new(BabStats::default()),
            faults,
            fault_cache: Mutex::new(fault_cache),
            fault_stats: Mutex::new(FaultStats::default()),
            joint,
            joint_cache: Mutex::new(joint_cache),
            joint_stats: Mutex::new(FaultStats::default()),
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

    /// Lifetime cache counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.cache.lock().expect("engine cache poisoned").stats()
    }

    /// Cumulative branch-and-bound counters across every solver run.
    #[must_use]
    pub fn solver_stats(&self) -> BabStats {
        *self.solver_stats.lock().expect("engine stats poisoned")
    }

    /// Number of cached verdicts.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("engine cache poisoned").len()
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

    fn validate(&self, x: &[Rational], region: &NoiseRegion) -> Result<(), ShapeError> {
        if x.len() != self.net.inputs() {
            return Err(ShapeError::new(format!(
                "input of width {} against network with {} inputs",
                x.len(),
                self.net.inputs()
            )));
        }
        if region.nodes() != self.net.inputs() {
            return Err(ShapeError::new(format!(
                "noise region over {} nodes against network with {} inputs",
                region.nodes(),
                self.net.inputs()
            )));
        }
        Ok(())
    }

    /// Runs the solver cold and stores the canonical verdict. An enabled
    /// `timer` additionally books per-tier nanoseconds into the returned
    /// stats; the cumulative engine counters absorb them too, but the
    /// wire serialization of [`BabStats`] never carries them.
    fn solve(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        timer: TierTimer,
    ) -> Result<(RegionOutcome, BabStats), ShapeError> {
        let (outcome, stats) =
            self.checker()
                .check_region_timed(x, label, region, &ExclusionSet::new(), timer)?;
        self.solver_stats
            .lock()
            .expect("engine stats poisoned")
            .merge(&stats);
        self.cache.lock().expect("engine cache poisoned").insert(
            x,
            label,
            region.clone(),
            outcome.clone(),
        );
        Ok((outcome, stats))
    }

    /// Property P2 through the cache, **witness-exact**: the reply's
    /// outcome (verdict *and* counterexample) is bit-identical to a cold
    /// [`fannet_verify::bab::check_region`] on the same query.
    ///
    /// Cache reuse is therefore limited to the rules that preserve the
    /// canonical witness — exact hits and `Robust` subsumption; a cached
    /// counterexample for a different region re-solves (its witness need
    /// not be the queried region's DFS-first one).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn check(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
    ) -> Result<CheckReply, ShapeError> {
        self.check_traced(x, label, region, TierTimer::disabled())
    }

    /// [`Engine::check`] with an explicit [`TierTimer`]: an enabled
    /// timer books per-tier nanoseconds into the reply's stats for cost
    /// attribution (DESIGN.md §14). Verdict, witness, counters and cache
    /// behaviour are bit-identical to the untimed call; cache hits still
    /// report zero stats (the cache did no tier work).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn check_traced(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        timer: TierTimer,
    ) -> Result<CheckReply, ShapeError> {
        assert!(label < self.net.outputs(), "label {label} out of range");
        self.validate(x, region)?;
        let hit = self.cache.lock().expect("engine cache poisoned").lookup(
            x,
            label,
            region,
            WitnessPolicy::Canonical,
        );
        let (outcome, source, stats) = match hit {
            Lookup::Exact(outcome) => (outcome, AnswerSource::ExactHit, BabStats::default()),
            Lookup::Subsumed(outcome) => {
                (outcome, AnswerSource::SubsumptionHit, BabStats::default())
            }
            Lookup::Miss => {
                let (outcome, stats) = self.solve(x, label, region, timer)?;
                (outcome, AnswerSource::Solver, stats)
            }
        };
        Ok(CheckReply {
            outcome,
            source,
            stats,
        })
    }

    /// Verdict-level P2 — `true` iff the region is robust. Counterexample
    /// containment is additionally admissible here, which is what makes
    /// tolerance probes cheap; the witness behind a `false` is *not*
    /// surfaced, so no canonicality is promised.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn check_verdict(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
    ) -> Result<(bool, AnswerSource), ShapeError> {
        assert!(label < self.net.outputs(), "label {label} out of range");
        self.validate(x, region)?;
        let mut acc = BabStats::default();
        let (outcome, source) = self.probe(x, label, region, TierTimer::disabled(), &mut acc)?;
        Ok((outcome.is_robust(), source))
    }

    /// Shared verdict-level lookup-or-solve; solver probes merge their
    /// stats into `acc` so traced tolerance searches can attribute the
    /// cost of the whole bisection.
    fn probe(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        timer: TierTimer,
        acc: &mut BabStats,
    ) -> Result<(RegionOutcome, AnswerSource), ShapeError> {
        let hit = self.cache.lock().expect("engine cache poisoned").lookup(
            x,
            label,
            region,
            WitnessPolicy::VerdictOnly,
        );
        Ok(match hit {
            Lookup::Exact(outcome) => (outcome, AnswerSource::ExactHit),
            Lookup::Subsumed(outcome) => (outcome, AnswerSource::SubsumptionHit),
            Lookup::Miss => {
                let (outcome, stats) = self.solve(x, label, region, timer)?;
                acc.merge(&stats);
                (outcome, AnswerSource::Solver)
            }
        })
    }

    /// Exact robustness radius of one input — the engine-backed
    /// incremental replacement of `fannet_core::tolerance`'s cold binary
    /// search, returning the **identical** value: the smallest
    /// `δ ∈ [1, max_delta]` whose `±δ` region contains a counterexample,
    /// or `None` if the input is robust throughout `±max_delta`.
    ///
    /// Three accelerations compose, all sound, so the result is exact:
    ///
    /// 1. **warm start** — cached verdicts for this `(x, label)` bracket
    ///    the search before any probe runs;
    /// 2. **subsumed probes** — a probe at `±δ` is free when a cached
    ///    witness `w` has `‖w‖∞ ≤ δ` (counterexample containment) or a
    ///    cached robust region contains `±δ`;
    /// 3. **witness-norm descent** — when a probe at `±mid` solves to a
    ///    counterexample `w`, the upper bound drops to `max(‖w‖∞, 1)`
    ///    rather than `mid` (`w` itself lies in `±‖w‖∞`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or `max_delta` outside
    /// `[1, 100]`.
    pub fn tolerance(
        &self,
        x: &[Rational],
        label: usize,
        max_delta: i64,
    ) -> Result<Option<i64>, ShapeError> {
        self.tolerance_traced(x, label, max_delta, TierTimer::disabled())
            .map(|(radius, _, _)| radius)
    }

    /// [`Engine::tolerance`] with an explicit [`TierTimer`], returning
    /// the merged solver stats of every probe plus the aggregate answer
    /// source: [`AnswerSource::Solver`] if any probe ran the solver,
    /// else [`AnswerSource::SubsumptionHit`] if any probe (or the warm
    /// bracket) answered by containment, else [`AnswerSource::ExactHit`].
    /// The radius is bit-identical to the untimed call.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or `max_delta` outside
    /// `[1, 100]`.
    pub fn tolerance_traced(
        &self,
        x: &[Rational],
        label: usize,
        max_delta: i64,
        timer: TierTimer,
    ) -> Result<(Option<i64>, BabStats, AnswerSource), ShapeError> {
        assert!(label < self.net.outputs(), "label {label} out of range");
        assert!(
            (1..=100).contains(&max_delta),
            "max_delta must be in [1, 100]"
        );
        self.validate(x, &NoiseRegion::symmetric(0, x.len()))?;

        let mut acc = BabStats::default();
        let mut solved = false;
        let mut subsumed = false;
        fn aggregate(solved: bool, subsumed: bool) -> AnswerSource {
            if solved {
                AnswerSource::Solver
            } else if subsumed {
                AnswerSource::SubsumptionHit
            } else {
                AnswerSource::ExactHit
            }
        }

        let (robust_through, flips_at) = self
            .cache
            .lock()
            .expect("engine cache poisoned")
            .symmetric_bracket(x, label);
        if robust_through >= max_delta {
            // The warm bracket alone decided — a containment answer.
            return Ok((None, acc, AnswerSource::SubsumptionHit));
        }
        let mut lo = robust_through; // invariant: ±lo has no CE (or lo = 0)
        let mut hi = match flips_at.filter(|&m| m <= max_delta) {
            Some(m) => m, // invariant: ±hi contains a CE
            None => {
                let (outcome, source) = self.probe(
                    x,
                    label,
                    &NoiseRegion::symmetric(max_delta, x.len()),
                    timer,
                    &mut acc,
                )?;
                solved |= source == AnswerSource::Solver;
                subsumed |= source == AnswerSource::SubsumptionHit;
                match outcome.counterexample() {
                    None => return Ok((None, acc, aggregate(solved, subsumed))),
                    Some(ce) => ce.noise.max_abs().max(1),
                }
            }
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (outcome, source) = self.probe(
                x,
                label,
                &NoiseRegion::symmetric(mid, x.len()),
                timer,
                &mut acc,
            )?;
            solved |= source == AnswerSource::Solver;
            subsumed |= source == AnswerSource::SubsumptionHit;
            match outcome.counterexample() {
                Some(ce) => hi = ce.noise.max_abs().max(1),
                None => lo = mid,
            }
        }
        Ok((Some(hi), acc, aggregate(solved, subsumed)))
    }

    /// Collects up to `cap` counterexamples in `region` (the P3
    /// extraction primitive behind `sensitivity` requests). Uncached —
    /// the result shape is a set, not a verdict — but it reuses the
    /// resident float shadow and feeds the cumulative solver counters.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or `cap == 0`.
    pub fn collect(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        cap: usize,
    ) -> Result<(Vec<Counterexample>, bool, BabStats), ShapeError> {
        let result = self
            .checker()
            .collect_region_counterexamples(x, label, region, cap)?;
        self.solver_stats
            .lock()
            .expect("engine stats poisoned")
            .merge(&result.2);
        Ok(result)
    }

    /// Weight-fault robustness of `x` under `model`
    /// ([`FaultChecker::check`]) through the fault-verdict cache,
    /// namespaced by this engine's network fingerprint.
    ///
    /// Replies are **bit-identical** to a cold [`FaultChecker`] with the
    /// default configuration: the cache reuses exact keys only (the
    /// monotone weight-noise order is deliberately withheld — see
    /// [`FaultVerdictCache`]), and the checker itself is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn fault_check(
        &self,
        x: &[Rational],
        label: usize,
        model: &FaultModel,
    ) -> Result<FaultReply, String> {
        self.fault_check_traced(x, label, model, TierTimer::disabled())
    }

    /// [`Engine::fault_check`] with an explicit [`TierTimer`] (see
    /// [`Engine::check_traced`]); cache hits still report zero stats.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn fault_check_traced(
        &self,
        x: &[Rational],
        label: usize,
        model: &FaultModel,
        timer: TierTimer,
    ) -> Result<FaultReply, String> {
        // Validate before touching the cache (mirroring `check`), so
        // malformed queries never skew the hit/miss accounting.
        if x.len() != self.net.inputs() {
            return Err(format!(
                "input of width {} against network with {} inputs",
                x.len(),
                self.net.inputs()
            ));
        }
        if label >= self.net.outputs() {
            return Err(format!(
                "label {label} out of range for {} outputs",
                self.net.outputs()
            ));
        }
        if !self.net.is_piecewise_linear() {
            return Err("fault verification requires piecewise-linear activations".to_string());
        }
        model.validate(&self.net)?;
        let hit = self
            .fault_cache
            .lock()
            .expect("engine fault cache poisoned")
            .lookup(x, label, model);
        if let Some(outcome) = hit {
            return Ok(FaultReply {
                outcome,
                source: AnswerSource::ExactHit,
                stats: FaultStats::default(),
            });
        }
        let (outcome, stats) = self.faults.check_timed(x, label, model, timer)?;
        self.fault_stats
            .lock()
            .expect("engine fault stats poisoned")
            .merge(&stats);
        self.fault_cache
            .lock()
            .expect("engine fault cache poisoned")
            .insert(x, label, model, outcome.clone());
        Ok(FaultReply {
            outcome,
            source: AnswerSource::Solver,
            stats,
        })
    }

    /// Weight-noise fault tolerance of `x`
    /// ([`FaultChecker::tolerance`]) with every bisection probe flowing
    /// through [`Engine::fault_check`]'s cache — the probe sequence is a
    /// pure function of the verdicts, which cached answers reproduce
    /// exactly, so the result equals the cold search's bit for bit (a
    /// warm repeat issues zero checker runs).
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    pub fn fault_tolerance(
        &self,
        x: &[Rational],
        label: usize,
        search: &ToleranceSearch,
    ) -> Result<FaultTolerance, String> {
        self.fault_tolerance_traced(x, label, search, TierTimer::disabled())
            .map(|(tolerance, _, _)| tolerance)
    }

    /// [`Engine::fault_tolerance`] with an explicit [`TierTimer`],
    /// returning the merged checker stats of every bisection probe plus
    /// the aggregate answer source ([`AnswerSource::Solver`] if any
    /// probe ran the checker, else [`AnswerSource::ExactHit`] — the
    /// fault cache has no subsumption path). The tolerance is
    /// bit-identical to the untimed call.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    pub fn fault_tolerance_traced(
        &self,
        x: &[Rational],
        label: usize,
        search: &ToleranceSearch,
        timer: TierTimer,
    ) -> Result<(FaultTolerance, FaultStats, AnswerSource), String> {
        let mut acc = FaultStats::default();
        let mut solved = false;
        let tolerance = tolerance_search(search, |eps| {
            let reply = self.fault_check_traced(
                x,
                label,
                &FaultModel::WeightNoise { rel_eps: eps },
                timer,
            )?;
            acc.merge(&reply.stats);
            solved |= reply.source == AnswerSource::Solver;
            Ok::<_, String>(reply.outcome)
        })?;
        let source = if solved {
            AnswerSource::Solver
        } else {
            AnswerSource::ExactHit
        };
        Ok((tolerance, acc, source))
    }

    /// Cumulative fault-checker counters across every cold fault run.
    #[must_use]
    pub fn fault_solver_stats(&self) -> FaultStats {
        *self
            .fault_stats
            .lock()
            .expect("engine fault stats poisoned")
    }

    /// Lifetime fault-cache counters.
    #[must_use]
    pub fn fault_cache_stats(&self) -> FaultCacheStats {
        self.fault_cache
            .lock()
            .expect("engine fault cache poisoned")
            .stats()
    }

    /// Number of cached fault verdicts.
    #[must_use]
    pub fn fault_cache_len(&self) -> usize {
        self.fault_cache
            .lock()
            .expect("engine fault cache poisoned")
            .len()
    }

    /// Joint input×weight robustness of `x` under `noise` and `model`
    /// ([`JointChecker::check`]) through the joint-verdict cache — its
    /// own namespace, keyed by `(input, label, noise ranges, model)`
    /// under this engine's network fingerprint.
    ///
    /// Replies are **bit-identical** to a cold [`JointChecker`] with
    /// the default configuration: the cache reuses exact keys only (the
    /// monotone (δ, ε) order is withheld for the same incompleteness
    /// reason as the fault cache's) and the checker is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn joint_check(
        &self,
        x: &[Rational],
        label: usize,
        noise: &NoiseRegion,
        model: &FaultModel,
    ) -> Result<JointReply, String> {
        self.joint_check_traced(x, label, noise, model, TierTimer::disabled())
    }

    /// [`Engine::joint_check`] with an explicit [`TierTimer`] (see
    /// [`Engine::check_traced`]); cache hits still report zero stats.
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch, out-of-range label, or an
    /// out-of-domain model.
    pub fn joint_check_traced(
        &self,
        x: &[Rational],
        label: usize,
        noise: &NoiseRegion,
        model: &FaultModel,
        timer: TierTimer,
    ) -> Result<JointReply, String> {
        // Validate before touching the cache, so malformed queries
        // never skew the hit/miss accounting.
        if x.len() != self.net.inputs() {
            return Err(format!(
                "input of width {} against network with {} inputs",
                x.len(),
                self.net.inputs()
            ));
        }
        if noise.nodes() != self.net.inputs() {
            return Err(format!(
                "noise region over {} nodes against network with {} inputs",
                noise.nodes(),
                self.net.inputs()
            ));
        }
        if label >= self.net.outputs() {
            return Err(format!(
                "label {label} out of range for {} outputs",
                self.net.outputs()
            ));
        }
        if !self.net.is_piecewise_linear() {
            return Err("fault verification requires piecewise-linear activations".to_string());
        }
        model.validate(&self.net)?;
        let hit = self
            .joint_cache
            .lock()
            .expect("engine joint cache poisoned")
            .lookup(x, label, noise, model);
        if let Some(outcome) = hit {
            return Ok(JointReply {
                outcome,
                source: AnswerSource::ExactHit,
                stats: FaultStats::default(),
            });
        }
        let (outcome, stats) = self.joint.check_timed(x, label, noise, model, timer)?;
        self.joint_stats
            .lock()
            .expect("engine joint stats poisoned")
            .merge(&stats);
        self.joint_cache
            .lock()
            .expect("engine joint cache poisoned")
            .insert(x, label, noise, model, outcome.clone());
        Ok(JointReply {
            outcome,
            source: AnswerSource::Solver,
            stats,
        })
    }

    /// Joint tolerance at a fixed noise radius
    /// ([`JointChecker::tolerance`]) with every bisection probe flowing
    /// through [`Engine::joint_check`]'s cache — the probe sequence is
    /// a pure function of the verdicts, which cached answers reproduce
    /// exactly, so the result equals the cold search's bit for bit (a
    /// warm repeat issues zero checker runs).
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `[0, 100]` or the grid is invalid.
    pub fn joint_tolerance(
        &self,
        x: &[Rational],
        label: usize,
        delta: i64,
        search: &ToleranceSearch,
    ) -> Result<JointTolerance, String> {
        self.joint_tolerance_traced(x, label, delta, search, TierTimer::disabled())
            .map(|(tolerance, _, _)| tolerance)
    }

    /// [`Engine::joint_tolerance`] with an explicit [`TierTimer`] (see
    /// [`Engine::fault_tolerance_traced`] for the stats/source
    /// aggregation rules).
    ///
    /// # Errors
    ///
    /// Returns a message on width mismatch or out-of-range label.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `[0, 100]` or the grid is invalid.
    pub fn joint_tolerance_traced(
        &self,
        x: &[Rational],
        label: usize,
        delta: i64,
        search: &ToleranceSearch,
        timer: TierTimer,
    ) -> Result<(JointTolerance, FaultStats, AnswerSource), String> {
        let noise = NoiseRegion::symmetric(delta, x.len());
        let mut acc = FaultStats::default();
        let mut solved = false;
        let tolerance = fannet_search::tolerance_search(search, |eps| {
            let reply = self.joint_check_traced(
                x,
                label,
                &noise,
                &FaultModel::WeightNoise { rel_eps: eps },
                timer,
            )?;
            acc.merge(&reply.stats);
            solved |= reply.source == AnswerSource::Solver;
            Ok::<_, String>(reply.outcome.is_robust())
        })?;
        let source = if solved {
            AnswerSource::Solver
        } else {
            AnswerSource::ExactHit
        };
        Ok((tolerance, acc, source))
    }

    /// Cumulative joint-checker counters across every cold joint run.
    #[must_use]
    pub fn joint_solver_stats(&self) -> FaultStats {
        *self
            .joint_stats
            .lock()
            .expect("engine joint stats poisoned")
    }

    /// Lifetime joint-cache counters.
    #[must_use]
    pub fn joint_cache_stats(&self) -> ExactCacheStats {
        self.joint_cache
            .lock()
            .expect("engine joint cache poisoned")
            .stats()
    }

    /// Number of cached joint verdicts.
    #[must_use]
    pub fn joint_cache_len(&self) -> usize {
        self.joint_cache
            .lock()
            .expect("engine joint cache poisoned")
            .len()
    }
}

/// An engine answer to a fault query: the outcome plus how it was
/// obtained (`stats` are zero on cache hits, mirroring [`CheckReply`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReply {
    /// The verdict, bit-identical to a cold [`FaultChecker`] run.
    pub outcome: FaultOutcome,
    /// Cache path that produced it (fault lookups are exact-key only, so
    /// [`AnswerSource::SubsumptionHit`] never appears here).
    pub source: AnswerSource,
    /// Fault-checker counters of this answer (zero on cache hits).
    pub stats: FaultStats,
}

/// An engine answer to a joint input×weight query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointReply {
    /// The verdict, bit-identical to a cold [`JointChecker`] run.
    pub outcome: JointOutcome,
    /// Cache path that produced it (joint lookups are exact-key only,
    /// so [`AnswerSource::SubsumptionHit`] never appears here).
    pub source: AnswerSource,
    /// Joint-checker counters of this answer (zero on cache hits).
    pub stats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn check_cold_then_exact_hit() {
        let e = engine();
        let x = [r(100), r(82)];
        let region = NoiseRegion::symmetric(5, 2);
        let first = e.check(&x, 0, &region).unwrap();
        assert_eq!(first.source, AnswerSource::Solver);
        assert!(first.outcome.is_robust());
        let second = e.check(&x, 0, &region).unwrap();
        assert_eq!(second.source, AnswerSource::ExactHit);
        assert_eq!(second.outcome, first.outcome);
        assert_eq!(second.stats, BabStats::default(), "cache hits do no work");
        let s = e.stats();
        assert_eq!((s.exact_hits, s.misses), (1, 1));
    }

    #[test]
    fn robust_subsumption_answers_nested_check() {
        let e = engine();
        let x = [r(100), r(82)];
        let _ = e.check(&x, 0, &NoiseRegion::symmetric(9, 2)).unwrap();
        let nested = e.check(&x, 0, &NoiseRegion::symmetric(3, 2)).unwrap();
        assert_eq!(nested.source, AnswerSource::SubsumptionHit);
        assert!(nested.outcome.is_robust());
        assert_eq!(e.stats().subsumption_hits, 1);
    }

    #[test]
    fn check_replies_match_cold_solver_bit_for_bit() {
        let e = engine();
        let x = [r(100), r(82)];
        // Mixed robust/flipping deltas, issued twice (miss then hit paths).
        for _ in 0..2 {
            for delta in [3, 9, 12, 20, 7] {
                let region = NoiseRegion::symmetric(delta, 2);
                let reply = e.check(&x, 0, &region).unwrap();
                let (cold, _) =
                    bab::check_region(e.network(), &x, 0, &region, &ExclusionSet::new()).unwrap();
                assert_eq!(reply.outcome, cold, "delta {delta}");
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
            assert_eq!(e.tolerance(&x, 0, 20).unwrap(), want, "({x0}, {x1})");
        }
    }

    #[test]
    fn repeated_tolerance_resolves_from_cache_alone() {
        let e = engine();
        let x = [r(100), r(82)];
        assert_eq!(e.tolerance(&x, 0, 20).unwrap(), Some(10));
        let misses_before = e.stats().misses;
        let subsumed_before = e.stats().subsumption_hits;
        assert_eq!(e.tolerance(&x, 0, 20).unwrap(), Some(10));
        assert_eq!(
            e.stats().misses,
            misses_before,
            "no solver runs on re-search"
        );
        assert!(
            e.stats().subsumption_hits > subsumed_before,
            "the warm-start bracket is a subsumption answer: {:?}",
            e.stats()
        );
    }

    #[test]
    fn tolerance_warm_starts_from_check_traffic() {
        let e = engine();
        let x = [r(100), r(82)];
        // Prior check traffic proves ±9 robust; the radius search's
        // bracket reuses that verdict instead of re-probing below it.
        let _ = e.check(&x, 0, &NoiseRegion::symmetric(9, 2)).unwrap();
        let subsumed_before = e.stats().subsumption_hits;
        assert_eq!(e.tolerance(&x, 0, 50).unwrap(), Some(10));
        assert!(e.stats().subsumption_hits > subsumed_before);
        // All later probes stay strictly above the bracket's floor.
        assert_eq!(e.tolerance(&x, 0, 9).unwrap(), None, "±9 is proven robust");
    }

    #[test]
    fn collect_feeds_solver_stats() {
        let e = engine();
        let x = [r(100), r(99)];
        let (ces, exhausted, _) = e
            .collect(&x, 0, &NoiseRegion::symmetric(3, 2), usize::MAX)
            .unwrap();
        assert!(exhausted);
        assert!(!ces.is_empty());
        assert!(e.solver_stats().boxes_visited > 0);
    }

    #[test]
    fn width_mismatches_are_errors_not_panics() {
        let e = engine();
        assert!(e.check(&[r(1)], 0, &NoiseRegion::symmetric(1, 2)).is_err());
        assert!(e
            .check(&[r(1), r(2)], 0, &NoiseRegion::symmetric(1, 3))
            .is_err());
        assert!(e.tolerance(&[r(1)], 0, 10).is_err());
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
        for eps in [(1i128, 100i128), (5, 100), (15, 100)] {
            let model = FaultModel::WeightNoise {
                rel_eps: Rational::new(eps.0, eps.1),
            };
            let (cold, cold_stats) = cold_checker.check(&x, 0, &model).unwrap();
            let first = e.fault_check(&x, 0, &model).unwrap();
            assert_eq!(first.source, AnswerSource::Solver);
            assert_eq!(first.outcome, cold, "eps {eps:?}");
            assert_eq!(first.stats, cold_stats);
            let warm = e.fault_check(&x, 0, &model).unwrap();
            assert_eq!(warm.source, AnswerSource::ExactHit);
            assert_eq!(warm.outcome, cold);
            assert_eq!(warm.stats, FaultStats::default(), "hits do no work");
        }
        let stats = e.fault_cache_stats();
        assert_eq!((stats.hits, stats.misses), (3, 3));
        assert_eq!(e.fault_cache_len(), 3);
        assert!(e.fault_solver_stats().concrete_evals > 0);
    }

    #[test]
    fn fault_tolerance_matches_cold_search_and_replays_from_cache() {
        let e = engine();
        let cold_checker = FaultChecker::new(comparator(), FaultCheckerConfig::default());
        let search = ToleranceSearch::new(1000, 400);
        for (x0, x1) in [(100i128, 82i128), (100, 95), (100, 50)] {
            let x = [r(x0), r(x1)];
            let (cold, _) = cold_checker.tolerance(&x, 0, &search).unwrap();
            let warm = e.fault_tolerance(&x, 0, &search).unwrap();
            assert_eq!(warm, cold, "({x0}, {x1})");
            // The repeat resolves every probe from the cache.
            let misses_before = e.fault_cache_stats().misses;
            let again = e.fault_tolerance(&x, 0, &search).unwrap();
            assert_eq!(again, cold);
            assert_eq!(
                e.fault_cache_stats().misses,
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
            vec![fannet_nn::DenseLayer::new(
                fannet_tensor::Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                fannet_nn::Activation::Sigmoid,
            )
            .unwrap()],
            fannet_nn::Readout::MaxPool,
        )
        .unwrap();
        let e = Engine::new(
            net,
            EngineConfig {
                checker: CheckerConfig::serial_exact(),
                cache_capacity: 16,
            },
        );
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(1, 100),
        };
        let err = e.fault_check(&[r(1), r(2)], 0, &model).unwrap_err();
        assert!(err.contains("piecewise-linear"), "{err}");
        // Width/label/admissibility failures are all rejected before the
        // cache, so the hit/miss accounting stays clean.
        assert!(e.fault_check(&[r(1)], 0, &model).is_err());
        assert!(e.fault_check(&[r(1), r(2)], 9, &model).is_err());
        let stats = e.fault_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "{stats:?}");
    }

    #[test]
    fn joint_check_cold_then_exact_hit_bit_identical() {
        let e = engine();
        let x = [r(100), r(82)];
        let cold_checker = JointChecker::new(comparator(), FaultCheckerConfig::default());
        let noise = NoiseRegion::symmetric(3, 2);
        for eps in [(1i128, 100i128), (4, 100), (15, 100)] {
            let model = FaultModel::WeightNoise {
                rel_eps: Rational::new(eps.0, eps.1),
            };
            let (cold, cold_stats) = cold_checker.check(&x, 0, &noise, &model).unwrap();
            let first = e.joint_check(&x, 0, &noise, &model).unwrap();
            assert_eq!(first.source, AnswerSource::Solver);
            assert_eq!(first.outcome, cold, "eps {eps:?}");
            assert_eq!(first.stats, cold_stats);
            let warm = e.joint_check(&x, 0, &noise, &model).unwrap();
            assert_eq!(warm.source, AnswerSource::ExactHit);
            assert_eq!(warm.outcome, cold);
            assert_eq!(warm.stats, FaultStats::default(), "hits do no work");
        }
        let stats = e.joint_cache_stats();
        assert_eq!((stats.hits, stats.misses), (3, 3));
        assert_eq!(e.joint_cache_len(), 3);
        assert!(e.joint_solver_stats().concrete_evals > 0);
        // The joint namespace is disjoint from the fault cache.
        assert_eq!(e.fault_cache_len(), 0);
    }

    #[test]
    fn joint_tolerance_matches_cold_search_and_replays_from_cache() {
        let e = engine();
        let cold_checker = JointChecker::new(comparator(), FaultCheckerConfig::default());
        let search = ToleranceSearch::new(100, 25);
        for delta in [0i64, 2, 5] {
            let x = [r(100), r(82)];
            let (cold, _) = cold_checker.tolerance(&x, 0, delta, &search).unwrap();
            let warm = e.joint_tolerance(&x, 0, delta, &search).unwrap();
            assert_eq!(warm, cold, "delta {delta}");
            // The repeat resolves every probe from the cache.
            let misses_before = e.joint_cache_stats().misses;
            let again = e.joint_tolerance(&x, 0, delta, &search).unwrap();
            assert_eq!(again, cold);
            assert_eq!(
                e.joint_cache_stats().misses,
                misses_before,
                "warm re-search must issue zero checker runs"
            );
        }
    }

    #[test]
    fn joint_queries_reject_bad_inputs() {
        let e = engine();
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(1, 100),
        };
        let noise = NoiseRegion::symmetric(2, 2);
        assert!(e.joint_check(&[r(1)], 0, &noise, &model).is_err());
        assert!(e.joint_check(&[r(1), r(2)], 9, &noise, &model).is_err());
        assert!(e
            .joint_check(&[r(1), r(2)], 0, &NoiseRegion::symmetric(1, 3), &model)
            .is_err());
        let stats = e.joint_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "{stats:?}");
    }

    #[test]
    fn fault_queries_reject_bad_inputs() {
        let e = engine();
        let model = FaultModel::WeightNoise {
            rel_eps: Rational::new(1, 100),
        };
        assert!(e.fault_check(&[r(1)], 0, &model).is_err());
        assert!(e.fault_check(&[r(1), r(2)], 9, &model).is_err());
        assert!(e
            .fault_check(
                &[r(1), r(2)],
                0,
                &FaultModel::StuckAt {
                    layer: 7,
                    neuron: 0,
                    value: Rational::ZERO,
                }
            )
            .is_err());
    }
}
