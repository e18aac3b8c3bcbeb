//! The branch-and-bound decision procedure over noise boxes — the
//! input-noise instantiation of the generic `fannet-search` core
//! (DESIGN.md §5/§12).
//!
//! This is the reproduction's substitute for nuXmv's symbolic search (see
//! DESIGN.md §5). The property checked is the paper's **P2**
//! (`OCn = Sx`, the noisy output class equals the true label) for every
//! noise vector in a [`NoiseRegion`], with optional exclusion of
//! already-extracted vectors (**P3**).
//!
//! The domain plugged into [`fannet_search`] is:
//!
//! * **regions** — integer-percent noise boxes ([`NoiseRegion`]), split
//!   on the widest dimension, terminating at grid points;
//! * **screens** — the screen pass of both domains
//!   ([`crate::screen::Screens`]) over the network's resident shadows:
//!   the float-interval screen ([`crate::propagate::FloatShadow`],
//!   DESIGN.md §6), then under [`ScreeningTier::Cascade`] the
//!   correlation-tracking zonotope screen
//!   ([`crate::zonotope::ZonotopeShadow`], DESIGN.md §10). A box every
//!   active screen leaves `Unknown` splits at once; exact rational
//!   interval propagation ([`crate::propagate::output_intervals`]) is
//!   the box tier only of the unscreened search
//!   ([`ScreeningTier::None`]);
//! * **witnesses** — exact [`exact::Counterexample`] records; singleton
//!   boxes are decided by ground-truth rational evaluation, and a box
//!   proved uniformly wrong yields its first fresh point in split-tree
//!   order ([`NoiseRegion::iter_points`]).
//!
//! Every verdict is exact: the screening tiers are sound
//! over-approximations and the singleton fallback is ground truth, so
//! the procedure is **sound and complete over the integer noise grid** —
//! the same finite state space the paper's model checker explores.
//! Completeness holds because splitting strictly shrinks boxes,
//! terminating at singletons; the search therefore never returns
//! `Undecided` here. Witnesses are tier-independent too: pruning only
//! drops boxes without a fresh witness, and a uniformly wrong box lists
//! its points in the order further splitting would reach them, so every
//! configuration returns the witness first in split-tree order
//! (DESIGN.md §5).
//!
//! Each query runs [`fannet_search::search_serial`] on the calling
//! thread; analyses parallelize across queries instead (DESIGN.md §7).

use std::borrow::Cow;

use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::{BoxDecision, SearchDomain, SearchOutcome, TierKind, TierTimer};
use fannet_tensor::ShapeError;
use serde::{Deserialize, Serialize};

use crate::exact;
use crate::noise::{ExclusionSet, NoiseVector};
use crate::propagate::{classify_box, output_intervals, BoxVerdict, FloatShadow};
use crate::region::NoiseRegion;
use crate::screen::Screens;
use crate::zonotope::ZonotopeShadow;

pub use fannet_search::ScreeningTier;
/// Search statistics of the input-noise checker — since the
/// `fannet-search` extraction this *is* the unified
/// [`fannet_search::SearchStats`] block (the budget and concrete-eval
/// counters stay zero here; the grid search is complete and
/// unbudgeted).
pub use fannet_search::SearchStats as BabStats;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "FANNET_THREADS";

/// How a region check runs: which screening tiers are active.
///
/// All configurations decide the *same* property with the *same* outcome
/// and counterexample (enforced by `tests/checker_cross_validation.rs`);
/// they differ only in wall-clock cost.
///
/// # Examples
///
/// ```
/// use fannet_verify::bab::{CheckerConfig, ScreeningTier};
///
/// assert_eq!(CheckerConfig::serial_exact().screening, ScreeningTier::None);
/// assert_eq!(CheckerConfig::cascade().screening, ScreeningTier::Cascade);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckerConfig {
    /// Screening tiers each box routes through. With any screen active,
    /// a box no screen can decide splits and exact rational evaluation
    /// runs only at grid points; [`ScreeningTier::None`] runs exact
    /// interval propagation on every box instead.
    pub screening: ScreeningTier,
}

impl CheckerConfig {
    /// The seed baseline: exact propagation only.
    #[must_use]
    pub fn serial_exact() -> Self {
        CheckerConfig {
            screening: ScreeningTier::None,
        }
    }

    /// Float-interval screening.
    #[must_use]
    pub fn screened() -> Self {
        CheckerConfig {
            screening: ScreeningTier::Interval,
        }
    }

    /// The full cascade: interval → zonotope, splitting what neither
    /// decides.
    #[must_use]
    pub fn cascade() -> Self {
        CheckerConfig {
            screening: ScreeningTier::Cascade,
        }
    }

    /// Overrides the screening tier.
    #[must_use]
    pub fn with_screening(mut self, tier: ScreeningTier) -> Self {
        self.screening = tier;
        self
    }
}

/// Worker count of the across-query layers — the per-input fan-out of
/// the `fannet-core` analyses and the `fannet serve`/`listen` worker
/// pool: the `FANNET_THREADS` environment variable when set, otherwise
/// the machine's available parallelism.
///
/// A value of `0` — or one that does not parse as an unsigned integer —
/// falls back to all cores; an unparsable value additionally emits a
/// one-time warning on stderr (a silently ignored override is worse than
/// a noisy one).
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        match v.trim().parse::<usize>() {
            Ok(0) => {} // documented "use all cores" spelling
            Ok(n) => return n,
            Err(_) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    fannet_obs::log::warn(
                        "fannet_verify::bab",
                        "ignoring unparsable thread override; falling back to all cores",
                        &[("var", THREADS_ENV.into()), ("value", v.as_str().into())],
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Outcome of a region check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionOutcome {
    /// P2 holds: no noise vector in the region (outside the exclusion set)
    /// misclassifies the input. This is a *proof*.
    Robust,
    /// A fresh counterexample violating P2.
    Counterexample(exact::Counterexample),
}

impl RegionOutcome {
    /// `true` for [`RegionOutcome::Robust`].
    #[must_use]
    pub fn is_robust(&self) -> bool {
        matches!(self, RegionOutcome::Robust)
    }

    /// The counterexample, if any.
    #[must_use]
    pub fn counterexample(&self) -> Option<&exact::Counterexample> {
        match self {
            RegionOutcome::Robust => None,
            RegionOutcome::Counterexample(ce) => Some(ce),
        }
    }
}

/// Checks property P2 on `region` with the seed's serial-exact
/// configuration: does any noise vector (not in `excluded`) flip the
/// classification of `x` away from `label`?
///
/// Returns the outcome together with search statistics. This is the
/// baseline the faster configurations are cross-validated against; use
/// [`check_region_with`] + [`CheckerConfig::cascade`] for the screened
/// checker.
///
/// # Errors
///
/// Returns [`ShapeError`] if input/region/network widths disagree.
///
/// # Panics
///
/// Panics if the network is not piecewise-linear or `label` is out of
/// range.
///
/// # Examples
///
/// ```
/// use fannet_numeric::Rational;
/// use fannet_nn::{Activation, DenseLayer, Network, Readout};
/// use fannet_tensor::Matrix;
/// use fannet_verify::{bab, noise::ExclusionSet, region::NoiseRegion};
///
/// // Identity comparator: label 0 iff x0 ≥ x1.
/// let r = |n: i128| Rational::from_integer(n);
/// let net = Network::new(vec![DenseLayer::new(
///     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
///     vec![r(0), r(0)],
///     Activation::Identity,
/// )?], Readout::MaxPool)?;
///
/// let x = [r(100), r(82)];
/// // Flipping needs 100·(100−Δ) < 82·(100+Δ), i.e. Δ ≥ 10.
/// let (safe, _) = bab::check_region(&net, &x, 0, &NoiseRegion::symmetric(9, 2), &ExclusionSet::new())?;
/// assert!(safe.is_robust());
/// let (flipped, _) = bab::check_region(&net, &x, 0, &NoiseRegion::symmetric(10, 2), &ExclusionSet::new())?;
/// assert!(!flipped.is_robust());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_region(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    excluded: &ExclusionSet,
) -> Result<(RegionOutcome, BabStats), ShapeError> {
    check_region_with(
        net,
        x,
        label,
        region,
        excluded,
        &CheckerConfig::serial_exact(),
    )
}

/// [`check_region`] under an explicit [`CheckerConfig`] — the entry point
/// of the tiered checker.
///
/// # Errors
///
/// Returns [`ShapeError`] if input/region/network widths disagree.
///
/// # Panics
///
/// Panics if the network is not piecewise-linear or `label` is out of
/// range.
pub fn check_region_with(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    excluded: &ExclusionSet,
    config: &CheckerConfig,
) -> Result<(RegionOutcome, BabStats), ShapeError> {
    RegionChecker::new(net, config.clone()).check_region(x, label, region, excluded)
}

/// A reusable query handle: the network plus its screening shadows, built
/// **once** and shared across any number of queries (and across threads —
/// the handle is `Sync`).
///
/// The analyses in `fannet-core` issue thousands of P2/P3 queries against
/// the same network; constructing one `RegionChecker` up front amortizes
/// the shadow construction over all of them. The free functions
/// ([`check_region_with`] etc.) remain as one-shot conveniences.
#[derive(Debug, Clone)]
pub struct RegionChecker<'n> {
    net: &'n Network<Rational>,
    config: CheckerConfig,
    /// Owned when this handle built the shadow itself, borrowed when a
    /// resident owner (`fannet-engine`) lends its per-network copy — the
    /// serving hot path must not deep-clone every enclosed weight per
    /// query.
    shadow: Option<Cow<'n, FloatShadow>>,
    zonotope: Option<Cow<'n, ZonotopeShadow>>,
}

impl<'n> RegionChecker<'n> {
    /// Builds the handle; each screening shadow is constructed here iff
    /// its tier is active in `config.screening`.
    ///
    /// # Panics
    ///
    /// Panics if screening is requested and the network is not
    /// piecewise-linear.
    #[must_use]
    pub fn new(net: &'n Network<Rational>, config: CheckerConfig) -> Self {
        Self::with_shadows(net, config, None, None)
    }

    /// Builds the handle around borrowed shadows constructed elsewhere —
    /// the cache hook used by `fannet-engine`, whose resident `Engine`
    /// owns the network, one [`FloatShadow`] and one [`ZonotopeShadow`],
    /// and stamps out per-query handles without re-enclosing (or
    /// cloning) a single weight.
    ///
    /// Both shadows must have been built from `net`; each is consulted
    /// iff its tier is active in `config.screening` (a `None` shadow with
    /// its tier enabled is built and owned here, an unused one is
    /// ignored).
    #[must_use]
    pub fn with_shadows(
        net: &'n Network<Rational>,
        config: CheckerConfig,
        shadow: Option<&'n FloatShadow>,
        zonotope: Option<&'n ZonotopeShadow>,
    ) -> Self {
        let shadow = config
            .screening
            .is_active()
            .then(|| shadow.map_or_else(|| Cow::Owned(FloatShadow::new(net)), Cow::Borrowed));
        let zonotope = config
            .screening
            .uses_zonotope()
            .then(|| zonotope.map_or_else(|| Cow::Owned(ZonotopeShadow::new(net)), Cow::Borrowed));
        RegionChecker {
            net,
            config,
            shadow,
            zonotope,
        }
    }

    /// The configuration this handle runs under.
    #[must_use]
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The network this handle queries.
    #[must_use]
    pub fn network(&self) -> &'n Network<Rational> {
        self.net
    }

    /// [`check_region`] through this handle (see the free function for
    /// semantics).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn check_region(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        excluded: &ExclusionSet,
    ) -> Result<(RegionOutcome, BabStats), ShapeError> {
        self.check_region_timed(x, label, region, excluded, TierTimer::disabled())
    }

    /// [`RegionChecker::check_region`] with an explicit [`TierTimer`]:
    /// an enabled timer additionally books per-tier nanoseconds
    /// (`interval_ns`/`zonotope_ns`/`exact_ns`) into the returned stats
    /// for cost attribution (DESIGN.md §14). The verdict, witness and
    /// every counter are bit-identical to the untimed call — only the
    /// never-serialized timing fields differ.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn check_region_timed(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        excluded: &ExclusionSet,
        timer: TierTimer,
    ) -> Result<(RegionOutcome, BabStats), ShapeError> {
        assert!(label < self.net.outputs(), "label {label} out of range");
        validate_widths(self.net, x, region)?;
        let ctx = self.query(x, label, excluded, timer);
        let (outcome, stats) = fannet_search::search_serial(&ctx, region.clone(), None);
        let outcome = match outcome {
            SearchOutcome::Proven => RegionOutcome::Robust,
            SearchOutcome::Witness(ce) => RegionOutcome::Counterexample(ce),
            // Splitting terminates at grid points and nothing is ever
            // abandoned: the grid search is complete.
            SearchOutcome::Undecided => unreachable!("the noise-grid search is complete"),
        };
        Ok((outcome, stats))
    }

    /// [`collect_region_counterexamples`] through this handle (see the
    /// free function for semantics).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input/region/network widths disagree.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or `cap == 0`.
    pub fn collect_region_counterexamples(
        &self,
        x: &[Rational],
        label: usize,
        region: &NoiseRegion,
        cap: usize,
    ) -> Result<(Vec<exact::Counterexample>, bool, BabStats), ShapeError> {
        assert!(label < self.net.outputs(), "label {label} out of range");
        assert!(cap > 0, "cap must be positive");
        validate_widths(self.net, x, region)?;
        let excluded = ExclusionSet::new();
        let ctx = self.query(x, label, &excluded, TierTimer::disabled());
        // With an empty exclusion set the uniform witness is the box's
        // first grid point; the remaining points all misclassify too
        // (interval proof), so the expansion enumerates them directly,
        // in the split-tree order further splitting would reach them.
        let expand = |uniform: &NoiseRegion,
                      first: exact::Counterexample,
                      sink: &mut Vec<exact::Counterexample>,
                      _stats: &mut BabStats|
         -> bool {
            sink.push(first);
            if sink.len() == cap {
                return false;
            }
            for nv in uniform.iter_points().skip(1) {
                let ce = exact::witness(self.net, x, label, &nv)
                    .expect("widths validated at query entry")
                    .expect("interval proof of misclassification is sound");
                sink.push(ce);
                if sink.len() == cap {
                    return false;
                }
            }
            true
        };
        let (found, exhausted, stats) =
            fannet_search::collect_witnesses(&ctx, region.clone(), cap, None, expand);
        Ok((found, exhausted, stats))
    }

    /// The search domain of one query over this handle's shadows.
    fn query<'a>(
        &'a self,
        x: &'a [Rational],
        label: usize,
        excluded: &'a ExclusionSet,
        timer: TierTimer,
    ) -> QueryContext<'a> {
        QueryContext {
            net: self.net,
            x,
            label,
            excluded,
            float: self.shadow.as_deref(),
            zonotope: self.zonotope.as_deref(),
            screens: Screens::new(x, label, self.config.screening, timer),
        }
    }
}

/// Convenience wrapper: P2 without any exclusions (serial-exact baseline).
///
/// # Errors
///
/// Returns [`ShapeError`] if widths disagree.
pub fn find_counterexample(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
) -> Result<(RegionOutcome, BabStats), ShapeError> {
    check_region(net, x, label, region, &ExclusionSet::new())
}

/// [`find_counterexample`] under an explicit configuration.
///
/// # Errors
///
/// Returns [`ShapeError`] if widths disagree.
pub fn find_counterexample_with(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    config: &CheckerConfig,
) -> Result<(RegionOutcome, BabStats), ShapeError> {
    check_region_with(net, x, label, region, &ExclusionSet::new(), config)
}

/// Exhaustive grid enumeration of the same property — exponentially slower
/// but trivially correct. Exists as the baseline of `repro`'s A2 ablation
/// and as a cross-check oracle in tests. It enumerates in the
/// canonical split-tree order ([`NoiseRegion::iter_points`]), so its
/// witness is the branch-and-bound's.
///
/// # Errors
///
/// Returns [`ShapeError`] if widths disagree.
pub fn check_region_exhaustive(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    excluded: &ExclusionSet,
) -> Result<(RegionOutcome, BabStats), ShapeError> {
    let mut stats = BabStats::default();
    for nv in region.iter_points() {
        stats.exact_evals += 1;
        if excluded.contains(&nv) {
            continue;
        }
        if let Some(ce) = exact::witness(net, x, label, &nv)? {
            return Ok((RegionOutcome::Counterexample(ce), stats));
        }
    }
    Ok((RegionOutcome::Robust, stats))
}

fn first_not_excluded(region: &NoiseRegion, excluded: &ExclusionSet) -> Option<NoiseVector> {
    // The exclusion set is finite, so at most |excluded| + 1 probes, in
    // the split-tree order the search itself would visit them.
    region.iter_points().find(|nv| !excluded.contains(nv))
}

/// Collects up to `cap` distinct counterexamples in a **single**
/// branch-and-bound pass (serial-exact baseline).
///
/// Semantically equivalent to running the P3 restart loop
/// ([`crate::enumerate::CounterexampleEnumerator`]) `cap` times, but each
/// proven-safe box is pruned once instead of once per restart — the
/// asymptotic difference between `O(search)` and `O(cap · search)`. The
/// returned flag is `true` when the region was exhausted (every
/// misclassifying vector found before the cap).
///
/// # Errors
///
/// Returns [`ShapeError`] if input/region/network widths disagree.
///
/// # Panics
///
/// Panics if the network is not piecewise-linear, `label` is out of range,
/// or `cap == 0`.
pub fn collect_region_counterexamples(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    cap: usize,
) -> Result<(Vec<exact::Counterexample>, bool, BabStats), ShapeError> {
    collect_region_counterexamples_with(net, x, label, region, cap, &CheckerConfig::serial_exact())
}

/// [`collect_region_counterexamples`] with optional float screening.
///
/// Collection order is the split-tree order of the region's points
/// ([`NoiseRegion::iter_points`]) under every configuration, so results
/// — capped lists included — are identical across configurations.
///
/// # Errors
///
/// Returns [`ShapeError`] if input/region/network widths disagree.
///
/// # Panics
///
/// Panics if the network is not piecewise-linear, `label` is out of range,
/// or `cap == 0`.
pub fn collect_region_counterexamples_with(
    net: &Network<Rational>,
    x: &[Rational],
    label: usize,
    region: &NoiseRegion,
    cap: usize,
    config: &CheckerConfig,
) -> Result<(Vec<exact::Counterexample>, bool, BabStats), ShapeError> {
    RegionChecker::new(net, config.clone()).collect_region_counterexamples(x, label, region, cap)
}

// ---------------------------------------------------------------------------
// The input-noise search domain
// ---------------------------------------------------------------------------

fn validate_widths(
    net: &Network<Rational>,
    x: &[Rational],
    region: &NoiseRegion,
) -> Result<(), ShapeError> {
    if x.len() != net.inputs() {
        return Err(ShapeError::new(format!(
            "input of width {} against network with {} inputs",
            x.len(),
            net.inputs()
        )));
    }
    if region.nodes() != net.inputs() {
        return Err(ShapeError::new(format!(
            "noise region over {} nodes against network with {} inputs",
            region.nodes(),
            net.inputs()
        )));
    }
    Ok(())
}

/// Everything immutable the search needs to decide boxes for one query.
struct QueryContext<'a> {
    net: &'a Network<Rational>,
    x: &'a [Rational],
    label: usize,
    excluded: &'a ExclusionSet,
    /// The network's resident shadows, present iff their screen runs.
    float: Option<&'a FloatShadow>,
    zonotope: Option<&'a ZonotopeShadow>,
    screens: Screens,
}

impl SearchDomain for QueryContext<'_> {
    type Region = NoiseRegion;
    type Witness = exact::Counterexample;

    /// Classifies one box through the active tiers, updating `stats`.
    ///
    /// In a screened search a box counts as a `screen_hit` when some
    /// screening tier decided it, and as a `screen_fallback` when every
    /// screen returned `Unknown` — the box then splits, or, at a grid
    /// point, is evaluated exactly, so `screen_fallbacks == splits +
    /// exact_evals`. `interval_*`/`zonotope_*` additionally record which
    /// tier classified each screened box. The unscreened search books
    /// its exact box tier as `exact_decisions`/`exact_fallbacks`, so
    /// there `exact_fallbacks == splits`. Widths were validated at query
    /// entry, so propagation cannot fail.
    fn decide(
        &self,
        current: &NoiseRegion,
        _depth: u32,
        stats: &mut BabStats,
    ) -> BoxDecision<NoiseRegion, exact::Counterexample> {
        // Screening tiers, cheapest first (sound by over-approximation).
        let mut verdict = self
            .screens
            .classify(self.float, self.zonotope, current, stats);
        let screened = self.screens.is_active();
        // Exact rational work below shares the screens' timer so traced
        // queries attribute every tier's cost, untraced ones pay nothing.
        let timer = self.screens.timer();

        if current.is_point() {
            // A screening tier can prove a point correct and skip the
            // exact forward pass; everything else needs the exact
            // evaluation anyway (a counterexample record carries exact
            // outputs).
            if verdict == BoxVerdict::AlwaysCorrect {
                stats.screen_hits += 1;
                stats.pruned_correct += 1;
                return BoxDecision::Pruned;
            }
            if screened {
                stats.screen_fallbacks += 1;
            }
            stats.exact_evals += 1;
            let nv = current.to_vector();
            if self.excluded.contains(&nv) {
                return BoxDecision::Pruned;
            }
            let (witness, ns) = timer.time(|| exact::witness(self.net, self.x, self.label, &nv));
            stats.exact_ns = stats.exact_ns.saturating_add(ns);
            return match witness.expect("widths validated at query entry") {
                Some(ce) => BoxDecision::Witness(ce),
                None => BoxDecision::Pruned,
            };
        }

        // With any screen active, a box every screen leaves `Unknown`
        // splits at once: exact interval propagation rarely decides such
        // a box (behind the interval screen, only within its rounding
        // slack), and splitting reaches the same verdict and — in
        // split-tree order — the same witnesses (DESIGN.md §6). Exact
        // propagation is the box tier of the unscreened search only.
        if screened {
            if verdict == BoxVerdict::Unknown {
                stats.screen_fallbacks += 1;
            } else {
                stats.screen_hits += 1;
            }
        } else {
            let (exact_verdict, ns) = timer.time(|| {
                let enclosure = output_intervals(self.net, self.x, current)
                    .expect("widths validated at query entry");
                classify_box(&enclosure, self.label)
            });
            stats.book_tier(TierKind::Exact, exact_verdict, ns);
            verdict = exact_verdict;
        }

        match verdict {
            BoxVerdict::AlwaysCorrect => {
                stats.pruned_correct += 1;
                BoxDecision::Pruned
            }
            BoxVerdict::AlwaysWrong => {
                stats.proved_wrong += 1;
                // Every grid point misclassifies; emit the first fresh one.
                match first_not_excluded(current, self.excluded) {
                    Some(nv) => {
                        let ce = exact::witness(self.net, self.x, self.label, &nv)
                            .expect("widths validated at query entry")
                            .expect("interval proof of misclassification is sound");
                        BoxDecision::UniformWitness(ce)
                    }
                    // Entire box already extracted — nothing fresh here.
                    None => BoxDecision::Pruned,
                }
            }
            BoxVerdict::Unknown => {
                stats.splits += 1;
                let (a, b) = current.split().expect("non-point boxes split");
                BoxDecision::Split(a, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

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

    /// 2-3-2 ReLU network with interesting nonlinearity.
    fn relu_net() -> Network<Rational> {
        let hidden = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(2), r(-1)], vec![r(-1), r(2)], vec![r(1), r(1)]])
                .unwrap(),
            vec![r(-10), r(-10), r(0)],
            Activation::ReLU,
        )
        .unwrap();
        let output = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(1), r(0), r(1)], vec![r(0), r(1), r(1)]]).unwrap(),
            vec![r(0), r(0)],
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }

    /// Every configuration the cross-validation invariants quantify over.
    fn all_configs() -> Vec<CheckerConfig> {
        vec![
            CheckerConfig::serial_exact(),
            CheckerConfig::screened(),
            CheckerConfig::cascade(),
        ]
    }

    #[test]
    fn robust_when_gap_exceeds_noise() {
        let net = comparator();
        let x = [r(100), r(80)];
        for config in all_configs() {
            let (out, stats) =
                find_counterexample_with(&net, &x, 0, &NoiseRegion::symmetric(5, 2), &config)
                    .unwrap();
            assert!(out.is_robust(), "{config:?}");
            assert!(stats.boxes_visited >= 1);
        }
    }

    #[test]
    fn finds_counterexample_at_boundary() {
        let net = comparator();
        let x = [r(100), r(80)];
        // x0·(1-11%) = 89 < x1·(1+11%) = 88.8? 89 > 88.8 — still correct.
        // Need -10% & +13%... compute: flipping needs x0(100+p0) < x1(100+p1)
        // ⇔ 100(100+p0) < 80(100+p1). At p0=-11, p1=+11: 8900 vs 8880 → ok.
        // At p0=-12, p1=+12: 8800 vs 8960 → flip. So Δ=12 flips, Δ=11 not.
        for config in all_configs() {
            let (out11, _) =
                find_counterexample_with(&net, &x, 0, &NoiseRegion::symmetric(11, 2), &config)
                    .unwrap();
            assert!(out11.is_robust(), "±11% must be safe for {config:?}");
            let (out12, _) =
                find_counterexample_with(&net, &x, 0, &NoiseRegion::symmetric(12, 2), &config)
                    .unwrap();
            let ce = out12.counterexample().expect("±12% must flip");
            assert_eq!(ce.expected, 0);
            assert_eq!(ce.predicted, 1);
            assert!(ce.noise.max_abs() <= 12);
            // Verify the witness exactly.
            assert_ne!(
                exact::classify_noisy(&net, &x, &ce.noise).unwrap(),
                0,
                "witness must really misclassify"
            );
        }
    }

    #[test]
    fn agrees_with_exhaustive_oracle() {
        let net = relu_net();
        let inputs = [
            [r(12), r(5)],
            [r(5), r(12)],
            [r(9), r(8)],
            [r(-3), r(4)],
            [r(30), r(29)],
        ];
        for x in &inputs {
            let label = net.classify(x).unwrap();
            for delta in [0, 1, 2, 4, 8] {
                let region = NoiseRegion::symmetric(delta, 2);
                let (exh_out, _) =
                    check_region_exhaustive(&net, x, label, &region, &ExclusionSet::new()).unwrap();
                for config in all_configs() {
                    let (bab_out, _) =
                        find_counterexample_with(&net, x, label, &region, &config).unwrap();
                    assert_eq!(
                        bab_out.is_robust(),
                        exh_out.is_robust(),
                        "disagreement at x={x:?} delta={delta} config={config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_configs_return_identical_counterexamples() {
        let net = relu_net();
        // Inputs chosen to have counterexamples at modest deltas.
        for x in [[r(9), r(8)], [r(30), r(29)], [r(12), r(5)]] {
            let label = net.classify(&x).unwrap();
            for delta in [3, 6, 10] {
                let region = NoiseRegion::symmetric(delta, 2);
                let (baseline, _) = find_counterexample(&net, &x, label, &region).unwrap();
                for config in all_configs() {
                    let (out, _) =
                        find_counterexample_with(&net, &x, label, &region, &config).unwrap();
                    assert_eq!(
                        baseline.counterexample().map(|c| &c.noise),
                        out.counterexample().map(|c| &c.noise),
                        "CE identity must not depend on {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn screening_stats_are_recorded() {
        let net = relu_net();
        let x = [r(9), r(8)];
        let label = net.classify(&x).unwrap();
        let region = NoiseRegion::symmetric(6, 2);
        let (_, stats) =
            find_counterexample_with(&net, &x, label, &region, &CheckerConfig::screened()).unwrap();
        assert!(
            stats.screen_hits + stats.screen_fallbacks > 0,
            "screening must have been exercised: {stats:?}"
        );
        assert!(stats.screen_hit_rate().is_some());
        // The serial-exact baseline records no screening activity.
        let (_, base) = find_counterexample(&net, &x, label, &region).unwrap();
        assert_eq!(base.screen_hits, 0);
        assert_eq!(base.screen_fallbacks, 0);
        assert_eq!(base.screen_hit_rate(), None);
    }

    #[test]
    fn exclusion_forces_fresh_counterexamples() {
        let net = comparator();
        let x = [r(100), r(99)];
        let region = NoiseRegion::symmetric(3, 2);
        for config in all_configs() {
            let mut excluded = ExclusionSet::new();
            let mut found = Vec::new();
            loop {
                let (out, _) = check_region_with(&net, &x, 0, &region, &excluded, &config).unwrap();
                match out {
                    RegionOutcome::Counterexample(ce) => {
                        assert!(
                            !found.contains(&ce.noise),
                            "duplicate counterexample {} under {config:?}",
                            ce.noise
                        );
                        excluded.insert(ce.noise.clone());
                        found.push(ce.noise);
                    }
                    RegionOutcome::Robust => break,
                }
            }
            // Cross-check the count against brute force.
            let brute = region
                .iter_points()
                .filter(|nv| exact::classify_noisy(&net, &x, nv).unwrap() != 0)
                .count();
            assert_eq!(found.len(), brute, "P3 loop must enumerate every CE once");
            assert!(brute > 0, "test needs a non-trivial CE population");
        }
    }

    #[test]
    fn zero_noise_region_matches_plain_classification() {
        let net = relu_net();
        let x = [r(9), r(8)];
        let label = net.classify(&x).unwrap();
        let (out, stats) =
            find_counterexample(&net, &x, label, &NoiseRegion::symmetric(0, 2)).unwrap();
        assert!(out.is_robust());
        assert_eq!(stats.exact_evals, 1);
    }

    #[test]
    fn wrong_label_gives_immediate_counterexample() {
        let net = comparator();
        let x = [r(100), r(80)];
        // Asking for label 1 (wrong) — the zero vector itself is a CE.
        for config in all_configs() {
            let (out, _) =
                find_counterexample_with(&net, &x, 1, &NoiseRegion::symmetric(0, 2), &config)
                    .unwrap();
            let ce = out
                .counterexample()
                .expect("zero noise already misclassifies");
            assert_eq!(ce.noise, NoiseVector::zero(2));
        }
    }

    #[test]
    fn stats_reflect_search_structure() {
        let net = relu_net();
        let x = [r(9), r(8)];
        let label = net.classify(&x).unwrap();
        let (_, stats) =
            find_counterexample(&net, &x, label, &NoiseRegion::symmetric(6, 2)).unwrap();
        // Either everything was pruned at the top or splits happened.
        assert!(stats.boxes_visited > 0);
        assert!(
            stats.pruned_correct > 0 || stats.exact_evals > 0,
            "{stats:?} shows no decisive work"
        );
        let full_grid = 13u64 * 13;
        assert!(
            stats.exact_evals < full_grid,
            "branch-and-bound should not degenerate to full enumeration ({stats:?})"
        );
        // The unscreened search books its exact box tier: each undecided
        // non-point box splits once. The complete grid domain never
        // touches the fault counters.
        assert_eq!(stats.exact_fallbacks, stats.splits, "{stats:?}");
        assert!(stats.exact_decisions > 0, "{stats:?}");
        assert_eq!(stats.concrete_evals, 0);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn deterministic_counterexample_order() {
        let net = comparator();
        let x = [r(100), r(99)];
        let region = NoiseRegion::symmetric(4, 2);
        for config in all_configs() {
            let (a, _) = find_counterexample_with(&net, &x, 0, &region, &config).unwrap();
            let (b, _) = find_counterexample_with(&net, &x, 0, &region, &config).unwrap();
            assert_eq!(
                a.counterexample().map(|c| c.noise.clone()),
                b.counterexample().map(|c| c.noise.clone()),
                "repeat runs must agree under {config:?}"
            );
        }
    }

    #[test]
    fn checker_config_presets_and_env() {
        assert_eq!(CheckerConfig::serial_exact().screening, ScreeningTier::None);
        assert!(!CheckerConfig::serial_exact().screening.is_active());
        assert_eq!(CheckerConfig::screened().screening, ScreeningTier::Interval);
        assert_eq!(CheckerConfig::cascade().screening, ScreeningTier::Cascade);
        assert_eq!(
            CheckerConfig::serial_exact()
                .with_screening(ScreeningTier::Cascade)
                .screening,
            ScreeningTier::Cascade
        );
        assert!(default_threads() >= 1);
    }

    #[test]
    fn screening_tier_reexport_round_trips() {
        // The tier moved to fannet-search; the re-exported path must
        // keep parsing (case-insensitively) and printing as before.
        for tier in ScreeningTier::ALL {
            assert_eq!(ScreeningTier::parse(tier.name()), Ok(tier));
            assert_eq!(tier.to_string(), tier.name());
        }
        assert_eq!(
            " Cascade ".parse::<ScreeningTier>(),
            Ok(ScreeningTier::Cascade)
        );
        let err = ScreeningTier::parse("frobnicate").unwrap_err();
        assert!(err.contains("none") && err.contains("cascade"), "{err}");
    }

    #[test]
    fn per_tier_counters_record_cascade_structure() {
        let net = relu_net();
        let x = [r(9), r(8)];
        let label = net.classify(&x).unwrap();
        let region = NoiseRegion::symmetric(6, 2);
        let (_, cascade) =
            find_counterexample_with(&net, &x, label, &region, &CheckerConfig::cascade()).unwrap();
        // In a cascade the zonotope tier sees exactly the interval tier's
        // fallbacks, and the aggregate counters cover every screened box.
        assert_eq!(
            cascade.zonotope_hits + cascade.zonotope_fallbacks,
            cascade.interval_fallbacks,
            "{cascade:?}"
        );
        assert_eq!(
            cascade.screen_hits + cascade.screen_fallbacks,
            cascade.interval_hits + cascade.interval_fallbacks,
            "{cascade:?}"
        );
        // Interval-only screening records no zonotope activity.
        let (_, interval) =
            find_counterexample_with(&net, &x, label, &region, &CheckerConfig::screened()).unwrap();
        assert_eq!(interval.zonotope_hits + interval.zonotope_fallbacks, 0);
        assert!(interval.interval_hits + interval.interval_fallbacks > 0);
        // The serial-exact baseline records no screen activity.
        let (_, base) = find_counterexample(&net, &x, label, &region).unwrap();
        assert_eq!(base.interval_hits + base.zonotope_hits, 0);
        assert_eq!(base.interval_fallbacks + base.zonotope_fallbacks, 0);
    }

    #[test]
    fn timed_check_matches_untimed_verdict_and_counters() {
        let net = relu_net();
        let x = [r(9), r(8)];
        let label = net.classify(&x).unwrap();
        let region = NoiseRegion::symmetric(6, 2);
        for config in all_configs() {
            let checker = RegionChecker::new(&net, config.clone());
            let (plain, plain_stats) = checker
                .check_region(&x, label, &region, &ExclusionSet::new())
                .unwrap();
            let (timed, timed_stats) = checker
                .check_region_timed(
                    &x,
                    label,
                    &region,
                    &ExclusionSet::new(),
                    TierTimer::enabled(),
                )
                .unwrap();
            assert_eq!(
                plain, timed,
                "verdict must not depend on timing: {config:?}"
            );
            assert!(
                timed_stats.exact_ns > 0,
                "exact work must be clocked under {config:?}: {timed_stats:?}"
            );
            // Untimed stats never read the clock…
            assert_eq!(
                (
                    plain_stats.interval_ns,
                    plain_stats.zonotope_ns,
                    plain_stats.exact_ns
                ),
                (0, 0, 0),
                "{config:?}"
            );
            // …and every non-timing field is bit-identical across modes.
            let mut scrubbed = timed_stats;
            scrubbed.interval_ns = 0;
            scrubbed.zonotope_ns = 0;
            scrubbed.exact_ns = 0;
            assert_eq!(scrubbed, plain_stats, "{config:?}");
        }
    }

    #[test]
    fn rounding_edge_box_splits_under_every_screen() {
        // 110·0.9 = 99 = 90·1.1: at the (−10, +10) corner the outputs
        // tie and the lower index (label 0) wins, so exact propagation
        // proves the root correct in one box, while every outward-
        // rounded screen stays `Unknown` there and must split down to
        // that corner.
        let net = comparator();
        let x = [r(110), r(90)];
        let region = NoiseRegion::symmetric(10, 2);
        let (out, exact) = find_counterexample(&net, &x, 0, &region).unwrap();
        assert!(out.is_robust());
        assert_eq!((exact.boxes_visited, exact.splits), (1, 0), "{exact:?}");
        for config in all_configs().into_iter().skip(1) {
            let (out, stats) = find_counterexample_with(&net, &x, 0, &region, &config).unwrap();
            assert!(out.is_robust(), "{config:?}");
            assert_eq!(
                (stats.boxes_visited, stats.splits, stats.exact_evals),
                (19, 9, 1),
                "{config:?}: {stats:?}"
            );
            assert_eq!(
                stats.screen_fallbacks,
                stats.splits + stats.exact_evals,
                "{config:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn rounding_edge_capped_collection_follows_split_tree_order() {
        // For label 1 the same box is uniformly wrong: exact propagation
        // proves it at the root, the screens only on sub-boxes. Both
        // expand in split-tree order, so every tier keeps the same
        // capped list — the box's first 30 points.
        let net = comparator();
        let x = [r(110), r(90)];
        let region = NoiseRegion::symmetric(10, 2);
        let want: Vec<NoiseVector> = region.iter_points().take(30).collect();
        for config in all_configs() {
            let (found, exhausted, _) =
                collect_region_counterexamples_with(&net, &x, 1, &region, 30, &config).unwrap();
            let got: Vec<NoiseVector> = found.into_iter().map(|ce| ce.noise).collect();
            assert_eq!(got, want, "{config:?}");
            assert!(!exhausted, "{config:?}");
        }
    }

    #[test]
    fn collector_screened_matches_exact() {
        let net = comparator();
        let x = [r(100), r(98)];
        let region = NoiseRegion::symmetric(4, 2);
        let (plain, exhausted_a, _) =
            collect_region_counterexamples(&net, &x, 0, &region, usize::MAX).unwrap();
        let (screened, exhausted_b, stats) = collect_region_counterexamples_with(
            &net,
            &x,
            0,
            &region,
            usize::MAX,
            &CheckerConfig::screened(),
        )
        .unwrap();
        assert_eq!(exhausted_a, exhausted_b);
        let a: Vec<_> = plain.iter().map(|ce| ce.noise.clone()).collect();
        let b: Vec<_> = screened.iter().map(|ce| ce.noise.clone()).collect();
        assert_eq!(a, b, "screened collection must preserve order and content");
        assert!(stats.screen_hits + stats.screen_fallbacks > 0);
    }
}
