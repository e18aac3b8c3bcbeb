//! The screening cascade: a sequence of sound box classifiers, cheapest
//! first, with per-tier accounting (DESIGN.md §12).

use crate::stats::SearchStats;

/// An opt-in monotonic clock for per-tier cost attribution
/// (DESIGN.md §14).
///
/// Disabled (the default) it is a no-op — `time` runs the closure and
/// reports zero nanoseconds, so untraced queries never pay for a clock
/// read and their stats stay bit-identical to pre-timer builds. Enabled
/// it brackets the closure with [`std::time::Instant`] reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTimer {
    enabled: bool,
}

impl TierTimer {
    /// The no-op timer (every untraced query).
    #[must_use]
    pub fn disabled() -> Self {
        TierTimer { enabled: false }
    }

    /// A live timer (queries answering a `"trace": true` request or a
    /// slow-query threshold).
    #[must_use]
    pub fn enabled() -> Self {
        TierTimer { enabled: true }
    }

    /// Whether this timer reads the clock.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        self.enabled
    }

    /// Runs `f` and returns its result plus the elapsed nanoseconds
    /// (zero when disabled).
    pub fn time<T>(self, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        let start = std::time::Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (out, ns)
    }
}

/// Sound classification verdict for a whole box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoxVerdict {
    /// Every point of the box keeps the predicted label equal to the
    /// expected one.
    AlwaysCorrect,
    /// Every point of the box produces a different label.
    AlwaysWrong,
    /// The classifier cannot decide; the box must be split, enumerated
    /// or handed to a stronger tier.
    Unknown,
}

/// Which [`SearchStats`] counters a classifier's verdicts land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// Outward-rounded `f64` interval propagation
    /// (`interval_hits`/`interval_fallbacks`).
    Interval,
    /// Affine-form zonotope propagation
    /// (`zonotope_hits`/`zonotope_fallbacks`).
    Zonotope,
    /// Exact rational interval propagation over boxes
    /// (`exact_decisions`/`exact_fallbacks`), run and booked by the domains.
    Exact,
}

/// One screening tier over regions of type `R`.
///
/// # Soundness obligations
///
/// A classifier's verdicts must be **proofs** over the domain's
/// concretization γ(R) (every concrete point the search's top-level
/// claim quantifies over — noise grid points, faulted networks, or
/// noise×fault pairs):
///
/// * [`BoxVerdict::AlwaysCorrect`] ⇒ every point of γ(R) classifies as
///   the expected label;
/// * [`BoxVerdict::AlwaysWrong`] ⇒ every point of γ(R) classifies as
///   some other label;
/// * [`BoxVerdict::Unknown`] is always sound.
///
/// Incompleteness is free (a weaker tier just falls through); a single
/// unsound verdict breaks the whole search, so each implementation
/// carries its own enclosure proof (DESIGN.md §6/§10/§11).
pub trait Classifier<R: ?Sized> {
    /// Which counters this tier's verdicts feed.
    fn tier(&self) -> TierKind;

    /// Classifies one box.
    fn classify(&self, region: &R) -> BoxVerdict;
}

/// An ordered sequence of classifiers, consulted cheapest-first until
/// one decides.
///
/// Every tier that *runs* books either a hit (it decided) or a fallback
/// (it returned `Unknown` and handed the box on) into its
/// [`TierKind`]'s counters — the per-tier accounting both legacy stat
/// blocks exposed.
pub struct Cascade<'a, R: ?Sized> {
    tiers: Vec<&'a (dyn Classifier<R> + 'a)>,
    timer: TierTimer,
}

impl<'a, R: ?Sized> Cascade<'a, R> {
    /// Builds a cascade from the tiers that are active for this query,
    /// in consultation order (timer disabled).
    #[must_use]
    pub fn new(tiers: Vec<&'a (dyn Classifier<R> + 'a)>) -> Self {
        Cascade {
            tiers,
            timer: TierTimer::disabled(),
        }
    }

    /// The empty cascade: every box falls through undecided.
    #[must_use]
    pub fn empty() -> Self {
        Cascade {
            tiers: Vec::new(),
            timer: TierTimer::disabled(),
        }
    }

    /// Attaches a per-tier timer; [`Cascade::classify`] then books each
    /// tier's elapsed nanoseconds next to its hit/fallback counters.
    #[must_use]
    pub fn with_timer(mut self, timer: TierTimer) -> Self {
        self.timer = timer;
        self
    }

    /// The attached timer (domains reuse it to clock their exact
    /// fallback work with the same enablement).
    #[must_use]
    pub fn timer(&self) -> TierTimer {
        self.timer
    }

    /// `true` when no tier is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Number of active tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Runs the tiers in order and returns the first decided verdict
    /// (`Unknown` if every tier gives up), booking per-tier counters.
    pub fn classify(&self, region: &R, stats: &mut SearchStats) -> BoxVerdict {
        for tier in &self.tiers {
            let (verdict, ns) = self.timer.time(|| tier.classify(region));
            stats.book_tier(tier.tier(), verdict, ns);
            if verdict != BoxVerdict::Unknown {
                return verdict;
            }
        }
        BoxVerdict::Unknown
    }
}

impl<R: ?Sized> std::fmt::Debug for Cascade<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cascade")
            .field("tiers", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier deciding iff the region value clears a threshold.
    struct Threshold {
        kind: TierKind,
        decides_at: i64,
        verdict: BoxVerdict,
    }

    impl Classifier<i64> for Threshold {
        fn tier(&self) -> TierKind {
            self.kind
        }
        fn classify(&self, region: &i64) -> BoxVerdict {
            if *region >= self.decides_at {
                self.verdict
            } else {
                BoxVerdict::Unknown
            }
        }
    }

    #[test]
    fn cheapest_deciding_tier_wins_and_books_counters() {
        let interval = Threshold {
            kind: TierKind::Interval,
            decides_at: 10,
            verdict: BoxVerdict::AlwaysCorrect,
        };
        let zonotope = Threshold {
            kind: TierKind::Zonotope,
            decides_at: 5,
            verdict: BoxVerdict::AlwaysWrong,
        };
        let exact = Threshold {
            kind: TierKind::Exact,
            decides_at: 0,
            verdict: BoxVerdict::AlwaysCorrect,
        };
        let cascade = Cascade::new(vec![&interval, &zonotope, &exact]);
        assert_eq!(cascade.len(), 3);
        assert!(!cascade.is_empty());

        let mut stats = SearchStats::default();
        // 12 ≥ 10: the interval tier decides alone.
        assert_eq!(cascade.classify(&12, &mut stats), BoxVerdict::AlwaysCorrect);
        assert_eq!((stats.interval_hits, stats.interval_fallbacks), (1, 0));
        assert_eq!(stats.zonotope_hits + stats.zonotope_fallbacks, 0);

        // 7: interval falls back, zonotope decides.
        assert_eq!(cascade.classify(&7, &mut stats), BoxVerdict::AlwaysWrong);
        assert_eq!((stats.interval_hits, stats.interval_fallbacks), (1, 1));
        assert_eq!((stats.zonotope_hits, stats.zonotope_fallbacks), (1, 0));

        // 2: both screens fall back, the exact tier decides.
        assert_eq!(cascade.classify(&2, &mut stats), BoxVerdict::AlwaysCorrect);
        assert_eq!((stats.exact_decisions, stats.exact_fallbacks), (1, 0));
        assert_eq!(stats.interval_fallbacks, 2);
        assert_eq!(stats.zonotope_fallbacks, 1);
    }

    #[test]
    fn timer_books_nanoseconds_without_changing_counters() {
        let slow = Threshold {
            kind: TierKind::Interval,
            decides_at: 0,
            verdict: BoxVerdict::AlwaysCorrect,
        };
        // Untimed: counters book, nanoseconds stay zero.
        let cascade = Cascade::new(vec![&slow]);
        assert_eq!(cascade.timer(), TierTimer::disabled());
        let mut untimed = SearchStats::default();
        assert_eq!(
            cascade.classify(&1, &mut untimed),
            BoxVerdict::AlwaysCorrect
        );
        assert_eq!(untimed.interval_hits, 1);
        assert_eq!(untimed.interval_ns, 0);

        // Timed: identical counters, nonzero interval time.
        let busy = Threshold {
            kind: TierKind::Interval,
            decides_at: 0,
            verdict: BoxVerdict::AlwaysCorrect,
        };
        let timed_cascade = Cascade::new(vec![&busy]).with_timer(TierTimer::enabled());
        assert!(timed_cascade.timer().is_enabled());
        let mut timed = SearchStats::default();
        // A few classify calls so even a coarse clock ticks.
        for _ in 0..1000 {
            let _ = timed_cascade.classify(&1, &mut timed);
        }
        assert_eq!(timed.interval_hits, 1000);
        assert!(timed.interval_ns > 0, "enabled timer must record time");
        assert_eq!(timed.zonotope_ns, 0);
        assert_eq!(timed.exact_ns, 0);
    }

    #[test]
    fn disabled_timer_reports_zero_elapsed() {
        let (value, ns) = TierTimer::disabled().time(|| 7);
        assert_eq!((value, ns), (7, 0));
        let (value, _) = TierTimer::enabled().time(|| "ran");
        assert_eq!(value, "ran");
    }

    #[test]
    fn empty_cascade_is_always_unknown() {
        let cascade: Cascade<'_, i64> = Cascade::empty();
        let mut stats = SearchStats::default();
        assert_eq!(cascade.classify(&100, &mut stats), BoxVerdict::Unknown);
        assert_eq!(stats, SearchStats::default());
        assert!(cascade.is_empty());
        assert_eq!(cascade.len(), 0);
    }

    #[test]
    fn all_tiers_unknown_books_every_fallback() {
        let never = Threshold {
            kind: TierKind::Exact,
            decides_at: i64::MAX,
            verdict: BoxVerdict::AlwaysCorrect,
        };
        let cascade = Cascade::new(vec![&never]);
        let mut stats = SearchStats::default();
        assert_eq!(cascade.classify(&3, &mut stats), BoxVerdict::Unknown);
        assert_eq!((stats.exact_decisions, stats.exact_fallbacks), (0, 1));
    }
}
