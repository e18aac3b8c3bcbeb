//! Which screening tiers run before the domain's exact decision
//! procedure — shared by the input-noise, weight-fault and joint
//! checkers — plus the verdict a tier reaches on a box, the counters it
//! books and the opt-in clock that times it.

use serde::{Deserialize, Serialize};

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
    /// The tier cannot decide; the box must be split, enumerated or
    /// handed to a stronger tier.
    Unknown,
}

/// Which [`SearchStats`](crate::SearchStats) counters a tier's verdicts
/// land in.
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

/// Which screening tiers route each box before exact work runs.
///
/// Every tier is a sound over-approximation, so the *verdict and
/// witness* are identical across all three settings (enforced by
/// `tests/checker_cross_validation.rs`); only which tier pays for each
/// box changes. Cheapest-first is the design invariant: an interval
/// pass is one `f64` multiply-add per weight, a zonotope pass is one
/// per weight *per tracked symbol*, exact rational propagation is
/// gcd-heavy `i128` arithmetic. Every screened setting starts with the
/// interval screen, and a box the screens leave undecided splits (or,
/// at a point, is evaluated exactly); exact propagation over boxes is
/// the unscreened setting's tier only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScreeningTier {
    /// Exact propagation only (the seed baseline).
    None,
    /// Outward-rounded `f64` interval screen (DESIGN.md §6).
    Interval,
    /// Interval first, then the affine-form zonotope screen classifying
    /// on output differences (DESIGN.md §10) on interval-`Unknown`
    /// boxes — the cheapest screen that can decide each box pays for it.
    Cascade,
}

impl ScreeningTier {
    /// Every variant, in CLI listing order.
    pub const ALL: [ScreeningTier; 3] = [
        ScreeningTier::None,
        ScreeningTier::Interval,
        ScreeningTier::Cascade,
    ];

    /// `true` if the zonotope screen runs (after the interval screen).
    #[must_use]
    pub fn uses_zonotope(self) -> bool {
        self == ScreeningTier::Cascade
    }

    /// `true` if the float-interval screen runs — in every setting but
    /// [`ScreeningTier::None`], where every box goes straight to exact
    /// propagation.
    #[must_use]
    pub fn is_active(self) -> bool {
        self != ScreeningTier::None
    }

    /// The CLI spelling (`--screening=<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScreeningTier::None => "none",
            ScreeningTier::Interval => "interval",
            ScreeningTier::Cascade => "cascade",
        }
    }

    /// Parses the CLI spelling, case-insensitively and ignoring
    /// surrounding whitespace (`--screening=Cascade` is accepted).
    ///
    /// # Errors
    ///
    /// Returns a message listing every valid variant.
    pub fn parse(text: &str) -> Result<Self, String> {
        let lowered = text.trim().to_ascii_lowercase();
        ScreeningTier::ALL
            .into_iter()
            .find(|tier| tier.name() == lowered)
            .ok_or_else(|| {
                let names: Vec<&str> = ScreeningTier::ALL.iter().map(|t| t.name()).collect();
                format!(
                    "unknown screening tier `{text}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

impl std::str::FromStr for ScreeningTier {
    type Err = String;

    /// [`ScreeningTier::parse`] under the standard trait, so
    /// `text.parse::<ScreeningTier>()` works wherever `FromStr` is
    /// expected.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        ScreeningTier::parse(text)
    }
}

impl std::fmt::Display for ScreeningTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse_and_from_str() {
        for tier in ScreeningTier::ALL {
            assert_eq!(ScreeningTier::parse(tier.name()), Ok(tier));
            assert_eq!(tier.name().parse::<ScreeningTier>(), Ok(tier));
            assert_eq!(tier.to_string(), tier.name());
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            ScreeningTier::parse(" Cascade "),
            Ok(ScreeningTier::Cascade)
        );
        assert_eq!(
            "INTERVAL".parse::<ScreeningTier>(),
            Ok(ScreeningTier::Interval)
        );
        assert_eq!("None".parse::<ScreeningTier>(), Ok(ScreeningTier::None));
    }

    #[test]
    fn errors_list_every_variant() {
        // `zonotope` named the removed zonotope-only setting; it is an
        // error now, not a silent default.
        for input in ["frobnicate", "zonotope"] {
            let err = input.parse::<ScreeningTier>().unwrap_err();
            for tier in ScreeningTier::ALL {
                assert!(err.contains(tier.name()), "{err} lacks {}", tier.name());
            }
            assert!(err.contains(input), "{err} must echo the input");
        }
    }

    #[test]
    fn disabled_timer_reports_zero_elapsed() {
        let (value, ns) = TierTimer::disabled().time(|| 7);
        assert_eq!((value, ns), (7, 0));
        let (value, _) = TierTimer::enabled().time(|| "ran");
        assert_eq!(value, "ran");
    }

    #[test]
    fn tier_activity_flags() {
        assert!(ScreeningTier::Cascade.is_active());
        assert!(ScreeningTier::Cascade.uses_zonotope());
        assert!(ScreeningTier::Interval.is_active());
        assert!(!ScreeningTier::Interval.uses_zonotope());
        assert!(!ScreeningTier::None.is_active());
        assert!(!ScreeningTier::None.uses_zonotope());
    }
}
