//! The screen pass of both search domains (DESIGN.md §10, §12).
//!
//! Every screened box runs the float-interval screen
//! ([`FloatShadow::output_intervals`] → [`classify_box_float`], §6) and,
//! under [`ScreeningTier::Cascade`], the zonotope screen
//! ([`ZonotopeShadow::output_forms`] → [`classify_box_zonotope`], §10)
//! on the boxes the float screen leaves `Unknown`. The input-noise
//! search passes the network's resident shadows; the product search
//! passes the shadows its fault box carries. Each screen that runs books
//! a hit or a fallback, and its nanoseconds, through
//! [`SearchStats::book_tier`].
//!
//! **Soundness over the concretization.** A decided verdict is a proof
//! about every concrete point γ(box) the query quantifies over (noise
//! grid points, faulted networks, or noise×fault pairs): `AlwaysCorrect`
//! ⇒ every point classifies as the label, `AlwaysWrong` ⇒ every point
//! classifies as another label. Both screens discharge it by enclosure:
//! each shadow encloses every parameter it encodes, and each kernel
//! encloses every value its input can take (§6, §10, §11). `Unknown` is
//! always sound.

use fannet_numeric::{FloatInterval, Rational};
use fannet_search::{BoxVerdict, ScreeningTier, SearchStats, TierKind, TierTimer};

use crate::propagate::{classify_box_float, FloatShadow};
use crate::region::NoiseRegion;
use crate::zonotope::{classify_box_zonotope, ZonotopeShadow};

/// The screens of one query: its input, encoded once for each screen
/// that runs, its expected label and its timer.
#[derive(Debug, Clone)]
pub struct Screens {
    /// The float screen's input enclosure (every screened setting).
    float: Option<Vec<FloatInterval>>,
    /// The zonotope screen's `(center, slack)` input (cascade only).
    zonotope: Option<Vec<(f64, f64)>>,
    label: usize,
    timer: TierTimer,
}

impl Screens {
    /// The screens `tier` runs for input `x` and expected `label`.
    #[must_use]
    pub fn new(x: &[Rational], label: usize, tier: ScreeningTier, timer: TierTimer) -> Self {
        Screens {
            float: tier.is_active().then(|| FloatShadow::enclose_input(x)),
            zonotope: tier
                .uses_zonotope()
                .then(|| ZonotopeShadow::enclose_input(x)),
            label,
            timer,
        }
    }

    /// `true` when any screen runs.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.float.is_some()
    }

    /// The query's timer, which the domains' exact work shares
    /// (DESIGN.md §14).
    #[must_use]
    pub fn timer(&self) -> TierTimer {
        self.timer
    }

    /// Screens the box `noise` through `float` and then `zonotope`,
    /// cheapest first, and returns the first decided verdict (`Unknown`
    /// when every screen that runs gives up, or none runs).
    ///
    /// # Panics
    ///
    /// Panics if a screen that runs is given no shadow, or if widths
    /// disagree (callers validate once per query).
    pub fn classify(
        &self,
        float: Option<&FloatShadow>,
        zonotope: Option<&ZonotopeShadow>,
        noise: &NoiseRegion,
        stats: &mut SearchStats,
    ) -> BoxVerdict {
        let Some(x) = &self.float else {
            return BoxVerdict::Unknown;
        };
        let shadow = float.expect("the float screen has a shadow");
        let (verdict, ns) = self
            .timer
            .time(|| classify_box_float(&shadow.output_intervals(x, noise), self.label));
        stats.book_tier(TierKind::Interval, verdict, ns);
        let (BoxVerdict::Unknown, Some(x)) = (verdict, &self.zonotope) else {
            return verdict;
        };
        let shadow = zonotope.expect("the zonotope screen has a shadow");
        let (verdict, ns) = self
            .timer
            .time(|| classify_box_zonotope(&shadow.output_forms(x, noise), self.label));
        stats.book_tier(TierKind::Zonotope, verdict, ns);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{Activation, DenseLayer, Network, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    /// The 2-4-2 network of `propagate`'s tests.
    fn net() -> Network<Rational> {
        let hidden = DenseLayer::new(
            Matrix::from_rows(vec![
                vec![r(1), r(-1)],
                vec![r(-1), r(1)],
                vec![Rational::new(1, 2), Rational::new(1, 2)],
                vec![r(0), r(1)],
            ])
            .unwrap(),
            vec![r(0), r(0), r(-1), r(2)],
            Activation::ReLU,
        )
        .unwrap();
        let output = DenseLayer::new(
            Matrix::from_rows(vec![
                vec![r(1), r(0), r(1), r(-1)],
                vec![r(0), r(1), r(-1), r(1)],
            ])
            .unwrap(),
            vec![r(0), r(0)],
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }

    const X: [i128; 2] = [37, 202];

    /// Screens one box of `X` under `tier`, returning the verdict and
    /// the counters it booked.
    fn screen(tier: ScreeningTier, timer: TierTimer, delta: i64) -> (BoxVerdict, SearchStats) {
        let net = net();
        let x = X.map(r);
        let label = net.classify(&x).unwrap();
        let screens = Screens::new(&x, label, tier, timer);
        let mut stats = SearchStats::default();
        let verdict = screens.classify(
            Some(&FloatShadow::new(&net)),
            Some(&ZonotopeShadow::new(&net)),
            &NoiseRegion::symmetric(delta, 2),
            &mut stats,
        );
        (verdict, stats)
    }

    /// ±1 % is decided by the float screen; at ±50 % the float screen
    /// gives up and the zonotope screen decides.
    const FLOAT_DECIDES: i64 = 1;
    const ZONOTOPE_DECIDES: i64 = 50;

    fn counters(s: &SearchStats) -> [u64; 4] {
        [
            s.interval_hits,
            s.interval_fallbacks,
            s.zonotope_hits,
            s.zonotope_fallbacks,
        ]
    }

    #[test]
    fn float_decided_box_never_reaches_the_zonotope() {
        let (verdict, stats) = screen(ScreeningTier::Cascade, TierTimer::disabled(), FLOAT_DECIDES);
        assert_eq!(verdict, BoxVerdict::AlwaysCorrect);
        assert_eq!(counters(&stats), [1, 0, 0, 0], "{stats:?}");
    }

    #[test]
    fn cascade_hands_float_unknown_boxes_to_the_zonotope() {
        let (verdict, stats) = screen(
            ScreeningTier::Cascade,
            TierTimer::disabled(),
            ZONOTOPE_DECIDES,
        );
        assert_eq!(verdict, BoxVerdict::AlwaysCorrect);
        assert_eq!(counters(&stats), [0, 1, 1, 0], "{stats:?}");
    }

    #[test]
    fn interval_books_no_zonotope_counter() {
        let (verdict, stats) = screen(
            ScreeningTier::Interval,
            TierTimer::disabled(),
            ZONOTOPE_DECIDES,
        );
        assert_eq!(verdict, BoxVerdict::Unknown);
        assert_eq!(counters(&stats), [0, 1, 0, 0], "{stats:?}");
        assert_eq!(stats.zonotope_ns, 0);
    }

    #[test]
    fn none_books_nothing_and_stays_unknown() {
        for delta in [FLOAT_DECIDES, ZONOTOPE_DECIDES] {
            let (verdict, stats) = screen(ScreeningTier::None, TierTimer::enabled(), delta);
            assert_eq!(verdict, BoxVerdict::Unknown);
            assert_eq!(stats, SearchStats::default());
        }
        // Nothing runs, so no shadow is needed either.
        let screens = Screens::new(&X.map(r), 0, ScreeningTier::None, TierTimer::disabled());
        assert!(!screens.is_active());
        let mut stats = SearchStats::default();
        let verdict = screens.classify(None, None, &NoiseRegion::symmetric(5, 2), &mut stats);
        assert_eq!(verdict, BoxVerdict::Unknown);
        assert_eq!(stats, SearchStats::default());
    }

    #[test]
    fn enabled_timer_books_nanoseconds_and_the_same_counters() {
        for tier in [ScreeningTier::Interval, ScreeningTier::Cascade] {
            let untimed = screen(tier, TierTimer::disabled(), ZONOTOPE_DECIDES);
            assert_eq!(
                (untimed.1.interval_ns, untimed.1.zonotope_ns),
                (0, 0),
                "{tier}"
            );
            // Enough boxes that even a coarse clock ticks.
            let mut timed = SearchStats::default();
            for _ in 0..200 {
                let (verdict, stats) = screen(tier, TierTimer::enabled(), ZONOTOPE_DECIDES);
                assert_eq!(verdict, untimed.0, "{tier}");
                assert_eq!(counters(&stats), counters(&untimed.1), "{tier}");
                timed.merge(&stats);
            }
            assert!(timed.interval_ns > 0, "{tier}: {timed:?}");
            assert_eq!(timed.zonotope_ns > 0, tier.uses_zonotope(), "{tier}");
            assert_eq!(timed.exact_ns, 0);
        }
    }
}
