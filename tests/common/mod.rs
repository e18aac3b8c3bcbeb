//! Checks shared by the pinned-counter tests.

use fannet::verify::{BabStats, ScreeningTier};

/// The screen order, checked on one query's counters (`BabStats` is the
/// one `SearchStats` block of both search domains): a screened search
/// runs the float screen on every visited box, and under `cascade` the
/// zonotope screen on exactly the boxes the float screen leaves
/// undecided; `interval` never runs the zonotope, `none` runs no screen.
pub fn assert_screen_order(tier: ScreeningTier, query: &str, s: &BabStats) {
    let interval = s.interval_hits + s.interval_fallbacks;
    let zonotope = s.zonotope_hits + s.zonotope_fallbacks;
    let want = match tier {
        ScreeningTier::None => (0, 0),
        ScreeningTier::Interval => (s.boxes_visited, 0),
        ScreeningTier::Cascade => (s.boxes_visited, s.interval_fallbacks),
    };
    assert_eq!((interval, zonotope), want, "screen order, {query}: {s:?}");
}
