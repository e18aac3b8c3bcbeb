//! The unified search-statistics block shared by every branch-and-bound
//! instantiation (DESIGN.md §12).
//!
//! Before the `fannet-search` extraction the input-noise checker
//! (`BabStats`) and the fault checker (`FaultStats`) each carried their
//! own counter struct with overlapping fields. This is the union: one
//! domain never touches every counter (the grid-complete input-noise
//! search has no budget and evaluates no faulted networks), but the
//! meaning of each field is identical wherever it is incremented, and
//! both domains book them by one box rule (DESIGN.md §12). The JSONL
//! protocol serializes this one block wherever counters appear (see
//! `fannet-engine`'s protocol module).
//!
//! ## Timing fields stay off the wire
//!
//! The per-tier nanosecond totals and the split-depth high-water mark
//! (DESIGN.md §14) are **not serialized**: the wire shape of every
//! cached, replayed or golden-tested stats block must stay bit-identical
//! whether a query was timed or not, and wall-clock numbers can never
//! be. The `Serialize`/`Deserialize` impls below are hand-written to
//! emit exactly the fifteen counter fields; deserialization accepts
//! the same fifteen and zeroes the rest. Traced responses surface the
//! timing fields through the separate `trace` object instead.

use serde::de::Error as _;
use serde::ser::SerializeStruct as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

use crate::tier::{BoxVerdict, TierKind};

/// Counters of one branch-and-bound run (or the merge of several —
/// tolerance bisections merge their probes' counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Boxes taken off the work stack.
    pub boxes_visited: u64,
    /// Splits performed.
    pub splits: u64,
    /// Boxes proven uniformly correct and pruned.
    pub pruned_correct: u64,
    /// Boxes proven uniformly wrong (a witness proof).
    pub proved_wrong: u64,
    /// Point boxes settled by one exact evaluation — a noise grid point,
    /// or in the product domain a grid point paired with a point fault
    /// box (the ground-truth fallback below every screen).
    pub exact_evals: u64,
    /// Boxes some screening tier decided on its own (aggregate over
    /// every active screen). A screened search books each visited box
    /// as exactly one of `screen_hits` or `screen_fallbacks`.
    pub screen_hits: u64,
    /// Boxes no screen decided, which then split, were evaluated exactly
    /// (points, and in the input-noise domain a screen's wrong verdict at
    /// a point) or got the product domain's tie pass (DESIGN.md §6):
    /// `== splits + exact_evals` in a screened input-noise search.
    pub screen_fallbacks: u64,
    /// Boxes the float-interval tier classified.
    pub interval_hits: u64,
    /// Boxes the float-interval tier handed to the next tier.
    pub interval_fallbacks: u64,
    /// Boxes the zonotope tier classified.
    pub zonotope_hits: u64,
    /// Boxes the zonotope tier handed to the next tier.
    pub zonotope_fallbacks: u64,
    /// Non-point boxes exact interval propagation classified: every box
    /// unscreened, and behind the screens only the product domain's tie
    /// pass (DESIGN.md §6).
    pub exact_decisions: u64,
    /// Non-point boxes exact interval propagation left undecided (split,
    /// or in the product domain abandoned); the unscreened input-noise
    /// search has `exact_fallbacks == splits`.
    pub exact_fallbacks: u64,
    /// Concrete candidate evaluations (fault domains: faulted networks
    /// evaluated for probes and witnesses).
    pub concrete_evals: u64,
    /// `true` when a box budget ran out before the search finished.
    pub budget_exhausted: bool,
    /// Nanoseconds spent in the float-interval tier (zero unless the
    /// query ran with an enabled [`crate::TierTimer`]; never serialized).
    pub interval_ns: u64,
    /// Nanoseconds spent in the zonotope tier (timed queries only;
    /// never serialized).
    pub zonotope_ns: u64,
    /// Nanoseconds spent in exact rational work — the exact point
    /// evaluations plus exact interval propagation over boxes (timed
    /// queries only; never serialized).
    pub exact_ns: u64,
    /// Deepest split depth any visited box reached (recorded
    /// unconditionally — it costs no clock read; never serialized).
    pub depth_high_water: u64,
}

/// The fifteen wire fields, in declaration order. Timing fields
/// are deliberately absent (module docs).
const WIRE_FIELDS: [&str; 15] = [
    "boxes_visited",
    "splits",
    "pruned_correct",
    "proved_wrong",
    "exact_evals",
    "screen_hits",
    "screen_fallbacks",
    "interval_hits",
    "interval_fallbacks",
    "zonotope_hits",
    "zonotope_fallbacks",
    "exact_decisions",
    "exact_fallbacks",
    "concrete_evals",
    "budget_exhausted",
];

impl Serialize for SearchStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("SearchStats", WIRE_FIELDS.len())?;
        st.serialize_field("boxes_visited", &self.boxes_visited)?;
        st.serialize_field("splits", &self.splits)?;
        st.serialize_field("pruned_correct", &self.pruned_correct)?;
        st.serialize_field("proved_wrong", &self.proved_wrong)?;
        st.serialize_field("exact_evals", &self.exact_evals)?;
        st.serialize_field("screen_hits", &self.screen_hits)?;
        st.serialize_field("screen_fallbacks", &self.screen_fallbacks)?;
        st.serialize_field("interval_hits", &self.interval_hits)?;
        st.serialize_field("interval_fallbacks", &self.interval_fallbacks)?;
        st.serialize_field("zonotope_hits", &self.zonotope_hits)?;
        st.serialize_field("zonotope_fallbacks", &self.zonotope_fallbacks)?;
        st.serialize_field("exact_decisions", &self.exact_decisions)?;
        st.serialize_field("exact_fallbacks", &self.exact_fallbacks)?;
        st.serialize_field("concrete_evals", &self.concrete_evals)?;
        st.serialize_field("budget_exhausted", &self.budget_exhausted)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for SearchStats {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        let Value::Map(mut m) = value else {
            return Err(D::Error::custom("expected a map for struct `SearchStats`"));
        };
        let mut take = |field: &'static str| -> Result<Value, D::Error> {
            serde::de::take_entry(&mut m, field).ok_or_else(|| {
                D::Error::custom(format!("missing field `{field}` in `SearchStats`"))
            })
        };
        let number = |value: Value| serde::de::from_value::<u64>(value).map_err(D::Error::custom);
        Ok(SearchStats {
            boxes_visited: number(take("boxes_visited")?)?,
            splits: number(take("splits")?)?,
            pruned_correct: number(take("pruned_correct")?)?,
            proved_wrong: number(take("proved_wrong")?)?,
            exact_evals: number(take("exact_evals")?)?,
            screen_hits: number(take("screen_hits")?)?,
            screen_fallbacks: number(take("screen_fallbacks")?)?,
            interval_hits: number(take("interval_hits")?)?,
            interval_fallbacks: number(take("interval_fallbacks")?)?,
            zonotope_hits: number(take("zonotope_hits")?)?,
            zonotope_fallbacks: number(take("zonotope_fallbacks")?)?,
            exact_decisions: number(take("exact_decisions")?)?,
            exact_fallbacks: number(take("exact_fallbacks")?)?,
            concrete_evals: number(take("concrete_evals")?)?,
            budget_exhausted: serde::de::from_value(take("budget_exhausted")?)
                .map_err(D::Error::custom)?,
            interval_ns: 0,
            zonotope_ns: 0,
            exact_ns: 0,
            depth_high_water: 0,
        })
    }
}

impl SearchStats {
    /// Accumulates another run's counters into `self`. Counters and
    /// nanosecond totals add; the depth high-water takes the maximum
    /// (separate searches — the probes of one bisection, the inputs of
    /// one analysis — merge into one total).
    pub fn merge(&mut self, other: &SearchStats) {
        self.boxes_visited += other.boxes_visited;
        self.splits += other.splits;
        self.pruned_correct += other.pruned_correct;
        self.proved_wrong += other.proved_wrong;
        self.exact_evals += other.exact_evals;
        self.screen_hits += other.screen_hits;
        self.screen_fallbacks += other.screen_fallbacks;
        self.interval_hits += other.interval_hits;
        self.interval_fallbacks += other.interval_fallbacks;
        self.zonotope_hits += other.zonotope_hits;
        self.zonotope_fallbacks += other.zonotope_fallbacks;
        self.exact_decisions += other.exact_decisions;
        self.exact_fallbacks += other.exact_fallbacks;
        self.concrete_evals += other.concrete_evals;
        self.budget_exhausted |= other.budget_exhausted;
        self.interval_ns = self.interval_ns.saturating_add(other.interval_ns);
        self.zonotope_ns = self.zonotope_ns.saturating_add(other.zonotope_ns);
        self.exact_ns = self.exact_ns.saturating_add(other.exact_ns);
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
    }

    /// Books one pass of `tier` over a box: a hit when `verdict`
    /// decided the box, a fallback when it is `Unknown`, and the pass's
    /// nanoseconds (zero when untimed).
    pub fn book_tier(&mut self, tier: TierKind, verdict: BoxVerdict, ns: u64) {
        let (hits, fallbacks, elapsed) = match tier {
            TierKind::Interval => (
                &mut self.interval_hits,
                &mut self.interval_fallbacks,
                &mut self.interval_ns,
            ),
            TierKind::Zonotope => (
                &mut self.zonotope_hits,
                &mut self.zonotope_fallbacks,
                &mut self.zonotope_ns,
            ),
            TierKind::Exact => (
                &mut self.exact_decisions,
                &mut self.exact_fallbacks,
                &mut self.exact_ns,
            ),
        };
        *elapsed = elapsed.saturating_add(ns);
        if verdict == BoxVerdict::Unknown {
            *fallbacks += 1;
        } else {
            *hits += 1;
        }
    }

    /// Records a visited box's split depth into the high-water mark.
    pub fn note_depth(&mut self, depth: u32) {
        self.depth_high_water = self.depth_high_water.max(u64::from(depth));
    }

    /// Fraction of screened boxes some screening tier decided on its
    /// own; `None` when screening never ran.
    #[must_use]
    pub fn screen_hit_rate(&self) -> Option<f64> {
        Self::rate(self.screen_hits, self.screen_fallbacks)
    }

    /// Fraction of interval-tier passes that classified their box;
    /// `None` when the interval tier never ran.
    #[must_use]
    pub fn interval_hit_rate(&self) -> Option<f64> {
        Self::rate(self.interval_hits, self.interval_fallbacks)
    }

    /// Fraction of zonotope-tier passes that classified their box (in a
    /// cascade these are exactly the boxes the interval tier gave up
    /// on); `None` when the zonotope tier never ran.
    #[must_use]
    pub fn zonotope_hit_rate(&self) -> Option<f64> {
        Self::rate(self.zonotope_hits, self.zonotope_fallbacks)
    }

    fn rate(hits: u64, fallbacks: u64) -> Option<f64> {
        let total = hits + fallbacks;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> SearchStats {
        SearchStats {
            boxes_visited: 1,
            splits: 2,
            pruned_correct: 3,
            proved_wrong: 4,
            exact_evals: 5,
            screen_hits: 6,
            screen_fallbacks: 7,
            interval_hits: 8,
            interval_fallbacks: 9,
            zonotope_hits: 10,
            zonotope_fallbacks: 11,
            exact_decisions: 12,
            exact_fallbacks: 13,
            concrete_evals: 14,
            budget_exhausted: false,
            interval_ns: 15,
            zonotope_ns: 16,
            exact_ns: 17,
            depth_high_water: 18,
        }
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut a = filled();
        let b = SearchStats {
            budget_exhausted: true,
            depth_high_water: 7,
            ..filled()
        };
        a.merge(&b);
        assert_eq!(
            a,
            SearchStats {
                boxes_visited: 2,
                splits: 4,
                pruned_correct: 6,
                proved_wrong: 8,
                exact_evals: 10,
                screen_hits: 12,
                screen_fallbacks: 14,
                interval_hits: 16,
                interval_fallbacks: 18,
                zonotope_hits: 20,
                zonotope_fallbacks: 22,
                exact_decisions: 24,
                exact_fallbacks: 26,
                concrete_evals: 28,
                budget_exhausted: true,
                interval_ns: 30,
                zonotope_ns: 32,
                exact_ns: 34,
                // Max, not sum: disjoint subtrees share one deepest path.
                depth_high_water: 18,
            }
        );
        assert_eq!(a.interval_hit_rate(), Some(16.0 / 34.0));
        assert_eq!(a.zonotope_hit_rate(), Some(20.0 / 42.0));
        assert_eq!(a.screen_hit_rate(), Some(12.0 / 26.0));
    }

    #[test]
    fn empty_rates_are_none() {
        let s = SearchStats::default();
        assert_eq!(s.screen_hit_rate(), None);
        assert_eq!(s.interval_hit_rate(), None);
        assert_eq!(s.zonotope_hit_rate(), None);
        assert!(!s.budget_exhausted);
    }

    #[test]
    fn note_depth_keeps_the_maximum() {
        let mut s = SearchStats::default();
        s.note_depth(3);
        s.note_depth(1);
        assert_eq!(s.depth_high_water, 3);
    }

    #[test]
    fn wire_shape_excludes_timing_fields() {
        let stats = filled();
        let value = serde::ser::to_value(&stats).expect("stats serialize");
        let Value::Map(entries) = &value else {
            panic!("stats must serialize as a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, WIRE_FIELDS.to_vec(), "exactly the wire fields");

        // Round trip: counters survive, timing fields reset to zero —
        // the bit-identity contract between timed and untimed runs.
        let back: SearchStats = serde::de::from_value(value).expect("stats deserialize");
        assert_eq!(
            back,
            SearchStats {
                interval_ns: 0,
                zonotope_ns: 0,
                exact_ns: 0,
                depth_high_water: 0,
                ..stats
            }
        );
    }

    #[test]
    fn deserialize_reports_missing_fields_like_the_derive() {
        let mut value = serde::ser::to_value(&filled()).expect("stats serialize");
        let Value::Map(entries) = &mut value else {
            panic!("stats must serialize as a map");
        };
        entries.retain(|(k, _)| k != "splits");
        let err = serde::de::from_value::<SearchStats>(value).unwrap_err();
        assert!(
            err.to_string()
                .contains("missing field `splits` in `SearchStats`"),
            "{err}"
        );
    }
}
