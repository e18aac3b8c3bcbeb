//! The branch-and-bound loop: one depth-first walk that collects up to
//! a cap of witnesses; the single-witness search is that walk with cap 1
//! (DESIGN.md §12). Queries run one per thread; callers parallelize
//! across queries, never inside one (DESIGN.md §7).

use crate::domain::{BoxDecision, SearchDomain, SearchOutcome};
use crate::stats::SearchStats;

/// Serial depth-first search over `root` for the canonically first
/// witness: [`collect_witnesses`] with cap 1.
///
/// `max_boxes` bounds how many boxes may be taken off the stack; when
/// it runs out the outcome degrades to [`SearchOutcome::Undecided`]
/// with `budget_exhausted` set (pass `None` for complete domains —
/// they terminate by splitting to unsplittable boxes).
#[must_use]
pub fn search_serial<D: SearchDomain>(
    domain: &D,
    root: D::Region,
    max_boxes: Option<u64>,
) -> (SearchOutcome<D::Witness>, SearchStats) {
    // With cap 1 a uniformly witnessing box contributes only its first
    // witness, which already fills the cap.
    let (mut found, complete, stats) =
        collect_witnesses(domain, root, 1, max_boxes, |_, w, sink, _| {
            sink.push(w);
            false
        });
    let outcome = match (found.pop(), complete) {
        (Some(w), _) => SearchOutcome::Witness(w),
        (None, true) => SearchOutcome::Proven,
        (None, false) => SearchOutcome::Undecided,
    };
    (outcome, stats)
}

/// Collects up to `cap` distinct witnesses in a **single** DFS pass,
/// LIFO so memory stays at `O(depth · box size)`. Left halves are
/// explored first, so witnesses arrive in canonical (split-tree) order
/// and the first one is the canonically first witness of the root.
///
/// Semantically equivalent to restarting the search `cap` times with
/// growing exclusion sets, but each proven-safe box is pruned once
/// instead of once per restart — the asymptotic difference between
/// `O(search)` and `O(cap · search)`.
///
/// `max_boxes` bounds how many boxes may be taken off the stack; when
/// it runs out the walk stops incomplete with `budget_exhausted` set
/// (pass `None` for complete domains).
///
/// `expand_uniform` handles a [`BoxDecision::UniformWitness`] box: it
/// receives the box and its first witness and must push *every* witness
/// of the box (first included, canonical order) into the sink,
/// returning `false` as soon as the sink reaches the cap (collection
/// stops immediately). The hook exists because only the domain knows
/// how to enumerate a box's concretization.
///
/// Returns `(witnesses, exhausted, stats)` — `exhausted` is `true` when
/// the whole root was explored (every witness found before the cap, no
/// box abandoned and the budget not exhausted).
///
/// # Panics
///
/// Panics if `cap` is zero.
#[must_use]
pub fn collect_witnesses<D: SearchDomain>(
    domain: &D,
    root: D::Region,
    cap: usize,
    max_boxes: Option<u64>,
    mut expand_uniform: impl FnMut(
        &D::Region,
        D::Witness,
        &mut Vec<D::Witness>,
        &mut SearchStats,
    ) -> bool,
) -> (Vec<D::Witness>, bool, SearchStats) {
    assert!(cap > 0, "cap must be positive");
    let mut stats = SearchStats::default();
    let mut found = Vec::new();
    let mut stack = vec![(root, 0u32)];
    let mut complete = true;

    while let Some((region, depth)) = stack.pop() {
        if max_boxes.is_some_and(|max| stats.boxes_visited >= max) {
            stats.budget_exhausted = true;
            complete = false;
            break;
        }
        stats.boxes_visited += 1;
        stats.note_depth(depth);
        match domain.decide(&region, depth, &mut stats) {
            BoxDecision::Pruned => {}
            BoxDecision::Witness(w) => {
                found.push(w);
                if found.len() == cap {
                    return (found, false, stats);
                }
            }
            BoxDecision::UniformWitness(first) => {
                if !expand_uniform(&region, first, &mut found, &mut stats) {
                    return (found, false, stats);
                }
            }
            BoxDecision::Split(a, b) => {
                // Push the right half first so the left (canonically
                // first) half is explored first — deterministic witness
                // order.
                stack.push((b, depth + 1));
                stack.push((a, depth + 1));
            }
            BoxDecision::Abandon => complete = false,
            BoxDecision::AbandonAll => {
                complete = false;
                break;
            }
        }
    }
    (found, complete, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::BoxDecision;

    /// A toy domain over integer ranges: witnesses are the members of a
    /// fixed "bad" set; a range splits until it is a single integer.
    struct RangeDomain {
        bad: Vec<i64>,
        /// Ranges at least this wide prune immediately if they contain
        /// no bad point (models a screening tier).
        abandon_at_depth: Option<u32>,
    }

    impl SearchDomain for RangeDomain {
        type Region = (i64, i64);
        type Witness = i64;

        fn decide(
            &self,
            &(lo, hi): &(i64, i64),
            depth: u32,
            stats: &mut SearchStats,
        ) -> BoxDecision<(i64, i64), i64> {
            if !self.bad.iter().any(|&b| lo <= b && b <= hi) {
                stats.pruned_correct += 1;
                return BoxDecision::Pruned;
            }
            if lo == hi {
                stats.exact_evals += 1;
                return BoxDecision::Witness(lo);
            }
            if self.bad.iter().all(|&b| lo <= b && b <= hi) && self.bad.len() as i64 == hi - lo + 1
            {
                stats.proved_wrong += 1;
                return BoxDecision::UniformWitness(lo);
            }
            if let Some(cap) = self.abandon_at_depth {
                if depth >= cap {
                    return BoxDecision::Abandon;
                }
            }
            stats.splits += 1;
            let mid = lo + (hi - lo) / 2;
            BoxDecision::Split((lo, mid), (mid + 1, hi))
        }
    }

    #[test]
    fn serial_finds_first_witness_or_proves() {
        let domain = RangeDomain {
            bad: vec![17, 40],
            abandon_at_depth: None,
        };
        let (outcome, stats) = search_serial(&domain, (0, 63), None);
        assert_eq!(outcome, SearchOutcome::Witness(17), "canonical first");
        assert!(stats.boxes_visited > 0);
        let clean = RangeDomain {
            bad: vec![],
            abandon_at_depth: None,
        };
        let (outcome, stats) = search_serial(&clean, (0, 63), None);
        assert!(outcome.is_proven());
        assert_eq!(stats.pruned_correct, 1);
        assert_eq!(outcome.witness(), None);
    }

    #[test]
    fn budget_exhaustion_degrades_to_undecided() {
        let domain = RangeDomain {
            bad: vec![63],
            abandon_at_depth: None,
        };
        let (outcome, stats) = search_serial(&domain, (0, 63), Some(2));
        assert_eq!(outcome, SearchOutcome::Undecided);
        assert!(stats.budget_exhausted);
        assert_eq!(stats.boxes_visited, 2);
    }

    #[test]
    fn depth_abandon_degrades_to_undecided_without_budget_flag() {
        let domain = RangeDomain {
            bad: vec![63],
            abandon_at_depth: Some(1),
        };
        let (outcome, stats) = search_serial(&domain, (0, 63), None);
        assert_eq!(outcome, SearchOutcome::Undecided);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn collector_enumerates_with_cap_and_exhaustion() {
        let domain = RangeDomain {
            bad: vec![4, 5, 6, 7],
            abandon_at_depth: None,
        };
        let expand = |region: &(i64, i64),
                      first: i64,
                      sink: &mut Vec<i64>,
                      _stats: &mut SearchStats|
         -> bool {
            let cap = 3;
            for v in first..=region.1 {
                sink.push(v);
                if sink.len() == cap {
                    return false;
                }
            }
            true
        };
        // The (4,7) box is uniformly bad once the search narrows to it.
        let (found, exhausted, _) = collect_witnesses(&domain, (0, 7), 3, None, expand);
        assert_eq!(found, vec![4, 5, 6]);
        assert!(!exhausted, "cap reached before the region was exhausted");

        let all = |region: &(i64, i64),
                   first: i64,
                   sink: &mut Vec<i64>,
                   _stats: &mut SearchStats|
         -> bool {
            sink.extend(first..=region.1);
            true
        };
        let (found, exhausted, _) = collect_witnesses(&domain, (0, 7), usize::MAX, None, all);
        assert_eq!(found, vec![4, 5, 6, 7]);
        assert!(exhausted);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn collector_rejects_zero_cap() {
        let domain = RangeDomain {
            bad: vec![],
            abandon_at_depth: None,
        };
        let _ = collect_witnesses(&domain, (0, 7), 0, None, |_, _, _, _| true);
    }
}
