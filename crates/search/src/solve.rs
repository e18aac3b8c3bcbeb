//! The branch-and-bound loops: the serial DFS and the single-pass
//! witness collector (DESIGN.md §12/§16). Queries run one per thread;
//! callers parallelize across queries, never inside one (DESIGN.md §7).

use crate::domain::{BoxDecision, SearchDomain, SearchOutcome};
use crate::stats::SearchStats;

/// One DFS stack entry: a box, its split depth, and its tier-0 screen
/// result if a batched [`SearchDomain::prepare_batch`] pass already
/// covered it.
type Entry<D> = (
    <D as SearchDomain>::Region,
    u32,
    Option<<D as SearchDomain>::Prepared>,
);

/// Screens `head` together with the topmost unprepared `stack` entries
/// (the boxes the DFS visits next) in one [`SearchDomain::prepare_batch`]
/// call, parks each gathered entry's prepared value on the stack and
/// returns the head's. `None` when the domain declines the batch.
fn prepare_frontier<D: SearchDomain>(
    domain: &D,
    head: &D::Region,
    stack: &mut [Entry<D>],
    scratch: &mut D::Scratch,
    stats: &mut SearchStats,
) -> Option<D::Prepared> {
    let idxs: Vec<usize> = (0..stack.len())
        .rev()
        .filter(|&i| stack[i].2.is_none())
        .take(domain.batch_width() - 1)
        .collect();
    let mut group: Vec<&D::Region> = Vec::with_capacity(1 + idxs.len());
    group.push(head);
    group.extend(idxs.iter().map(|&i| &stack[i].0));
    let mut prepared = domain.prepare_batch(&group, scratch, stats);
    if prepared.is_empty() {
        return None;
    }
    assert_eq!(
        prepared.len(),
        group.len(),
        "prepare_batch must return one prepared value per region"
    );
    for (&i, p) in idxs.iter().zip(prepared.drain(1..)) {
        stack[i].2 = Some(p);
    }
    prepared.pop()
}

/// Serial depth-first search over `root`, LIFO so memory stays at
/// `O(depth · box size)`. The first witness in DFS pre-order wins, and
/// left halves are explored first, so the witness is the canonically
/// first one.
///
/// `max_boxes` bounds how many boxes may be taken off the stack; when
/// it runs out the outcome degrades to [`SearchOutcome::Undecided`]
/// with `budget_exhausted` set (pass `None` for complete domains —
/// they terminate by splitting to unsplittable boxes).
///
/// Domains with [`SearchDomain::batch_width`] > 1 get their frontier
/// drained in batches: when an unprepared box is popped, the topmost
/// unprepared stack entries join it in one `prepare_batch` call, and
/// each box consumes its prepared screening when (and only when) it is
/// actually visited — visit order, verdicts, witnesses and every stat
/// counter stay bit-identical to the scalar path.
#[must_use]
pub fn search_serial<D: SearchDomain>(
    domain: &D,
    root: D::Region,
    max_boxes: Option<u64>,
) -> (SearchOutcome<D::Witness>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut scratch = D::Scratch::default();
    let mut stack: Vec<Entry<D>> = vec![(root, 0u32, None)];
    let mut undecided = false;
    let batching = domain.batch_width() > 1;

    while let Some((region, depth, prepared)) = stack.pop() {
        if let Some(max) = max_boxes {
            if stats.boxes_visited >= max {
                stats.budget_exhausted = true;
                undecided = true;
                break;
            }
        }
        stats.boxes_visited += 1;
        stats.note_depth(depth);
        let prepared = match prepared {
            None if batching => {
                prepare_frontier(domain, &region, &mut stack, &mut scratch, &mut stats)
            }
            prepared => prepared,
        };
        match domain.decide_prepared(&region, prepared, depth, &mut scratch, &mut stats) {
            BoxDecision::Pruned => {}
            BoxDecision::Witness(w) | BoxDecision::UniformWitness(w) => {
                return (SearchOutcome::Witness(w), stats);
            }
            BoxDecision::Split(a, b) => {
                // Push the right half first so the left (canonically
                // first) half is explored first — deterministic witness
                // order.
                stack.push((b, depth + 1, None));
                stack.push((a, depth + 1, None));
            }
            BoxDecision::Abandon => undecided = true,
            BoxDecision::AbandonAll => {
                undecided = true;
                break;
            }
        }
    }
    let outcome = if undecided {
        SearchOutcome::Undecided
    } else {
        SearchOutcome::Proven
    };
    (outcome, stats)
}

// ---------------------------------------------------------------------------
// Witness collection
// ---------------------------------------------------------------------------

/// Collects up to `cap` distinct witnesses in a **single** DFS pass.
///
/// Semantically equivalent to restarting the search `cap` times with
/// growing exclusion sets, but each proven-safe box is pruned once
/// instead of once per restart — the asymptotic difference between
/// `O(search)` and `O(cap · search)`.
///
/// `expand_uniform` handles a [`BoxDecision::UniformWitness`] box: it
/// receives the box and its first witness and must push *every* witness
/// of the box (first included, canonical order) into the sink,
/// returning `false` as soon as the sink reaches the cap (collection
/// stops immediately). The hook exists because only the domain knows
/// how to enumerate a box's concretization.
///
/// Returns `(witnesses, exhausted, stats)` — `exhausted` is `true` when
/// the whole root was explored (every witness found before the cap and
/// no box abandoned).
#[must_use]
pub fn collect_witnesses<D: SearchDomain>(
    domain: &D,
    root: D::Region,
    cap: usize,
    mut expand_uniform: impl FnMut(
        &D::Region,
        D::Witness,
        &mut Vec<D::Witness>,
        &mut SearchStats,
    ) -> bool,
) -> (Vec<D::Witness>, bool, SearchStats) {
    assert!(cap > 0, "cap must be positive");
    let mut stats = SearchStats::default();
    let mut scratch = D::Scratch::default();
    let mut found = Vec::new();
    let mut stack = vec![(root, 0u32)];
    let mut complete = true;

    while let Some((region, depth)) = stack.pop() {
        stats.boxes_visited += 1;
        stats.note_depth(depth);
        match domain.decide(&region, depth, &mut scratch, &mut stats) {
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
    use std::cell::Cell;

    /// A toy domain over integer ranges: witnesses are the members of a
    /// fixed "bad" set; a range splits until it is a single integer.
    struct RangeDomain {
        bad: Vec<i64>,
        /// Ranges at least this wide prune immediately if they contain
        /// no bad point (models a screening tier).
        abandon_at_depth: Option<u32>,
    }

    impl RangeDomain {
        fn decide_impl(
            &self,
            (lo, hi): (i64, i64),
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

    impl SearchDomain for RangeDomain {
        type Region = (i64, i64);
        type Witness = i64;
        type Prepared = ();
        type Scratch = ();

        fn decide(
            &self,
            &(lo, hi): &(i64, i64),
            depth: u32,
            _scratch: &mut (),
            stats: &mut SearchStats,
        ) -> BoxDecision<(i64, i64), i64> {
            self.decide_impl((lo, hi), depth, stats)
        }
    }

    /// [`RangeDomain`] with batched frontier screening: `prepare_batch`
    /// hands every box its own region back, and `decide_prepared`
    /// asserts the alignment — a prepared value arriving at the wrong
    /// box would trip it immediately.
    struct BatchRangeDomain {
        inner: RangeDomain,
        width: usize,
        prepare_calls: Cell<usize>,
        prepared_boxes: Cell<usize>,
    }

    impl SearchDomain for BatchRangeDomain {
        type Region = (i64, i64);
        type Witness = i64;
        type Prepared = (i64, i64);
        type Scratch = ();

        fn batch_width(&self) -> usize {
            self.width
        }

        fn prepare_batch(
            &self,
            regions: &[&(i64, i64)],
            _scratch: &mut (),
            _stats: &mut SearchStats,
        ) -> Vec<(i64, i64)> {
            self.prepare_calls.set(self.prepare_calls.get() + 1);
            regions.iter().map(|&&r| r).collect()
        }

        fn decide(
            &self,
            &(lo, hi): &(i64, i64),
            depth: u32,
            _scratch: &mut (),
            stats: &mut SearchStats,
        ) -> BoxDecision<(i64, i64), i64> {
            self.inner.decide_impl((lo, hi), depth, stats)
        }

        fn decide_prepared(
            &self,
            region: &(i64, i64),
            prepared: Option<(i64, i64)>,
            depth: u32,
            _scratch: &mut (),
            stats: &mut SearchStats,
        ) -> BoxDecision<(i64, i64), i64> {
            if let Some(p) = prepared {
                assert_eq!(p, *region, "prepared value delivered to the wrong box");
                self.prepared_boxes.set(self.prepared_boxes.get() + 1);
            }
            self.inner.decide_impl(*region, depth, stats)
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
    fn batched_frontier_matches_the_scalar_search() {
        for (bad, budget) in [
            (vec![], None),
            (vec![55, 9, 33], None),
            (vec![63], Some(7)),
            (vec![4, 5, 6, 7], None),
        ] {
            let plain = RangeDomain {
                bad: bad.clone(),
                abandon_at_depth: None,
            };
            let batched = BatchRangeDomain {
                inner: RangeDomain {
                    bad,
                    abandon_at_depth: None,
                },
                width: 4,
                prepare_calls: Cell::new(0),
                prepared_boxes: Cell::new(0),
            };
            let (want, want_stats) = search_serial(&plain, (0, 63), budget);
            let (got, got_stats) = search_serial(&batched, (0, 63), budget);
            assert_eq!(got, want, "batched serial must match scalar");
            assert_eq!(got_stats, want_stats, "batched stats must match scalar");
            assert!(
                batched.prepare_calls.get() > 0,
                "batching must actually run"
            );
            assert!(
                batched.prepared_boxes.get() > 0,
                "visited boxes must consume their prepared screens"
            );
        }
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
        let (found, exhausted, _) = collect_witnesses(&domain, (0, 7), 3, expand);
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
        let (found, exhausted, _) = collect_witnesses(&domain, (0, 7), usize::MAX, all);
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
        let _ = collect_witnesses(&domain, (0, 7), 0, |_, _, _, _| true);
    }
}
