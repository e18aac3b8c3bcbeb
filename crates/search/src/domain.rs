//! The domain contract of the generic branch-and-bound search
//! (DESIGN.md §12).

use crate::stats::SearchStats;

/// How one box was resolved by [`SearchDomain::decide`].
#[derive(Debug)]
pub enum BoxDecision<R, W> {
    /// Proven free of (fresh) witnesses — pruned from the search.
    Pruned,
    /// A single concrete witness (e.g. a misclassifying grid point).
    Witness(W),
    /// The *whole box* is proven uniformly witnessing; carries the
    /// canonically-first witness. [`crate::collect_witnesses`] hands it
    /// to the domain's expansion hook, which enumerates the rest of the
    /// box up to the cap ([`crate::search_serial`] keeps only the first).
    UniformWitness(W),
    /// Undecided: the two halves to recurse into.
    Split(R, R),
    /// Undecided and not refinable (depth cap, unsplittable box);
    /// siblings keep exploring — a witness elsewhere still decides.
    Abandon,
    /// Undecided and the *whole search* is pinned undecided (e.g. an
    /// over-approximate lift whose uniformly-wrong boxes prove nothing);
    /// exploring further cannot change the outcome, so stop.
    AbandonAll,
}

/// Outcome of a generic search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome<W> {
    /// Every box was pruned: the property holds over the whole root —
    /// a proof.
    Proven,
    /// The canonically-first witness found — a proof by witness.
    Witness(W),
    /// Some box was abandoned or a budget ran out before a witness
    /// appeared: sound in neither direction (complete domains never
    /// return this).
    Undecided,
}

impl<W> SearchOutcome<W> {
    /// `true` for [`SearchOutcome::Proven`].
    #[must_use]
    pub fn is_proven(&self) -> bool {
        matches!(self, SearchOutcome::Proven)
    }

    /// The witness, if any.
    #[must_use]
    pub fn witness(&self) -> Option<&W> {
        match self {
            SearchOutcome::Witness(w) => Some(w),
            _ => None,
        }
    }
}

/// One abstract domain the generic branch-and-bound can search.
///
/// # Contract
///
/// The search decides the claim *"no point of the root region's
/// concretization is a witness"*. `decide` must uphold, for every box
/// it is handed:
///
/// * **Soundness of pruning** — [`BoxDecision::Pruned`] only for boxes
///   provably free of fresh witnesses. A screen's
///   [`BoxVerdict`](crate::BoxVerdict) discharges this only when it holds
///   over the whole concretization of the box: `AlwaysCorrect` for every
///   concrete point the claim quantifies over (noise grid points, faulted
///   networks, or noise×fault pairs), `AlwaysWrong` for every such point
///   misclassifying; `Unknown` is always sound.
/// * **Genuine witnesses** — a returned witness is a *concrete, in-model*
///   point, re-checkable by exact evaluation.
/// * **Canonical first witness** — within one box, the witness returned
///   is the first one in *split-tree order* (the order repeated splits
///   reach the box's points, left half first); combined with
///   left-before-right splits this pins the global witness across
///   every screening configuration.
/// * **Conservative splits** — [`BoxDecision::Split`] halves must cover
///   the parent's concretization exactly, left half canonically first.
///   Termination is the domain's duty: splits must strictly shrink
///   boxes toward unsplittable ones (grid domains terminate at points;
///   continuous domains must cap depth via [`BoxDecision::Abandon`]).
/// * **Depth honesty** — `depth` is the number of splits from the root;
///   domains with depth caps compare against it *before* splitting so
///   abandoned boxes never book a split.
/// * **Purity** — the decision (and every counter it books) is a pure
///   function of `(region, depth)`: resident caches (`fannet-engine`)
///   rely on repeated queries reproducing the cold answer bit for bit.
pub trait SearchDomain {
    /// The box type explored (clone-cheap: splits clone the parent).
    type Region: Clone;
    /// The witness type produced (e.g. an exact counterexample record).
    type Witness;

    /// Decides one box at `depth` splits from the root, booking any
    /// counters it consumes (screen passes, exact evaluations, splits)
    /// into `stats`. The search loop books `boxes_visited` itself.
    fn decide(
        &self,
        region: &Self::Region,
        depth: u32,
        stats: &mut SearchStats,
    ) -> BoxDecision<Self::Region, Self::Witness>;
}
