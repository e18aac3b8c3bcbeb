//! The subsumption-aware verdict cache (DESIGN.md §8).
//!
//! Entries are **canonical** results of the branch-and-bound solver —
//! `(input, label, region) → RegionOutcome` with the deterministic
//! DFS-first witness — keyed within the namespace of one network
//! fingerprint. Lookups exploit two sound orders on top of exact key
//! equality:
//!
//! * **Robust monotonicity** — if every noise vector of `R` keeps the
//!   label and `Q ⊆ R`, every vector of `Q` does too, so `Robust(R)`
//!   answers `Q` (and `Robust` carries no witness, so the answer is also
//!   canonical);
//! * **Counterexample containment** — if `w ∈ Q` misclassifies, `Q` has a
//!   counterexample. The *verdict* is sound for any `Q ∋ w`, but the
//!   checker's DFS-first witness of `Q` generally differs from `w` (the
//!   split tree depends on the region bounds), so this rule serves only
//!   [`WitnessPolicy::VerdictOnly`] lookups; witness-bearing lookups
//!   treat it as a miss and re-solve.
//!
//! The two rules cannot both apply to one query: `w ∈ Q ⊆ R` with
//! `Robust(R)` would make `w` both a counterexample and correctly
//! classified.

use std::collections::HashMap;

use fannet_numeric::Rational;
use fannet_verify::bab::RegionOutcome;
use fannet_verify::region::NoiseRegion;

use crate::stats::EngineStats;

/// What a lookup may reuse from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessPolicy {
    /// The caller surfaces the witness: only answers bit-identical to a
    /// fresh solver run are acceptable (exact hits and Robust
    /// subsumption).
    Canonical,
    /// The caller consumes only the robust/not-robust verdict (tolerance
    /// probes): counterexample containment is additionally admissible.
    VerdictOnly,
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// An entry with the identical region key answered.
    Exact(RegionOutcome),
    /// A subsuming entry answered (see [`WitnessPolicy`] for which rules
    /// apply).
    Subsumed(RegionOutcome),
    /// Nothing applicable; the caller must run the solver (and should
    /// [`VerdictCache::insert`] the canonical result).
    Miss,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PointKey {
    input: Vec<Rational>,
    label: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    region: NoiseRegion,
    outcome: RegionOutcome,
    /// Logical timestamp of the last use; the LRU victim minimizes it.
    last_used: u64,
}

/// Bounded LRU store of canonical verdicts for **one** network.
///
/// The engine wraps it in a mutex; all methods take `&mut self`.
#[derive(Debug)]
pub struct VerdictCache {
    /// Entries grouped by `(input, label)` — subsumption only ever relates
    /// regions of the same query point.
    groups: HashMap<PointKey, Vec<Entry>>,
    len: usize,
    capacity: usize,
    clock: u64,
    stats: EngineStats,
}

impl VerdictCache {
    /// Creates an empty cache holding at most `capacity` verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        VerdictCache {
            groups: HashMap::new(),
            len: 0,
            capacity,
            clock: 0,
            stats: EngineStats::default(),
        }
    }

    /// Number of cached verdicts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first insertion.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The LRU bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime lookup/eviction counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Answers a query from the cache if a sound rule applies, updating
    /// hit/miss counters and the used entry's recency.
    pub fn lookup(
        &mut self,
        input: &[Rational],
        label: usize,
        region: &NoiseRegion,
        policy: WitnessPolicy,
    ) -> Lookup {
        self.clock += 1;
        let key = PointKey {
            input: input.to_vec(),
            label,
        };
        let Some(entries) = self.groups.get_mut(&key) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        // Exact key equality first: it is canonical for either policy.
        if let Some(e) = entries.iter_mut().find(|e| e.region == *region) {
            e.last_used = self.clock;
            self.stats.exact_hits += 1;
            return Lookup::Exact(e.outcome.clone());
        }
        for e in entries.iter_mut() {
            let applies = match &e.outcome {
                RegionOutcome::Robust => e.region.contains_region(region),
                RegionOutcome::Counterexample(ce) => {
                    policy == WitnessPolicy::VerdictOnly && region.contains(&ce.noise)
                }
            };
            if applies {
                e.last_used = self.clock;
                self.stats.subsumption_hits += 1;
                return Lookup::Subsumed(e.outcome.clone());
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Stores a **canonical** solver result, evicting the least recently
    /// used verdict when full. An entry with the identical region key is
    /// overwritten in place (deterministic solving makes that a no-op in
    /// content, but it refreshes recency).
    ///
    /// Only fresh solver outputs belong here: a subsumption-derived
    /// verdict would poison later exact hits with a non-canonical witness.
    pub fn insert(
        &mut self,
        input: &[Rational],
        label: usize,
        region: NoiseRegion,
        outcome: RegionOutcome,
    ) {
        self.clock += 1;
        let key = PointKey {
            input: input.to_vec(),
            label,
        };
        let clock = self.clock;
        let entries = self.groups.entry(key).or_default();
        if let Some(e) = entries.iter_mut().find(|e| e.region == region) {
            e.outcome = outcome;
            e.last_used = clock;
            return;
        }
        entries.push(Entry {
            region,
            outcome,
            last_used: clock,
        });
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru();
        }
    }

    /// Sound symmetric-search bracket derived from every cached verdict
    /// for `(input, label)`: the largest `δ_lo` with `±δ_lo` proven
    /// robust, and the smallest `δ_hi` proven to contain a counterexample
    /// (clamped to ≥ 1 — the radius convention never probes `δ = 0`).
    ///
    /// This is the warm start of the engine's incremental tolerance
    /// search. Each side that narrows is one use of the subsumption
    /// order (`Robust` monotonicity / witness containment respectively),
    /// so it counts as a subsumption hit and refreshes the recency of
    /// the entry that supplied the bound.
    #[must_use]
    pub fn symmetric_bracket(&mut self, input: &[Rational], label: usize) -> (i64, Option<i64>) {
        self.clock += 1;
        let clock = self.clock;
        let key = PointKey {
            input: input.to_vec(),
            label,
        };
        let mut robust_through = 0i64;
        let mut robust_entry: Option<usize> = None;
        let mut flips_at: Option<i64> = None;
        let mut flips_entry: Option<usize> = None;
        let Some(entries) = self.groups.get_mut(&key) else {
            return (0, None);
        };
        for (i, e) in entries.iter().enumerate() {
            match &e.outcome {
                RegionOutcome::Robust => {
                    // Largest symmetric box inside the robust region.
                    let m = e
                        .region
                        .ranges()
                        .iter()
                        .map(|&(lo, hi)| (-lo).min(hi))
                        .min()
                        .unwrap_or(0);
                    if m > robust_through {
                        robust_through = m;
                        robust_entry = Some(i);
                    }
                }
                RegionOutcome::Counterexample(ce) => {
                    let m = ce.noise.max_abs().max(1);
                    if flips_at.is_none_or(|f| m < f) {
                        flips_at = Some(m);
                        flips_entry = Some(i);
                    }
                }
            }
        }
        for used in [robust_entry, flips_entry].into_iter().flatten() {
            entries[used].last_used = clock;
            self.stats.subsumption_hits += 1;
        }
        (robust_through, flips_at)
    }

    /// One linear scan for the globally least-recent entry. O(len), but
    /// an eviction only ever accompanies an insert, and every insert is
    /// the tail of a fresh branch-and-bound run that dwarfs a walk over
    /// ≤ capacity timestamps; only the winning key is cloned.
    fn evict_lru(&mut self) {
        let victim = self
            .groups
            .iter()
            .flat_map(|(k, es)| es.iter().enumerate().map(move |(i, e)| (e.last_used, k, i)))
            .min_by_key(|&(t, _, _)| t)
            .map(|(_, k, i)| (k.clone(), i));
        let Some((key, idx)) = victim else { return };
        let entries = self.groups.get_mut(&key).expect("victim key exists");
        entries.swap_remove(idx);
        if entries.is_empty() {
            self.groups.remove(&key);
        }
        self.len -= 1;
        self.stats.evictions += 1;
    }
}

// ---------------------------------------------------------------------------
// The exact-key LRU cache (fault and joint verdicts, DESIGN.md §11/§12)
// ---------------------------------------------------------------------------

/// A bounded exact-key LRU store — the engine keeps one for fault
/// verdicts and one for joint verdicts, each keyed by the check query
/// and namespaced under the network's content fingerprint exactly like
/// the region-verdict cache. Hits count as `exact_hits`; there is no
/// subsumption path.
///
/// Reuse is **exact-key only**. Weight-noise verdicts do admit a sound
/// monotone order (`Robust` at ε answers every ε′ ≤ ε, and a joint
/// `Robust` answers every nested (δ′, ε′)), but the budgeted checkers
/// are *incomplete*: a cold run at the smaller parameters may
/// legitimately return `Unknown` where the subsumed answer would say
/// `Robust`, so serving the monotone answer would break the engine's
/// bit-identical-to-cold contract (the same reasoning that makes
/// counterexample containment verdict-only in [`VerdictCache`], taken
/// one step further).
#[derive(Debug)]
pub struct ExactLru<K, V> {
    entries: HashMap<K, (V, u64)>,
    capacity: usize,
    clock: u64,
    stats: EngineStats,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> ExactLru<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ExactLru {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            stats: EngineStats::default(),
        }
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` before the first insertion.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Exact-key lookup, refreshing recency on a hit.
    pub fn lookup(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some((value, last_used)) => {
                *last_used = self.clock;
                self.stats.exact_hits += 1;
                Some(value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a fresh solver result, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let clock = self.clock;
        let fresh = self.entries.insert(key, (value, clock)).is_none();
        if fresh && self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, t))| t)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_verify::exact::Counterexample;
    use fannet_verify::noise::NoiseVector;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn ce(noise: Vec<i64>) -> RegionOutcome {
        RegionOutcome::Counterexample(Counterexample {
            noise: NoiseVector::new(noise),
            noisy_input: vec![r(1)],
            outputs: vec![r(0), r(1)],
            predicted: 1,
            expected: 0,
        })
    }

    #[test]
    fn exact_hit_beats_subsumption() {
        let mut c = VerdictCache::new(8);
        let x = [r(100), r(82)];
        c.insert(&x, 0, NoiseRegion::symmetric(9, 2), RegionOutcome::Robust);
        let got = c.lookup(
            &x,
            0,
            &NoiseRegion::symmetric(9, 2),
            WitnessPolicy::Canonical,
        );
        assert_eq!(got, Lookup::Exact(RegionOutcome::Robust));
        assert_eq!(c.stats().exact_hits, 1);
    }

    #[test]
    fn robust_subsumes_nested_regions_for_any_policy() {
        let mut c = VerdictCache::new(8);
        let x = [r(100), r(82)];
        c.insert(&x, 0, NoiseRegion::symmetric(9, 2), RegionOutcome::Robust);
        for policy in [WitnessPolicy::Canonical, WitnessPolicy::VerdictOnly] {
            let got = c.lookup(&x, 0, &NoiseRegion::symmetric(4, 2), policy);
            assert_eq!(got, Lookup::Subsumed(RegionOutcome::Robust), "{policy:?}");
        }
        // A *wider* region is not answered.
        assert_eq!(
            c.lookup(
                &x,
                0,
                &NoiseRegion::symmetric(10, 2),
                WitnessPolicy::VerdictOnly
            ),
            Lookup::Miss
        );
    }

    #[test]
    fn counterexample_containment_is_verdict_only() {
        let mut c = VerdictCache::new(8);
        let x = [r(100), r(99)];
        c.insert(&x, 0, NoiseRegion::symmetric(12, 2), ce(vec![-3, 2]));
        // The witness (-3, 2) lies inside ±5, so the verdict transfers…
        let got = c.lookup(
            &x,
            0,
            &NoiseRegion::symmetric(5, 2),
            WitnessPolicy::VerdictOnly,
        );
        assert!(matches!(
            got,
            Lookup::Subsumed(RegionOutcome::Counterexample(_))
        ));
        // …but a witness-bearing lookup must re-solve: the DFS-first
        // witness of ±5 need not be (-3, 2).
        assert_eq!(
            c.lookup(
                &x,
                0,
                &NoiseRegion::symmetric(5, 2),
                WitnessPolicy::Canonical
            ),
            Lookup::Miss
        );
        // A region not containing the witness is never answered.
        assert_eq!(
            c.lookup(
                &x,
                0,
                &NoiseRegion::symmetric(2, 2),
                WitnessPolicy::VerdictOnly
            ),
            Lookup::Miss
        );
    }

    #[test]
    fn keys_isolate_inputs_and_labels() {
        let mut c = VerdictCache::new(8);
        let x = [r(10), r(20)];
        let y = [r(10), r(21)];
        c.insert(&x, 0, NoiseRegion::symmetric(5, 2), RegionOutcome::Robust);
        let q = NoiseRegion::symmetric(5, 2);
        assert_eq!(c.lookup(&y, 0, &q, WitnessPolicy::Canonical), Lookup::Miss);
        assert_eq!(c.lookup(&x, 1, &q, WitnessPolicy::Canonical), Lookup::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = VerdictCache::new(2);
        let x = [r(1)];
        c.insert(&x, 0, NoiseRegion::symmetric(1, 1), RegionOutcome::Robust);
        c.insert(&x, 0, NoiseRegion::symmetric(2, 1), RegionOutcome::Robust);
        // Touch ±1 so ±2 becomes the LRU victim.
        let _ = c.lookup(
            &x,
            0,
            &NoiseRegion::symmetric(1, 1),
            WitnessPolicy::Canonical,
        );
        c.insert(&x, 0, NoiseRegion::symmetric(3, 1), RegionOutcome::Robust);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(
            c.lookup(
                &x,
                0,
                &NoiseRegion::symmetric(1, 1),
                WitnessPolicy::Canonical
            ),
            Lookup::Exact(RegionOutcome::Robust)
        );
        // ±2 itself is gone, but ±3 now subsumes it.
        assert_eq!(
            c.lookup(
                &x,
                0,
                &NoiseRegion::symmetric(2, 1),
                WitnessPolicy::Canonical
            ),
            Lookup::Subsumed(RegionOutcome::Robust)
        );
    }

    #[test]
    fn reinsert_same_region_refreshes_in_place() {
        let mut c = VerdictCache::new(2);
        let x = [r(1)];
        c.insert(&x, 0, NoiseRegion::symmetric(1, 1), RegionOutcome::Robust);
        c.insert(&x, 0, NoiseRegion::symmetric(1, 1), RegionOutcome::Robust);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn symmetric_bracket_from_mixed_entries() {
        let mut c = VerdictCache::new(8);
        let x = [r(100), r(99)];
        assert_eq!(c.symmetric_bracket(&x, 0), (0, None));
        c.insert(&x, 0, NoiseRegion::symmetric(3, 2), RegionOutcome::Robust);
        // An asymmetric robust region contributes its largest symmetric core.
        c.insert(
            &x,
            0,
            NoiseRegion::new(vec![(-7, 5), (-6, 9)]),
            RegionOutcome::Robust,
        );
        c.insert(&x, 0, NoiseRegion::symmetric(20, 2), ce(vec![8, -6]));
        let (lo, hi) = c.symmetric_bracket(&x, 0);
        assert_eq!(
            lo, 5,
            "min over axes of min(-lo, hi) of the widest robust entry"
        );
        assert_eq!(hi, Some(8), "witness ∞-norm bounds the radius");
        // A zero-noise witness clamps to the δ = 1 probe floor.
        c.insert(&x, 1, NoiseRegion::symmetric(4, 2), ce(vec![0, 0]));
        assert_eq!(c.symmetric_bracket(&x, 1), (0, Some(1)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = VerdictCache::new(0);
    }

    #[test]
    fn exact_lru_hits_and_evicts_least_recently_used() {
        let mut c: ExactLru<(u8, u8), &str> = ExactLru::new(2);
        assert_eq!(c.lookup(&(0, 1)), None);
        c.insert((0, 1), "robust");
        assert_eq!(c.lookup(&(0, 1)), Some("robust"));
        // Any other key is a distinct entry — no monotone reuse (see the
        // type doc).
        assert_eq!(c.lookup(&(0, 2)), None);
        assert_eq!(c.lookup(&(1, 1)), None);
        // LRU bound: touch (0, 1), insert two more, (0, 5) evicts (0, 3).
        c.insert((0, 3), "unknown");
        assert_eq!(c.lookup(&(0, 1)), Some("robust"));
        c.insert((0, 5), "unknown");
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(&(0, 3)), None, "LRU victim is gone");
        assert_eq!(c.lookup(&(0, 1)), Some("robust"));
        let s = c.stats();
        assert_eq!((s.exact_hits, s.subsumption_hits, s.misses), (3, 0, 4));
        // Re-inserting an existing key refreshes in place.
        c.insert((0, 1), "robust");
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn exact_lru_zero_capacity_rejected() {
        let _ = ExactLru::<u8, u8>::new(0);
    }
}
