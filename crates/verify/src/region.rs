//! Boxes of integer-percent noise vectors — the abstract states explored by
//! the branch-and-bound verifier.

use std::fmt;

use fannet_numeric::{Interval, Rational};
use serde::{Deserialize, Serialize};

use crate::noise::NoiseVector;

/// A box `∏ₖ [loₖ, hiₖ] ⊂ ℤⁿ` of per-node noise percentages.
///
/// # Examples
///
/// ```
/// use fannet_verify::region::NoiseRegion;
///
/// let r = NoiseRegion::symmetric(5, 3); // ±5 % on 3 nodes
/// assert_eq!(r.point_count(), 11 * 11 * 11);
/// assert!(!r.is_point());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NoiseRegion {
    ranges: Vec<(i64, i64)>,
}

impl NoiseRegion {
    /// Creates a region from per-node `(lo, hi)` percent bounds.
    ///
    /// # Panics
    ///
    /// Panics if any `lo > hi` or a bound falls outside `[-100, 100]`
    /// (noise below −100 % would flip the sign of the input, which the
    /// paper's model `x ± x·ΔX/100` never does for ΔX ≤ 100).
    #[must_use]
    pub fn new(ranges: Vec<(i64, i64)>) -> Self {
        Self::try_new(ranges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking form of [`NoiseRegion::new`], for callers validating
    /// untrusted input (e.g. the `fannet serve` JSONL front end).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid bound.
    pub fn try_new(ranges: Vec<(i64, i64)>) -> Result<Self, String> {
        for &(lo, hi) in &ranges {
            if lo > hi {
                return Err(format!("noise range [{lo}, {hi}] is inverted"));
            }
            if !((-100..=100).contains(&lo) && (-100..=100).contains(&hi)) {
                return Err(format!(
                    "noise percent out of the model's [-100, 100] range: [{lo}, {hi}]"
                ));
            }
        }
        Ok(NoiseRegion { ranges })
    }

    /// The symmetric region `[-delta, +delta]ⁿ` — the paper's "noise range
    /// ±Δ%".
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or exceeds 100.
    #[must_use]
    pub fn symmetric(delta: i64, nodes: usize) -> Self {
        assert!((0..=100).contains(&delta), "delta must be in [0, 100]");
        NoiseRegion {
            ranges: vec![(-delta, delta); nodes],
        }
    }

    /// The single-point region containing exactly `nv`.
    #[must_use]
    pub fn point(nv: &NoiseVector) -> Self {
        NoiseRegion {
            ranges: nv.percents().iter().map(|&p| (p, p)).collect(),
        }
    }

    /// Number of input nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.ranges.len()
    }

    /// The per-node bounds.
    #[must_use]
    pub fn ranges(&self) -> &[(i64, i64)] {
        &self.ranges
    }

    /// Number of integer grid points in the box, saturating at
    /// `i128::MAX`.
    ///
    /// Each endpoint is widened to `i128` *before* the subtraction: a
    /// deserialized region can carry arbitrary `i64` bounds (serde
    /// bypasses the constructor's validation), for which `hi - lo` in
    /// `i64` would overflow.
    #[must_use]
    pub fn point_count(&self) -> i128 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| i128::from(hi) - i128::from(lo) + 1)
            .fold(1i128, i128::saturating_mul)
    }

    /// `true` if the box is a single grid point.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.ranges.iter().all(|&(lo, hi)| lo == hi)
    }

    /// The unique grid point of a point region.
    ///
    /// # Panics
    ///
    /// Panics if the region is not a point.
    #[must_use]
    pub fn to_vector(&self) -> NoiseVector {
        assert!(self.is_point(), "region is not a single point");
        NoiseVector::new(self.ranges.iter().map(|&(lo, _)| lo).collect())
    }

    /// `true` if `nv` lies inside the box.
    #[must_use]
    pub fn contains(&self, nv: &NoiseVector) -> bool {
        nv.len() == self.nodes()
            && nv
                .percents()
                .iter()
                .zip(&self.ranges)
                .all(|(&p, &(lo, hi))| lo <= p && p <= hi)
    }

    /// `true` if `other` is a sub-box of `self` (`other ⊆ self`).
    ///
    /// This is the subsumption order of the engine's verdict cache: a
    /// region proven robust answers every region it contains.
    #[must_use]
    pub fn contains_region(&self, other: &NoiseRegion) -> bool {
        other.nodes() == self.nodes()
            && other
                .ranges
                .iter()
                .zip(&self.ranges)
                .all(|(&(olo, ohi), &(lo, hi))| lo <= olo && ohi <= hi)
    }

    /// The multiplicative noise-factor interval `(100 + [lo, hi])/100` for
    /// node `k`, used by interval propagation.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.nodes()`.
    #[must_use]
    pub fn factor_interval(&self, k: usize) -> Interval {
        let (lo, hi) = self.ranges[k];
        Interval::new(
            Rational::new(100 + i128::from(lo), 100),
            Rational::new(100 + i128::from(hi), 100),
        )
    }

    /// Splits the box on its widest dimension into two disjoint halves
    /// covering the same grid points. Returns `None` for point regions.
    #[must_use]
    pub fn split(&self) -> Option<(NoiseRegion, NoiseRegion)> {
        let (widest, &(lo, hi)) = self
            .ranges
            .iter()
            .enumerate()
            .max_by_key(|(_, &(lo, hi))| hi - lo)?;
        if lo == hi {
            return None;
        }
        let mid = lo + (hi - lo) / 2;
        let mut left = self.clone();
        let mut right = self.clone();
        left.ranges[widest] = (lo, mid);
        right.ranges[widest] = (mid + 1, hi);
        Some((left, right))
    }

    /// Iterates over every grid point in **split-tree order** — the
    /// order in which depth-first search reaches the points by repeated
    /// [`NoiseRegion::split`]: widest dimension first (the last of equally
    /// wide ones), left (lower) half first. The first point is always the
    /// all-`lo` corner.
    ///
    /// This is the crate's one canonical point order (DESIGN.md §5).
    /// Because `split` depends only on the box itself, the points of any
    /// sub-box the search reaches come out in the same relative order
    /// here as under further splitting, so a box proved uniformly wrong
    /// yields the same first fresh witness and the same capped witness
    /// list at whatever depth a screen proved it.
    ///
    /// Lazy: taking the first `k` points costs `O(k + depth)` splits,
    /// never an enumeration of the whole box.
    pub fn iter_points(&self) -> PointIter {
        PointIter {
            stack: vec![self.clone()],
        }
    }
}

impl fmt::Display for NoiseRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{lo}, {hi}]%")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the grid points of a [`NoiseRegion`] in split-tree
/// order (see [`NoiseRegion::iter_points`]).
#[derive(Debug)]
pub struct PointIter {
    /// Boxes still to visit, the next one on top.
    stack: Vec<NoiseRegion>,
}

impl Iterator for PointIter {
    type Item = NoiseVector;

    fn next(&mut self) -> Option<NoiseVector> {
        while let Some(region) = self.stack.pop() {
            match region.split() {
                // Right half first onto the stack, so the left half is
                // visited first — the search's own push order.
                Some((left, right)) => {
                    self.stack.push(right);
                    self.stack.push(left);
                }
                None => return Some(region.to_vector()),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_counts() {
        let r = NoiseRegion::symmetric(11, 5);
        assert_eq!(r.nodes(), 5);
        assert_eq!(r.point_count(), 23i128.pow(5));
        assert!(r.contains(&NoiseVector::new(vec![11, -11, 0, 5, -3])));
        assert!(!r.contains(&NoiseVector::new(vec![12, 0, 0, 0, 0])));
        assert!(!r.contains(&NoiseVector::zero(4)), "width mismatch");
    }

    #[test]
    fn zero_delta_is_single_point() {
        let r = NoiseRegion::symmetric(0, 3);
        assert!(r.is_point());
        assert_eq!(r.to_vector(), NoiseVector::zero(3));
        assert_eq!(r.point_count(), 1);
        assert!(r.split().is_none());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = NoiseRegion::new(vec![(3, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of the model's")]
    fn out_of_model_range_panics() {
        let _ = NoiseRegion::new(vec![(-150, 0)]);
    }

    #[test]
    fn split_partitions_grid() {
        let r = NoiseRegion::new(vec![(-2, 2), (0, 1)]);
        let (a, b) = r.split().expect("splittable");
        assert_eq!(a.point_count() + b.point_count(), r.point_count());
        // Split happens on the widest dimension (index 0 here).
        assert_eq!(a.ranges()[0], (-2, 0));
        assert_eq!(b.ranges()[0], (1, 2));
        assert_eq!(a.ranges()[1], (0, 1));
        // No point in both halves.
        for p in a.iter_points() {
            assert!(!b.contains(&p));
        }
    }

    #[test]
    fn repeated_split_reaches_points() {
        let mut stack = vec![NoiseRegion::symmetric(3, 2)];
        let mut points = 0i128;
        while let Some(r) = stack.pop() {
            match r.split() {
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
                None => {
                    assert!(r.is_point());
                    points += 1;
                }
            }
        }
        assert_eq!(points, 49);
    }

    #[test]
    fn factor_intervals() {
        let r = NoiseRegion::new(vec![(-50, 25)]);
        let f = r.factor_interval(0);
        assert_eq!(f.lo(), Rational::new(1, 2));
        assert_eq!(f.hi(), Rational::new(5, 4));
    }

    #[test]
    fn point_iteration_split_tree_and_complete() {
        // Widest dimension first (axis 1: [5, 7] → [5, 6] | [7, 7]); on a
        // width tie the last axis splits first; left halves come first.
        let r = NoiseRegion::new(vec![(0, 1), (5, 7)]);
        let pts: Vec<Vec<i64>> = r.iter_points().map(|p| p.percents().to_vec()).collect();
        assert_eq!(
            pts,
            [[0, 5], [1, 5], [0, 6], [1, 6], [0, 7], [1, 7]].map(|p| p.to_vec())
        );
        // A zero-node box holds one (empty) point, as `point_count` says.
        assert_eq!(NoiseRegion::new(vec![]).iter_points().count(), 1);
        // Against the definition — the leaves of the split tree, left
        // subtree first — for every box of a wider asymmetric tree: a box
        // proved wrong at any depth lists the witnesses further splitting
        // would reach, in the same order.
        fn leaves(b: &NoiseRegion, out: &mut Vec<NoiseVector>) {
            match b.split() {
                Some((l, r)) => {
                    leaves(&l, out);
                    leaves(&r, out);
                }
                None => out.push(b.to_vector()),
            }
        }
        let wide = NoiseRegion::new(vec![(-3, 2), (0, 4), (-1, 1)]);
        let set: std::collections::HashSet<_> = wide.iter_points().collect();
        assert_eq!(set.len() as i128, wide.point_count(), "complete, distinct");
        let mut stack = vec![wide];
        while let Some(b) = stack.pop() {
            let mut want = Vec::new();
            leaves(&b, &mut want);
            assert_eq!(b.iter_points().collect::<Vec<_>>(), want, "box {b}");
            if let Some((l, r)) = b.split() {
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn point_region_round_trip() {
        let nv = NoiseVector::new(vec![3, -4, 0]);
        let r = NoiseRegion::point(&nv);
        assert!(r.is_point());
        assert_eq!(r.to_vector(), nv);
        assert_eq!(r.iter_points().count(), 1);
    }

    #[test]
    fn display() {
        let r = NoiseRegion::new(vec![(-5, 5), (0, 0)]);
        assert_eq!(r.to_string(), "{[-5, 5]% × [0, 0]%}");
    }

    #[test]
    fn try_new_mirrors_new() {
        assert!(NoiseRegion::try_new(vec![(-5, 5)]).is_ok());
        assert!(NoiseRegion::try_new(vec![(3, 2)])
            .unwrap_err()
            .contains("inverted"));
        assert!(NoiseRegion::try_new(vec![(-150, 0)])
            .unwrap_err()
            .contains("out of the model's"));
    }

    #[test]
    fn point_count_survives_extreme_deserialized_ranges() {
        // serde bypasses the constructor's [-100, 100] validation, so the
        // count must not compute `hi - lo` in i64 (it would overflow here).
        let json = format!(r#"{{"ranges":[[{}, {}]]}}"#, i64::MIN, i64::MAX);
        let r: NoiseRegion = serde_json::from_str(&json).expect("raw ranges deserialize");
        assert_eq!(r.point_count(), (u64::MAX as i128) + 1);
        // Many wide axes saturate instead of wrapping.
        let wide = format!(
            r#"{{"ranges":[{}]}}"#,
            vec![format!("[{}, {}]", i64::MIN, i64::MAX); 3].join(",")
        );
        let r3: NoiseRegion = serde_json::from_str(&wide).expect("raw ranges deserialize");
        assert_eq!(r3.point_count(), i128::MAX);
    }

    #[test]
    fn containment_order() {
        let outer = NoiseRegion::new(vec![(-5, 5), (-3, 4)]);
        let inner = NoiseRegion::new(vec![(-2, 5), (0, 0)]);
        assert!(outer.contains_region(&inner));
        assert!(outer.contains_region(&outer), "containment is reflexive");
        assert!(!inner.contains_region(&outer));
        // Width mismatch is never contained.
        assert!(!outer.contains_region(&NoiseRegion::symmetric(1, 3)));
        // Overlapping but not nested.
        let shifted = NoiseRegion::new(vec![(-6, 0), (0, 0)]);
        assert!(!outer.contains_region(&shifted));
    }
}
