//! Classification-boundary estimation (paper §V-C.2).
//!
//! Fig. 4 of the paper observes that "a few inputs among the dataset (i.e.
//! inputs closer to the classification boundary) were observed to be highly
//! susceptible to input noise", while other inputs survive even ±50 %: the
//! per-input robustness radius is a proxy for distance to the decision
//! boundary in the input hyperspace. This module joins the radii from the
//! tolerance analysis with the exact zero-noise output margin, giving two
//! independent boundary-proximity measures whose agreement the tests check
//! and `repro`'s text output reports (the margin/radius concordance).

use fannet_data::Dataset;
use fannet_nn::Network;
use fannet_numeric::{Rational, Scalar};
use serde::{Deserialize, Serialize};

use crate::behavior::rational_input;
use crate::tolerance::ToleranceReport;

/// Boundary-proximity record for one input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundaryPoint {
    /// Index of the input in the analysed dataset.
    pub index: usize,
    /// True label.
    pub label: usize,
    /// Robustness radius (`None` = robust through the probed range).
    pub radius: Option<i64>,
    /// Exact output margin at zero noise (as `f64` for reporting; the sign
    /// is decided exactly before conversion).
    pub margin: f64,
}

/// The boundary-analysis report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundaryReport {
    /// One record per analysed input, in the tolerance report's order.
    pub points: Vec<BoundaryPoint>,
    /// Radius at or below which an input counts as "near the boundary".
    pub near_threshold: i64,
}

impl BoundaryReport {
    /// Inputs near the boundary (radius ≤ threshold).
    #[must_use]
    pub fn near_boundary(&self) -> Vec<usize> {
        self.points
            .iter()
            .filter(|p| p.radius.is_some_and(|r| r <= self.near_threshold))
            .map(|p| p.index)
            .collect()
    }

    /// Inputs far from the boundary (no counterexample in the whole probed
    /// range).
    #[must_use]
    pub fn far_from_boundary(&self) -> Vec<usize> {
        self.points
            .iter()
            .filter(|p| p.radius.is_none())
            .map(|p| p.index)
            .collect()
    }

    /// Spearman-like rank agreement between margin and radius: fraction of
    /// comparable input pairs where the larger margin also has the larger
    /// radius (robust inputs count as radius `+∞`). `1.0` means the two
    /// boundary-proximity measures order the inputs identically.
    #[must_use]
    pub fn margin_radius_concordance(&self) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for (i, a) in self.points.iter().enumerate() {
            for b in &self.points[i + 1..] {
                let ra = a.radius.unwrap_or(i64::MAX);
                let rb = b.radius.unwrap_or(i64::MAX);
                if ra == rb || a.margin == b.margin {
                    continue;
                }
                total += 1;
                if (a.margin > b.margin) == (ra > rb) {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            agree as f64 / total as f64
        }
    }
}

/// Exact zero-noise margin of one input: `out[label] − max(out[other])`,
/// computed in rational arithmetic and converted to `f64` for reporting.
///
/// # Panics
///
/// Panics if widths mismatch or `label` is out of range.
#[must_use]
pub fn exact_margin(net: &Network<Rational>, x: &[Rational], label: usize) -> f64 {
    net.margin(x, label)
        .expect("width validated by caller")
        .to_f64()
}

/// Builds the boundary report by joining a [`ToleranceReport`] with exact
/// zero-noise margins.
///
/// # Panics
///
/// Panics if the tolerance report's indices fall outside `data`.
#[must_use]
pub fn analyze(
    net: &Network<Rational>,
    data: &Dataset,
    tolerance: &ToleranceReport,
    near_threshold: i64,
) -> BoundaryReport {
    let points = tolerance
        .per_input
        .iter()
        .map(|r| {
            let x = rational_input(&data.samples()[r.index]);
            BoundaryPoint {
                index: r.index,
                label: r.label,
                radius: r.radius,
                margin: exact_margin(net, &x, r.label),
            }
        })
        .collect();
    BoundaryReport {
        points,
        near_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tolerance;
    use fannet_nn::{Activation, DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn comparator() -> Network<Rational> {
        Network::new(
            vec![DenseLayer::new(
                Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]]).unwrap(),
                vec![r(0), r(0)],
                Activation::Identity,
            )
            .unwrap()],
            Readout::MaxPool,
        )
        .unwrap()
    }

    fn dataset() -> Dataset {
        // Margins: 2, 18, 60 — increasing distance from the boundary.
        Dataset::new(
            vec![vec![100.0, 98.0], vec![100.0, 82.0], vec![100.0, 40.0]],
            vec![0, 0, 0],
            2,
        )
        .unwrap()
    }

    #[test]
    fn margins_are_exact() {
        let net = comparator();
        assert_eq!(exact_margin(&net, &[r(100), r(98)], 0), 2.0);
        assert_eq!(exact_margin(&net, &[r(100), r(98)], 1), -2.0);
    }

    #[test]
    fn near_and_far_partition() {
        let net = comparator();
        let data = dataset();
        let tol = tolerance::analyze(&net, &data, &[0, 1, 2], 20);
        let report = analyze(&net, &data, &tol, 5);
        assert_eq!(report.near_boundary(), vec![0], "margin-2 input is near");
        assert_eq!(
            report.far_from_boundary(),
            vec![2],
            "margin-60 input never flips at ±20"
        );
        assert_eq!(report.points.len(), 3);
    }

    #[test]
    fn margin_and_radius_agree_for_linear_net() {
        // For this comparator the radius is a monotone function of the
        // margin, so concordance must be perfect.
        let net = comparator();
        let data = dataset();
        let tol = tolerance::analyze(&net, &data, &[0, 1, 2], 20);
        let report = analyze(&net, &data, &tol, 5);
        assert_eq!(report.margin_radius_concordance(), 1.0);
    }

    #[test]
    fn empty_report_concordance_is_one() {
        let report = BoundaryReport {
            points: vec![],
            near_threshold: 5,
        };
        assert_eq!(report.margin_radius_concordance(), 1.0);
        assert!(report.near_boundary().is_empty());
        assert!(report.far_from_boundary().is_empty());
    }
}
