//! # fannet-verify
//!
//! The exact decision procedure behind the FANNet (DATE 2020) reproduction —
//! this crate plays the role nuXmv's symbolic engine plays in the paper
//! (DESIGN.md §5 gives the substitution argument).
//!
//! * [`noise`] — the paper's relative integer-percent noise model
//!   (`x' = x·(100+p)/100`) and the noise matrix `e` ([`noise::ExclusionSet`]).
//! * [`region`] — boxes of noise vectors, the abstract states of the search.
//! * [`propagate`] — sound interval abstract interpretation of rational
//!   networks over a noise box.
//! * [`zonotope`] — sound affine-form (zonotope) abstract interpretation,
//!   the middle screening tier that classifies on output *differences*.
//! * [`screen`] — the screen pass of both search domains: the float
//!   screen, then the zonotope screen on what it leaves undecided.
//! * [`exact`] — ground-truth rational evaluation and counterexample
//!   records.
//! * [`bab`] — branch-and-bound: sound *and complete* over the integer
//!   noise grid, with optional exclusion sets (property **P3**).
//! * [`enumerate`] — the P3 loop as an iterator of unique counterexamples.
//!
//! ## Example
//!
//! ```
//! use fannet_numeric::Rational;
//! use fannet_nn::{Activation, DenseLayer, Network, Readout};
//! use fannet_tensor::Matrix;
//! use fannet_verify::{bab, region::NoiseRegion};
//!
//! // label 0 iff x0 ≥ x1.
//! let r = |n: i128| Rational::from_integer(n);
//! let net = Network::new(vec![DenseLayer::new(
//!     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
//!     vec![r(0), r(0)],
//!     Activation::Identity,
//! )?], Readout::MaxPool)?;
//!
//! let x = [r(100), r(90)];
//! let (outcome, _) = bab::find_counterexample(&net, &x, 0, &NoiseRegion::symmetric(4, 2))?;
//! assert!(outcome.is_robust()); // ±4 % cannot close a 10 % gap
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bab;
pub mod enumerate;
pub mod exact;
pub mod noise;
pub mod propagate;
pub mod region;
pub mod screen;
pub mod zonotope;

pub use bab::{BabStats, CheckerConfig, RegionChecker, RegionOutcome, ScreeningTier};
pub use exact::Counterexample;
// Re-exported so cost-attribution callers (`check_region_timed`) need
// not depend on `fannet-search` directly.
pub use fannet_search::TierTimer;
pub use noise::{ExclusionSet, NoiseVector};
pub use region::NoiseRegion;
