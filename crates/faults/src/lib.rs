//! # fannet-faults
//!
//! Weight-fault and quantization robustness verification (DESIGN.md §11)
//! — FANNet asks whether a verdict survives perturbation of the *inputs*;
//! this crate asks the same question about the network's *parameters*:
//! hardware faults, quantization error and weight drift ("Fault Tolerance
//! of Neural Networks in Adversarial Settings", Duddu et al.;
//! "Adversarial Examples as an Input-Fault Tolerance Problem", Galloway
//! et al.).
//!
//! * [`model`] — the [`FaultModel`] taxonomy: relative weight noise,
//!   stuck-at neurons, bit flips, quantization error.
//! * [`region`] — the fault space as a box of per-parameter
//!   [`Interval`](fannet_numeric::Interval)s ([`FaultRegion`]) with the
//!   `f64` encodings its screens read, plus concrete [`FaultedNetwork`]s.
//! * [`propagate`] — the interval-weight propagators: exact rational
//!   intervals, and the input-noise float and zonotope screens' kernels
//!   over the region's encodings, the zonotope giving every faulted
//!   weight its own shared noise symbol so correlated faults cancel in
//!   output differences — the fault-space mirror of the input-noise
//!   screens, run by the same screen pass.
//! * [`joint`] — the one fault search: the joint input×weight product
//!   domain ([`ProductRegion`], [`JointChecker`]), "robust to ±δ input
//!   noise *and* ±ε weight noise simultaneously", with both factors
//!   refined by the generic `fannet-search` core (DESIGN.md §12).
//! * [`checker`] — the [`FaultChecker`]: the joint check at the zero
//!   noise box (every split refines the weight intervals), its concrete
//!   fault probes, and the fault-tolerance binary search (largest ε
//!   whose weight-noise ball provably keeps the label).
//!
//! Verdict semantics differ from the input-noise checker in one
//! fundamental way: the fault space is continuous (or combinatorially
//! huge, for bit flips), so the procedure is **sound but not complete**
//! — [`FaultOutcome::Robust`] and [`FaultOutcome::Vulnerable`] are
//! proofs, [`FaultOutcome::Unknown`] is an honest "the budgeted search
//! could not decide". Fault and joint checks share this outcome; a
//! [`FaultWitness`] names its noise vector, the zero vector for a plain
//! fault check.
//!
//! ## Example
//!
//! ```
//! use fannet_faults::{FaultChecker, FaultCheckerConfig, FaultModel, FaultOutcome, JointChecker};
//! use fannet_nn::{Activation, DenseLayer, Network, Readout};
//! use fannet_numeric::Rational;
//! use fannet_tensor::Matrix;
//! use fannet_verify::region::NoiseRegion;
//!
//! // label 0 iff x0 ≥ x1.
//! let r = |n: i128| Rational::from_integer(n);
//! let net = Network::new(vec![DenseLayer::new(
//!     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
//!     vec![r(0), r(0)],
//!     Activation::Identity,
//! )?], Readout::MaxPool)?;
//!
//! let checker = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
//! let x = [r(100), r(82)];
//! // ±5% relative weight noise cannot close an 18% margin…
//! let small = FaultModel::WeightNoise { rel_eps: Rational::new(5, 100) };
//! let (outcome, _) = checker.check(&x, 0, &small)?;
//! assert_eq!(outcome, FaultOutcome::Robust);
//! // …but ±20% can: the checker finds a concrete faulted network.
//! let large = FaultModel::WeightNoise { rel_eps: Rational::new(20, 100) };
//! let (outcome, _) = checker.check(&x, 0, &large)?;
//! assert!(matches!(outcome, FaultOutcome::Vulnerable(_)));
//! // The fault check is the joint check at the zero noise box: same
//! // verdict, witness and counters. ±2% input noise on top of ±5%
//! // weight noise still keeps the label.
//! let joint = JointChecker::new(net, FaultCheckerConfig::default());
//! let zero = NoiseRegion::symmetric(0, 2);
//! assert_eq!(joint.check(&x, 0, &zero, &large)?, checker.check(&x, 0, &large)?);
//! let (outcome, _) = joint.check(&x, 0, &NoiseRegion::symmetric(2, 2), &small)?;
//! assert_eq!(outcome, FaultOutcome::Robust);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checker;
pub mod joint;
pub mod model;
pub mod propagate;
pub mod region;

pub use checker::{
    FaultChecker, FaultCheckerConfig, FaultOutcome, FaultStats, FaultTolerance, FaultWitness,
    ToleranceSearch,
};
pub use joint::{JointChecker, JointTolerance, ProductRegion};
pub use model::FaultModel;
pub use region::{FaultRegion, FaultedNetwork};
