//! # fannet-numeric
//!
//! Numeric substrate for the FANNet (DATE 2020) reproduction: exact rational
//! arithmetic, rational interval arithmetic, and the [`Scalar`] abstraction
//! that lets the network code run over `f64` or [`Rational`].
//!
//! FANNet's verdicts ("no noise vector within ±Δ% flips this input") are
//! formal claims, so the entire decision path is carried out in exact
//! [`Rational`] arithmetic — floating point appears only in training and
//! reporting. [`Interval`] provides the abstract domain for the
//! branch-and-bound verifier, [`FloatInterval`] and [`AffineForm`] its
//! outward-rounded `f64` screening counterparts (interval and zonotope
//! tiers).
//!
//! ## Example
//!
//! ```
//! use fannet_numeric::{Interval, Rational, Scalar};
//!
//! // The paper's relative noise model: x' = x · (100 + p) / 100, exactly.
//! let x = Rational::from_integer(250);
//! let p = Rational::from_percent(-11);
//! assert_eq!(x * (Rational::ONE + p), Rational::new(445, 2));
//!
//! // Interval enclosure of all noise percentages in [-11, 11]:
//! let noise = Interval::new(Rational::from_percent(-11), Rational::from_percent(11));
//! let factor = noise.shift(Rational::ONE);
//! let image = Interval::point(x).mul_interval(&factor);
//! assert!(image.contains(Rational::new(445, 2)));
//! ```

pub mod affine;
pub mod float_interval;
pub mod interval;
pub mod rational;
pub mod scalar;

pub use affine::AffineForm;
pub use float_interval::FloatInterval;
pub use interval::Interval;
pub use rational::Rational;
pub use scalar::Scalar;
