//! # fannet-nn
//!
//! Feed-forward fully-connected neural networks for the FANNet (DATE 2020)
//! reproduction: definition ([`Network`], [`DenseLayer`], [`Activation`]),
//! deterministic initialization ([`init`]), full-batch training with the
//! paper's two-phase learning-rate schedule ([`train`]), exact quantization
//! to rationals for verification ([`quantize`]) and model (de)serialization
//! ([`io`]).
//!
//! The network code is generic over [`fannet_numeric::Scalar`], so a single
//! forward-pass implementation serves `f64` training and exact-`Rational`
//! verification.
//!
//! ## Example: train, quantize, classify exactly
//!
//! ```
//! use fannet_nn::{init, train, quantize, Activation};
//! use fannet_numeric::Rational;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = init::fresh_network(&mut rng, &[2, 6, 2], Activation::ReLU,
//!                                   init::Init::XavierUniform);
//! let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.9, 0.1], vec![-0.1, 1.1]];
//! let ys = vec![0, 1, 0, 1];
//! train::train(&mut net, &xs, &ys, &train::TrainConfig::paper())?;
//!
//! let exact = quantize::to_rational_default(&net);
//! let x = [Rational::from_integer(1), Rational::ZERO];
//! assert_eq!(exact.classify(&x)?, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod activation;
pub mod fingerprint;
pub mod fold;
pub mod init;
pub mod io;
pub mod layer;
pub mod network;
pub mod quantize;
pub mod train;

pub use activation::Activation;
pub use fingerprint::NetworkFingerprint;
pub use layer::DenseLayer;
pub use network::{ForwardTrace, Network, Readout};
