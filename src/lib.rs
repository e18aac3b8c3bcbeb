//! # fannet — reproduction of FANNet (DATE 2020)
//!
//! A Rust reproduction of *"FANNet: Formal Analysis of Noise Tolerance,
//! Training Bias and Input Sensitivity in Neural Networks"* (Naseer, Minhas,
//! Khalid, Hanif, Hasan, Shafique — DATE 2020, arXiv:1912.01978).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `fannet-numeric` | exact rationals, exact and outward-rounded `f64` intervals, affine forms, the `Scalar` abstraction |
//! | [`tensor`] | `fannet-tensor` | dense matrices/vectors generic over `Scalar` |
//! | [`nn`] | `fannet-nn` | feed-forward networks, training (paper's two-phase schedule), quantization, model I/O |
//! | [`data`] | `fannet-data` | synthetic Golub leukemia dataset, normalization, mRMR feature selection |
//! | [`smv`] | `fannet-smv` | SMV-subset front end, NN→SMV translation, explicit-state model checking, Fig. 3 state-space accounting |
//! | [`verify`] | `fannet-verify` | exact branch-and-bound decision procedure over integer-percent noise regions |
//! | [`faults`] | `fannet-faults` | the joint input×weight product domain, and weight-fault & quantization robustness as its zero-noise-box case |
//! | [`engine`] | `fannet-engine` | persistent query engine: subsumption-aware verdict cache, incremental tolerance search, batch/JSONL serving |
//! | [`server`] | `fannet-server` | concurrent serving front end: TCP listener, bounded-queue backpressure, per-connection response ordering, graceful drain |
//! | [`core`] | `fannet-core` | the FANNet methodology: P1/P2/P3, noise tolerance, adversarial extraction, bias, sensitivity, boundary analysis |
//!
//! The workspace's other crates are not re-exported: `fannet-search` (the
//! domain-generic branch-and-bound core), `fannet-obs` (logging, latency
//! histograms, spans) and `fannet-bench` (the `repro` experiment
//! regenerator).
//!
//! ## Quickstart
//!
//! ```no_run
//! use fannet::core::casestudy::{build, CaseStudyConfig};
//! use fannet::core::pipeline::{self, AnalysisConfig};
//!
//! // Train the paper's 5–20–2 leukemia classifier end to end…
//! let cs = build(&CaseStudyConfig::paper());
//! // …and run the full formal analysis.
//! let report = pipeline::run(
//!     &cs.exact_net,
//!     &cs.float_net,
//!     &cs.train5,
//!     &cs.test5,
//!     &AnalysisConfig::default(),
//! );
//! println!("{}", report.render_text());
//! println!("noise tolerance: ±{}%", report.noise_tolerance());
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the design.
//! `repro`'s text output (`cargo run --release -p fannet-bench --bin repro`)
//! regenerates every paper experiment next to the paper's value, and
//! `tests/paper_numbers.rs` pins the measured numbers.

pub use fannet_core as core;
pub use fannet_data as data;
pub use fannet_engine as engine;
pub use fannet_faults as faults;
pub use fannet_nn as nn;
pub use fannet_numeric as numeric;
pub use fannet_server as server;
pub use fannet_smv as smv;
pub use fannet_tensor as tensor;
pub use fannet_verify as verify;
