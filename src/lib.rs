//! # EVA² — Exploiting Temporal Redundancy in Live Computer Vision
//!
//! A from-scratch Rust reproduction of Buckler et al., ISCA 2018
//! (arXiv:1803.06312): **activation motion compensation (AMC)** and the
//! **EVA²** hardware unit, together with every substrate the paper's
//! evaluation depends on.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`tensor`] — tensors, 8-bit frames, Q8.8 fixed point, interpolation.
//! * [`video`] — synthetic annotated live video (the YTBB stand-in).
//! * [`cnn`] — a trainable CNN library with prefix/suffix execution and
//!   receptive-field arithmetic.
//! * [`motion`] — RFBME and the motion-estimation baselines.
//! * [`analysis`] — the build-time model/pipeline verifier: shape
//!   inference, warp-legality, Q8.8 range analysis, and sparsity-flow
//!   passes over a network IR (`analysis::analyze`), with stable
//!   diagnostic codes. `Engine` construction consults it.
//! * [`amc`] — activation motion compensation: warp engine, sparse
//!   activation store, key-frame policies, and the serving engine that
//!   runs them (`amc::serve::Engine`, one `StreamSession` per video
//!   stream, with cross-stream batched key frames) — crate `eva2-core`.
//! * [`hw`] — the Eyeriss + EIE + EVA² energy/latency/area model.
//!
//! ## Quick start
//!
//! ```
//! use eva2::amc::executor::AmcConfig;
//! use eva2::amc::serve::Engine;
//! use eva2::cnn::zoo;
//! use eva2::video::scene::{Scene, SceneConfig};
//! use std::sync::Arc;
//!
//! let net = Arc::new(zoo::tiny_fasterm(1).network);
//! let mut scene = Scene::new(SceneConfig::detection(48, 48), 7);
//! let clip = scene.render_clip(5);
//! let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
//! let mut stream = engine.open_session().unwrap();
//! for frame in &clip.frames {
//!     let result = engine.process(&mut stream, &frame.image).unwrap();
//!     // result.output is the CNN suffix output for this frame.
//!     assert_eq!(result.output.shape().channels, zoo::DETECTION_OUTPUTS);
//! }
//! assert!(stream.stats().key_frames >= 1);
//! ```
//!
//! The experiment binaries in `crates/experiments` regenerate the paper's
//! tables and figures at this reproduction's scale.

#![forbid(unsafe_code)]

pub use eva2_analysis as analysis;
pub use eva2_cnn as cnn;
pub use eva2_core as amc;
pub use eva2_hw as hw;
pub use eva2_motion as motion;
pub use eva2_tensor as tensor;
pub use eva2_video as video;
