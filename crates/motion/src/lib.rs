//! Motion estimation for activation motion compensation.
//!
//! "Motion estimation is the problem of computing a vector field describing
//! the visual displacement between two input frames" (§II-C1 of the EVA²
//! paper). This crate implements the paper's new algorithm and every baseline
//! its evaluation compares against:
//!
//! * [`rfbme`] — **receptive field block motion estimation**, the paper's
//!   contribution (§III-A), structured exactly like the hardware: a
//!   [`rfbme::DiffTileProducer`] computing tile-level absolute differences
//!   and a [`rfbme::DiffTileConsumer`] aggregating them into receptive-field
//!   differences with rolling add/subtract reuse (Fig 8).
//! * [`block`] — classic block-matching searches (exhaustive, three-step,
//!   diamond) from the video-codec literature the paper cites [19, 20].
//! * [`lucas_kanade`] — the classic sparse-to-dense optical flow baseline of
//!   Fig 14.
//! * [`precomputed`] — codec-supplied motion vectors (the paper's §VI
//!   future-work direction), replayed through the same interface.
//! * [`hornschunck`] — dense variational optical flow, standing in for the
//!   FlowNet2-s learned-flow baseline of Fig 14 (both give a dense, globally
//!   smooth, costly field; Horn–Schunck needs no training).
//!
//! Every estimator reports an arithmetic **operation count** so the
//! first-order efficiency model of §IV-A can be evaluated empirically.
//!
//! # Example
//!
//! ```
//! use eva2_motion::rfbme::{Rfbme, RfGeometry, SearchParams};
//! use eva2_tensor::GrayImage;
//!
//! let key = GrayImage::from_fn(32, 32, |y, x| ((y * 7 + x * 5) % 251) as u8);
//! let new = key.translate(0, 2, 0); // pan right by 2 pixels
//! let rf = RfGeometry { size: 8, stride: 4, padding: 0 };
//! let rfbme = Rfbme::new(rf, SearchParams { radius: 4, step: 1 });
//! let result = rfbme.estimate(&key, &new);
//! // The dominant vector points 2 pixels left in the key frame... i.e. the
//! // block now at x was at x - 2... sign convention: pred[p] = key[p + v].
//! let v = result.field.get(3, 3);
//! assert_eq!((v.dy, v.dx), (0.0, -2.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod field;
pub mod hornschunck;
pub mod lucas_kanade;
pub mod precomputed;
pub mod rfbme;
pub mod sad;

pub use field::{MotionVector, VectorField};
pub use rfbme::{RfGeometry, Rfbme, RfbmeScratch, SearchParams, SearchStats};

use eva2_tensor::GrayImage;

/// A motion-estimation outcome: the vector field plus instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionResult {
    /// Estimated displacement field. `field.get(gy, gx)` is the motion of
    /// the cell whose top-left pixel is `(gy * cell, gx * cell)`; the sign
    /// convention is *gather*: the content now at `p` came from `p + v` in
    /// the key frame.
    pub field: VectorField,
    /// Total arithmetic operations performed (adds/mults), for the §IV-A
    /// first-order model.
    pub ops: u64,
    /// Aggregate matching error (sum of per-block minimum SADs) when the
    /// estimator is block-based; `None` for optical-flow methods. This is
    /// the signal the paper's *pixel compensation error* key-frame policy
    /// consumes (§II-C4).
    pub total_error: Option<u64>,
}

/// Common interface over all motion estimators, used by the Fig 14 harness.
pub trait MotionEstimator {
    /// Human-readable name for reports (e.g. `RFBME`, `Lucas-Kanade`).
    fn name(&self) -> &str;

    /// Estimates motion from `key` (reference) to `new` (current frame).
    fn estimate(&self, key: &GrayImage, new: &GrayImage) -> MotionResult;
}
