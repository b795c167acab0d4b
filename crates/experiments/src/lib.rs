//! Experiment harness regenerating every table and figure of the EVA² paper.
//!
//! Each binary in `src/bin/` reproduces one artifact; this library holds the
//! shared machinery:
//!
//! * [`workloads`] — builds and trains the three scaled-down networks on the
//!   synthetic video datasets (the Caffe-training step of §IV-B).
//! * [`evalproto`] — the paper's evaluation protocols: full-CNN baselines,
//!   the fixed-gap key→predicted protocol of Fig 14 / Table II, and
//!   policy-driven runs over whole clips for Table I / Fig 15.
//! * [`report`] — plain-text tables matching the paper's rows plus JSON
//!   dumps under `results/`.
//!
//! Binaries:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig12_area` | Fig 12 area comparison |
//! | `fig13_energy_latency` | Fig 13 energy & latency bars |
//! | `table1_tradeoff` | Table I accuracy/efficiency trade-off |
//! | `fig14_motion_estimation` | Fig 14 motion-estimator comparison |
//! | `table2_target_layer` | Table II early/late target accuracy |
//! | `table3_retraining` | Table III suffix retraining |
//! | `fig15_keyframe_policy` | Fig 15 adaptive key-frame strategies |
//! | `sec4a_firstorder` | §IV-A first-order op model |
//!
//! Set `EVA2_QUICK=1` to shrink datasets/training for smoke runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod evalproto;
pub mod report;
pub mod workloads;

/// `true` when `EVA2_QUICK=1` (smaller datasets, faster smoke runs).
pub fn quick_mode() -> bool {
    std::env::var("EVA2_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
