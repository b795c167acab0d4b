//! The serving engine's single-stream contract: over a synthetic 20-frame
//! sequence with pans, a scene cut, and policy-forced key frames, one
//! [`StreamSession`] served by an [`Engine`] produces every output tensor,
//! frame kind, and statistic bit-identical to the serial [`AmcExecutor`] —
//! at any worker count, threading must be invisible except in wall-clock
//! time.
//!
//! Worker counts are forced ([`EngineLimits::worker_threads`]), so the
//! fan-out code path runs even on a single-CPU machine.
//!
//! [`StreamSession`]: eva2_core::serve::StreamSession

use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor, WarpMode};
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::{Engine, EngineLimits};
use eva2_tensor::GrayImage;
use std::sync::Arc;

/// 20 frames: a slow rightward pan, a hard scene cut at frame 10, then a
/// diagonal drift — exercising predicted frames, a forced key frame, and
/// fresh motion state after the cut.
fn sequence() -> Vec<GrayImage> {
    (0..20usize)
        .map(|t| {
            GrayImage::from_fn(48, 48, |y, x| {
                if t < 10 {
                    let xs = (x + t) as f32;
                    (122.0 + 48.0 * ((y as f32 * 0.31).sin() + (xs * 0.21).cos())) as u8
                } else {
                    let s = t - 10;
                    let v = ((y + s) * 17 + (x + 2 * s) * 23) % 200;
                    (28 + v) as u8
                }
            })
        })
        .collect()
}

/// Worker counts to pin: inline (1), a small pool (2), and more workers
/// than the one stream can use (5, so some idle every phase).
const WORKER_COUNTS: [usize; 3] = [1, 2, 5];

fn assert_bit_identical(config: AmcConfig, label: &str) {
    let z = zoo::tiny_fasterm(3);
    let frames = sequence();
    for workers in WORKER_COUNTS {
        let label = format!("{label}/{workers}w");
        let limits = EngineLimits::builder()
            .worker_threads(workers)
            .build()
            .expect("valid limits");
        let mut engine = Engine::with_limits(Arc::new(z.network.clone()), config, limits)
            .expect("valid engine config");
        let mut session = engine.open_session().expect("engine has capacity");
        let mut serial = AmcExecutor::try_new(&z.network, config).unwrap();
        let mut keys = 0usize;
        for (t, frame) in frames.iter().enumerate() {
            let x = serial.process(frame);
            let y = engine
                .process(&mut session, frame)
                .expect("clean frame serves");
            keys += usize::from(x.is_key);
            assert_eq!(x.is_key, y.is_key, "{label}: frame {t} kind");
            assert_eq!(
                x.output.as_slice(),
                y.output.as_slice(),
                "{label}: frame {t} output bits"
            );
            assert_eq!(x.macs_executed, y.macs_executed, "{label}: frame {t} MACs");
            assert_eq!(x.rfbme_ops, y.rfbme_ops, "{label}: frame {t} RFBME ops");
            assert_eq!(
                x.compression, y.compression,
                "{label}: frame {t} compression"
            );
        }
        assert_eq!(serial.stats(), session.stats(), "{label}: aggregate stats");
        // The sequence must actually exercise both frame kinds for the
        // comparison to mean anything.
        assert!(
            (2..20).contains(&keys),
            "{label}: degenerate sequence ({keys} keys)"
        );
    }
}

#[test]
fn pipelined_bit_identical_over_20_frames_default_policy() {
    assert_bit_identical(AmcConfig::default(), "default");
}

#[test]
fn pipelined_bit_identical_with_fixed_point_warp() {
    assert_bit_identical(
        AmcConfig {
            fixed_point: true,
            ..Default::default()
        },
        "fixed-point",
    );
}

#[test]
fn pipelined_bit_identical_with_memoize_and_static_rate() {
    assert_bit_identical(
        AmcConfig {
            warp: WarpMode::Memoize,
            policy: PolicyConfig::StaticRate { period: 3 },
            ..Default::default()
        },
        "memoize/static-rate",
    );
}
