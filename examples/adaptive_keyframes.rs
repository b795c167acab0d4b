//! Adaptive key-frame allocation: watch the block-error policy spend key
//! frames only when the scene becomes unpredictable.
//!
//! ```sh
//! cargo run --release --example adaptive_keyframes
//! ```
//!
//! The clip stitches three regimes together — a frozen scene, smooth panning,
//! and a chaotic jittering object — and prints which frames the policy chose
//! to refresh on. Expect almost no key frames during the frozen segment,
//! sparse keys while panning, and frequent keys in the chaotic segment.

use eva2::amc::executor::AmcConfig;
use eva2::amc::policy::PolicyConfig;
use eva2::amc::serve::Engine;
use eva2::cnn::zoo;
use eva2::tensor::GrayImage;
use eva2::video::scene::{MotionRegime, Scene, SceneConfig};
use std::sync::Arc;

fn segment(regime: MotionRegime, seed: u64, frames: usize) -> Vec<GrayImage> {
    let mut cfg = SceneConfig::detection(48, 48).with_regime(regime);
    cfg.noise_std = 1.0;
    // Isolate the object-motion regimes: no camera pan or lighting drift
    // (both are legitimate key-frame triggers but would blur the demo).
    cfg.camera_pan = false;
    cfg.lighting_drift = 0.0;
    let mut scene = Scene::new(cfg, seed);
    scene
        .render_clip(frames)
        .frames
        .into_iter()
        .map(|f| f.image)
        .collect()
}

fn main() {
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    let config = AmcConfig {
        policy: PolicyConfig::BlockError {
            threshold: 2.0,
            max_gap: 64,
        },
        ..Default::default()
    };
    let mut engine = Engine::new(net, config).unwrap();
    let mut stream = engine.open_session().unwrap();

    let segments = [
        ("frozen", MotionRegime::Frozen, 42u64),
        ("smooth pan", MotionRegime::Smooth, 43),
        ("chaotic", MotionRegime::Chaotic, 44),
    ];
    println!("block-error adaptive policy (threshold 2.0 intensity/px):\n");
    for (name, regime, seed) in segments {
        let frames = segment(regime, seed, 12);
        let mut pattern = String::new();
        let mut keys = 0;
        for image in &frames {
            let r = engine.process(&mut stream, image).unwrap();
            pattern.push(if r.is_key { 'K' } else { '.' });
            keys += r.is_key as usize;
        }
        println!("{name:>11}: {pattern}   ({keys}/12 key frames)");
    }
    let stats = stream.stats();
    println!(
        "\noverall: {:.0}% key frames, {} RFBME adds, {} warp interpolations",
        100.0 * stats.key_fraction(),
        stats.rfbme_ops,
        stats.warp_interpolations
    );
    println!("(scene cuts between segments also force key frames — exactly the behaviour");
    println!(" the paper's pixel-compensation-error feature is designed to catch)");
}
