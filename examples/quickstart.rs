//! Quickstart: run activation motion compensation over a synthetic clip.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small detection CNN, generates a synthetic video scene, and
//! serves it as one stream of an AMC `Engine`, printing per-frame decisions
//! and the work saved relative to running the full CNN every frame.
//!
//! One stream is one `StreamSession`; see `examples/multi_stream.rs` for
//! serving many concurrent streams through the same `Engine` with
//! cross-stream batched key frames.

use eva2::amc::executor::AmcConfig;
use eva2::amc::serve::Engine;
use eva2::cnn::zoo;
use eva2::video::scene::{Scene, SceneConfig};
use std::sync::Arc;

fn main() {
    // 1. A CNN with a spatial prefix and a fully-connected suffix.
    let net = Arc::new(zoo::tiny_fasterm(42).network);
    println!("network: {net:?}");

    // 2. A synthetic live-video scene (moving sprite, camera pan, noise).
    let mut scene = Scene::new(SceneConfig::detection(48, 48), 7);
    let clip = scene.render_clip(20);

    // 3. AMC with the default configuration: late target layer, RFBME
    //    motion estimation, bilinear warping, adaptive block-error policy.
    //    The builder validates; construction errors are typed (`AmcError`).
    let config = AmcConfig::builder().build().expect("defaults are valid");
    let mut engine = Engine::new(net, config).expect("resolvable target");
    let mut stream = engine.open_session().expect("engine has capacity");
    println!(
        "target layer = {} (receptive field {:?})",
        engine.target(),
        engine.rf_geometry()
    );
    println!();

    for (t, frame) in clip.frames.iter().enumerate() {
        let result = engine.process(&mut stream, &frame.image).unwrap();
        let kind = if result.is_key { "KEY " } else { "pred" };
        let err = result
            .metrics
            .map(|m| format!("{:6.2}", m.block_error_per_pixel))
            .unwrap_or_else(|| "     -".into());
        println!(
            "frame {t:2}  {kind}  MACs executed {:>9}  block err/px {err}",
            result.macs_executed
        );
    }

    let stats = stream.stats();
    let full = engine.total_macs() * stats.frames as u64;
    println!();
    println!(
        "key frames: {}/{} ({:.0}%)",
        stats.key_frames,
        stats.frames,
        100.0 * stats.key_fraction()
    );
    println!(
        "MACs: {} vs {} for all-key execution ({:.1}% saved)",
        stats.macs,
        full,
        100.0 * (1.0 - stats.macs as f64 / full as f64)
    );
    if let Some(rle) = stream.key_activation() {
        println!(
            "sparse activation store: {:.0}% compression",
            100.0 * rle.compression()
        );
    }
}
