//! Object tracking on live video with AMC: train a small detector, then
//! follow a moving sprite through a clip, comparing the detections produced
//! by full per-frame CNN execution against AMC's cheap predicted frames.
//!
//! ```sh
//! cargo run --release --example object_tracking
//! ```

use eva2::amc::executor::AmcConfig;
use eva2::amc::serve::Engine;
use eva2::cnn::metrics::Detection;
use eva2::cnn::train::{train_detector, DetSample, TrainConfig};
use eva2::cnn::zoo;
use eva2::video::scene::{MotionRegime, Scene, SceneConfig};
use std::sync::Arc;

fn main() {
    // Train a small detector on a few hundred synthetic frames.
    println!("training detector (~30 s in release mode)...");
    let mut workload = zoo::tiny_fasterm(1);
    let samples: Vec<DetSample> = (0..300)
        .map(|seed| {
            let scene = Scene::new(SceneConfig::detection(48, 48), 1000 + seed);
            let frame = scene.render((seed % 3) as usize);
            let h = frame.image.height() as f32;
            let (cy, cx) = frame.truth.bbox.center();
            DetSample {
                input: frame.image.to_tensor(),
                label: frame.truth.class,
                bbox: [
                    cy / h,
                    cx / h,
                    frame.truth.bbox.h / h,
                    frame.truth.bbox.w / h,
                ],
            }
        })
        .collect();
    let cfg = TrainConfig {
        epochs: 10,
        lr: 0.002,
        ..TrainConfig::default()
    };
    train_detector(&mut workload.network, &samples, &cfg);

    // A fresh scene the detector has never seen, with medium motion.
    let mut scene = Scene::new(
        SceneConfig::detection(48, 48).with_regime(MotionRegime::Medium),
        999_983,
    );
    let clip = scene.render_clip(16);

    let mut engine = Engine::new(Arc::new(workload.network), AmcConfig::default()).unwrap();
    let mut stream = engine.open_session().unwrap();
    println!("\n tracking: truth centre vs AMC detection centre (48x48 frame)\n");
    println!(" t   kind  truth (y,x)    amc (y,x)      err(px)  full-CNN err(px)");
    for (t, frame) in clip.frames.iter().enumerate() {
        let r = engine.process(&mut stream, &frame.image).unwrap();
        let amc_det = Detection::from_output(&r.output);
        let full_det = Detection::from_output(&engine.network().forward(&frame.image.to_tensor()));
        let (ty, tx) = frame.truth.bbox.center();
        let to_px = |v: f32| v * 48.0;
        let err = |d: &Detection| {
            let dy = to_px(d.bbox.cy) - ty;
            let dx = to_px(d.bbox.cx) - tx;
            (dy * dy + dx * dx).sqrt()
        };
        println!(
            "{t:2}   {}  ({ty:4.1},{tx:4.1})   ({:4.1},{:4.1})    {:5.1}    {:5.1}",
            if r.is_key { "KEY " } else { "pred" },
            to_px(amc_det.bbox.cy),
            to_px(amc_det.bbox.cx),
            err(&amc_det),
            err(&full_det),
        );
    }
    let stats = stream.stats();
    println!(
        "\nAMC ran the full CNN on {}/{} frames; the rest were warped predictions.",
        stats.key_frames, stats.frames
    );
}
