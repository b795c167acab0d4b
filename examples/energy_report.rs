//! Energy report: combine a *measured* AMC execution (key-frame rate from
//! the adaptive policy on synthetic video) with the *full-scale* hardware
//! cost model to estimate per-frame energy on the paper's VPU.
//!
//! ```sh
//! cargo run --release --example energy_report
//! ```

use eva2::amc::executor::AmcConfig;
use eva2::amc::serve::Engine;
use eva2::cnn::zoo;
use eva2::hw::cost::HwModel;
use eva2::hw::nets;
use eva2::video::scene::{MotionRegime, Scene, SceneConfig};
use std::sync::Arc;

fn main() {
    let model = HwModel::default();
    println!("per-frame cost on the Eyeriss + EIE + EVA2 VPU (65 nm model)\n");
    for (name, regime) in [
        ("calm video (smooth motion)", MotionRegime::Smooth),
        ("hectic video (chaotic motion)", MotionRegime::Chaotic),
    ] {
        // Measure the key-frame rate the adaptive policy actually chooses
        // on this kind of content, using the scaled-down FasterM analogue.
        let net = Arc::new(zoo::tiny_fasterm(5).network);
        let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
        let mut stream = engine.open_session().unwrap();
        for seed in 0..6 {
            let mut scene = Scene::new(
                SceneConfig::detection(48, 48).with_regime(regime),
                70 + seed,
            );
            for frame in scene.render_clip(20).frames {
                engine.process(&mut stream, &frame.image).unwrap();
            }
            stream.reset();
        }
        let key_fraction = stream.stats().key_fraction() as f64;

        // Project onto the full-scale FasterM descriptor.
        let net = nets::fasterm();
        let orig = model.baseline_cost(&net);
        let avg = model.average_cost(&net, key_fraction);
        println!("{name}:");
        println!("  measured key-frame rate : {:.0}%", key_fraction * 100.0);
        println!(
            "  orig (no EVA2)          : {:7.1} ms  {:6.1} mJ per frame",
            orig.latency_ms, orig.energy_mj
        );
        println!(
            "  with EVA2 (avg)         : {:7.1} ms  {:6.1} mJ per frame",
            avg.latency_ms, avg.energy_mj
        );
        println!(
            "  savings                 : {:.0}% latency, {:.0}% energy\n",
            100.0 * (1.0 - avg.latency_ms / orig.latency_ms),
            100.0 * (1.0 - avg.energy_mj / orig.energy_mj)
        );
    }
    println!("the adaptive policy converts scene calmness directly into energy savings —");
    println!("\"spend resources in proportion to relevant events in the environment\" (§VI).");
}
