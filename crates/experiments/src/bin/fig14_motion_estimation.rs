//! Figure 14: accuracy impact of motion-estimation techniques on the two
//! detection workloads at 33 ms and 198 ms key-to-predicted gaps.
//!
//! Conditions (matching the figure's bars): *new key frame* (ideal, full
//! CNN), the dense-flow baseline (FlowNet2-s in the paper; Horn–Schunck
//! here, the classical dense variational method, since a learned flow
//! network would need ImageNet-scale training), Lucas–Kanade, RFBME, and
//! *old key frame* (reuse without updating).

use eva2_cnn::zoo::Workload;
use eva2_experiments::evalproto::{baseline_accuracy, gap_accuracy, GapPredictor};
use eva2_experiments::report::{pct, write_json, Table};
use eva2_experiments::workloads::{train_workload, Budget};
use eva2_video::frame::Clip;
use serde::Serialize;

#[derive(Serialize)]
struct Fig14Row {
    workload: String,
    gap_ms: f32,
    method: String,
    map_percent: f32,
    ops: Option<u64>,
}

fn main() {
    let budget = Budget::from_env();
    println!("Figure 14: accuracy impact of motion estimation techniques (mAP %)");
    println!();
    let gaps_ms = [33.0f32, 198.0];
    let predictors = [
        GapPredictor::NewKey,
        GapPredictor::DenseFlow,
        GapPredictor::LucasKanade,
        GapPredictor::Rfbme { bilinear: true },
        GapPredictor::OldKey,
    ];
    let mut rows = Vec::new();
    for workload in [Workload::Faster16, Workload::FasterM] {
        eprintln!("[fig14] training {} ...", workload.name());
        let tw = train_workload(workload, &budget);
        let target = tw.zoo.late_target;
        let all_frames = baseline_accuracy(&tw.zoo, &tw.test);
        println!(
            "{} (every-frame baseline mAP = {}):",
            workload.name(),
            pct(all_frames)
        );
        let mut t = Table::new(["method", "33 ms", "198 ms"]);
        let mut per_method: Vec<(String, Vec<f32>)> = predictors
            .iter()
            .map(|p| (p.name().to_string(), Vec::new()))
            .collect();
        for (gi, &gap_ms) in gaps_ms.iter().enumerate() {
            let gap = Clip::frames_for_gap_ms(gap_ms);
            for (pi, &p) in predictors.iter().enumerate() {
                eprintln!(
                    "[fig14] {} gap {}ms method {} ...",
                    workload.name(),
                    gap_ms,
                    p.name()
                );
                let acc = gap_accuracy(&tw.zoo, target, &tw.test, gap, p);
                per_method[pi].1.push(acc);
                rows.push(Fig14Row {
                    workload: workload.name().into(),
                    gap_ms,
                    method: p.name().into(),
                    map_percent: acc,
                    ops: None,
                });
                let _ = gi;
            }
        }
        for (name, accs) in per_method {
            t.row([name, pct(accs[0]), pct(accs[1])]);
        }
        println!("{}", t.render());
    }
    println!("Paper shape: RFBME is at or near the best motion method; every motion method");
    println!("beats old-key reuse at 198 ms; the spread collapses at 33 ms.");
    write_json("fig14_motion_estimation", &rows);
}
