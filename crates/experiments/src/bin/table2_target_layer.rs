//! Table II: accuracy impact of early vs late AMC target layers at several
//! key-frame intervals.
//!
//! Early = after the CNN's first pooling layer; late = the last spatial
//! layer (the paper's default). For the classification workload the paper
//! uses a very long interval (4891 ms); our clips are shorter, so the
//! longest representable gap (clip length minus one frame) stands in, and
//! the table marks that row with `*`.

use eva2_cnn::zoo::Workload;
use eva2_experiments::evalproto::{baseline_accuracy, gap_accuracy, GapPredictor};
use eva2_experiments::report::{pct, write_json, Table};
use eva2_experiments::workloads::{train_workload, Budget};
use eva2_video::frame::Clip;
use serde::Serialize;

#[derive(Serialize)]
struct Table2Row {
    network: String,
    interval: String,
    early_target: f32,
    late_target: f32,
}

fn main() {
    let budget = Budget::from_env();
    println!("Table II: accuracy impact of the AMC target layer");
    println!();
    let mut t = Table::new(["Network", "Interval", "Early Target", "Late Target"]);
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        eprintln!("[table2] training {} ...", workload.name());
        let tw = train_workload(workload, &budget);
        let orig = baseline_accuracy(&tw.zoo, &tw.test);
        t.row([
            workload.name().to_string(),
            "orig".into(),
            pct(orig),
            pct(orig),
        ]);
        rows.push(Table2Row {
            network: workload.name().into(),
            interval: "orig".into(),
            early_target: orig,
            late_target: orig,
        });
        // AlexNet: the paper's single huge interval; detection: 33/198 ms.
        let intervals: Vec<(String, usize)> = match workload {
            Workload::AlexNet => {
                let gap = (budget.eval_clip_len - 1).max(1);
                vec![(format!("{:.0} ms*", gap as f32 * Clip::FRAME_MS), gap)]
            }
            _ => vec![
                ("33 ms".to_string(), Clip::frames_for_gap_ms(33.0)),
                ("198 ms".to_string(), Clip::frames_for_gap_ms(198.0)),
            ],
        };
        // AlexNet uses memoization (warp hurts classification, §IV-E1), so
        // its target-layer comparison uses OldKey reuse at both targets;
        // detection uses RFBME warping.
        let predictor = match workload {
            Workload::AlexNet => GapPredictor::OldKey,
            _ => GapPredictor::Rfbme { bilinear: true },
        };
        for (label, gap) in intervals {
            let early = gap_accuracy(&tw.zoo, tw.zoo.early_target, &tw.test, gap, predictor);
            let late = gap_accuracy(&tw.zoo, tw.zoo.late_target, &tw.test, gap, predictor);
            t.row([
                workload.name().to_string(),
                label.clone(),
                pct(early),
                pct(late),
            ]);
            rows.push(Table2Row {
                network: workload.name().into(),
                interval: label,
                early_target: early,
                late_target: late,
            });
        }
    }
    println!("{}", t.render());
    println!("(*) AlexNet interval scaled to the synthetic clip length; the paper uses 4891 ms.");
    println!("Paper shape: the late target is at least as accurate as the early target in");
    println!("most cells, so AMC statically targets the last spatial layer.");
    write_json("table2_target_layer", &rows);
}
