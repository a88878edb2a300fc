//! Ablations of design choices, each run with and without the choice:
//! bottom-k early stop vs the full Equation-4 budget, and incremental
//! bounds.

use vulnds_bench::microbench::bench;
use vulnds_core::engine::{DetectRequest, Detector};
use vulnds_core::{AlgorithmKind, VulnConfig};
use vulnds_datasets::Dataset;

fn main() {
    let g2 = std::sync::Arc::new(Dataset::Citation.generate_scaled(2, 0.5));
    let k = (g2.num_nodes() / 20).max(1);
    let cfg = VulnConfig::default().with_seed(42);
    bench("early_stop_vs_full_budget/bsr_full_budget", || {
        let d = Detector::builder(std::sync::Arc::clone(&g2)).config(cfg.clone()).build().unwrap();
        d.detect(&DetectRequest::new(k, AlgorithmKind::BoundedSampleReverse)).unwrap()
    });
    bench("early_stop_vs_full_budget/bsrbk_early_stop", || {
        let d = Detector::builder(std::sync::Arc::clone(&g2)).config(cfg.clone()).build().unwrap();
        d.detect(&DetectRequest::new(k, AlgorithmKind::BottomK)).unwrap()
    });

    // Monthly recalibration: incremental repair vs full recomputation.
    {
        use vulnds_core::{BoundsMethod, IncrementalBounds};
        use vulnds_datasets::{update_stream, UpdateEvent, UpdateStreamParams};
        let g = Dataset::Guarantee.generate_scaled(3, 0.1);
        let events =
            update_stream(&g, UpdateStreamParams { events: 50, node_fraction: 0.7, drift: 0.2 }, 9);
        bench("incremental_vs_batch_bounds/incremental_repair", || {
            let mut inc = IncrementalBounds::new(g.clone(), 2, BoundsMethod::Paper);
            for &ev in &events {
                match ev {
                    UpdateEvent::SelfRisk(v, p) => {
                        inc.update_self_risk(v, p).unwrap();
                    }
                    UpdateEvent::EdgeProb(e, p) => {
                        inc.update_edge_prob(e, p).unwrap();
                    }
                }
            }
            inc.lower()[0]
        });
        bench("incremental_vs_batch_bounds/batch_recompute", || {
            let mut g2 = g.clone();
            let mut last = 0.0;
            for &ev in &events {
                match ev {
                    UpdateEvent::SelfRisk(v, p) => g2.set_self_risk(v, p).unwrap(),
                    UpdateEvent::EdgeProb(e, p) => g2.set_edge_prob(e, p).unwrap(),
                }
                let (l, _) = vulnds_core::compute_bounds(&g2, 2, vulnds_core::BoundsMethod::Paper);
                last = l[0];
            }
            last
        });
    }
}
