//! Ablations of design choices, each run with and without the choice:
//! negative-result caching in the reverse sampler, bottom-k early stop
//! vs the full Equation-4 budget, and incremental bounds.

use ugraph::NodeId;
use vulnds_bench::microbench::bench;
use vulnds_core::engine::{DetectRequest, Detector};
use vulnds_core::{AlgorithmKind, VulnConfig};
use vulnds_datasets::Dataset;
use vulnds_sampling::{CoinTable, DefaultCounts, ReverseSampler, ScalarCoins};

fn run_reverse(
    g: &ugraph::UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    negative_cache: bool,
) -> DefaultCounts {
    let table = CoinTable::new(g);
    let mut sampler = if negative_cache {
        ReverseSampler::new(g)
    } else {
        ReverseSampler::new(g).without_negative_cache()
    };
    let mut counts = DefaultCounts::new(candidates.len());
    let mut buf = Vec::new();
    for sample_id in 0..t {
        sampler.sample_candidates(g, &table, candidates, ScalarCoins::new(42, sample_id), &mut buf);
        counts.begin_sample();
        for (i, &h) in buf.iter().enumerate() {
            if h {
                counts.bump(i);
            }
        }
    }
    counts
}

fn main() {
    // Dense candidate set on a hub graph: many overlapping reverse BFS
    // trees, where negative caching pays.
    let g = Dataset::Guarantee.generate_scaled(1, 0.05);
    let candidates: Vec<NodeId> = (0..(g.num_nodes() as u32 / 10).max(1)).map(NodeId).collect();
    bench("reverse_negative_cache/with_cache", || run_reverse(&g, &candidates, 100, true));
    bench("reverse_negative_cache/without_cache", || run_reverse(&g, &candidates, 100, false));

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
