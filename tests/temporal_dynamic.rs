//! Integration of the temporal workload generator with the incremental
//! bounds maintainer and the detection pipeline — the "monthly
//! recalibration" loop of the paper's deployed system.

use vulnds::core::compute_bounds;
use vulnds::datasets::{replay, update_stream, UpdateEvent, UpdateStreamParams};
use vulnds::prelude::*;

/// One-shot query through a fresh session.
fn detect_once(
    g: &UncertainGraph,
    k: usize,
    alg: AlgorithmKind,
    cfg: &VulnConfig,
) -> DetectResponse {
    let d = Detector::builder(g).config(cfg.clone()).build().unwrap();
    d.detect(&DetectRequest::new(k, alg)).unwrap()
}

#[test]
fn incremental_bounds_track_a_month_of_updates() {
    let g = Dataset::Guarantee.generate_scaled(11, 0.02);
    let events =
        update_stream(&g, UpdateStreamParams { events: 200, node_fraction: 0.7, drift: 0.3 }, 5);
    let mut inc = IncrementalBounds::new(g.clone(), 2, BoundsMethod::Paper);
    let mut total_cells = 0usize;
    for &ev in &events {
        total_cells += match ev {
            UpdateEvent::SelfRisk(v, p) => inc.update_self_risk(v, p).unwrap(),
            UpdateEvent::EdgeProb(e, p) => inc.update_edge_prob(e, p).unwrap(),
        };
    }
    // Exactness against batch replay: one recursion, so bit for bit.
    let replayed = replay(&g, &events);
    let (l, u) = compute_bounds(&replayed, 2, BoundsMethod::Paper);
    for v in 0..replayed.num_nodes() {
        assert_eq!(inc.lower()[v].to_bits(), l[v].to_bits(), "lower mismatch at {v}");
        assert_eq!(inc.upper()[v].to_bits(), u[v].to_bits(), "upper mismatch at {v}");
    }
    // Locality: the near-tree Guarantee shape means repairs touch far
    // fewer cells than 200 full recomputations (200 · n · z cells).
    let full_cost = 200 * replayed.num_nodes() * 2;
    assert!(
        total_cells * 10 < full_cost,
        "incremental cost {total_cells} not clearly below batch {full_cost}"
    );
}

#[test]
fn detection_after_updates_equals_detection_on_replayed_graph() {
    let g = Dataset::Interbank.generate(13);
    let events = update_stream(&g, UpdateStreamParams::default(), 17);
    let replayed = replay(&g, &events);

    let mut inc = IncrementalBounds::new(g, 2, BoundsMethod::Paper);
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
    let cfg = VulnConfig::default().with_seed(19);
    let from_incremental = detect_once(inc.graph(), 5, AlgorithmKind::BottomK, &cfg);
    let from_replay = detect_once(&replayed, 5, AlgorithmKind::BottomK, &cfg);
    assert_eq!(from_incremental.top_k, from_replay.top_k);
}

#[test]
fn drift_changes_the_ranking_eventually() {
    // Sanity: the temporal process actually moves the answer, otherwise
    // the incremental machinery is pointless.
    let g = Dataset::Interbank.generate(23);
    let cfg = VulnConfig::default().with_seed(29);
    let before = detect_once(&g, 5, AlgorithmKind::BoundedSampleReverse, &cfg);
    let events =
        update_stream(&g, UpdateStreamParams { events: 500, node_fraction: 0.9, drift: 0.5 }, 31);
    let after_graph = replay(&g, &events);
    let after = detect_once(&after_graph, 5, AlgorithmKind::BoundedSampleReverse, &cfg);
    assert_ne!(before.node_ids(), after.node_ids(), "500 drift events changed nothing");
}
