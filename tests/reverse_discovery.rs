//! Count-based regression test for discovery-time verdicts in the
//! reverse kernel.
//!
//! SR's candidate set on Guarantee holds the bound-verified high-risk
//! nodes, and those include in-degree hubs. A reverse search that only
//! checks a node's coin when it dequeues the node scans every in-edge
//! of such a hub before it finds the in-neighbour that already decides
//! its lanes, so its touch ledger spans most of the graph and almost
//! every edge update drops the stream. Deciding lanes when an in-edge
//! first reaches a source keeps the ledger to the edges the verdicts
//! actually read — while the counts stay those of forward sampling.

use vulnds::core::{compute_bounds, reduce_candidates, reduced_sample_size};
use vulnds::prelude::*;
use vulnds::sampling::{CoinTable, SamplePass, TouchLedger};

#[test]
fn sr_reverse_pass_reads_a_minority_of_edges_and_matches_forward_counts() {
    for seed in [3u64, 7] {
        let graph = Dataset::Guarantee.generate_scaled(seed, 0.1);
        let (n, m) = (graph.num_nodes(), graph.num_edges());
        let k = (n / 100).max(1);
        let approx = ApproxParams::new(0.1, 0.1).unwrap();
        let config = VulnConfig::default();
        let (lower, upper) = compute_bounds(&graph, config.bound_order, BoundsMethod::Paper);
        let reduction = reduce_candidates(&lower, &upper, k);
        // SR's candidate set: the verified nodes fold back into the pool.
        let mut candidates = reduction.verified.clone();
        candidates.extend(reduction.candidates.iter().copied());
        candidates.sort_unstable_by_key(|v| v.0);
        let t = reduced_sample_size(candidates.len(), k, approx);
        assert!(t > 0, "seed {seed}: SR must sample");

        let ledger = TouchLedger::new(n, m);
        let pass = SamplePass { ledger: Some(&ledger), ..SamplePass::new(0..t, 1) };
        let counts = pass.reverse(&graph, &CoinTable::new(&graph), &candidates, seed).merged().0;
        let share = ledger.edge_count() as f64 / m as f64;
        assert!(
            share < 0.3,
            "seed {seed}: SR's reverse pass read {:.1}% of {m} edges",
            100.0 * share
        );

        let forward = forward_counts(&graph, t, seed);
        for (i, v) in candidates.iter().enumerate() {
            assert_eq!(counts.count(i), forward.count(v.index()), "seed {seed}: node {v:?}");
        }
    }
}
