//! Ground-truth oracles.
//!
//! * [`exact_default_probabilities`] — full possible-world enumeration,
//!   exponential, only for graphs with at most 24 coins. The reference for
//!   unit tests.
//! * [`ground_truth`] — the paper's experimental convention:
//!   [`PAPER_GROUND_TRUTH_SAMPLES`] forward Monte-Carlo samples (§4.1)
//!   define the "true" ranking that precision is measured against.

use ugraph::UncertainGraph;
use vulnds_sampling::{CoinTable, SamplePass, WorldEnumerator};

/// Number of samples the paper uses to define ground truth (§4.1).
pub const PAPER_GROUND_TRUTH_SAMPLES: u64 = 20_000;

/// Exact default probability of every node by enumerating all
/// `2^(n+m)` possible worlds.
///
/// # Panics
/// Panics if `n + m > 24`.
pub fn exact_default_probabilities(graph: &UncertainGraph) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut p = vec![0.0f64; n];
    for world in WorldEnumerator::new(graph) {
        let pw = world.probability(graph);
        if pw == 0.0 {
            continue;
        }
        for (v, &defaulted) in world.defaulted_nodes(graph).iter().enumerate() {
            if defaulted {
                p[v] += pw;
            }
        }
    }
    p
}

/// Monte-Carlo ground truth: per-node default-probability estimates from
/// `samples` forward samples.
pub fn ground_truth(graph: &UncertainGraph, samples: u64, seed: u64, threads: usize) -> Vec<f64> {
    let pass = SamplePass::new(0..samples, threads);
    pass.forward(graph, &CoinTable::new(graph), seed).merged().0.estimates()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId};

    fn figure3() -> UncertainGraph {
        let mut b = UncertainGraph::builder(5);
        for v in 0..5 {
            b.set_self_risk(NodeId(v), 0.2).unwrap();
        }
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn example1_exact_values() {
        let g = from_parts(&[0.2, 0.2], &[(0, 1, 0.2)], DuplicateEdgePolicy::Error).unwrap();
        let p = exact_default_probabilities(&g);
        assert!((p[0] - 0.2).abs() < 1e-12);
        assert!((p[1] - 0.232).abs() < 1e-12);
    }

    #[test]
    fn figure3_exact_ranking() {
        // E has three upstream sources; it must be the most vulnerable.
        let g = figure3();
        let p = exact_default_probabilities(&g);
        let max = p.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(p[4], max, "E must rank first: {p:?}");
        // A is a source: p(A) = ps = 0.2 exactly.
        assert!((p[0] - 0.2).abs() < 1e-12);
        // Monotone along the chain A < B (B has A upstream).
        assert!(p[1] > p[0] - 1e-12);
    }

    #[test]
    fn enumeration_matches_monte_carlo() {
        let g = figure3();
        let exact = exact_default_probabilities(&g);
        let mc = ground_truth(&g, 60_000, 9, 2);
        for v in 0..5 {
            assert!((exact[v] - mc[v]).abs() < 0.01, "v={v}: {} vs {}", exact[v], mc[v]);
        }
    }

    #[test]
    fn deterministic_graph_exact() {
        let g =
            from_parts(&[1.0, 0.0, 0.0], &[(0, 1, 1.0), (1, 2, 0.0)], DuplicateEdgePolicy::Error)
                .unwrap();
        let p = exact_default_probabilities(&g);
        assert_eq!(p, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn ground_truth_is_reproducible() {
        let g = figure3();
        assert_eq!(ground_truth(&g, 1000, 5, 4), ground_truth(&g, 1000, 5, 1));
    }
}
