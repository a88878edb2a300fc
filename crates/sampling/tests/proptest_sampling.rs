//! Randomized property tests for the sampling substrate (in-repo test
//! kit; the workspace builds offline with no external dependencies).

use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{forward_counts, reverse_counts, CoinTable, PossibleWorld, SamplePass};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 12, 24)
}

/// Estimates are proper probabilities and respect hard bounds: a node
/// with `ps = 1` defaults in every world.
#[test]
fn estimates_are_probabilities() {
    check(32, |rng| {
        let g = arb_graph(rng);
        let counts = forward_counts(&g, 400, 7);
        for v in g.nodes() {
            let e = counts.estimate(v.index());
            assert!((0.0..=1.0).contains(&e));
            if g.self_risk(v) == 1.0 {
                assert_eq!(e, 1.0, "certain node must always default");
            }
        }
    });
}

/// Parallel forward and reverse passes are bit-identical to their
/// sequential counterparts for any thread count.
#[test]
fn parallel_equals_sequential() {
    check(32, |rng| {
        let g = arb_graph(rng);
        let threads = rng.range_usize(1, 6);
        let coins = CoinTable::new(&g);
        let pass = SamplePass::new(0..200, threads);
        let seq = forward_counts(&g, 200, 11);
        assert_eq!(pass.forward(&g, &coins, 11).merged().0, seq);
        let cands: Vec<NodeId> = g.nodes().collect();
        let rseq = reverse_counts(&g, &cands, 200, 13);
        assert_eq!(pass.reverse(&g, &coins, &cands, 13).merged().0, rseq);
    });
}

/// Reverse sampling over a candidate subset matches the full run's
/// estimates on those candidates (same seed, same worlds).
#[test]
fn candidate_subset_consistency() {
    check(32, |rng| {
        let g = arb_graph(rng);
        let all: Vec<NodeId> = g.nodes().collect();
        let t = 2_000;
        let full = reverse_counts(&g, &all, t, 23);
        // Singleton runs see the same lazily-built worlds only if the
        // coin-consumption order matches, which it need not — so compare
        // statistically, not bitwise.
        for &v in all.iter().take(3) {
            let single = reverse_counts(&g, &[v], t, 23);
            let diff = (single.estimate(0) - full.estimate(v.index())).abs();
            assert!(
                diff < 0.1,
                "node {v}: single {} full {}",
                single.estimate(0),
                full.estimate(v.index())
            );
        }
    });
}

/// A materialized world's defaulted set is monotone: adding live edges
/// can only grow it.
#[test]
fn world_monotone_in_edges() {
    check(32, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(100);
        let w = PossibleWorld::sample_indexed(&g, seed, 0);
        let base = w.defaulted_nodes(&g);
        let mut all_live = w.clone();
        all_live.edge_live.iter_mut().for_each(|e| *e = true);
        let grown = all_live.defaulted_nodes(&g);
        for v in 0..g.num_nodes() {
            assert!(!base[v] || grown[v], "default lost at {v}");
        }
    });
}

/// A sampled world has positive probability under its own graph: sampling
/// can only fix coins consistent with their probabilities.
#[test]
fn sampled_world_probability_positive() {
    check(32, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(50);
        let w = PossibleWorld::sample_indexed(&g, seed, 1);
        assert!(w.probability(&g) > 0.0);
    });
}
