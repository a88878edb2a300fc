//! Property suite for the counter-RNG coin synthesis (in-repo test kit):
//!
//! (a) **lazy == eager** — frontier-lazy edge materialization is
//!     bit-identical to eagerly synthesizing every edge word up front,
//!     for both the forward and the reverse kernel;
//! (b) **dyadic synthesis == scalar Bernoulli** — the 64-lane word, the
//!     per-lane scalar projection, and the `PossibleWorld` oracle all
//!     observe the same coins, with probabilities hitting their
//!     fixed-point targets including `p ∈ {0, 1}` exactly;
//! (c) **partial blocks** — budgets with `t % 64 != 0` and chunks that
//!     start mid-block (high-lane masks) reproduce the oracle.

use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};
use vulnds_sampling::{
    BlockKernel, CoinTable, DefaultCounts, PossibleWorld, SamplePass, ScalarCoins, WorldBlock,
    LANES,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 20, 50)
}

/// (a) Lazy and eager edge materialization produce bit-identical words
/// and counts, and the lazy path touches at most as many edge words.
#[test]
fn lazy_equals_eager_edge_materialization() {
    check(20, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1 << 16);
        let first = rng.next_bounded(200);
        let lane0 = first % LANES as u64;
        let lanes = rng.range_usize(1, (LANES as u64 - lane0) as usize + 1);
        let table = CoinTable::new(&g);

        // Eager: force every edge word immediately after materializing.
        let mut eager = WorldBlock::new(&g);
        eager.materialize(&g, &table, seed, first, lanes);
        eager.force_edges(&table);
        let eager_usage = eager.take_usage();
        let mut eager_kernel = BlockKernel::new(&g);
        let eager_words = eager_kernel.forward_defaults(&g, &table, &mut eager).to_vec();

        // Lazy: words appear only where the BFS frontier needs them.
        let mut lazy = WorldBlock::new(&g);
        lazy.materialize(&g, &table, seed, first, lanes);
        let mut lazy_kernel = BlockKernel::new(&g);
        let lazy_words = lazy_kernel.forward_defaults(&g, &table, &mut lazy).to_vec();
        assert_eq!(lazy_words, eager_words, "forward defaults, chunk {first}+{lanes}");

        // Every edge word the lazy path did synthesize equals the eager
        // one (probe them all; lazy fills the rest on demand now).
        for e in 0..g.num_edges() {
            assert_eq!(lazy.edge_word(&table, e), eager.edge_word(&table, e), "edge {e}");
        }
        let lazy_usage = lazy.take_usage();
        assert_eq!(eager_usage.edge_words_materialized, g.num_edges() as u64);
        assert_eq!(
            lazy_usage.edge_words_materialized, eager_usage.edge_words_materialized,
            "probe forced the rest"
        );

        // Reverse kernel: same equivalence on a random candidate subset.
        let n = g.num_nodes();
        let candidates: Vec<NodeId> =
            (0..rng.range_usize(1, n)).map(|_| NodeId(rng.next_bounded(n as u64) as u32)).collect();
        let mut lazy2 = WorldBlock::new(&g);
        lazy2.materialize(&g, &table, seed, first, lanes);
        let mut hits = Vec::new();
        lazy_kernel.reverse_hits_into(&g, &table, &mut lazy2, &candidates, &mut hits);
        for (i, &v) in candidates.iter().enumerate() {
            assert_eq!(hits[i], eager_words[v.index()], "reverse hits of {v}");
        }
    });
}

/// (b) The bit-sliced word synthesis, its scalar per-lane projection,
/// and `PossibleWorld` sampling observe identical coins; deterministic
/// probabilities are exact.
#[test]
fn dyadic_synthesis_matches_scalar_oracle() {
    check(20, |rng| {
        let g = arb_graph(rng);
        let table = CoinTable::new(&g);
        let seed = rng.next_bounded(1 << 16);
        let id = rng.next_bounded(1 << 12);
        let world = PossibleWorld::sample_with_table(&g, &table, seed, id);
        let coins = ScalarCoins::new(seed, id);
        for v in g.nodes() {
            assert_eq!(world.self_default[v.index()], coins.node_coin(&table, v.index()));
            if g.self_risk(v) == 0.0 {
                assert!(!world.self_default[v.index()], "p = 0 must never fire");
            }
            if g.self_risk(v) == 1.0 {
                assert!(world.self_default[v.index()], "p = 1 must always fire");
            }
        }
        for e in g.edges() {
            assert_eq!(world.edge_live[e.index()], coins.edge_coin(&table, e.index()));
        }

        // Lane-for-lane: the world is one lane of the 64-wide block.
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &table, seed, id / 64 * 64, 64);
        assert_eq!(block.lane_world(&table, (id % 64) as usize), world);
    });
}

/// (b, frequency) Dyadic coins hit their quantized probabilities in the
/// law of large numbers, for random fixed-point probabilities including
/// the exact endpoints.
#[test]
fn dyadic_frequencies_match_fixed_point_probabilities() {
    // One node per regime: p = 0, p = 1, a dyadic p, and two arbitrary
    // probabilities (quantization error ≤ 2^-33, invisible here).
    let ps = [0.0, 1.0, 0.25, 0.371, 0.9317];
    let g = from_parts(&ps, &[], DuplicateEdgePolicy::Error).unwrap();
    let table = CoinTable::new(&g);
    let t = 40_000u64;
    let (counts, usage) = SamplePass::new(0..t, 1).forward(&g, &table, 99).merged();
    assert_eq!(counts.count(0), 0, "p = 0 fired");
    assert_eq!(counts.count(1), t, "p = 1 missed");
    for (v, &p) in ps.iter().enumerate().skip(2) {
        let freq = counts.estimate(v);
        assert!((freq - p).abs() < 0.01, "node {v}: freq {freq} vs p {p}");
    }
    // Sentinel probabilities draw no uniform words; with no edges the
    // whole run's word count stays well under one word per coin.
    assert!(usage.words > 0);
    assert_eq!(usage.edge_words_materialized, 0);
}

/// (c) Partial budgets and mid-block chunk starts reproduce the oracle
/// exactly, and arbitrary three-way splits merge into the whole.
#[test]
fn partial_blocks_match_oracle_under_new_contract() {
    check(20, |rng| {
        let g = arb_graph(rng);
        let table = CoinTable::new(&g);
        let seed = rng.next_bounded(1 << 16);
        let t = rng.range_usize(1, 3 * LANES + 7) as u64;

        let mut oracle = DefaultCounts::new(g.num_nodes());
        for i in 0..t {
            let world = PossibleWorld::sample_with_table(&g, &table, seed, i);
            oracle.record_mask(&world.defaulted_nodes(&g));
        }

        let run = |range| SamplePass::new(range, 1).forward(&g, &table, seed).merged().0;
        let whole = run(0..t);
        assert_eq!(whole, oracle, "whole range, t = {t}");

        // Random split points: the middle part starts and ends mid-block
        // almost always.
        let a = rng.next_bounded(t + 1);
        let b = a + rng.next_bounded(t - a + 1);
        let mut parts = run(0..a);
        parts.merge(&run(a..b));
        parts.merge(&run(b..t));
        assert_eq!(parts, oracle, "split 0..{a}..{b}..{t}");

        // Reverse projection of an interior chunk.
        let candidates: Vec<NodeId> = g.nodes().collect();
        let rev = SamplePass::new(a..b, 1).reverse(&g, &table, &candidates, seed).merged().0;
        let mut rev_oracle = DefaultCounts::new(candidates.len());
        for i in a..b {
            let world = PossibleWorld::sample_with_table(&g, &table, seed, i);
            rev_oracle.record_mask(&world.defaulted_nodes(&g));
        }
        assert_eq!(rev, rev_oracle, "reverse chunk {a}..{b}");
    });
}
