//! Cross-validation of the bit-parallel world-block data path against
//! the scalar `PossibleWorld` oracle (in-repo test kit; the workspace
//! builds offline with no external dependencies).
//!
//! The contract under test: sample `i` of a run seeded `s` IS the world
//! `PossibleWorld::sample_indexed(g, s, i)` — every coin a stateless
//! counter-RNG function of `(s, i / 64, item)` projected at lane
//! `i % 64` — and every counting API is a pure function of those worlds.
//! So `DefaultCounts` must be **bit-identical** across the block kernel
//! (lazy or eager edge materialization), the oracle, and every
//! [`SamplePass`], for any seed, any thread count, and any budget
//! including `t % 64 != 0`.

use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    forward_counts, reverse_counts, CoinTable, DefaultCounts, PossibleWorld, SamplePass, LANES,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 24, 60)
}

/// A budget straddling block boundaries most of the time.
fn arb_budget(rng: &mut TestRng) -> u64 {
    rng.range_usize(1, 3 * LANES + 7) as u64
}

/// The oracle: materialize every world one at a time and record its
/// defaulted-node mask.
fn oracle_forward_counts(
    g: &UncertainGraph,
    range: std::ops::Range<u64>,
    seed: u64,
) -> DefaultCounts {
    let table = CoinTable::new(g);
    let mut counts = DefaultCounts::new(g.num_nodes());
    for i in range {
        let world = PossibleWorld::sample_with_table(g, &table, seed, i);
        counts.record_mask(&world.defaulted_nodes(g));
    }
    counts
}

/// The oracle projected onto a candidate list.
fn oracle_reverse_counts(
    g: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
) -> DefaultCounts {
    let table = CoinTable::new(g);
    let mut counts = DefaultCounts::new(candidates.len());
    for i in 0..t {
        let world = PossibleWorld::sample_with_table(g, &table, seed, i);
        let defaulted = world.defaulted_nodes(g);
        let mask: Vec<bool> = candidates.iter().map(|&v| defaulted[v.index()]).collect();
        counts.record_mask(&mask);
    }
    counts
}

/// Block-kernel forward counts are bit-identical to the materialized
/// world oracle and to the parallel driver at every thread count.
#[test]
fn forward_block_equals_oracle_and_parallel() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let t = arb_budget(rng);
        let seed = rng.next_bounded(1 << 20);
        let blockwise = forward_counts(&g, t, seed);

        assert_eq!(blockwise, oracle_forward_counts(&g, 0..t, seed), "oracle, t = {t}");

        let table = CoinTable::new(&g);
        for threads in [2usize, 3, 7] {
            assert_eq!(
                SamplePass::new(0..t, threads).forward(&g, &table, seed).merged().0,
                blockwise,
                "threads = {threads}, t = {t}"
            );
        }
    });
}

/// Reverse sampling is a projection of the same worlds: block kernel,
/// oracle, and parallel driver all agree bitwise on any candidate
/// subset, repeated candidates included (the verdict caches answer
/// them).
#[test]
fn reverse_block_equals_oracle_and_parallel() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let t = arb_budget(rng);
        let seed = rng.next_bounded(1 << 20);
        let n = g.num_nodes();
        // A random candidate subset, sometimes everything.
        let candidates: Vec<NodeId> = if rng.next_bounded(4) == 0 {
            g.nodes().collect()
        } else {
            (0..rng.range_usize(1, n)).map(|_| NodeId(rng.next_bounded(n as u64) as u32)).collect()
        };

        let blockwise = reverse_counts(&g, &candidates, t, seed);
        assert_eq!(blockwise, oracle_reverse_counts(&g, &candidates, t, seed), "oracle, t = {t}");

        let table = CoinTable::new(&g);
        for threads in [2usize, 5] {
            assert_eq!(
                SamplePass::new(0..t, threads).reverse(&g, &table, &candidates, seed).merged().0,
                blockwise,
                "threads = {threads}, t = {t}"
            );
        }
    });
}

/// Range decomposition is exact: counts over `a..b` plus `b..c` merge
/// into the counts over `a..c` for arbitrary (unaligned) split points —
/// the prefix-extension property the engine cache relies on. Unaligned
/// chunks occupy the *high* lanes of their home block, so this also
/// exercises partial lane masks that do not start at lane 0.
#[test]
fn unaligned_range_splits_merge_exactly() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1 << 20);
        let end = arb_budget(rng) + arb_budget(rng);
        let cut = rng.next_bounded(end);
        let table = CoinTable::new(&g);
        let forward = |range| SamplePass::new(range, 1).forward(&g, &table, seed).merged().0;
        let whole = forward(0..end);
        let mut parts = forward(0..cut);
        parts.merge(&forward(cut..end));
        assert_eq!(whole, parts, "cut {cut} of {end}");

        let candidates: Vec<NodeId> = g.nodes().collect();
        let reverse =
            |range| SamplePass::new(range, 1).reverse(&g, &table, &candidates, seed).merged().0;
        let whole_r = reverse(0..end);
        let mut parts_r = reverse(0..cut);
        parts_r.merge(&reverse(cut..end));
        assert_eq!(whole_r, parts_r, "reverse cut {cut} of {end}");
    });
}
