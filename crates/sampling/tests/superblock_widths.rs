//! Width cross-validation: every superblock width `W ∈ {1, 2, 4, 8}`
//! must produce counts **bit-identical** to the `PossibleWorld` oracle
//! and to every other width — including partial superblocks (budgets
//! with `t % (W·64) ≠ 0` and ranges resuming mid-superblock),
//! lazy-vs-eager edge word-vectors, and the parallel passes' strided
//! superblock partitions.
//!
//! This is the property that lets the planner pick any width: sample
//! `i` always occupies lane `i % 64` of home block `i / 64`, whatever
//! superblock geometry evaluates it, so width changes throughput without
//! changing a single count.

use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    parallel_forward_counts_range_width, parallel_reverse_counts_range_width, BlockWords,
    CoinTable, DefaultCounts, PossibleWorld, SamplePass, SuperBlock, SuperKernel, LANES,
    MAX_BLOCK_WORDS,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 24, 60)
}

/// A sample range that straddles superblock boundaries of every width
/// most of the time (the widest span is `MAX_BLOCK_WORDS · 64 = 512`).
fn arb_range(rng: &mut TestRng) -> std::ops::Range<u64> {
    let start = rng.range_usize(0, 3 * MAX_BLOCK_WORDS * LANES) as u64;
    let len = rng.range_usize(1, 2 * MAX_BLOCK_WORDS * LANES + 7) as u64;
    start..start + len
}

/// The oracle: materialize every world one at a time.
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

#[test]
fn every_width_forward_equals_oracle_and_each_other() {
    check(40, |rng| {
        let g = arb_graph(rng);
        let range = arb_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        let oracle = oracle_forward_counts(&g, range.clone(), seed);
        for width in BlockWords::ALL {
            let pass = SamplePass { width, ..SamplePass::new(range.clone(), 1) };
            let out = pass.forward(&g, &table, seed);
            assert_eq!(out.width, width, "a one-thread pass runs the width it asks for");
            let (counts, usage) = out.merged();
            assert_eq!(counts, oracle, "sequential width {width}, range {range:?}");
            assert!(usage.superblocks > 0, "no superblock accounted at width {width}");
            // Lazy accounting never loses or invents an edge word: each
            // edge is materialized or skipped once per covered home block.
            let home_blocks = (range.end - 1) / LANES as u64 - range.start / LANES as u64 + 1;
            assert_eq!(
                usage.edge_words_materialized + usage.edge_words_skipped,
                g.num_edges() as u64 * home_blocks,
                "width {width}: edge-word ledger out of balance"
            );
            // The threaded driver partitions by superblock; counts must
            // merge back bit-identically.
            for threads in [2, 5] {
                let (par, _) = parallel_forward_counts_range_width(
                    &g,
                    &table,
                    range.clone(),
                    seed,
                    threads,
                    width,
                );
                assert_eq!(par, oracle, "parallel width {width}, threads {threads}");
            }
        }
    });
}

#[test]
fn every_width_reverse_equals_oracle_and_each_other() {
    check(40, |rng| {
        let g = arb_graph(rng);
        let range = arb_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        // A random candidate subset, shuffled order.
        let mut candidates: Vec<NodeId> = g.nodes().collect();
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        candidates.truncate(rng.range_usize(1, candidates.len()));

        let oracle = {
            let mut counts = DefaultCounts::new(candidates.len());
            for i in range.clone() {
                let world = PossibleWorld::sample_with_table(&g, &table, seed, i);
                let defaulted = world.defaulted_nodes(&g);
                let mask: Vec<bool> = candidates.iter().map(|&v| defaulted[v.index()]).collect();
                counts.record_mask(&mask);
            }
            counts
        };
        for width in BlockWords::ALL {
            let pass = SamplePass { width, ..SamplePass::new(range.clone(), 1) };
            let counts = pass.reverse(&g, &table, &candidates, seed).merged().0;
            assert_eq!(counts, oracle, "sequential width {width}, range {range:?}");
            let (par, _) = parallel_reverse_counts_range_width(
                &g,
                &table,
                &candidates,
                range.clone(),
                seed,
                3,
                width,
            );
            assert_eq!(par, oracle, "parallel width {width}");
        }
    });
}

/// Lazy-vs-eager at every width: forcing all edge word-vectors up front
/// must leave the forward pass bit-identical to frontier-lazy synthesis.
#[test]
fn lazy_and_eager_edge_words_agree_at_every_width() {
    fn run<const W: usize>(g: &UncertainGraph, table: &CoinTable, seed: u64) {
        let mut eager_block = SuperBlock::<W>::new(g);
        let mut lazy_block = SuperBlock::<W>::new(g);
        let mut kernel = SuperKernel::<W>::new(g);
        let span = (W * LANES) as u64;
        for sb in 0..2u64 {
            eager_block.materialize(g, table, seed, sb * span, span as usize);
            eager_block.force_edges(table);
            let eager_words = kernel.forward_defaults(g, table, &mut eager_block).to_vec();
            lazy_block.materialize(g, table, seed, sb * span, span as usize);
            let lazy_words = kernel.forward_defaults(g, table, &mut lazy_block).to_vec();
            assert_eq!(eager_words, lazy_words, "width {W}, superblock {sb}");
        }
    }
    check(20, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        run::<1>(&g, &table, seed);
        run::<2>(&g, &table, seed);
        run::<4>(&g, &table, seed);
        run::<8>(&g, &table, seed);
    });
}

/// Every lane of every width unpacks to exactly the oracle world —
/// the strongest form of the stream contract (worlds, not just counts).
#[test]
fn superblock_lanes_are_oracle_worlds_at_every_width() {
    fn run<const W: usize>(g: &UncertainGraph, table: &CoinTable, seed: u64, rng: &mut TestRng) {
        let span = (W * LANES) as u64;
        let first = rng.next_bounded(3) * span;
        let lanes = rng.range_usize(1, W * LANES);
        let mut block = SuperBlock::<W>::new(g);
        block.materialize(g, table, seed, first, lanes);
        for _ in 0..4 {
            let lane = rng.next_bounded(lanes as u64) as usize;
            let expected = PossibleWorld::sample_indexed(g, seed, first + lane as u64);
            assert_eq!(block.lane_world(table, lane), expected, "width {W}, lane {lane}");
        }
    }
    check(20, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        run::<1>(&g, &table, seed, rng);
        run::<2>(&g, &table, seed, rng);
        run::<4>(&g, &table, seed, rng);
        run::<8>(&g, &table, seed, rng);
    });
}

/// A pass's narrowing composes with everything else: whatever width it
/// actually lands on, counts stay bit-identical.
#[test]
fn fitted_widths_preserve_counts() {
    check(20, |rng| {
        let g = arb_graph(rng);
        let t = rng.range_usize(1, 3000) as u64;
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        let oracle = oracle_forward_counts(&g, 0..t, seed);
        for threads in [1usize, 4, 16] {
            let planned = BlockWords::plan(t, threads);
            let out = SamplePass::new(0..t, threads).forward(&g, &table, seed);
            assert!(out.width <= planned, "fitting may only narrow");
            assert_eq!(out.merged().0, oracle, "t {t}, threads {threads}, planned {planned}");
        }
    });
}
