//! Reverse possible-world sampling — Algorithm 5 of the paper.
//!
//! Given a (hopefully small) candidate set `B`, one reverse sample
//! decides for each `v ∈ B` whether `v` defaults in the sample's
//! possible world, by BFS over **in**-edges from `v` looking for a
//! self-defaulted ancestor reachable through surviving edges.
//!
//! Under the counter-RNG contract (see [`crate::coins`]) a sample's
//! world is a *stateless function* of `(seed, sample_id)`: `h_v` is a
//! pure function of that world, so reverse sampling over any candidate
//! set is **bit-identical** to forward sampling restricted to those
//! candidates — a property the cross-validation tests assert. Two
//! implementations share it:
//!
//! * [`ReverseSampler`] — the **scalar reference**: one world at a time,
//!   with the paper's positive/negative result caches (epoch-stamped
//!   dense arrays; the negative cache can be switched off, which
//!   `benches/ablation.rs` measures). Coins are drawn lazily where the
//!   reverse BFS touches them — the paper's original lazy-coin regime,
//!   restored by the stateless generator.
//! * [`SamplePass::reverse`] — the **runtime path** on the bit-parallel
//!   [`SuperKernel`](crate::SuperKernel): one reverse BFS per candidate
//!   advances all `W·64` worlds of a superblock at once and decides a
//!   lane as soon as an in-edge discovers a defaulted ancestor, so a
//!   node's or an edge's word is synthesized only when a search reads
//!   it before its lanes are all decided — usually far fewer items than
//!   the candidates can reach, never more, and never `O(n + m)`. The
//!   same positive/negative caches hold one verdict slot per candidate
//!   queried in the current superblock, not a word per graph node, so
//!   starting a superblock clears `O(|B|)` entries and the kernel never
//!   allocates the forward pass's buffers.

use crate::coins::{CoinTable, ScalarCoins};
use crate::counts::DefaultCounts;
use crate::parallel::SamplePass;
use ugraph::{NodeId, UncertainGraph};

/// Reusable scalar reverse sampler — the semantic reference for the
/// block kernel's reverse pass. Coins are projected lazily from the
/// per-sample counter streams.
#[derive(Debug, Clone)]
pub struct ReverseSampler {
    // The current sample's coin view.
    coins: Option<ScalarCoins>,
    // Per-sample positive cache: nodes known to default in this sample.
    hit_epoch: Vec<u32>,
    // Per-sample negative cache: nodes known NOT to default (only filled
    // when a candidate BFS exhausts without success).
    safe_epoch: Vec<u32>,
    // Per-candidate-BFS visited stamps.
    visit_stamp: Vec<u32>,
    epoch: u32,
    visit_counter: u32,
    queue: Vec<u32>,
    cache_negative: bool,
}

impl ReverseSampler {
    /// Creates a sampler with buffers sized for `graph`, with negative-
    /// result caching enabled.
    pub fn new(graph: &UncertainGraph) -> Self {
        ReverseSampler {
            coins: None,
            hit_epoch: vec![0; graph.num_nodes()],
            safe_epoch: vec![0; graph.num_nodes()],
            visit_stamp: vec![0; graph.num_nodes()],
            epoch: 0,
            visit_counter: 0,
            queue: Vec::new(),
            cache_negative: true,
        }
    }

    /// Disables the negative-result cache (exactly the paper's Algorithm
    /// 5). Kept for the ablation benchmark; results are identical either
    /// way — `h_v` is a pure function of the sample's world.
    pub fn without_negative_cache(mut self) -> Self {
        self.cache_negative = false;
        self
    }

    /// Starts a new possible world — the one fixed by `coins` — and
    /// forgets the per-sample result caches. No coin is drawn until a
    /// candidate's reverse BFS touches it.
    pub fn begin_sample(&mut self, coins: ScalarCoins) {
        if self.epoch == u32::MAX {
            self.hit_epoch.fill(0);
            self.safe_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.coins = Some(coins);
    }

    /// Decides whether candidate `v` defaults in the current sample
    /// (`h_v` of Algorithm 5). Must be called between
    /// [`begin_sample`](Self::begin_sample) calls.
    pub fn is_influenced(&mut self, graph: &UncertainGraph, table: &CoinTable, v: NodeId) -> bool {
        // xlint: allow(panic-hygiene) — documented API contract (see
        // the doc comment): `begin_sample` must precede this call.
        let coins = self.coins.expect("call begin_sample before is_influenced");
        if self.hit_epoch[v.index()] == self.epoch {
            return true;
        }
        if self.cache_negative && self.safe_epoch[v.index()] == self.epoch {
            return false;
        }
        if self.visit_counter >= u32::MAX - 1 {
            self.visit_stamp.fill(0);
            self.visit_counter = 0;
        }
        self.visit_counter += 1;
        let stamp = self.visit_counter;

        self.queue.clear();
        self.queue.push(v.0);
        self.visit_stamp[v.index()] = stamp;
        let mut head = 0;
        let mut found = false;
        'bfs: while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            // A node already known to default infects the candidate
            // (Algorithm 5, lines 7–8).
            if self.hit_epoch[u] == self.epoch {
                found = true;
                break 'bfs;
            }
            if self.cache_negative && self.safe_epoch[u] == self.epoch {
                // Known safe: its ancestors through surviving edges cannot
                // contain a defaulted node either — do not expand.
                continue;
            }
            if coins.node_coin(table, u) {
                self.hit_epoch[u] = self.epoch;
                found = true;
                break 'bfs;
            }
            for edge in graph.in_edges(NodeId(u as u32)) {
                if self.visit_stamp[edge.source.index()] != stamp
                    && coins.edge_coin(table, edge.id.index())
                {
                    self.visit_stamp[edge.source.index()] = stamp;
                    self.queue.push(edge.source.0);
                }
            }
        }

        if found {
            self.hit_epoch[v.index()] = self.epoch;
            true
        } else {
            if self.cache_negative {
                // The BFS exhausted: every visited node's surviving in-tree
                // was fully explored, so all of them are safe this sample.
                for &u in &self.queue {
                    self.safe_epoch[u as usize] = self.epoch;
                }
            }
            false
        }
    }

    /// Runs one full sample over a candidate list, writing `h_v` into
    /// `out` (resized to `candidates.len()`). The sample is the world of
    /// `coins`.
    pub fn sample_candidates(
        &mut self,
        graph: &UncertainGraph,
        table: &CoinTable,
        candidates: &[NodeId],
        coins: ScalarCoins,
        out: &mut Vec<bool>,
    ) {
        self.begin_sample(coins);
        out.clear();
        for &v in candidates {
            let hit = self.is_influenced(graph, table, v);
            out.push(hit);
        }
    }
}

/// Runs `t` reverse samples (ids `0..t`) over `candidates` and returns
/// per-candidate default counts (indexed by candidate position), as one
/// [`SamplePass`] on the calling thread.
pub fn reverse_counts(
    graph: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
) -> DefaultCounts {
    SamplePass::new(0..t, 1).reverse(graph, &CoinTable::new(graph), candidates, seed).merged().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::forward_counts;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    fn all_nodes(g: &UncertainGraph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    #[test]
    fn certain_chain_always_infects() {
        let g = from_parts(&[1.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let counts = reverse_counts(&g, &all_nodes(&g), 100, 1);
        assert_eq!(counts.estimate(0), 1.0);
        assert_eq!(counts.estimate(1), 1.0);
    }

    #[test]
    fn impossible_chain_never_infects() {
        let g = from_parts(&[0.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let counts = reverse_counts(&g, &all_nodes(&g), 100, 1);
        assert_eq!(counts.count(0), 0);
        assert_eq!(counts.count(1), 0);
    }

    #[test]
    fn bit_identical_to_forward_sampler() {
        // Same seed, same worlds, same verdicts — not just equal
        // marginals: the stateless-coin contract makes reverse a
        // projection of forward.
        let g = chain();
        for t in [1u64, 63, 64, 200] {
            let fwd = forward_counts(&g, t, 5);
            let rev = reverse_counts(&g, &all_nodes(&g), t, 5);
            assert_eq!(rev, fwd, "t = {t}");
        }
    }

    #[test]
    fn bit_identical_to_forward_on_cyclic_graph() {
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.6), (1, 2, 0.6), (2, 0, 0.6)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let t = 500;
        assert_eq!(reverse_counts(&g, &all_nodes(&g), t, 8), forward_counts(&g, t, 8));
    }

    #[test]
    fn scalar_reference_matches_block_path() {
        let g = from_parts(
            &[0.2, 0.2, 0.2, 0.2],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        let cands = [NodeId(3), NodeId(1)];
        for variant in [true, false] {
            let mut sampler = if variant {
                ReverseSampler::new(&g)
            } else {
                ReverseSampler::new(&g).without_negative_cache()
            };
            let mut counts = DefaultCounts::new(cands.len());
            let mut buf = Vec::new();
            for sample_id in 0..300 {
                let coins = ScalarCoins::new(11, sample_id);
                sampler.sample_candidates(&g, &table, &cands, coins, &mut buf);
                counts.begin_sample();
                for (i, &h) in buf.iter().enumerate() {
                    if h {
                        counts.bump(i);
                    }
                }
            }
            assert_eq!(counts, reverse_counts(&g, &cands, 300, 11), "negative cache = {variant}");
        }
    }

    #[test]
    fn coins_are_consistent_within_a_sample() {
        // Two candidates sharing an ancestor must observe the same coin:
        // in the graph 0 → 1, 0 → 2 with ps(0) = 0.5 and certain edges,
        // nodes 1 and 2 default together in every sample.
        let g =
            from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 1.0), (0, 2, 1.0)], DuplicateEdgePolicy::Error)
                .unwrap();
        let table = CoinTable::new(&g);
        let mut sampler = ReverseSampler::new(&g);
        let mut buf = Vec::new();
        for sample_id in 0..500 {
            let coins = ScalarCoins::new(13, sample_id);
            sampler.sample_candidates(&g, &table, &[NodeId(1), NodeId(2)], coins, &mut buf);
            assert_eq!(buf[0], buf[1], "sample {sample_id}: inconsistent shared coin");
        }
    }

    #[test]
    fn requires_begin_sample() {
        let g = chain();
        let table = CoinTable::new(&g);
        let mut sampler = ReverseSampler::new(&g);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sampler.is_influenced(&g, &table, NodeId(0))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reverse_counts_reproducible() {
        let g = chain();
        let cands = all_nodes(&g);
        assert_eq!(reverse_counts(&g, &cands, 300, 2), reverse_counts(&g, &cands, 300, 2));
    }

    #[test]
    fn every_width_is_bit_identical_to_forward() {
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.6), (1, 2, 0.6), (2, 0, 0.6)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        let cands = all_nodes(&g);
        for range in [0..100u64, 0..600, 70..300] {
            let fwd = SamplePass::new(range.clone(), 1).forward(&g, &table, 8).merged().0;
            for width in crate::BlockWords::ALL {
                let pass = SamplePass { width, ..SamplePass::new(range.clone(), 1) };
                let counts = pass.reverse(&g, &table, &cands, 8).merged().0;
                assert_eq!(counts, fwd, "range {range:?}, width {width}");
            }
        }
    }

    #[test]
    fn subset_candidates_match_full_run_bitwise() {
        // Worlds are shared state, not per-candidate: a singleton run
        // sees exactly the worlds of the full run.
        let g = chain();
        let full = reverse_counts(&g, &all_nodes(&g), 500, 3);
        let single = reverse_counts(&g, &[NodeId(2)], 500, 3);
        assert_eq!(single.count(0), full.count(2));
        let counts = reverse_counts(&g, &[NodeId(2)], 20_000, 3);
        assert_eq!(counts.len(), 1);
        assert!((counts.estimate(0) - 0.125).abs() < 0.02);
    }

    #[test]
    fn small_candidate_sets_skip_most_edge_words() {
        // A long chain with a candidate at its head: the reverse BFS
        // only walks the candidate's ancestor tree, so the lazy path
        // must leave the downstream edges unmaterialized.
        let n = 50usize;
        let risks = vec![0.2; n];
        let edges: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
        let table = CoinTable::new(&g);
        let pass = SamplePass { width: crate::BlockWords::W1, ..SamplePass::new(0..128, 1) };
        let (_, usage) = pass.reverse(&g, &table, &[NodeId(1)], 17).merged();
        assert!(
            usage.edge_words_materialized <= 2 * 2,
            "candidate 1 has one in-edge per world-block, got {}",
            usage.edge_words_materialized
        );
        assert!(usage.lazy_skip_ratio() > 0.9, "ratio {}", usage.lazy_skip_ratio());
    }
}
