//! Whole-graph default-probability scoring — the predictor behind the
//! paper's Table 3 case study, where BSR/BSRBK scores feed a default-
//! prediction AUC instead of a top-k query.

use crate::config::VulnConfig;
use crate::sample_size::basic_sample_size;
use ugraph::UncertainGraph;
use vulnds_sampling::{block_chunks, BlockKernel, CoinTable, SamplePass, WorldBlock};
use vulnds_sketch::{bottomk_default_probability, hash_order, UnitHasher};

/// Monte-Carlo scores for every node with the Equation-3 budget — the
/// BSR-style predictor (tight guarantee, full sampling).
pub fn score_nodes_mc(graph: &UncertainGraph, k_hint: usize, config: &VulnConfig) -> Vec<f64> {
    let n = graph.num_nodes();
    let t = config
        .cap_samples(basic_sample_size(
            n,
            k_hint.clamp(1, n.saturating_sub(1).max(1)),
            config.approx,
        ))
        .max(1);
    let pass = SamplePass::new(0..t, config.threads);
    pass.forward(graph, &CoinTable::new(graph), config.seed).merged().0.estimates()
}

/// Bottom-k scores for every node — the BSRBK-style predictor: a node
/// that reaches `bk` hits is scored by the sketch estimate
/// `(bk − 1)/(h · t)` and frozen, others by their empirical frequency
/// over all `t` samples. Processing stops once every node is frozen:
/// no node is left for the remaining samples to score.
///
/// The sketch reads samples in ascending hash order. Worlds are i.i.d.
/// and independent of the hashes, so this walks worlds in sample-id
/// order and pairs world `j` with the `j`-th smallest of the `t` hashes:
/// the estimator's distribution is the same, and the worlds are read 64
/// at a time from aligned blocks on the bit-parallel kernel. Counters
/// and freeze hashes are identical to a one-world-at-a-time run.
pub fn score_nodes_bottomk(graph: &UncertainGraph, k_hint: usize, config: &VulnConfig) -> Vec<f64> {
    let n = graph.num_nodes();
    assert!(config.bk >= 2, "bottom-k parameter must be at least 2");
    let t = config
        .cap_samples(basic_sample_size(
            n,
            k_hint.clamp(1, n.saturating_sub(1).max(1)),
            config.approx,
        ))
        .max(1);
    let hasher = UnitHasher::new(config.seed ^ 0xB07_70A6);
    let order = hash_order(&hasher, t as usize);

    let coins = CoinTable::new(graph);
    let mut block = WorldBlock::new(graph);
    let mut kernel = BlockKernel::new(graph);
    let mut counters = vec![0u32; n];
    let mut score = vec![f64::NAN; n];
    let mut frozen = 0usize;
    for chunk in block_chunks(0..t) {
        if frozen == n {
            break;
        }
        block.materialize(
            graph,
            &coins,
            config.seed,
            chunk.start,
            (chunk.end - chunk.start) as usize,
        );
        let words = kernel.forward_defaults(graph, &coins, &mut block);
        // Per-node replay: a node's counter only depends on its own
        // default lanes, in lane (= sample id) order.
        for (i, &word) in words.iter().enumerate() {
            if !score[i].is_nan() {
                continue;
            }
            let mut w = word;
            while w != 0 {
                let j = chunk.start + u64::from(w.trailing_zeros());
                w &= w - 1;
                counters[i] += 1;
                if counters[i] as usize == config.bk {
                    let h = hasher.hash_unit(u64::from(order[j as usize]));
                    score[i] = bottomk_default_probability(config.bk, h, t as usize);
                    frozen += 1;
                    break;
                }
            }
        }
    }
    // A node still unfrozen means the walk read all `t` samples.
    for i in 0..n {
        if score[i].is_nan() {
            score[i] = counters[i] as f64 / t as f64;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::testkit::{check, random_graph};
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId};
    use vulnds_sampling::PossibleWorld;

    fn chain() -> UncertainGraph {
        from_parts(&[0.6, 0.0, 0.0], &[(0, 1, 0.8), (1, 2, 0.8)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    #[test]
    fn mc_scores_rank_correctly() {
        // p = (0.6, 0.48, 0.384).
        let g = chain();
        let s = score_nodes_mc(&g, 1, &VulnConfig::default().with_seed(1));
        assert!(s[0] > s[1] && s[1] > s[2], "{s:?}");
        assert!((s[0] - 0.6).abs() < 0.15);
    }

    #[test]
    fn bottomk_scores_rank_correctly() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(2).with_max_samples(5000);
        let s = score_nodes_bottomk(&g, 1, &cfg);
        assert!(s[0] > s[2], "{s:?}");
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn bottomk_scores_are_calibrated_roughly() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(3).with_max_samples(8000).with_bk(32);
        let s = score_nodes_bottomk(&g, 1, &cfg);
        assert!((s[0] - 0.6).abs() < 0.25, "score {} vs true 0.6", s[0]);
    }

    #[test]
    fn zero_risk_nodes_score_zero() {
        let g = from_parts(&[0.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let cfg = VulnConfig::default().with_max_samples(500);
        assert_eq!(score_nodes_mc(&g, 1, &cfg), vec![0.0, 0.0]);
        assert_eq!(score_nodes_bottomk(&g, 1, &cfg), vec![0.0, 0.0]);
    }

    #[test]
    fn deterministic() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(5).with_max_samples(2000);
        assert_eq!(score_nodes_bottomk(&g, 1, &cfg), score_nodes_bottomk(&g, 1, &cfg));
        assert_eq!(score_nodes_mc(&g, 1, &cfg), score_nodes_mc(&g, 1, &cfg));
    }

    /// The scorer one world at a time through the oracle: world `j` of
    /// `0..t` carries the `j`-th smallest hash, a node freezes at its
    /// `bk`-th hit, the walk stops right after the sample that freezes
    /// the last node, and unfrozen nodes divide by the samples
    /// processed. Returns the scores and whether the walk stopped
    /// before `t`.
    fn oracle_bottomk(g: &UncertainGraph, k_hint: usize, config: &VulnConfig) -> (Vec<f64>, bool) {
        let n = g.num_nodes();
        let k = k_hint.clamp(1, n.saturating_sub(1).max(1));
        let t = config.cap_samples(basic_sample_size(n, k, config.approx)).max(1);
        let hasher = UnitHasher::new(config.seed ^ 0xB07_70A6);
        let order = hash_order(&hasher, t as usize);
        let table = CoinTable::new(g);
        let mut hits = vec![0usize; n];
        let mut frozen: Vec<Option<f64>> = vec![None; n];
        let mut processed = 0u64;
        while processed < t && frozen.iter().any(Option::is_none) {
            let j = processed;
            processed += 1;
            let world = PossibleWorld::sample_with_table(g, &table, config.seed, j);
            for (v, defaulted) in world.defaulted_nodes(g).into_iter().enumerate() {
                if defaulted && frozen[v].is_none() {
                    hits[v] += 1;
                    if hits[v] == config.bk {
                        let h = hasher.hash_unit(u64::from(order[j as usize]));
                        frozen[v] = Some(bottomk_default_probability(config.bk, h, t as usize));
                    }
                }
            }
        }
        let scores =
            (0..n).map(|v| frozen[v].unwrap_or(hits[v] as f64 / processed as f64)).collect();
        (scores, processed < t)
    }

    #[test]
    fn bottomk_scores_match_the_oracle_bit_for_bit() {
        let mut early_stops = 0;
        check(48, |rng| {
            let mut g = random_graph(rng, 12, 24);
            if rng.next_bounded(2) == 0 {
                // High risks freeze every node early: the all-frozen stop.
                for v in 0..g.num_nodes() as u32 {
                    g.set_self_risk(NodeId(v), 0.5 + 0.5 * rng.next_f64()).unwrap();
                }
            }
            let bk = [2, 3, 8, 16][rng.next_bounded(4) as usize];
            let cap = [1, 63, 64, 65, 200, 1000][rng.next_bounded(6) as usize];
            let config =
                VulnConfig::default().with_seed(rng.next_u64()).with_bk(bk).with_max_samples(cap);
            let k_hint = rng.range_usize(1, g.num_nodes());
            let (expected, stopped) = oracle_bottomk(&g, k_hint, &config);
            early_stops += usize::from(stopped);
            assert_eq!(score_nodes_bottomk(&g, k_hint, &config), expected, "bk {bk}, cap {cap}");
        });
        assert!(early_stops > 0, "no case reached the all-frozen stop");
    }
}
