//! Whole-graph default-probability scoring — the predictor behind the
//! paper's Table 3 case study, where BSR/BSRBK scores feed a default-
//! prediction AUC instead of a top-k query.

use crate::config::VulnConfig;
use crate::sample_size::basic_sample_size;
use ugraph::UncertainGraph;
use vulnds_sampling::{BlockKernel, CoinTable, SamplePass, WorldBlock, LANES};
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

/// Bottom-k scores for every node — the BSRBK-style predictor: forward
/// samples visited in ascending hash order; a node that reaches `bk` hits
/// is scored by the sketch estimate `(bk − 1)/(h · t)` and frozen, others
/// by their final empirical frequency. Processing stops once every node
/// is frozen (or the budget is spent).
///
/// Worlds are evaluated 64 at a time on the bit-parallel block kernel
/// and replayed in hash order, so counters, freeze hashes, and the
/// processed-sample denominator are identical to a one-world-at-a-time
/// run.
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
    let mut ids: Vec<u64> = Vec::with_capacity(LANES);
    let mut counters = vec![0u32; n];
    let mut score = vec![f64::NAN; n];
    let mut frozen = 0usize;
    let mut processed = 0u64;
    for chunk in order.chunks(LANES) {
        if frozen == n {
            break;
        }
        ids.clear();
        ids.extend(chunk.iter().map(|&s| s as u64));
        block.materialize_ids(graph, &coins, config.seed, &ids);
        let words = kernel.forward_defaults(graph, &coins, &mut block);
        // Per-node replay: a node's counter only depends on its own
        // default lanes, in lane (= hash) order. The single cross-node
        // coupling is the all-frozen early stop, handled below.
        let mut last_freeze_lane = 0usize;
        for (i, &word) in words.iter().enumerate() {
            if !score[i].is_nan() {
                continue;
            }
            let mut w = word;
            while w != 0 {
                let lane = w.trailing_zeros() as usize;
                w &= w - 1;
                counters[i] += 1;
                if counters[i] as usize == config.bk {
                    let h = hasher.hash_unit(ids[lane]);
                    score[i] = bottomk_default_probability(config.bk, h, t as usize);
                    frozen += 1;
                    last_freeze_lane = last_freeze_lane.max(lane);
                    break;
                }
            }
        }
        if frozen == n {
            // The final freeze is the latest freeze event of this chunk:
            // a sequential run would stop right after that sample.
            processed += last_freeze_lane as u64 + 1;
            break;
        }
        processed += chunk.len() as u64;
    }
    for i in 0..n {
        if score[i].is_nan() {
            score[i] = counters[i] as f64 / processed.max(1) as f64;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy};

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
}
