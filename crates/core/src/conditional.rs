//! Conditional vulnerability queries: *given that some nodes are observed
//! to have defaulted, which nodes are now most at risk?*
//!
//! This is the operational question after an actual default event (the
//! paper's deployment monitors live loan status). Two semantics are
//! provided, and they differ:
//!
//! * [`intervention_scores`] — *do(X defaults)*: force the evidence nodes
//!   to default (set `ps = 1`) and re-estimate. Answers "what does X's
//!   default **cause** downstream"; upstream nodes are unaffected.
//! * [`conditional_scores`] — *P(v defaults | X defaulted)*: true Bayesian
//!   conditioning by rejection sampling over possible worlds. Evidence
//!   also flows **backwards** (X defaulting makes its likely infectors
//!   more suspect) — the difference the tests demonstrate.

use crate::config::VulnConfig;
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{BlockKernel, CoinTable, SamplePass, WorldBlock, LANES};

/// Result of a conditional estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalScores {
    /// Estimated conditional default probability per node (evidence nodes
    /// report 1).
    pub scores: Vec<f64>,
    /// Worlds consistent with the evidence, out of `samples_drawn`.
    pub accepted: u64,
    /// Total worlds drawn.
    pub samples_drawn: u64,
}

impl ConditionalScores {
    /// Acceptance rate of the rejection sampler; low values mean the
    /// evidence is improbable under the model and estimates are noisy.
    pub fn acceptance_rate(&self) -> f64 {
        if self.samples_drawn == 0 {
            0.0
        } else {
            self.accepted as f64 / self.samples_drawn as f64
        }
    }
}

/// Causal intervention: force `evidence` to default and re-estimate all
/// marginals with `t` forward samples.
pub fn intervention_scores(
    graph: &UncertainGraph,
    evidence: &[NodeId],
    t: u64,
    config: &VulnConfig,
) -> Vec<f64> {
    let mut g = graph.clone();
    for &v in evidence {
        // xlint: allow(panic-hygiene) — evidence ids come from the
        // same graph per this function's contract; 1.0 is always a
        // valid probability.
        g.set_self_risk(v, 1.0).expect("evidence node must exist");
    }
    let pass = SamplePass::new(0..t, config.threads);
    pass.forward(&g, &CoinTable::new(&g), config.seed).merged().0.estimates()
}

/// Bayesian conditioning by rejection: draw worlds until `accept_target`
/// worlds consistent with the evidence are found (or `max_draws` is
/// spent), and average default indicators over the accepted worlds.
///
/// Rejection sampling is where the bit-parallel block kernel shines:
/// 64 candidate worlds are evaluated per traversal pass, the acceptance
/// test collapses to an AND of the evidence nodes' lane masks, and
/// rejected worlds cost nothing beyond their coins. Results are
/// bit-identical to drawing worlds one at a time in id order.
pub fn conditional_scores(
    graph: &UncertainGraph,
    evidence: &[NodeId],
    accept_target: u64,
    max_draws: u64,
    config: &VulnConfig,
) -> ConditionalScores {
    assert!(!evidence.is_empty(), "conditioning requires at least one evidence node");
    let n = graph.num_nodes();
    for &v in evidence {
        assert!(v.index() < n, "evidence node {v} out of bounds");
    }
    let coins = CoinTable::new(graph);
    let mut block = WorldBlock::new(graph);
    let mut kernel = BlockKernel::new(graph);
    let mut counts = vec![0u64; n];
    let mut accepted = 0u64;
    let mut drawn = 0u64;
    while accepted < accept_target && drawn < max_draws {
        let lanes = (LANES as u64).min(max_draws - drawn) as usize;
        block.materialize(graph, &coins, config.seed, drawn, lanes);
        let words = kernel.forward_defaults(graph, &coins, &mut block);
        // Lanes whose world is consistent with every evidence node.
        let mut accept_word = block.lane_mask();
        for &v in evidence {
            accept_word &= words[v.index()];
        }
        // Replay lanes in sample order, stopping the moment the target
        // is reached — `drawn` counts exactly the worlds a sequential
        // run would have looked at.
        let mut taken = 0u64;
        for lane in 0..lanes {
            drawn += 1;
            if accept_word >> lane & 1 == 1 {
                accepted += 1;
                taken |= 1u64 << lane;
                if accepted == accept_target {
                    break;
                }
            }
        }
        if taken != 0 {
            for (c, &w) in counts.iter_mut().zip(words) {
                *c += u64::from((w & taken).count_ones());
            }
        }
    }
    let scores = counts
        .iter()
        .map(|&c| if accepted == 0 { 0.0 } else { c as f64 / accepted as f64 })
        .collect();
    ConditionalScores { scores, accepted, samples_drawn: drawn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_default_probabilities;
    use ugraph::{from_parts, DuplicateEdgePolicy};
    use vulnds_sampling::WorldEnumerator;

    /// Exact conditional probabilities by enumeration (reference).
    fn exact_conditional(g: &UncertainGraph, evidence: &[NodeId]) -> Vec<f64> {
        let n = g.num_nodes();
        let mut joint = vec![0.0f64; n];
        let mut z = 0.0f64;
        for w in WorldEnumerator::new(g) {
            let d = w.defaulted_nodes(g);
            if evidence.iter().all(|v| d[v.index()]) {
                let pw = w.probability(g);
                z += pw;
                for (acc, &def) in joint.iter_mut().zip(&d) {
                    if def {
                        *acc += pw;
                    }
                }
            }
        }
        joint.iter().map(|&j| if z == 0.0 { 0.0 } else { j / z }).collect()
    }

    fn chain() -> UncertainGraph {
        // 0 → 1 → 2 with moderate probabilities everywhere.
        from_parts(&[0.3, 0.2, 0.1], &[(0, 1, 0.6), (1, 2, 0.6)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    #[test]
    fn conditional_matches_enumeration() {
        let g = chain();
        let evidence = [NodeId(1)];
        let exact = exact_conditional(&g, &evidence);
        let cfg = VulnConfig::default().with_seed(3);
        let est = conditional_scores(&g, &evidence, 4_000, 200_000, &cfg);
        assert!(est.accepted >= 4_000, "only {} accepted", est.accepted);
        for (v, &truth) in exact.iter().enumerate() {
            assert!(
                (est.scores[v] - truth).abs() < 0.03,
                "node {v}: est {} exact {truth}",
                est.scores[v],
            );
        }
        // Evidence node reports probability 1.
        assert_eq!(est.scores[1], 1.0);
    }

    #[test]
    fn conditioning_flows_backwards_but_intervention_does_not() {
        let g = chain();
        let prior = exact_default_probabilities(&g);
        let cfg = VulnConfig::default().with_seed(5);

        // Conditioning on node 1's default raises suspicion of node 0
        // (its most likely infector)...
        let cond = conditional_scores(&g, &[NodeId(1)], 6_000, 400_000, &cfg);
        assert!(
            cond.scores[0] > prior[0] + 0.1,
            "conditional upstream {} vs prior {}",
            cond.scores[0],
            prior[0]
        );

        // ...while intervening on node 1 leaves node 0's marginal alone.
        let intv = intervention_scores(&g, &[NodeId(1)], 40_000, &cfg);
        assert!(
            (intv[0] - prior[0]).abs() < 0.02,
            "intervention upstream {} vs prior {}",
            intv[0],
            prior[0]
        );
        // Both raise the downstream node.
        assert!(cond.scores[2] > prior[2]);
        assert!(intv[2] > prior[2] + 0.2);
    }

    #[test]
    fn impossible_evidence_reports_zero_acceptance() {
        let g = from_parts(&[0.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let cfg = VulnConfig::default().with_seed(7);
        let est = conditional_scores(&g, &[NodeId(1)], 100, 5_000, &cfg);
        assert_eq!(est.accepted, 0);
        assert_eq!(est.acceptance_rate(), 0.0);
        assert!(est.scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn acceptance_rate_reflects_evidence_probability() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(9);
        // Node 0 defaults with probability 0.3: acceptance ≈ 0.3.
        let est = conditional_scores(&g, &[NodeId(0)], 3_000, 100_000, &cfg);
        assert!((est.acceptance_rate() - 0.3).abs() < 0.03, "{}", est.acceptance_rate());
    }

    #[test]
    fn multi_evidence_conditioning() {
        let g = chain();
        let exact = exact_conditional(&g, &[NodeId(0), NodeId(2)]);
        let cfg = VulnConfig::default().with_seed(11);
        let est = conditional_scores(&g, &[NodeId(0), NodeId(2)], 2_000, 500_000, &cfg);
        for (v, &truth) in exact.iter().enumerate() {
            assert!(
                (est.scores[v] - truth).abs() < 0.05,
                "node {v}: est {} exact {truth}",
                est.scores[v],
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one evidence node")]
    fn empty_evidence_rejected() {
        let g = chain();
        conditional_scores(&g, &[], 10, 100, &VulnConfig::default());
    }

    #[test]
    fn deterministic() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(13);
        assert_eq!(
            conditional_scores(&g, &[NodeId(1)], 500, 50_000, &cfg),
            conditional_scores(&g, &[NodeId(1)], 500, 50_000, &cfg)
        );
    }
}
