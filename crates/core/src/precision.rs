//! Precision@k — the effectiveness metric of the paper's Figures 4 and 7.

use crate::topk::{select_top_k_dense, ScoredNode};

/// Strict precision: `|returned ∩ true top-k| / k`.
///
/// `truth` is the ground-truth score of every node; the true top-k is
/// taken with the same deterministic tie-breaking as the algorithms.
pub fn precision_at_k(returned: &[ScoredNode], truth: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let true_top = select_top_k_dense(truth, k);
    let mut in_top = vec![false; truth.len()];
    for s in &true_top {
        in_top[s.node.index()] = true;
    }
    let hits = returned.iter().take(k).filter(|s| in_top[s.node.index()]).count();
    hits as f64 / k as f64
}

/// Tie-tolerant precision: a returned node counts as correct when its
/// *true* score is at least `Pk − tol`, where `Pk` is the true k-th
/// score. With many boundary ties, strict set intersection punishes
/// arbitrary (but equally valid) tie-breaking; this variant does not.
pub fn precision_with_ties(returned: &[ScoredNode], truth: &[f64], k: usize, tol: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let pk = crate::topk::kth_largest(truth, k.min(truth.len())).unwrap_or(0.0);
    let hits = returned.iter().take(k).filter(|s| truth[s.node.index()] >= pk - tol).count();
    hits as f64 / k as f64
}

/// Checks the `(ε, δ)` contract of Definition 2 for one run (the "did it
/// hold this time" event, not the probability): every returned node has
/// true score `≥ Pk − ε` and every non-returned node `< Pk + ε`.
pub fn satisfies_epsilon_contract(
    returned: &[ScoredNode],
    truth: &[f64],
    k: usize,
    epsilon: f64,
) -> bool {
    let pk = match crate::topk::kth_largest(truth, k) {
        Some(p) => p,
        None => return true,
    };
    let mut in_returned = vec![false; truth.len()];
    for s in returned.iter().take(k) {
        in_returned[s.node.index()] = true;
    }
    for (v, &p) in truth.iter().enumerate() {
        if in_returned[v] {
            if p < pk - epsilon {
                return false;
            }
        } else if p >= pk + epsilon {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::NodeId;

    fn scored(ids: &[u32]) -> Vec<ScoredNode> {
        ids.iter()
            .enumerate()
            .map(|(i, &n)| ScoredNode { node: NodeId(n), score: 1.0 - i as f64 * 0.01 })
            .collect()
    }

    #[test]
    fn perfect_precision() {
        let truth = [0.9, 0.8, 0.1, 0.0];
        assert_eq!(precision_at_k(&scored(&[0, 1]), &truth, 2), 1.0);
        assert_eq!(precision_at_k(&scored(&[1, 0]), &truth, 2), 1.0); // order-free
    }

    #[test]
    fn partial_precision() {
        let truth = [0.9, 0.8, 0.1, 0.0];
        assert_eq!(precision_at_k(&scored(&[0, 2]), &truth, 2), 0.5);
        assert_eq!(precision_at_k(&scored(&[2, 3]), &truth, 2), 0.0);
    }

    #[test]
    fn k_zero_is_vacuously_perfect() {
        assert_eq!(precision_at_k(&[], &[0.5], 0), 1.0);
        assert_eq!(precision_with_ties(&[], &[0.5], 0, 0.0), 1.0);
    }

    #[test]
    fn tie_tolerant_forgives_boundary_swaps() {
        // Nodes 1 and 2 tie at the k = 2 boundary.
        let truth = [0.9, 0.5, 0.5, 0.1];
        let strict_a = precision_at_k(&scored(&[0, 2]), &truth, 2);
        // Strict counts node 2 as a miss (tie broken toward node 1)...
        assert_eq!(strict_a, 0.5);
        // ...but the tie-tolerant metric accepts either.
        assert_eq!(precision_with_ties(&scored(&[0, 2]), &truth, 2, 1e-9), 1.0);
        // A genuinely wrong node is still wrong.
        assert_eq!(precision_with_ties(&scored(&[0, 3]), &truth, 2, 1e-9), 0.5);
    }

    #[test]
    fn epsilon_contract() {
        let truth = [0.9, 0.6, 0.5, 0.1];
        // Pk for k=2 is 0.6. Returning {0, 2} violates nothing at ε=0.2
        // (0.5 ≥ 0.6 − 0.2, and excluded node 1 has 0.6 < 0.6 + 0.2).
        assert!(satisfies_epsilon_contract(&scored(&[0, 2]), &truth, 2, 0.2));
        // At ε = 0.05, returning node 3 (0.1 < 0.55) violates.
        assert!(!satisfies_epsilon_contract(&scored(&[0, 3]), &truth, 2, 0.05));
        // Excluding a node far above Pk + ε violates.
        assert!(!satisfies_epsilon_contract(&scored(&[2, 3]), &truth, 2, 0.05));
    }
}
