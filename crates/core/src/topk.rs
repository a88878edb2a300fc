//! Top-k selection with deterministic tie-breaking.

use ugraph::NodeId;

/// A node with its (estimated or exact) default probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredNode {
    /// The node.
    pub node: NodeId,
    /// Default-probability score in `[0, 1]`.
    pub score: f64,
}

impl ScoredNode {
    /// Sort key: descending score, ascending node id on ties. Total order
    /// because scores are finite probabilities.
    fn key(&self) -> (std::cmp::Reverse<OrderedF64>, u32) {
        (std::cmp::Reverse(OrderedF64(self.score)), self.node.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Selects the `k` highest-scored nodes from `(node, score)` pairs, sorted
/// descending (ties by ascending id). Runs once per query over every
/// scored node (all `n` for N/SN), so it selects the top `k` in `O(n)`
/// and sorts only those: the key is a total order, so the result is the
/// same as sorting everything.
pub fn select_top_k(scores: impl IntoIterator<Item = ScoredNode>, k: usize) -> Vec<ScoredNode> {
    if k == 0 {
        return Vec::new();
    }
    let mut all: Vec<ScoredNode> = scores.into_iter().collect();
    if k < all.len() {
        all.select_nth_unstable_by_key(k - 1, |s| s.key());
        all.truncate(k);
    }
    all.sort_unstable_by_key(|s| s.key());
    all
}

/// Selects the top-k from a dense score vector indexed by node id.
pub fn select_top_k_dense(scores: &[f64], k: usize) -> Vec<ScoredNode> {
    select_top_k(
        scores.iter().enumerate().map(|(i, &score)| ScoredNode { node: NodeId(i as u32), score }),
        k,
    )
}

/// The `k`-th largest value in `values` (1-based: `kth_largest(v, 1)` is
/// the maximum). Returns `None` if `k == 0` or `k > values.len()`.
///
/// Used for the thresholds `Tl` and `Tu` of Lemma 1. `O(n)` average via
/// quickselect (`select_nth_unstable`).
pub fn kth_largest(values: &[f64], k: usize) -> Option<f64> {
    if k == 0 || k > values.len() {
        return None;
    }
    let mut v = values.to_vec();
    let idx = k - 1;
    let (_, kth, _) = v.select_nth_unstable_by(idx, |a, b| b.total_cmp(a));
    Some(*kth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(pairs: &[(u32, f64)]) -> Vec<ScoredNode> {
        pairs.iter().map(|&(n, s)| ScoredNode { node: NodeId(n), score: s }).collect()
    }

    #[test]
    fn selects_highest() {
        let top = select_top_k(scored(&[(0, 0.1), (1, 0.9), (2, 0.5)]), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].node, NodeId(1));
        assert_eq!(top[1].node, NodeId(2));
    }

    #[test]
    fn ties_break_by_id() {
        let top = select_top_k(scored(&[(5, 0.5), (1, 0.5), (3, 0.5)]), 2);
        assert_eq!(top[0].node, NodeId(1));
        assert_eq!(top[1].node, NodeId(3));
    }

    #[test]
    fn k_larger_than_input() {
        let top = select_top_k(scored(&[(0, 0.1)]), 5);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(select_top_k(scored(&[(0, 0.1)]), 0).is_empty());
    }

    #[test]
    fn dense_selection() {
        let top = select_top_k_dense(&[0.3, 0.9, 0.1, 0.9], 3);
        let ids: Vec<u32> = top.iter().map(|s| s.node.0).collect();
        assert_eq!(ids, vec![1, 3, 0]);
    }

    #[test]
    fn kth_largest_values() {
        let v = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(kth_largest(&v, 1), Some(0.9));
        assert_eq!(kth_largest(&v, 2), Some(0.7));
        assert_eq!(kth_largest(&v, 4), Some(0.1));
        assert_eq!(kth_largest(&v, 0), None);
        assert_eq!(kth_largest(&v, 5), None);
    }

    #[test]
    fn kth_largest_with_duplicates() {
        let v = [0.5, 0.5, 0.5];
        assert_eq!(kth_largest(&v, 2), Some(0.5));
    }

    #[test]
    fn selection_matches_a_full_sort_under_heavy_ties() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 7, 64, 301] {
            // Eight distinct scores over n nodes in shuffled id order.
            let scores: Vec<ScoredNode> = (0..n)
                .map(|_| ScoredNode {
                    node: NodeId((next() % 10_000) as u32),
                    score: (next() % 8) as f64 / 8.0,
                })
                .collect();
            let mut reference = scores.clone();
            reference.sort_unstable_by_key(|s| s.key());
            for k in [0, 1, n / 2, n - 1, n, n + 3] {
                let want = &reference[..k.min(n)];
                assert_eq!(select_top_k(scores.iter().copied(), k), want, "n {n}, k {k}");
            }
        }
    }

    #[test]
    fn selection_is_stable_under_permutation() {
        let a = select_top_k(scored(&[(0, 0.2), (1, 0.8), (2, 0.5)]), 2);
        let b = select_top_k(scored(&[(2, 0.5), (0, 0.2), (1, 0.8)]), 2);
        assert_eq!(a, b);
    }
}
