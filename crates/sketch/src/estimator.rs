//! The bottom-k default-probability estimator.

/// Estimates the default probability of a node whose counter reached
/// `bk` hits: `p̂(v) = (bk − 1) / (h · t)`, where `h` is the hash value of
/// the `bk`-th sample in which `v` defaulted and `t` the total sample
/// budget (paper, proof of Theorem 6). The whole-graph bottom-k scorer
/// (`vulnds score --method bottomk`) freezes each saturated node at this
/// estimate; the engine's BSRBK does not call it.
///
/// Returns a value clamped into `[0, 1]`.
pub fn bottomk_default_probability(bk: usize, kth_hash: f64, t: usize) -> f64 {
    assert!(bk >= 1 && t >= 1, "bk and t must be positive");
    assert!(kth_hash > 0.0 && kth_hash < 1.0, "hash must lie in (0,1)");
    (((bk as f64) - 1.0) / (kth_hash * t as f64)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_probability_formula() {
        // bk = 5, 5th hit at hash 0.5, t = 100 → (5-1)/(0.5·100) = 0.08
        let p = bottomk_default_probability(5, 0.5, 100);
        assert!((p - 0.08).abs() < 1e-12);
    }

    #[test]
    fn default_probability_clamped() {
        // Tiny hash would give > 1; clamp.
        assert_eq!(bottomk_default_probability(64, 1e-9, 10), 1.0);
    }

    #[test]
    #[should_panic(expected = "hash must lie in (0,1)")]
    fn default_probability_rejects_bad_hash() {
        bottomk_default_probability(4, 1.0, 10);
    }

    #[test]
    fn higher_kth_hash_means_lower_probability() {
        // Monotonicity used by Theorem 6: whoever saturates first (smaller
        // kth hash) has the larger estimate.
        let p_small = bottomk_default_probability(8, 0.2, 1000);
        let p_large = bottomk_default_probability(8, 0.4, 1000);
        assert!(p_small > p_large);
    }
}
