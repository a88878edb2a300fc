//! Shared experiment workload configuration.
//!
//! All experiment binaries honor two environment variables:
//!
//! * `VULNDS_SCALE` — fraction of the paper's dataset sizes to generate
//!   (default 0.1; `1.0` reproduces the full Table 2 scale).
//! * `VULNDS_SEED` — master seed (default 42).
//!
//! The paper varies `k` from 1% to 10% of `|V|`; [`k_grid`] reproduces the
//! {2, 4, 6, 8, 10}% grid its figures plot.

use ugraph::UncertainGraph;
use vulnds_core::{ground_truth, VulnConfig, PAPER_GROUND_TRUTH_SAMPLES};
use vulnds_datasets::Dataset;

/// Reads the experiment scale from `VULNDS_SCALE` (default 0.1).
pub fn scale() -> f64 {
    std::env::var("VULNDS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(0.1)
}

/// Reads the master seed from `VULNDS_SEED` (default 42).
pub fn seed() -> u64 {
    std::env::var("VULNDS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// The paper's `k` grid: {2, 4, 6, 8, 10}% of `|V|`, each at least 1.
pub fn k_grid(n: usize) -> Vec<(usize, usize)> {
    [2usize, 4, 6, 8, 10].iter().map(|&pct| (pct, ((n * pct) / 100).max(1))).collect()
}

/// Generates a dataset at the configured experiment scale.
pub fn generate(ds: Dataset) -> UncertainGraph {
    ds.generate_scaled(seed(), scale())
}

/// Ground truth with the paper's sample convention
/// ([`PAPER_GROUND_TRUTH_SAMPLES`]), parallelized.
pub fn truth(graph: &UncertainGraph) -> Vec<f64> {
    ground_truth(graph, PAPER_GROUND_TRUTH_SAMPLES, seed() ^ 0x6007, threads())
}

/// Worker threads for ground-truth computation (all available cores).
pub fn threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
}

/// Default experiment configuration (paper parameters, master seed).
pub fn config() -> VulnConfig {
    VulnConfig::default().with_seed(seed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_grid_matches_percentages() {
        let g = k_grid(1000);
        assert_eq!(g, vec![(2, 20), (4, 40), (6, 60), (8, 80), (10, 100)]);
        // Tiny graphs clamp to k ≥ 1.
        assert!(k_grid(10).iter().all(|&(_, k)| k >= 1));
    }

    #[test]
    fn defaults_are_sane() {
        assert!(scale() > 0.0 && scale() <= 1.0);
        assert!(threads() >= 1);
    }
}
