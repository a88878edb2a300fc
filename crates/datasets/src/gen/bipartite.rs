//! Consumer→merchant bipartite trade graph for the Fraud network shape
//! (14,242 nodes / 236,706 edges with an extreme merchant hub).
//!
//! The paper's Fraud dataset is built from credit-card transactions: each
//! edge is a trade between a consumer and a merchant. Its reported max
//! degree (85,074) exceeds the simple-graph bound, so the original counts
//! multi-edges (repeat purchases); we generate the *simple* projection,
//! because the detection algorithms are defined on simple uncertain
//! graphs either way.

use super::dedup_edges;
use crate::weighted::AliasTable;
use vulnds_sampling::Xoshiro256pp;

/// Parameters for the bipartite trade generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BipartiteParams {
    /// Number of consumers (node ids `0..consumers`).
    pub consumers: usize,
    /// Number of merchants (node ids `consumers..consumers+merchants`).
    pub merchants: usize,
    /// Target number of distinct consumer→merchant edges.
    pub edges: usize,
    /// Zipf-like skew of merchant popularity (1.0 = heavy hub).
    pub merchant_skew: f64,
}

/// Generates consumer → merchant edges.
pub fn generate(params: BipartiteParams, rng: &mut Xoshiro256pp) -> Vec<(u32, u32)> {
    assert!(params.consumers >= 1 && params.merchants >= 1, "both sides non-empty");
    let max_edges = params.consumers * params.merchants;
    assert!(
        params.edges <= max_edges / 2,
        "edge target {} too dense for {}×{} bipartite",
        params.edges,
        params.consumers,
        params.merchants
    );

    // Merchant popularity ∝ 1 / rank^skew (Zipf).
    let weights: Vec<f64> =
        (0..params.merchants).map(|r| 1.0 / ((r + 1) as f64).powf(params.merchant_skew)).collect();
    let merchant_table = AliasTable::new(&weights);

    let mut kept: Vec<(u32, u32)> = Vec::new();
    let mut rounds = 0;
    while kept.len() < params.edges && rounds < 64 {
        let need = (params.edges - kept.len()) * 2 + 16;
        let mut batch = std::mem::take(&mut kept);
        for _ in 0..need {
            let c = rng.next_bounded(params.consumers as u64) as u32;
            let m = (params.consumers + merchant_table.sample(rng)) as u32;
            batch.push((c, m));
        }
        kept = dedup_edges(batch);
        rounds += 1;
    }
    kept.truncate(params.edges);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_bipartite_structure() {
        let mut rng = Xoshiro256pp::new(1);
        let p =
            BipartiteParams { consumers: 1000, merchants: 100, edges: 5000, merchant_skew: 1.0 };
        let e = generate(p, &mut rng);
        assert_eq!(e.len(), 5000);
        for &(c, m) in &e {
            assert!((c as usize) < 1000);
            assert!((1000..1100).contains(&(m as usize)));
        }
    }

    #[test]
    fn hub_merchant_emerges() {
        let mut rng = Xoshiro256pp::new(2);
        let p =
            BipartiteParams { consumers: 5000, merchants: 200, edges: 30_000, merchant_skew: 1.2 };
        let e = generate(p, &mut rng);
        let mut in_deg = vec![0usize; 5200];
        for &(_, m) in &e {
            in_deg[m as usize] += 1;
        }
        let hub = *in_deg.iter().max().unwrap();
        let mean_merchant = e.len() as f64 / 200.0;
        assert!(hub as f64 > 5.0 * mean_merchant, "hub {hub}, mean {mean_merchant}");
    }

    #[test]
    fn no_duplicates() {
        let mut rng = Xoshiro256pp::new(3);
        let p = BipartiteParams { consumers: 300, merchants: 50, edges: 2000, merchant_skew: 0.8 };
        let e = generate(p, &mut rng);
        let set: std::collections::HashSet<_> = e.iter().collect();
        assert_eq!(set.len(), e.len());
    }

    #[test]
    #[should_panic(expected = "too dense")]
    fn rejects_overdense() {
        let p = BipartiteParams { consumers: 10, merchants: 10, edges: 90, merchant_skew: 1.0 };
        generate(p, &mut Xoshiro256pp::new(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let p = BipartiteParams { consumers: 100, merchants: 20, edges: 400, merchant_skew: 1.0 };
        assert_eq!(generate(p, &mut Xoshiro256pp::new(7)), generate(p, &mut Xoshiro256pp::new(7)));
    }
}
