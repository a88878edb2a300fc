//! `BSRBK` — BSR plus a sound sequential early stop (paper §3.3).
//!
//! The implementation lives in
//! [`engine::BottomKEarlyStop`](crate::engine::BottomKEarlyStop); this
//! module holds its behavioral test suite (the 0.2.0 free-function shim
//! was removed in 0.3.0). See the engine type for the algorithm
//! description (BSR's cached reverse stream read at a doubling schedule
//! of looks, a Chernoff–KL stop certifying Definition 2, BSR's answer
//! when no look certifies).

#[cfg(test)]
mod tests {
    use crate::algo::{run_one_shot, AlgorithmKind, DetectionResult};
    use crate::config::{ApproxParams, VulnConfig};
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};
    use vulnds_sampling::Xoshiro256pp;

    fn detect_bsrbk(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectionResult {
        run_one_shot(graph, k, AlgorithmKind::BottomK, config)
    }

    fn detect_bsr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectionResult {
        run_one_shot(graph, k, AlgorithmKind::BoundedSampleReverse, config)
    }

    /// A random sparse graph whose order-2 bounds are genuinely loose
    /// (every node sits on a cycle-ish mesh, so intervals overlap and
    /// sampling is actually required).
    fn random_graph(n: usize, m: usize, seed: u64) -> UncertainGraph {
        let mut rng = Xoshiro256pp::new(seed);
        let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u != v {
                edges.push((u, v, rng.next_f64() * 0.5));
            }
        }
        from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
    }

    /// Financial-style skew (a few clearly risky nodes, most tiny): the
    /// top of the ranking is separated, so sampling can certify it early.
    fn skewed_graph(seed: u64) -> UncertainGraph {
        let n = 300usize;
        let mut rng = Xoshiro256pp::new(seed);
        let risks: Vec<f64> = (0..n)
            .map(|_| {
                let r = rng.next_f64();
                0.9 * r * r * r // cubic skew: most tiny, a few large
            })
            .collect();
        let mut edges = Vec::new();
        while edges.len() < 500 {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u != v {
                edges.push((u, v, rng.next_f64() * 0.3));
            }
        }
        from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
    }

    #[test]
    fn early_stops_when_the_sampled_boundary_is_separated() {
        let g = skewed_graph(29);
        let approx = ApproxParams::new(0.1, 0.1).unwrap();
        let cfg = VulnConfig::default().with_seed(29).with_approx(approx);
        let r = detect_bsrbk(&g, 5, &cfg);
        assert!(r.stats.candidates > 0, "bounds resolved everything; test graph too easy");
        assert!(r.stats.early_stopped, "expected early stop; stats: {:?}", r.stats);
        assert!(r.stats.samples_used < r.stats.sample_budget);
        assert!(r.stats.samples_used.is_power_of_two(), "stops only at a look");
        assert_eq!(r.top_k.len(), 5);
    }

    #[test]
    fn a_crowded_boundary_runs_to_the_cap_and_answers_like_bsr() {
        // Uniform risks crowd the top-5 boundary: no look certifies ε,
        // so BSRBK returns BSR's answer at the full budget.
        let g = random_graph(300, 600, 3);
        let cfg = VulnConfig::default().with_seed(3);
        let (bk, bsr) = (detect_bsrbk(&g, 5, &cfg), detect_bsr(&g, 5, &cfg));
        assert!(!bk.stats.early_stopped);
        assert_eq!(bk.stats.samples_used, bsr.stats.sample_budget);
        assert_eq!(bk.top_k, bsr.top_k);
    }

    #[test]
    fn uses_fewer_samples_than_bsr() {
        let g = random_graph(400, 800, 5);
        let cfg = VulnConfig::default().with_seed(5);
        let bsr = detect_bsr(&g, 10, &cfg);
        let bk = detect_bsrbk(&g, 10, &cfg);
        assert!(
            bk.stats.samples_used <= bsr.stats.samples_used,
            "bsrbk {} > bsr {}",
            bk.stats.samples_used,
            bsr.stats.samples_used
        );
    }

    #[test]
    fn falls_back_gracefully_on_tiny_budget() {
        // A budget below the first look: nothing to certify, so no early
        // stop, and still k nodes.
        let g = random_graph(100, 200, 7);
        let cfg = VulnConfig::default().with_seed(7).with_max_samples(5);
        let r = detect_bsrbk(&g, 3, &cfg);
        assert!(!r.stats.early_stopped);
        assert_eq!(r.top_k.len(), 3);
        assert_eq!(r.stats.samples_used, r.stats.sample_budget);
    }

    #[test]
    fn deterministic() {
        let g = random_graph(150, 300, 11);
        let cfg = VulnConfig::default().with_seed(11);
        assert_eq!(detect_bsrbk(&g, 3, &cfg).top_k, detect_bsrbk(&g, 3, &cfg).top_k);
    }

    #[test]
    fn returned_nodes_are_near_the_true_boundary() {
        // Every returned node's true probability should sit near or
        // above the true k-th value: the default ε = 0.3 contract, on a
        // crowded uniform boundary, with a tolerance of 0.15.
        let g = random_graph(300, 600, 13);
        let cfg = VulnConfig::default().with_seed(13);
        let k = 15;
        let truth = crate::exact::ground_truth(&g, 20_000, 999, 1);
        let r = detect_bsrbk(&g, k, &cfg);
        let p = crate::precision::precision_with_ties(&r.top_k, &truth, k, 0.15);
        assert!(p >= 0.8, "tolerant precision {p} too low");
    }

    #[test]
    fn high_precision_on_skewed_risks() {
        // Financial-style skew: BSRBK should match the true top-k almost
        // exactly, as in the paper's Figure 7.
        let g = skewed_graph(29);
        let truth = crate::exact::ground_truth(&g, 20_000, 777, 1);
        let k = 10;
        let r = detect_bsrbk(&g, k, &VulnConfig::default().with_seed(29));
        let p = crate::precision::precision_with_ties(&r.top_k, &truth, k, 0.02);
        assert!(p >= 0.7, "precision {p} too low on skewed risks");
    }

    #[test]
    fn verified_nodes_always_included() {
        let mut risks = vec![0.99];
        risks.extend(std::iter::repeat_n(0.2, 50));
        let edges: Vec<(u32, u32, f64)> = (1..=50).map(|v| (v as u32, 0u32, 0.1)).collect();
        let g = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
        let r = detect_bsrbk(&g, 3, &VulnConfig::default().with_seed(1));
        assert!(r.node_ids().contains(&NodeId(0)), "dominant node missing");
    }
}
