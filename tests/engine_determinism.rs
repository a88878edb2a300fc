//! Randomized property tests for the `Detector` engine's determinism
//! contract: results are bit-identical across thread counts and across
//! warm vs cold caches, on arbitrary graphs. Uses the in-repo
//! deterministic test kit (the workspace builds offline with no external
//! dependencies).

use ugraph::testkit::{check, TestRng};
use vulnds::prelude::*;

/// A random graph big enough that bounds do not resolve everything and
/// sampling genuinely runs.
fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    let n = rng.range_usize(30, 120);
    let m = rng.range_usize(n, 3 * n);
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.6).collect();
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64() * 0.6)
        })
        .collect();
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
}

fn arb_request(rng: &mut TestRng, n: usize) -> DetectRequest {
    let k = rng.range_usize(1, (n / 4).max(1));
    let alg = AlgorithmKind::ALL[rng.range_usize(0, 4)];
    DetectRequest::new(k, alg)
}

/// Detector results are bit-identical across thread counts: same top-k,
/// same scores, same sample accounting.
#[test]
fn results_identical_across_thread_counts() {
    check(12, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let req = arb_request(rng, g.num_nodes());
        let mut reference: Option<DetectResponse> = None;
        for threads in [1usize, 2, 5, 8] {
            let d = Detector::builder(&g)
                .config(VulnConfig::default().with_seed(seed))
                .threads(threads)
                .build()
                .unwrap();
            let r = d.detect(&req).unwrap();
            match &reference {
                None => reference = Some(r),
                Some(e) => {
                    assert_eq!(e.top_k, r.top_k, "threads = {threads}, req = {req:?}");
                    assert_eq!(
                        e.stats.samples_used, r.stats.samples_used,
                        "threads = {threads}, req = {req:?}"
                    );
                    assert_eq!(
                        e.engine.samples_drawn, r.engine.samples_drawn,
                        "threads = {threads}, req = {req:?}"
                    );
                }
            }
        }
    });
}

/// A warm cache serves exactly what a cold run computes: replaying a
/// random request sequence on one session matches fresh sessions
/// answering each request alone.
#[test]
fn warm_cache_matches_cold_cache() {
    check(10, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let cfg = VulnConfig::default().with_seed(seed);
        let requests: Vec<DetectRequest> =
            (0..5).map(|_| arb_request(rng, g.num_nodes())).collect();

        let warm = Detector::builder(&g).config(cfg.clone()).build().unwrap();
        for req in &requests {
            let warm_resp = warm.detect(req).unwrap();
            let cold = Detector::builder(&g).config(cfg.clone()).build().unwrap();
            let cold_resp = cold.detect(req).unwrap();
            assert_eq!(warm_resp.top_k, cold_resp.top_k, "warm differs from cold for {req:?}");
            assert_eq!(
                warm_resp.stats.samples_used, cold_resp.stats.samples_used,
                "sample accounting differs for {req:?}"
            );
        }
    });
}

/// Regression for coin-table invalidation: `set_edge_prob` /
/// `set_self_risk` bump the graph's probability version, so a session
/// on the updated graph must quantize its new thresholds instead of
/// serving stale ones. The graph is rigged so the stale answer would be
/// deterministically wrong.
#[test]
fn coin_table_invalidated_by_probability_updates() {
    // ps(0) = 1, dead edge 0 → 1: node 1 can never default.
    let mut g = from_parts(&[1.0, 0.0], &[(0, 1, 0.0)], DuplicateEdgePolicy::Error).unwrap();
    let v0 = g.version();
    let req = DetectRequest::new(2, AlgorithmKind::SampledNaive);
    let cfg = VulnConfig::default().with_seed(5);
    let score_of = |r: &DetectResponse| {
        r.top_k.iter().find(|s| s.node == NodeId(1)).expect("k = n includes node 1").score
    };

    let first = {
        let d = Detector::builder(&g).config(cfg.clone()).build().unwrap();
        score_of(&d.detect(&req).unwrap())
    };
    assert_eq!(first, 0.0, "dead edge must never transmit");

    g.set_edge_prob(EdgeId(0), 1.0).unwrap();
    assert_ne!(g.version(), v0, "probability updates must bump the graph version");

    let second = {
        let d = Detector::builder(&g).config(cfg).build().unwrap();
        score_of(&d.detect(&req).unwrap())
    };
    assert_eq!(second, 1.0, "stale coin thresholds served after set_edge_prob");
}

/// Repeating the same request on a warm session is a pure cache hit for
/// the non-adaptive algorithms: identical answer, zero fresh samples.
#[test]
fn repeat_requests_are_pure_cache_hits() {
    check(10, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let d =
            Detector::builder(&g).config(VulnConfig::default().with_seed(seed)).build().unwrap();
        let req = arb_request(rng, g.num_nodes());
        let first = d.detect(&req).unwrap();
        let second = d.detect(&req).unwrap();
        assert_eq!(first.top_k, second.top_k, "{req:?}");
        if req.algorithm != AlgorithmKind::BottomK {
            assert_eq!(second.engine.samples_drawn, 0, "{req:?} redrew on a warm cache");
        }
    });
}
