//! End-to-end pipeline tests: dataset generation → detection → metrics,
//! exercising the engine API the way the bench harness does.

use vulnds::core::{ground_truth, precision_with_ties, PAPER_GROUND_TRUTH_SAMPLES};
use vulnds::prelude::*;

fn small(ds: Dataset) -> UncertainGraph {
    ds.generate_scaled(7, 0.05)
}

/// One-shot query through a fresh session.
fn detect_once(
    g: &UncertainGraph,
    k: usize,
    alg: AlgorithmKind,
    cfg: &VulnConfig,
) -> DetectResponse {
    let d = Detector::builder(g).config(cfg.clone()).build().unwrap();
    d.detect(&DetectRequest::new(k, alg)).unwrap()
}

#[test]
fn full_pipeline_on_interbank() {
    let g = Dataset::Interbank.generate(7);
    let truth = ground_truth(&g, PAPER_GROUND_TRUTH_SAMPLES, 99, 2);
    let k = (g.num_nodes() / 10).max(1);
    // One session answers all five algorithms.
    let d = Detector::builder(&g).config(VulnConfig::default().with_seed(5)).build().unwrap();
    for alg in AlgorithmKind::ALL {
        let r = d.detect(&DetectRequest::new(k, alg)).unwrap();
        assert_eq!(r.top_k.len(), k, "{alg}");
        let p = precision_with_ties(&r.top_k, &truth, k, 0.05);
        assert!(p >= 0.5, "{alg}: precision {p}");
        // Scores sorted descending (verified-first ordering may locally
        // reorder, but within the estimated tail it must be sorted).
        let est = &r.top_k[r.stats.verified..];
        for w in est.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12, "{alg}: unsorted estimates");
        }
    }
}

#[test]
fn sample_budgets_shrink_down_the_algorithm_ladder() {
    let g = small(Dataset::Citation);
    let k = (g.num_nodes() / 20).max(2);
    let cfg = VulnConfig::default().with_seed(11);
    let n = detect_once(&g, k, AlgorithmKind::Naive, &cfg);
    let sn = detect_once(&g, k, AlgorithmKind::SampledNaive, &cfg);
    let bsr = detect_once(&g, k, AlgorithmKind::BoundedSampleReverse, &cfg);
    let bk = detect_once(&g, k, AlgorithmKind::BottomK, &cfg);
    assert!(sn.stats.samples_used < n.stats.samples_used);
    assert!(bsr.stats.sample_budget <= sn.stats.sample_budget);
    assert!(bk.stats.samples_used <= bsr.stats.samples_used);
}

#[test]
fn pruning_is_effective_on_financial_shapes() {
    // Skewed financial probabilities give informative bounds: the
    // candidate set must be far below n.
    let g = small(Dataset::Guarantee);
    let k = (g.num_nodes() / 20).max(2);
    let r = detect_once(&g, k, AlgorithmKind::BoundedSampleReverse, &VulnConfig::default());
    assert!(
        (r.stats.candidates as f64) < 0.8 * g.num_nodes() as f64,
        "candidates {} of n {}",
        r.stats.candidates,
        g.num_nodes()
    );
}

#[test]
fn threads_do_not_change_results() {
    let g = small(Dataset::Bitcoin);
    let k = 5;
    for alg in [
        AlgorithmKind::Naive,
        AlgorithmKind::SampledNaive,
        AlgorithmKind::SampleReverse,
        AlgorithmKind::BoundedSampleReverse,
    ] {
        let seq = detect_once(&g, k, alg, &VulnConfig::default().with_seed(3).with_threads(1));
        let par = detect_once(&g, k, alg, &VulnConfig::default().with_seed(3).with_threads(4));
        assert_eq!(seq.top_k, par.top_k, "{alg}");
    }
}

#[test]
fn detection_is_reproducible_across_sessions() {
    let g = small(Dataset::Wiki);
    let cfg = VulnConfig::default().with_seed(21);
    for alg in AlgorithmKind::ALL {
        let a = detect_once(&g, 10, alg, &cfg);
        let b = detect_once(&g, 10, alg, &cfg);
        assert_eq!(a.top_k, b.top_k, "{alg}");
        assert_eq!(a.stats.samples_used, b.stats.samples_used, "{alg}");
    }
}

#[test]
fn every_superblock_width_matches_the_planned_engine() {
    // Width changes throughput, never answers: the planner reads the
    // session's thread count, so sessions at different counts run
    // different superblock widths and must answer bit-identically, for
    // every algorithm.
    let g = small(Dataset::Citation);
    let cfg = VulnConfig::default().with_seed(13);
    let mut widths = std::collections::BTreeSet::new();
    for alg in AlgorithmKind::ALL {
        let reference = detect_once(&g, 5, alg, &cfg);
        for threads in [1, 2, 8] {
            let r = detect_once(&g, 5, alg, &cfg.clone().with_threads(threads));
            assert_eq!(r.top_k, reference.top_k, "{alg} at {threads} threads");
            assert_eq!(r.stats.samples_used, reference.stats.samples_used, "{alg}, {threads}");
            widths.insert(r.engine.block_words);
        }
    }
    assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");
}

#[test]
fn graph_io_roundtrip_preserves_detection() {
    let g = small(Dataset::Citation);
    let mut buf = Vec::new();
    ugraph::io::write_graph(&g, &mut buf).unwrap();
    let g2 = ugraph::io::read_graph(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(g, g2);
    let cfg = VulnConfig::default().with_seed(9);
    let a = detect_once(&g, 5, AlgorithmKind::BottomK, &cfg);
    let b = detect_once(&g2, 5, AlgorithmKind::BottomK, &cfg);
    assert_eq!(a.top_k, b.top_k);
}

#[test]
fn baselines_integrate_with_generated_datasets() {
    use vulnds::baselines::{betweenness, core_numbers, pagerank, roc_auc, PageRankParams};
    let g = small(Dataset::Fraud);
    let n = g.num_nodes();
    assert_eq!(betweenness(&g).len(), n);
    assert_eq!(core_numbers(&g).len(), n);
    let pr = pagerank(&g, PageRankParams::default());
    assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    // AUC of self-risk as a predictor of true vulnerability ranking: the
    // pieces glue together without panicking and give a sane value.
    let truth = ground_truth(&g, 2_000, 5, 2);
    let labels: Vec<bool> = {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_unstable_by(|&a, &b| truth[b].partial_cmp(&truth[a]).unwrap());
        let mut l = vec![false; n];
        for &i in idx.iter().take(n / 10) {
            l[i] = true;
        }
        l
    };
    let risks: Vec<f64> = g.nodes().map(|v| g.self_risk(v)).collect();
    let auc = roc_auc(&risks, &labels).unwrap();
    assert!(auc > 0.5, "self-risk should be predictive: {auc}");
}
