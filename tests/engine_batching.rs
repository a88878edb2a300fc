//! Acceptance tests for `Detector::detect_many`: a batch over one graph
//! must draw strictly fewer total samples than the same requests issued
//! as independent one-shot calls, while returning bit-identical answers.

use vulnds::prelude::*;

fn graph() -> UncertainGraph {
    Dataset::Interbank.generate(7)
}

fn cfg() -> VulnConfig {
    VulnConfig::default().with_seed(41)
}

/// Four requests on the same graph: multiple `k` plus a tightened-ε
/// what-if repeat — the session workload the engine exists for.
fn requests() -> Vec<DetectRequest> {
    vec![
        DetectRequest::new(5, AlgorithmKind::SampledNaive),
        DetectRequest::new(10, AlgorithmKind::SampledNaive),
        DetectRequest::new(5, AlgorithmKind::SampledNaive).with_epsilon(0.25),
        DetectRequest::new(12, AlgorithmKind::BoundedSampleReverse),
    ]
}

#[test]
fn batch_draws_strictly_fewer_samples_than_independent_calls() {
    let g = graph();

    let batch = Detector::builder(&g).config(cfg()).build().unwrap();
    let batched = batch.detect_many(&requests()).unwrap();

    let mut independent_drawn = 0u64;
    let mut independent_responses = Vec::new();
    for req in requests() {
        let solo = Detector::builder(&g).config(cfg()).build().unwrap();
        independent_responses.push(solo.detect(&req).unwrap());
        independent_drawn += solo.session_stats().samples_drawn;
    }

    // The three SN requests share one forward stream: the batch extends
    // one sampling pass to the largest budget instead of redrawing.
    let batch_drawn = batch.session_stats().samples_drawn;
    assert!(
        batch_drawn < independent_drawn,
        "batch drew {batch_drawn} samples, independent calls drew {independent_drawn}"
    );
    let reused: u64 = batched.iter().map(|r| r.engine.samples_reused).sum();
    assert!(reused > 0, "no request reported cache reuse");

    // Sharing must not change any answer.
    for (b, s) in batched.iter().zip(&independent_responses) {
        assert_eq!(b.top_k, s.top_k);
        assert_eq!(b.stats.samples_used, s.stats.samples_used);
    }
}

#[test]
fn batches_are_width_independent() {
    // The planner reads the session's thread count, so batches at
    // different counts run different superblock widths and must return
    // exactly the same answers — sharing sampled prefixes across
    // requests composes with superblock widths.
    let g = graph();
    let reference = Detector::builder(&g).config(cfg()).build().unwrap();
    let reference = reference.detect_many(&requests()).unwrap();
    let mut widths = std::collections::BTreeSet::new();
    for threads in [1, 2, 8] {
        let d = Detector::builder(&g).config(cfg().with_threads(threads)).build().unwrap();
        let responses = d.detect_many(&requests()).unwrap();
        for (p, r) in reference.iter().zip(&responses) {
            assert_eq!(p.top_k, r.top_k, "{threads} threads");
            assert_eq!(p.stats.samples_used, r.stats.samples_used, "{threads} threads");
            widths.insert(r.engine.block_words);
        }
    }
    assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");
}

#[test]
fn batch_responses_preserve_request_order() {
    let g = graph();
    let d = Detector::builder(&g).config(cfg()).build().unwrap();
    let reqs = requests();
    let responses = d.detect_many(&reqs).unwrap();
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        assert_eq!(resp.top_k.len(), req.k, "response out of order for {req:?}");
        assert_eq!(resp.stats.algorithm, req.algorithm, "response out of order for {req:?}");
    }
}

#[test]
fn bsr_and_bsrbk_in_one_batch_draw_their_stream_once() {
    // BSRBK reads a prefix of BSR's reverse stream, so a batch holding
    // both draws BSR's budget once, in either order, and answers each
    // exactly like a lone call.
    let g = graph();
    let bsr = DetectRequest::new(12, AlgorithmKind::BoundedSampleReverse).with_epsilon(0.1);
    let bsrbk = DetectRequest::new(12, AlgorithmKind::BottomK).with_epsilon(0.1);
    for batch in [vec![bsrbk.clone(), bsr.clone()], vec![bsr.clone(), bsrbk.clone()]] {
        let d = Detector::builder(&g).config(cfg()).build().unwrap();
        let responses = d.detect_many(&batch).unwrap();
        let budget = responses[0].stats.sample_budget;
        assert!(budget > 0, "degenerate plan: the bounds decided everything");
        assert_eq!(d.session_stats().samples_drawn, budget, "the stream was drawn twice");
        for (req, response) in batch.iter().zip(&responses) {
            let solo = Detector::builder(&g).config(cfg()).build().unwrap();
            let alone = solo.detect(req).unwrap();
            assert_eq!(response.top_k, alone.top_k, "{}", req.algorithm);
            assert_eq!(response.stats.samples_used, alone.stats.samples_used);
            assert_eq!(response.stats.sample_budget, budget, "one budget for the stream");
        }
    }
}
