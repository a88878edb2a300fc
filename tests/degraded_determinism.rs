//! Property tests for the degraded-answer determinism contract: a
//! sampling pass cut short (deadline, token, or explicit `sample_cap`)
//! returns a block-aligned sample prefix, and replaying the request with
//! the reported `samples_used` as its cap reproduces that answer
//! **bit-identically** — across thread counts and the superblock widths
//! the planner picks for them, warm or cold. Uses the in-repo
//! deterministic test kit (the workspace builds offline with no external
//! dependencies).

use ugraph::testkit::{check, TestRng};
use vulnds::prelude::*;

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

fn session(g: &UncertainGraph, threads: usize) -> Detector {
    Detector::builder(g)
        .config(VulnConfig::default().with_seed(77))
        .threads(threads)
        .build()
        .unwrap()
}

/// A capped (degraded) answer is bit-identical across thread counts and
/// the superblock widths the planner picks for them — the same
/// invariance the full-budget answers already guarantee.
#[test]
fn degraded_answers_identical_across_widths_and_threads() {
    let mut widths = std::collections::BTreeSet::new();
    check(8, |rng| {
        let g = arb_graph(rng);
        // The sampling algorithms; BSRBK exercises the adaptive lane
        // replay, the others the stream cache.
        let kinds = [
            AlgorithmKind::SampledNaive,
            AlgorithmKind::SampleReverse,
            AlgorithmKind::BoundedSampleReverse,
            AlgorithmKind::BottomK,
        ];
        let kind = kinds[rng.range_usize(0, kinds.len() - 1)];
        let k = rng.range_usize(1, (g.num_nodes() / 4).max(2));
        // ε 0.05 makes budgets large enough that the caps below span
        // several planned widths.
        let plain = DetectRequest::new(k, kind).with_epsilon(0.05);
        let full = session(&g, 1).detect(&plain).unwrap();
        if full.stats.samples_used < 2 {
            return; // degenerate plan: bounds resolved everything
        }
        let cap = 1 + rng.next_bounded(full.stats.samples_used - 1);
        let req = plain.with_sample_cap(cap);

        let reference = session(&g, 1).detect(&req).unwrap();
        assert!(reference.degraded, "{kind}: cap {cap} below budget must degrade");
        assert_eq!(reference.stats.samples_used, cap, "{kind}");
        assert!(
            reference.achieved_epsilon.is_finite() && reference.achieved_epsilon > 0.0,
            "{kind}: achieved ε must be a finite widened bound"
        );

        for threads in [1usize, 2, 8] {
            let r = session(&g, threads).detect(&req).unwrap();
            assert_eq!(
                r.top_k, reference.top_k,
                "{kind}: degraded answer changed at threads={threads} width={}",
                r.engine.block_words
            );
            assert_eq!(r.stats.samples_used, cap, "{kind}: cap not exact");
            assert_eq!(r.achieved_epsilon, reference.achieved_epsilon, "{kind}");
            widths.insert(r.engine.block_words);
        }
    });
    assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");
}

/// A warm cache never changes a degraded answer: serving the capped
/// prefix from cached worlds is bit-identical to drawing it cold.
#[test]
fn degraded_answers_survive_warm_caches() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let k = rng.range_usize(1, (g.num_nodes() / 4).max(2));
        let kind =
            [AlgorithmKind::SampledNaive, AlgorithmKind::SampleReverse][rng.range_usize(0, 1)];
        let warm = session(&g, 2);
        let full = warm.detect(&DetectRequest::new(k, kind)).unwrap();
        if full.stats.samples_used < 2 {
            return;
        }
        let cap = 1 + rng.next_bounded(full.stats.samples_used - 1);
        let req = DetectRequest::new(k, kind).with_sample_cap(cap);
        let cold = session(&g, 2).detect(&req).unwrap();
        let from_cache = warm.detect(&req).unwrap();
        assert_eq!(from_cache.top_k, cold.top_k, "{kind}: warm prefix differs from cold");
        assert_eq!(from_cache.stats.samples_used, cap);
        // The warm replay may redraw below the cached snapshots'
        // alignment, but never more than the cap itself.
        assert!(from_cache.engine.samples_drawn <= cap, "{kind}: warm replay overdrew");
    });
}

/// Mid-run external cancellation yields a degraded answer whose
/// `samples_used` replays bit-identically — or, if the cut lands before
/// any sample, a clean `Cancelled` error. Either way nothing hangs and
/// the session stays usable.
#[test]
fn mid_run_cancellation_replays_bit_identically() {
    let mut rng = TestRng::new(0xDECADE);
    let g = arb_graph(&mut rng);
    let token = CancelToken::new();
    let d = session(&g, 3);
    // Tight ε so the budget is large enough for the canceller to land
    // mid-pass at least sometimes; all outcomes are asserted valid.
    let req = DetectRequest::new(3, AlgorithmKind::SampledNaive)
        .with_epsilon(0.02)
        .with_cancel(token.clone());
    let outcome = std::thread::scope(|s| {
        let canceller = {
            let token = token.clone();
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                token.cancel();
            })
        };
        let outcome = d.detect(&req);
        canceller.join().unwrap();
        outcome
    });
    match outcome {
        Err(VulnError::Cancelled) => {
            assert_eq!(d.session_stats().queries_cancelled, 1);
        }
        Ok(r) => {
            if r.degraded {
                assert!(r.stats.samples_used < r.stats.sample_budget);
                assert!(r.achieved_epsilon > 0.02);
                let replay = session(&g, 1)
                    .detect(
                        &DetectRequest::new(3, AlgorithmKind::SampledNaive)
                            .with_epsilon(0.02)
                            .with_sample_cap(r.stats.samples_used),
                    )
                    .unwrap();
                assert_eq!(replay.top_k, r.top_k, "degraded answer failed to replay");
                assert_eq!(d.session_stats().queries_degraded, 1);
            } else {
                assert_eq!(r.stats.samples_used, r.stats.sample_budget);
            }
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
    // The session is not poisoned: a fresh query still answers.
    let after = d.detect(&DetectRequest::new(3, AlgorithmKind::SampledNaive)).unwrap();
    assert!(!after.degraded);
}

/// An already-expired deadline cancels before any fresh sampling; a
/// generous one never degrades. `timeout_ms: 0` resolves to an expired
/// deadline by construction.
#[test]
fn deadline_edges_behave() {
    let mut rng = TestRng::new(0xFEED);
    let g = arb_graph(&mut rng);
    let cold = session(&g, 2);
    let expired = DetectRequest::new(2, AlgorithmKind::SampledNaive).with_timeout_ms(0);
    assert!(
        matches!(cold.detect(&expired), Err(VulnError::Cancelled)),
        "expired deadline on a cold session must cancel"
    );
    // A huge timeout must neither overflow nor degrade.
    let generous = DetectRequest::new(2, AlgorithmKind::SampledNaive).with_timeout_ms(u64::MAX);
    let r = cold.detect(&generous).unwrap();
    assert!(!r.degraded);
    // With the worlds already cached, even an expired deadline serves
    // the full cached answer: cancellation only gates fresh sampling.
    let warm_full = cold.detect(&expired).unwrap();
    assert_eq!(warm_full.top_k, r.top_k);
    assert!(!warm_full.degraded);
}

/// A BSRBK early stop is not degraded (no budget was cut), and its
/// sequential stop certifies the requested ε at the look it stops at:
/// the answer reports that ε, and it is the ranking of the reverse
/// counts at that look — BSR's answer capped there.
#[test]
fn bsrbk_early_stop_reports_the_epsilon_its_samples_deliver() {
    let g = Dataset::Guarantee.generate_scaled(3, 0.1);
    let k = (g.num_nodes() / 50).max(1);
    let (epsilon, delta) = (0.1, 0.1);
    let request = DetectRequest::new(k, AlgorithmKind::BottomK).with_epsilon(epsilon);
    let r = session(&g, 1).detect(&request.with_delta(delta)).unwrap();
    assert!(r.stats.early_stopped, "BSRBK must stop early on Guarantee: {:?}", r.stats);
    assert!(!r.degraded, "an early stop is not degradation");
    assert_eq!(r.achieved_epsilon, epsilon, "a certified stop delivers the requested ε");
    let used = r.stats.samples_used;
    assert!(used < r.stats.sample_budget && used % 64 == 0 && (used / 64).is_power_of_two());
    let capped_bsr = DetectRequest::new(k, AlgorithmKind::BoundedSampleReverse)
        .with_epsilon(epsilon)
        .with_delta(delta)
        .with_sample_cap(used);
    let bsr = session(&g, 1).detect(&capped_bsr).unwrap();
    assert_eq!(bsr.stats.sample_budget, r.stats.sample_budget, "BSRBK's cap is BSR's budget");
    assert_eq!(r.top_k, bsr.top_k, "the stop look's ranking is BSR's at that prefix");
}
