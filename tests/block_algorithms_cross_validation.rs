//! Cross-validation of the engine's five algorithms on the bit-parallel
//! world-block data path against scalar one-world-at-a-time references.
//!
//! The sampling-level bitwise proofs live in
//! `crates/sampling/tests/block_cross_validation.rs`; this suite covers
//! the layers above:
//!
//! * N / SN / SR / BSR / BSRBK answers route through `SamplePass`,
//!   so their estimates must equal a hand-rolled scalar-oracle run of
//!   the same sample prefixes and candidate sets (BSRBK's prefix ends
//!   at its stop look);
//! * every algorithm stays bit-identical across thread counts and
//!   budgets that are not multiples of 64 (served via partial lane
//!   masks).

use ugraph::testkit::{check, TestRng};
use vulnds::prelude::*;
use vulnds::sampling::PossibleWorld;

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    let n = rng.range_usize(20, 80);
    let m = rng.range_usize(n, 3 * n);
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64() * 0.5)
        })
        .collect();
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
}

/// N and SN top-k scores equal the scalar-oracle estimates of the same
/// forward budget — at thread counts on both sides of the machine's
/// parallelism and at non-64-multiple budgets.
#[test]
fn forward_algorithms_match_scalar_oracle_estimates() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        // A deliberately unaligned fixed budget for N.
        let t = rng.range_usize(65, 300) as u64 | 1;
        for threads in [1usize, 4] {
            let cfg = VulnConfig::default().with_seed(seed).with_threads(threads);
            let d = Detector::builder(&g).config(cfg).naive_samples(t).build().unwrap();
            let r = d.detect(&DetectRequest::new(3, AlgorithmKind::Naive)).unwrap();

            // Scalar oracle: estimate every node over the same worlds.
            let mut counts = vec![0u64; g.num_nodes()];
            for i in 0..t {
                let world = PossibleWorld::sample_indexed(&g, seed, i);
                for (c, d) in counts.iter_mut().zip(world.defaulted_nodes(&g)) {
                    *c += d as u64;
                }
            }
            for scored in &r.top_k {
                let expected = counts[scored.node.index()] as f64 / t as f64;
                assert_eq!(scored.score, expected, "threads {threads}, node {:?}", scored.node);
            }
        }
    });
}

/// SR, BSR and BSRBK scores over an explicit candidate hint equal the
/// scalar oracle projected onto that hint, over the samples each used.
#[test]
fn reverse_algorithms_match_scalar_oracle_estimates() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let hint: Vec<NodeId> = (0..10).map(NodeId).collect();
        for kind in [
            AlgorithmKind::SampleReverse,
            AlgorithmKind::BoundedSampleReverse,
            AlgorithmKind::BottomK,
        ] {
            let cfg = VulnConfig::default().with_seed(seed);
            let d = Detector::builder(&g).config(cfg).build().unwrap();
            let req = DetectRequest::new(2, kind).with_candidates(hint.clone());
            let r = d.detect(&req).unwrap();
            if r.stats.sample_budget == 0 {
                continue; // degenerate BSR plan: bounds decided everything
            }
            let t = r.stats.samples_used;
            let mut counts = vec![0u64; g.num_nodes()];
            for i in 0..t {
                let world = PossibleWorld::sample_indexed(&g, seed, i);
                for (c, d) in counts.iter_mut().zip(world.defaulted_nodes(&g)) {
                    *c += d as u64;
                }
            }
            // Sampled candidates carry exact oracle frequencies. The
            // first `stats.verified` entries are bound-verified nodes
            // with midpoint scores (skipped individually); every entry
            // after them must match the oracle bit for bit.
            for (rank, scored) in r.top_k.iter().enumerate() {
                if rank < r.stats.verified {
                    continue;
                }
                let freq = counts[scored.node.index()] as f64 / t as f64;
                assert_eq!(
                    scored.score, freq,
                    "{kind}: rank {rank} node {:?} scored {} vs oracle {freq}",
                    scored.node, scored.score
                );
            }
        }
    });
}

/// End to end: all five algorithms agree bitwise across thread counts on
/// warm and cold sessions (extends PR 1's determinism suite to the block
/// data path explicitly).
#[test]
fn five_algorithms_bit_identical_across_thread_counts() {
    check(6, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let k = rng.range_usize(1, 5);
        for kind in AlgorithmKind::ALL {
            let mut reference: Option<DetectResponse> = None;
            for threads in [1usize, 3, 16] {
                let d = Detector::builder(&g)
                    .config(VulnConfig::default().with_seed(seed))
                    .threads(threads)
                    .build()
                    .unwrap();
                let r = d.detect(&DetectRequest::new(k, kind)).unwrap();
                match &reference {
                    None => reference = Some(r),
                    Some(e) => {
                        assert_eq!(e.top_k, r.top_k, "{kind} threads {threads}");
                        assert_eq!(e.stats.samples_used, r.stats.samples_used, "{kind}");
                    }
                }
            }
        }
    });
}
