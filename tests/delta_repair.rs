//! Delta-scoped stream repair: a probability update can only change the
//! counts of nodes downstream of it, so a cached stream the update
//! reaches is repaired by recounting just those nodes — and stays
//! bit-identical to a cold session on the updated graph. Past the reach
//! cap the stream is dropped and redrawn, as before repair existed.

use vulnds::prelude::*;

/// `(node, score bits)` per answer entry plus the samples used: the
/// fields a bit-identity check compares.
fn fingerprint(response: &DetectResponse) -> (Vec<(u32, u64)>, u64) {
    let top = response.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect();
    (top, response.stats.samples_used)
}

fn session(graph: &UncertainGraph) -> Detector {
    Detector::builder(graph).seed(21).threads(2).build().unwrap()
}

/// One seeded update of the benchmark's shape: two self-risks and three
/// edge probabilities.
fn random_delta(rng: &mut Xoshiro256pp, graph: &UncertainGraph) -> GraphDelta {
    let probability = |rng: &mut Xoshiro256pp| 0.05 + 0.45 * rng.next_f64();
    let mut delta = GraphDelta::new();
    for _ in 0..2 {
        let v = rng.next_bounded(graph.num_nodes() as u64) as u32;
        delta = delta.set_self_risk(NodeId(v), probability(rng));
    }
    for _ in 0..3 {
        let e = rng.next_bounded(graph.num_edges() as u64) as u32;
        delta = delta.set_edge_prob(EdgeId(e), probability(rng));
    }
    delta
}

#[test]
fn repaired_streams_match_a_cold_session_after_every_delta() {
    let graph = Dataset::Guarantee.generate_scaled(3, 0.1);
    let n = graph.num_nodes();
    let k = n / 100;
    // SN ranks every node but one, so its answer shows every count. SR
    // with every node as its candidate hint does the same for a reverse
    // stream, and the hint pins the stream's key across deltas (the
    // bound-derived candidate sets of plain SR and BSR may move).
    let sn = |epsilon| DetectRequest::new(n - 1, AlgorithmKind::SampledNaive).with_epsilon(epsilon);
    let every_node = DetectRequest::new(n - 1, AlgorithmKind::SampleReverse)
        .with_epsilon(0.2)
        .with_candidates(graph.nodes().collect());
    let requests = [
        sn(0.2),
        sn(0.1),
        every_node,
        DetectRequest::new(k, AlgorithmKind::SampleReverse),
        DetectRequest::new(k, AlgorithmKind::BoundedSampleReverse),
    ];
    let warm = session(&graph);
    for request in &requests {
        assert!(warm.detect(request).unwrap().stats.samples_used > 0, "{request:?} must sample");
    }

    let mut replayed = graph.clone();
    let mut rng = Xoshiro256pp::new(0xDE17A);
    for step in 0..5 {
        let delta = random_delta(&mut rng, &replayed);
        let outcome = warm.apply_delta(&delta).unwrap();
        assert!(outcome.repaired >= 2, "delta {step}: both pinned streams must be repaired");
        delta.apply(&mut replayed).unwrap();

        let cold = session(&replayed);
        for request in &requests {
            let (w, c) = (warm.detect(request).unwrap(), cold.detect(request).unwrap());
            assert_eq!(fingerprint(&w), fingerprint(&c), "delta {step}: {request:?}");
            if request.k == n - 1 {
                assert_eq!(w.engine.samples_drawn, 0, "delta {step}: {request:?} must not redraw");
            }
        }
    }
    let stats = warm.session_stats();
    assert!(stats.caches_repaired >= 10, "repaired only {}", stats.caches_repaired);
}

#[test]
fn a_delta_past_the_reach_cap_drops_and_redraws() {
    // A directed cycle: every node lies downstream of every other, so
    // any delta's downstream set is the whole graph.
    let n = 40u32;
    let risks = vec![0.1; n as usize];
    let edges: Vec<(u32, u32, f64)> = (0..n).map(|v| (v, (v + 1) % n, 0.4)).collect();
    let graph = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
    let request = DetectRequest::new(2, AlgorithmKind::SampledNaive).with_epsilon(0.2);

    let warm = session(&graph);
    warm.detect(&request).unwrap();
    let delta = GraphDelta::new().set_self_risk(NodeId(5), 0.6);
    let outcome = warm.apply_delta(&delta).unwrap();
    assert_eq!(outcome.repaired, 0);
    assert!(outcome.invalidated >= 1, "the SN stream must be dropped");

    let mut replayed = graph.clone();
    delta.apply(&mut replayed).unwrap();
    let (w, c) = (warm.detect(&request).unwrap(), session(&replayed).detect(&request).unwrap());
    assert_eq!(fingerprint(&w), fingerprint(&c));
    assert_eq!(w.engine.samples_drawn, w.stats.samples_used, "a dropped stream redraws in full");
}
