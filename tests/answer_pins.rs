//! Answer pins: every algorithm's answer, in every answer mode, on a few
//! fixed graphs, folded into one 64-bit digest and checked against a
//! committed constant.
//!
//! The bit-identity suites elsewhere compare two runs of the same code
//! (warm against cold, one thread count against another), so a change
//! that moved every path the same way would pass them all. These pins
//! compare against answers recorded from an earlier build instead: a red
//! pin means the answers moved.
//!
//! A cell is `graph/mode/algorithm`. The modes are a full answer, a
//! `sample_cap`-degraded one, a loose-ε answer (where BSRBK stops early),
//! a bounds-only answer (a hint of exactly `k` nodes leaves BSR and
//! BSRBK nothing to sample), a candidate hint, and a full answer after
//! one `apply_delta` on the warm session.

use vulnds::prelude::*;

/// `(cell, digest)`, in the order [`cells`] produces them.
const PINS: &[(&str, u64)] = &[
    ("interbank/full/N", 0xa8ebe76443a94345),
    ("interbank/full/SN", 0xe74bc17db57aa8ff),
    ("interbank/full/SR", 0xa71a1c3b1c2fc8fa),
    ("interbank/full/BSR", 0xa71a1c3b1c2fc8fa),
    ("interbank/full/BSRBK", 0x8349ed2cdf526eea),
    ("interbank/capped/N", 0xf30f20d0230b5fa5),
    ("interbank/capped/SN", 0xfc91d9f466ec28cd),
    ("interbank/capped/SR", 0xe9e9fe97d22f5e91),
    ("interbank/capped/BSR", 0xe9e9fe97d22f5e91),
    ("interbank/capped/BSRBK", 0x2555caf6a9dc6c56),
    ("interbank/loose/N", 0xdfdddb0ac0d5ccc4),
    ("interbank/loose/SN", 0xd80a7c75a4bce5fb),
    ("interbank/loose/SR", 0xaf8a1cac39e89fb6),
    ("interbank/loose/BSR", 0xaf8a1cac39e89fb6),
    ("interbank/loose/BSRBK", 0x3dc55e3687505dd3),
    ("interbank/exact-hint/N", 0xa8ebe76443a94345),
    ("interbank/exact-hint/SN", 0xe74bc17db57aa8ff),
    ("interbank/exact-hint/SR", 0x4211d00b9d50b3ba),
    ("interbank/exact-hint/BSR", 0x7ea5a8329cf2140f),
    ("interbank/exact-hint/BSRBK", 0x7ea5a8329cf2140f),
    ("interbank/wide-hint/N", 0xa8ebe76443a94345),
    ("interbank/wide-hint/SN", 0xe74bc17db57aa8ff),
    ("interbank/wide-hint/SR", 0xb0920f23da047359),
    ("interbank/wide-hint/BSR", 0xb0920f23da047359),
    ("interbank/wide-hint/BSRBK", 0xe9c9ed3de04635e6),
    ("interbank/delta/N", 0x3b93417dce48fd5f),
    ("interbank/delta/SN", 0x57fe02045d7e6b57),
    ("interbank/delta/SR", 0x4fd3b2d86cb8af84),
    ("interbank/delta/BSR", 0x4fd3b2d86cb8af84),
    ("interbank/delta/BSRBK", 0xe7b0205c64ebee3b),
    ("guarantee/full/N", 0x659dc696db532e47),
    ("guarantee/full/SN", 0xdf26a2ca12483696),
    ("guarantee/full/SR", 0x9e4dce010d90432f),
    ("guarantee/full/BSR", 0xd7047e2a43518ef2),
    ("guarantee/full/BSRBK", 0xba8cf30ab99ac957),
    ("guarantee/capped/N", 0x71847b0abe06ddcc),
    ("guarantee/capped/SN", 0xfdce62641524ff4c),
    ("guarantee/capped/SR", 0xb37e7de1ac78b8ce),
    ("guarantee/capped/BSR", 0xd7047e2a43518ef2),
    ("guarantee/capped/BSRBK", 0xba8cf30ab99ac957),
    ("guarantee/loose/N", 0x13214d3bb89074f2),
    ("guarantee/loose/SN", 0x51a52e1862082260),
    ("guarantee/loose/SR", 0xe8deb198f661c134),
    ("guarantee/loose/BSR", 0xa430c30129cf15fc),
    ("guarantee/loose/BSRBK", 0x91c263ed4656be9a),
    ("guarantee/exact-hint/N", 0x659dc696db532e47),
    ("guarantee/exact-hint/SN", 0xdf26a2ca12483696),
    ("guarantee/exact-hint/SR", 0x56a704f62f150a80),
    ("guarantee/exact-hint/BSR", 0xe3da852d4874ab7a),
    ("guarantee/exact-hint/BSRBK", 0xdd325bb4b9aa4354),
    ("guarantee/wide-hint/N", 0x659dc696db532e47),
    ("guarantee/wide-hint/SN", 0xdf26a2ca12483696),
    ("guarantee/wide-hint/SR", 0x2ae90cd8b4adf705),
    ("guarantee/wide-hint/BSR", 0x88e817ed55448c9a),
    ("guarantee/wide-hint/BSRBK", 0x6ad394cd6b29330d),
    ("guarantee/delta/N", 0xc614acc9d009087c),
    ("guarantee/delta/SN", 0x9a6184d53468b064),
    ("guarantee/delta/SR", 0x70482374302c1e5b),
    ("guarantee/delta/BSR", 0x5949cc37694fa746),
    ("guarantee/delta/BSRBK", 0xbbbdd2464c4361a4),
    ("random/full/N", 0x5ca70c8c657c2d22),
    ("random/full/SN", 0xa20f27166406e2d0),
    ("random/full/SR", 0x6edc622af365016d),
    ("random/full/BSR", 0x6edc622af365016d),
    ("random/full/BSRBK", 0xd835fc26c4a9a61a),
    ("random/capped/N", 0xf5ab7e70c825348d),
    ("random/capped/SN", 0x77698de99f0b4c82),
    ("random/capped/SR", 0xcb480ae7a03e8290),
    ("random/capped/BSR", 0xcb480ae7a03e8290),
    ("random/capped/BSRBK", 0x5f6f32846aaf3a30),
    ("random/loose/N", 0x2449cb1c3f43a6f7),
    ("random/loose/SN", 0xd178ec68f06626a7),
    ("random/loose/SR", 0xa50a58ba8f4fda77),
    ("random/loose/BSR", 0xa50a58ba8f4fda77),
    ("random/loose/BSRBK", 0x8c8f07aced908aa5),
    ("random/exact-hint/N", 0x5ca70c8c657c2d22),
    ("random/exact-hint/SN", 0xa20f27166406e2d0),
    ("random/exact-hint/SR", 0xc65eb83f7d968001),
    ("random/exact-hint/BSR", 0x37d943294031960f),
    ("random/exact-hint/BSRBK", 0x37d943294031960f),
    ("random/wide-hint/N", 0x5ca70c8c657c2d22),
    ("random/wide-hint/SN", 0xa20f27166406e2d0),
    ("random/wide-hint/SR", 0xbd496c56165eb8f8),
    ("random/wide-hint/BSR", 0xbd496c56165eb8f8),
    ("random/wide-hint/BSRBK", 0x177be11c9c71c762),
    ("random/delta/N", 0x9dbae503ede48756),
    ("random/delta/SN", 0x0ad3a468337d6e3b),
    ("random/delta/SR", 0x071b45abac3f4b5c),
    ("random/delta/BSR", 0x071b45abac3f4b5c),
    ("random/delta/BSRBK", 0xe9fa5f1552b04f23),
    ("separated/full/N", 0x458bac0135971264),
    ("separated/full/SN", 0x61af17844c7daf2a),
    ("separated/full/SR", 0xb74345864acbdd08),
    ("separated/full/BSR", 0xabb272b18eeba1a1),
    ("separated/full/BSRBK", 0xabb272b18eeba1a1),
    ("separated/capped/N", 0x5c5faf84c9d159c2),
    ("separated/capped/SN", 0x61af17844c7daf2a),
    ("separated/capped/SR", 0xb74345864acbdd08),
    ("separated/capped/BSR", 0xabb272b18eeba1a1),
    ("separated/capped/BSRBK", 0xabb272b18eeba1a1),
    ("separated/loose/N", 0xa33fdc5cefcabce5),
    ("separated/loose/SN", 0x9db4218c02c53315),
    ("separated/loose/SR", 0x277127abc178f3a9),
    ("separated/loose/BSR", 0x0174e9642d098020),
    ("separated/loose/BSRBK", 0x0174e9642d098020),
    ("separated/exact-hint/N", 0x458bac0135971264),
    ("separated/exact-hint/SN", 0x61af17844c7daf2a),
    ("separated/exact-hint/SR", 0xb74345864acbdd08),
    ("separated/exact-hint/BSR", 0xabb272b18eeba1a1),
    ("separated/exact-hint/BSRBK", 0xabb272b18eeba1a1),
    ("separated/wide-hint/N", 0x458bac0135971264),
    ("separated/wide-hint/SN", 0x61af17844c7daf2a),
    ("separated/wide-hint/SR", 0xacde8b19b8d8300e),
    ("separated/wide-hint/BSR", 0x9e39915530038e00),
    ("separated/wide-hint/BSRBK", 0x9e39915530038e00),
    ("separated/delta/N", 0x4af54795569c37fa),
    ("separated/delta/SN", 0x248ddddc8021e8d4),
    ("separated/delta/SR", 0xb74345864acbdd08),
    ("separated/delta/BSR", 0x44e57afa86384569),
    ("separated/delta/BSRBK", 0x44e57afa86384569),
];

/// FNV-1a over the little-endian bytes of each word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Folds every answer field the pins cover into one digest.
fn digest(r: &DetectResponse) -> u64 {
    let mut d = Digest::new();
    d.word(r.top_k.len() as u64);
    for s in &r.top_k {
        d.word(u64::from(s.node.0));
        d.word(s.score.to_bits());
    }
    d.word(r.stats.sample_budget);
    d.word(r.stats.samples_used);
    d.word(r.stats.candidates as u64);
    d.word(r.stats.verified as u64);
    d.word(u64::from(r.stats.early_stopped));
    d.word(u64::from(r.degraded));
    d.word(r.achieved_epsilon.to_bits());
    d.0
}

/// A seeded random graph: uniform-ish risks, sparse random edges.
fn random_graph(n: usize, m: usize, seed: u64) -> UncertainGraph {
    let mut rng = Xoshiro256pp::new(seed);
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.4).collect();
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64() * 0.5)
        })
        .collect();
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
}

/// Well-separated risks over two faint edges: the bounds alone decide
/// the top 2, so BSR and BSRBK answer without sampling.
fn separated_graph() -> UncertainGraph {
    let risks = [0.9, 0.8, 0.1, 0.05, 0.02, 0.01];
    from_parts(&risks, &[(2, 3, 0.01), (4, 5, 0.01)], DuplicateEdgePolicy::Error).unwrap()
}

/// The pinned graphs, with the `k` each is asked for.
fn graphs() -> Vec<(&'static str, UncertainGraph, usize)> {
    vec![
        ("interbank", Dataset::Interbank.generate_scaled(7, 1.0), 6),
        ("guarantee", Dataset::Guarantee.generate_scaled(7, 0.02), 12),
        ("random", random_graph(200, 500, 7), 5),
        ("separated", separated_graph(), 2),
    ]
}

/// One answer per cell, in pin order.
fn cells() -> Vec<(String, DetectResponse)> {
    let mut out = Vec::new();
    for (name, graph, k) in graphs() {
        let detector = Detector::builder(&graph)
            .config(VulnConfig::default().with_seed(11))
            .threads(2)
            .build()
            .unwrap();
        let n = graph.num_nodes() as u32;
        let exact_hint: Vec<NodeId> = (0..k as u32).map(|i| NodeId(i * 7 % n)).collect();
        let wide_hint: Vec<NodeId> = (0..n).filter(|i| i % 3 == 0).map(NodeId).collect();
        for mode in ["full", "capped", "loose", "exact-hint", "wide-hint"] {
            for kind in AlgorithmKind::ALL {
                let req = DetectRequest::new(k, kind);
                let req = match mode {
                    "capped" => req.with_sample_cap(100),
                    "loose" => req.with_epsilon(0.5),
                    "exact-hint" => req.with_candidates(exact_hint.clone()),
                    "wide-hint" => req.with_candidates(wide_hint.clone()),
                    _ => req,
                };
                let r = detector.detect(&req).unwrap();
                out.push((format!("{name}/{mode}/{}", kind.label()), r));
            }
        }
        let top = detector.detect(&DetectRequest::new(k, AlgorithmKind::SampledNaive)).unwrap();
        let hot = top.top_k[0].node;
        let delta = GraphDelta::new()
            .set_self_risk(hot, (graph.self_risk(hot) * 0.5).min(1.0))
            .set_edge_prob(EdgeId(0), 0.9);
        detector.apply_delta(&delta).unwrap();
        for kind in AlgorithmKind::ALL {
            let r = detector.detect(&DetectRequest::new(k, kind)).unwrap();
            out.push((format!("{name}/delta/{}", kind.label()), r));
        }
    }
    out
}

#[test]
fn answers_match_their_pins() {
    let answers = cells();
    let got: Vec<(String, u64)> = answers.iter().map(|(c, r)| (c.clone(), digest(r))).collect();
    let table: String =
        got.iter().map(|(cell, d)| format!("    (\"{cell}\", 0x{d:016x}),\n")).collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    let moved: Vec<&str> =
        got.iter().zip(&want).filter(|(g, w)| g != w).map(|(g, _)| g.0.as_str()).collect();
    assert!(
        got.len() == want.len() && moved.is_empty(),
        "answers moved in {} of {} cells: {moved:?}\ncurrent digests:\n{table}",
        moved.len() + got.len().abs_diff(want.len()),
        got.len(),
    );
}

/// The pins are only as good as the modes they reach: at least one cell
/// must land in each answer mode the module doc names.
#[test]
fn pins_reach_every_answer_mode() {
    let answers = cells();
    let any = |f: &dyn Fn(&str, &DetectResponse) -> bool| answers.iter().any(|(c, r)| f(c, r));
    assert!(any(&|_, r| r.degraded), "no degraded cell");
    assert!(any(&|_, r| r.stats.early_stopped), "no BSRBK early stop");
    assert!(
        any(&|c, r| c.ends_with("/BSRBK") && !r.stats.early_stopped && r.stats.samples_used > 0),
        "no BSRBK cell that samples without stopping"
    );
    assert!(any(&|c, r| c.ends_with("/BSR") && r.stats.sample_budget == 0), "no bounds-only cell");
    assert!(
        any(&|c, r| c.ends_with("/full/BSR") && r.stats.sample_budget == 0),
        "no cell the bounds decide without a hint"
    );
    assert!(any(&|_, r| r.stats.verified > 0), "no cell with verified nodes");
}
