//! Incremental bound maintenance under probability updates.
//!
//! A deployed risk system (paper §5: "we detect all loans monthly")
//! recalibrates probabilities far more often than topology changes. A
//! self-risk or edge-probability update only affects nodes reachable
//! within `z` hops downstream of the change, so the order-`z` bounds of
//! Algorithms 2–3 can be repaired locally instead of recomputed from
//! scratch — `O(|affected z-ball| · z)` instead of `O(z (n + m))`.
//!
//! Design: `BoundLevels` keeps every *level* of the level sweep in
//! [`crate::bounds`] and repairs them against whichever graph it is
//! handed; it holds no graph itself. A [`crate::Detector`] session keeps
//! one per `(z, method)` beside its live epoch and repairs it against
//! each committed snapshot, so the session's graph has one owner and a
//! commit can patch it in place. [`IncrementalBounds`] is the same level
//! stacks paired with their own shared graph `Arc`. An update touches
//! the nodes whose inputs changed (a self-risk's node, an edge's
//! target); each level recomputes them plus the out-neighbors of the
//! nodes whose previous level changed, exactly as the sweep consumes
//! level `i−1`, so repaired values are bit-identical to a full
//! recomputation.

use std::sync::Arc;

use crate::bounds::Recursion;
use crate::config::BoundsMethod;
use crate::engine::IntoSharedGraph;
use ugraph::{EdgeId, GraphDelta, GraphError, NodeId, UncertainGraph};

/// Every level of the order-`z` lower and upper recursions of one graph,
/// without the graph: each repair names the graph it repairs against.
#[derive(Debug, Clone)]
pub(crate) struct BoundLevels {
    method: BoundsMethod,
    /// `lower_levels[i]` — the lower recursion at order `i+1` (level 0
    /// is `ps`, Algorithm 2 order 1).
    lower_levels: Vec<Vec<f64>>,
    /// `upper_levels[i]` — the upper recursion after `i+1` applications
    /// of Equation 1 (level 0 is Eq. 1 with all-ones neighbors,
    /// Algorithm 3 order 1).
    upper_levels: Vec<Vec<f64>>,
}

impl BoundLevels {
    /// Sweeps every level of order `z` (≥ 1) over `graph`.
    pub(crate) fn new(graph: &UncertainGraph, z: usize, method: BoundsMethod) -> Self {
        assert!(z >= 1, "bound order must be at least 1");
        let lower_levels = Recursion::Lower(method).levels(graph, z);
        let upper_levels = Recursion::Upper.levels(graph, z);
        BoundLevels { method, lower_levels, upper_levels }
    }

    /// Current (final-level) lower bounds.
    pub(crate) fn lower(&self) -> &[f64] {
        // xlint: allow(panic-hygiene) — the constructor rejects
        // `z == 0`, so both level stacks are never empty.
        self.lower_levels.last().expect("z >= 1")
    }

    /// Current (final-level) upper bounds.
    pub(crate) fn upper(&self) -> &[f64] {
        // xlint: allow(panic-hygiene) — same `z >= 1` construction
        // invariant as `lower`.
        self.upper_levels.last().expect("z >= 1")
    }

    /// Repairs the levels after `delta` moved the levels' graph to
    /// `graph`: every touched node — the delta's dirty nodes and the
    /// targets of its dirty edges — in one propagation.
    pub(crate) fn advance(&mut self, graph: &UncertainGraph, delta: &GraphDelta) {
        let targets = delta.edge_prob.iter().map(|&(e, _)| graph.edge_endpoints(EdgeId(e)).1 .0);
        let touched: Vec<u32> = delta.self_risk.iter().map(|&(v, _)| v).chain(targets).collect();
        self.repair(graph, &touched);
    }

    /// Repairs both level stacks against `graph` given the nodes whose
    /// step inputs changed. Returns the cells recomputed.
    fn repair(&mut self, graph: &UncertainGraph, touched: &[u32]) -> usize {
        let lower = Recursion::Lower(self.method);
        repair_levels(graph, lower, &mut self.lower_levels, touched)
            + repair_levels(graph, Recursion::Upper, &mut self.upper_levels, touched)
    }
}

/// Maintains order-`z` lower/upper bounds across probability updates of
/// its own shared graph. Each update edits that graph through
/// [`Arc::make_mut`] — in place when this maintainer is its sole owner —
/// and repairs the levels. A [`crate::Detector`] session runs the same
/// repair on level stacks that hold no graph, so its maintainers never
/// keep the live snapshot shared and a commit can patch it in place.
#[derive(Debug, Clone)]
pub struct IncrementalBounds {
    graph: Arc<UncertainGraph>,
    levels: BoundLevels,
}

impl IncrementalBounds {
    /// Computes initial bounds of order `z` (≥ 1). Takes the graph in any
    /// ownership shape ([`IntoSharedGraph`]); an `Arc` is shared, not
    /// copied.
    pub fn new(graph: impl IntoSharedGraph, z: usize, method: BoundsMethod) -> Self {
        let graph = graph.into_shared();
        let levels = BoundLevels::new(&graph, z, method);
        IncrementalBounds { graph, levels }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &Arc<UncertainGraph> {
        &self.graph
    }

    /// The bound order `z`.
    pub fn order(&self) -> usize {
        self.levels.lower_levels.len()
    }

    /// Current (final-level) lower bounds.
    pub fn lower(&self) -> &[f64] {
        self.levels.lower()
    }

    /// Current (final-level) upper bounds.
    pub fn upper(&self) -> &[f64] {
        self.levels.upper()
    }

    /// Updates a node's self-risk and repairs the bounds. Returns the
    /// number of (node, level) cells recomputed — the cost witness used
    /// by tests and benchmarks. Edits the graph in place when this
    /// maintainer is its sole owner, and a private copy otherwise.
    pub fn update_self_risk(&mut self, v: NodeId, ps: f64) -> Result<usize, GraphError> {
        Arc::make_mut(&mut self.graph).set_self_risk(v, ps)?;
        Ok(self.levels.repair(&self.graph, &[v.0]))
    }

    /// Updates an edge's diffusion probability and repairs the bounds
    /// (same ownership rule as [`IncrementalBounds::update_self_risk`]).
    pub fn update_edge_prob(&mut self, e: EdgeId, prob: f64) -> Result<usize, GraphError> {
        Arc::make_mut(&mut self.graph).set_edge_prob(e, prob)?;
        let (_, target) = self.graph.edge_endpoints(e);
        Ok(self.levels.repair(&self.graph, &[target.0]))
    }
}

/// Repairs one level stack of `recursion` after the seed or step inputs
/// of the `touched` nodes changed. Level `i` recomputes the touched nodes
/// plus the out-neighbors of every node whose level `i − 1` changed;
/// any other node's inputs are unchanged. Returns the cells recomputed.
fn repair_levels(
    graph: &UncertainGraph,
    recursion: Recursion,
    levels: &mut [Vec<f64>],
    touched: &[u32],
) -> usize {
    let mut recomputed = 0usize;
    let mut changed: Vec<u32> = Vec::new();
    for i in 0..levels.len() {
        let (before, rest) = levels.split_at_mut(i);
        let cur = &mut rest[0];
        let mut candidates = touched.to_vec();
        for &c in &changed {
            candidates.extend(graph.out_neighbors(NodeId(c)));
        }
        candidates.sort_unstable();
        candidates.dedup();
        changed.clear();
        for &v in &candidates {
            let val = match before.last() {
                None => recursion.seed(graph, NodeId(v)),
                Some(prev) => recursion.step(graph, NodeId(v), prev),
            };
            recomputed += 1;
            if val.to_bits() != cur[v as usize].to_bits() {
                cur[v as usize] = val;
                changed.push(v);
            }
        }
    }
    recomputed
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::compute_bounds;
    use ugraph::{from_parts, DuplicateEdgePolicy};
    use vulnds_sampling::Xoshiro256pp;

    fn random_graph(n: usize, m: usize, seed: u64) -> UncertainGraph {
        let mut rng = Xoshiro256pp::new(seed);
        let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u != v {
                edges.push((u, v, rng.next_f64() * 0.5));
            }
        }
        from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
    }

    fn assert_matches_batch(inc: &IncrementalBounds) {
        let (l, u) = compute_bounds(inc.graph(), inc.order(), inc.levels.method);
        for v in 0..inc.graph().num_nodes() {
            let (lower, upper) = (inc.lower()[v], inc.upper()[v]);
            assert_eq!(
                lower.to_bits(),
                l[v].to_bits(),
                "lower mismatch at {v}: {lower} vs {}",
                l[v]
            );
            assert_eq!(
                upper.to_bits(),
                u[v].to_bits(),
                "upper mismatch at {v}: {upper} vs {}",
                u[v]
            );
        }
    }

    #[test]
    fn initial_bounds_match_batch() {
        let g = random_graph(50, 120, 1);
        for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
            for z in 1..=4 {
                let inc = IncrementalBounds::new(g.clone(), z, method);
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn self_risk_update_matches_batch() {
        let g = random_graph(60, 150, 2);
        for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
            let mut inc = IncrementalBounds::new(g.clone(), 2, method);
            for (i, &v) in [3u32, 17, 42, 3].iter().enumerate() {
                inc.update_self_risk(NodeId(v), 0.1 + 0.2 * i as f64).unwrap();
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn edge_update_matches_batch() {
        let g = random_graph(60, 150, 3);
        let last = g.num_edges() as u32 - 1; // duplicates may shrink m
        let mut inc = IncrementalBounds::new(g, 3, BoundsMethod::Paper);
        for e in [0u32, 5, 60, last] {
            inc.update_edge_prob(EdgeId(e), 0.33).unwrap();
            assert_matches_batch(&inc);
        }
    }

    #[test]
    fn repeated_updates_stay_exact() {
        let g = random_graph(40, 100, 4);
        let mut inc = IncrementalBounds::new(g, 4, BoundsMethod::Paper);
        let mut rng = Xoshiro256pp::new(99);
        for _ in 0..25 {
            if rng.bernoulli(0.5) {
                let v = NodeId(rng.next_bounded(40) as u32);
                inc.update_self_risk(v, rng.next_f64()).unwrap();
            } else {
                let e = EdgeId(rng.next_bounded(inc.graph().num_edges() as u64) as u32);
                inc.update_edge_prob(e, rng.next_f64()).unwrap();
            }
        }
        assert_matches_batch(&inc);
    }

    #[test]
    fn chain_update_cost_is_local() {
        // On a long chain with z = 2, an update should recompute a
        // handful of cells, not O(n·z).
        let n = 10_000;
        let edges: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&vec![0.2; n], &edges, DuplicateEdgePolicy::Error).unwrap();
        let mut inc = IncrementalBounds::new(g, 2, BoundsMethod::Paper);
        let tail_before = inc.lower()[n - 1];
        let cells = inc.update_self_risk(NodeId(0), 0.9).unwrap();
        assert!(cells <= 8, "recomputed {cells} cells on a chain");
        assert_eq!(inc.lower()[n - 1], tail_before, "tail must be untouched");
        assert!(inc.lower()[1] > 0.2, "successor must feel the update");
    }

    #[test]
    fn no_op_update_recomputes_but_changes_nothing() {
        let g = random_graph(30, 60, 5);
        let mut inc = IncrementalBounds::new(g.clone(), 2, BoundsMethod::Paper);
        let before = (inc.lower().to_vec(), inc.upper().to_vec());
        inc.update_self_risk(NodeId(0), g.self_risk(NodeId(0))).unwrap();
        assert_eq!(inc.lower(), &before.0[..]);
        assert_eq!(inc.upper(), &before.1[..]);
        assert_matches_batch(&inc);
    }

    #[test]
    fn invalid_updates_are_rejected() {
        let g = random_graph(10, 20, 6);
        let mut inc = IncrementalBounds::new(g, 2, BoundsMethod::Paper);
        assert!(inc.update_self_risk(NodeId(99), 0.5).is_err());
        assert!(inc.update_self_risk(NodeId(0), 1.5).is_err());
        assert!(inc.update_edge_prob(EdgeId(999), 0.5).is_err());
        assert_matches_batch(&inc);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_order_rejected() {
        let g = random_graph(5, 8, 7);
        IncrementalBounds::new(g, 0, BoundsMethod::Paper);
    }
}
