//! The core uncertain-graph storage type.
//!
//! [`UncertainGraph`] is an immutable directed graph in compressed sparse
//! row (CSR) form with **both** forward and reverse adjacency, so that the
//! reverse sampler (Algorithm 5 of the paper) can traverse in-neighbors
//! without building a transposed copy. Every edge has one *canonical* id
//! (its position in the out-CSR arrays); the reverse adjacency stores a
//! mapping back to canonical ids so a coin flipped for edge `e` during a
//! possible-world materialization is observed consistently from both
//! directions.

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId};

/// A reference to one directed edge, yielded by adjacency iterators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Canonical edge id.
    pub id: EdgeId,
    /// Source node (the defaulting upstream node).
    pub source: NodeId,
    /// Target node (the node the default diffuses to).
    pub target: NodeId,
    /// Diffusion probability `p(target | source)`.
    pub prob: f64,
}

/// A directed uncertain graph.
///
/// Each node `v` carries a self-risk probability `ps(v)`; each edge
/// `(u, v)` carries a diffusion probability `p(v | u)`. See the crate-level
/// documentation for the semantics.
///
/// Construct via [`GraphBuilder`](crate::builder::GraphBuilder) or
/// [`UncertainGraph::builder`].
#[derive(Debug, Clone)]
pub struct UncertainGraph {
    pub(crate) self_risk: Vec<f64>,
    // Forward CSR. Edge id `e` has source `edge_sources[e]`, target
    // `out_targets[e]`, probability `edge_prob[e]`.
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<u32>,
    pub(crate) edge_prob: Vec<f64>,
    pub(crate) edge_sources: Vec<u32>,
    // Reverse CSR; `in_edge_ids` maps positions back to canonical edge ids.
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<u32>,
    pub(crate) in_edge_ids: Vec<u32>,
    // Probability version: bumped by every in-place probability update so
    // caches keyed on the graph's probabilities (e.g. coin tables) can
    // detect staleness. Not part of structural equality.
    pub(crate) version: u64,
}

impl PartialEq for UncertainGraph {
    fn eq(&self, other: &Self) -> bool {
        self.self_risk == other.self_risk
            && self.out_offsets == other.out_offsets
            && self.out_targets == other.out_targets
            && self.edge_prob == other.edge_prob
            && self.edge_sources == other.edge_sources
            && self.in_offsets == other.in_offsets
            && self.in_sources == other.in_sources
            && self.in_edge_ids == other.in_edge_ids
    }
}

impl UncertainGraph {
    /// Starts building a graph with `n` nodes, all with self-risk `0.0`.
    pub fn builder(n: usize) -> crate::builder::GraphBuilder {
        crate::builder::GraphBuilder::new(n)
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.self_risk.len()
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.self_risk.is_empty()
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all canonical edge ids `0..m`.
    #[inline]
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Self-risk probability `ps(v)`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn self_risk(&self, v: NodeId) -> f64 {
        self.self_risk[v.index()]
    }

    /// Diffusion probability of the edge with canonical id `e`.
    #[inline]
    pub fn edge_prob(&self, e: EdgeId) -> f64 {
        self.edge_prob[e.index()]
    }

    /// Source and target of the edge with canonical id `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (NodeId(self.edge_sources[e.index()]), NodeId(self.out_targets[e.index()]))
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// In-degree of `v` (size of `N(v)` in the paper's notation).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.in_offsets[i + 1] - self.in_offsets[i]) as usize
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Iterator over the out-edges of `v` in canonical-id order.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> OutEdges<'_> {
        let i = v.index();
        OutEdges { graph: self, source: v, range: self.out_offsets[i]..self.out_offsets[i + 1] }
    }

    /// Iterator over the in-edges of `v` (edges `(u, v)`).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> InEdges<'_> {
        let i = v.index();
        InEdges { graph: self, target: v, range: self.in_offsets[i]..self.in_offsets[i + 1] }
    }

    /// Out-neighbor node ids of `v` as a slice (no probabilities).
    #[inline(always)]
    pub fn out_neighbors(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbor node ids of `v` as a slice (no probabilities).
    #[inline(always)]
    pub fn in_neighbors(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Canonical edge ids of the out-edges of `v`, as an index range.
    ///
    /// Out-edges of one node occupy a contiguous run of canonical ids, so
    /// `out_edge_range(v).zip(out_neighbors(v))` walks `(edge id, target)`
    /// pairs without constructing [`EdgeRef`]s — the form the bit-parallel
    /// world-block kernel consumes.
    #[inline(always)]
    pub fn out_edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize
    }

    /// Canonical edge ids of the in-edges of `v`, parallel to
    /// [`in_neighbors`](Self::in_neighbors): position `p` of both slices
    /// describes the same edge `(in_neighbors(v)[p], v)`.
    #[inline(always)]
    pub fn in_edge_ids(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.in_edge_ids[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Returns the canonical id of edge `(u, v)` if present.
    ///
    /// Runs in `O(log out_degree(u))` thanks to CSR target ordering.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() >= self.num_nodes() {
            return None;
        }
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        let slice = &self.out_targets[lo..hi];
        slice.binary_search(&v.0).ok().map(|pos| EdgeId((lo + pos) as u32))
    }

    /// Returns `true` if edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Builds the transposed graph: every edge `(u, v)` becomes `(v, u)`
    /// with the same diffusion probability; self-risks are kept.
    ///
    /// The reverse sampler does not need this (it walks
    /// [`in_edges`](Self::in_edges) directly), but the transpose is useful
    /// for algorithms written against forward adjacency only.
    pub fn transpose(&self) -> UncertainGraph {
        let mut b = crate::builder::GraphBuilder::new(self.num_nodes());
        for v in self.nodes() {
            // xlint: allow(panic-hygiene) — every id and probability
            // re-inserted here was validated when this graph was built.
            b.set_self_risk(v, self.self_risk(v)).expect("existing risk is valid");
        }
        for e in self.edges() {
            let (u, v) = self.edge_endpoints(e);
            // xlint: allow(panic-hygiene) — same revalidation argument
            // as the self-risks above.
            b.add_edge(v, u, self.edge_prob(e)).expect("existing edge is valid");
        }
        // xlint: allow(panic-hygiene) — a valid graph's transpose
        // satisfies every builder invariant.
        b.build().expect("transpose of a valid graph is valid")
    }

    /// Sum of all self-risk probabilities (expected number of seed
    /// defaults per possible world). Useful for workload characterization.
    pub fn total_self_risk(&self) -> f64 {
        self.self_risk.iter().sum()
    }

    /// Probability version of the graph: starts at 0 and is bumped by
    /// every [`set_self_risk`](Self::set_self_risk) /
    /// [`set_edge_prob`](Self::set_edge_prob) call (successful ones
    /// only). Caches derived from the graph's probabilities compare
    /// versions to detect staleness instead of re-hashing `n + m`
    /// floats.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Updates a node's self-risk probability in place.
    ///
    /// Probability updates preserve the CSR structure, so they are `O(1)`
    /// — this is the common monthly-recalibration path in a risk system,
    /// unlike topology changes which require a rebuild.
    pub fn set_self_risk(&mut self, v: NodeId, ps: f64) -> Result<()> {
        let ps = crate::error::check_probability(ps, "node self-risk")?;
        let len = self.num_nodes() as u32;
        let slot = self
            .self_risk
            .get_mut(v.index())
            .ok_or(GraphError::NodeOutOfBounds { node: v.0, len })?;
        *slot = ps;
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Updates an edge's diffusion probability in place (`O(1)`).
    pub fn set_edge_prob(&mut self, e: EdgeId, prob: f64) -> Result<()> {
        let prob = crate::error::check_probability(prob, "edge diffusion probability")?;
        let len = self.num_edges() as u32;
        let slot = self
            .edge_prob
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds { edge: e.0, len })?;
        *slot = prob;
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Validates internal CSR invariants. Used by tests and `debug_assert!`
    /// callers; a graph built through [`GraphBuilder`](crate::builder::GraphBuilder) always passes.
    pub fn check_invariants(&self) -> Result<()> {
        let n = self.num_nodes();
        let m = self.num_edges();
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return Err(GraphError::Parse { line: 0, message: "offset length".into() });
        }
        if self.out_offsets[n] as usize != m || self.in_offsets[n] as usize != m {
            return Err(GraphError::Parse { line: 0, message: "offset totals".into() });
        }
        if self.edge_prob.len() != m || self.edge_sources.len() != m {
            return Err(GraphError::Parse { line: 0, message: "edge array length".into() });
        }
        for w in self.out_offsets.windows(2).chain(self.in_offsets.windows(2)) {
            if w[0] > w[1] {
                return Err(GraphError::Parse { line: 0, message: "offsets not monotone".into() });
            }
        }
        for e in 0..m {
            let src = self.edge_sources[e] as usize;
            if src >= n || (self.out_targets[e] as usize) >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node: self.edge_sources[e].max(self.out_targets[e]),
                    len: n as u32,
                });
            }
            let lo = self.out_offsets[src] as usize;
            let hi = self.out_offsets[src + 1] as usize;
            if !(lo..hi).contains(&e) {
                return Err(GraphError::Parse { line: 0, message: "edge source mismatch".into() });
            }
        }
        // Reverse CSR must be a permutation of canonical edge ids, and each
        // in-edge of v must indeed target v.
        let mut seen = vec![false; m];
        for v in 0..n {
            let lo = self.in_offsets[v] as usize;
            let hi = self.in_offsets[v + 1] as usize;
            for pos in lo..hi {
                let e = self.in_edge_ids[pos] as usize;
                if e >= m || seen[e] {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: "in_edge_ids invalid".into(),
                    });
                }
                seen[e] = true;
                if self.out_targets[e] as usize != v {
                    return Err(GraphError::Parse { line: 0, message: "in-edge target".into() });
                }
                if self.in_sources[pos] != self.edge_sources[e] {
                    return Err(GraphError::Parse { line: 0, message: "in-edge source".into() });
                }
            }
        }
        Ok(())
    }
}

/// Iterator over out-edges of one node. See [`UncertainGraph::out_edges`].
#[derive(Debug, Clone)]
pub struct OutEdges<'a> {
    graph: &'a UncertainGraph,
    source: NodeId,
    range: std::ops::Range<u32>,
}

impl Iterator for OutEdges<'_> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let e = self.range.next()? as usize;
        Some(EdgeRef {
            id: EdgeId(e as u32),
            source: self.source,
            target: NodeId(self.graph.out_targets[e]),
            prob: self.graph.edge_prob[e],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for OutEdges<'_> {}

/// Iterator over in-edges of one node. See [`UncertainGraph::in_edges`].
#[derive(Debug, Clone)]
pub struct InEdges<'a> {
    graph: &'a UncertainGraph,
    target: NodeId,
    range: std::ops::Range<u32>,
}

impl Iterator for InEdges<'_> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let pos = self.range.next()? as usize;
        let e = self.graph.in_edge_ids[pos] as usize;
        Some(EdgeRef {
            id: EdgeId(e as u32),
            source: NodeId(self.graph.in_sources[pos]),
            target: self.target,
            prob: self.graph.edge_prob[e],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for InEdges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-node toy network of the paper's Figure 3:
    /// A→B, A→C, B→D, B→E, C→E, D→E with uniform probabilities 0.2.
    pub(crate) fn figure3() -> UncertainGraph {
        let mut b = UncertainGraph::builder(5);
        for v in 0..5u32 {
            b.set_self_risk(NodeId(v), 0.2).unwrap();
        }
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = figure3();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn degrees_match_figure3() {
        let g = figure3();
        assert_eq!(g.out_degree(NodeId(0)), 2); // A
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(4)), 3); // E ← B, C, D
        assert_eq!(g.out_degree(NodeId(4)), 0);
        assert_eq!(g.degree(NodeId(1)), 3); // B: in A, out D, E
    }

    #[test]
    fn out_edges_yield_canonical_ids() {
        let g = figure3();
        let edges: Vec<EdgeRef> = g.out_edges(NodeId(0)).collect();
        assert_eq!(edges.len(), 2);
        for e in &edges {
            assert_eq!(e.source, NodeId(0));
            let (s, t) = g.edge_endpoints(e.id);
            assert_eq!(s, e.source);
            assert_eq!(t, e.target);
            assert_eq!(g.edge_prob(e.id), e.prob);
        }
    }

    #[test]
    fn in_edges_agree_with_out_edges() {
        let g = figure3();
        // Collect all edges from the out-side and in-side; the multisets of
        // (id, source, target) must match.
        let mut from_out: Vec<(u32, u32, u32)> = g
            .nodes()
            .flat_map(|v| g.out_edges(v))
            .map(|e| (e.id.0, e.source.0, e.target.0))
            .collect();
        let mut from_in: Vec<(u32, u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_edges(v))
            .map(|e| (e.id.0, e.source.0, e.target.0))
            .collect();
        from_out.sort_unstable();
        from_in.sort_unstable();
        assert_eq!(from_out, from_in);
    }

    #[test]
    fn csr_slice_accessors_agree_with_iterators() {
        let g = figure3();
        for v in g.nodes() {
            let ids: Vec<u32> = g.out_edge_range(v).map(|e| e as u32).collect();
            let from_iter: Vec<u32> = g.out_edges(v).map(|e| e.id.0).collect();
            assert_eq!(ids, from_iter, "out ids of {v}");
            let targets: Vec<u32> = g.out_neighbors(v).to_vec();
            let iter_targets: Vec<u32> = g.out_edges(v).map(|e| e.target.0).collect();
            assert_eq!(targets, iter_targets, "out targets of {v}");

            let in_ids: Vec<u32> = g.in_edge_ids(v).to_vec();
            let in_iter: Vec<u32> = g.in_edges(v).map(|e| e.id.0).collect();
            assert_eq!(in_ids, in_iter, "in ids of {v}");
            let in_srcs: Vec<u32> = g.in_neighbors(v).to_vec();
            let in_iter_srcs: Vec<u32> = g.in_edges(v).map(|e| e.source.0).collect();
            assert_eq!(in_srcs, in_iter_srcs, "in sources of {v}");
        }
    }

    #[test]
    fn find_edge_works() {
        let g = figure3();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(3), NodeId(4)));
        assert!(!g.has_edge(NodeId(4), NodeId(3)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        let e = g.find_edge(NodeId(1), NodeId(4)).unwrap();
        assert_eq!(g.edge_endpoints(e), (NodeId(1), NodeId(4)));
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = figure3();
        let t = g.transpose();
        t.check_invariants().unwrap();
        assert_eq!(t.num_nodes(), g.num_nodes());
        assert_eq!(t.num_edges(), g.num_edges());
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e);
            assert!(t.has_edge(v, u));
        }
        // Self-risks preserved.
        for v in g.nodes() {
            assert_eq!(t.self_risk(v), g.self_risk(v));
        }
        // Double transpose is the original up to edge ordering.
        let tt = t.transpose();
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e);
            let id = tt.find_edge(u, v).expect("edge survives double transpose");
            assert_eq!(tt.edge_prob(id), g.edge_prob(e));
        }
    }

    #[test]
    fn total_self_risk_sums() {
        let g = figure3();
        assert!((g.total_self_risk() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::builder(0).build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn in_place_probability_updates() {
        let mut g = figure3();
        assert_eq!(g.version(), 0);
        g.set_self_risk(NodeId(0), 0.9).unwrap();
        assert_eq!(g.self_risk(NodeId(0)), 0.9);
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        g.set_edge_prob(e, 0.75).unwrap();
        assert_eq!(g.edge_prob(e), 0.75);
        assert_eq!(g.version(), 2, "each successful update bumps the probability version");
        g.check_invariants().unwrap();
        // Invalid updates are rejected and leave the graph untouched,
        // each with the matching out-of-bounds variant.
        assert!(g.set_self_risk(NodeId(0), 1.5).is_err());
        assert!(matches!(
            g.set_self_risk(NodeId(99), 0.5),
            Err(GraphError::NodeOutOfBounds { node: 99, .. })
        ));
        assert!(matches!(
            g.set_edge_prob(EdgeId(99), 0.5),
            Err(GraphError::EdgeOutOfBounds { edge: 99, .. })
        ));
        assert_eq!(g.self_risk(NodeId(0)), 0.9);
        assert_eq!(g.version(), 2, "failed updates must not bump the version");
    }

    #[test]
    fn node_without_edges() {
        let g = UncertainGraph::builder(3).build().unwrap();
        assert_eq!(g.out_degree(NodeId(1)), 0);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert_eq!(g.out_edges(NodeId(1)).count(), 0);
    }
}
