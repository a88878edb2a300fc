//! Mutable construction of [`UncertainGraph`]s.

use crate::error::{check_probability, GraphError, Result};
use crate::graph::UncertainGraph;
use crate::ids::NodeId;

/// What to do when the same `(u, v)` edge is added more than once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicateEdgePolicy {
    /// Fail with [`GraphError::DuplicateEdge`]. The default: duplicates in
    /// financial edge lists usually indicate a data bug.
    #[default]
    Error,
    /// Keep the larger diffusion probability (conservative risk estimate).
    KeepMax,
    /// Combine as independent channels: `1 − (1−p₁)(1−p₂)`. Appropriate
    /// when parallel edges represent independent guarantee contracts.
    NoisyOr,
}

/// Incremental builder for [`UncertainGraph`].
///
/// ```
/// use ugraph::{UncertainGraph, NodeId};
///
/// let mut b = UncertainGraph::builder(3);
/// b.set_self_risk(NodeId(0), 0.1).unwrap();
/// b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    self_risk: Vec<f64>,
    edges: Vec<(u32, u32, f64)>,
    policy: DuplicateEdgePolicy,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes, all self-risk `0.0`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            self_risk: vec![0.0; n],
            edges: Vec::new(),
            policy: DuplicateEdgePolicy::default(),
        }
    }

    /// Sets the duplicate-edge policy, consuming and returning the builder
    /// for chaining.
    pub fn with_duplicate_policy(mut self, policy: DuplicateEdgePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.self_risk.len()
    }

    /// Number of edges added so far (before duplicate resolution).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Sets the self-risk probability of an existing node.
    pub fn set_self_risk(&mut self, v: NodeId, ps: f64) -> Result<()> {
        let ps = check_probability(ps, "node self-risk")?;
        let len = self.self_risk.len() as u32;
        let slot = self
            .self_risk
            .get_mut(v.index())
            .ok_or(GraphError::NodeOutOfBounds { node: v.0, len })?;
        *slot = ps;
        Ok(())
    }

    /// Adds the directed edge `(u, v)` with diffusion probability `p(v|u)`.
    ///
    /// Self-loops are rejected: under the paper's model a node's own default
    /// is captured by `ps(v)`, not by an edge.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, prob: f64) -> Result<()> {
        let prob = check_probability(prob, "edge diffusion probability")?;
        let len = self.self_risk.len() as u32;
        if u.0 >= len {
            return Err(GraphError::NodeOutOfBounds { node: u.0, len });
        }
        if v.0 >= len {
            return Err(GraphError::NodeOutOfBounds { node: v.0, len });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.0 });
        }
        if self.edges.len() >= u32::MAX as usize {
            return Err(GraphError::CapacityExceeded { what: "edges" });
        }
        self.edges.push((u.0, v.0, prob));
        Ok(())
    }

    /// Finalizes into an immutable CSR graph.
    ///
    /// Runs in `O(n + m log m)`; duplicate edges are resolved according to
    /// the configured [`DuplicateEdgePolicy`].
    pub fn build(self) -> Result<UncertainGraph> {
        let n = self.self_risk.len();
        let mut edges = self.edges;
        // Sort by (source, target) so the out-CSR has ordered targets, which
        // `find_edge` relies on for binary search.
        edges.sort_unstable_by_key(|a| (a.0, a.1));

        // Resolve duplicates in place.
        let mut resolved: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len());
        for (u, v, p) in edges {
            match resolved.last_mut() {
                Some(last) if last.0 == u && last.1 == v => match self.policy {
                    DuplicateEdgePolicy::Error => {
                        return Err(GraphError::DuplicateEdge { source: u, target: v });
                    }
                    DuplicateEdgePolicy::KeepMax => {
                        last.2 = last.2.max(p);
                    }
                    DuplicateEdgePolicy::NoisyOr => {
                        last.2 = 1.0 - (1.0 - last.2) * (1.0 - p);
                    }
                },
                _ => resolved.push((u, v, p)),
            }
        }

        let m = resolved.len();
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _, _) in &resolved {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }

        let mut out_targets = Vec::with_capacity(m);
        let mut edge_prob = Vec::with_capacity(m);
        let mut edge_sources = Vec::with_capacity(m);
        for &(u, v, p) in &resolved {
            out_targets.push(v);
            edge_prob.push(p);
            edge_sources.push(u);
        }

        // Reverse CSR by counting sort on target.
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &out_targets {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0u32; m];
        let mut in_edge_ids = vec![0u32; m];
        for (e, (&src, &tgt)) in edge_sources.iter().zip(out_targets.iter()).enumerate() {
            let pos = cursor[tgt as usize] as usize;
            in_sources[pos] = src;
            in_edge_ids[pos] = e as u32;
            cursor[tgt as usize] += 1;
        }

        let g = UncertainGraph {
            self_risk: self.self_risk,
            out_offsets,
            out_targets,
            edge_prob,
            edge_sources,
            in_offsets,
            in_sources,
            in_edge_ids,
            version: 0,
        };
        debug_assert!(g.check_invariants().is_ok());
        Ok(g)
    }
}

/// Builds a graph from parallel arrays: `self_risk[v]` for each node and
/// `(u, v, p)` triples for edges. Convenience for tests and generators.
pub fn from_parts(
    self_risk: &[f64],
    edges: &[(u32, u32, f64)],
    policy: DuplicateEdgePolicy,
) -> Result<UncertainGraph> {
    let mut b = GraphBuilder::new(self_risk.len()).with_duplicate_policy(policy);
    for (i, &ps) in self_risk.iter().enumerate() {
        b.set_self_risk(NodeId(i as u32), ps)?;
    }
    for &(u, v, p) in edges {
        b.add_edge(NodeId(u), NodeId(v), p)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;

    #[test]
    fn rejects_invalid_self_risk() {
        let mut b = GraphBuilder::new(1);
        assert!(b.set_self_risk(NodeId(0), 1.5).is_err());
        assert!(b.set_self_risk(NodeId(0), f64::NAN).is_err());
        assert!(b.set_self_risk(NodeId(1), 0.5).is_err()); // out of bounds
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(0), 0.5),
            Err(GraphError::SelfLoop { node: 0 })
        ));
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(2), 0.5),
            Err(GraphError::NodeOutOfBounds { node: 2, .. })
        ));
        assert!(b.add_edge(NodeId(0), NodeId(1), -0.5).is_err());
    }

    #[test]
    fn duplicate_policy_error() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.3).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 0.4).unwrap();
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { source: 0, target: 1 })));
    }

    #[test]
    fn duplicate_policy_keep_max() {
        let g = from_parts(
            &[0.0, 0.0],
            &[(0, 1, 0.3), (0, 1, 0.7), (0, 1, 0.5)],
            DuplicateEdgePolicy::KeepMax,
        )
        .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_prob(EdgeId(0)), 0.7);
    }

    #[test]
    fn duplicate_policy_noisy_or() {
        let g = from_parts(&[0.0, 0.0], &[(0, 1, 0.5), (0, 1, 0.5)], DuplicateEdgePolicy::NoisyOr)
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!((g.edge_prob(EdgeId(0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn csr_targets_are_sorted_per_source() {
        let g = from_parts(
            &[0.0; 4],
            &[(2, 1, 0.1), (0, 3, 0.2), (0, 1, 0.3), (2, 3, 0.4), (0, 2, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        g.check_invariants().unwrap();
        let targets: Vec<u32> = g.out_neighbors(NodeId(0)).to_vec();
        assert_eq!(targets, vec![1, 2, 3]);
        // Probabilities follow the sorted order.
        let probs: Vec<f64> = g.out_edges(NodeId(0)).map(|e| e.prob).collect();
        assert_eq!(probs, vec![0.3, 0.5, 0.2]);
    }

    #[test]
    fn from_parts_roundtrip() {
        let edges = [(0u32, 1u32, 0.5f64), (1, 2, 0.25)];
        let g = from_parts(&[0.1, 0.2, 0.3], &edges, DuplicateEdgePolicy::Error).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.self_risk(NodeId(2)), 0.3);
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn builder_is_cloneable_for_what_if_analysis() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let b2 = b.clone();
        let g1 = b.build().unwrap();
        let g2 = b2.build().unwrap();
        assert_eq!(g1, g2);
    }
}
