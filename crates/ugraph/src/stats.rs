//! Degree and probability statistics (reproduces the paper's Table 2).

use crate::graph::UncertainGraph;

/// Summary statistics of an uncertain graph, as reported in Table 2 of the
/// paper: node count, edge count, average degree (`m / n`) and maximum
/// total degree.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Average degree `m / n` (0 for the empty graph).
    pub avg_degree: f64,
    /// Maximum total (in + out) degree over all nodes.
    pub max_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Mean self-risk probability.
    pub mean_self_risk: f64,
    /// Mean edge diffusion probability.
    pub mean_edge_prob: f64,
}

impl GraphStats {
    /// Computes statistics in one pass over the graph.
    pub fn compute(g: &UncertainGraph) -> GraphStats {
        let n = g.num_nodes();
        let m = g.num_edges();
        let mut max_degree = 0;
        let mut max_in = 0;
        let mut max_out = 0;
        for v in g.nodes() {
            let din = g.in_degree(v);
            let dout = g.out_degree(v);
            max_in = max_in.max(din);
            max_out = max_out.max(dout);
            max_degree = max_degree.max(din + dout);
        }
        let mean_self_risk = if n == 0 { 0.0 } else { g.total_self_risk() / n as f64 };
        let mean_edge_prob =
            if m == 0 { 0.0 } else { g.edges().map(|e| g.edge_prob(e)).sum::<f64>() / m as f64 };
        GraphStats {
            nodes: n,
            edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_degree,
            max_in_degree: max_in,
            max_out_degree: max_out,
            mean_self_risk,
            mean_edge_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};

    fn star() -> UncertainGraph {
        // hub 0 → 1..=4
        from_parts(
            &[0.5, 0.1, 0.1, 0.1, 0.1],
            &[(0, 1, 0.2), (0, 2, 0.4), (0, 3, 0.6), (0, 4, 0.8)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn stats_on_star() {
        let s = GraphStats::compute(&star());
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 4);
        assert!((s.avg_degree - 0.8).abs() < 1e-12);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.mean_self_risk - 0.18).abs() < 1e-12);
        assert!((s.mean_edge_prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = UncertainGraph::builder(0).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.mean_self_risk, 0.0);
    }
}
