//! Deterministic (probability-blind) traversals over the graph structure.
//!
//! The samplers in `vulnds-sampling` implement their own probabilistic
//! BFS; the traversals here treat every edge as present. [`downstream`]
//! bounds what a graph delta can touch, so the engine repairs only those
//! nodes' sample counts; [`reachable_count`] sizes a node's contagion
//! reach (the `loan_risk` example's exposure report).

use crate::graph::UncertainGraph;
use crate::ids::{EdgeId, NodeId};
use std::collections::{BTreeSet, VecDeque};

/// Direction of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges `(v, ·)`.
    Forward,
    /// Follow in-edges `(·, v)`.
    Reverse,
}

/// Breadth-first traversal from a set of roots, yielding `(node, depth)`.
#[derive(Debug)]
pub struct Bfs<'a> {
    graph: &'a UncertainGraph,
    direction: Direction,
    queue: VecDeque<(NodeId, u32)>,
    visited: Vec<bool>,
}

impl<'a> Bfs<'a> {
    /// Starts a BFS from a single root.
    pub fn new(graph: &'a UncertainGraph, root: NodeId, direction: Direction) -> Self {
        Self::from_roots(graph, std::iter::once(root), direction)
    }

    /// Starts a BFS from several roots at depth 0.
    pub fn from_roots(
        graph: &'a UncertainGraph,
        roots: impl IntoIterator<Item = NodeId>,
        direction: Direction,
    ) -> Self {
        let mut visited = vec![false; graph.num_nodes()];
        let mut queue = VecDeque::new();
        for r in roots {
            if !visited[r.index()] {
                visited[r.index()] = true;
                queue.push_back((r, 0));
            }
        }
        Bfs { graph, direction, queue, visited }
    }
}

impl Iterator for Bfs<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        let (v, d) = self.queue.pop_front()?;
        let neigh: &[u32] = match self.direction {
            Direction::Forward => self.graph.out_neighbors(v),
            Direction::Reverse => self.graph.in_neighbors(v),
        };
        for &w in neigh {
            if !self.visited[w as usize] {
                self.visited[w as usize] = true;
                self.queue.push_back((NodeId(w), d + 1));
            }
        }
        Some((v, d))
    }
}

/// Counts nodes reachable from `root` (inclusive).
pub fn reachable_count(graph: &UncertainGraph, root: NodeId, direction: Direction) -> usize {
    Bfs::new(graph, root, direction).count()
}

/// The nodes whose default can depend on the coins of `nodes` or of
/// `edges`: everything reachable over out-edges from `nodes` and from
/// the heads of `edges`, those roots included, sorted ascending. An
/// edge's tail is not a root — the edge only carries defaults into its
/// head. Returns `None` as soon as the set grows past `cap` nodes, so a
/// caller probing a large reach pays for at most `cap + 1` visits. The
/// visited set is the reach itself, so the probe allocates in the size
/// of what it reaches and the out-edges of that, never in the size of
/// the graph.
pub fn downstream(
    graph: &UncertainGraph,
    nodes: &[u32],
    edges: &[u32],
    cap: usize,
) -> Option<Vec<u32>> {
    let heads = edges.iter().map(|&e| graph.edge_endpoints(EdgeId(e)).1 .0);
    let mut pending: Vec<u32> = nodes.iter().copied().chain(heads).collect();
    let mut reach = BTreeSet::new();
    while let Some(v) = pending.pop() {
        if reach.insert(v) {
            if reach.len() > cap {
                return None;
            }
            let out = graph.out_neighbors(NodeId(v));
            pending.extend(out.iter().filter(|w| !reach.contains(*w)));
        }
    }
    Some(reach.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        // 0 → 1 → 2 → 3
        from_parts(&[0.0; 4], &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    fn diamond() -> UncertainGraph {
        // 0 → {1, 2} → 3
        from_parts(
            &[0.0; 4],
            &[(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn bfs_depths_on_chain() {
        let g = chain();
        let order: Vec<(u32, u32)> =
            Bfs::new(&g, NodeId(0), Direction::Forward).map(|(v, d)| (v.0, d)).collect();
        assert_eq!(order, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn reverse_bfs_on_chain() {
        let g = chain();
        let order: Vec<u32> =
            Bfs::new(&g, NodeId(3), Direction::Reverse).map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn bfs_visits_each_node_once_on_diamond() {
        let g = diamond();
        let visited: Vec<u32> =
            Bfs::new(&g, NodeId(0), Direction::Forward).map(|(v, _)| v.0).collect();
        assert_eq!(visited.len(), 4);
        let depth3: u32 = Bfs::new(&g, NodeId(0), Direction::Forward)
            .find(|&(v, _)| v == NodeId(3))
            .map(|(_, d)| d)
            .unwrap();
        assert_eq!(depth3, 2);
    }

    #[test]
    fn multi_root_bfs_dedups_roots() {
        let g = chain();
        let visited: Vec<u32> =
            Bfs::from_roots(&g, [NodeId(1), NodeId(1), NodeId(2)], Direction::Forward)
                .map(|(v, _)| v.0)
                .collect();
        assert_eq!(visited, vec![1, 2, 3]);
    }

    #[test]
    fn reachability_helpers() {
        let g = diamond();
        assert_eq!(reachable_count(&g, NodeId(0), Direction::Forward), 4);
        assert_eq!(reachable_count(&g, NodeId(3), Direction::Forward), 1);
        assert_eq!(reachable_count(&g, NodeId(3), Direction::Reverse), 4);
    }

    #[test]
    fn downstream_follows_out_edges_from_nodes_and_edge_heads() {
        let g = diamond();
        assert_eq!(downstream(&g, &[1], &[], 4), Some(vec![1, 3]));
        // Edge 0 → 2 roots at its head: the tail 0 is upstream.
        let e = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(downstream(&g, &[], &[e.0], 4), Some(vec![2, 3]));
        assert_eq!(downstream(&g, &[3], &[e.0], 4), Some(vec![2, 3]));
        assert_eq!(downstream(&g, &[0], &[], 4), Some(vec![0, 1, 2, 3]));
        // Past the cap the probe gives up.
        assert_eq!(downstream(&g, &[0], &[], 3), None);
        assert_eq!(downstream(&g, &[], &[], 0), Some(vec![]));
    }
}
