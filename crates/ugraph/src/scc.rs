//! Strongly-connected components (iterative Tarjan).
//!
//! Guarantee networks are studied per "guarantee circle" — the mutual
//! backing groups the paper's introduction describes are exactly the
//! non-trivial SCCs of the graph. The condensation (SCC DAG) also lets
//! callers check where the tree-exactness of the Algorithm-2 bounds
//! breaks down.

use crate::graph::UncertainGraph;
use crate::ids::NodeId;

/// Result of an SCC decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccDecomposition {
    /// `component[v]` — id of the component containing node `v`.
    /// Component ids are in **reverse topological order** of the
    /// condensation (a Tarjan property: a component is numbered after
    /// everything it can reach).
    pub component: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl SccDecomposition {
    /// Sizes of each component, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.count];
        for &c in &self.component {
            s[c as usize] += 1;
        }
        s
    }

    /// Ids of components with more than one node — the "guarantee
    /// circles" of the paper's motivating domain.
    pub fn non_trivial(&self) -> Vec<u32> {
        self.sizes().iter().enumerate().filter(|(_, &s)| s > 1).map(|(i, _)| i as u32).collect()
    }

    /// Members of component `c`, in ascending node-id order.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.component
            .iter()
            .enumerate()
            .filter(|(_, &cc)| cc == c)
            .map(|(v, _)| NodeId(v as u32))
            .collect()
    }
}

/// Computes SCCs with an iterative Tarjan (explicit stack, no recursion —
/// safe on deep chains like 60k-node P2P graphs).
pub fn strongly_connected_components(graph: &UncertainGraph) -> SccDecomposition {
    let n = graph.num_nodes();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNSET; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0u32;

    // Explicit DFS frames: (node, next out-neighbor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let neigh = graph.out_neighbors(NodeId(v));
            if *pos < neigh.len() {
                let w = neigh[*pos];
                *pos += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v roots a component: pop it off the Tarjan stack.
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        component[w as usize] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }
    SccDecomposition { component, count: count as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};

    #[test]
    fn dag_has_singleton_components() {
        let g = from_parts(
            &[0.0; 4],
            &[(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 4);
        assert!(scc.non_trivial().is_empty());
    }

    #[test]
    fn cycle_is_one_component() {
        let g = from_parts(
            &[0.0; 3],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 1);
        assert_eq!(scc.sizes(), vec![3]);
        assert_eq!(scc.members(0).len(), 3);
    }

    #[test]
    fn guarantee_circle_plus_tail() {
        // Circle {0,1,2} with a tail 2 → 3 → 4.
        let g = from_parts(
            &[0.0; 5],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5), (2, 3, 0.5), (3, 4, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 3);
        let nt = scc.non_trivial();
        assert_eq!(nt.len(), 1);
        let circle = scc.members(nt[0]);
        assert_eq!(circle, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Reverse topological: the circle can reach 3 and 4, so its
        // component id is larger.
        assert!(scc.component[0] > scc.component[3]);
        assert!(scc.component[3] > scc.component[4]);
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = from_parts(
            &[0.0; 4],
            &[(0, 1, 0.5), (1, 0, 0.5), (2, 3, 0.5), (3, 2, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 2);
        assert_eq!(scc.sizes(), vec![2, 2]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 50,000-node chain: the iterative implementation must not blow
        // the call stack.
        let n = 50_000;
        let edges: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&vec![0.0; n], &edges, DuplicateEdgePolicy::Error).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, n);
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::builder(0).build().unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 0);
    }
}
