//! Iterative lower/upper bounds on default probabilities — Algorithms 2
//! and 3 of the paper, plus a provably-safe lower-bound variant.
//!
//! Both recursions iterate Equation 1,
//! `p(v) = 1 − (1 − ps(v)) · ∏_{x ∈ N(v)} (1 − p(v|x) p(x))`,
//! starting from `p(x) = ps(x)` (lower) or `p(x) = 1` (upper). Higher
//! order `z` tightens the interval at `O(z (n + m))` cost; the paper's
//! Figure 5 shows order 2 suffices on its datasets.
//!
//! **Validity caveat:** the upper recursion is a
//! true upper bound on every graph — default indicators are increasing
//! functions of independent coins, so by positive association (FKG) the
//! probability that no in-neighbor transmits is at least the product of
//! per-neighbor non-transmission probabilities, making Equation 1 with
//! over-estimated neighbor probabilities an over-estimate. The lower
//! recursion of Algorithm 2 is exact on in-trees but can overshoot the
//! truth when converging paths share ancestors (the product form assumes
//! independence). [`lower_bounds_safe`] replaces the product with the best
//! single in-neighbor term, which is a valid lower bound on every graph.

use crate::config::BoundsMethod;
use ugraph::{NodeId, UncertainGraph};

/// One round of Equation 1 for node `v` with neighbor estimates `prev`.
/// Exposed to the incremental maintainer in [`crate::dynamic`].
#[inline]
pub(crate) fn equation1(graph: &UncertainGraph, v: NodeId, prev: &[f64]) -> f64 {
    let mut no_transmit = 1.0f64;
    for e in graph.in_edges(v) {
        no_transmit *= 1.0 - e.prob * prev[e.source.index()];
    }
    if no_transmit == 1.0 {
        // No (effective) in-neighbor contribution: exactly ps(v), without
        // the rounding of 1 − (1 − ps).
        return graph.self_risk(v);
    }
    1.0 - (1.0 - graph.self_risk(v)) * no_transmit
}

/// One round of the best-single-path alternative for node `v`:
/// `pl(v) = max(ps(v), max_x p(v|x) · pl(x))`.
///
/// Inductively, `pl` after `i` rounds is the maximum over walks of length
/// `< i` ending at `v` of `ps(start) · ∏ edge probs` — a walk event (the
/// start self-defaults and every edge fires) whose coins are all distinct,
/// so its probability lower-bounds `p(v)` on *every* graph, cycles
/// included. Note the combination `1 − (1 − ps)(1 − best)` would **not**
/// be safe: on a cycle the best incoming walk can start at `v` itself,
/// double-counting `v`'s self coin (caught by the system property tests).
#[inline]
pub(crate) fn best_path_step(graph: &UncertainGraph, v: NodeId, prev: &[f64]) -> f64 {
    let mut best = graph.self_risk(v);
    for e in graph.in_edges(v) {
        best = best.max(e.prob * prev[e.source.index()]);
    }
    best
}

/// Algorithm 2: order-`z` lower bounds.
///
/// Iteration 1 sets `pl(v) = ps(v)`; each further iteration feeds the
/// previous values through Equation 1. The change-propagation trick of
/// the pseudocode ("only update if an in-neighbor changed") is realized
/// with a dirty flag per node.
pub fn lower_bounds_paper(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    iterate(graph, z, equation1, |g, v| g.self_risk(v))
}

/// Safe lower bounds: same shape as Algorithm 2 but combining in-neighbor
/// contributions by `max` instead of noisy-or, which never overshoots.
pub fn lower_bounds_safe(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    iterate(graph, z, best_path_step, |g, v| g.self_risk(v))
}

/// Algorithm 3: order-`z` upper bounds. The first iteration evaluates
/// Equation 1 with all in-neighbor probabilities set to 1.
pub fn upper_bounds(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    iterate(graph, z, equation1, |_, _| 1.0)
}

/// Dispatch on the configured method, returning `(lower, upper)`.
pub fn compute_bounds(
    graph: &UncertainGraph,
    z: usize,
    method: BoundsMethod,
) -> (Vec<f64>, Vec<f64>) {
    let lower = match method {
        BoundsMethod::Paper => lower_bounds_paper(graph, z),
        BoundsMethod::Safe => lower_bounds_safe(graph, z),
    };
    (lower, upper_bounds(graph, z))
}

/// Shared iteration engine. `init(g, v)` seeds the neighbor estimates used
/// by the first application of `step`; `z` counts iterations in the
/// paper's convention (order 1 = seed values for the lower bound, one
/// application for the upper bound).
fn iterate(
    graph: &UncertainGraph,
    z: usize,
    step: impl Fn(&UncertainGraph, NodeId, &[f64]) -> f64,
    init: impl Fn(&UncertainGraph, NodeId) -> f64,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut prev: Vec<f64> = graph.nodes().map(|v| init(graph, v)).collect();
    if z <= 1 {
        // Order 1: lower bound returns the seeds (ps); upper bound's first
        // iteration already applies the step once with neighbors at 1.
        // We normalize both to "apply step z−0 times with a minimum of one
        // application for the all-ones seed", matching Algorithms 2 and 3:
        // Algorithm 2 order 1 = ps(v); Algorithm 3 order 1 = Eq.1 with 1s.
        let all_init_one = (0..n).all(|i| prev[i] == 1.0) && n > 0;
        if all_init_one {
            let cur: Vec<f64> = graph.nodes().map(|v| step(graph, v, &prev)).collect();
            return cur;
        }
        return prev;
    }
    // Dirty-flag propagation: recompute v only if some in-neighbor changed
    // in the previous round (all nodes are dirty in round 2).
    let mut dirty = vec![true; n];
    let mut rounds = z - 1;
    let all_init_one = n > 0 && prev.iter().all(|&x| x == 1.0);
    if all_init_one {
        // Upper bound: order z means z applications of Eq. 1 (the first
        // with all-ones neighbors).
        rounds = z;
    }
    let mut cur = prev.clone();
    for _ in 0..rounds {
        let mut next_dirty = vec![false; n];
        let mut changed_any = false;
        for v in graph.nodes() {
            if !dirty[v.index()] {
                continue;
            }
            let val = step(graph, v, &prev);
            if (val - cur[v.index()]).abs() > 1e-15 {
                cur[v.index()] = val;
                changed_any = true;
                for e in graph.out_edges(v) {
                    next_dirty[e.target.index()] = true;
                }
            }
        }
        prev.copy_from_slice(&cur);
        dirty = next_dirty;
        if !changed_any {
            break;
        }
    }
    cur
}

/// Interval sanity check used by tests and debug assertions: every lower
/// value ≤ its upper value, everything in `[0, 1]`.
pub fn check_interval(lower: &[f64], upper: &[f64]) -> bool {
    lower.len() == upper.len()
        && lower
            .iter()
            .zip(upper)
            .all(|(&l, &u)| (0.0..=1.0).contains(&l) && (0.0..=1.0).contains(&u) && l <= u + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    /// S → {B, C} → T with certain edges: true p(T) = ps(S) = 0.5.
    fn diamond() -> UncertainGraph {
        from_parts(
            &[0.5, 0.0, 0.0, 0.0],
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn order1_lower_is_self_risk() {
        let g = chain();
        assert_eq!(lower_bounds_paper(&g, 1), vec![0.5, 0.0, 0.0]);
        assert_eq!(lower_bounds_safe(&g, 1), vec![0.5, 0.0, 0.0]);
    }

    #[test]
    fn order1_upper_uses_all_ones() {
        let g = chain();
        let u = upper_bounds(&g, 1);
        // p(0) = ps = 0.5; p(1) = 1 − (1−0)(1 − 0.5·1) = 0.5; same for 2.
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 0.5).abs() < 1e-12);
        assert!((u[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chain_bounds_tighten_with_order() {
        // Exact chain probabilities: 0.5, 0.25, 0.125.
        let g = chain();
        let exact = [0.5, 0.25, 0.125];
        let mut prev_gap = f64::INFINITY;
        for z in 1..=5 {
            let l = lower_bounds_paper(&g, z);
            let u = upper_bounds(&g, z);
            assert!(check_interval(&l, &u));
            for v in 0..3 {
                assert!(l[v] <= exact[v] + 1e-12, "z={z} v={v} l={}", l[v]);
                assert!(u[v] >= exact[v] - 1e-12, "z={z} v={v} u={}", u[v]);
            }
            let gap: f64 = (0..3).map(|v| u[v] - l[v]).sum();
            assert!(gap <= prev_gap + 1e-12, "gap grew at z={z}");
            prev_gap = gap;
        }
        // High order converges to exact on a chain (a tree).
        let l = lower_bounds_paper(&g, 10);
        let u = upper_bounds(&g, 10);
        for v in 0..3 {
            assert!((l[v] - exact[v]).abs() < 1e-9);
            assert!((u[v] - exact[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_lower_overshoots_on_diamond_but_safe_does_not() {
        // Documents the known caveat: p(T) = 0.5 exactly, the paper
        // recursion converges to 0.75 on the sink.
        let g = diamond();
        let paper = lower_bounds_paper(&g, 5);
        assert!(paper[3] > 0.5 + 0.1, "expected overshoot, got {}", paper[3]);
        let safe = lower_bounds_safe(&g, 5);
        assert!(safe[3] <= 0.5 + 1e-12, "safe bound must hold, got {}", safe[3]);
    }

    #[test]
    fn upper_bound_valid_on_diamond() {
        let g = diamond();
        let u = upper_bounds(&g, 5);
        assert!(u[3] >= 0.5 - 1e-12);
    }

    #[test]
    fn safe_lower_below_upper_everywhere() {
        let g = diamond();
        for z in 1..=5 {
            let l = lower_bounds_safe(&g, z);
            let u = upper_bounds(&g, z);
            assert!(check_interval(&l, &u), "z = {z}");
        }
    }

    #[test]
    fn bounds_on_cyclic_graph_stay_in_unit_interval() {
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        for z in 1..=6 {
            let (l, u) = compute_bounds(&g, z, BoundsMethod::Paper);
            assert!(check_interval(&l, &u), "paper z={z}");
            let (l, u) = compute_bounds(&g, z, BoundsMethod::Safe);
            assert!(check_interval(&l, &u), "safe z={z}");
        }
    }

    #[test]
    fn isolated_nodes_keep_self_risk() {
        let g = from_parts(&[0.42, 0.17], &[], DuplicateEdgePolicy::Error).unwrap();
        for z in 1..=3 {
            assert_eq!(lower_bounds_paper(&g, z), vec![0.42, 0.17]);
            assert_eq!(upper_bounds(&g, z), vec![0.42, 0.17]);
        }
    }

    #[test]
    fn dirty_propagation_matches_full_recompute() {
        // Recompute bounds without the dirty-flag shortcut and compare.
        let g = from_parts(
            &[0.2, 0.3, 0.1, 0.4, 0.05],
            &[(0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.3), (3, 4, 0.6), (0, 4, 0.2), (1, 3, 0.7)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        for z in 2..=4 {
            let fast = lower_bounds_paper(&g, z);
            // Naive reference: z−1 full sweeps from ps.
            let mut prev: Vec<f64> = g.nodes().map(|v| g.self_risk(v)).collect();
            for _ in 0..z - 1 {
                let next: Vec<f64> = g.nodes().map(|v| super::equation1(&g, v, &prev)).collect();
                prev = next;
            }
            for v in 0..5 {
                assert!((fast[v] - prev[v]).abs() < 1e-12, "z={z} v={v}");
            }
        }
    }

    #[test]
    fn figure3_example_bounds() {
        // Paper Example 1 checks p(B) = 0.232 at order 2 on Figure 3.
        let mut b = UncertainGraph::builder(5);
        for v in 0..5 {
            b.set_self_risk(NodeId(v), 0.2).unwrap();
        }
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
        }
        let g = b.build().unwrap();
        let l = lower_bounds_paper(&g, 2);
        assert!((l[1] - 0.232).abs() < 1e-12, "p(B) = {}", l[1]);
    }
}
