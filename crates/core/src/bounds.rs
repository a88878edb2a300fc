//! Iterative lower/upper bounds on default probabilities — Algorithms 2
//! and 3 of the paper, plus a provably-safe lower-bound variant.
//!
//! Both recursions iterate Equation 1,
//! `p(v) = 1 − (1 − ps(v)) · ∏_{x ∈ N(v)} (1 − p(v|x) p(x))`,
//! starting from `p(x) = ps(x)` (lower) or `p(x) = 1` (upper). Higher
//! order `z` tightens the interval at `O(z (n + m))` cost; the paper's
//! Figure 5 shows order 2 suffices on its datasets.
//!
//! Every bound is one level sweep: level 0 is the recursion's seed, and
//! level `i` applies its step to level `i − 1` at every node. The batch
//! functions here return the last level; [`crate::IncrementalBounds`]
//! keeps every level and repairs them locally, so the two agree bit for
//! bit.
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

/// One round of Equation 1 for node `v`, reading in-neighbor `x`'s
/// estimate as `p(x)`.
#[inline]
fn equation1(graph: &UncertainGraph, v: NodeId, p: impl Fn(usize) -> f64) -> f64 {
    let no_transmit: f64 = graph.in_edges(v).map(|e| 1.0 - e.prob * p(e.source.index())).product();
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
fn best_path_step(graph: &UncertainGraph, v: NodeId, prev: &[f64]) -> f64 {
    graph.in_edges(v).fold(graph.self_risk(v), |best, e| best.max(e.prob * prev[e.source.index()]))
}

/// One bound recursion: its level-0 seed and the step that derives
/// level `i` from level `i − 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recursion {
    /// A lower recursion (Algorithm 2, or its safe variant); level 0 is
    /// `ps`, Algorithm 2's order 1.
    Lower(BoundsMethod),
    /// The upper recursion (Algorithm 3); level 0 is Equation 1 with
    /// every in-neighbor at 1, Algorithm 3's order 1.
    Upper,
}

impl Recursion {
    /// Level 0 at `v`.
    #[inline]
    pub(crate) fn seed(self, graph: &UncertainGraph, v: NodeId) -> f64 {
        match self {
            Recursion::Lower(_) => graph.self_risk(v),
            // No all-ones vector: `1 − p · 1` is exactly `1 − p`.
            Recursion::Upper => equation1(graph, v, |_| 1.0),
        }
    }

    /// Level `i` at `v` from level `i − 1` (`prev`).
    #[inline]
    pub(crate) fn step(self, graph: &UncertainGraph, v: NodeId, prev: &[f64]) -> f64 {
        match self {
            Recursion::Lower(BoundsMethod::Safe) => best_path_step(graph, v, prev),
            Recursion::Lower(BoundsMethod::Paper) | Recursion::Upper => {
                equation1(graph, v, |x| prev[x])
            }
        }
    }

    /// Levels `0..z` of the recursion, i.e. orders `1..=z`.
    pub(crate) fn levels(self, graph: &UncertainGraph, z: usize) -> Vec<Vec<f64>> {
        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(z);
        levels.push(graph.nodes().map(|v| self.seed(graph, v)).collect());
        for i in 1..z {
            let next = graph.nodes().map(|v| self.step(graph, v, &levels[i - 1])).collect();
            levels.push(next);
        }
        levels
    }

    /// The order-`z` bounds: the last level (order 0 reads as order 1).
    fn at_order(self, graph: &UncertainGraph, z: usize) -> Vec<f64> {
        self.levels(graph, z.max(1)).pop().unwrap_or_default()
    }
}

/// Algorithm 2: order-`z` lower bounds. Order 1 is `pl(v) = ps(v)`;
/// each further order feeds the previous one through Equation 1.
pub fn lower_bounds_paper(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    Recursion::Lower(BoundsMethod::Paper).at_order(graph, z)
}

/// Safe lower bounds: same shape as Algorithm 2 but combining in-neighbor
/// contributions by `max` instead of noisy-or, which never overshoots.
pub fn lower_bounds_safe(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    Recursion::Lower(BoundsMethod::Safe).at_order(graph, z)
}

/// Algorithm 3: order-`z` upper bounds. Order 1 evaluates Equation 1
/// with all in-neighbor probabilities set to 1.
pub fn upper_bounds(graph: &UncertainGraph, z: usize) -> Vec<f64> {
    Recursion::Upper.at_order(graph, z)
}

/// Dispatch on the configured method, returning `(lower, upper)`.
pub fn compute_bounds(
    graph: &UncertainGraph,
    z: usize,
    method: BoundsMethod,
) -> (Vec<f64>, Vec<f64>) {
    (Recursion::Lower(method).at_order(graph, z), upper_bounds(graph, z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    /// Every lower value ≤ its upper value, everything in `[0, 1]`.
    fn check_interval(lower: &[f64], upper: &[f64]) -> bool {
        lower.len() == upper.len()
            && lower.iter().zip(upper).all(|(&l, &u)| {
                (0.0..=1.0).contains(&l) && (0.0..=1.0).contains(&u) && l <= u + 1e-12
            })
    }

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

    /// The batch functions and the maintainer run one recursion, so they
    /// agree to the last bit — including where a level moves by less
    /// than 1e-15.
    #[test]
    fn batch_bounds_equal_the_maintainers_last_levels_bit_for_bit() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // ps(u) = 1e-7, p(v|u) = 1e-8: order 2 lifts v by ~5e-16 over 0.5.
        let tiny = from_parts(&[1e-7, 0.5], &[(0, 1, 1e-8)], DuplicateEdgePolicy::Error).unwrap();
        let mut graphs = vec![tiny];
        let mut rng = ugraph::testkit::TestRng::new(41);
        graphs.extend((0..24).map(|_| ugraph::testkit::random_graph(&mut rng, 40, 120)));
        for g in &graphs {
            for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
                for z in 1..=4 {
                    let inc = crate::dynamic::IncrementalBounds::new(g, z, method);
                    let (lower, upper) = compute_bounds(g, z, method);
                    assert_eq!(bits(&lower), bits(inc.lower()), "{method:?} z={z}");
                    assert_eq!(bits(&upper), bits(inc.upper()), "{method:?} z={z}");
                }
            }
        }
        let lower = lower_bounds_paper(&graphs[0], 2);
        assert!(lower[1] > 0.5 && lower[1] - 0.5 < 1e-15, "order-2 lower of v: {}", lower[1]);
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
