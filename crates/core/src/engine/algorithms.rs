//! The paper's five algorithms (N, SN, SR, BSR, BSRBK) as one query
//! path: [`plan`] derives what a request samples, and [`run`] reads that
//! stream, ranks, and builds the response.
//!
//! The five refine one approach, and differ only in their [`Plan`]: the
//! stream (forward over every node, reverse over a candidate set `B`, or
//! none when the bounds decide), the budget and its looks, the verified
//! nodes, and the Eq. 3/4 pair count. `run` keeps a branch only where an
//! algorithm really differs: BSRBK's certified stop, N's
//! `max(ε, delivered)`, and the bounds-only ranking of a degenerate plan.
//!
//! The algorithms are stateless: all reusable state (bounds, candidate
//! reductions, sampled-world counts) lives in the session and is reached
//! through [`EngineCtx`], so two sessions never share state and one
//! session's queries amortize each other's work.

use std::sync::Arc;
use std::time::Instant;

use ugraph::NodeId;
use vulnds_sampling::DefaultCounts;

use crate::candidates::CandidateReduction;
use crate::error::{Result, VulnError};
use crate::sample_size::{
    achieved_epsilon, basic_sample_size, kl_lower_bound, kl_upper_bound, reduced_sample_size,
};
use crate::topk::{select_top_k, ScoredNode};

use super::cache::looks_below;
use super::request::{AlgorithmKind, DetectResponse, EngineStats, ResolvedRequest, RunStats};
use super::{BoundsPair, EngineCtx};

/// What a request samples.
pub(super) enum Stream {
    /// Forward over every node (N, SN): counts index node ids.
    Forward,
    /// Reverse over the candidate set `B` (SR, BSR, BSRBK): counts index
    /// positions in `B`.
    Reverse(Vec<NodeId>),
    /// Nothing: the bounds alone decide a degenerate BSR/BSRBK plan, and
    /// `B` ranks by its bound midpoints.
    Bounds(Vec<NodeId>),
}

/// How one request executes.
///
/// Derived in exactly one place — [`plan`] — for all five algorithms,
/// and consumed both by [`run`] and by `detect_many`'s batch planner, so
/// the grouping key can never drift from what a run actually samples.
pub(super) struct Plan {
    pub stream: Stream,
    /// N's fixed budget, Eq. 3 (SN) or Eq. 4 (SR, BSR, BSRBK); 0 for
    /// [`Stream::Bounds`].
    pub budget: u64,
    /// The ascending prefixes a reverse read looks at: BSRBK's looks
    /// below the budget and then the budget, or just the budget (empty
    /// for a forward plan, which reads the budget alone).
    looks: Vec<u64>,
    /// Nodes the bounds verified into the top-k (`k'`; BSR/BSRBK only).
    pub verified: Vec<NodeId>,
    /// Result slots the stream fills (`k − k'`).
    pub k_rem: usize,
    /// The pair count `(a, b)` of the budget's bound (Eq. 3/4).
    pairs: (u64, u64),
    /// Bound vectors, for midpoint scores (empty for a forward plan,
    /// which scores no node by its bounds).
    bounds: Arc<BoundsPair>,
}

impl Plan {
    /// Score of a node that skips estimation (a verified node, or any
    /// node of a bounds-only plan): the bound-interval midpoint, the best
    /// point estimate available without sampling.
    fn midpoint(&self, v: NodeId) -> f64 {
        0.5 * (self.bounds.0[v.index()] + self.bounds.1[v.index()])
    }

    /// The final ranking: verified nodes first, by their bound midpoints,
    /// then the best `k − k'` of `scored`, truncated to `k`.
    fn rank(&self, scored: impl IntoIterator<Item = ScoredNode>, k: usize) -> Vec<ScoredNode> {
        let mut out: Vec<ScoredNode> = self
            .verified
            .iter()
            .map(|&node| ScoredNode { node, score: self.midpoint(node) })
            .collect();
        out.extend(select_top_k(scored, self.k_rem));
        out.truncate(k);
        out
    }
}

/// Derives the [`Plan`] for one resolved request. Reverse plans read the
/// session's bounds and the candidate reduction for `k`.
pub(super) fn plan(ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Plan {
    let (k, n) = (req.k, ctx.graph().num_nodes());
    let forward = |budget| Plan {
        stream: Stream::Forward,
        budget,
        looks: Vec::new(),
        verified: Vec::new(),
        k_rem: k,
        pairs: (k as u64, n.saturating_sub(k) as u64),
        bounds: Arc::default(),
    };
    match req.algorithm {
        AlgorithmKind::Naive => return forward(ctx.config().naive_samples),
        AlgorithmKind::SampledNaive => {
            let t = basic_sample_size(n, k, req.approx);
            return forward(ctx.config().cap_samples(t).max(1));
        }
        _ => {}
    }
    let bounds = ctx.bounds();
    let reduction = ctx.reduction(k);
    let hint = req.candidates.as_deref();
    let (candidates, verified) = match req.algorithm {
        AlgorithmKind::SampleReverse => (sr_candidates(&reduction, hint), Vec::new()),
        _ => (bsr_candidates(&reduction, hint), reduction.verified.clone()),
    };
    let k_rem = k - verified.len().min(k);
    let pairs = (k_rem as u64, candidates.len().saturating_sub(k_rem) as u64);
    let bounded = req.algorithm != AlgorithmKind::SampleReverse;
    let (stream, budget) = if bounded && (k_rem == 0 || candidates.len() <= k_rem) {
        (Stream::Bounds(candidates), 0)
    } else {
        let t = reduced_sample_size(candidates.len(), k_rem, req.approx);
        (Stream::Reverse(candidates), ctx.config().cap_samples(t).max(1))
    };
    let mut looks: Vec<u64> = match req.algorithm {
        AlgorithmKind::BottomK => looks_below(budget).collect(),
        _ => Vec::new(),
    };
    looks.push(budget);
    Plan { stream, budget, looks, verified, k_rem, pairs, bounds }
}

/// Answers one resolved request with the algorithm it names, using (and
/// filling) the session's caches: reads the plan's stream, ranks, and
/// builds the response. The `engine` field of the returned response is
/// left defaulted: the session overwrites it with the cache counters it
/// observed. A pass cut short by cancellation returns the degraded
/// prefix answer, or [`VulnError::Cancelled`] when no samples were drawn
/// at all.
///
/// BSRBK — BSR with a sound sequential early stop (paper §3.3, in the
/// spirit of its bottom-k stopping rule) — reads BSR's own reverse
/// stream `(seed, B)` through [`EngineCtx::reverse_counts_until`] at a
/// fixed doubling schedule of *looks* — 64, 128, 256, … worlds, every
/// one below BSR's Eq. 4 budget `t` — and then at `t` itself. Every
/// reverse-stream draw snapshots the looks it crosses, so a BSRBK read of
/// a stream BSR already drew is a cache hit, and a cold BSRBK draws the
/// same aligned superblocks BSR would, stopping at a look.
///
/// At each look, `S` is the top-`k − k'` candidates by count. Chernoff–KL
/// bounds `[L_v, U_v]` on every candidate's default probability
/// ([`kl_lower_bound`]/[`kl_upper_bound`]) hold together, over both
/// sides, all `|B|` candidates and every look, with probability at
/// least `1 − δ/2`. On that event every pair straddling the boundary of
/// `S` is ordered up to `ε_i = max(0, max_{v∉S} U_v − min_{u∈S} L_u)`,
/// which gives Definition 2 at `ε_i`. BSRBK stops at the first look
/// with `ε_i ≤ ε` and answers with that prefix's ranking (reporting the
/// requested `ε`). If no look certifies, it returns BSR's answer at `t`
/// bit for bit and reports `min(ε_t, achieved_epsilon(a, b, δ/2, t))`:
/// Eq. 4's pair bound at the other half of `δ`.
///
/// The stop look is a pure function of the graph, seed and request, so
/// `sample_cap` replays stay bit-exact; a cut (cancellation or cap)
/// degrades exactly as BSR's does, at the Eq. 4 inversion for `δ/2`.
///
/// N's budget ignores `(ε, δ)`, so a full N pass reports the requested
/// `ε` or, when the budget is below Eq. 3's, the wider `ε` its samples
/// deliver at the request's `δ`.
pub(super) fn run(ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
    // xlint: allow(no-wall-clock) — `elapsed` is a reported
    // diagnostic; no answer bit depends on the clock.
    let start = Instant::now();
    let plan = plan(ctx, req);
    let (epsilon, delta) = (req.approx.epsilon(), req.approx.delta());
    // BSRBK's certified stop: δ/2 spread over both sides of all |B|
    // candidates at every look.
    let stop = match (&plan.stream, req.algorithm) {
        (Stream::Reverse(b), AlgorithmKind::BottomK) => {
            Some((4.0 * b.len() as f64 * plan.looks.len() as f64 / delta).ln())
        }
        _ => None,
    };
    // The certified ε at the last look read (a cap below a look is
    // read but never certified: the union bound covers looks only).
    let mut certified: Option<(u64, f64)> = None;
    let counts = match &plan.stream {
        Stream::Forward => ctx.forward_counts(plan.budget, req.seed),
        Stream::Reverse(b) => ctx.reverse_counts_until(b, &plan.looks, req.seed, |counts| {
            // SR and BSR accept their one look, the budget.
            let log_inv_alpha = stop?;
            if plan.looks.binary_search(&counts.samples()).is_err() {
                return Some(0);
            }
            let look = certified_epsilon(counts, plan.k_rem, log_inv_alpha);
            certified = Some((counts.samples(), look.epsilon));
            (look.epsilon > epsilon).then(|| look.ahead(epsilon))
        }),
        Stream::Bounds(_) => Arc::new(DefaultCounts::new(0)),
    };
    let samples_used = counts.samples();
    if samples_used == 0 && plan.budget > 0 {
        return Err(VulnError::Cancelled);
    }
    let short = samples_used < plan.budget;
    let at_used = certified.filter(|&(n, _)| n == samples_used).map(|(_, e)| e);
    let early_stopped = short && at_used.is_some_and(|e| e <= epsilon);
    let degraded = short && !early_stopped;
    let (a, b) = plan.pairs;
    let achieved_epsilon = if stop.is_some() && !early_stopped {
        achieved_epsilon(a, b, delta / 2.0, samples_used).min(at_used.unwrap_or(f64::INFINITY))
    } else if degraded {
        achieved_epsilon(a, b, delta, samples_used)
    } else if req.algorithm == AlgorithmKind::Naive {
        epsilon.max(achieved_epsilon(a, b, delta, samples_used))
    } else {
        epsilon
    };
    let estimate = |i: usize, node: NodeId| ScoredNode { node, score: counts.estimate(i) };
    let (candidates, top_k) = match &plan.stream {
        Stream::Forward => {
            let n = counts.len();
            (n, plan.rank((0..n).map(|i| estimate(i, NodeId(i as u32))), req.k))
        }
        Stream::Reverse(b) => {
            (b.len(), plan.rank(b.iter().enumerate().map(|(i, &v)| estimate(i, v)), req.k))
        }
        Stream::Bounds(b) => {
            let midpoints = b.iter().map(|&node| ScoredNode { node, score: plan.midpoint(node) });
            (b.len(), plan.rank(midpoints, req.k))
        }
    };
    Ok(DetectResponse {
        top_k,
        stats: RunStats {
            algorithm: req.algorithm,
            sample_budget: plan.budget,
            samples_used,
            candidates,
            verified: plan.verified.len(),
            early_stopped,
            elapsed: start.elapsed(),
        },
        engine: EngineStats::default(),
        degraded,
        achieved_epsilon,
    })
}

/// SR's candidate set: rule 2 only — verified nodes fold back into the
/// candidate pool (or the request's hint replaces the whole set).
fn sr_candidates(reduction: &CandidateReduction, hint: Option<&[NodeId]>) -> Vec<NodeId> {
    if let Some(hint) = hint {
        return hint.to_vec();
    }
    let mut candidates = reduction.verified.clone();
    candidates.extend(reduction.candidates.iter().copied());
    candidates.sort_unstable_by_key(|v| v.0);
    candidates
}

/// BSR/BSRBK's candidate set `B`: the reduction's candidates, or the
/// request's hint minus the already-verified nodes.
fn bsr_candidates(reduction: &CandidateReduction, hint: Option<&[NodeId]>) -> Vec<NodeId> {
    match hint {
        None => reduction.candidates.clone(),
        Some(hint) => hint.iter().copied().filter(|v| !reduction.verified.contains(v)).collect(),
    }
}

/// What one look certifies, and how far off a certifying look is.
struct Look {
    /// Samples read.
    n: u64,
    /// `max(0, max_{v∉S} U_v − min_{u∈S} L_u)`.
    epsilon: f64,
    /// The empirical gap `p̂_{k_rem+1} − p̂_{k_rem}` (≤ 0) inside it.
    gap: f64,
}

impl Look {
    /// The prefix at which the look's bound widths, shrinking as `1/√n`
    /// around the current gap, would certify `target`: a draw-ahead
    /// hint for the next read (see [`EngineCtx::reverse_counts_until`]),
    /// which changes what is drawn, never the answer.
    fn ahead(&self, target: f64) -> u64 {
        let widths = (self.epsilon - self.gap) / (target - self.gap);
        (self.n as f64 * widths * widths).min(u64::MAX as f64) as u64
    }
}

/// The `ε` one look certifies: with `S` the top-`k_rem` candidates by
/// count, `max(0, max_{v∉S} U_v − min_{u∈S} L_u)`. Both bounds are
/// monotone in the count, so the extremes are the bounds of the
/// `(k_rem + 1)`-th and the `k_rem`-th largest counts, which one
/// selection finds without sorting all `|B|`.
fn certified_epsilon(counts: &DefaultCounts, k_rem: usize, log_inv_alpha: f64) -> Look {
    let n = counts.samples();
    let mut all: Vec<u64> = (0..counts.len()).map(|i| counts.count(i)).collect();
    let (above, &mut outside, _) = all.select_nth_unstable_by(k_rem, |a, b| b.cmp(a));
    let inside = above.iter().copied().min().unwrap_or(outside);
    let gap = kl_upper_bound(outside, n, log_inv_alpha) - kl_lower_bound(inside, n, log_inv_alpha);
    Look { n, epsilon: gap.max(0.0), gap: (outside as f64 - inside as f64) / n as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::compute_bounds;
    use crate::candidates::reduce_candidates;
    use crate::config::VulnConfig;
    use crate::engine::{DetectRequest, Detector};
    use ugraph::{from_parts, DuplicateEdgePolicy, UncertainGraph};

    /// One cold session answering one request: the harness of the
    /// per-algorithm suites below.
    fn detect(
        graph: &UncertainGraph,
        k: usize,
        kind: AlgorithmKind,
        config: &VulnConfig,
    ) -> Result<DetectResponse> {
        Detector::builder(graph)
            .config(config.clone())
            .build()?
            .detect(&DetectRequest::new(k, kind))
    }

    #[test]
    fn sr_candidates_fold_verified_back_in() {
        let r = CandidateReduction {
            verified: vec![NodeId(3)],
            candidates: vec![NodeId(0), NodeId(5)],
            t_lower: 0.1,
            t_upper: 0.9,
        };
        assert_eq!(sr_candidates(&r, None), vec![NodeId(0), NodeId(3), NodeId(5)]);
        assert_eq!(sr_candidates(&r, Some(&[NodeId(1)])), vec![NodeId(1)]);
    }

    #[test]
    fn bsr_candidates_exclude_verified_from_hint() {
        let r = CandidateReduction {
            verified: vec![NodeId(3)],
            candidates: vec![NodeId(0), NodeId(5)],
            t_lower: 0.1,
            t_upper: 0.9,
        };
        assert_eq!(bsr_candidates(&r, None), vec![NodeId(0), NodeId(5)]);
        assert_eq!(
            bsr_candidates(&r, Some(&[NodeId(1), NodeId(3), NodeId(5)])),
            vec![NodeId(1), NodeId(5)]
        );
    }

    fn prune(g: &UncertainGraph, k: usize) -> (Vec<f64>, Vec<f64>, CandidateReduction) {
        let cfg = VulnConfig::default();
        let (lower, upper) = compute_bounds(g, cfg.bound_order, cfg.bounds_method);
        let reduction = reduce_candidates(&lower, &upper, k);
        (lower, upper, reduction)
    }

    #[test]
    fn prune_produces_consistent_reduction() {
        let g = from_parts(
            &[0.9, 0.1, 0.1, 0.05],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let (lower, upper, reduction) = prune(&g, 2);
        assert_eq!(lower.len(), 4);
        assert_eq!(upper.len(), 4);
        // Verified + candidates never exceeds n, covers at least k.
        let total = reduction.verified_count() + reduction.candidate_count();
        assert!(total >= 2);
        assert!(total <= 4);
    }

    #[test]
    fn assemble_orders_verified_first() {
        let g = from_parts(&[0.9, 0.2, 0.1], &[(0, 1, 0.9)], DuplicateEdgePolicy::Error).unwrap();
        let d = Detector::builder(&g).build().unwrap();
        let epoch = d.state.pin();
        let req = DetectRequest::new(2, AlgorithmKind::BoundedSampleReverse);
        let resolved = req.resolve(&epoch.graph, d.config()).unwrap();
        let plan = plan(&mut d.ctx(&epoch), &resolved);
        let (lower, upper, reduction) = prune(&g, 2);
        let cands = reduction.candidates.clone();
        let scored = cands.iter().map(|&node| ScoredNode { node, score: 1.0 });
        let out = plan.rank(scored, 2);
        assert_eq!(out.len(), 2);
        // Any verified node must appear before non-verified ones, scored
        // by its bound midpoint.
        for (i, v) in reduction.verified.iter().enumerate() {
            assert_eq!(out[i].node, *v);
            assert_eq!(out[i].score, 0.5 * (lower[v.index()] + upper[v.index()]));
        }
    }

    /// `N` — Algorithm 1 with a fixed sample budget.
    mod naive {
        use super::*;

        fn detect_naive(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::Naive, config).unwrap()
        }

        fn chain() -> UncertainGraph {
            from_parts(&[0.6, 0.0, 0.0], &[(0, 1, 0.9), (1, 2, 0.9)], DuplicateEdgePolicy::Error)
                .unwrap()
        }

        #[test]
        fn finds_obvious_ranking() {
            // p = (0.6, 0.54, 0.486): ranking 0 > 1 > 2.
            let g = chain();
            let cfg = VulnConfig::default().with_seed(1);
            let r = detect_naive(&g, 2, &cfg);
            assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
            assert_eq!(r.stats.samples_used, cfg.naive_samples);
            assert_eq!(r.stats.candidates, 3);
        }

        #[test]
        fn deterministic_given_seed() {
            let g = chain();
            let cfg = VulnConfig::default().with_seed(7);
            assert_eq!(detect_naive(&g, 2, &cfg).top_k, detect_naive(&g, 2, &cfg).top_k);
        }

        #[test]
        fn parallel_matches_sequential() {
            let g = chain();
            let seq = detect_naive(&g, 2, &VulnConfig::default().with_seed(3));
            let par = detect_naive(&g, 2, &VulnConfig::default().with_seed(3).with_threads(4));
            assert_eq!(seq.top_k, par.top_k);
        }

        #[test]
        fn rejects_zero_k() {
            let r = detect(&chain(), 0, AlgorithmKind::Naive, &VulnConfig::default());
            assert_eq!(r.unwrap_err(), VulnError::InvalidK { k: 0, n: 3 });
        }

        #[test]
        fn rejects_oversized_k() {
            let r = detect(&chain(), 4, AlgorithmKind::Naive, &VulnConfig::default());
            assert_eq!(r.unwrap_err(), VulnError::InvalidK { k: 4, n: 3 });
        }
    }

    /// `SN` — Algorithm 1 with the sample size of Equation 3, making it
    /// an `(ε, δ)`-approximation (Theorem 4).
    mod sn {
        use super::*;

        fn detect_sn(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::SampledNaive, config).unwrap()
        }

        fn graph() -> UncertainGraph {
            from_parts(
                &[0.7, 0.05, 0.05, 0.05, 0.05],
                &[(0, 1, 0.8), (1, 2, 0.8), (2, 3, 0.2), (3, 4, 0.2)],
                DuplicateEdgePolicy::Error,
            )
            .unwrap()
        }

        #[test]
        fn uses_equation3_budget() {
            let g = graph();
            let cfg = VulnConfig::default();
            let r = detect_sn(&g, 2, &cfg);
            assert_eq!(r.stats.sample_budget, basic_sample_size(5, 2, cfg.approx));
            assert_eq!(r.stats.algorithm, AlgorithmKind::SampledNaive);
        }

        #[test]
        fn finds_clear_winner() {
            let g = graph();
            let r = detect_sn(&g, 1, &VulnConfig::default().with_seed(11));
            assert_eq!(r.node_ids(), vec![NodeId(0)]);
        }

        #[test]
        fn respects_sample_cap() {
            let g = graph();
            let r = detect_sn(&g, 2, &VulnConfig::default().with_max_samples(10));
            assert_eq!(r.stats.sample_budget, 10);
        }

        #[test]
        fn k_equals_n_needs_one_sample_only() {
            // Eq. 3 is 0 for k = n (no pairs to order); the implementation
            // clamps to ≥ 1 sample so estimates exist.
            let g = graph();
            let r = detect_sn(&g, 5, &VulnConfig::default());
            assert_eq!(r.stats.sample_budget, 1);
            assert_eq!(r.top_k.len(), 5);
        }
    }

    /// `SR` — reverse sampling over the candidate set derived with the
    /// *second* rule of Lemma 1 only (no verification).
    mod sr {
        use super::*;

        fn detect_sr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::SampleReverse, config).unwrap()
        }

        fn graph() -> UncertainGraph {
            from_parts(
                &[0.8, 0.1, 0.05, 0.02, 0.01],
                &[(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.3), (3, 4, 0.1)],
                DuplicateEdgePolicy::Error,
            )
            .unwrap()
        }

        #[test]
        fn finds_clear_top2() {
            // p ≈ (0.8, 0.748, 0.4, 0.13, 0.02).
            let g = graph();
            let r = detect_sr(&g, 2, &VulnConfig::default().with_seed(5));
            assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
            assert_eq!(r.stats.verified, 0, "SR never verifies");
        }

        #[test]
        fn candidate_set_is_at_most_n() {
            let g = graph();
            let r = detect_sr(&g, 2, &VulnConfig::default());
            assert!(r.stats.candidates <= 5);
            assert!(r.stats.candidates >= 2);
        }

        #[test]
        fn parallel_matches_sequential() {
            let g = graph();
            let seq = detect_sr(&g, 2, &VulnConfig::default().with_seed(9));
            let par = detect_sr(&g, 2, &VulnConfig::default().with_seed(9).with_threads(3));
            assert_eq!(seq.top_k, par.top_k);
        }

        #[test]
        fn sample_cap_respected() {
            let g = graph();
            let r = detect_sr(&g, 2, &VulnConfig::default().with_max_samples(7));
            assert!(r.stats.sample_budget <= 7);
        }
    }

    /// `BSR` — bounds + verification + reverse sampling with the reduced
    /// sample size of Equation 4 (Theorem 5).
    mod bsr {
        use super::*;

        fn detect_bsr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::BoundedSampleReverse, config).unwrap()
        }

        fn skewed() -> UncertainGraph {
            // One dominant node, a mid-tier pair, a long tail of safe nodes.
            let mut risks = vec![0.95, 0.5, 0.45];
            risks.extend(std::iter::repeat_n(0.01, 30));
            let edges: Vec<(u32, u32, f64)> = (3..32).map(|v| (0u32, v as u32, 0.02)).collect();
            from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap()
        }

        #[test]
        fn finds_dominant_nodes() {
            let g = skewed();
            let r = detect_bsr(&g, 3, &VulnConfig::default().with_seed(2));
            let mut ids = r.node_ids();
            ids.sort_unstable_by_key(|v| v.0);
            assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        }

        #[test]
        fn budget_not_larger_than_sn() {
            // Equation 4 is the point of BSR: with pruning, never more
            // samples than Equation 3.
            let g = skewed();
            let cfg = VulnConfig::default();
            let r = detect_bsr(&g, 3, &cfg);
            let sn_budget = basic_sample_size(g.num_nodes(), 3, cfg.approx);
            assert!(
                r.stats.sample_budget <= sn_budget,
                "bsr {} > sn {sn_budget}",
                r.stats.sample_budget
            );
        }

        #[test]
        fn pruning_shrinks_candidates() {
            let g = skewed();
            let r = detect_bsr(&g, 3, &VulnConfig::default());
            assert!(
                r.stats.candidates < g.num_nodes(),
                "no pruning happened: {} candidates",
                r.stats.candidates
            );
        }

        #[test]
        fn zero_sampling_when_bounds_decide() {
            // Distinct deterministic risks and no edges: bounds are exact
            // and everything is verified.
            let g = from_parts(&[0.9, 0.7, 0.5, 0.3], &[], DuplicateEdgePolicy::Error).unwrap();
            let r = detect_bsr(&g, 2, &VulnConfig::default());
            assert_eq!(r.stats.samples_used, 0);
            assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
            assert_eq!(r.stats.verified, 2);
        }

        #[test]
        fn result_always_has_k_entries() {
            let g = skewed();
            for k in [1, 2, 5, 10, 33] {
                let r = detect_bsr(&g, k, &VulnConfig::default());
                assert_eq!(r.top_k.len(), k, "k = {k}");
            }
        }

        #[test]
        fn parallel_matches_sequential() {
            let g = skewed();
            let seq = detect_bsr(&g, 3, &VulnConfig::default().with_seed(4));
            let par = detect_bsr(&g, 3, &VulnConfig::default().with_seed(4).with_threads(4));
            assert_eq!(seq.top_k, par.top_k);
        }
    }

    /// `BSRBK` — BSR plus a sound sequential early stop (paper §3.3),
    /// read off BSR's cached reverse stream.
    mod bsrbk {
        use super::*;
        use crate::config::ApproxParams;
        use crate::engine::tests::random_graph;
        use crate::exact::{ground_truth, PAPER_GROUND_TRUTH_SAMPLES};
        use crate::precision::precision_with_ties;
        use vulnds_sampling::Xoshiro256pp;

        fn detect_bsrbk(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::BottomK, config).unwrap()
        }

        fn detect_bsr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
            detect(graph, k, AlgorithmKind::BoundedSampleReverse, config).unwrap()
        }

        /// Financial-style skew (a few clearly risky nodes, most tiny):
        /// the top of the ranking is separated, so sampling can certify
        /// it early.
        fn skewed_graph(seed: u64) -> UncertainGraph {
            let n = 300usize;
            let mut rng = Xoshiro256pp::new(seed);
            let risks: Vec<f64> = (0..n)
                .map(|_| {
                    let r = rng.next_f64();
                    0.9 * r * r * r // cubic skew: most tiny, a few large
                })
                .collect();
            let mut edges = Vec::new();
            while edges.len() < 500 {
                let u = rng.next_bounded(n as u64) as u32;
                let v = rng.next_bounded(n as u64) as u32;
                if u != v {
                    edges.push((u, v, rng.next_f64() * 0.3));
                }
            }
            from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
        }

        #[test]
        fn early_stops_when_the_sampled_boundary_is_separated() {
            let g = skewed_graph(29);
            let approx = ApproxParams::new(0.1, 0.1).unwrap();
            let cfg = VulnConfig::default().with_seed(29).with_approx(approx);
            let r = detect_bsrbk(&g, 5, &cfg);
            assert!(r.stats.candidates > 0, "bounds resolved everything; test graph too easy");
            assert!(r.stats.early_stopped, "expected early stop; stats: {:?}", r.stats);
            assert!(r.stats.samples_used < r.stats.sample_budget);
            assert!(r.stats.samples_used.is_power_of_two(), "stops only at a look");
            assert_eq!(r.top_k.len(), 5);
        }

        #[test]
        fn a_crowded_boundary_runs_to_the_cap_and_answers_like_bsr() {
            // Uniform risks crowd the top-5 boundary: no look certifies ε,
            // so BSRBK returns BSR's answer at the full budget.
            let g = random_graph(300, 600, 3);
            let cfg = VulnConfig::default().with_seed(3);
            let (bk, bsr) = (detect_bsrbk(&g, 5, &cfg), detect_bsr(&g, 5, &cfg));
            assert!(!bk.stats.early_stopped);
            assert_eq!(bk.stats.samples_used, bsr.stats.sample_budget);
            assert_eq!(bk.top_k, bsr.top_k);
        }

        #[test]
        fn uses_fewer_samples_than_bsr() {
            let g = random_graph(400, 800, 5);
            let cfg = VulnConfig::default().with_seed(5);
            let bsr = detect_bsr(&g, 10, &cfg);
            let bk = detect_bsrbk(&g, 10, &cfg);
            assert!(
                bk.stats.samples_used <= bsr.stats.samples_used,
                "bsrbk {} > bsr {}",
                bk.stats.samples_used,
                bsr.stats.samples_used
            );
        }

        #[test]
        fn falls_back_gracefully_on_tiny_budget() {
            // A budget below the first look: nothing to certify, so no
            // early stop, and still k nodes.
            let g = random_graph(100, 200, 7);
            let cfg = VulnConfig::default().with_seed(7).with_max_samples(5);
            let r = detect_bsrbk(&g, 3, &cfg);
            assert!(!r.stats.early_stopped);
            assert_eq!(r.top_k.len(), 3);
            assert_eq!(r.stats.samples_used, r.stats.sample_budget);
        }

        #[test]
        fn deterministic() {
            let g = random_graph(150, 300, 11);
            let cfg = VulnConfig::default().with_seed(11);
            assert_eq!(detect_bsrbk(&g, 3, &cfg).top_k, detect_bsrbk(&g, 3, &cfg).top_k);
        }

        #[test]
        fn returned_nodes_are_near_the_true_boundary() {
            // Every returned node's true probability should sit near or
            // above the true k-th value: the default ε = 0.3 contract, on
            // a crowded uniform boundary, with a tolerance of 0.15.
            let g = random_graph(300, 600, 13);
            let cfg = VulnConfig::default().with_seed(13);
            let k = 15;
            let truth = ground_truth(&g, PAPER_GROUND_TRUTH_SAMPLES, 999, 1);
            let r = detect_bsrbk(&g, k, &cfg);
            let p = precision_with_ties(&r.top_k, &truth, k, 0.15);
            assert!(p >= 0.8, "tolerant precision {p} too low");
        }

        #[test]
        fn high_precision_on_skewed_risks() {
            // Financial-style skew: BSRBK should match the true top-k
            // almost exactly, as in the paper's Figure 7.
            let g = skewed_graph(29);
            let truth = ground_truth(&g, PAPER_GROUND_TRUTH_SAMPLES, 777, 1);
            let k = 10;
            let r = detect_bsrbk(&g, k, &VulnConfig::default().with_seed(29));
            let p = precision_with_ties(&r.top_k, &truth, k, 0.02);
            assert!(p >= 0.7, "precision {p} too low on skewed risks");
        }

        #[test]
        fn verified_nodes_always_included() {
            let mut risks = vec![0.99];
            risks.extend(std::iter::repeat_n(0.2, 50));
            let edges: Vec<(u32, u32, f64)> = (1..=50).map(|v| (v as u32, 0u32, 0.1)).collect();
            let g = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
            let r = detect_bsrbk(&g, 3, &VulnConfig::default().with_seed(1));
            assert!(r.node_ids().contains(&NodeId(0)), "dominant node missing");
        }
    }
}
