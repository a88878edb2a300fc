//! The object-safe [`Algorithm`] trait and one implementation per paper
//! algorithm (N, SN, SR, BSR, BSRBK).
//!
//! Implementations are stateless: all reusable state (bounds, candidate
//! reductions, sampled-world counts) lives in the session and is reached
//! through [`EngineCtx`], so two sessions never share state and one
//! session's queries amortize each other's work.

use std::time::Instant;

use ugraph::NodeId;
use vulnds_sampling::{BlockKernel, WorldBlock, LANES};
use vulnds_sketch::{bottomk_default_probability, hash_order, UnitHasher};

use crate::algo::reverse_common::{assemble_result, merge_verified, Pruned};
use crate::algo::{AlgorithmKind, RunStats};
use crate::candidates::CandidateReduction;
use crate::error::{Result, VulnError};
use crate::sample_size::{achieved_epsilon, basic_sample_size, reduced_sample_size};
use crate::topk::{select_top_k, select_top_k_dense, ScoredNode};

use super::request::{DetectResponse, EngineStats, ResolvedRequest};
use super::EngineCtx;

/// Seed domain separator so the BSRBK sample-order hash never correlates
/// with the possible-world RNG streams.
const HASH_DOMAIN: u64 = 0xB077_0A6B_5EED_0001;

/// One detection algorithm, runnable inside a [`Detector`](super::Detector)
/// session.
///
/// The trait is object-safe; [`algorithm`] returns the built-in
/// implementation for each [`AlgorithmKind`]. The `engine` field of the
/// returned response is overwritten by the session with the cache
/// counters it observed, so implementations may leave it defaulted.
pub trait Algorithm {
    /// Which paper algorithm this is.
    fn kind(&self) -> AlgorithmKind;

    /// Answers one resolved request using (and filling) the session's
    /// caches.
    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse>;
}

/// The built-in implementation of each paper algorithm.
pub fn algorithm(kind: AlgorithmKind) -> &'static dyn Algorithm {
    match kind {
        AlgorithmKind::Naive => &NaiveMonteCarlo,
        AlgorithmKind::SampledNaive => &SampledNaive,
        AlgorithmKind::SampleReverse => &SampleReverse,
        AlgorithmKind::BoundedSampleReverse => &BoundedSampleReverse,
        AlgorithmKind::BottomK => &BottomKEarlyStop,
    }
}

/// The degradation outcome of one sampling pass: whether the pass fell
/// short of its budget and the `ε` the answer still satisfies. `a · b`
/// is the pair count of the algorithm's bound (Eq. 3/4).
fn epsilon_outcome(req: &ResolvedRequest, a: u64, b: u64, budget: u64, used: u64) -> (bool, f64) {
    let degraded = used < budget;
    let achieved = if degraded {
        achieved_epsilon(a, b, req.approx.delta(), used)
    } else {
        req.approx.epsilon()
    };
    (degraded, achieved)
}

/// Shared by N and SN: forward-sample `t` worlds (through the session
/// cache), estimate every node's default probability, return the top-k.
/// A pass cut short by cancellation returns the degraded prefix answer,
/// or [`VulnError::Cancelled`] when no samples were drawn at all.
fn forward_detect(
    ctx: &mut EngineCtx<'_>,
    req: &ResolvedRequest,
    t: u64,
    kind: AlgorithmKind,
) -> Result<DetectResponse> {
    // xlint: allow(no-wall-clock) — `elapsed` is a reported
    // diagnostic; no answer bit depends on the clock.
    let start = Instant::now();
    let counts = ctx.forward_counts(t, req.seed);
    let samples_used = counts.samples();
    if samples_used == 0 && t > 0 {
        return Err(VulnError::Cancelled);
    }
    let n = ctx.graph().num_nodes();
    let (degraded, achieved) =
        epsilon_outcome(req, req.k as u64, n.saturating_sub(req.k) as u64, t, samples_used);
    let top_k = select_top_k_dense(&counts.estimates(), req.k);
    Ok(DetectResponse {
        top_k,
        stats: RunStats {
            algorithm: kind,
            sample_budget: t,
            samples_used,
            candidates: n,
            verified: 0,
            early_stopped: false,
            elapsed: start.elapsed(),
        },
        engine: EngineStats::default(),
        degraded,
        achieved_epsilon: achieved,
    })
}

/// `N` — Algorithm 1 with the fixed budget of
/// [`VulnConfig::naive_samples`](crate::VulnConfig::naive_samples).
pub struct NaiveMonteCarlo;

impl Algorithm for NaiveMonteCarlo {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Naive
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
        let t = ctx.config().naive_samples;
        forward_detect(ctx, req, t, AlgorithmKind::Naive)
    }
}

/// `SN` — Algorithm 1 with the Equation-3 sample size (Theorem 4).
pub struct SampledNaive;

impl Algorithm for SampledNaive {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::SampledNaive
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
        let t = sn_budget(ctx, req);
        forward_detect(ctx, req, t, AlgorithmKind::SampledNaive)
    }
}

/// SN's Equation-3 budget, shared with the batch planner.
pub(super) fn sn_budget(ctx: &EngineCtx<'_>, req: &ResolvedRequest) -> u64 {
    ctx.config().cap_samples(basic_sample_size(ctx.graph().num_nodes(), req.k, req.approx)).max(1)
}

/// SR's candidate set: rule 2 only — verified nodes fold back into the
/// candidate pool (or the request's hint replaces the whole set).
pub(super) fn sr_candidates(
    reduction: &CandidateReduction,
    hint: Option<&[NodeId]>,
) -> Vec<NodeId> {
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
pub(super) fn bsr_candidates(
    reduction: &CandidateReduction,
    hint: Option<&[NodeId]>,
) -> Vec<NodeId> {
    match hint {
        None => reduction.candidates.clone(),
        Some(hint) => hint.iter().copied().filter(|v| !reduction.verified.contains(v)).collect(),
    }
}

/// How a reverse-sampling request (SR/BSR/BSRBK) will execute: its
/// candidate set, verification split, and sample budget.
///
/// Derived in exactly one place — [`reverse_plan`] — and consumed both by
/// the `Algorithm` implementations and by `detect_many`'s batch planner,
/// so the grouping key can never drift from what a run actually samples.
pub(super) struct ReversePlan {
    /// The set `B` sampling estimates (candidate positions index counts).
    pub candidates: Vec<NodeId>,
    /// Nodes the bounds verified into the top-k (`k'`; 0 for SR).
    pub k_verified: usize,
    /// Result slots left open (`k − k'`; `k` for SR).
    pub k_rem: usize,
    /// The bounds alone decide everything: no sampling (BSR/BSRBK only).
    pub degenerate: bool,
    /// Equation-4 budget (0 when degenerate).
    pub budget: u64,
}

/// Derives the [`ReversePlan`] for one resolved request.
pub(super) fn reverse_plan(ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> ReversePlan {
    let reduction = ctx.reduction(req.k);
    let hint = req.candidates.as_deref();
    if req.algorithm == AlgorithmKind::SampleReverse {
        let candidates = sr_candidates(&reduction, hint);
        let budget = ctx
            .config()
            .cap_samples(reduced_sample_size(candidates.len(), req.k, req.approx))
            .max(1);
        return ReversePlan { candidates, k_verified: 0, k_rem: req.k, degenerate: false, budget };
    }
    let k_verified = reduction.verified_count();
    let k_rem = req.k - k_verified.min(req.k);
    let candidates = bsr_candidates(&reduction, hint);
    let degenerate = k_rem == 0 || candidates.len() <= k_rem;
    let budget = if degenerate {
        0
    } else {
        ctx.config().cap_samples(reduced_sample_size(candidates.len(), k_rem, req.approx)).max(1)
    };
    ReversePlan { candidates, k_verified, k_rem, degenerate, budget }
}

/// The sampling-free answer for a degenerate BSR/BSRBK plan: open slots
/// are filled by bound midpoints, verified nodes lead. Never degraded:
/// there is no sampling pass to cut short.
fn degenerate_response(
    req: &ResolvedRequest,
    pruned: &Pruned<'_>,
    plan: &ReversePlan,
    k: usize,
    kind: AlgorithmKind,
    start: Instant,
) -> DetectResponse {
    let chosen = select_top_k(
        plan.candidates.iter().map(|&node| ScoredNode { node, score: pruned.midpoint_score(node) }),
        plan.k_rem,
    );
    let top_k = merge_verified(pruned, chosen, k);
    DetectResponse {
        top_k,
        stats: RunStats {
            algorithm: kind,
            sample_budget: 0,
            samples_used: 0,
            candidates: plan.candidates.len(),
            verified: plan.k_verified,
            early_stopped: false,
            elapsed: start.elapsed(),
        },
        engine: EngineStats::default(),
        degraded: false,
        achieved_epsilon: req.approx.epsilon(),
    }
}

/// `SR` — reverse sampling over the rule-2 candidate set, no
/// verification.
pub struct SampleReverse;

impl Algorithm for SampleReverse {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::SampleReverse
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
        // xlint: allow(no-wall-clock) — `elapsed` is a reported
        // diagnostic; no answer bit depends on the clock.
        let start = Instant::now();
        let bounds = ctx.bounds();
        let reduction = ctx.reduction(req.k);
        let plan = reverse_plan(ctx, req);
        let counts = ctx.reverse_counts(&plan.candidates, plan.budget, req.seed);
        let samples_used = counts.samples();
        if samples_used == 0 && plan.budget > 0 {
            return Err(VulnError::Cancelled);
        }
        let (degraded, achieved) = epsilon_outcome(
            req,
            req.k as u64,
            plan.candidates.len().saturating_sub(req.k) as u64,
            plan.budget,
            samples_used,
        );

        // Rank purely by estimates: an empty verified set in the view.
        let unverified = CandidateReduction {
            verified: Vec::new(),
            candidates: plan.candidates.clone(),
            t_lower: reduction.t_lower,
            t_upper: reduction.t_upper,
        };
        let pruned = Pruned { lower: &bounds.0, upper: &bounds.1, reduction: &unverified };
        let top_k = assemble_result(&pruned, &plan.candidates, &counts, req.k);
        Ok(DetectResponse {
            top_k,
            stats: RunStats {
                algorithm: AlgorithmKind::SampleReverse,
                sample_budget: plan.budget,
                samples_used,
                candidates: plan.candidates.len(),
                verified: 0,
                early_stopped: false,
                elapsed: start.elapsed(),
            },
            engine: EngineStats::default(),
            degraded,
            achieved_epsilon: achieved,
        })
    }
}

/// `BSR` — bounds + verification + reverse sampling with the Equation-4
/// budget (Theorem 5).
pub struct BoundedSampleReverse;

impl Algorithm for BoundedSampleReverse {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::BoundedSampleReverse
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
        // xlint: allow(no-wall-clock) — `elapsed` is a reported
        // diagnostic; no answer bit depends on the clock.
        let start = Instant::now();
        let bounds = ctx.bounds();
        let reduction = ctx.reduction(req.k);
        let plan = reverse_plan(ctx, req);
        let pruned = Pruned { lower: &bounds.0, upper: &bounds.1, reduction: &reduction };

        // Degenerate cases: everything decided by the bounds alone.
        if plan.degenerate {
            return Ok(degenerate_response(
                req,
                &pruned,
                &plan,
                req.k,
                AlgorithmKind::BoundedSampleReverse,
                start,
            ));
        }

        let counts = ctx.reverse_counts(&plan.candidates, plan.budget, req.seed);
        let samples_used = counts.samples();
        if samples_used == 0 && plan.budget > 0 {
            return Err(VulnError::Cancelled);
        }
        let (degraded, achieved) = epsilon_outcome(
            req,
            plan.k_rem as u64,
            plan.candidates.len().saturating_sub(plan.k_rem) as u64,
            plan.budget,
            samples_used,
        );
        let top_k = assemble_result(&pruned, &plan.candidates, &counts, req.k);
        Ok(DetectResponse {
            top_k,
            stats: RunStats {
                algorithm: AlgorithmKind::BoundedSampleReverse,
                sample_budget: plan.budget,
                samples_used,
                candidates: plan.candidates.len(),
                verified: plan.k_verified,
                early_stopped: false,
                elapsed: start.elapsed(),
            },
            engine: EngineStats::default(),
            degraded,
            achieved_epsilon: achieved,
        })
    }
}

/// `BSRBK` — BSR plus the bottom-k early-stopping rule (paper §3.3,
/// Theorem 6).
///
/// The sampling pass is adaptive (which worlds are visited depends on
/// when candidates saturate), so it cannot share a prefix with the other
/// algorithms; it still reuses the session's bounds and reduction.
///
/// Worlds are evaluated through the bit-parallel block kernel, up to 64
/// per [`WorldBlock`] in hash order, and then replayed lane by lane so
/// the early-stop bookkeeping (counters, k-th hashes, `samples_used`) is
/// identical to processing the samples one at a time. Chunks grow from
/// `min(bk, 64)` lanes by doubling (see `growing_chunks`): the stop
/// rule cannot fire before `bk` samples, and it usually fires soon
/// after, so a full first chunk would mostly draw worlds nobody replays.
pub struct BottomKEarlyStop;

impl Algorithm for BottomKEarlyStop {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::BottomK
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, req: &ResolvedRequest) -> Result<DetectResponse> {
        // xlint: allow(no-wall-clock) — `elapsed` is a reported
        // diagnostic; no answer bit depends on the clock.
        let start = Instant::now();
        let bk = ctx.config().bk;
        let bounds = ctx.bounds();
        let reduction = ctx.reduction(req.k);
        let plan = reverse_plan(ctx, req);
        let pruned = Pruned { lower: &bounds.0, upper: &bounds.1, reduction: &reduction };

        if plan.degenerate {
            return Ok(degenerate_response(
                req,
                &pruned,
                &plan,
                req.k,
                AlgorithmKind::BottomK,
                start,
            ));
        }
        let ReversePlan { candidates, k_verified, k_rem, budget: t, .. } = plan;
        // Degradation knobs: the adaptive pass samples outside the
        // session cache, so it honours the token and cap itself. The
        // cap bounds *worlds replayed*, not the budget `t` — the
        // hash-shuffled sample order is a pure function of `(seed, t)`,
        // so a capped replay walks the identical prefix of the identical
        // order.
        let cancel = req.cancel.clone();
        let cap = req.sample_cap.unwrap_or(u64::MAX);

        // The order build is O(t) before the first world is drawn; an
        // already-expired deadline (or a server drain) must not pay for
        // it.
        if cancel.as_ref().is_some_and(vulnds_sampling::CancelToken::is_cancelled) {
            return Err(VulnError::Cancelled);
        }
        let hasher = UnitHasher::new(req.seed ^ HASH_DOMAIN);
        let order = hash_order(&hasher, t as usize);

        let coins = ctx.coin_table();
        let graph = ctx.graph();
        let mut block = WorldBlock::new(graph);
        let mut kernel = BlockKernel::new(graph);
        let mut counters = vec![0u32; candidates.len()];
        let mut kth_hash = vec![0.0f64; candidates.len()];
        let mut saturated = vec![false; candidates.len()];
        let mut saturated_count = 0usize;
        let mut samples_used = 0u64;
        let mut early_stopped = false;

        // Scratch reused across chunks.
        let mut ids: Vec<u64> = Vec::with_capacity(LANES);
        let mut active: Vec<(usize, NodeId)> = Vec::with_capacity(candidates.len());
        let mut hit_words: Vec<u64> = Vec::with_capacity(candidates.len());

        'outer: for chunk in growing_chunks(&order, bk) {
            // Polled once per chunk, like the kernel samplers poll per
            // superblock: the clock-driven cut never lands mid-chunk,
            // and `samples_used` is an exact replayable cut either way.
            if cancel.as_ref().is_some_and(vulnds_sampling::CancelToken::is_cancelled) {
                break 'outer;
            }
            ids.clear();
            ids.extend(chunk.iter().map(|&s| s as u64));
            block.materialize_ids(graph, &coins, req.seed, &ids);
            kernel.begin_block();
            // One bit-parallel reverse BFS per still-unsaturated
            // candidate decides every world of the chunk at once …
            active.clear();
            active.extend(
                candidates.iter().enumerate().filter(|(i, _)| !saturated[*i]).map(|(i, &v)| (i, v)),
            );
            hit_words.clear();
            for &(_, v) in &active {
                let word = kernel.reverse_hit_word(graph, &coins, &mut block, v);
                hit_words.push(word);
            }
            // … and the lanes are replayed in sample order so counters,
            // saturation hashes and the stop condition match a
            // one-world-at-a-time run exactly. (A candidate saturating
            // mid-chunk simply ignores its later lanes, like the scalar
            // loop skipped saturated candidates.)
            for (lane, &sample_id) in ids.iter().enumerate() {
                if samples_used >= cap {
                    // Replay cap reached: stop exactly here, like the
                    // original degraded run did.
                    break 'outer;
                }
                let h = hasher.hash_unit(sample_id);
                samples_used += 1;
                for (&(i, _), &word) in active.iter().zip(&hit_words) {
                    if !saturated[i] && word >> lane & 1 == 1 {
                        counters[i] += 1;
                        if counters[i] as usize == bk {
                            saturated[i] = true;
                            kth_hash[i] = h;
                            saturated_count += 1;
                        }
                    }
                }
                if saturated_count >= k_rem {
                    early_stopped = true;
                    break 'outer;
                }
            }
        }
        ctx.note_adaptive_samples(samples_used);
        ctx.note_coins(&block.take_usage());
        // Scattered hash-order replay is inherently single-word.
        ctx.note_width(vulnds_sampling::BlockWords::W1);

        if samples_used == 0 {
            return Err(VulnError::Cancelled);
        }
        // An early stop is not degradation — no budget was cut, so
        // `degraded` stays false and `early_stopped` marks the answer —
        // but the stop rule only fixes each sketch's `bk`-th hit, not
        // the requested ε. The ε it delivers is the Eq. 4 inversion at
        // the samples actually used, as for a degraded answer.
        let (a, b) = (k_rem as u64, candidates.len().saturating_sub(k_rem) as u64);
        let (degraded, achieved) = if early_stopped {
            (false, achieved_epsilon(a, b, req.approx.delta(), samples_used))
        } else {
            epsilon_outcome(req, a, b, t, samples_used)
        };

        let chosen = if early_stopped {
            // Rank the saturated candidates by their sketch estimates;
            // more than k_rem can saturate in the final sample, so select.
            select_top_k(
                candidates.iter().enumerate().filter(|(i, _)| saturated[*i]).map(|(i, &node)| {
                    ScoredNode {
                        node,
                        score: bottomk_default_probability(bk, kth_hash[i], t as usize),
                    }
                }),
                k_rem,
            )
        } else {
            // Budget exhausted: BSR-style ranking.
            select_top_k(
                candidates.iter().enumerate().map(|(i, &node)| ScoredNode {
                    node,
                    score: if saturated[i] {
                        bottomk_default_probability(bk, kth_hash[i], t as usize)
                    } else {
                        counters[i] as f64 / samples_used as f64
                    },
                }),
                k_rem,
            )
        };
        let top_k = merge_verified(&pruned, chosen, req.k);

        Ok(DetectResponse {
            top_k,
            stats: RunStats {
                algorithm: AlgorithmKind::BottomK,
                sample_budget: t,
                samples_used,
                candidates: candidates.len(),
                verified: k_verified,
                early_stopped,
                elapsed: start.elapsed(),
            },
            engine: EngineStats::default(),
            degraded,
            achieved_epsilon: achieved,
        })
    }
}

/// Splits `order` into consecutive chunks of `min(first, 64)` lanes,
/// then twice that, and so on up to [`LANES`]. Lanes stay in order, so
/// replaying the chunks back to back visits exactly `order`.
fn growing_chunks<T>(order: &[T], first: usize) -> impl Iterator<Item = &[T]> {
    let mut size = first.clamp(1, LANES);
    let mut rest = order;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        size = (size * 2).min(LANES);
        Some(chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growing_chunks_double_up_to_a_block_and_cover_the_order() {
        let order: Vec<u32> = (0..200).collect();
        let sizes: Vec<usize> = growing_chunks(&order, 16).map(<[u32]>::len).collect();
        assert_eq!(sizes, vec![16, 32, 64, 64, 24]);
        assert_eq!(growing_chunks(&order, 16).flatten().copied().collect::<Vec<_>>(), order);
        let sizes: Vec<usize> = growing_chunks(&order[..5], 0).map(<[u32]>::len).collect();
        assert_eq!(sizes, vec![1, 2, 2]);
        assert_eq!(growing_chunks(&order, 500).next().map(<[u32]>::len), Some(LANES));
        assert_eq!(growing_chunks::<u32>(&[], 16).count(), 0);
    }

    #[test]
    fn dispatch_covers_all_kinds() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(algorithm(kind).kind(), kind);
        }
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
}
