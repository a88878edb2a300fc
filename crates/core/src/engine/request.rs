//! Typed queries and answers for the [`Detector`](super::Detector)
//! engine.

use std::time::{Duration, Instant};

use crate::config::ApproxParams;
use crate::error::{Result, VulnError};
use crate::topk::ScoredNode;
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::CancelToken;

use super::VulnConfig;

/// Which of the paper's five detection algorithms answers a query.
///
/// | Name | Paper label | Ingredients |
/// |------|-------------|-------------|
/// | [`Naive`](AlgorithmKind::Naive) | N | Algorithm 1, fixed sample size |
/// | [`SampledNaive`](AlgorithmKind::SampledNaive) | SN | Algorithm 1, Eq. 3 sample size |
/// | [`SampleReverse`](AlgorithmKind::SampleReverse) | SR | reverse sampling + Lemma 1 rule 2 |
/// | [`BoundedSampleReverse`](AlgorithmKind::BoundedSampleReverse) | BSR | + verification (rule 1) + Eq. 4 |
/// | [`BottomK`](AlgorithmKind::BottomK) | BSRBK | + sequential early stop on BSR's stream |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// `N` — basic sampling with a fixed budget.
    Naive,
    /// `SN` — basic sampling sized by Equation 3.
    SampledNaive,
    /// `SR` — reverse sampling over rule-2 candidates.
    SampleReverse,
    /// `BSR` — bounds, verification, reverse sampling sized by Equation 4.
    BoundedSampleReverse,
    /// `BSRBK` — BSR plus a sound sequential early stop.
    BottomK,
}

impl AlgorithmKind {
    /// All five, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::Naive,
        AlgorithmKind::SampledNaive,
        AlgorithmKind::SampleReverse,
        AlgorithmKind::BoundedSampleReverse,
        AlgorithmKind::BottomK,
    ];

    /// The paper's short label (N, SN, SR, BSR, BSRBK).
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Naive => "N",
            AlgorithmKind::SampledNaive => "SN",
            AlgorithmKind::SampleReverse => "SR",
            AlgorithmKind::BoundedSampleReverse => "BSR",
            AlgorithmKind::BottomK => "BSRBK",
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Diagnostics of one detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Which algorithm produced the result.
    pub algorithm: AlgorithmKind,
    /// Sample budget computed from theory (Eq. 3 / Eq. 4) or configuration.
    pub sample_budget: u64,
    /// Samples actually consumed (< budget for a degraded answer, and
    /// for a BSRBK answer whose sequential stop fired at a look).
    pub samples_used: u64,
    /// Candidate-set size `|B|` after pruning (n for N/SN).
    pub candidates: usize,
    /// Verified nodes `k'` (0 for everything but BSR/BSRBK).
    pub verified: usize,
    /// `true` if BSRBK's sequential stop certified ε at a look before
    /// the budget ran out.
    pub early_stopped: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// One detection query against a [`Detector`](super::Detector) session.
///
/// Only `k` and `algorithm` are required; everything else defaults to the
/// session's [`VulnConfig`]. Overrides are per-request: they do not
/// mutate the session.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRequest {
    /// How many nodes to return.
    pub k: usize,
    /// Which of the paper's five algorithms answers the query.
    pub algorithm: AlgorithmKind,
    /// Per-request accuracy override (`ε` of Definition 2).
    pub epsilon: Option<f64>,
    /// Per-request failure-probability override (`δ` of Definition 2).
    pub delta: Option<f64>,
    /// Per-request RNG seed override. Requests with equal seeds share
    /// sampled worlds through the session cache.
    pub seed: Option<u64>,
    /// Candidate hint for the reverse-sampling algorithms (SR, BSR,
    /// BSRBK): replaces the bound-derived candidate set `B`. Nodes the
    /// bound phase verifies into the top-k are excluded automatically.
    /// Ignored by the forward-sampling algorithms (N, SN), which always
    /// estimate every node. Use when a previous query or external
    /// knowledge already narrowed the plausible top-k.
    pub candidates: Option<Vec<NodeId>>,
    /// Soft deadline for the sampling passes, in milliseconds from the
    /// moment the request is resolved. When it expires mid-pass the
    /// query returns the block-aligned sample prefix it completed as a
    /// **degraded** answer (`degraded = true`, `achieved_epsilon`
    /// widened accordingly) — or [`VulnError::Cancelled`] if not a
    /// single sample was drawn. The bound/verification phases are not
    /// interruptible; only sampling is.
    pub timeout_ms: Option<u64>,
    /// Exact cap on the worlds the sampling pass may draw, *without*
    /// changing the ε-derived budget (which also fixes BSRBK's schedule
    /// of looks). This is the replay knob for degraded answers: re-running
    /// a degraded query with its reported `samples_used` as the cap
    /// reproduces the degraded answer bit-identically.
    pub sample_cap: Option<u64>,
    /// External cancellation token (e.g. a server's per-request child of
    /// its drain token). Combined with `timeout_ms` when both are set.
    pub cancel: Option<CancelToken>,
}

impl DetectRequest {
    /// A request with session defaults for everything but `k` and the
    /// algorithm.
    pub fn new(k: usize, algorithm: AlgorithmKind) -> Self {
        DetectRequest {
            k,
            algorithm,
            epsilon: None,
            delta: None,
            seed: None,
            candidates: None,
            timeout_ms: None,
            sample_cap: None,
            cancel: None,
        }
    }

    /// Per-request `ε` override.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Per-request `δ` override.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Per-request seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Candidate hint (see [`DetectRequest::candidates`]).
    pub fn with_candidates(mut self, candidates: Vec<NodeId>) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Soft sampling deadline (see [`DetectRequest::timeout_ms`]).
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Exact draw cap for degraded-answer replay (see
    /// [`DetectRequest::sample_cap`]).
    pub fn with_sample_cap(mut self, cap: u64) -> Self {
        self.sample_cap = Some(cap);
        self
    }

    /// External cancellation token (see [`DetectRequest::cancel`]).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Validates the request against a graph and session configuration,
    /// producing the fully-resolved form the algorithms run on.
    pub(crate) fn resolve(
        &self,
        graph: &UncertainGraph,
        config: &VulnConfig,
    ) -> Result<ResolvedRequest> {
        let n = graph.num_nodes();
        if self.k == 0 || self.k > n {
            return Err(VulnError::InvalidK { k: self.k, n });
        }
        let approx = match (self.epsilon, self.delta) {
            (None, None) => config.approx,
            (eps, delta) => ApproxParams::new(
                eps.unwrap_or_else(|| config.approx.epsilon()),
                delta.unwrap_or_else(|| config.approx.delta()),
            )?,
        };
        let candidates = match &self.candidates {
            None => None,
            Some(hint) => {
                let mut ids: Vec<NodeId> = Vec::with_capacity(hint.len());
                for &v in hint {
                    if v.index() >= n {
                        return Err(VulnError::CandidateOutOfBounds { node: v.0, n });
                    }
                    ids.push(v);
                }
                // Normalize: ascending ids, deduplicated — candidate order
                // is part of the sample-cache key and of the per-sample
                // coin-consumption order.
                ids.sort_unstable_by_key(|v| v.0);
                ids.dedup();
                // A hint must contain at least k nodes or the response
                // could not hold k entries (every caller is promised
                // `top_k.len() == k`). Checked here, not at run time, so
                // `detect_many` stays all-or-nothing.
                if ids.len() < self.k {
                    return Err(VulnError::InvalidParameter(format!(
                        "candidate hint has {} distinct nodes but k = {}",
                        ids.len(),
                        self.k
                    )));
                }
                Some(ids)
            }
        };
        // The effective cancellation signal: the caller's token, a
        // deadline token, or a deadline child of the caller's token.
        // The deadline clock starts here, at resolve time.
        let cancel = match (&self.cancel, self.timeout_ms) {
            (None, None) => None,
            (Some(token), None) => Some(token.clone()),
            (token, Some(ms)) => {
                // xlint: allow(no-wall-clock) — sanctioned deadline
                // anchor: the monotonic clock only decides where a
                // sampling prefix ends, never any sampled value (see
                // vulnds_sampling::cancel).
                let deadline = Instant::now().checked_add(Duration::from_millis(ms));
                match (token, deadline) {
                    (Some(t), Some(d)) => Some(t.child_with_deadline(d)),
                    (Some(t), None) => Some(t.clone()),
                    // A deadline too far out to represent can never
                    // fire; treat it as absent.
                    (None, Some(d)) => Some(CancelToken::with_deadline(d)),
                    (None, None) => None,
                }
            }
        };
        Ok(ResolvedRequest {
            k: self.k,
            algorithm: self.algorithm,
            approx,
            seed: self.seed.unwrap_or(config.seed),
            candidates,
            sample_cap: self.sample_cap,
            cancel,
        })
    }
}

/// A validated request with all session defaults applied. This is what
/// the algorithms receive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResolvedRequest {
    /// How many nodes to return.
    pub k: usize,
    /// Which algorithm runs.
    pub algorithm: AlgorithmKind,
    /// Fully-resolved approximation contract.
    pub approx: ApproxParams,
    /// Fully-resolved RNG seed.
    pub seed: u64,
    /// Normalized candidate hint (ascending ids, deduplicated).
    pub candidates: Option<Vec<NodeId>>,
    /// Exact draw cap for degraded-answer replay (see
    /// [`DetectRequest::sample_cap`]).
    pub sample_cap: Option<u64>,
    /// Effective cancellation signal: the caller's token and/or the
    /// request deadline, anchored at resolve time.
    pub cancel: Option<CancelToken>,
}

/// What the session cache contributed to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Possible worlds freshly sampled for this query.
    pub samples_drawn: u64,
    /// Possible worlds served from the session cache instead of being
    /// re-sampled.
    pub samples_reused: u64,
    /// Whether the bound vectors were already cached.
    pub bounds_reused: bool,
    /// Whether the candidate reduction was already cached.
    pub reduction_reused: bool,
    /// Uniform 64-bit words the counter-RNG coin generator synthesized
    /// for this query (the raw materialization cost).
    pub coin_words_synthesized: u64,
    /// Edge lane-words the frontier-lazy materialization skipped for
    /// this query (edges no traversal touched).
    pub lazy_edge_words_skipped: u64,
    /// Widest superblock (in 64-lane words) this query's sampling
    /// passes ran on — 0 when the query drew entirely from cache or
    /// never sampled. Width never changes results, only throughput.
    pub block_words: usize,
    /// Superblocks this query materialized (one per `W·64`-world unit).
    pub superblocks: u64,
    /// Epoch of the snapshot this query ran on (0 = base graph). A
    /// query pins its snapshot at entry, so under live updates this
    /// names the exact graph the answer is bit-reproducible against.
    pub epoch: u64,
    /// Probability version of the pinned snapshot.
    pub graph_version: u64,
}

/// Answer to one [`DetectRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectResponse {
    /// The k detected nodes, most vulnerable first.
    pub top_k: Vec<ScoredNode>,
    /// Algorithm-level diagnostics (budget, candidates, verification,
    /// early stop).
    pub stats: RunStats,
    /// Session-cache diagnostics for this query.
    pub engine: EngineStats,
    /// True when cancellation (deadline, token, or an explicit
    /// `sample_cap` below the budget) cut the sampling pass short of its
    /// ε-derived budget. The answer is still a valid `(ε', δ)` answer at
    /// the wider [`achieved_epsilon`](DetectResponse::achieved_epsilon),
    /// and replaying the request with `stats.samples_used` as its
    /// `sample_cap` reproduces it bit-identically. BSRBK's early stop is
    /// *not* degradation — no budget was cut, and its stop certifies the
    /// requested `ε` (see `stats.early_stopped`).
    pub degraded: bool,
    /// The `ε` the request's `δ` guarantee holds at, given the samples
    /// actually used: the requested `ε` for a full pass and for a BSRBK
    /// early stop (its stop certifies it), the inverted Hoeffding/union
    /// bound (Eq. 3/4 solved for `ε` at `stats.samples_used`) for a
    /// degraded one. BSRBK spends half of `δ` on its looks, so its
    /// full-budget and degraded answers report the inversion at `δ/2`
    /// (at most slightly above the requested `ε` at the full budget),
    /// or the `ε` its last look certified when that is smaller. `N`'s
    /// fixed budget ignores the request, so a full `N` pass reports the
    /// larger of the requested `ε` and the inversion at its budget.
    pub achieved_epsilon: f64,
}

impl DetectResponse {
    /// Just the node ids, in rank order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.top_k.iter().map(|s| s.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = AlgorithmKind::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["N", "SN", "SR", "BSR", "BSRBK"]);
        assert_eq!(AlgorithmKind::BottomK.to_string(), "BSRBK");
    }
}
