//! The five detection algorithms evaluated in the paper:
//!
//! | Name | Paper label | Ingredients |
//! |------|-------------|-------------|
//! | [`AlgorithmKind::Naive`] | N | Algorithm 1, fixed sample size |
//! | [`AlgorithmKind::SampledNaive`] | SN | Algorithm 1, Eq. 3 sample size |
//! | [`AlgorithmKind::SampleReverse`] | SR | reverse sampling + Lemma 1 rule 2 |
//! | [`AlgorithmKind::BoundedSampleReverse`] | BSR | + verification (rule 1) + Eq. 4 |
//! | [`AlgorithmKind::BottomK`] | BSRBK | + sequential early stop on BSR's stream |

mod bsr;
mod bsrbk;
mod naive;
pub(crate) mod reverse_common;
mod sn;
mod sr;

use crate::config::VulnConfig;
use crate::topk::ScoredNode;
use std::time::Duration;
use ugraph::UncertainGraph;

/// Which algorithm to run; see the module table.
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

/// Result of a detection run: the top-k nodes (descending score) plus
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// The k detected nodes, most vulnerable first.
    pub top_k: Vec<ScoredNode>,
    /// Run diagnostics.
    pub stats: RunStats,
}

impl DetectionResult {
    /// Just the node ids, in rank order.
    pub fn node_ids(&self) -> Vec<ugraph::NodeId> {
        self.top_k.iter().map(|s| s.node).collect()
    }
}

/// Validates `k` against the graph size.
pub(crate) fn validate_k(graph: &UncertainGraph, k: usize) {
    assert!(k >= 1, "k must be positive");
    assert!(k <= graph.num_nodes(), "k = {k} exceeds the number of nodes ({})", graph.num_nodes());
}

/// One-shot run through a throwaway engine session — the harness behind
/// the per-algorithm behavioral test suites, the benches, and the
/// what-if module. Produces results identical to a cold
/// [`Detector`](crate::engine::Detector) session (it *is* one). The
/// 0.2.0 deprecated free-function shims (`detect`,
/// `detect_naive`/`_sn`/`_sr`/`_bsr`/`_bsrbk`) that wrapped this were
/// removed in 0.3.0 — build a session instead.
///
/// Takes any [`IntoSharedGraph`](crate::engine::IntoSharedGraph) shape;
/// callers that loop (e.g. `greedy_hardening`) should pass an `Arc` so
/// each call shares the graph instead of cloning it.
pub(crate) fn run_one_shot(
    graph: impl crate::engine::IntoSharedGraph,
    k: usize,
    algorithm: AlgorithmKind,
    config: &VulnConfig,
) -> DetectionResult {
    let graph = graph.into_shared();
    validate_k(&graph, k);
    let detector = crate::engine::Detector::builder(graph)
        .config(config.clone())
        .build()
        // xlint: allow(panic-hygiene) — the one-shot API documents
        // that it panics on invalid input (see the match arm below);
        // fallible callers use the `Detector` API instead.
        .expect("session configuration is valid");
    match detector.detect(&crate::engine::DetectRequest::new(k, algorithm)) {
        Ok(response) => response.into_detection_result(),
        Err(e) => panic!("{e}"),
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
