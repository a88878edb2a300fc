//! # vulnds — top-k vulnerable nodes detection in uncertain graphs
//!
//! Facade crate re-exporting the full VulnDS system, a reproduction of
//! *Efficient Top-k Vulnerable Nodes Detection in Uncertain Graphs*
//! (Cheng, Chen, Wang, Xiang — ICDE 2022 / arXiv:1912.12383).
//!
//! ## Quick start
//!
//! ```
//! use vulnds::prelude::*;
//!
//! // Build an uncertain guarantee network: node self-risks + edge
//! // diffusion probabilities.
//! let mut b = UncertainGraph::builder(5);
//! for v in 0..5 {
//!     b.set_self_risk(NodeId(v), 0.2).unwrap();
//! }
//! for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
//!     b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
//! }
//! let graph = b.build().unwrap();
//!
//! // Open a query session and ask for the most vulnerable node with the
//! // fastest algorithm. The session owns the graph (pass it by value,
//! // by `&` to clone, or by `Arc` to share) and answers through
//! // `&self`, so one session can serve many threads at once; follow-up
//! // queries reuse the session's cached bounds, candidate sets, and
//! // sampled worlds.
//! let detector = Detector::builder(graph).build().unwrap();
//! let result = detector.detect(&DetectRequest::new(1, AlgorithmKind::BottomK)).unwrap();
//! assert_eq!(result.top_k[0].node, NodeId(4));
//! ```
//!
//! ## Crate map
//!
//! * [`ugraph`] — uncertain graph storage, I/O and statistics.
//! * [`sampling`] — possible-world samplers (forward / reverse / parallel).
//! * [`sketch`] — the bottom-k estimator behind the bottom-k scorer.
//! * [`core`] — the `Detector` engine, bounds, pruning, the five
//!   detection algorithms, metrics.
//! * [`baselines`] — centralities, influence maximization, from-scratch ML.
//! * [`datasets`] — synthetic workloads matching the paper's Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod json;
pub mod serve;
pub mod wal;

pub use ugraph;
pub use vulnds_baselines as baselines;
pub use vulnds_core as core;
pub use vulnds_datasets as datasets;
pub use vulnds_sampling as sampling;
pub use vulnds_sketch as sketch;

/// The most common imports, bundled.
pub mod prelude {
    pub use ugraph::{
        from_parts, DuplicateEdgePolicy, EdgeId, GraphBuilder, GraphDelta, GraphStats, NodeId,
        UncertainGraph,
    };
    pub use vulnds_core::{
        precision_at_k, AlgorithmKind, ApproxParams, BlockWords, BoundsMethod, DeltaOutcome,
        DetectRequest, DetectResponse, Detector, DetectorBuilder, EngineStats, IncrementalBounds,
        IntoSharedGraph, ScoredNode, SessionStats, VulnConfig, VulnError,
    };
    pub use vulnds_datasets::{Dataset, ProbabilityModel};
    pub use vulnds_sampling::{forward_counts, reverse_counts, CancelToken, Xoshiro256pp};
}

pub use prelude::*;
