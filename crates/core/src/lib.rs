//! # vulnds-core — top-k vulnerable nodes detection in uncertain graphs
//!
//! Reference implementation of *Efficient Top-k Vulnerable Nodes Detection
//! in Uncertain Graphs* (Cheng, Chen, Wang, Xiang — ICDE 2022 /
//! arXiv:1912.12383): given a directed uncertain graph with self-risk and
//! diffusion probabilities, find the `k` nodes with the highest default
//! probability under possible-world semantics, a #P-hard quantity that is
//! estimated by sampling with `(ε, δ)` guarantees.
//!
//! The crate provides the paper's five algorithms (N, SN, SR, BSR, BSRBK),
//! the iterative lower/upper bounds used for pruning (Algorithms 2–3), the
//! candidate reduction of Algorithm 4, sample-size theory (Equations 3–4),
//! exact oracles for tiny graphs, and the precision metrics used in the
//! evaluation.
//!
//! The primary entry point is the session-oriented [`engine::Detector`]:
//! build one per graph, then issue typed requests — repeated queries
//! amortize bound computation, candidate reduction, and sampled worlds
//! through the session cache, and [`engine::Detector::detect_many`]
//! shares one sampling pass across a whole batch.
//!
//! ```
//! use ugraph::{UncertainGraph, NodeId};
//! use vulnds_core::engine::{DetectRequest, Detector};
//! use vulnds_core::AlgorithmKind;
//!
//! // The toy guaranteed-loan network of the paper's Figure 3.
//! let mut b = UncertainGraph::builder(5);
//! for v in 0..5 {
//!     b.set_self_risk(NodeId(v), 0.2).unwrap();
//! }
//! for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
//!     b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
//! }
//! let g = b.build().unwrap();
//!
//! let mut detector = Detector::builder(&g).seed(7).build().unwrap();
//! let result = detector.detect(&DetectRequest::new(1, AlgorithmKind::BottomK)).unwrap();
//! // Node E (id 4) has three upstream guarantors: most vulnerable.
//! assert_eq!(result.top_k[0].node, NodeId(4));
//!
//! // Follow-up queries on the same session reuse its cached state.
//! let again = detector.detect(&DetectRequest::new(2, AlgorithmKind::BottomK)).unwrap();
//! assert!(again.engine.bounds_reused);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod candidates;
pub mod config;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod exact;
pub mod precision;
pub mod sample_size;
pub mod scoring;
pub mod topk;

pub use bounds::{compute_bounds, lower_bounds_paper, lower_bounds_safe, upper_bounds};
pub use candidates::{reduce_candidates, CandidateReduction};
pub use config::{ApproxParams, BoundsMethod, ConfigError, VulnConfig};
pub use dynamic::IncrementalBounds;
pub use engine::{
    AlgorithmKind, DeltaOutcome, DetectRequest, DetectResponse, Detector, DetectorBuilder,
    EngineStats, IntoSharedGraph, RunStats, SessionStats,
};
pub use error::VulnError;
pub use exact::{exact_default_probabilities, ground_truth, PAPER_GROUND_TRUTH_SAMPLES};
pub use precision::{precision_at_k, precision_with_ties, satisfies_epsilon_contract};
pub use sample_size::{basic_sample_size, reduced_sample_size};
pub use scoring::{score_nodes_bottomk, score_nodes_mc};
pub use topk::{select_top_k, select_top_k_dense, ScoredNode};
pub use vulnds_sampling::BlockWords;
