//! # ugraph — directed uncertain graphs
//!
//! Storage substrate for the VulnDS system (Cheng et al., *Efficient Top-k
//! Vulnerable Nodes Detection in Uncertain Graphs*, ICDE 2022).
//!
//! An [`UncertainGraph`] is a directed graph where
//!
//! * every node `v` carries a **self-risk probability** `ps(v)` — the
//!   chance that `v` defaults because of its own factors, and
//! * every edge `(u, v)` carries a **diffusion probability** `p(v|u)` —
//!   the chance that `u`'s default causes `v`'s default.
//!
//! A *possible world* is drawn by sampling each node's self-default and
//! each edge's survival independently; a node defaults in that world iff it
//! is reachable from a self-defaulted node through surviving edges (or
//! self-defaulted itself). The **default probability** `p(v)` is the
//! probability that `v` defaults in a random possible world; computing it
//! exactly is #P-hard, which is what the sampling algorithms in
//! `vulnds-core` are for.
//!
//! The graph is stored in compressed-sparse-row form with both forward and
//! reverse adjacency and canonical edge ids shared between the two, so
//! possible-world coin flips can be memoized per edge regardless of
//! traversal direction.
//!
//! ```
//! use ugraph::{UncertainGraph, NodeId};
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
//! assert_eq!(g.num_nodes(), 5);
//! assert_eq!(g.in_degree(NodeId(4)), 3); // E is guaranteed by B, C, D
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod crc32;
pub mod delta;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod io_binary;
pub mod relabel;
pub mod scc;
pub mod stats;
pub mod testkit;
pub mod traversal;

pub use builder::{from_parts, DuplicateEdgePolicy, GraphBuilder};
pub use crc32::{crc32, Crc32};
pub use delta::{DeltaUndo, GraphDelta};
pub use error::{GraphError, Result};
pub use graph::{EdgeRef, InEdges, OutEdges, UncertainGraph};
pub use ids::{EdgeId, NodeId};
pub use relabel::{NodeMap, NodeOrder};
pub use scc::{strongly_connected_components, SccDecomposition};
pub use stats::GraphStats;
pub use traversal::{Bfs, Direction};
