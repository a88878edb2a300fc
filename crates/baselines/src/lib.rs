//! # vulnds-baselines — comparison methods for the VulnDS evaluation
//!
//! Everything the paper's Table 3 compares against, built from scratch:
//!
//! * **Centralities** — Brandes betweenness, PageRank, k-core.
//! * **Influence maximization** — RR-set greedy (IC model).
//! * **Feature models** — logistic regression (≈ Wide), an MLP
//!   (≈ Wide&Deep / CNN-max / crDNN), gradient-boosted stumps (≈ GBDT),
//!   all over local-graph features, scored by ROC-AUC.
//! * **Labels** — synthetic multi-period default labels drawn from the
//!   uncertain-graph process (the substitute for the bank's private
//!   delinquency records; [`labels`] explains why it preserves the
//!   experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod centrality;
pub mod infmax;
pub mod labels;
pub mod ml;

pub use centrality::{betweenness, core_numbers, pagerank, PageRankParams};
pub use infmax::{influence_maximization, InfMaxResult};
pub use labels::{draw_period_labels, PeriodLabels};
pub use ml::{
    node_features, roc_auc, Gbdt, GbdtParams, LogisticRegression, Mlp, SgdParams, WeightedKnn,
    NUM_FEATURES,
};
