//! From-scratch ML classifiers standing in for the paper's TensorFlow
//! baselines: the workspace has no external dependencies, and Table 3
//! only needs each model family's ranking over the same graph features.

pub mod auc;
pub mod features;
pub mod gbdt;
pub mod knn;
pub mod logreg;
pub mod mlp;

pub use auc::roc_auc;
pub use features::{node_features, standardize, NUM_FEATURES};
pub use gbdt::{Gbdt, GbdtParams};
pub use knn::WeightedKnn;
pub use logreg::{LogisticRegression, SgdParams};
pub use mlp::Mlp;
