//! # vulnds-sketch — the bottom-k estimator
//!
//! The bottom-k sketch (Cohen & Kaplan, PODC 2007) gives the paper's
//! BSRBK its early-stopping rule (§3.3): visiting samples in ascending
//! hash order, the first candidate node that defaults in `bk` samples is
//! the node whose bottom-k sketch has the smallest `bk`-th order
//! statistic, hence the highest estimated default probability
//! (Theorem 6).
//!
//! The crate keeps the three pieces that rule needs: a seeded hash to the
//! unit interval ([`UnitHasher`]), the samples in ascending hash order
//! ([`hash_order`]), and the estimate `(bk − 1)/(h · t)`
//! ([`bottomk_default_probability`]). Their consumer is the whole-graph
//! bottom-k scorer (`vulnds_core::score_nodes_bottomk`, behind
//! `vulnds score --method bottomk` and the Figure-4 `bk` sweep). The
//! engine's BSRBK does not read samples in hash order: it stops on a
//! Chernoff–KL certificate over BSR's sample stream.
//!
//! ```
//! use vulnds_sketch::{bottomk_default_probability, hash_order, UnitHasher};
//!
//! let h = UnitHasher::new(7);
//! let order = hash_order(&h, 1_000);
//! // A node that defaults in every sample reaches bk = 16 hits at the
//! // 16th smallest hash, which estimates a probability near one.
//! let kth_hash = h.hash_unit(u64::from(order[15]));
//! let p = bottomk_default_probability(16, kth_hash, 1_000);
//! assert!(p > 0.5, "p = {p}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod estimator;
pub mod hash;

pub use estimator::bottomk_default_probability;
pub use hash::{hash_order, UnitHasher};
