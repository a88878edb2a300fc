//! # vulnds-sampling — possible-world samplers for uncertain graphs
//!
//! Implements the sampling substrate of the VulnDS system. Every
//! runtime path is **bit-parallel end to end**: worlds are packed as
//! `[u64; W]` word-vectors — `W` consecutive 64-lane home blocks form a
//! *superblock* — one BFS step advances all `W·64` worlds with bitwise
//! AND/OR the compiler autovectorizes, and the lane words themselves
//! are synthesized transposed from a stateless `(seed, block, item,
//! level)` generator, with node and edge word-vectors materialized
//! lazily when a traversal first touches them. See [`coins`] for the
//! generator, [`block`] for the data path, and [`width`] for runtime
//! width selection (counts are bit-identical at every width).
//!
//! * [`CoinTable`] / [`coins`] — per-graph dyadic thresholds plus the
//!   stateless bit-sliced Bernoulli synthesis.
//! * [`SamplePass`] — the one way to run a sampling pass: a range of
//!   sample ids, optional split points, a width, a thread count, a
//!   cancel token and a touch ledger, run forward (Algorithm 1) or
//!   reverse over a candidate set (Algorithm 5). Counts are
//!   bit-identical for any width, thread count and split; see
//!   [`parallel`]. [`forward_counts`] and [`reverse_counts`] are its
//!   one-call sequential forms.
//! * [`SuperBlock`] / [`SuperKernel`] — the W×64-lane possible-world
//!   kernel a pass runs on. The forward kernel only pushes: one
//!   frontier traversal policy, kept in [`block`]. [`WorldBlock`] /
//!   [`BlockKernel`] are the width-1 aliases that serve the adaptive
//!   passes reading worlds in sample-id order: bottom-k scoring and
//!   labels.
//! * [`BlockWords`] — the supported superblock widths and the
//!   budget/thread-aware planning heuristic every pass's width comes
//!   from.
//! * [`PossibleWorld`] / [`WorldEnumerator`] — fully-materialized worlds,
//!   the one semantic oracle everything above is validated against
//!   (bit-identical, not just in distribution): its coins are drawn
//!   one at a time through [`ScalarCoins`], independently of the block
//!   synthesis.
//!
//! ```
//! use ugraph::{from_parts, DuplicateEdgePolicy};
//! use vulnds_sampling::forward_counts;
//!
//! // 0 → 1 chain: p(0) = 0.5, p(1) = 0.5 · 0.5 = 0.25.
//! let g = from_parts(&[0.5, 0.0], &[(0, 1, 0.5)], DuplicateEdgePolicy::Error).unwrap();
//! let counts = forward_counts(&g, 20_000, 42);
//! assert!((counts.estimate(1) - 0.25).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod cancel;
pub mod coins;
pub mod counts;
pub mod parallel;
pub mod rng;
pub mod touch;
pub mod width;
pub mod world;

pub use block::{
    block_chunks, lane_mask, superblock_chunks, BlockKernel, SuperBlock, SuperKernel, WorldBlock,
    LANES,
};
pub use cancel::CancelToken;
pub use coins::{CoinTable, CoinUsage, ScalarCoins, COIN_PRECISION};
pub use counts::DefaultCounts;
pub use parallel::{
    forward_counts, parallel_forward_counts_range_width, parallel_reverse_counts_range_width,
    reverse_counts, PassCounts, SamplePass,
};
pub use rng::Xoshiro256pp;
pub use touch::{TouchLedger, TouchSet};
pub use width::{BlockWords, MAX_BLOCK_WORDS};
pub use world::{PossibleWorld, WorldEnumerator};
