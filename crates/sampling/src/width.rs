//! Superblock width selection — how many 64-lane home blocks one
//! [`SuperBlock`](crate::SuperBlock) spans.
//!
//! The bit-parallel kernel packs worlds 64 per `u64` word; a superblock
//! widens every structural step (CSR walks, frontier queue pushes, epoch
//! checks) to `W` words at once, evaluating `W · 64` worlds per
//! traversal. Counts are **bit-identical at every width** — sample `i`
//! always occupies lane `i % 64` of home block `i / 64`, whatever
//! superblock that home block is evaluated in — so width is purely a
//! performance choice: wider superblocks amortize structural overhead,
//! narrower ones keep partitions fine-grained for thread fan-out and
//! small budgets.
//!
//! [`BlockWords`] is the closed set of supported widths (the kernels are
//! monomorphized per width, so the set is fixed at `{1, 2, 4, 8}`), and
//! [`BlockWords::plan`] is the default heuristic: go as wide as the
//! budget allows while leaving every worker thread at least two full
//! superblocks of work.

use crate::block::LANES;

/// Widest supported superblock, in 64-lane words.
pub const MAX_BLOCK_WORDS: usize = 8;

/// Work units each worker thread should keep at a chosen width — the
/// shared saturation factor behind both [`BlockWords::plan`] (which
/// counts *full* superblocks in a budget, so a tiny tail never pushes
/// the width up) and the narrowing every [`SamplePass`](crate::SamplePass)
/// applies before it partitions (which counts chunks of a concrete
/// range, partials included, so a coarse partition never starves a
/// thread). Tune it here and both stay in step.
pub const MIN_UNITS_PER_THREAD: u64 = 2;

/// Superblock width: how many 64-lane words (home blocks) the kernels
/// advance per traversal step. The variants are the monomorphized widths
/// the sampling crate ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BlockWords {
    /// One word — the classic 64-lane block path.
    #[default]
    W1,
    /// Two words: 128 worlds per superblock.
    W2,
    /// Four words: 256 worlds per superblock.
    W4,
    /// Eight words: 512 worlds per superblock.
    W8,
}

impl BlockWords {
    /// All supported widths, narrowest first.
    pub const ALL: [BlockWords; 4] =
        [BlockWords::W1, BlockWords::W2, BlockWords::W4, BlockWords::W8];

    /// The width as a word count (1, 2, 4, or 8).
    #[inline]
    pub fn words(self) -> usize {
        match self {
            BlockWords::W1 => 1,
            BlockWords::W2 => 2,
            BlockWords::W4 => 4,
            BlockWords::W8 => 8,
        }
    }

    /// Worlds per superblock at this width (`words · 64`).
    #[inline]
    pub fn lanes(self) -> u64 {
        (self.words() * LANES) as u64
    }

    /// The next narrower width (`None` below [`BlockWords::W1`]).
    pub fn narrower(self) -> Option<BlockWords> {
        match self {
            BlockWords::W1 => None,
            BlockWords::W2 => Some(BlockWords::W1),
            BlockWords::W4 => Some(BlockWords::W2),
            BlockWords::W8 => Some(BlockWords::W4),
        }
    }

    /// Default width heuristic: the widest superblock that still leaves
    /// every worker thread at least [`MIN_UNITS_PER_THREAD`] **full
    /// superblocks** of work for a `budget`-world pass. Big fixed-budget
    /// passes (Equation-3/4 budgets, ground truth, scoring) go wide;
    /// small follow-ups and heavily-threaded small batches stay narrow
    /// so the partition unit does not coarsen away the fan-out (a
    /// [`SamplePass`](crate::SamplePass) additionally narrows per drawn
    /// range). This planner is the only source of a pass's width: no
    /// option pins it, because counts are bit-identical at every width.
    pub fn plan(budget: u64, threads: usize) -> BlockWords {
        let threads = threads.max(1) as u64;
        let mut width = BlockWords::W8;
        while let Some(narrower) = width.narrower() {
            if budget >= width.lanes() * threads * MIN_UNITS_PER_THREAD {
                break;
            }
            width = narrower;
        }
        width
    }
}

impl std::fmt::Display for BlockWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.words())
    }
}

/// Runs `$body` with the const `$W` bound to the word count of the
/// runtime width `$width` — the dispatch point between runtime width
/// selection and the monomorphized kernels.
macro_rules! with_block_words {
    ($width:expr, $W:ident, $body:expr) => {
        match $width {
            $crate::width::BlockWords::W1 => {
                const $W: usize = 1;
                $body
            }
            $crate::width::BlockWords::W2 => {
                const $W: usize = 2;
                $body
            }
            $crate::width::BlockWords::W4 => {
                const $W: usize = 4;
                $body
            }
            $crate::width::BlockWords::W8 => {
                const $W: usize = 8;
                $body
            }
        }
    };
}
pub(crate) use with_block_words;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_lanes_and_display_agree() {
        for width in BlockWords::ALL {
            assert_eq!(width.lanes(), width.words() as u64 * 64);
            assert_eq!(width.to_string(), width.words().to_string());
        }
        assert_eq!(BlockWords::default(), BlockWords::W1);
        assert_eq!(MAX_BLOCK_WORDS, BlockWords::W8.words());
    }

    #[test]
    fn narrower_walks_down_to_one() {
        assert_eq!(BlockWords::W8.narrower(), Some(BlockWords::W4));
        assert_eq!(BlockWords::W4.narrower(), Some(BlockWords::W2));
        assert_eq!(BlockWords::W2.narrower(), Some(BlockWords::W1));
        assert_eq!(BlockWords::W1.narrower(), None);
    }

    #[test]
    fn plan_goes_wide_for_big_budgets_and_narrow_for_small() {
        assert_eq!(BlockWords::plan(20_000, 1), BlockWords::W8);
        assert_eq!(BlockWords::plan(1024, 1), BlockWords::W8);
        assert_eq!(BlockWords::plan(1023, 1), BlockWords::W4);
        assert_eq!(BlockWords::plan(256, 1), BlockWords::W2);
        assert_eq!(BlockWords::plan(100, 1), BlockWords::W1);
        assert_eq!(BlockWords::plan(0, 1), BlockWords::W1);
        // More threads need more superblocks to stay saturated.
        assert_eq!(BlockWords::plan(20_000, 8), BlockWords::W8);
        assert_eq!(BlockWords::plan(4096, 8), BlockWords::W4);
        assert_eq!(BlockWords::plan(2048, 8), BlockWords::W2);
        assert_eq!(BlockWords::plan(1000, 8), BlockWords::W1);
        assert_eq!(BlockWords::plan(4096, 0), BlockWords::W8, "zero threads clamps to 1");
    }
}
