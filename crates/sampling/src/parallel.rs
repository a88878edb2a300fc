//! Sampling passes: [`SamplePass`] is the one way to run Algorithm 1's
//! forward pass or Algorithm 5's reverse pass over a range of sample
//! ids, sequential or parallel, whole or split into segments.
//!
//! Work is partitioned by **superblock** (`W·64`-sample aligned chunks,
//! see [`crate::block`]), not by individual sample: threads claim
//! chunks of the range's superblock decomposition from a shared atomic
//! counter, in index order. Each chunk's counts are a pure function of
//! `(seed, chunk)` — the coin generator is a stateless counter RNG, so
//! threads share one read-only [`CoinTable`] and never coordinate
//! beyond the claim counter — and partial counts merge with commutative
//! addition, so a parallel run with any thread count produces
//! **bit-identical counts** to the sequential run, at any width. The
//! sequential run *is* this runner at one thread: a single worker runs
//! inline on the calling thread, so every pass takes one code path.
//!
//! Cancellation ([`CancelToken`]) is checked before each claim, never
//! mid-chunk: a claimed chunk always finishes. Because claims are a
//! single monotone counter, the set of completed chunks at cancellation
//! is exactly the contiguous prefix `0..C` of the decomposition — the
//! same prefix a sequential cancelled run produces — so a degraded
//! answer replays bit-identically from its sample count alone.
//!
//! Width-aware chunking: a wide superblock coarsens the partition unit,
//! so before partitioning a multi-thread pass narrows its width until
//! the range decomposes into at least two chunks per requested thread
//! (a one-thread pass has nothing to balance and keeps its width).
//! Counts are width-independent, so narrowing never changes an answer —
//! it only keeps small budgets from starving threads — and the pass
//! reports the width it ran at.

use crate::block::{superblock_chunks, SuperBlock, SuperKernel};
use crate::cancel::CancelToken;
use crate::coins::{CoinTable, CoinUsage};
use crate::counts::DefaultCounts;
use crate::touch::TouchLedger;
use crate::width::{with_block_words, BlockWords, MIN_UNITS_PER_THREAD};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use ugraph::{NodeId, UncertainGraph};

/// One sampling pass over the sample ids in `range`. Sample `i` always
/// draws the world of the `(seed, i)` counter-RNG stream, so counts over
/// disjoint ranges merge into exactly the counts of their union — the
/// property the engine's prefix cache extends streams with — and every
/// field but `range` and `splits` changes cost, never counts.
///
/// Build one with [`SamplePass::new`] and override fields with struct
/// update syntax:
///
/// ```
/// use ugraph::{from_parts, DuplicateEdgePolicy};
/// use vulnds_sampling::{BlockWords, CoinTable, SamplePass};
///
/// let g = from_parts(&[0.5, 0.0], &[(0, 1, 0.5)], DuplicateEdgePolicy::Error).unwrap();
/// let coins = CoinTable::new(&g);
/// let whole = SamplePass::new(0..1000, 2).forward(&g, &coins, 7);
/// let split = SamplePass { splits: &[300], width: BlockWords::W1, ..SamplePass::new(0..1000, 1) }
///     .forward(&g, &coins, 7);
/// assert_eq!(split.segments[0].samples(), 300);
/// assert_eq!(split.merged().0, whole.merged().0);
/// ```
#[derive(Debug, Clone)]
pub struct SamplePass<'a> {
    /// Sample ids to draw.
    pub range: Range<u64>,
    /// Ascending points inside `range` where the pass splits its
    /// counts: it returns one segment per gap between `range.start`,
    /// each split and `range.end`. Chunks never straddle a split, so
    /// each segment's counts are exact, and a caller that needs several
    /// prefixes pays for one pass instead of one pass per prefix.
    pub splits: &'a [u64],
    /// Requested superblock width, narrowed when the range is too small
    /// to give each of several threads two chunks at it.
    pub width: BlockWords,
    /// Worker threads, clamped to the machine and to the chunk count.
    pub threads: usize,
    /// Polled before each chunk claim: a cancelled pass completes a
    /// contiguous prefix of the chunks, so its segments are exact up to
    /// the first short one and empty after it.
    pub cancel: Option<&'a CancelToken>,
    /// Absorbs every node and edge whose coin word the pass
    /// materialized — the revalidation bookkeeping of delta-aware
    /// stream caches.
    pub ledger: Option<&'a TouchLedger>,
}

/// What a [`SamplePass`] counted.
#[derive(Debug, Clone)]
pub struct PassCounts {
    /// Counts of each segment, in order: one more than the pass's splits.
    pub segments: Vec<DefaultCounts>,
    /// Coin-materialization counters of every worker, merged.
    pub usage: CoinUsage,
    /// The width the pass ran at, after narrowing.
    pub width: BlockWords,
}

impl PassCounts {
    /// Counts over the whole range — every segment merged — and the coin
    /// usage. A cancelled pass's counts cover the prefix it completed.
    pub fn merged(self) -> (DefaultCounts, CoinUsage) {
        let counts = self.segments.into_iter().reduce(|mut total, segment| {
            total.merge(&segment);
            total
        });
        // xlint: allow(panic-hygiene) — a pass has one segment more
        // than it has splits, so never none.
        (counts.expect("a pass has at least one segment"), self.usage)
    }
}

impl SamplePass<'_> {
    /// A single-segment pass over `range` on `threads` workers, at the
    /// planner's width for that budget ([`BlockWords::plan`]), without
    /// cancellation or a touch ledger.
    pub fn new(range: Range<u64>, threads: usize) -> Self {
        let width = BlockWords::plan(range.end.saturating_sub(range.start), threads);
        SamplePass { range, splits: &[], width, threads, cancel: None, ledger: None }
    }

    /// Forward pass — Algorithm 1 without its top-k selection: per-node
    /// default counts, each chunk one `W`-wide bit-parallel BFS with
    /// frontier-lazy edge words. Bit-identical to evaluating each
    /// sample's [`PossibleWorld`](crate::PossibleWorld).
    pub fn forward(&self, graph: &UncertainGraph, coins: &CoinTable, seed: u64) -> PassCounts {
        let (width, workers) = (self.fitted_width(), effective_threads(self.threads));
        let (segments, usage) =
            with_block_words!(width, W, self.forward_on::<W>(graph, coins, seed, workers));
        PassCounts { segments, usage, width }
    }

    /// Reverse pass — Algorithm 5: default counts of each of
    /// `candidates` (indexed by position), each chunk one bit-parallel
    /// reverse BFS per candidate that decides all `W·64` worlds at once.
    /// Bit-identical to the forward pass restricted to `candidates`.
    pub fn reverse(
        &self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        candidates: &[NodeId],
        seed: u64,
    ) -> PassCounts {
        let (width, workers) = (self.fitted_width(), effective_threads(self.threads));
        let (segments, usage) = with_block_words!(width, W, {
            self.reverse_on::<W>(graph, coins, candidates, seed, workers)
        });
        PassCounts { segments, usage, width }
    }

    /// The requested width, narrowed when the range is too small to give
    /// every requested thread [`MIN_UNITS_PER_THREAD`] chunks at it. A
    /// one-thread pass has nothing to balance and keeps its width. The
    /// requested count, not the machine's, decides, so a pass runs at
    /// the same width on every machine.
    fn fitted_width(&self) -> BlockWords {
        if self.threads <= 1 {
            return self.width;
        }
        let floor = self.threads as u64 * MIN_UNITS_PER_THREAD;
        let mut width = self.width;
        while let Some(narrower) = width.narrower() {
            if chunk_count(&self.range, width) >= floor {
                break;
            }
            width = narrower;
        }
        width
    }

    /// [`forward`](Self::forward) at width `W` on exactly `workers`
    /// workers (at most one per chunk).
    fn forward_on<const W: usize>(
        &self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        seed: u64,
        workers: usize,
    ) -> (Vec<DefaultCounts>, CoinUsage) {
        self.run::<W>(graph, coins, seed, workers, graph.num_nodes(), |kernel, block, _, counts| {
            let words = kernel.forward_defaults(graph, coins, block);
            counts.record_words::<W>(words, block.lane_masks());
        })
    }

    /// [`reverse`](Self::reverse) at width `W` on exactly `workers`
    /// workers (at most one per chunk).
    fn reverse_on<const W: usize>(
        &self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        candidates: &[NodeId],
        seed: u64,
        workers: usize,
    ) -> (Vec<DefaultCounts>, CoinUsage) {
        self.run::<W>(
            graph,
            coins,
            seed,
            workers,
            candidates.len(),
            |kernel, block, hits, counts| {
                kernel.reverse_hits_into(graph, coins, block, candidates, hits);
                counts.record_words::<W>(hits, block.lane_masks());
            },
        )
    }

    /// The claim-based runner behind both passes. Workers draw chunk
    /// indices from a shared monotone counter, materialize each chunk's
    /// superblock, and hand it to `step`, which evaluates it into the
    /// counts of the segment the chunk falls in (`slots` counters each).
    /// The cancel token is polled before each claim and a claimed chunk
    /// always finishes, so the completed set is a contiguous prefix.
    /// `workers` is not clamped to the machine, so tests reach the
    /// threaded claim and merge on any machine.
    fn run<const W: usize>(
        &self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        seed: u64,
        workers: usize,
        slots: usize,
        step: impl Fn(&mut SuperKernel<W>, &mut SuperBlock<W>, &mut Vec<u64>, &mut DefaultCounts) + Sync,
    ) -> (Vec<DefaultCounts>, CoinUsage) {
        let splits = self.splits;
        debug_assert!(
            splits.first().is_none_or(|&s| s >= self.range.start)
                && splits.last().is_none_or(|&s| s <= self.range.end)
                && splits.windows(2).all(|w| w[0] <= w[1]),
            "splits must ascend inside the range"
        );
        let mut chunks = Vec::new();
        let mut from = self.range.start;
        for &end in splits.iter().chain([&self.range.end]) {
            chunks.extend(superblock_chunks(from..end, W));
            from = end;
        }
        let workers = workers.clamp(1, chunks.len().max(1));
        let next = AtomicUsize::new(0);
        let partials = run_workers(workers, || {
            let mut block = SuperBlock::<W>::new(graph);
            let mut kernel = SuperKernel::<W>::new(graph);
            let mut hits = Vec::new();
            let mut segments = vec![DefaultCounts::new(slots); splits.len() + 1];
            while let Some(chunk) = claim(&next, &chunks, self.cancel) {
                let segment = splits.partition_point(|&s| s <= chunk.start);
                block.materialize(
                    graph,
                    coins,
                    seed,
                    chunk.start,
                    (chunk.end - chunk.start) as usize,
                );
                step(&mut kernel, &mut block, &mut hits, &mut segments[segment]);
            }
            if let Some(ledger) = self.ledger {
                ledger.absorb(block.touched_nodes(), block.touched_edges());
            }
            (segments, block.take_usage())
        });

        // The first worker's counts are the running total, so a
        // one-worker pass returns its segments without a merge copy.
        let mut partials = partials.into_iter();
        // xlint: allow(panic-hygiene) — `workers` is clamped to at least
        // one and `run_workers` returns one result per worker.
        let (mut segments, mut usage) = partials.next().expect("a pass runs one worker or more");
        for (partial, u) in partials {
            for (total, p) in segments.iter_mut().zip(&partial) {
                total.merge(p);
            }
            usage.merge(&u);
        }
        (segments, usage)
    }
}

/// Runs `t` forward samples (ids `0..t`) and returns per-node default
/// counts: the whole of Algorithm 1 except the final top-k selection,
/// as one [`SamplePass`] on the calling thread.
pub fn forward_counts(graph: &UncertainGraph, t: u64, seed: u64) -> DefaultCounts {
    SamplePass::new(0..t, 1).forward(graph, &CoinTable::new(graph), seed).merged().0
}

/// Runs `t` reverse samples (ids `0..t`) over `candidates` and returns
/// per-candidate default counts (indexed by candidate position), as one
/// [`SamplePass`] on the calling thread.
pub fn reverse_counts(
    graph: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
) -> DefaultCounts {
    SamplePass::new(0..t, 1).reverse(graph, &CoinTable::new(graph), candidates, seed).merged().0
}

/// [`SamplePass::forward`] over `range` at a requested `width`, merged.
pub fn parallel_forward_counts_range_width(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    SamplePass { width, ..SamplePass::new(range, threads) }.forward(graph, coins, seed).merged()
}

/// [`SamplePass::reverse`] over `range` at a requested `width`, merged.
pub fn parallel_reverse_counts_range_width(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    SamplePass { width, ..SamplePass::new(range, threads) }
        .reverse(graph, coins, candidates, seed)
        .merged()
}

/// Clamps a requested thread count to at least one and at most the
/// machine's available parallelism (extra threads could only contend).
fn effective_threads(requested: usize) -> usize {
    let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    requested.clamp(1, hardware)
}

/// Number of superblock chunks `range` decomposes into at `width`.
fn chunk_count(range: &Range<u64>, width: BlockWords) -> u64 {
    if range.end <= range.start {
        return 0;
    }
    let span = width.lanes();
    (range.end - 1) / span - range.start / span + 1
}

/// Runs `worker` on `threads` workers and returns their results in
/// worker order. One thread runs it inline on the calling thread: a
/// single-thread pass spawns nothing, so it pays no thread start-up and
/// its allocations stay in the caller's heap arena. More threads run in
/// a scope, and a worker's panic resumes on the caller.
fn run_workers<T: Send>(threads: usize, worker: impl Fn() -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return vec![worker()];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Claims the next chunk from the shared counter, or `None` once the
/// chunks are exhausted or `cancel` fired (polled before the claim, so
/// a claimed chunk always finishes).
fn claim<'a>(
    next: &AtomicUsize,
    chunks: &'a [Range<u64>],
    cancel: Option<&CancelToken>,
) -> Option<&'a Range<u64>> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    // ORDERING: Relaxed — the counter only hands out distinct indices;
    // chunk results flow to the merge through thread join (or the
    // calling thread itself), not this atomic.
    chunks.get(next.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::PossibleWorld;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn graph() -> UncertainGraph {
        from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    /// Sequential width-1 counts over `range`: the reference every pass
    /// must reproduce. `None` candidates means a forward pass.
    fn reference(
        g: &UncertainGraph,
        coins: &CoinTable,
        candidates: Option<&[NodeId]>,
        range: Range<u64>,
        seed: u64,
    ) -> DefaultCounts {
        let pass = SamplePass { width: BlockWords::W1, ..SamplePass::new(range, 1) };
        match candidates {
            None => pass.forward(g, coins, seed),
            Some(candidates) => pass.reverse(g, coins, candidates, seed),
        }
        .merged()
        .0
    }

    /// Which nodes and edges a ledger recorded.
    fn touched(ledger: &TouchLedger, g: &UncertainGraph) -> (Vec<bool>, Vec<bool>) {
        let nodes = (0..g.num_nodes() as u32).map(|v| ledger.intersects(&[v], &[])).collect();
        let edges = (0..g.num_edges() as u32).map(|e| ledger.intersects(&[], &[e])).collect();
        (nodes, edges)
    }

    #[test]
    fn parallel_passes_bit_identical_to_sequential() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        let seq = forward_counts(&g, 1000, 42);
        let rseq = reverse_counts(&g, &cands, 1000, 7);
        for threads in [1, 2, 3, 8] {
            let pass = SamplePass::new(0..1000, threads);
            assert_eq!(pass.forward(&g, &coins, 42).merged().0, seq, "threads = {threads}");
            assert_eq!(pass.reverse(&g, &coins, &cands, 7).merged().0, rseq, "threads {threads}");
        }
    }

    #[test]
    fn width_requests_are_bit_identical_for_any_thread_count() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        for range in [0..900u64, 37..411, 37..1500] {
            let seq = reference(&g, &coins, None, range.clone(), 3);
            let rseq = reference(&g, &coins, Some(&cands), range.clone(), 3);
            for width in BlockWords::ALL {
                for threads in [1, 2, 3, 8] {
                    let what = format!("{range:?} width {width}, threads {threads}");
                    let (f, usage) = parallel_forward_counts_range_width(
                        &g,
                        &coins,
                        range.clone(),
                        3,
                        threads,
                        width,
                    );
                    assert_eq!(f, seq, "forward {what}");
                    // Lazy accounting covers every home block's edges
                    // exactly once, whatever the partition.
                    let home_blocks = (range.end - 1) / 64 - range.start / 64 + 1;
                    assert_eq!(
                        usage.edge_words_materialized + usage.edge_words_skipped,
                        home_blocks * g.num_edges() as u64,
                        "{what}"
                    );
                    let (r, _) = parallel_reverse_counts_range_width(
                        &g,
                        &coins,
                        &cands,
                        range.clone(),
                        3,
                        threads,
                        width,
                    );
                    assert_eq!(r, rseq, "reverse {what}");
                }
            }
        }
    }

    #[test]
    fn partitioned_runners_bit_identical_at_forced_thread_counts() {
        // Drive the runner with forced worker counts so the threaded
        // claim and merge are exercised even where available_parallelism()
        // == 1 — at width 1 and at a wide width, whole and split.
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        for (range, splits) in
            [(37..411u64, vec![]), (37..1500, vec![]), (37..1500, vec![300, 300, 1000])]
        {
            for workers in [2, 3, 5] {
                let what = format!("{range:?} {splits:?} workers {workers}");
                let pass =
                    SamplePass { splits: &splits, ..SamplePass::new(range.clone(), workers) };
                let (f1, usage) = pass.forward_on::<1>(&g, &coins, 9, workers);
                let (f4, _) = pass.forward_on::<4>(&g, &coins, 9, workers);
                let (r1, _) = pass.reverse_on::<1>(&g, &coins, &cands, 9, workers);
                let (r4, _) = pass.reverse_on::<4>(&g, &coins, &cands, 9, workers);
                let mut start = range.start;
                for (i, &end) in splits.iter().chain([&range.end]).enumerate() {
                    let forward = reference(&g, &coins, None, start..end, 9);
                    let reverse = reference(&g, &coins, Some(&cands), start..end, 9);
                    assert_eq!((&f1[i], &f4[i]), (&forward, &forward), "forward {i}, {what}");
                    assert_eq!((&r1[i], &r4[i]), (&reverse, &reverse), "reverse {i}, {what}");
                    start = end;
                }
                if splits.is_empty() {
                    // Lazy accounting covers every home block exactly
                    // once, whatever the partition.
                    let home_blocks = (range.end - 1) / 64 - range.start / 64 + 1;
                    assert_eq!(
                        usage.edge_words_materialized + usage.edge_words_skipped,
                        home_blocks * g.num_edges() as u64,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_passes_return_empty_segments() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let pass = SamplePass {
                splits: &[100],
                cancel: Some(&token),
                ..SamplePass::new(0..500, threads)
            };
            for out in [pass.forward(&g, &coins, 9), pass.reverse(&g, &coins, &cands, 9)] {
                assert_eq!(out.segments.len(), 2);
                assert!(out.segments.iter().all(|s| s.samples() == 0), "threads = {threads}");
            }
            // Forced workers honour the token on any machine.
            for (segments, _) in [
                pass.forward_on::<1>(&g, &coins, 9, 3),
                pass.reverse_on::<1>(&g, &coins, &cands, 9, 3),
            ] {
                assert!(segments.iter().all(|s| s.samples() == 0), "threads = {threads}");
            }
        }
    }

    #[test]
    fn mid_run_cancellation_prefix_replays_bit_identically() {
        // Cancel from another thread mid-pass, then replay the run with
        // the observed sample count as the exact budget: the replay must
        // reproduce the degraded counts bit-for-bit at several thread
        // counts. The cancel may land anywhere (including after the full
        // range) — the property must hold wherever it lands.
        let g = graph();
        let coins = CoinTable::new(&g);
        let token = CancelToken::new();
        let (counts, _) = std::thread::scope(|scope| {
            let canceller = {
                let token = token.clone();
                scope.spawn(move || token.cancel())
            };
            // Three forced workers race the cancel on any machine.
            let pass = SamplePass { cancel: Some(&token), ..SamplePass::new(0..51_200, 3) };
            let (mut segments, usage) = pass.forward_on::<1>(&g, &coins, 11, 3);
            canceller.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            (segments.remove(0), usage)
        });
        let used = counts.samples();
        assert_eq!(used % crate::LANES as u64, 0, "prefix must be block-aligned");
        for threads in [1, 2, 5] {
            let replay = SamplePass::new(0..used, threads).forward(&g, &coins, 11).merged().0;
            assert_eq!(replay, counts, "replay threads = {threads}");
        }
    }

    #[test]
    fn cancelled_split_passes_are_exact_up_to_the_first_short_segment() {
        // Wherever the cancel lands, the completed chunks are a prefix:
        // every segment before the first short one is exact, the short
        // one holds an exact prefix of its range, and the rest are empty.
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        let splits = [640, 1900, 3200];
        for candidates in [None, Some(cands.as_slice())] {
            let token = CancelToken::new();
            let segments = std::thread::scope(|scope| {
                let canceller = {
                    let token = token.clone();
                    scope.spawn(move || token.cancel())
                };
                let pass = SamplePass {
                    splits: &splits,
                    cancel: Some(&token),
                    ..SamplePass::new(0..6400, 3)
                };
                // Three forced workers race the cancel on any machine.
                let (segments, _) = match candidates {
                    None => pass.forward_on::<1>(&g, &coins, 13, 3),
                    Some(c) => pass.reverse_on::<1>(&g, &coins, c, 13, 3),
                };
                canceller.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                segments
            });
            let mut short = false;
            let mut start = 0;
            for (segment, &end) in segments.iter().zip(splits.iter().chain([&6400])) {
                if short {
                    assert_eq!(segment.samples(), 0, "segment after a short one must be empty");
                } else {
                    let reached = start + segment.samples();
                    assert_eq!(*segment, reference(&g, &coins, candidates, start..reached, 13));
                    short = reached < end;
                }
                start = end;
            }
        }
    }

    #[test]
    fn split_runs_count_each_segment_exactly_in_one_pass() {
        // Node 4 never defaults, so no forward pass reads edge 4 → 0: the
        // forward ledgers compared below are not trivially full.
        let g = from_parts(
            &[0.3, 0.2, 0.1, 0.4, 0.0],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (4, 0, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().take(4).collect();
        let dormant = g.find_edge(NodeId(4), NodeId(0)).unwrap().0;
        // From the stream's start, and mid-stream as a cache extension
        // starts; an empty segment included.
        for (range, splits) in [(0..1100u64, vec![37, 37, 300]), (300..1100, vec![700])] {
            for candidates in [None, Some(cands.as_slice())] {
                for width in BlockWords::ALL {
                    for threads in [1, 3] {
                        let what = format!("{range:?} {splits:?} width {width} threads {threads}");
                        let pass = |range: Range<u64>, splits, ledger| SamplePass {
                            splits,
                            width,
                            ledger: Some(ledger),
                            ..SamplePass::new(range, threads)
                        };
                        let run = |pass: SamplePass<'_>| match candidates {
                            None => pass.forward(&g, &coins, 5),
                            Some(c) => pass.reverse(&g, &coins, c, 5),
                        };
                        let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
                        let out = run(pass(range.clone(), &splits, &ledger));
                        assert_eq!(out.segments.len(), splits.len() + 1, "{what}");
                        let per_segment = TouchLedger::new(g.num_nodes(), g.num_edges());
                        let mut start = range.start;
                        for (segment, &end) in
                            out.segments.iter().zip(splits.iter().chain([&range.end]))
                        {
                            assert_eq!(
                                *segment,
                                reference(&g, &coins, candidates, start..end, 5),
                                "{start}..{end}, {what}"
                            );
                            run(pass(start..end, &[], &per_segment));
                            start = end;
                        }
                        assert_eq!(touched(&ledger, &g), touched(&per_segment, &g), "{what}");
                        assert!(ledger.node_count() > 0, "the pass must record its touches");
                        if candidates.is_none() {
                            assert!(!ledger.intersects(&[], &[dormant]), "edge 4 → 0 is read");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ledgers_record_touches_without_changing_counts() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let plain = parallel_forward_counts_range_width(&g, &coins, 0..900, 3, 2, BlockWords::W2).0;
        let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
        for threads in [1, 3] {
            let pass = SamplePass {
                width: BlockWords::W2,
                ledger: Some(&ledger),
                ..SamplePass::new(0..900, threads)
            };
            assert_eq!(pass.forward(&g, &coins, 3).merged().0, plain, "threads = {threads}");
        }
        // Every self-risk here is positive and every edge p = 0.5, so at
        // 900 worlds each edge's source defaults somewhere: all edges
        // must appear in the ledger.
        assert_eq!(ledger.edge_count(), g.num_edges());
    }

    #[test]
    fn untouched_edges_cannot_change_counts() {
        // Node 4 has zero self-risk and no in-edges, so no world ever
        // defaults it and the frontier never reaches edge 4 → 0: that
        // edge's survival words are never synthesized. Changing its
        // probability and patching only its threshold must reproduce
        // every count bit-identically — the soundness invariant behind
        // delta-aware stream survival.
        let mut g = from_parts(
            &[0.3, 0.2, 0.1, 0.4, 0.0],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (4, 0, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
        let pass = SamplePass {
            width: BlockWords::W2,
            ledger: Some(&ledger),
            ..SamplePass::new(0..2000, 3)
        };
        let before = pass.forward(&g, &coins, 21).merged().0;
        let dormant = g.find_edge(NodeId(4), NodeId(0)).unwrap();
        assert!(!ledger.intersects(&[], &[dormant.0]), "dormant edge must never materialize");

        g.set_edge_prob(dormant, 0.01).unwrap();
        let mut patched = coins.clone();
        patched.patch(&g, &[], &[dormant.0]);
        let after =
            parallel_forward_counts_range_width(&g, &patched, 0..2000, 21, 3, BlockWords::W2).0;
        assert_eq!(after, before, "untouched-edge delta changed sampled counts");
    }

    #[test]
    fn untouched_nodes_cannot_change_reverse_counts() {
        // Node 4 is no ancestor of candidates 1..=3, so their reverse
        // searches never read its self-default word; the forward pass
        // reads every node's.
        let mut g = from_parts(
            &[0.3, 0.2, 0.1, 0.4, 0.3],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let cands = [NodeId(1), NodeId(2), NodeId(3)];
        let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
        let pass = SamplePass {
            width: BlockWords::W2,
            ledger: Some(&ledger),
            ..SamplePass::new(0..2000, 3)
        };
        let before = pass.reverse(&g, &coins, &cands, 21).merged().0;
        assert!(ledger.intersects(&[0, 1, 2, 3], &[]), "ancestors must be recorded");
        assert!(!ledger.intersects(&[4], &[]), "node 4 must never materialize");
        let forward = TouchLedger::new(g.num_nodes(), g.num_edges());
        SamplePass { ledger: Some(&forward), ..SamplePass::new(0..64, 1) }.forward(&g, &coins, 21);
        assert_eq!(forward.node_count(), g.num_nodes(), "forward passes read every node");

        g.set_self_risk(NodeId(4), 0.8).unwrap();
        let mut patched = coins.clone();
        patched.patch(&g, &[4], &[]);
        let after = parallel_reverse_counts_range_width(
            &g,
            &patched,
            &cands,
            0..2000,
            21,
            3,
            BlockWords::W2,
        )
        .0;
        assert_eq!(after, before, "untouched-node delta changed sampled counts");
    }

    #[test]
    fn deltas_move_only_the_counts_downstream_of_them() {
        // A node's default reads only the coins of the node, its
        // ancestors, and the edges into them, so a delta can move only
        // the counts of nodes downstream of it — and recounting those
        // with the reverse kernel reproduces a post-delta forward pass.
        // This is the invariant delta-scoped stream repair rests on.
        ugraph::testkit::check(24, |rng| {
            let mut g = ugraph::testkit::random_graph(rng, 12, 24);
            let coins = CoinTable::new(&g);
            let (t, seed) = (200, rng.next_u64());
            let forward = |g: &UncertainGraph, coins: &CoinTable| {
                parallel_forward_counts_range_width(g, coins, 0..t, seed, 2, BlockWords::W2).0
            };
            let before = forward(&g, &coins);

            let (mut nodes, mut edges) = (Vec::new(), Vec::new());
            for _ in 0..rng.range_usize(1, 3) {
                let p = rng.next_f64();
                if g.num_edges() > 0 && rng.next_bounded(2) == 0 {
                    let e = rng.next_bounded(g.num_edges() as u64) as u32;
                    g.set_edge_prob(ugraph::EdgeId(e), p).unwrap();
                    edges.push(e);
                } else {
                    let v = rng.next_bounded(g.num_nodes() as u64) as u32;
                    g.set_self_risk(NodeId(v), p).unwrap();
                    nodes.push(v);
                }
            }
            let mut patched = coins.clone();
            patched.patch(&g, &nodes, &edges);
            let after = forward(&g, &patched);

            let reach = ugraph::traversal::downstream(&g, &nodes, &edges, g.num_nodes()).unwrap();
            for v in 0..g.num_nodes() {
                if reach.binary_search(&(v as u32)).is_err() {
                    assert_eq!(after.count(v), before.count(v), "node {v} is not downstream");
                }
            }
            let reach_nodes: Vec<NodeId> = reach.iter().map(|&v| NodeId(v)).collect();
            let (recount, _) = parallel_reverse_counts_range_width(
                &g,
                &patched,
                &reach_nodes,
                0..t,
                seed,
                2,
                BlockWords::W2,
            );
            for (i, v) in reach_nodes.iter().enumerate() {
                assert_eq!(recount.count(i), after.count(v.index()), "node {v:?}");
            }
        });
    }

    #[test]
    fn fit_width_keeps_small_budgets_fine_grained() {
        // A few thousand worlds at width 8 would decompose into too few
        // superblocks to feed 8 threads; the fitted width must narrow
        // until every thread gets at least two chunks.
        let fit = |range: Range<u64>, width, threads| {
            SamplePass { width, ..SamplePass::new(range, threads) }.fitted_width()
        };
        let fitted = fit(0..2048, BlockWords::W8, 8);
        assert_eq!(fitted, BlockWords::W2, "2048 worlds / 8 threads need 128-lane chunks");
        assert!(chunk_count(&(0..2048), fitted) >= 16);
        // With more budget the same request keeps its width.
        assert_eq!(fit(0..8192, BlockWords::W8, 8), BlockWords::W8);
        assert_eq!(fit(0..1024, BlockWords::W8, 2), BlockWords::W4);
        // One thread has nothing to balance: even a single chunk keeps
        // the requested width…
        assert_eq!(fit(0..1024, BlockWords::W8, 1), BlockWords::W8);
        assert_eq!(fit(0..512, BlockWords::W8, 1), BlockWords::W8);
        assert_eq!(fit(1100..1200, BlockWords::W4, 0), BlockWords::W4);
        // …and tiny ranges bottom out at width 1 without panicking.
        assert_eq!(fit(0..64, BlockWords::W8, 4), BlockWords::W1);
        assert_eq!(fit(5..5, BlockWords::W8, 4), BlockWords::W1);
    }

    #[test]
    fn chunk_counts_match_decomposition() {
        for (range, width) in [
            (0..2048u64, BlockWords::W8),
            (37..411, BlockWords::W1),
            (100..130, BlockWords::W2),
            (0..512, BlockWords::W4),
            (7..7, BlockWords::W8),
        ] {
            assert_eq!(
                chunk_count(&range, width),
                superblock_chunks(range.clone(), width.words()).count() as u64,
                "{range:?} at {width}"
            );
        }
    }

    #[test]
    fn thread_count_edge_cases() {
        let g = graph();
        // zero threads clamps to 1; more threads than blocks also works.
        let coins = CoinTable::new(&g);
        let a = SamplePass::new(0..5, 0).forward(&g, &coins, 1).merged().0;
        let b = SamplePass::new(0..5, 128).forward(&g, &coins, 1).merged().0;
        assert_eq!(a, b);
        assert_eq!(a.samples(), 5);
    }

    #[test]
    fn zero_samples() {
        let g = graph();
        let out = SamplePass::new(0..0, 4).forward(&g, &CoinTable::new(&g), 1);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.merged().0.samples(), 0);
    }

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    #[test]
    fn forward_and_reverse_counts_match_the_oracle() {
        // Budgets straddling block boundaries, including t % 64 != 0.
        // Reverse counts are the oracle's masks read at the candidates.
        let g = from_parts(
            &[0.2, 0.2, 0.2, 0.2],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let cands = [NodeId(3), NodeId(1)];
        for t in [1u64, 63, 64, 65, 130, 500] {
            let mut forward = DefaultCounts::new(g.num_nodes());
            let mut reverse = DefaultCounts::new(cands.len());
            for i in 0..t {
                let world = PossibleWorld::sample_with_table(&g, &coins, 21, i);
                let defaulted = world.defaulted_nodes(&g);
                forward.record_mask(&defaulted);
                reverse.record_mask(&cands.map(|v| defaulted[v.index()]));
            }
            assert_eq!(forward_counts(&g, t, 21), forward, "forward, t = {t}");
            assert_eq!(reverse_counts(&g, &cands, t, 21), reverse, "reverse, t = {t}");
        }
    }

    #[test]
    fn certain_and_impossible_coins_count_exactly() {
        // p = 1 and p = 0 coins agree in every world, and a node reached
        // along two certain paths still counts once per world.
        let certain = from_parts(
            &[1.0, 0.0, 0.0, 0.0],
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let impossible =
            from_parts(&[0.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        for (g, expected) in [(&certain, 100), (&impossible, 0)] {
            let cands: Vec<NodeId> = g.nodes().collect();
            let (forward, reverse) = (forward_counts(g, 100, 1), reverse_counts(g, &cands, 100, 1));
            for v in 0..g.num_nodes() {
                assert_eq!((forward.count(v), reverse.count(v)), (expected, expected), "node {v}");
            }
        }
    }

    #[test]
    fn counts_converge_to_chain_marginals() {
        // p(0) = 0.5, p(1) = 0.25, p(2) = 0.125. A singleton reverse run
        // sees exactly the worlds of the forward run.
        let g = chain();
        let counts = forward_counts(&g, 40_000, 7);
        assert!((counts.estimate(0) - 0.5).abs() < 0.02);
        assert!((counts.estimate(1) - 0.25).abs() < 0.02);
        assert!((counts.estimate(2) - 0.125).abs() < 0.02);
        let single = reverse_counts(&g, &[NodeId(2)], 40_000, 7);
        assert_eq!((single.len(), single.count(0)), (1, counts.count(2)));
        assert_ne!(forward_counts(&g, 500, 11), forward_counts(&g, 500, 12), "seeds differ");
    }

    #[test]
    fn usage_reports_lazy_skips_per_block() {
        // No seed ever defaults, so no edge is ever touched: both edges
        // of both blocks are skipped.
        let g =
            from_parts(&[0.0, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
                .unwrap();
        let coins = CoinTable::new(&g);
        let pass = SamplePass { width: BlockWords::W1, ..SamplePass::new(0..128, 1) };
        let (counts, usage) = pass.forward(&g, &coins, 9).merged();
        assert_eq!(counts.samples(), 128);
        assert_eq!(usage.edge_words_materialized, 0);
        assert_eq!(usage.edge_words_skipped, 4, "2 edges × 2 blocks");
        assert_eq!(usage.lazy_skip_ratio(), 1.0);
    }

    #[test]
    fn small_candidate_sets_skip_most_edge_words() {
        // A long chain with a candidate at its head: the reverse BFS
        // only walks the candidate's ancestor tree, so the lazy path
        // must leave the downstream edges unmaterialized.
        let n = 50usize;
        let risks = vec![0.2; n];
        let edges: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
        let coins = CoinTable::new(&g);
        let pass = SamplePass { width: BlockWords::W1, ..SamplePass::new(0..128, 1) };
        let (_, usage) = pass.reverse(&g, &coins, &[NodeId(1)], 17).merged();
        assert!(
            usage.edge_words_materialized <= 2 * 2,
            "candidate 1 has one in-edge per world-block, got {}",
            usage.edge_words_materialized
        );
        assert!(usage.lazy_skip_ratio() > 0.9, "ratio {}", usage.lazy_skip_ratio());
    }

    #[test]
    fn effective_threads_clamps_to_available_parallelism() {
        let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        // No hard cap: a huge request lands exactly on the machine's
        // parallelism.
        assert_eq!(effective_threads(usize::MAX), hardware);
        assert_eq!(effective_threads(1_000_000), hardware);
        // Still clamped below by 1; the runner clamps to the chunk count.
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(3), 3.min(hardware));
    }
}
