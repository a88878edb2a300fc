//! Parallel sample execution over std scoped threads.
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
//! inline on the calling thread, with or without a touch ledger, so
//! every pass — sequential, parallel, traced — takes one code path.
//!
//! Cancellation ([`CancelToken`]) is checked before each claim, never
//! mid-chunk: a claimed chunk always finishes. Because claims are a
//! single monotone counter, the set of completed chunks at cancellation
//! is exactly the contiguous prefix `0..C` of the decomposition — the
//! same prefix a sequential cancelled run produces — so a degraded
//! answer replays bit-identically from its sample count alone.
//!
//! Width-aware chunking: a wide superblock coarsens the partition unit,
//! so before partitioning the drivers narrow the requested width until
//! the range decomposes into at least two chunks per worker thread
//! ([`fit_width`]). Counts are width-independent, so narrowing never
//! changes an answer — it only keeps small budgets from starving
//! threads.

use crate::block::{superblock_chunks, SuperBlock, SuperKernel};
use crate::cancel::CancelToken;
use crate::coins::{CoinTable, CoinUsage};
use crate::counts::DefaultCounts;
use crate::touch::TouchLedger;
use crate::width::{with_block_words, BlockWords};
use std::sync::atomic::{AtomicUsize, Ordering};
use ugraph::{NodeId, UncertainGraph};

/// Clamps a requested thread count to something sane: at least one, at
/// most one thread per work item, and never more than the machine's
/// available parallelism (extra threads could only contend).
pub(crate) fn effective_threads(requested: usize, work_items: u64) -> usize {
    let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    requested.max(1).min(work_items.max(1) as usize).min(hardware)
}

/// Number of superblock chunks `range` decomposes into at `width`.
fn chunk_count(range: &std::ops::Range<u64>, width: BlockWords) -> u64 {
    if range.end <= range.start {
        return 0;
    }
    let span = width.lanes();
    (range.end - 1) / span - range.start / span + 1
}

/// Narrows `width` until the range decomposes into at least
/// [`MIN_UNITS_PER_THREAD`](crate::width::MIN_UNITS_PER_THREAD)
/// superblock chunks per worker thread (or width 1 is reached), so a
/// small budget still saturates and balances all threads even when the
/// planner asked for wide superblocks. Partial chunks count — unlike
/// [`BlockWords::plan`], which requires *full* superblocks, this guards
/// a concrete range where any chunk is real work for a thread. Counts
/// are bit-identical at every width, so this only redistributes work.
pub fn fit_width(range: &std::ops::Range<u64>, width: BlockWords, threads: usize) -> BlockWords {
    let threads = threads.max(1) as u64;
    let mut width = width;
    while let Some(narrower) = width.narrower() {
        if chunk_count(range, width) >= threads * crate::width::MIN_UNITS_PER_THREAD {
            break;
        }
        width = narrower;
    }
    width
}

/// Parallel version of [`crate::forward::forward_counts`], on
/// planner-selected superblocks ([`BlockWords::plan`]).
///
/// Splits the superblock decomposition of `0..t` into `threads` strided
/// partitions; each thread owns its kernel scratch and partial counts.
pub fn parallel_forward_counts(
    graph: &UncertainGraph,
    t: u64,
    seed: u64,
    threads: usize,
) -> DefaultCounts {
    let width = BlockWords::plan(t, threads);
    parallel_forward_counts_range_width(graph, &CoinTable::new(graph), 0..t, seed, threads, width).0
}

/// [`parallel_forward_counts_range_width`] at width 1 with a throwaway
/// [`CoinTable`], for callers without a session cache.
pub fn parallel_forward_counts_range(
    graph: &UncertainGraph,
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
) -> DefaultCounts {
    let coins = CoinTable::new(graph);
    parallel_forward_counts_range_width(graph, &coins, range, seed, threads, BlockWords::W1).0
}

/// Parallel version of [`crate::forward::forward_counts_range_width`]
/// (narrowed by [`fit_width`] when the range is too small to keep every
/// thread busy at that width): bit-identical to the sequential width-1
/// run for any thread count and any width. Returns the counts plus the
/// merged materialization counters of every worker.
pub fn parallel_forward_counts_range_width(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    parallel_forward_counts_range_width_traced(
        graph, coins, range, seed, threads, width, None, None,
    )
}

/// [`parallel_forward_counts_range_width`] polling a [`CancelToken`]
/// between superblock chunks and folding every worker's touched node and
/// edge sets into `ledger` — the revalidation bookkeeping for
/// delta-aware sampled-state caches. A cancelled run returns the
/// contiguous chunk-aligned prefix it completed (exact sample count
/// inside the counts); replaying with that count as the budget
/// reproduces the prefix bit-identically at any thread count. The counts
/// are bit-identical with or without a ledger.
#[allow(clippy::too_many_arguments)]
pub fn parallel_forward_counts_range_width_traced(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let width = fit_width(&range, width, threads);
    with_block_words!(width, W, {
        let chunks: Vec<std::ops::Range<u64>> = superblock_chunks(range, W).collect();
        let threads = effective_threads(threads, chunks.len() as u64);
        forward_partitioned::<W>(graph, coins, &chunks, seed, threads, cancel, ledger)
    })
}

/// The claim-based forward runner, taking `threads` as-is. Split out
/// from the public entry point so tests exercise the threaded merge path
/// even on single-core machines (where `effective_threads` would clamp
/// to one thread).
///
/// Workers draw chunk indices from a shared monotone counter; the
/// cancel token is polled before each claim and a claimed chunk always
/// finishes, so the completed set is exactly the contiguous prefix of
/// `chunks` at the counter's final value — the same prefix a
/// single-thread pass produces. With one thread the worker
/// runs inline on the calling thread (see [`run_workers`]).
pub(crate) fn forward_partitioned<const W: usize>(
    graph: &UncertainGraph,
    coins: &CoinTable,
    chunks: &[std::ops::Range<u64>],
    seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let next = AtomicUsize::new(0);
    let partials = run_workers(threads, || {
        let mut block = SuperBlock::<W>::new(graph);
        let mut kernel = SuperKernel::<W>::new(graph);
        let mut counts = DefaultCounts::new(graph.num_nodes());
        while let Some(chunk) = claim(&next, chunks, cancel) {
            crate::forward::accumulate_forward_chunk(
                graph,
                coins,
                chunk.clone(),
                seed,
                &mut block,
                &mut kernel,
                &mut counts,
            );
        }
        if let Some(ledger) = ledger {
            ledger.absorb(block.touched_nodes(), block.touched_edges());
        }
        (counts, block.take_usage())
    });

    let mut total = DefaultCounts::new(graph.num_nodes());
    let mut usage = CoinUsage::default();
    for (p, u) in &partials {
        total.merge(p);
        usage.merge(u);
    }
    (total, usage)
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
    chunks: &'a [std::ops::Range<u64>],
    cancel: Option<&CancelToken>,
) -> Option<&'a std::ops::Range<u64>> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    // ORDERING: Relaxed — the counter only hands out distinct indices;
    // chunk results flow to the merge through thread join (or the
    // calling thread itself), not this atomic.
    chunks.get(next.fetch_add(1, Ordering::Relaxed))
}

/// Parallel version of [`crate::reverse::reverse_counts`], on
/// planner-selected superblocks ([`BlockWords::plan`]).
pub fn parallel_reverse_counts(
    graph: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
    threads: usize,
) -> DefaultCounts {
    let width = BlockWords::plan(t, threads);
    parallel_reverse_counts_range_width(
        graph,
        &CoinTable::new(graph),
        candidates,
        0..t,
        seed,
        threads,
        width,
    )
    .0
}

/// [`parallel_reverse_counts_range_width`] at width 1 with a throwaway
/// [`CoinTable`], for callers without a session cache.
pub fn parallel_reverse_counts_range(
    graph: &UncertainGraph,
    candidates: &[NodeId],
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
) -> DefaultCounts {
    let coins = CoinTable::new(graph);
    parallel_reverse_counts_range_width(
        graph,
        &coins,
        candidates,
        range,
        seed,
        threads,
        BlockWords::W1,
    )
    .0
}

/// Parallel version of [`crate::reverse::reverse_counts_range_width`]
/// (narrowed by [`fit_width`] when the range is too small to keep every
/// thread busy at that width): bit-identical to the sequential width-1
/// run for any thread count and any width.
#[allow(clippy::too_many_arguments)]
pub fn parallel_reverse_counts_range_width(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    parallel_reverse_counts_range_width_traced(
        graph, coins, candidates, range, seed, threads, width, None, None,
    )
}

/// [`parallel_reverse_counts_range_width`] with a [`CancelToken`] and a
/// touch ledger, under the same contiguous-prefix and ledger guarantees
/// as [`parallel_forward_counts_range_width_traced`].
#[allow(clippy::too_many_arguments)]
pub fn parallel_reverse_counts_range_width_traced(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: std::ops::Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let width = fit_width(&range, width, threads);
    with_block_words!(width, W, {
        let chunks: Vec<std::ops::Range<u64>> = superblock_chunks(range, W).collect();
        let threads = effective_threads(threads, chunks.len() as u64);
        reverse_partitioned::<W>(graph, coins, candidates, &chunks, seed, threads, cancel, ledger)
    })
}

/// [`parallel_reverse_counts_range_width_traced`] over
/// `start..ends.last()` in a single pass, returning the counts of each
/// segment `ends[i - 1]..ends[i]` (from `start`) separately: a caller
/// that needs several prefixes pays for one pass — one kernel set-up
/// per worker — instead of one pass per prefix. `ends` must be
/// ascending and at least `start`; chunks are split at every end, so
/// each segment's counts are exact. A cancelled pass completes a
/// contiguous prefix of the chunks, so the segments are exact up to the
/// first short one and empty after it.
#[allow(clippy::too_many_arguments)]
pub fn parallel_reverse_counts_split_traced(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    start: u64,
    ends: &[u64],
    seed: u64,
    threads: usize,
    width: BlockWords,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (Vec<DefaultCounts>, CoinUsage) {
    debug_assert!(
        ends.first().is_none_or(|&e| e >= start) && ends.windows(2).all(|w| w[0] <= w[1]),
        "segment ends must ascend from the start"
    );
    let width = fit_width(&(start..ends.last().copied().unwrap_or(start)), width, threads);
    with_block_words!(width, W, {
        let mut from = start;
        let mut chunks: Vec<std::ops::Range<u64>> = Vec::new();
        for &end in ends {
            chunks.extend(superblock_chunks(from..end, W));
            from = end;
        }
        let threads = effective_threads(threads, chunks.len() as u64);
        let (mut segments, usage) = reverse_segments::<W>(
            graph, coins, candidates, &chunks, ends, seed, threads, cancel, ledger,
        );
        segments.truncate(ends.len());
        (segments, usage)
    })
}

/// The claim-based reverse runner, taking `threads` as-is (see
/// [`forward_partitioned`] for why it is split out, how cancellation
/// keeps the completed set a contiguous prefix, and why one thread runs
/// inline).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reverse_partitioned<const W: usize>(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    chunks: &[std::ops::Range<u64>],
    seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let (mut segments, usage) =
        reverse_segments::<W>(graph, coins, candidates, chunks, &[], seed, threads, cancel, ledger);
    (segments.swap_remove(0), usage)
}

/// [`reverse_partitioned`] accumulating each chunk into the segment its
/// start falls in: segment `i` ends at `ends[i]`, and the last one
/// (index `ends.len()`) takes every chunk past the final end. Like every
/// pass here, a single-thread run executes inline on the calling thread
/// ([`run_workers`]), ledger or not.
#[allow(clippy::too_many_arguments)]
fn reverse_segments<const W: usize>(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    chunks: &[std::ops::Range<u64>],
    ends: &[u64],
    seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (Vec<DefaultCounts>, CoinUsage) {
    let fresh = || vec![DefaultCounts::new(candidates.len()); ends.len() + 1];
    let next = AtomicUsize::new(0);
    let partials = run_workers(threads, || {
        let mut block = SuperBlock::<W>::new(graph);
        let mut kernel = SuperKernel::<W>::new(graph);
        let mut hits = Vec::with_capacity(candidates.len() * W);
        let mut segments = fresh();
        while let Some(chunk) = claim(&next, chunks, cancel) {
            let segment = ends.partition_point(|&end| end <= chunk.start);
            crate::reverse::accumulate_reverse_chunk(
                graph,
                coins,
                candidates,
                chunk.clone(),
                seed,
                &mut block,
                &mut kernel,
                &mut hits,
                &mut segments[segment],
            );
        }
        if let Some(ledger) = ledger {
            ledger.absorb(block.touched_nodes(), block.touched_edges());
        }
        (segments, block.take_usage())
    });

    let mut total = fresh();
    let mut usage = CoinUsage::default();
    for (segments, u) in &partials {
        for (t, p) in total.iter_mut().zip(segments) {
            t.merge(p);
        }
        usage.merge(u);
    }
    (total, usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_chunks;
    use crate::forward::forward_counts;
    use crate::reverse::reverse_counts;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn graph() -> UncertainGraph {
        from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn parallel_forward_bit_identical_to_sequential() {
        let g = graph();
        let seq = forward_counts(&g, 1000, 42);
        for threads in [1, 2, 3, 8] {
            let par = parallel_forward_counts(&g, 1000, 42, threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_reverse_bit_identical_to_sequential() {
        let g = graph();
        let cands: Vec<NodeId> = g.nodes().collect();
        let seq = reverse_counts(&g, &cands, 1000, 7);
        for threads in [2, 4] {
            let par = parallel_reverse_counts(&g, &cands, 1000, 7, threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn partitioned_runners_bit_identical_at_forced_thread_counts() {
        // Drive the strided runners directly so the threaded merge path
        // is exercised even where available_parallelism() == 1 — at
        // width 1 and at the wide widths.
        let g = graph();
        let coins = CoinTable::new(&g);
        let chunks: Vec<std::ops::Range<u64>> = block_chunks(37..411).collect();
        let seq = crate::forward::forward_counts_range(&g, 37..411, 9);
        for threads in [2, 3, 5] {
            let (par, usage) =
                forward_partitioned::<1>(&g, &coins, &chunks, 9, threads, None, None);
            assert_eq!(par, seq, "threads = {threads}");
            // Lazy accounting covers every block exactly once regardless
            // of the partition.
            assert_eq!(
                usage.edge_words_materialized + usage.edge_words_skipped,
                chunks.len() as u64 * g.num_edges() as u64,
                "threads = {threads}"
            );
        }
        let wide_chunks: Vec<std::ops::Range<u64>> = superblock_chunks(37..1500, 4).collect();
        let wide_seq = crate::forward::forward_counts_range(&g, 37..1500, 9);
        for threads in [2, 3] {
            let (par, _) =
                forward_partitioned::<4>(&g, &coins, &wide_chunks, 9, threads, None, None);
            assert_eq!(par, wide_seq, "width 4, threads = {threads}");
        }
        let cands: Vec<NodeId> = g.nodes().collect();
        let rseq = crate::reverse::reverse_counts_range(&g, &cands, 37..411, 9);
        for threads in [2, 4] {
            assert_eq!(
                reverse_partitioned::<1>(&g, &coins, &cands, &chunks, 9, threads, None, None).0,
                rseq,
                "threads = {threads}"
            );
        }
        let rchunks: Vec<std::ops::Range<u64>> = superblock_chunks(37..411, 2).collect();
        assert_eq!(
            reverse_partitioned::<2>(&g, &coins, &cands, &rchunks, 9, 2, None, None).0,
            rseq
        );
    }

    #[test]
    fn pre_cancelled_runs_return_empty_prefix() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let token = CancelToken::new();
        token.cancel();
        let chunks: Vec<std::ops::Range<u64>> = block_chunks(0..500).collect();
        let (f, _) = forward_partitioned::<1>(&g, &coins, &chunks, 9, 3, Some(&token), None);
        assert_eq!(f.samples(), 0);
        let cands: Vec<NodeId> = g.nodes().collect();
        let (r, _) =
            reverse_partitioned::<1>(&g, &coins, &cands, &chunks, 9, 3, Some(&token), None);
        assert_eq!(r.samples(), 0);
        // The width-dispatching entry points honour the token too, on
        // both the sequential (threads = 1) and threaded paths.
        for threads in [1, 4] {
            let (f, _) = parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..500,
                9,
                threads,
                BlockWords::W1,
                Some(&token),
                None,
            );
            assert_eq!(f.samples(), 0, "threads = {threads}");
            let (r, _) = parallel_reverse_counts_range_width_traced(
                &g,
                &coins,
                &cands,
                0..500,
                9,
                threads,
                BlockWords::W1,
                Some(&token),
                None,
            );
            assert_eq!(r.samples(), 0, "threads = {threads}");
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
            let out = parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..51_200,
                11,
                3,
                BlockWords::W1,
                Some(&token),
                None,
            );
            canceller.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            out
        });
        let used = counts.samples();
        assert_eq!(used % crate::LANES as u64, 0, "prefix must be block-aligned");
        for threads in [1, 2, 5] {
            let (replay, _) = parallel_forward_counts_range_width(
                &g,
                &coins,
                0..used,
                11,
                threads,
                BlockWords::W1,
            );
            assert_eq!(replay, counts, "replay threads = {threads}");
        }
    }

    #[test]
    fn width_requests_are_bit_identical_for_any_thread_count() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let seq = crate::forward::forward_counts_range(&g, 0..900, 3);
        let cands: Vec<NodeId> = g.nodes().collect();
        let rseq = crate::reverse::reverse_counts_range(&g, &cands, 0..900, 3);
        for width in BlockWords::ALL {
            for threads in [1, 2, 8] {
                let (f, _) =
                    parallel_forward_counts_range_width(&g, &coins, 0..900, 3, threads, width);
                assert_eq!(f, seq, "forward width {width}, threads {threads}");
                let (r, _) = parallel_reverse_counts_range_width(
                    &g,
                    &coins,
                    &cands,
                    0..900,
                    3,
                    threads,
                    width,
                );
                assert_eq!(r, rseq, "reverse width {width}, threads {threads}");
            }
        }
    }

    #[test]
    fn traced_runs_are_bit_identical_and_record_touches() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let plain = parallel_forward_counts_range_width(&g, &coins, 0..900, 3, 2, BlockWords::W2).0;
        let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
        for threads in [1, 3] {
            let (traced, _) = parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..900,
                3,
                threads,
                BlockWords::W2,
                None,
                Some(&ledger),
            );
            assert_eq!(traced, plain, "threads = {threads}");
        }
        // Every self-risk here is positive and every edge p = 0.5, so at
        // 900 worlds each edge's source defaults somewhere: all edges
        // must appear in the ledger.
        assert_eq!(ledger.edge_count(), g.num_edges());

        let cands: Vec<NodeId> = g.nodes().collect();
        let rplain =
            parallel_reverse_counts_range_width(&g, &coins, &cands, 0..900, 3, 2, BlockWords::W1).0;
        let rledger = TouchLedger::new(g.num_nodes(), g.num_edges());
        let (rtraced, _) = parallel_reverse_counts_range_width_traced(
            &g,
            &coins,
            &cands,
            0..900,
            3,
            2,
            BlockWords::W1,
            None,
            Some(&rledger),
        );
        assert_eq!(rtraced, rplain);
        assert!(rledger.edge_count() > 0);
    }

    #[test]
    fn split_runs_count_each_segment_exactly_in_one_pass() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands: Vec<NodeId> = g.nodes().collect();
        let ends = [37, 37, 300, 1100];
        for threads in [1, 3] {
            let ledger = TouchLedger::new(g.num_nodes(), g.num_edges());
            let (segments, _) = parallel_reverse_counts_split_traced(
                &g,
                &coins,
                &cands,
                0,
                &ends,
                5,
                threads,
                BlockWords::W4,
                None,
                Some(&ledger),
            );
            assert_eq!(segments.len(), ends.len());
            let mut start = 0;
            for (segment, &end) in segments.iter().zip(&ends) {
                let want = crate::reverse::reverse_counts_range(&g, &cands, start..end, 5);
                assert_eq!(*segment, want, "{start}..{end}, threads = {threads}");
                start = end;
            }
            assert!(ledger.node_count() > 0, "the pass must record its touches");
            // A pass may start mid-stream, as a cache extension does.
            let (tail, _) = parallel_reverse_counts_split_traced(
                &g,
                &coins,
                &cands,
                300,
                &[700, 1100],
                5,
                threads,
                BlockWords::W4,
                None,
                None,
            );
            assert_eq!(tail[0], crate::reverse::reverse_counts_range(&g, &cands, 300..700, 5));
            assert_eq!(tail[1], crate::reverse::reverse_counts_range(&g, &cands, 700..1100, 5));
        }
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
        let before = parallel_forward_counts_range_width_traced(
            &g,
            &coins,
            0..2000,
            21,
            3,
            BlockWords::W2,
            None,
            Some(&ledger),
        )
        .0;
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
        let before = parallel_reverse_counts_range_width_traced(
            &g,
            &coins,
            &cands,
            0..2000,
            21,
            3,
            BlockWords::W2,
            None,
            Some(&ledger),
        )
        .0;
        assert!(ledger.intersects(&[0, 1, 2, 3], &[]), "ancestors must be recorded");
        assert!(!ledger.intersects(&[4], &[]), "node 4 must never materialize");
        let forward = TouchLedger::new(g.num_nodes(), g.num_edges());
        let _ = parallel_forward_counts_range_width_traced(
            &g,
            &coins,
            0..64,
            21,
            1,
            BlockWords::W1,
            None,
            Some(&forward),
        );
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
        let range = 0..2048u64;
        let fitted = fit_width(&range, BlockWords::W8, 8);
        assert_eq!(fitted, BlockWords::W2, "2048 worlds / 8 threads need 128-lane chunks");
        assert!(chunk_count(&range, fitted) >= 16);
        // With more budget the same request keeps its width.
        assert_eq!(fit_width(&(0..8192), BlockWords::W8, 8), BlockWords::W8);
        // Single-threaded runs never narrow below the chunk floor…
        assert_eq!(fit_width(&(0..1024), BlockWords::W8, 1), BlockWords::W8);
        // …and tiny ranges bottom out at width 1 without panicking.
        assert_eq!(fit_width(&(0..64), BlockWords::W8, 4), BlockWords::W1);
        assert_eq!(fit_width(&(5..5), BlockWords::W8, 4), BlockWords::W1);
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
        let a = parallel_forward_counts(&g, 5, 1, 0);
        let b = parallel_forward_counts(&g, 5, 1, 128);
        assert_eq!(a, b);
        assert_eq!(a.samples(), 5);
    }

    #[test]
    fn zero_samples() {
        let g = graph();
        let c = parallel_forward_counts(&g, 0, 1, 4);
        assert_eq!(c.samples(), 0);
    }

    #[test]
    fn effective_threads_clamps_to_available_parallelism() {
        let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        // No hard cap anymore: a huge request lands exactly on the
        // machine's parallelism (previously frozen at 64).
        assert_eq!(effective_threads(usize::MAX, u64::MAX), hardware);
        assert_eq!(effective_threads(1_000_000, u64::MAX), hardware);
        // Still clamped below by 1 and above by the number of work items.
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(8, 1), 1);
        assert_eq!(effective_threads(8, 3), 3.min(hardware));
        assert_eq!(effective_threads(1, 0), 1);
    }
}
