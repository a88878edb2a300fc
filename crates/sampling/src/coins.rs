//! Stateless counter-RNG coin synthesis — the bit-parallel
//! materialization side of the world-block data path.
//!
//! PR 2 made world *evaluation* bit-parallel but still materialized
//! coins with 64 sequential per-lane RNG streams: `64 · (n + m)`
//! Bernoulli draws per block, which `BENCH_sampling.json` showed was
//! ~85% of every end-to-end sample. This module replaces those streams
//! with a **stateless counter generator** and **bit-sliced dyadic
//! Bernoulli synthesis**:
//!
//! * Every probability is quantized once per graph into a fixed-point
//!   threshold `T = round(p · 2^32)` held in a [`CoinTable`] (the engine
//!   keeps one per graph snapshot it serves; [`CoinTable::matches`]
//!   detects a table that is stale for a graph through the graph's
//!   version counter).
//! * The uniform source is a pure function of `(seed, block, item,
//!   level)` — no sequential state, so any coin can be generated at any
//!   time, in any order, on any thread, including *lazily* when a BFS
//!   first touches an edge.
//! * A 64-lane Bernoulli(p) word is built by comparing, bit-serially
//!   from the most significant level down, each lane's uniform bits
//!   against the threshold bits ([`bernoulli_word`]). A lane is decided
//!   the first time its uniform bit differs from the threshold bit, so
//!   the expected number of uniform words per item is `log2(64) + O(1)`
//!   ≈ 7 — not 64 — and a popcount-checked fast path retires rare items
//!   (`p` near 0) after their threshold's leading-zero run.
//!
//! # The `(seed, block, item, level)` stream contract
//!
//! Sample `i` lives in lane `i % 64` of block `i / 64`. Its coin for an
//! item (node `v` or canonical edge `e`) is bit `i % 64` of the
//! synthesized word for that `(seed, i / 64, item)` — which
//! [`bernoulli_bit`] reproduces one lane at a time, exactly. The
//! [`PossibleWorld`](crate::PossibleWorld) oracle and the lazy/eager
//! block paths are both projections of the same function, which is what
//! keeps counts bit-identical across every data path.
//!
//! Quantization note: coins fire with probability exactly `T / 2^32`,
//! i.e. probabilities are rounded to the nearest multiple of `2^-32`
//! (error ≤ `2^-33`, far below any sampling-noise floor; `p = 0` and
//! `p = 1` are exact and never draw a word).

use ugraph::UncertainGraph;

/// Fixed-point precision of the dyadic thresholds, in bits.
pub const COIN_PRECISION: u32 = 32;

/// Threshold value meaning "always fires" (`p = 1`).
const FULL_THRESHOLD: u64 = 1 << COIN_PRECISION;

/// Domain separators so node coins, edge coins, and block keys can
/// never alias each other's streams.
const STREAM_DOMAIN: u64 = 0xC0_1234_5EED_C015;
const BLOCK_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const NODE_DOMAIN: u64 = 0x52D9_6F4D_9DC9_3C41;
const EDGE_DOMAIN: u64 = 0xA24B_AED4_963E_E407;
const LEVEL_GAMMA: u64 = 0xD6E8_FEB8_6659_FD93;

/// SplitMix64 finalizer: the counter-mixing primitive. Statistically
/// strong enough that evaluating it at arbitrary counters is exactly
/// the SplitMix64 generator the xoshiro authors recommend for seeding.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key of one 64-lane block of the run seeded `seed`.
#[inline]
pub fn block_key(seed: u64, block: u64) -> u64 {
    mix64(mix64(seed ^ STREAM_DOMAIN) ^ block.wrapping_mul(BLOCK_GAMMA))
}

/// Per-item key for node `v` within a block.
#[inline]
pub fn node_key(block_key: u64, v: usize) -> u64 {
    mix64(block_key ^ NODE_DOMAIN ^ (v as u64).wrapping_mul(BLOCK_GAMMA))
}

/// Per-item key for canonical edge `e` within a block.
#[inline]
pub fn edge_key(block_key: u64, e: usize) -> u64 {
    mix64(block_key ^ EDGE_DOMAIN ^ (e as u64).wrapping_mul(BLOCK_GAMMA))
}

/// Uniform 64-bit word at `level` of an item's stream: bit `j` is lane
/// `j`'s uniform bit for that comparison level.
#[inline]
fn level_word(item_key: u64, level: u32) -> u64 {
    mix64(item_key.wrapping_add((level as u64 + 1).wrapping_mul(LEVEL_GAMMA)))
}

/// Quantizes a probability into a fixed-point dyadic threshold in
/// `[0, 2^32]`. The coin fires with probability exactly `T / 2^32`.
#[inline]
pub fn quantize_probability(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    ((p * FULL_THRESHOLD as f64).round() as u64).min(FULL_THRESHOLD)
}

/// Synthesizes a 64-lane Bernoulli word: bit `j` of the result is set
/// (the coin "fires") with probability `threshold / 2^32`,
/// independently per lane, for the lanes selected by `lanes`.
///
/// Bit-serial comparison `U < T` from the most significant level down:
/// a lane whose uniform bit differs from the threshold bit is decided
/// at that level; undecided lanes (exact 32-bit ties) do not fire.
/// Deselected lanes always read 0. `words` counts the uniform words
/// consumed (0 for the `p ∈ {0, 1}` sentinels).
///
/// The leading-zero run of the threshold is the popcount-checked fast
/// path for rare items: while the threshold bit is 0 the loop is a pure
/// AND-chain that only *removes* candidate lanes, and it returns as
/// soon as the candidate mask pops to zero — for `p ≤ 2^-z` that is
/// typically within `z + log2(64)` words.
#[inline]
pub fn bernoulli_word(threshold: u64, item_key: u64, lanes: u64, words: &mut u64) -> u64 {
    if threshold == 0 || lanes == 0 {
        return 0;
    }
    if threshold >= FULL_THRESHOLD {
        return lanes;
    }
    let t = threshold as u32;
    let mut fired = 0u64;
    let mut undecided = lanes;
    let mut level = t.leading_zeros();
    // Fast path: the first `level` threshold bits are 0, so a lane can
    // only stay in play while its uniform bits are all 0.
    for l in 0..level {
        undecided &= !level_word(item_key, l);
        *words += 1;
        if undecided == 0 {
            return 0;
        }
    }
    while level < COIN_PRECISION {
        let u = level_word(item_key, level);
        *words += 1;
        if t >> (COIN_PRECISION - 1 - level) & 1 == 1 {
            fired |= undecided & !u;
            undecided &= u;
        } else {
            undecided &= !u;
        }
        if undecided == 0 {
            break;
        }
        level += 1;
    }
    fired
}

/// `W` parallel [`bernoulli_word`] syntheses for one item — one word
/// per home block of a superblock, each under its own `item_keys[w]` —
/// advanced **level-synchronized**: every comparison level draws the
/// still-undecided words' uniforms together, so the `W` independent
/// `mix64` chains overlap in the pipeline (and autovectorize where the
/// target has 64-bit SIMD multiplies) instead of running as `W`
/// sequential early-exit loops.
///
/// Bit-identical to calling [`bernoulli_word`] once per word: the same
/// uniform levels are compared against the same threshold bits (updates
/// applied to an already-decided word are no-ops), and `words` counts
/// exactly the levels a per-word early-exit loop would have drawn.
#[inline]
pub fn bernoulli_words<const W: usize>(
    threshold: u64,
    item_keys: &[u64; W],
    lanes: &[u64; W],
    words: &mut u64,
) -> [u64; W] {
    let mut fired = [0u64; W];
    if threshold == 0 {
        return fired;
    }
    if threshold >= FULL_THRESHOLD {
        return *lanes;
    }
    let mut undecided = *lanes;
    let live = undecided.iter().fold(0u64, |acc, &word| acc | word);
    if live == 0 {
        return fired;
    }
    let t = threshold as u32;
    // Fast path: while the threshold bit is 0 a lane only stays in play
    // while its uniform bits are all 0 — a pure AND-chain per word.
    let leading = t.leading_zeros();
    for level in 0..leading {
        let mut active = 0u64;
        let mut still = 0u64;
        for w in 0..W {
            active += u64::from(undecided[w] != 0);
            undecided[w] &= !level_word(item_keys[w], level);
            still |= undecided[w];
        }
        *words += active;
        if still == 0 {
            return fired;
        }
    }
    for level in leading..COIN_PRECISION {
        let bit = t >> (COIN_PRECISION - 1 - level) & 1 == 1;
        let mut active = 0u64;
        let mut still = 0u64;
        for w in 0..W {
            active += u64::from(undecided[w] != 0);
            let u = level_word(item_keys[w], level);
            if bit {
                fired[w] |= undecided[w] & !u;
                undecided[w] &= u;
            } else {
                undecided[w] &= !u;
            }
            still |= undecided[w];
        }
        *words += active;
        if still == 0 {
            break;
        }
    }
    fired
}

/// One lane of [`bernoulli_word`], bit-identical to bit `lane` of the
/// 64-lane synthesis.
#[inline]
pub fn bernoulli_bit(threshold: u64, item_key: u64, lane: u32, words: &mut u64) -> bool {
    if threshold == 0 {
        return false;
    }
    if threshold >= FULL_THRESHOLD {
        return true;
    }
    let t = threshold as u32;
    for level in 0..COIN_PRECISION {
        let u_bit = level_word(item_key, level) >> lane & 1;
        *words += 1;
        let t_bit = u64::from(t >> (COIN_PRECISION - 1 - level) & 1);
        if u_bit != t_bit {
            return u_bit < t_bit;
        }
    }
    false
}

/// Per-graph fixed-point thresholds for every node self-default and
/// edge survival coin — the precomputation the synthesis kernels read.
///
/// Building one is `O(n + m)`. The engine builds one per graph snapshot
/// on first use and carries it to the next snapshot with
/// [`CoinTable::patch`]. The table records the graph's probability
/// version, which every probability update bumps, so
/// [`CoinTable::matches`] catches a table read against a graph it was
/// not built for (the block kernels debug-assert it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinTable {
    node_thresholds: Box<[u64]>,
    edge_thresholds: Box<[u64]>,
    graph_version: u64,
}

impl CoinTable {
    /// Quantizes every probability of `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        CoinTable {
            node_thresholds: graph
                .nodes()
                .map(|v| quantize_probability(graph.self_risk(v)))
                .collect(),
            edge_thresholds: graph
                .edges()
                .map(|e| quantize_probability(graph.edge_prob(e)))
                .collect(),
            graph_version: graph.version(),
        }
    }

    /// `true` if this table is still current for `graph`: same shape
    /// and same probability version. A `set_self_risk`/`set_edge_prob`
    /// call bumps the graph's version, invalidating cached tables.
    pub fn matches(&self, graph: &UncertainGraph) -> bool {
        self.node_thresholds.len() == graph.num_nodes()
            && self.edge_thresholds.len() == graph.num_edges()
            && self.graph_version == graph.version()
    }

    /// Fixed-point precision of the thresholds, in bits.
    pub fn precision(&self) -> u32 {
        COIN_PRECISION
    }

    /// Number of node thresholds.
    pub fn num_nodes(&self) -> usize {
        self.node_thresholds.len()
    }

    /// Number of edge thresholds.
    pub fn num_edges(&self) -> usize {
        self.edge_thresholds.len()
    }

    /// Threshold of node `v`'s self-default coin.
    #[inline]
    pub fn node_threshold(&self, v: usize) -> u64 {
        self.node_thresholds[v]
    }

    /// Threshold of canonical edge `e`'s survival coin.
    #[inline]
    pub fn edge_threshold(&self, e: usize) -> u64 {
        self.edge_thresholds[e]
    }

    /// Re-quantizes only the listed items against `graph` (the
    /// post-delta snapshot) and adopts its probability version.
    ///
    /// Thresholds are per-item pure functions of the probability, so
    /// when the dirty sets cover every item whose probability changed,
    /// the patched table is **bit-identical** to `CoinTable::new(graph)`
    /// — at `O(|dirty|)` instead of `O(n + m)`. Ids must be in bounds
    /// for the table's shape (a validated [`ugraph::GraphDelta`]
    /// guarantees this) and the graph's shape must match the table's.
    pub fn patch(&mut self, graph: &UncertainGraph, dirty_nodes: &[u32], dirty_edges: &[u32]) {
        assert_eq!(self.node_thresholds.len(), graph.num_nodes(), "table/graph node mismatch");
        assert_eq!(self.edge_thresholds.len(), graph.num_edges(), "table/graph edge mismatch");
        for &v in dirty_nodes {
            self.node_thresholds[v as usize] =
                quantize_probability(graph.self_risk(ugraph::NodeId(v)));
        }
        for &e in dirty_edges {
            self.edge_thresholds[e as usize] =
                quantize_probability(graph.edge_prob(ugraph::EdgeId(e)));
        }
        self.graph_version = graph.version();
    }
}

/// One sample's scalar coin view: lane `sample_id % 64` of block
/// `sample_id / 64`. The [`PossibleWorld`](crate::PossibleWorld) oracle
/// draws through this, one lane at a time and independently of the
/// transposed synthesis the block kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarCoins {
    block_key: u64,
    lane: u32,
}

impl ScalarCoins {
    /// Coins of sample `sample_id` in the run seeded `seed`.
    pub fn new(seed: u64, sample_id: u64) -> Self {
        ScalarCoins { block_key: block_key(seed, sample_id / 64), lane: (sample_id % 64) as u32 }
    }

    /// Node `v`'s self-default coin in this sample's world.
    #[inline]
    pub fn node_coin(&self, table: &CoinTable, v: usize) -> bool {
        let mut words = 0;
        bernoulli_bit(table.node_threshold(v), node_key(self.block_key, v), self.lane, &mut words)
    }

    /// Canonical edge `e`'s survival coin in this sample's world.
    #[inline]
    pub fn edge_coin(&self, table: &CoinTable, e: usize) -> bool {
        let mut words = 0;
        bernoulli_bit(table.edge_threshold(e), edge_key(self.block_key, e), self.lane, &mut words)
    }
}

/// Materialization-cost counters, accumulated by
/// [`WorldBlock`](crate::WorldBlock) and surfaced through the engine
/// stats and the benchmark report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoinUsage {
    /// Uniform 64-bit words synthesized (the raw generator cost).
    pub words: u64,
    /// Edge lane-words actually materialized (eagerly or on first BFS
    /// touch). Partial superblocks count covered home blocks only.
    pub edge_words_materialized: u64,
    /// Edge lane-words skipped entirely because no traversal touched
    /// the edge in that block — the frontier-lazy win.
    pub edge_words_skipped: u64,
    /// Superblocks materialized (a width-1 run counts one per 64-lane
    /// block; a width-W run one per W home blocks).
    pub superblocks: u64,
}

impl CoinUsage {
    /// Adds another accumulator's counts into this one.
    pub fn merge(&mut self, other: &CoinUsage) {
        self.words += other.words;
        self.edge_words_materialized += other.edge_words_materialized;
        self.edge_words_skipped += other.edge_words_skipped;
        self.superblocks += other.superblocks;
    }

    /// Fraction of edge lane-words the lazy path never materialized
    /// (0 when nothing ran).
    pub fn lazy_skip_ratio(&self) -> f64 {
        let total = self.edge_words_materialized + self.edge_words_skipped;
        if total == 0 {
            0.0
        } else {
            self.edge_words_skipped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy, EdgeId, NodeId};

    #[test]
    fn quantization_is_exact_at_dyadic_points() {
        assert_eq!(quantize_probability(0.0), 0);
        assert_eq!(quantize_probability(1.0), FULL_THRESHOLD);
        assert_eq!(quantize_probability(0.5), 1 << 31);
        assert_eq!(quantize_probability(0.25), 1 << 30);
    }

    #[test]
    fn word_and_bit_synthesis_agree_lane_for_lane() {
        for (i, &threshold) in
            [0u64, 1, 3, 1 << 16, (1 << 31) + 12345, FULL_THRESHOLD - 1, FULL_THRESHOLD]
                .iter()
                .enumerate()
        {
            let key = mix64(0xFEED ^ i as u64);
            let mut words = 0;
            let word = bernoulli_word(threshold, key, u64::MAX, &mut words);
            for lane in 0..64u32 {
                let mut w = 0;
                assert_eq!(
                    word >> lane & 1 == 1,
                    bernoulli_bit(threshold, key, lane, &mut w),
                    "threshold {threshold}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn batched_synthesis_matches_per_word_synthesis_and_counts() {
        for (i, &threshold) in
            [0u64, 1, 3, 1 << 16, (1 << 31) + 12345, FULL_THRESHOLD - 1, FULL_THRESHOLD]
                .iter()
                .enumerate()
        {
            let keys = [
                mix64(0xABCD ^ i as u64),
                mix64(0x1234 ^ i as u64),
                mix64(0x9999 ^ i as u64),
                mix64(0x4242 ^ i as u64),
            ];
            // Full, partial, and empty lane masks side by side.
            let lanes = [u64::MAX, 0xFFFF, u64::MAX << 32, 0];
            let mut batched_words = 0;
            let batched = bernoulli_words::<4>(threshold, &keys, &lanes, &mut batched_words);
            let mut sequential_words = 0;
            for w in 0..4 {
                let expected = bernoulli_word(threshold, keys[w], lanes[w], &mut sequential_words);
                assert_eq!(batched[w], expected, "threshold {threshold}, word {w}");
            }
            assert_eq!(
                batched_words, sequential_words,
                "threshold {threshold}: word accounting diverged"
            );
        }
    }

    #[test]
    fn sentinels_draw_no_words() {
        let mut words = 0;
        assert_eq!(bernoulli_word(0, 1, u64::MAX, &mut words), 0);
        assert_eq!(bernoulli_word(FULL_THRESHOLD, 1, u64::MAX, &mut words), u64::MAX);
        assert!(bernoulli_bit(FULL_THRESHOLD, 1, 0, &mut words));
        assert!(!bernoulli_bit(0, 1, 0, &mut words));
        assert_eq!(words, 0);
    }

    #[test]
    fn deselected_lanes_read_zero() {
        let mut words = 0;
        let mask = 0b1010_1010;
        let word = bernoulli_word(1 << 31, mix64(9), mask, &mut words);
        assert_eq!(word & !mask, 0);
        // Selected lanes match the full-mask synthesis bit for bit.
        let mut w2 = 0;
        let full = bernoulli_word(1 << 31, mix64(9), u64::MAX, &mut w2);
        assert_eq!(word, full & mask);
    }

    #[test]
    fn frequency_matches_dyadic_probability() {
        // p = T / 2^32 exactly; check the law of large numbers over many
        // independent item keys, for a mid and a rare threshold.
        for (threshold, blocks) in [(quantize_probability(0.3), 2_000u64), (1 << 26, 40_000)] {
            let p = threshold as f64 / FULL_THRESHOLD as f64;
            let mut hits = 0u64;
            let mut words = 0;
            for b in 0..blocks {
                hits += bernoulli_word(threshold, block_key(7, b), u64::MAX, &mut words)
                    .count_ones() as u64;
            }
            let freq = hits as f64 / (blocks * 64) as f64;
            let sigma = (p * (1.0 - p) / (blocks * 64) as f64).sqrt();
            assert!((freq - p).abs() < 6.0 * sigma + 1e-9, "p {p}: freq {freq}");
        }
    }

    #[test]
    fn rare_thresholds_consume_few_words() {
        // p = 2^-20: the popcount-checked AND-chain should retire a
        // block in well under the full 32 levels.
        let mut words = 0;
        let blocks = 1000u64;
        for b in 0..blocks {
            bernoulli_word(1 << 12, block_key(3, b), u64::MAX, &mut words);
        }
        let avg = words as f64 / blocks as f64;
        assert!(avg < 12.0, "average words per rare item: {avg}");
    }

    #[test]
    fn coin_table_quantizes_and_tracks_versions() {
        let mut g = from_parts(&[0.5, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let table = CoinTable::new(&g);
        assert_eq!(table.node_threshold(0), 1 << 31);
        assert_eq!(table.node_threshold(1), 0);
        assert_eq!(table.edge_threshold(0), FULL_THRESHOLD);
        assert_eq!(table.precision(), COIN_PRECISION);
        assert!(table.matches(&g));
        g.set_edge_prob(EdgeId(0), 0.25).unwrap();
        assert!(!table.matches(&g), "stale table must be detected after an edge update");
        let rebuilt = CoinTable::new(&g);
        assert!(rebuilt.matches(&g));
        g.set_self_risk(NodeId(1), 0.1).unwrap();
        assert!(!rebuilt.matches(&g), "stale table must be detected after a node update");
    }

    #[test]
    fn patched_table_is_bit_identical_to_a_rebuild() {
        let mut g = from_parts(
            &[0.5, 0.25, 0.125, 0.75],
            &[(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.9), (0, 3, 0.1)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let mut table = CoinTable::new(&g);
        g.set_self_risk(NodeId(1), 0.875).unwrap();
        g.set_self_risk(NodeId(3), 0.0).unwrap();
        g.set_edge_prob(EdgeId(2), 0.05).unwrap();
        assert!(!table.matches(&g));
        table.patch(&g, &[1, 3], &[2]);
        assert!(table.matches(&g));
        assert_eq!(table, CoinTable::new(&g), "patch must equal a cold rebuild bit-for-bit");
        // An empty patch only adopts the version.
        let mut idle = table.clone();
        g.set_self_risk(NodeId(0), 0.5).unwrap(); // same value, version still bumps
        idle.patch(&g, &[0], &[]);
        assert_eq!(idle, CoinTable::new(&g));
    }

    #[test]
    fn scalar_coins_project_block_lanes() {
        let g = from_parts(&[0.4, 0.2], &[(0, 1, 0.7)], DuplicateEdgePolicy::Error).unwrap();
        let table = CoinTable::new(&g);
        for id in [0u64, 1, 63, 64, 130] {
            let coins = ScalarCoins::new(5, id);
            let bk = block_key(5, id / 64);
            let lane = (id % 64) as u32;
            let mut words = 0;
            for v in 0..2 {
                let word =
                    bernoulli_word(table.node_threshold(v), node_key(bk, v), u64::MAX, &mut words);
                assert_eq!(coins.node_coin(&table, v), word >> lane & 1 == 1, "sample {id}");
            }
            let word =
                bernoulli_word(table.edge_threshold(0), edge_key(bk, 0), u64::MAX, &mut words);
            assert_eq!(coins.edge_coin(&table, 0), word >> lane & 1 == 1, "sample {id}");
        }
    }

    #[test]
    fn usage_merge_and_ratio() {
        let mut a = CoinUsage {
            words: 10,
            edge_words_materialized: 3,
            edge_words_skipped: 9,
            superblocks: 2,
        };
        let b = CoinUsage {
            words: 5,
            edge_words_materialized: 1,
            edge_words_skipped: 3,
            superblocks: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CoinUsage {
                words: 15,
                edge_words_materialized: 4,
                edge_words_skipped: 12,
                superblocks: 3
            }
        );
        assert!((a.lazy_skip_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CoinUsage::default().lazy_skip_ratio(), 0.0);
    }
}
