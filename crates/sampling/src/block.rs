//! Bit-parallel world superblocks — the W×64-lane possible-world kernel.
//!
//! A [`SuperBlock`] packs **`W · 64` possible worlds** — `W` consecutive
//! 64-lane *home blocks* — into `[u64; W]` word-vectors stored
//! transposed-contiguously: one word-vector per node (bit `j` of word
//! `w` = "node self-defaulted in lane `j` of home block `w`") and one
//! per edge. [`SuperKernel`] then advances *all `W · 64` worlds per
//! traversal step*: an edge transmission is `W` bitwise AND/ORs over
//! adjacent words — a shape the compiler autovectorizes to SSE/AVX/NEON
//! — so the structural work that dominated the 64-lane path (CSR index
//! arithmetic, frontier queue pushes, slot lookups) is amortized over
//! `W` times as many worlds.
//!
//! [`WorldBlock`] and [`BlockKernel`] are the `W = 1` aliases — the
//! classic 64-lane block path, still used by the adaptive passes that
//! stop mid-stream and so read worlds 64 at a time in sample-id order:
//! bottom-k scoring and labels. Runtime width
//! selection lives in [`BlockWords`](crate::BlockWords).
//!
//! Materialization is bit-parallel too: lane words are synthesized
//! transposed, straight from the stateless `(seed, block, item, level)`
//! generator of [`crate::coins`], **per home block** — a superblock
//! holds `W` independent home-block syntheses side by side, which is
//! what keeps counts bit-identical across widths. Node and edge
//! word-vectors are both **frontier-lazy**: [`SuperBlock::node_word_lazy`]
//! and [`SuperBlock::edge_word`] synthesize all `W` words of an item the
//! first time a traversal reads it and keep them in a per-superblock
//! slot. A reverse search decides lanes as it discovers ancestors and
//! stops once every lane is decided, so it pays coins and scratch only
//! for the nodes and edges it read up to that point — at most the ones
//! reachable from its candidate, never `O(W·(n + m))`. The forward
//! kernel needs every node's seeds and draws them straight into its
//! per-node result vectors.
//!
//! # The `(seed, block, lane)` stream contract
//!
//! Sample `i` occupies lane `i % 64` of home block `i / 64` — word
//! `(i / 64) % W` of superblock `i / (W · 64)` — and its world is
//! **exactly** [`PossibleWorld::sample_indexed(graph, seed, i)`]: every
//! coin is a fixed bit of the stateless synthesis keyed by
//! `(seed, i / 64, item)`, independent of the superblock width it is
//! evaluated under — see [`crate::coins`] for the generator. Every
//! sampling path in this crate (the superblock kernels at every width
//! and every [`SamplePass`](crate::SamplePass)) reads aligned
//! superblocks and evaluates deterministic functions of *those* worlds,
//! which is why counts are **bit-identical** to the [`PossibleWorld`]
//! oracle and across widths, lazy and eager materialization, any sample
//! budget (including budgets that are not multiples of `W · 64`, served
//! through per-word lane masks over the partial superblock), and any
//! thread count.
//!
//! [`PossibleWorld::sample_indexed(graph, seed, i)`]: PossibleWorld::sample_indexed

use crate::coins::{bernoulli_words, block_key, edge_key, node_key};
use crate::coins::{CoinTable, CoinUsage};
use crate::touch::TouchSet;
use crate::world::PossibleWorld;
use ugraph::{NodeId, UncertainGraph};

/// Number of possible worlds packed into one `u64` lane word: the lane
/// width of the SIMD-within-a-register kernel.
pub const LANES: usize = 64;

/// All-lanes mask for a word holding `lanes` worlds (`lanes ≤ 64`).
#[inline]
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "a block holds at most {LANES} lanes");
    if lanes == LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// The word-vector of item `i` in a flat stride-`W` slice.
#[inline(always)]
fn wv<const W: usize>(words: &[u64], i: usize) -> &[u64; W] {
    // xlint: allow(panic-hygiene) — the slice is exactly `W` words by
    // construction of the index range, so the conversion is infallible.
    (&words[i * W..i * W + W]).try_into().expect("stride-W word-vector")
}

/// Mutable [`wv`].
#[inline(always)]
fn wv_mut<const W: usize>(words: &mut [u64], i: usize) -> &mut [u64; W] {
    // xlint: allow(panic-hygiene) — same exact-length slice invariant
    // as `wv`.
    (&mut words[i * W..i * W + W]).try_into().expect("stride-W word-vector")
}

/// Per-word lane masks of the sample chunk `first_id .. first_id + lanes`
/// within its `W`-word superblock: word `w` selects the chunk's samples
/// that live in home block `superblock · W + w`. Uncovered home blocks
/// get an all-zero mask (and draw no coins at all).
fn word_masks<const W: usize>(first_id: u64, lanes: usize) -> [u64; W] {
    let span = (W * LANES) as u64;
    let base = first_id / span * span;
    let (lo, hi) = (first_id, first_id + lanes as u64);
    let mut masks = [0u64; W];
    for (w, mask) in masks.iter_mut().enumerate() {
        let word_start = base + (w * LANES) as u64;
        let s = lo.max(word_start);
        let e = hi.min(word_start + LANES as u64);
        if s < e {
            *mask = lane_mask((e - s) as usize) << (s - word_start);
        }
    }
    masks
}

/// A sparse item→slot map with a compact value slab (the sparse set of
/// Briggs & Torczon, 1993): `slot_of[i]` is 1 + the slot of item `i`,
/// or 0 if it has none; `owners` lists the items holding slots, in
/// insertion order; `values[s]` is slot `s`'s value.
///
/// The index is zero-allocated and afterwards written only at inserted
/// items, and the slab holds exactly the inserted items.
/// [`clear`](Self::clear) unmaps the owners alone — `O(inserted)`,
/// however many items the index spans.
#[derive(Debug, Clone)]
struct Slots<T> {
    slot_of: Vec<u32>,
    owners: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Slots<T> {
    /// An empty map over items `0..items`.
    fn new(items: usize) -> Self {
        assert!(items < u32::MAX as usize, "slot index overflow");
        Slots { slot_of: vec![0; items], owners: Vec::new(), values: Vec::new() }
    }

    /// Number of items the index spans.
    fn items(&self) -> usize {
        self.slot_of.len()
    }

    #[inline]
    fn get(&self, item: usize) -> Option<&T> {
        match self.slot_of[item] {
            0 => None,
            slot => Some(&self.values[slot as usize - 1]),
        }
    }

    /// Item `item`'s value, inserting `value` first if it holds no slot.
    #[inline]
    fn get_or_insert(&mut self, item: usize, value: T) -> &mut T {
        let slot = match self.slot_of[item] {
            0 => {
                self.owners.push(item as u32);
                self.values.push(value);
                self.slot_of[item] = self.owners.len() as u32;
                self.owners.len() - 1
            }
            slot => slot as usize - 1,
        };
        &mut self.values[slot]
    }

    fn reserve_exact(&mut self, additional: usize) {
        self.owners.reserve_exact(additional);
        self.values.reserve_exact(additional);
    }

    /// Unmaps every slot, keeping the allocations for the next round.
    fn clear(&mut self) {
        for &item in &self.owners {
            self.slot_of[item as usize] = 0;
        }
        self.owners.clear();
        self.values.clear();
    }

    /// 64-bit words held (allocated capacity): the index, the owner list
    /// and the value slab.
    fn scratch_words(&self) -> usize {
        (4 * (self.slot_of.capacity() + self.owners.capacity())
            + std::mem::size_of::<T>() * self.values.capacity())
        .div_ceil(8)
    }
}

/// `W · 64` possible worlds as per-node and per-edge `[u64; W]`
/// word-vectors, held in **per-superblock slots**: a word-vector is
/// synthesized by [`node_word_lazy`](Self::node_word_lazy) or
/// [`edge_word`](Self::edge_word) the first time a traversal reads it
/// and cached in a slot for the rest of the superblock, so untouched
/// items cost neither coins nor memory. Every word is a pure function
/// of `(block key, item, lane)`, so the order of first touches can
/// never change a value.
///
/// Each item kind has a zero-allocated `u32` item→slot index, an owner
/// list in touch order and a compact slab of word-vectors (a sparse
/// set, after Briggs & Torczon, 1993). Materializing the next
/// superblock unmaps only the previous one's owners, so beyond its two
/// indexes a block holds word-vectors in proportion to what one
/// superblock drew, not `n·W + m·W` words.
/// [`scratch_words`](Self::scratch_words) reports the footprint.
/// [`WorldBlock`] is the `W = 1` alias.
#[derive(Debug, Clone)]
pub struct SuperBlock<const W: usize> {
    /// Node `v`'s slot, bit `j` of word `w`: `v` self-defaulted in lane
    /// `j` of home block `w`.
    nodes: Slots<[u64; W]>,
    /// Edge `e`'s slot (canonical id), bit `j` of word `w`: `e` survived
    /// in lane `j` of home block `w`.
    edges: Slots<[u64; W]>,
    /// Which lanes of which words hold materialized worlds.
    lane_masks: [u64; W],
    /// Words of `lane_masks` that are non-zero — the per-edge lazy-skip
    /// accounting unit, so partial superblocks are not over-credited.
    covered_words: u64,
    /// Block key of each word: word `w` holds the 64 consecutive
    /// samples of home block `superblock · W + w`. `None` until the
    /// first [`materialize`](Self::materialize).
    keys: Option<[u64; W]>,
    /// Edge words not yet materialized in the current superblock
    /// (flushed into `usage.edge_words_skipped` when the next superblock
    /// begins).
    pending_edge_words: u64,
    usage: CoinUsage,
    /// Every node and every edge whose words this block ever
    /// synthesized, in any superblock — the revalidation ledger: counts
    /// are independent of every unmarked item's coin (see
    /// [`crate::touch`]).
    touched_nodes: TouchSet,
    touched_edges: TouchSet,
}

/// The classic 64-lane world block — a [`SuperBlock`] of width 1.
pub type WorldBlock = SuperBlock<1>;

impl<const W: usize> SuperBlock<W> {
    /// Creates an empty superblock over `graph`'s nodes and edges. Its
    /// slot indexes are zero-allocated; slabs grow with what the first
    /// superblocks draw and are reused after that.
    pub fn new(graph: &UncertainGraph) -> Self {
        assert!(W >= 1 && W <= crate::width::MAX_BLOCK_WORDS && W.is_power_of_two());
        SuperBlock {
            nodes: Slots::new(graph.num_nodes()),
            edges: Slots::new(graph.num_edges()),
            lane_masks: [0; W],
            covered_words: 0,
            // A lazy read before the first materialize() finds no slot
            // and panics on the missing keys instead of silently serving
            // an all-zero word.
            keys: None,
            pending_edge_words: 0,
            usage: CoinUsage::default(),
            touched_nodes: TouchSet::new(graph.num_nodes()),
            touched_edges: TouchSet::new(graph.num_edges()),
        }
    }

    /// Starts a new superblock: flushes lazy-skip accounting and unmaps
    /// the node and edge slots the previous superblock drew.
    fn begin_block(&mut self, covered_words: u64) {
        self.usage.edge_words_skipped += self.pending_edge_words;
        self.covered_words = covered_words;
        self.pending_edge_words = self.edges.items() as u64 * covered_words;
        self.usage.superblocks += 1;
        self.nodes.clear();
        self.edges.clear();
    }

    /// Materializes the worlds of samples `first_id .. first_id + lanes`
    /// (all within one `W·64`-aligned superblock): sample `first_id + i`
    /// occupies lane `(first_id + i) % 64` of word
    /// `(first_id + i) / 64 % W`, so partial chunks of the same
    /// superblock draw the same transposed words and merge exactly —
    /// and the same lane words the width-1 path would synthesize for
    /// each covered home block, which is what keeps every width
    /// bit-identical.
    ///
    /// No coin is drawn here: node and edge word-vectors wait for
    /// [`node_word_lazy`](Self::node_word_lazy) and
    /// [`edge_word`](Self::edge_word) (call
    /// [`force_nodes`](Self::force_nodes) and
    /// [`force_edges`](Self::force_edges) for the eager equivalent).
    pub fn materialize(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        seed: u64,
        first_id: u64,
        lanes: usize,
    ) {
        let span = (W * LANES) as u64;
        assert!(
            lanes >= 1 && first_id % span + lanes as u64 <= span,
            "chunk crosses a superblock boundary"
        );
        debug_assert!(coins.matches(graph), "stale coin table for this graph");
        debug_assert_eq!(coins.num_nodes(), graph.num_nodes(), "table/graph node mismatch");
        let superblock = first_id / span;
        let mut keys = [0u64; W];
        for (w, key) in keys.iter_mut().enumerate() {
            *key = block_key(seed, superblock * W as u64 + w as u64);
        }
        let masks = word_masks::<W>(first_id, lanes);
        self.begin_block(masks.iter().filter(|&&m| m != 0).count() as u64);
        self.keys = Some(keys);
        self.lane_masks = masks;
    }

    /// The survival word-vector of edge `e` in the current superblock,
    /// synthesized on first touch (frontier-lazy, all `W` words at once)
    /// and cached in a slot for the rest of the superblock.
    #[inline]
    pub fn edge_word(&mut self, coins: &CoinTable, e: usize) -> [u64; W] {
        match self.edges.get(e) {
            Some(&vec) => vec,
            None => self.materialize_edge(coins, e),
        }
    }

    fn materialize_edge(&mut self, coins: &CoinTable, e: usize) -> [u64; W] {
        let vec = self.synthesize(coins.edge_threshold(e), edge_key, e, "edge_word");
        self.edges.get_or_insert(e, vec);
        self.touched_edges.mark(e);
        // Saturating: a `take_usage` mid-block already flushed the
        // remaining edge words as skipped, so later touches must not
        // underflow the pending count.
        self.pending_edge_words = self.pending_edge_words.saturating_sub(self.covered_words);
        self.usage.edge_words_materialized += self.covered_words;
        vec
    }

    /// The self-default word-vector of node `v` in the current
    /// superblock, synthesized on first touch (frontier-lazy, all `W`
    /// words at once) and cached in a slot for the rest of the
    /// superblock.
    #[inline]
    pub fn node_word_lazy(&mut self, coins: &CoinTable, v: usize) -> [u64; W] {
        match self.nodes.get(v) {
            Some(&vec) => vec,
            None => self.materialize_node(coins, v),
        }
    }

    fn materialize_node(&mut self, coins: &CoinTable, v: usize) -> [u64; W] {
        let vec = self.synthesize(coins.node_threshold(v), node_key, v, "node_word_lazy");
        self.nodes.get_or_insert(v, vec);
        self.touched_nodes.mark(v);
        vec
    }

    /// Synthesizes every node's self-default word-vector of the current
    /// superblock into `out` (cleared first; flat stride-`W`, node `v`
    /// at `out[v·W .. v·W + W]`), marking and counting each as the lazy
    /// path would, but giving none a slot — the forward kernel's
    /// frontier seeds, drawn straight into its `defaulted` vectors.
    fn draw_nodes_into(&mut self, coins: &CoinTable, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.nodes.items() * W);
        for v in 0..self.nodes.items() {
            let vec = self.synthesize(coins.node_threshold(v), node_key, v, "forward_defaults");
            self.touched_nodes.mark(v);
            out.extend_from_slice(&vec);
        }
    }

    /// Draws item `item`'s word-vector for the current lanes: one
    /// transposed synthesis per home block. `caller` names the public
    /// accessor in the read-before-materialize panic.
    #[inline]
    fn synthesize(
        &mut self,
        threshold: u64,
        item_key: impl Fn(u64, usize) -> u64,
        item: usize,
        caller: &str,
    ) -> [u64; W] {
        let Some(keys) = &self.keys else { panic!("{caller} before materialize") };
        let mut item_keys = [0u64; W];
        for w in 0..W {
            item_keys[w] = item_key(keys[w], item);
        }
        bernoulli_words::<W>(threshold, &item_keys, &self.lane_masks, &mut self.usage.words)
    }

    /// Eagerly synthesizes every node word-vector of the current
    /// superblock that no traversal has touched yet — bit-identical to
    /// what the lazy path would produce, and one slot per node. Used by
    /// the eager/lazy equivalence tests and the materialization-phase
    /// benchmarks.
    pub fn force_nodes(&mut self, coins: &CoinTable) {
        for v in 0..self.nodes.items() {
            let _ = self.node_word_lazy(coins, v);
        }
    }

    /// Eagerly synthesizes every edge word-vector of the current
    /// superblock — bit-identical to what the lazy path would produce on
    /// touch. Used by the eager/lazy equivalence tests and the
    /// materialization-phase benchmarks.
    pub fn force_edges(&mut self, coins: &CoinTable) {
        for e in 0..self.edges.items() {
            let _ = self.edge_word(coins, e);
        }
    }

    /// Self-default word-vector of node `v`, which must already be
    /// synthesized in the current superblock (by
    /// [`node_word_lazy`](Self::node_word_lazy) or
    /// [`force_nodes`](Self::force_nodes)).
    ///
    /// # Panics
    ///
    /// If the current superblock holds no word-vector for `v`.
    #[inline]
    pub fn node_word_vec(&self, v: usize) -> &[u64; W] {
        match self.nodes.get(v) {
            Some(vec) => vec,
            None => panic!("node {v} read before synthesis"),
        }
    }

    /// Nodes and edges whose word-vectors the current superblock holds
    /// in slots — what it drew lazily (or by force) so far.
    pub fn drawn(&self) -> (usize, usize) {
        (self.nodes.owners.len(), self.edges.owners.len())
    }

    /// 64-bit words of scratch this block holds (allocated capacity):
    /// the node and edge slot indexes, owner lists and word-vector
    /// slabs. The touch ledgers (one bit per item) are its output, not
    /// scratch, and are not counted.
    pub fn scratch_words(&self) -> usize {
        self.nodes.scratch_words() + self.edges.scratch_words()
    }

    /// Per-word masks of materialized lanes. Words whose mask is zero
    /// hold no worlds (partial superblocks at the tail of a budget, or
    /// the head of a cache extension resuming mid-superblock).
    #[inline]
    pub fn lane_masks(&self) -> &[u64; W] {
        &self.lane_masks
    }

    /// Number of materialized lanes across all words.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lane_masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Drains the accumulated materialization counters (including the
    /// lazy-skip credit of the current superblock, which is thereby
    /// closed out).
    pub fn take_usage(&mut self) -> CoinUsage {
        self.usage.edge_words_skipped += self.pending_edge_words;
        self.pending_edge_words = 0;
        std::mem::take(&mut self.usage)
    }

    /// Every node this block has ever materialized a self-default word
    /// for (across all superblocks since construction) — half of the
    /// revalidation ledger consumed by delta-aware caches.
    pub fn touched_nodes(&self) -> &TouchSet {
        &self.touched_nodes
    }

    /// Every edge this block has ever materialized a survival word for
    /// (across all superblocks since construction) — the other half of
    /// the revalidation ledger.
    pub fn touched_edges(&self) -> &TouchSet {
        &self.touched_edges
    }

    /// Unpacks one lane (`lane < W · 64`, indexing the superblock's
    /// worlds in sample order) into a [`PossibleWorld`] — a test/debug
    /// helper, bit-identical to sampling that world directly. Forces
    /// every node and edge word of the superblock.
    pub fn lane_world(&mut self, coins: &CoinTable, lane: usize) -> PossibleWorld {
        let (word, bit_index) = (lane / LANES, lane % LANES);
        assert!(
            word < W && self.lane_masks[word] >> bit_index & 1 == 1,
            "lane {lane} is not materialized"
        );
        self.force_nodes(coins);
        self.force_edges(coins);
        let bit = 1u64 << bit_index;
        let lane = |slots: &Slots<[u64; W]>| -> Vec<bool> {
            (0..slots.items()).map(|i| slots.get(i).is_some_and(|v| v[word] & bit != 0)).collect()
        };
        PossibleWorld { self_default: lane(&self.nodes), edge_live: lane(&self.edges) }
    }
}

impl WorldBlock {
    /// Mask of materialized lanes — the single word of a width-1 block.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        self.lane_masks[0]
    }

    /// Self-default lane mask of node `v`, which must already be
    /// synthesized in the current block (see
    /// [`node_word_vec`](SuperBlock::node_word_vec)).
    #[inline]
    pub fn node_word(&self, v: usize) -> u64 {
        self.node_word_vec(v)[0]
    }
}

/// Reusable superblock BFS/propagation kernel. Holds all scratch buffers
/// so repeated superblocks allocate nothing. Takes the superblock
/// mutably: node and edge word-vectors materialize lazily as the
/// traversal first touches them. [`BlockKernel`] is the `W = 1` alias.
///
/// Scratch is sized by what a pass reads, not by the whole graph:
///
/// * Each direction allocates its own buffers on first use — the
///   forward pass its per-node `defaulted` vectors (flat stride-`W`,
///   its output), the reverse pass its two slot maps below — so a
///   kernel that runs only one direction never holds the other's.
/// * A reverse search keeps the lanes that reached each node it
///   discovered in **per-search slots**: a zero-allocated node→slot
///   index, the discovered nodes in discovery order, and one compact
///   word-vector each. The search resets them by walking that list.
/// * The reverse pass's positive/negative result caches (the paper's
///   Algorithm 5) live in **candidate slots**. Only
///   [`reverse_hit_words`](Self::reverse_hit_words) writes a verdict,
///   and only for its own candidate, so a node→slot index (a sparse set
///   after Briggs & Torczon, 1993) maps each candidate queried in the
///   current superblock to a compact hit/safe word-vector pair, and
///   [`begin_block`](Self::begin_block) forgets just those slots.
///
/// No reverse buffer is `n·W` words: a reverse pass holds two `u32`
/// indexes and slabs sized by one search and by the candidate set.
/// [`scratch_words`](Self::scratch_words) reports the footprint.
#[derive(Debug, Clone)]
pub struct SuperKernel<const W: usize> {
    nodes: usize,
    // Forward pass: per-node "defaulted in lane j of word w" vectors.
    // Empty until the first forward pass.
    defaulted: Vec<u64>,
    // Reverse pass: lanes "reachable from the candidate through
    // surviving edges" of each node the current search discovered; the
    // owner list is the search's touched list. Empty until the first
    // reverse search.
    reached: Slots<[u64; W]>,
    // Reverse pass: each candidate queried in the current superblock's
    // lanes known to default (`.0`) and known safe (`.1`). Empty until
    // the first reverse search.
    verdicts: Slots<([u64; W], [u64; W])>,
    queue: Vec<u32>,
    // Next-step frontier of the level-synchronized forward traversal.
    next: Vec<u32>,
    in_queue: Vec<bool>,
}

/// The classic 64-lane block kernel — a [`SuperKernel`] of width 1.
pub type BlockKernel = SuperKernel<1>;

impl<const W: usize> SuperKernel<W> {
    /// Creates a kernel for `graph`. Per-direction scratch is allocated
    /// by the first pass of that direction.
    pub fn new(graph: &UncertainGraph) -> Self {
        let n = graph.num_nodes();
        SuperKernel {
            nodes: n,
            defaulted: Vec::new(),
            reached: Slots::new(0),
            verdicts: Slots::new(0),
            queue: Vec::new(),
            next: Vec::new(),
            in_queue: vec![false; n],
        }
    }

    /// 64-bit words of scratch this kernel holds (allocated capacity),
    /// not counting the frontier queues, whose length is bounded by the
    /// nodes a pass reaches: the forward pass's per-node vectors, the
    /// reverse pass's reach and verdict slots (indexes, owner lists and
    /// slabs), and the queue-membership flags.
    pub fn scratch_words(&self) -> usize {
        self.defaulted.capacity()
            + self.reached.scratch_words()
            + self.verdicts.scratch_words()
            + self.in_queue.capacity().div_ceil(8)
    }

    /// Evaluates default reachability for all worlds of `block` at once:
    /// returns per-node word-vectors (flat stride-`W`, node `v` at
    /// `result[v·W .. v·W + W]`) where bit `j` of word `w` says "node
    /// defaults in lane `j` of home block `w`" (self-default or
    /// reachable from a self-defaulted node through surviving edges).
    ///
    /// A level-synchronized frontier fixpoint advances every lane of
    /// every word per step: an edge transmits
    /// `defaulted[source] & edge_word(edge)` as `W` adjacent ANDs, so
    /// the traversal cost is shared by all `W·64` worlds — and the edge
    /// word-vector is only synthesized if the transmission could still
    /// change the target, so untouched edges draw no coins at all.
    ///
    /// Every step pushes: each frontier node expands its out-edges and
    /// ORs its lanes into the targets. A Beamer-style pull sweep over
    /// in-edges reaches the same fixpoint (the update is a monotone OR
    /// over random-access coin words), but on the paper's graphs it never
    /// beat push measurably, so the kernel has one traversal policy.
    pub fn forward_defaults(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
    ) -> &[u64] {
        debug_assert_eq!(block.nodes.items(), self.nodes, "block/kernel mismatch");
        debug_assert_eq!(block.edges.items(), graph.num_edges(), "block/graph edge mismatch");
        // Every self-defaulted node seeds the frontier, so this pass
        // needs all node words: they are drawn straight into
        // `defaulted`, which the fixpoint then grows in place.
        block.draw_nodes_into(coins, &mut self.defaulted);
        self.queue.clear();
        for (v, words) in self.defaulted.chunks_exact(W).enumerate() {
            if words.iter().any(|&w| w != 0) {
                self.queue.push(v as u32);
            }
        }
        while !self.queue.is_empty() {
            self.push_step(graph, coins, block);
            std::mem::swap(&mut self.queue, &mut self.next);
        }
        &self.defaulted
    }

    /// One frontier step: expand each queued node's out-edges, OR its
    /// lanes into the targets, and collect every node that gained lanes
    /// as the next frontier.
    fn push_step(&mut self, graph: &UncertainGraph, coins: &CoinTable, block: &mut SuperBlock<W>) {
        self.next.clear();
        for qi in 0..self.queue.len() {
            let v = self.queue[qi] as usize;
            let lanes = *wv::<W>(&self.defaulted, v);
            let targets = graph.out_neighbors(NodeId(v as u32));
            for (e, &t) in graph.out_edge_range(NodeId(v as u32)).zip(targets) {
                let t = t as usize;
                // Lanes the transmission could still infect; if none,
                // the edge word-vector is not even synthesized.
                let mut gate = [0u64; W];
                let mut any = 0u64;
                let target = wv::<W>(&self.defaulted, t);
                for w in 0..W {
                    gate[w] = lanes[w] & !target[w];
                    any |= gate[w];
                }
                if any == 0 {
                    continue;
                }
                let edge = block.edge_word(coins, e);
                let target = wv_mut::<W>(&mut self.defaulted, t);
                let mut new_any = 0u64;
                for w in 0..W {
                    let new = gate[w] & edge[w];
                    new_any |= new;
                    target[w] |= new;
                }
                if new_any != 0 && !self.in_queue[t] {
                    self.in_queue[t] = true;
                    self.next.push(t as u32);
                }
            }
        }
        // Restore the all-false `in_queue` invariant between steps (the
        // flags only deduplicate pushes within one step).
        for &t in &self.next {
            self.in_queue[t as usize] = false;
        }
    }

    /// Starts a new superblock for [`Self::reverse_hit_words`]: forgets
    /// the per-superblock positive/negative caches by unmapping the
    /// verdict slots the previous superblock wrote — `O(|B|)` for `|B|`
    /// candidates queried, however large the graph. Must be called after
    /// materializing a fresh superblock and before the first candidate
    /// query against it.
    pub fn begin_block(&mut self) {
        self.verdicts.clear();
    }

    /// The cached verdicts for node `v` in the current superblock: lanes
    /// known to default and lanes known safe (both empty unless `v` was
    /// an earlier candidate).
    #[inline]
    fn known(&self, v: usize) -> ([u64; W], [u64; W]) {
        self.verdicts.get(v).copied().unwrap_or(([0; W], [0; W]))
    }

    /// Lanes of the current reverse search that reached node `v` (empty
    /// unless the search discovered `v`).
    #[inline]
    fn reached(&self, v: usize) -> [u64; W] {
        self.reached.get(v).copied().unwrap_or([0; W])
    }

    /// Decides, for every lane of every word of `block` at once, whether
    /// candidate `v` defaults in that lane's world: a reverse BFS over
    /// **in**-edges from `v` looks for a self-defaulted ancestor
    /// reachable through surviving edges, with per-lane frontiers.
    /// Returns the word-vector of worlds where `v` defaults.
    ///
    /// Lanes are decided when a node is **discovered**, not when it is
    /// dequeued (the bottom-up check of Beamer et al.): the first time an
    /// in-edge carries lanes to a source, the source's node word and the
    /// hit cache settle them on the spot, every later in-edge is gated to
    /// the lanes still undecided, and the search stops as soon as none is
    /// left. A hub whose first in-neighbour defaults therefore scans one
    /// in-edge, not all of them. Node and edge word-vectors materialize
    /// lazily as the search reads them, so the superblock pays coins only
    /// for the items read before every lane is decided — bounded by, and
    /// usually far below, everything reachable from `v`.
    ///
    /// Results are pure functions of the superblock's worlds, so neither
    /// the discovery order nor the per-superblock caches filled by
    /// earlier candidates can change an answer — they only skip work.
    /// The verdicts land in `v`'s candidate slot (see the type docs),
    /// the only cache entry this call writes; the first reverse search
    /// of a kernel allocates the reverse slot indexes.
    pub fn reverse_hit_words(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        v: NodeId,
    ) -> [u64; W] {
        if self.verdicts.items() != self.nodes {
            self.reached = Slots::new(self.nodes);
            self.verdicts = Slots::new(self.nodes);
        }
        let want = *block.lane_masks();
        let mut hit = [0u64; W];
        // Lanes still needing a verdict; shrinks as hits are found.
        let mut undecided = [0u64; W];
        let mut any_undecided = 0u64;
        let (known_hit, known_safe) = self.known(v.index());
        for w in 0..W {
            hit[w] = known_hit[w] & want[w];
            undecided[w] = want[w] & !hit[w] & !known_safe[w];
            any_undecided |= undecided[w];
        }
        if any_undecided != 0 {
            self.queue.clear();
            // The candidate is its own first discovery.
            let open = self.discover(coins, block, v.index(), undecided, &mut hit, &mut undecided);
            let mut head = 0;
            'bfs: while open && head < self.queue.len() {
                let u = self.queue[head] as usize;
                head += 1;
                self.in_queue[u] = false;
                // Open lanes that reached `u`; its own verdict was taken
                // at discovery. Known-safe lanes cannot contain a
                // defaulted ancestor: do not expand them.
                let mut expand = [0u64; W];
                let mut any_expand = 0u64;
                let (_, known_safe) = self.known(u);
                let reached = self.reached(u);
                for w in 0..W {
                    expand[w] = reached[w] & undecided[w] & !known_safe[w];
                    any_expand |= expand[w];
                }
                if any_expand == 0 {
                    continue;
                }
                let sources = graph.in_neighbors(NodeId(u as u32));
                for (&e, &s) in graph.in_edge_ids(NodeId(u as u32)).iter().zip(sources) {
                    let s = s as usize;
                    let mut gate = [0u64; W];
                    let mut any_gate = 0u64;
                    let reached = self.reached(s);
                    for w in 0..W {
                        gate[w] = expand[w] & !reached[w];
                        any_gate |= gate[w];
                    }
                    if any_gate == 0 {
                        continue;
                    }
                    let edge = block.edge_word(coins, e as usize);
                    let mut new = [0u64; W];
                    let mut any_new = 0u64;
                    for w in 0..W {
                        new[w] = gate[w] & edge[w];
                        any_new |= new[w];
                    }
                    if any_new == 0 {
                        continue;
                    }
                    if !self.discover(coins, block, s, new, &mut hit, &mut undecided) {
                        break 'bfs;
                    }
                    // Later in-edges only carry lanes still undecided.
                    let mut any_left = 0u64;
                    for w in 0..W {
                        expand[w] &= undecided[w];
                        any_left |= expand[w];
                    }
                    if any_left == 0 {
                        break;
                    }
                }
            }
            // Reset per-search scratch by walking the discovered nodes.
            // `in_queue` may hold stale `true` marks when the search
            // broke early, so clear it too.
            for &u in &self.reached.owners {
                self.in_queue[u as usize] = false;
            }
            self.reached.clear();
        }
        // Record the verdicts in `v`'s slot: lanes that exhausted without
        // a hit are provably safe for this candidate within this
        // superblock.
        let (known_hit, known_safe) = self.verdicts.get_or_insert(v.index(), ([0; W], [0; W]));
        for w in 0..W {
            known_hit[w] |= hit[w];
            known_safe[w] |= want[w] & !hit[w];
        }
        hit
    }

    /// Records lanes `new` as reaching node `s` in the current reverse
    /// search and decides them on the spot: lanes where `s` defaults —
    /// cached as a hit by an earlier candidate, or self-defaulted — move
    /// from `undecided` to `hit`. Lanes cached safe for `s` need no coin
    /// (a safe node does not self-default) and are not expanded; the
    /// rest queue `s` for its in-edge scan. Returns whether any lane of
    /// the search is still undecided.
    #[inline]
    fn discover(
        &mut self,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        s: usize,
        new: [u64; W],
        hit: &mut [u64; W],
        undecided: &mut [u64; W],
    ) -> bool {
        let reached = self.reached.get_or_insert(s, [0; W]);
        for w in 0..W {
            reached[w] |= new[w];
        }
        let mut hits = [0u64; W];
        let mut unknown = [0u64; W];
        let mut any_unknown = 0u64;
        let (known_hit, known_safe) = self.known(s);
        for w in 0..W {
            hits[w] = new[w] & known_hit[w];
            unknown[w] = new[w] & !known_hit[w] & !known_safe[w];
            any_unknown |= unknown[w];
        }
        let mut any_expand = 0u64;
        if any_unknown != 0 {
            let node = block.node_word_lazy(coins, s);
            for w in 0..W {
                hits[w] |= unknown[w] & node[w];
                any_expand |= unknown[w] & !node[w];
            }
        }
        let mut left = 0u64;
        for w in 0..W {
            hit[w] |= hits[w];
            undecided[w] &= !hits[w];
            left |= undecided[w];
        }
        if any_expand != 0 && left != 0 && !self.in_queue[s] {
            self.in_queue[s] = true;
            self.queue.push(s as u32);
        }
        left != 0
    }

    /// [`Self::reverse_hit_words`] over a candidate list, writing one
    /// word-vector per candidate into `out` (cleared and refilled as a
    /// flat stride-`W` buffer, candidate `i` at `out[i·W .. i·W + W]`).
    /// Calls [`Self::begin_block`] internally, and sizes the verdict
    /// slots for exactly one slot per candidate on the first superblock.
    pub fn reverse_hits_into(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        candidates: &[NodeId],
        out: &mut Vec<u64>,
    ) {
        self.begin_block();
        self.verdicts.reserve_exact(candidates.len());
        out.clear();
        for &v in candidates {
            let words = self.reverse_hit_words(graph, coins, block, v);
            out.extend_from_slice(&words);
        }
    }
}

/// Splits a sample-id range into chunks that never cross a 64-aligned
/// block boundary — [`superblock_chunks`] at width 1.
pub fn block_chunks(range: std::ops::Range<u64>) -> impl Iterator<Item = std::ops::Range<u64>> {
    superblock_chunks(range, 1)
}

/// Splits a sample-id range into chunks that never cross a
/// `words · 64`-aligned superblock boundary — the unit the parallel
/// driver partitions by and the engine cache snapshots at.
pub fn superblock_chunks(
    range: std::ops::Range<u64>,
    words: usize,
) -> impl Iterator<Item = std::ops::Range<u64>> {
    let span = (words * LANES) as u64;
    let end = range.end.max(range.start);
    let mut next = range.start;
    std::iter::from_fn(move || {
        if next >= end {
            return None;
        }
        let start = next;
        let boundary = (start / span + 1) * span;
        next = boundary.min(end);
        Some(start..next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    fn mesh() -> UncertainGraph {
        from_parts(
            &[0.4, 0.1, 0.2, 0.0, 0.3],
            &[(0, 1, 0.6), (1, 2, 0.5), (2, 0, 0.4), (1, 3, 0.7), (3, 4, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn lanes_match_materialized_worlds_bitwise() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 42, 128, 64);
        assert_eq!(block.lane_mask(), u64::MAX);
        for j in [0usize, 1, 17, 63] {
            let expected = PossibleWorld::sample_indexed(&g, 42, 128 + j as u64);
            assert_eq!(block.lane_world(&coins, j), expected, "lane {j}");
        }
    }

    #[test]
    fn superblock_lanes_match_materialized_worlds_bitwise() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // Superblock 2 of width 4 covers samples 512..768.
        block.materialize(&g, &coins, 42, 512, 256);
        assert_eq!(block.lane_masks(), &[u64::MAX; 4]);
        assert_eq!(block.lane_count(), 256);
        for lane in [0usize, 63, 64, 100, 191, 255] {
            let expected = PossibleWorld::sample_indexed(&g, 42, 512 + lane as u64);
            assert_eq!(block.lane_world(&coins, lane), expected, "lane {lane}");
        }
    }

    #[test]
    fn superblock_words_match_width1_blocks_bitwise() {
        // Word w of a superblock must hold exactly the lane words a
        // width-1 materialization of home block w would synthesize.
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut wide = SuperBlock::<4>::new(&g);
        wide.materialize(&g, &coins, 9, 256, 256);
        wide.force_nodes(&coins);
        wide.force_edges(&coins);
        for w in 0..4usize {
            let mut narrow = WorldBlock::new(&g);
            narrow.materialize(&g, &coins, 9, 256 + (w * LANES) as u64, LANES);
            narrow.force_nodes(&coins);
            narrow.force_edges(&coins);
            for v in 0..g.num_nodes() {
                assert_eq!(wide.node_word_vec(v)[w], narrow.node_word(v), "node {v} word {w}");
            }
            for e in 0..g.num_edges() {
                assert_eq!(
                    wide.edge_word(&coins, e)[w],
                    narrow.edge_word(&coins, e)[0],
                    "edge {e} word {w}"
                );
            }
        }
    }

    #[test]
    fn partial_blocks_mask_unused_lanes() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 7, 0, 5);
        assert_eq!(block.lane_mask(), 0b11111);
        assert_eq!(block.lane_count(), 5);
        block.force_nodes(&coins);
        block.force_edges(&coins);
        // High lanes read as all-zero coins.
        let slots = block.nodes.values.iter().chain(&block.edges.values);
        assert_eq!(slots.clone().count(), g.num_nodes() + g.num_edges());
        for [w] in slots {
            assert_eq!(w & !0b11111, 0);
        }
    }

    #[test]
    fn partial_superblocks_mask_trailing_words() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // Samples 0..70: word 0 full, word 1 partial, words 2–3 empty.
        block.materialize(&g, &coins, 7, 0, 70);
        assert_eq!(block.lane_masks(), &[u64::MAX, 0b111111, 0, 0]);
        assert_eq!(block.lane_count(), 70);
        block.force_nodes(&coins);
        block.force_edges(&coins);
        let slots = block.nodes.values.iter().chain(&block.edges.values);
        assert_eq!(slots.clone().count(), g.num_nodes() + g.num_edges());
        for words in slots {
            assert_eq!(words[1] & !0b111111, 0);
            assert_eq!(words[2], 0);
            assert_eq!(words[3], 0);
        }
    }

    #[test]
    fn mid_superblock_chunks_mask_leading_words() {
        // A cache extension can resume at a 64-aligned point that is not
        // superblock-aligned: samples 64..256 of a width-4 superblock
        // leave word 0 empty.
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        block.materialize(&g, &coins, 7, 64, 192);
        assert_eq!(block.lane_masks(), &[0, u64::MAX, u64::MAX, u64::MAX]);
        block.force_nodes(&coins);
        let mut full = SuperBlock::<4>::new(&g);
        full.materialize(&g, &coins, 7, 0, 256);
        full.force_nodes(&coins);
        for v in 0..g.num_nodes() {
            assert_eq!(&block.node_word_vec(v)[1..], &full.node_word_vec(v)[1..], "node {v}");
            assert_eq!(block.node_word_vec(v)[0], 0, "node {v} word 0");
        }
    }

    #[test]
    fn unaligned_chunks_share_their_block_words() {
        // Samples 70..75 are lanes 6..11 of block 1: the same transposed
        // words as a full materialization of that block, masked.
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut full = WorldBlock::new(&g);
        full.materialize(&g, &coins, 9, 64, 64);
        full.force_nodes(&coins);
        full.force_edges(&coins);
        let mut partial = WorldBlock::new(&g);
        partial.materialize(&g, &coins, 9, 70, 5);
        partial.force_nodes(&coins);
        partial.force_edges(&coins);
        assert_eq!(partial.lane_mask(), 0b11111 << 6);
        for v in 0..g.num_nodes() {
            assert_eq!(partial.node_word(v), full.node_word(v) & (0b11111 << 6), "node {v}");
        }
        for e in 0..g.num_edges() {
            // The slots the forced words landed in, read without drawing.
            let (partial, full) = (partial.edges.get(e), full.edges.get(e));
            assert_eq!(partial.map(|w| w[0]), full.map(|w| w[0] & (0b11111 << 6)), "edge {e}");
            assert!(partial.is_some(), "edge {e} was forced");
        }
    }

    #[test]
    fn lazy_edges_match_eager_edges_bitwise() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut eager = SuperBlock::<2>::new(&g);
        eager.materialize(&g, &coins, 5, 0, 128);
        eager.force_edges(&coins);
        let mut lazy = SuperBlock::<2>::new(&g);
        lazy.materialize(&g, &coins, 5, 0, 128);
        for e in [3usize, 0, 4, 1, 2, 3] {
            assert_eq!(lazy.edge_word(&coins, e), eager.edge_word(&coins, e), "edge {e}");
        }
    }

    #[test]
    fn lazy_nodes_match_eager_nodes_bitwise() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut eager = SuperBlock::<2>::new(&g);
        eager.materialize(&g, &coins, 5, 0, 100);
        eager.force_nodes(&coins);
        let mut lazy = SuperBlock::<2>::new(&g);
        lazy.materialize(&g, &coins, 5, 0, 100);
        for v in [4usize, 0, 2, 4, 1, 3] {
            assert_eq!(&lazy.node_word_lazy(&coins, v), eager.node_word_vec(v), "node {v}");
        }
    }

    #[test]
    fn reverse_pass_draws_only_reached_node_words() {
        // Node 0 has no in-edges: its reverse search reads its own word
        // and nothing else, so the block draws one node word-vector,
        // not all three.
        let g = from_parts(&[0.5, 0.5, 0.5], &[(0, 1, 0.5)], DuplicateEdgePolicy::Error).unwrap();
        let coins = CoinTable::new(&g);
        let fresh = || {
            let mut block = WorldBlock::new(&g);
            block.materialize(&g, &coins, 3, 0, 64);
            block
        };
        let mut eager = fresh();
        eager.force_nodes(&coins);
        let eager_words = eager.take_usage().words;
        let mut lazy = fresh();
        assert_eq!(lazy.take_usage().words, 0, "materializing draws no coins");
        let mut kernel = BlockKernel::new(&g);
        kernel.begin_block();
        let _ = kernel.reverse_hit_words(&g, &coins, &mut lazy, NodeId(0));
        let lazy_words = lazy.take_usage().words;
        assert!(lazy_words > 0);
        assert!(lazy_words < eager_words, "untouched nodes must draw no coins");
        let touched = lazy.touched_nodes();
        assert!(touched.contains(0) && touched.count() == 1);
        assert_eq!(lazy.touched_edges().count(), 0);
    }

    /// A star into hub 8: source 0 always defaults over a certain edge,
    /// sources 1–7 are coin flips. The hub never self-defaults.
    fn star() -> UncertainGraph {
        let mut risks = vec![0.5; 9];
        risks[0] = 1.0;
        risks[8] = 0.0;
        let edges: Vec<(u32, u32, f64)> =
            (0..8).map(|s| (s, 8, if s == 0 { 1.0 } else { 0.5 })).collect();
        from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap()
    }

    fn hub_search_touches_one_edge<const W: usize>(g: &UncertainGraph, block: &mut SuperBlock<W>) {
        let coins = CoinTable::new(g);
        let hub = NodeId(8);
        let mut kernel = SuperKernel::<W>::new(g);
        kernel.begin_block();
        let hit = kernel.reverse_hit_words(g, &coins, block, hub);
        assert_eq!(&hit, block.lane_masks(), "the first in-neighbour decides every lane");
        assert_eq!(block.touched_edges().count(), 1, "no in-edge past the deciding one");
        assert!(block.touched_edges().contains(0));
        let nodes = block.touched_nodes();
        assert!(nodes.contains(8) && nodes.contains(0) && nodes.count() == 2);
    }

    #[test]
    fn reverse_search_stops_at_the_first_deciding_in_edge() {
        let g = star();
        assert_eq!(g.in_neighbors(NodeId(8))[0], 0, "source 0 is scanned first");
        let coins = CoinTable::new(&g);
        let mut aligned = WorldBlock::new(&g);
        aligned.materialize(&g, &coins, 5, 0, 64);
        hub_search_touches_one_edge(&g, &mut aligned);
        let mut wide = SuperBlock::<4>::new(&g);
        wide.materialize(&g, &coins, 5, 64, 3 * 64 - 7);
        hub_search_touches_one_edge(&g, &mut wide);
    }

    #[test]
    #[should_panic(expected = "read before synthesis")]
    fn stale_node_words_are_caught() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 1, 0, 64);
        block.force_nodes(&coins);
        // A fresh block invalidates every node word.
        block.materialize(&g, &coins, 1, 64, 64);
        let _ = block.node_word(0);
    }

    #[test]
    fn usage_accounts_for_lazy_skips() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 1, 0, 64);
        let _ = block.edge_word(&coins, 0);
        let usage = block.take_usage();
        assert_eq!(usage.edge_words_materialized, 1);
        assert_eq!(usage.edge_words_skipped, 1);
        assert_eq!(usage.superblocks, 1);
        assert!(usage.words > 0);
        assert!((usage.lazy_skip_ratio() - 0.5).abs() < 1e-12);
        // Counters were drained.
        assert_eq!(block.take_usage(), CoinUsage::default());
        // Touching a fresh edge after a mid-block drain must not
        // underflow the pending count (the edge was already credited as
        // skipped by the drain).
        let _ = block.edge_word(&coins, 1);
        let after = block.take_usage();
        assert_eq!(after.edge_words_materialized, 1);
        assert_eq!(after.edge_words_skipped, 0);
    }

    #[test]
    fn superblock_usage_counts_covered_words_only() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // 70 lanes cover 2 of the 4 words; touching edge 0 materializes
        // its covered words, edge 1 stays skipped.
        block.materialize(&g, &coins, 1, 0, 70);
        let _ = block.edge_word(&coins, 0);
        let usage = block.take_usage();
        assert_eq!(usage.edge_words_materialized, 2, "2 covered words for the touched edge");
        assert_eq!(usage.edge_words_skipped, 2, "2 covered words for the untouched edge");
        assert_eq!(usage.superblocks, 1);
    }

    #[test]
    fn forward_kernel_matches_scalar_world_evaluation() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let mut kernel = BlockKernel::new(&g);
        block.materialize(&g, &coins, 9, 0, 64);
        let words = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        for j in 0..64 {
            let scalar = block.lane_world(&coins, j).defaulted_nodes(&g);
            for v in 0..g.num_nodes() {
                assert_eq!(words[v] >> j & 1 == 1, scalar[v], "lane {j}, node {v}");
            }
        }
    }

    #[test]
    fn superblock_forward_matches_width1_forward() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut wide = SuperBlock::<8>::new(&g);
        let mut wide_kernel = SuperKernel::<8>::new(&g);
        wide.materialize(&g, &coins, 11, 0, 512);
        let wide_words = wide_kernel.forward_defaults(&g, &coins, &mut wide).to_vec();
        let mut narrow = WorldBlock::new(&g);
        let mut narrow_kernel = BlockKernel::new(&g);
        for w in 0..8usize {
            narrow.materialize(&g, &coins, 11, (w * LANES) as u64, LANES);
            let narrow_words = narrow_kernel.forward_defaults(&g, &coins, &mut narrow);
            for v in 0..g.num_nodes() {
                assert_eq!(wide_words[v * 8 + w], narrow_words[v], "node {v} word {w}");
            }
        }
    }

    #[test]
    fn reverse_kernel_matches_forward_kernel() {
        let g = from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (3, 0, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let mut kernel = BlockKernel::new(&g);
        block.materialize(&g, &coins, 3, 64, 64);
        let forward = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let mut hits = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &candidates, &mut hits);
        assert_eq!(hits, forward, "reverse and forward must agree on every lane");
        // Repeating candidates exercises the per-block caches.
        let repeated: Vec<NodeId> = candidates.iter().chain(candidates.iter()).copied().collect();
        let mut hits2 = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &repeated, &mut hits2);
        assert_eq!(&hits2[..4], &forward[..]);
        assert_eq!(&hits2[4..], &forward[..]);
    }

    #[test]
    fn superblock_reverse_matches_superblock_forward() {
        let g = from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (3, 0, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        let mut kernel = SuperKernel::<2>::new(&g);
        // Partial superblock: 100 of 128 lanes.
        block.materialize(&g, &coins, 3, 0, 100);
        let forward = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let mut hits = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &candidates, &mut hits);
        assert_eq!(hits, forward, "reverse and forward must agree on every lane");
        let repeated: Vec<NodeId> = candidates.iter().chain(candidates.iter()).copied().collect();
        let mut hits2 = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &repeated, &mut hits2);
        assert_eq!(&hits2[..8], &forward[..]);
        assert_eq!(&hits2[8..], &forward[..]);
    }

    #[test]
    fn kernel_reuse_is_stateless_across_blocks() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        let mut kernel = SuperKernel::<2>::new(&g);
        block.materialize(&g, &coins, 1, 0, 128);
        let first = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        block.materialize(&g, &coins, 1, 128, 128);
        let _ = kernel.forward_defaults(&g, &coins, &mut block);
        block.materialize(&g, &coins, 1, 0, 128);
        assert_eq!(kernel.forward_defaults(&g, &coins, &mut block), &first[..]);
    }

    #[test]
    fn reused_kernel_matches_fresh_kernels_across_superblocks() {
        // One kernel answers superblock A over candidates X, then
        // superblock B over candidates Y that overlap X (and A again over
        // Y): no verdict may leak between superblocks, so the hit words
        // and the items each search read match a fresh kernel's exactly.
        let g = mesh();
        let coins = CoinTable::new(&g);
        let x = [NodeId(2), NodeId(4), NodeId(1)];
        let y = [NodeId(4), NodeId(0), NodeId(2), NodeId(3)];
        let run = |kernel: &mut SuperKernel<2>, first: u64, candidates: &[NodeId]| {
            let mut block = SuperBlock::<2>::new(&g);
            block.materialize(&g, &coins, 17, first, 128);
            let mut hits = Vec::new();
            kernel.reverse_hits_into(&g, &coins, &mut block, candidates, &mut hits);
            (hits, block.touched_nodes().clone(), block.touched_edges().clone())
        };
        let mut reused = SuperKernel::<2>::new(&g);
        for (first, candidates) in [(0, &x[..]), (128, &y[..]), (0, &y[..])] {
            let fresh = run(&mut SuperKernel::<2>::new(&g), first, candidates);
            assert_eq!(run(&mut reused, first, candidates), fresh, "superblock at {first}");
        }
    }

    /// What one superblock leaves behind on a block and kernel: the
    /// kernel's answer, every node's and edge's slotted word-vector, and
    /// the coin usage. `None` candidates means a forward pass.
    type Step<const W: usize> = (Vec<u64>, Vec<Option<[u64; W]>>, Vec<Option<[u64; W]>>, CoinUsage);

    fn run_step<const W: usize>(
        g: &UncertainGraph,
        coins: &CoinTable,
        (block, kernel): (&mut SuperBlock<W>, &mut SuperKernel<W>),
        (first, lanes): (u64, usize),
        candidates: Option<&[NodeId]>,
    ) -> Step<W> {
        block.materialize(g, coins, 17, first, lanes);
        let out = match candidates {
            Some(candidates) => {
                let mut hits = Vec::new();
                kernel.reverse_hits_into(g, coins, block, candidates, &mut hits);
                hits
            }
            None => kernel.forward_defaults(g, coins, block).to_vec(),
        };
        let slots = |s: &Slots<[u64; W]>| (0..s.items()).map(|i| s.get(i).copied()).collect();
        (out, slots(&block.nodes), slots(&block.edges), block.take_usage())
    }

    fn reuse_matches_fresh<const W: usize>() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let span = W * LANES;
        // Partial superblocks: A lacks its last lanes, B its first ones.
        let a = (0, span - 5);
        let b = (span as u64 + 3, span - 3);
        let x = [NodeId(2), NodeId(4), NodeId(1)];
        let y = [NodeId(4), NodeId(0), NodeId(2), NodeId(3)];
        for reverse in [false, true] {
            let mut block = SuperBlock::<W>::new(&g);
            let mut kernel = SuperKernel::<W>::new(&g);
            let mut nodes = TouchSet::new(g.num_nodes());
            let mut edges = TouchSet::new(g.num_edges());
            for (chunk, candidates) in [(a, &x[..]), (b, &y[..]), (a, &y[..])] {
                let candidates = reverse.then_some(candidates);
                let mut fresh = (SuperBlock::<W>::new(&g), SuperKernel::<W>::new(&g));
                let expected =
                    run_step(&g, &coins, (&mut fresh.0, &mut fresh.1), chunk, candidates);
                let got = run_step(&g, &coins, (&mut block, &mut kernel), chunk, candidates);
                let at = format!("W = {W}, reverse = {reverse}, chunk {chunk:?}");
                assert_eq!(got, expected, "{at}");
                // The reused block's ledger is the union of the fresh ones.
                nodes.merge(fresh.0.touched_nodes());
                edges.merge(fresh.0.touched_edges());
                assert_eq!(block.touched_nodes(), &nodes, "{at}");
                assert_eq!(block.touched_edges(), &edges, "{at}");
            }
        }
    }

    #[test]
    fn reused_block_matches_fresh_blocks_across_superblocks() {
        // One block and kernel run superblock A touching X, then B
        // touching an overlapping Y, then A with Y: no word-vector may
        // leak between superblocks through the slots, so the answers,
        // the slotted words, the ledgers and the coin usage all match
        // fresh blocks' — in both directions, at widths 1 and 8.
        reuse_matches_fresh::<1>();
        reuse_matches_fresh::<8>();
    }

    #[test]
    fn each_direction_allocates_only_its_own_scratch() {
        const W: usize = 8;
        let risks = vec![0.1; 64];
        let edges: Vec<(u32, u32, f64)> = (0..63).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap();
        let (n, m, coins) = (g.num_nodes(), g.num_edges(), CoinTable::new(&g));
        let candidates = [NodeId(63), NodeId(10)];
        let idle = SuperKernel::<W>::new(&g).scratch_words();
        let idle_block = SuperBlock::<W>::new(&g).scratch_words();
        // An unused block holds its two `u32` slot indexes and no slab.
        assert_eq!(idle_block, (n + m).div_ceil(2));

        let (mut forward_block, mut reverse_block) = (SuperBlock::new(&g), SuperBlock::new(&g));
        let mut forward = SuperKernel::<W>::new(&g);
        let mut reverse = SuperKernel::<W>::new(&g);
        let mut hits = Vec::new();
        let mut most_drawn = (0, 0);
        for first in [0, 512] {
            forward_block.materialize(&g, &coins, 4, first, 512);
            let _ = forward.forward_defaults(&g, &coins, &mut forward_block);
            reverse_block.materialize(&g, &coins, 4, first, 512);
            reverse.reverse_hits_into(&g, &coins, &mut reverse_block, &candidates, &mut hits);
            let (nodes, edges) = reverse_block.drawn();
            most_drawn = (most_drawn.0.max(nodes), most_drawn.1.max(edges));
        }
        // Forward only: its `defaulted` vectors and nothing else — no
        // reach or verdict slots — and its block holds no node slot.
        assert_eq!(forward.scratch_words(), idle + n * W);
        assert_eq!(forward_block.drawn().0, 0, "node words go straight to `defaulted`");
        // Reverse only: two `u32` slot indexes (`n` words together),
        // reach slots for the nodes one search discovered and one
        // hit/safe slot per candidate — within the perf-sanity bound,
        // within a small multiple of what one superblock drew, and short
        // of even one `n·W` buffer.
        let reverse_words = reverse.scratch_words();
        let (drawn, b) = (most_drawn.0, candidates.len());
        assert!(drawn > 0 && drawn < n / 2, "{most_drawn:?}");
        assert!(reverse_words >= idle + n + 2 * b * W, "{reverse_words}");
        assert!(reverse_words <= idle + n + 4 * (drawn + b) * W, "{reverse_words}");
        assert!(reverse_words <= n * W + n + 2 * b * W, "{reverse_words}");
        assert!(reverse_words < idle + n * W, "{reverse_words}");
        // The reverse block holds its indexes plus slabs for what one
        // superblock drew, short of the dense `(n + m)·W` words.
        let block_words = reverse_block.scratch_words();
        let (nodes, edges) = most_drawn;
        assert!(block_words <= idle_block + 3 * (nodes + edges) * W, "{block_words}");
        assert!(block_words < idle_block + (n + m) * W, "{block_words}");
        // A forward pass on the reverse kernel adds exactly `defaulted`.
        let _ = reverse.forward_defaults(&g, &coins, &mut reverse_block);
        assert_eq!(reverse.scratch_words(), reverse_words + n * W);
    }

    #[test]
    fn block_chunks_align_to_64() {
        let chunks: Vec<_> = block_chunks(10..200).collect();
        assert_eq!(chunks, vec![10..64, 64..128, 128..192, 192..200]);
        assert_eq!(block_chunks(0..64).collect::<Vec<_>>(), vec![0..64]);
        assert_eq!(block_chunks(5..5).count(), 0);
        assert_eq!(block_chunks(64..66).collect::<Vec<_>>(), vec![64..66]);
    }

    #[test]
    fn superblock_chunks_align_to_width() {
        let chunks: Vec<_> = superblock_chunks(10..600, 4).collect();
        assert_eq!(chunks, vec![10..256, 256..512, 512..600]);
        assert_eq!(superblock_chunks(0..512, 8).collect::<Vec<_>>(), vec![0..512]);
        assert_eq!(superblock_chunks(5..5, 8).count(), 0);
        assert_eq!(superblock_chunks(100..130, 2).collect::<Vec<_>>(), vec![100..128, 128..130]);
    }

    #[test]
    fn word_masks_cover_chunk_exactly() {
        assert_eq!(word_masks::<4>(0, 256), [u64::MAX; 4]);
        assert_eq!(word_masks::<4>(256, 70), [u64::MAX, 0b111111, 0, 0]);
        assert_eq!(word_masks::<4>(70, 5), [0, 0b11111 << 6, 0, 0]);
        assert_eq!(word_masks::<1>(70, 5), [0b11111 << 6]);
        // Samples 190..192 live in home block 2 = word 0 of superblock 1.
        assert_eq!(word_masks::<2>(190, 2), [0b11 << 62, 0]);
        assert_eq!(word_masks::<2>(254, 2), [0, 0b11 << 62]);
    }

    #[test]
    fn lane_mask_helper() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
    }

    #[test]
    #[should_panic(expected = "edge_word before materialize")]
    fn edge_word_requires_a_materialized_block() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let _ = block.edge_word(&coins, 0);
    }

    #[test]
    #[should_panic(expected = "crosses a superblock boundary")]
    fn materialize_rejects_chunks_crossing_superblocks() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        block.materialize(&g, &coins, 1, 100, 100);
    }
}
