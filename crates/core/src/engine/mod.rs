//! # The session-oriented detection engine
//!
//! [`Detector`] is the primary public API of the VulnDS system: a query
//! session that **owns** one shared graph (`Arc<UncertainGraph>`), the
//! run configuration, a worker thread count, and **reusable state** —
//! bound vectors (Algorithms 2–3), candidate reductions (Algorithm 4),
//! and cumulative sampled-world counts — so that repeated queries
//! (multiple `k`, tweaked `ε`/`δ`, follow-ups after an update) amortize
//! each other's work instead of re-deriving everything from scratch.
//!
//! Since 0.4 the engine is built for **concurrent multi-client use**:
//! [`Detector::detect`], [`Detector::detect_many`],
//! [`Detector::session_stats`], and [`Detector::clear_cache`] all take
//! `&self`, `Detector` is `Send + Sync`, and one session can be shared
//! across any number of query threads (wrap it in an `Arc`, or hand out
//! `&Detector` borrows from a scoped thread). Session caches build
//! **single-flight**: when several queries miss on the same plan key at
//! the same moment, one of them computes the value while the rest block
//! on the same slot and share the one `Arc` — so amortization compounds
//! across clients, not just across requests.
//!
//! ```
//! use std::sync::Arc;
//! use ugraph::{NodeId, UncertainGraph};
//! use vulnds_core::engine::{DetectRequest, Detector};
//! use vulnds_core::AlgorithmKind;
//!
//! let mut b = UncertainGraph::builder(5);
//! for v in 0..5 {
//!     b.set_self_risk(NodeId(v), 0.2).unwrap();
//! }
//! for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
//!     b.add_edge(NodeId(u), NodeId(v), 0.2).unwrap();
//! }
//! let graph = b.build().unwrap();
//!
//! // The builder takes `&UncertainGraph` (clones), `UncertainGraph`
//! // (moves), or `Arc<UncertainGraph>` (shares) — the session owns the
//! // graph either way.
//! let detector = Detector::builder(graph).seed(7).build().unwrap();
//! let top1 = detector.detect(&DetectRequest::new(1, AlgorithmKind::BottomK)).unwrap();
//! assert_eq!(top1.top_k[0].node, NodeId(4));
//!
//! // A follow-up query reuses the session's bounds and sampled worlds.
//! let top2 = detector.detect(&DetectRequest::new(2, AlgorithmKind::BottomK)).unwrap();
//! assert!(top2.engine.bounds_reused);
//!
//! // Concurrent clients share one session through `&self`.
//! let service = Arc::new(detector);
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let service = Arc::clone(&service);
//!         s.spawn(move || {
//!             service.detect(&DetectRequest::new(2, AlgorithmKind::BottomK)).unwrap()
//!         });
//!     }
//! });
//! ```
//!
//! ## Determinism
//!
//! Results are bit-identical for a given `(graph, config, request)`
//! across thread counts, across repeated calls, across warm vs cold
//! caches, **and across concurrent interleavings**: sample `i` is
//! always drawn from the RNG stream derived from `(seed, i)` and IS the
//! materialized world `PossibleWorld::sample_indexed(graph, seed, i)`,
//! so cached cumulative counts over ids `0..t0` extend to `0..t` by
//! drawing only `t0..t` — exactly what a cold run would have produced.
//! A stream's cache cell is locked across a draw, so concurrent queries
//! on the same stream serialize into the same prefix-extension order a
//! serial run would take; queries on different streams proceed in
//! parallel. Sampling executes on the bit-parallel world-block kernel
//! (64 worlds per block, see `vulnds_sampling::block`); the session
//! cache additionally snapshots counts at 64-aligned block boundaries
//! so prefix extensions resume on whole blocks.
//!
//! Only the *diagnostics* may differ between interleavings: cache
//! counters ([`EngineStats`], [`SessionStats`]) describe which query
//! happened to build or reuse shared state, and wall-clock `elapsed`
//! is wall clock. The answers (`top_k`, `RunStats` budgets/counts) are
//! invariant.
//!
//! ## Batching
//!
//! [`Detector::detect_many`] answers a batch of requests while sharing
//! one sampling pass per stream: requests that sample the same stream
//! (same seed and, for reverse sampling, the same candidate set) are
//! served in ascending budget order, so the whole group draws only
//! `max(tᵢ)` fresh worlds instead of `Σ tᵢ`. Every response is still
//! bit-identical to a lone [`Detector::detect`] call for that request.
//!
//! ## BSRBK on BSR's stream
//!
//! BSRBK ([`AlgorithmKind::BottomK`]) samples no stream of its own: it
//! reads BSR's reverse stream `(seed, B)` at a fixed doubling schedule of
//! *looks* below BSR's budget `t`, then at `t`, and stops at the first
//! look whose Chernoff–KL bounds certify the requested ε. Every draw
//! into a reverse stream snapshots the looks it crosses in the same
//! pass (and those snapshots are never evicted), so a BSRBK read of a
//! stream BSR already drew is a cache hit, a batch holding both draws
//! the stream once, and a delta repairs BSRBK's prefixes along with
//! BSR's.
//!
//! ## Live updates
//!
//! [`Detector::apply_delta`] commits a batched [`GraphDelta`]
//! (probability recalibrations — topology is immutable) as a new
//! **epoch**: a graph snapshot that every query pins at entry, together
//! with everything that is a pure function of it alone — the coin
//! table, the bound vectors, and the candidate reductions. In-flight
//! queries finish bit-identically on the pre-delta epoch while queries
//! that start after the commit see the new one, so no derived value is
//! ever checked against a graph version. The next epoch is not built
//! cold, and mostly not built anew: what the retiring epoch owns moves
//! into it when no query pins the retiring epoch, and is copied when
//! one does. The graph is patched in place at the delta's items, the
//! coin table re-quantized at the dirty items only, and the bound
//! vectors overwritten from level stacks the session repairs over the
//! dirty z-ball (`O(|dirty z-ball|)` instead of `O(z (n + m))`, the
//! same repair as [`IncrementalBounds`](crate::IncrementalBounds)). A
//! [`Detector::graph`] handle held across a commit makes that commit
//! copy the graph once. Sample streams outlive epochs: a cached stream
//! survives whenever its touch ledger proves no draw ever materialized
//! a dirty node's or a dirty edge's coin — all bit-identical to a cold
//! rebuild against the post-delta graph, which the tests assert. Node
//! coins are as
//! frontier-lazy as edge coins, so a reverse stream (SR, BSR) survives
//! a self-risk change to any node its searches never reached. A stream
//! the delta does reach — every forward stream (N, SN) on a self-risk
//! change — is repaired: only the nodes downstream of the delta can
//! change count, so just those slots are recounted, in place in each
//! snapshot no in-flight query holds. Streams are dropped and redrawn
//! only when that downstream set is a large share of the graph.

mod algorithms;
mod cache;
mod request;

pub use request::{AlgorithmKind, DetectRequest, DetectResponse, EngineStats, RunStats};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ugraph::{DeltaUndo, GraphDelta, NodeId, UncertainGraph};
use vulnds_sampling::{
    BlockWords, CancelToken, CoinTable, CoinUsage, DefaultCounts, PassCounts, SamplePass,
    TouchLedger,
};

use crate::candidates::{reduce_candidates, CandidateReduction};
use crate::config::{ApproxParams, BoundsMethod, VulnConfig};
use crate::dynamic::BoundLevels;
use crate::error::Result;

use cache::{lock_tracked, Flight, FlightMap, SampleCache, StreamMap};
use request::ResolvedRequest;

/// Lower and upper bound vectors, as cached by a session.
pub type BoundsPair = (Vec<f64>, Vec<f64>);

/// Conversion into the shared graph a [`Detector`] session owns.
///
/// Lets [`Detector::builder`] accept every common ownership shape:
///
/// * `Arc<UncertainGraph>` / `&Arc<UncertainGraph>` — shared as-is
///   (this is how a service hands one graph to many sessions without
///   copying it),
/// * `UncertainGraph` — moved into a fresh `Arc`,
/// * `&UncertainGraph` — **cloned** into a fresh `Arc`, so pre-0.4 call
///   sites keep compiling (at the cost of one graph copy — pass the
///   graph by value or by `Arc` to avoid it).
pub trait IntoSharedGraph {
    /// The shared graph the session will own.
    fn into_shared(self) -> Arc<UncertainGraph>;
}

impl IntoSharedGraph for Arc<UncertainGraph> {
    fn into_shared(self) -> Arc<UncertainGraph> {
        self
    }
}

impl IntoSharedGraph for &Arc<UncertainGraph> {
    fn into_shared(self) -> Arc<UncertainGraph> {
        Arc::clone(self)
    }
}

impl IntoSharedGraph for UncertainGraph {
    fn into_shared(self) -> Arc<UncertainGraph> {
        Arc::new(self)
    }
}

impl IntoSharedGraph for &UncertainGraph {
    fn into_shared(self) -> Arc<UncertainGraph> {
        Arc::new(self.clone())
    }
}

/// Builder for a [`Detector`] session.
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    graph: Arc<UncertainGraph>,
    config: VulnConfig,
    threads: Option<usize>,
}

impl DetectorBuilder {
    /// Adopts a full configuration, including its thread count.
    pub fn config(mut self, config: VulnConfig) -> Self {
        self.threads = Some(config.threads);
        self.config = config;
        self
    }

    /// Session RNG seed (identical seeds give identical results).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Default `(ε, δ)` approximation contract for requests that do not
    /// override it.
    pub fn approx(mut self, approx: ApproxParams) -> Self {
        self.config.approx = approx;
        self
    }

    /// Order `z` of the bound recursions (Algorithms 2–3).
    pub fn bound_order(mut self, z: usize) -> Self {
        self.config.bound_order = z;
        self
    }

    /// Which bound recursion the pruning phase uses.
    pub fn bounds_method(mut self, method: BoundsMethod) -> Self {
        self.config.bounds_method = method;
        self
    }

    /// Fixed budget of the naive `N` baseline.
    pub fn naive_samples(mut self, t: u64) -> Self {
        self.config.naive_samples = t;
        self
    }

    /// Hard cap on any computed sample size.
    pub fn max_samples(mut self, cap: u64) -> Self {
        self.config.max_samples = Some(cap);
        self
    }

    /// Worker threads for the samplers. Defaults to the machine's
    /// available parallelism; results do not depend on the choice.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builds the session. Fails with
    /// [`VulnError::InvalidParameter`](crate::VulnError::InvalidParameter)
    /// when the bound order is 0: the recursions of Algorithms 2–3 start
    /// at order 1.
    pub fn build(self) -> Result<Detector> {
        let mut config = self.config;
        if config.bound_order == 0 {
            return Err(crate::VulnError::InvalidParameter(
                "bound order must be at least 1".to_string(),
            ));
        }
        config.threads = self.threads.unwrap_or_else(default_threads).max(1);
        Ok(Detector { config, state: EngineState::new(self.graph) })
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Cumulative cache counters for a whole session.
///
/// Under concurrent use the counters are maintained with relaxed
/// atomics: totals are exact once the session is quiescent, and a
/// snapshot taken mid-traffic is a consistent-enough view for
/// monitoring (each counter is individually accurate; cross-counter
/// invariants may be momentarily off by in-flight queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Queries answered (batch requests count individually).
    pub queries: u64,
    /// Possible worlds freshly sampled.
    pub samples_drawn: u64,
    /// Possible worlds served from cache instead of being re-sampled.
    pub samples_reused: u64,
    /// Bound vectors computed.
    pub bounds_computed: u64,
    /// Bound-vector cache hits.
    pub bounds_reused: u64,
    /// Candidate reductions computed.
    pub reductions_computed: u64,
    /// Candidate-reduction cache hits.
    pub reductions_reused: u64,
    /// Uniform 64-bit words synthesized by the counter-RNG coin
    /// generator (the raw materialization cost).
    pub coin_words_synthesized: u64,
    /// Edge lane-words the frontier-lazy materialization never had to
    /// synthesize (the lazy win, in words).
    pub lazy_edge_words_skipped: u64,
    /// Superblocks materialized across all sampling passes (one per
    /// `W·64`-world unit; width-1 blocks count too).
    pub superblocks_evaluated: u64,
    /// Widest superblock (in 64-lane words) any pass of the session ran
    /// on — 0 until a sampling pass executes.
    pub widest_block_words: usize,
    /// Most `detect`/`detect_many` calls ever in flight at once — the
    /// session's observed concurrency level (1 under serial use).
    pub concurrent_peak: u64,
    /// Queries that returned a **degraded** answer: a deadline, token,
    /// or explicit `sample_cap` cut sampling short of its ε-derived
    /// budget (see [`DetectResponse::degraded`]).
    pub queries_degraded: u64,
    /// Queries cancelled before a single sample was drawn
    /// ([`VulnError::Cancelled`](crate::VulnError::Cancelled)); these do
    /// not count as `queries`.
    pub queries_cancelled: u64,
    /// Requests a serving layer refused under load instead of queueing
    /// (see [`Detector::note_shed`]).
    pub requests_shed: u64,
    /// Queries in flight at the moment of the snapshot — a gauge, not a
    /// monotone counter.
    pub in_flight: u64,
    /// Current epoch — 0 for the base graph, +1 per committed
    /// [`Detector::apply_delta`]. A gauge, not a counter.
    pub epoch: u64,
    /// Probability version of the current live graph (a gauge; each
    /// delta item bumps it once).
    pub graph_version: u64,
    /// Delta batches committed by [`Detector::apply_delta`].
    pub deltas_applied: u64,
    /// Bound vectors and sample streams that **survived** a delta: the
    /// vectors repaired into the next epoch, and the streams re-stamped
    /// in place, whether their touch ledger cleared them or they were
    /// repaired.
    pub caches_revalidated: u64,
    /// Sample streams a delta dropped because its dirty set touched
    /// them (rebuilt lazily by the next query that needs them).
    pub caches_invalidated: u64,
    /// Sample streams a delta reached but repaired in place by
    /// recounting only the nodes downstream of it (a subset of
    /// `caches_revalidated`).
    pub caches_repaired: u64,
}

/// Lock-free session totals (the source of [`SessionStats`] snapshots).
#[derive(Debug, Default)]
struct SessionTotals {
    queries: AtomicU64,
    samples_drawn: AtomicU64,
    samples_reused: AtomicU64,
    bounds_computed: AtomicU64,
    bounds_reused: AtomicU64,
    reductions_computed: AtomicU64,
    reductions_reused: AtomicU64,
    coin_words_synthesized: AtomicU64,
    lazy_edge_words_skipped: AtomicU64,
    superblocks_evaluated: AtomicU64,
    widest_block_words: AtomicUsize,
    concurrent_peak: AtomicU64,
    in_flight: AtomicU64,
    queries_degraded: AtomicU64,
    queries_cancelled: AtomicU64,
    requests_shed: AtomicU64,
    deltas_applied: AtomicU64,
    caches_revalidated: AtomicU64,
    caches_invalidated: AtomicU64,
    caches_repaired: AtomicU64,
}

impl SessionTotals {
    fn add(counter: &AtomicU64, n: u64) {
        // ORDERING: Relaxed — independent monotone stat counters; no
        // reader infers anything from one counter about another.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks a query in flight and tracks the concurrency high-water
    /// mark; the guard un-marks on drop (including error paths).
    fn enter(&self) -> InFlightGuard<'_> {
        // ORDERING: AcqRel — each RMW must observe every prior
        // enter/exit so `now` (and therefore the recorded peak) is the
        // true momentary concurrency, not a stale undercount.
        let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.concurrent_peak.fetch_max(now, Ordering::AcqRel);
        InFlightGuard(self)
    }

    fn snapshot(&self) -> SessionStats {
        SessionStats {
            // ORDERING: Relaxed — the snapshot is advisory; each
            // counter is independently monotone and the stats contract
            // promises no cross-counter consistency.
            queries: self.queries.load(Ordering::Relaxed),
            samples_drawn: self.samples_drawn.load(Ordering::Relaxed),
            samples_reused: self.samples_reused.load(Ordering::Relaxed),
            bounds_computed: self.bounds_computed.load(Ordering::Relaxed),
            bounds_reused: self.bounds_reused.load(Ordering::Relaxed),
            reductions_computed: self.reductions_computed.load(Ordering::Relaxed),
            reductions_reused: self.reductions_reused.load(Ordering::Relaxed),
            coin_words_synthesized: self.coin_words_synthesized.load(Ordering::Relaxed),
            lazy_edge_words_skipped: self.lazy_edge_words_skipped.load(Ordering::Relaxed),
            superblocks_evaluated: self.superblocks_evaluated.load(Ordering::Relaxed),
            widest_block_words: self.widest_block_words.load(Ordering::Relaxed),
            concurrent_peak: self.concurrent_peak.load(Ordering::Relaxed),
            queries_degraded: self.queries_degraded.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            caches_revalidated: self.caches_revalidated.load(Ordering::Relaxed),
            caches_invalidated: self.caches_invalidated.load(Ordering::Relaxed),
            caches_repaired: self.caches_repaired.load(Ordering::Relaxed),
            // ORDERING: Relaxed — a momentary gauge; the monitoring
            // reader draws no cross-thread conclusions from it.
            in_flight: self.in_flight.load(Ordering::Relaxed),
            // Epoch gauges, not atomic counters; `Detector::session_stats`
            // fills them in.
            epoch: 0,
            graph_version: 0,
        }
    }
}

struct InFlightGuard<'a>(&'a SessionTotals);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        // ORDERING: AcqRel — pairs with the RMWs in `enter` so the
        // in-flight count stays exact across all interleavings.
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Cap on cached bound maintainers (each holds its `2z` level vectors,
/// and no graph). Keys are `(z, method)` — normally one per session —
/// so the cap only guards hostile per-request `z` diversity.
const MAX_BOUND_MAINTAINERS: usize = 16;

/// One committed epoch: a graph snapshot and everything that is a pure
/// function of it alone — the coin thresholds, the bound vectors
/// (Algorithms 2–3), and the candidate reductions (Algorithm 4). A query
/// pins one `Arc<Epoch>` at entry and reads only its epoch's values, so
/// none of them carries a version to check.
#[derive(Debug)]
struct Epoch {
    graph: Arc<UncertainGraph>,
    /// 0 for the base graph, +1 per committed [`Detector::apply_delta`].
    number: u64,
    /// Quantized on first use, so a session that never samples never
    /// builds one; concurrent first uses build once.
    coins: OnceLock<CoinTable>,
    bounds: FlightMap<(usize, BoundsMethod), BoundsPair>,
    reductions: FlightMap<(usize, usize, BoundsMethod), CandidateReduction>,
}

impl Epoch {
    fn new(graph: Arc<UncertainGraph>, number: u64, coins: OnceLock<CoinTable>) -> Self {
        Epoch {
            graph,
            number,
            coins,
            bounds: FlightMap::default(),
            reductions: FlightMap::default(),
        }
    }

    /// The epoch's coin table, quantized on first use.
    fn coin_table(&self) -> &CoinTable {
        self.coins.get_or_init(|| CoinTable::new(&self.graph))
    }
}

/// What the commit lock guards: the live epoch, and the bound
/// maintainers, keyed `(z, method)`, that track its graph. A delta
/// repairs each maintainer against the committed snapshot and seeds the
/// next epoch's bounds from it instead of recomputing from scratch.
#[derive(Debug)]
struct Live {
    epoch: Arc<Epoch>,
    maintainers: BTreeMap<(usize, BoundsMethod), Maintainer>,
}

/// A parked bound maintainer: every level of one `(z, method)`
/// recursion, valid for the graph of the epoch numbered `epoch`. It
/// holds no graph, so the live snapshot has one owner and a commit can
/// patch it in place.
#[derive(Debug)]
struct Maintainer {
    epoch: u64,
    levels: BoundLevels,
}

/// A commit's patch of the graph the next epoch is built on, and the
/// undo record of the delta it applied: the graph is patched in place
/// through [`Arc::make_mut`] — moved when nothing shares it, copied
/// when something does. Armed until [`Patch::seal`]: a patch dropped
/// armed — the commit unwound — restores the delta's prior values and
/// the graph's version, so a graph patched inside the unpinned retiring
/// epoch is that epoch's graph again, bit for bit.
struct Patch<'a> {
    graph: &'a mut Arc<UncertainGraph>,
    undo: Option<DeltaUndo>,
}

impl<'a> Patch<'a> {
    fn apply(graph: &'a mut Arc<UncertainGraph>, delta: &GraphDelta) -> Result<Self> {
        let undo = delta.apply_recorded(Arc::make_mut(graph))?;
        Ok(Patch { graph, undo: Some(undo) })
    }

    /// The patched graph.
    fn graph(&self) -> &UncertainGraph {
        self.graph
    }

    /// Disarms the undo record — the commit completed — and shares the
    /// patched graph with the next epoch.
    fn seal(mut self) -> Arc<UncertainGraph> {
        self.undo = None;
        Arc::clone(self.graph)
    }
}

impl Drop for Patch<'_> {
    fn drop(&mut self) {
        if let Some(undo) = self.undo.take() {
            // Nothing shares the patched graph before `seal`.
            if let Some(graph) = Arc::get_mut(self.graph) {
                undo.revert(graph);
            }
        }
    }
}

/// Session state: the live cell plus what outlives epochs — the sample
/// streams and the counters. Every cell is safe to reach from many query
/// threads at once (see the [`cache`] module docs for the concurrency
/// model).
///
/// The `live` mutex is the session's **commit lock**:
/// [`Detector::apply_delta`] holds it from reading the retiring epoch to
/// swapping in the next, so deltas serialize and a pin always observes
/// a fully built epoch. Queries hold it only to pin, or to park a
/// maintainer while their epoch is still the live one. A query parks
/// while holding a slot of its own epoch's bounds map; a commit, holding
/// the lock, takes stream cells and slots of the next epoch's map only,
/// which no query can hold yet, so the lock orders cannot form a cycle.
#[derive(Debug)]
struct EngineState {
    live: Mutex<Live>,
    forward: StreamMap<u64>,
    reverse: StreamMap<(u64, Vec<u32>)>,
    totals: SessionTotals,
}

/// A delta is repaired in place only while its downstream set — the
/// nodes whose counts it can change — stays within `num_nodes /
/// REPAIR_REACH_DIVISOR`; past that a stream is kept or dropped by its
/// ledger alone. The recount runs one reverse search per downstream
/// node, which a forward redraw beats once the set is a large share of
/// the graph. Measured on full-scale graphs (2-core x86-64 VM, one
/// thread, W 8, SN's budget at k = 1% of n and ε 0.1, six deltas of two
/// self-risks and three edge probabilities each):
///
/// | graph | downstream nodes | repair | forward redraw |
/// |---|---|---|---|
/// | Guarantee | 6–20 of 31,309 | 3–8 ms | 160 ms |
/// | Fraud | 5–45 of 14,242 | 4–25 ms | 191 ms |
/// | P2P | ~46,349 of 62,586 (74%) | 1.6–2.0 s | 0.98 s |
///
/// P2P's giant strongly connected component puts most of the graph
/// downstream of any delta, so there the redraw is kept.
const REPAIR_REACH_DIVISOR: usize = 8;

/// A reached stream that no query has read across this many
/// consecutive repairs is dropped instead of repaired again. A reverse
/// stream whose candidate set the repaired bounds no longer produce is
/// never read again, and would otherwise cost a recount on every later
/// delta that reaches it. A stream read at least once every three
/// deltas is never dropped for idleness.
const MAX_UNREAD_REPAIRS: u32 = 3;

/// How one delta repairs the streams its dirty items reach: the patched
/// graph and its coin table (quantized on first use), the delta's
/// downstream set, and the thread count the recount runs at.
struct StreamRepair<'a> {
    graph: &'a UncertainGraph,
    coins: &'a OnceLock<CoinTable>,
    downstream: Vec<u32>,
    threads: usize,
    usage: CoinUsage,
}

impl StreamRepair<'_> {
    /// Recounts the stream's slots that lie downstream of the delta —
    /// every downstream node of a forward stream (`candidates` is
    /// `None`), the downstream candidate positions of a reverse one —
    /// through the reverse kernel, folding its touches into the ledger.
    /// Every other slot's count cannot move: coins are keyed by `(seed,
    /// block, item)` and a node's default reads only its ancestors'.
    fn recount(
        &mut self,
        cache: &mut SampleCache,
        ledger: &TouchLedger,
        seed: u64,
        candidates: Option<&[u32]>,
    ) {
        let (slots, nodes): (Vec<usize>, Vec<NodeId>) = match candidates {
            None => self.downstream.iter().map(|&v| (v as usize, NodeId(v))).unzip(),
            Some(candidates) => candidates
                .iter()
                .enumerate()
                .filter(|(_, v)| self.downstream.binary_search(v).is_ok())
                .map(|(i, &v)| (i, NodeId(v)))
                .unzip(),
        };
        cache.repair(&slots, |keys| {
            let Some((&t_max, splits)) = keys.split_last() else {
                return Vec::new();
            };
            let pass = SamplePass {
                splits,
                ledger: Some(ledger),
                ..SamplePass::new(0..t_max, self.threads)
            };
            let coins = self.coins.get_or_init(|| CoinTable::new(self.graph));
            let out = pass.reverse(self.graph, coins, &nodes, seed);
            self.usage.merge(&out.usage);
            out.segments
        });
    }
}

/// What [`EngineState::next_epoch`] carried across one commit.
#[derive(Debug, Default)]
struct Revalidation {
    revalidated: u64,
    invalidated: u64,
    repaired: u64,
}

impl EngineState {
    fn new(graph: Arc<UncertainGraph>) -> Self {
        let epoch = Arc::new(Epoch::new(graph, 0, OnceLock::new()));
        EngineState {
            live: Mutex::new(Live { epoch, maintainers: BTreeMap::new() }),
            forward: StreamMap::default(),
            reverse: StreamMap::default(),
            totals: SessionTotals::default(),
        }
    }

    /// Pins the live epoch (a brief lock around an `Arc` clone).
    fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&lock_tracked(&self.live).epoch)
    }

    /// Builds the epoch that `delta` commits over the live one and
    /// carries the session-level state across: patches the graph, keeps,
    /// repairs, or drops each sample stream, then repairs every bound
    /// maintainer. Runs under the commit lock and publishes nothing: the
    /// caller swaps the returned epoch in. The delta is validated before
    /// anything moves, so a rejected delta changes nothing. What the
    /// retiring epoch owns — its graph, coin table and bound vectors —
    /// moves into the next epoch when no query pins the retiring one, and
    /// is copied when one does. A panic midway still leaves the live
    /// epoch whole: the [`Patch`]'s undo record puts the graph's prior
    /// values back, a maintainer is marked advanced before its repair
    /// starts (so the next commit drops it), streams re-stamped to the
    /// next version read as stale, and a taken coin table or bound pair
    /// is rebuilt on demand. Stream repairs run at `config`'s thread
    /// count.
    fn next_epoch(
        &self,
        live: &mut Live,
        delta: &GraphDelta,
        config: &VulnConfig,
    ) -> Result<(Epoch, Revalidation)> {
        delta.validate(&live.epoch.graph)?;
        let (dirty_nodes, dirty_edges) = (delta.dirty_nodes(), delta.dirty_edges());
        let mut tally = Revalidation::default();
        let (prev_version, number) = (live.epoch.graph.version(), live.epoch.number + 1);
        let Live { epoch: retiring, maintainers } = live;

        // The retiring epoch's graph, coin table and bound pairs move
        // when no query pins it (the graph is still copied if a
        // `Detector::graph` handle shares it); a pinned epoch keeps all
        // three, and the next epoch patches copies. A coin table is
        // re-quantized at the dirty items only (bit-identical to a
        // rebuild — thresholds are per-item pure).
        let mut copy = None;
        let (slot, coins, mut spare) = match Arc::get_mut(retiring) {
            Some(unpinned) => {
                (&mut unpinned.graph, unpinned.coins.take(), std::mem::take(&mut unpinned.bounds))
            }
            None => (
                copy.insert(Arc::clone(&retiring.graph)),
                retiring.coins.get().cloned(),
                FlightMap::default(),
            ),
        };
        let patch = Patch::apply(slot, delta)?;
        let graph = patch.graph();
        let coins = match coins {
            Some(mut table) => {
                table.patch(graph, &dirty_nodes, &dirty_edges);
                OnceLock::from(table)
            }
            None => OnceLock::new(),
        };

        // Sample streams. A stream survives as-is when its ledger
        // proves no draw ever materialized a dirty node's or a dirty
        // edge's coin. Reverse searches record only the nodes and
        // in-edges they read before every lane was decided, so reverse
        // streams usually outlive deltas elsewhere; forward streams
        // force every node word, so any self-risk change reaches them.
        // A reached stream is repaired when the delta's downstream set
        // is small: only those slots are recounted, against the patched
        // graph's coin table. Past the reach cap, or when no query has
        // read the stream across its last `MAX_UNREAD_REPAIRS` repairs,
        // it is dropped instead, and the next query that wants it
        // redraws it.
        //
        // Locking the cell waits out in-flight draws, so the ledger is
        // complete when inspected, and survivors are re-stamped to the
        // next version under the same lock.
        let (num_nodes, num_edges) = (graph.num_nodes(), graph.num_edges());
        let cap = num_nodes / REPAIR_REACH_DIVISOR;
        let mut repair = ugraph::traversal::downstream(graph, &dirty_nodes, &dirty_edges, cap).map(
            |downstream| StreamRepair {
                graph,
                coins: &coins,
                downstream,
                threads: config.threads,
                usage: CoinUsage::default(),
            },
        );
        let mut verdict = |cell: &cache::StreamCell, seed: u64, candidates: Option<&[u32]>| {
            let mut cache = lock_tracked(&cell.cache);
            match cache.graph_version {
                // Never drawn into: nothing to validate or count.
                None => return true,
                Some(version) if version != prev_version => {
                    tally.invalidated += 1;
                    return false;
                }
                Some(_) if !cell.ledger_intersects(&dirty_nodes, &dirty_edges) => {}
                Some(_) => {
                    let read_lately = cache.unread_repairs < MAX_UNREAD_REPAIRS;
                    let Some(repair) = repair.as_mut().filter(|_| read_lately) else {
                        tally.invalidated += 1;
                        return false;
                    };
                    let ledger = cell.ledger(num_nodes, num_edges);
                    repair.recount(&mut cache, ledger, seed, candidates);
                    cache.unread_repairs += 1;
                    tally.repaired += 1;
                }
            }
            cache.graph_version = Some(graph.version());
            tally.revalidated += 1;
            true
        };
        self.forward.retain(|&seed, cell| verdict(cell, seed, None));
        self.reverse.retain(|(seed, candidates), cell| verdict(cell, *seed, Some(candidates)));
        if let Some(repair) = repair {
            SessionTotals::add(&self.totals.coin_words_synthesized, repair.usage.words);
        }

        // Bounds: queries park a maintainer only on the live epoch, so
        // each tracks the retiring one, unless a commit that panicked
        // marked it advanced; that one cannot be repaired across the gap
        // and is dropped. The rest are marked, then repaired against the
        // patched graph, and their last levels overwrite the retiring
        // epoch's pair when it moved (a fresh pair otherwise) to seed the
        // next epoch's map, which no query can reach before the swap.
        // This runs after the stream repairs so those never allocate
        // beside both epochs' vectors. Reductions are cheap derivations
        // of the bounds: the next epoch starts without any, and the next
        // query rebuilds from the repaired vectors.
        maintainers.retain(|_, maintainer| maintainer.epoch + 1 == number);
        let mut pairs = Vec::with_capacity(maintainers.len());
        for (key, maintainer) in maintainers.iter_mut() {
            maintainer.epoch = number;
            maintainer.levels.advance(graph, delta);
            let (mut lower, mut upper) = spare.take(key).unwrap_or_default();
            lower.clear();
            lower.extend_from_slice(maintainer.levels.lower());
            upper.clear();
            upper.extend_from_slice(maintainer.levels.upper());
            pairs.push((*key, (lower, upper)));
            tally.revalidated += 1;
        }
        let next = Epoch::new(patch.seal(), number, coins);
        for (key, pair) in pairs {
            next.bounds.insert(&key, pair);
        }
        Ok((next, tally))
    }
}

/// What an algorithm run sees of a session: the pinned epoch's graph,
/// the resolved configuration, and cache accessors that record usage.
///
/// One `EngineCtx` exists per query, on the query's stack: the
/// mutability (`&mut self` accessors) is the query's own stat
/// accumulator, while all shared state behind `epoch` and `state` is
/// reached through interior-concurrent cells.
pub(crate) struct EngineCtx<'a> {
    epoch: &'a Epoch,
    config: &'a VulnConfig,
    state: &'a EngineState,
    request: EngineStats,
    // First-access guards: a request that computes bounds and then reaches
    // them again through the cache did not "reuse" session state.
    bounds_accessed: bool,
    reduction_accessed: bool,
    // False during batch planning: cache traffic that only sizes budgets
    // must not show up in the session or per-request counters.
    record_usage: bool,
    // The request's effective cancellation signal: polled by the stream
    // draws so a deadline can cut a pass at a chunk boundary.
    cancel: Option<CancelToken>,
    // The request's draw cap (see `DetectRequest::sample_cap`): caps the
    // worlds a stream draw materializes without changing any budget.
    sample_cap: Option<u64>,
}

impl<'a> EngineCtx<'a> {
    /// The pinned epoch's graph.
    pub fn graph(&self) -> &'a UncertainGraph {
        &self.epoch.graph
    }

    /// The session's resolved configuration.
    pub fn config(&self) -> &VulnConfig {
        self.config
    }

    /// Single-flight lookup accounting shared by every memo layer: a
    /// build counts as computed; a hit on the request's first access
    /// marks the layer reused. One implementation so the layers cannot
    /// drift.
    fn note_flight(&mut self, flight: Flight, first_access: bool, layer: MemoLayer) {
        let state = self.state;
        match flight {
            Flight::Built => {
                let computed = match layer {
                    MemoLayer::Bounds => &state.totals.bounds_computed,
                    MemoLayer::Reductions => &state.totals.reductions_computed,
                };
                SessionTotals::add(computed, 1);
            }
            Flight::Hit if first_access && self.record_usage => match layer {
                MemoLayer::Bounds => {
                    self.request.bounds_reused = true;
                    SessionTotals::add(&state.totals.bounds_reused, 1);
                }
                MemoLayer::Reductions => {
                    self.request.reduction_reused = true;
                    SessionTotals::add(&state.totals.reductions_reused, 1);
                }
            },
            Flight::Hit => {}
        }
    }

    /// Bound vectors for the session's `(order, method)`, computed once
    /// per epoch (single-flight under concurrent misses).
    ///
    /// The build sweeps every level over the pinned snapshot and, while
    /// that epoch is still live (by epoch number), parks the levels in
    /// the session, so a later [`Detector::apply_delta`] repairs the
    /// dirty z-ball against the committed snapshot instead of
    /// recomputing. A build on a retired epoch parks nothing: it must
    /// not displace the maintainer a commit already advanced. Both paths
    /// run the one level sweep of [`crate::bounds`], so the repaired
    /// vectors are bit-identical to what this cold path would produce on
    /// the post-delta graph.
    pub fn bounds(&mut self) -> Arc<BoundsPair> {
        let first_access = !self.bounds_accessed;
        self.bounds_accessed = true;
        let key = (self.config.bound_order, self.config.bounds_method);
        let (epoch, state) = (self.epoch, self.state);
        let (pair, flight) = epoch.bounds.get_or_build(&key, || {
            let levels = BoundLevels::new(&epoch.graph, key.0, key.1);
            let pair = (levels.lower().to_vec(), levels.upper().to_vec());
            let mut live = lock_tracked(&state.live);
            let room = live.maintainers.len() < MAX_BOUND_MAINTAINERS
                || live.maintainers.contains_key(&key);
            if room && live.epoch.number == epoch.number {
                live.maintainers.insert(key, Maintainer { epoch: epoch.number, levels });
            }
            pair
        });
        self.note_flight(flight, first_access, MemoLayer::Bounds);
        pair
    }

    /// Candidate reduction (Algorithm 4) for `k`, computed once per
    /// epoch and `k` (single-flight under concurrent misses).
    pub fn reduction(&mut self, k: usize) -> Arc<CandidateReduction> {
        let first_access = !self.reduction_accessed;
        self.reduction_accessed = true;
        let key = (k, self.config.bound_order, self.config.bounds_method);
        // Probe before touching bounds: a cached reduction must not
        // pull the bound vectors (pre-0.4 behavior, preserved).
        if let Some(hit) = self.epoch.reductions.get(&key) {
            self.note_flight(Flight::Hit, first_access, MemoLayer::Reductions);
            return hit;
        }
        let bounds = self.bounds();
        let (reduction, flight) =
            self.epoch.reductions.get_or_build(&key, || reduce_candidates(&bounds.0, &bounds.1, k));
        self.note_flight(flight, first_access, MemoLayer::Reductions);
        reduction
    }

    /// The pinned epoch's [`CoinTable`], quantized on first use
    /// (concurrent first uses build once).
    pub fn coin_table(&self) -> &'a CoinTable {
        self.epoch.coin_table()
    }

    /// Cumulative forward-sample counts over ids `0..t` for `seed`,
    /// served through the session's prefix-extendable cache. The
    /// stream's cell is locked across the draw, so a concurrent query
    /// wanting the same prefix blocks and then reuses it (single-flight
    /// sampling).
    ///
    /// The request's `sample_cap` truncates `t` here (a capped replay
    /// serves exactly the degraded prefix), and its cancellation token
    /// can cut the draw at a chunk boundary — either way the returned
    /// counts report how many samples they actually cover via
    /// [`DefaultCounts::samples`].
    pub fn forward_counts(&mut self, t: u64, seed: u64) -> Arc<DefaultCounts> {
        let (graph, coins) = (self.graph(), self.coin_table());
        let stream = self.state.forward.stream(seed);
        self.stream_counts(&stream, &[t], false, |_| None, |pass| pass.forward(graph, coins, seed))
    }

    /// Cumulative reverse-sample counts over ids `0..t` for
    /// `(seed, candidates)`, served through the session's
    /// prefix-extendable cache (locked across the draw, like
    /// [`EngineCtx::forward_counts`]). Counts are indexed by candidate
    /// position.
    pub fn reverse_counts(
        &mut self,
        candidates: &[NodeId],
        t: u64,
        seed: u64,
    ) -> Arc<DefaultCounts> {
        self.reverse_counts_until(candidates, &[t], seed, |_| None)
    }

    /// Sequential reads of the reverse stream `(seed, candidates)`: the
    /// cumulative counts at each of the ascending prefixes `looks` in
    /// turn, until `next` accepts one. Returns the accepted counts, or
    /// the last ones read when the looks run out, the request's
    /// `sample_cap` is reached, or a cancelled draw comes back short.
    ///
    /// `next` returns `None` to accept a prefix, or `Some(ahead)` to read
    /// the next one: `ahead` is where the caller expects acceptance, so a
    /// fresh draw runs straight to it (capped at the last look) in one
    /// pass instead of one pass per look. Every look is still read, in
    /// order, from the snapshots that pass leaves, so `ahead` changes
    /// what is drawn, never what is returned.
    ///
    /// Every draw into a reverse stream — this one or a plain
    /// [`EngineCtx::reverse_counts`] — snapshots each look of BSRBK's
    /// schedule it crosses, in the same single pass, so reading a
    /// stream another query already drew costs one cache hit per look.
    /// The cell stays locked across all the looks, and the request
    /// counts the worlds it drew, and the rest of the returned prefix as
    /// reused, once.
    pub fn reverse_counts_until(
        &mut self,
        candidates: &[NodeId],
        looks: &[u64],
        seed: u64,
        next: impl FnMut(&DefaultCounts) -> Option<u64>,
    ) -> Arc<DefaultCounts> {
        let (graph, coins) = (self.graph(), self.coin_table());
        let key = (seed, candidates.iter().map(|v| v.0).collect::<Vec<u32>>());
        let stream = self.state.reverse.stream(key);
        self.stream_counts(&stream, looks, true, next, |pass| {
            pass.reverse(graph, coins, candidates, seed)
        })
    }

    /// The shared stream-cell protocol behind
    /// [`EngineCtx::forward_counts`]/[`EngineCtx::reverse_counts_until`]:
    /// lock the cell, serve each target prefix through the prefix cache
    /// until `next` accepts one (see [`EngineCtx::reverse_counts_until`]),
    /// and account samples/coins/width. `draw(pass)` runs the one
    /// [`SamplePass`] each cache miss builds — its range is the drawn
    /// gap, split at every snapshot key inside it, at the planner's
    /// width for the target and the session's threads, with the
    /// request's cancel token and the stream's ledger. `looks` makes the
    /// cache snapshot (and keep) BSRBK's look prefixes. Holding the cell
    /// lock across the draw is the single-flight property: a query that
    /// blocked on it finds the prefix cached and draws nothing.
    ///
    /// A pass narrows the planned width when a drawn gap is too small
    /// to keep every thread busy (e.g. a short cache extension); the
    /// stats report the width the pass ran at, not the plan.
    ///
    /// Epoch handling: the cell's cached prefix carries the graph
    /// version it is valid for. A query whose pinned snapshot has a
    /// *different* version (it straddles a delta commit) serves itself
    /// from a detached scratch cache instead — its answer stays
    /// bit-identical to a cold run on its snapshot, and it can neither
    /// corrupt the shared prefix nor pollute the survival ledger.
    fn stream_counts(
        &mut self,
        stream: &cache::StreamCell,
        targets: &[u64],
        looks: bool,
        mut next: impl FnMut(&DefaultCounts) -> Option<u64>,
        mut draw: impl FnMut(&SamplePass<'_>) -> PassCounts,
    ) -> Arc<DefaultCounts> {
        let threads = self.config.threads;
        let cancel = self.cancel.clone();
        let graph = self.graph();
        let version = graph.version();
        let (num_nodes, num_edges) = (graph.num_nodes(), graph.num_edges());
        let mut cache = lock_tracked(&stream.cache);
        let stale = cache.graph_version.is_some_and(|v| v != version);
        let ledger = (!stale).then(|| stream.ledger(num_nodes, num_edges));
        let mut scratch = SampleCache::default();
        let serve_cache: &mut SampleCache = if stale {
            &mut scratch
        } else {
            cache.graph_version = Some(version);
            cache.unread_repairs = 0;
            &mut cache
        };
        let mut usage = CoinUsage::default();
        let mut used_width: Option<BlockWords> = None;
        let sample_cap = self.sample_cap;
        let capped = |t: u64| sample_cap.map_or(t, |cap| t.min(cap));
        let mut serve = |t: u64| {
            let width = BlockWords::plan(t, threads);
            let (read, fresh, _) = serve_cache.serve(t, width.lanes(), looks, |start, ends| {
                // xlint: allow(panic-hygiene) — `SampleCache::serve` ends
                // every draw at its target, so `ends` is never empty.
                let (&end, splits) = ends.split_last().expect("a draw ends at its target");
                let out = draw(&SamplePass {
                    range: start..end,
                    splits,
                    width,
                    threads,
                    cancel: cancel.as_ref(),
                    ledger,
                });
                used_width = Some(used_width.map_or(out.width, |w| w.max(out.width)));
                usage.merge(&out.usage);
                out.segments
            });
            (read, fresh)
        };
        let last = targets.last().copied().unwrap_or(0);
        let (mut drawn, mut ahead) = (0, 0);
        let mut counts: Option<Arc<DefaultCounts>> = None;
        for &target in targets {
            let t = capped(target);
            if counts.as_ref().is_some_and(|c| c.samples() >= t) {
                break; // capped: the previous read already reached it
            }
            // Draw ahead to a look, so passes split only at snapshot keys.
            let reach = capped(targets.iter().copied().find(|&l| l >= ahead).unwrap_or(last));
            if reach > t {
                drawn += serve(reach).1;
            }
            let (read, fresh) = serve(t);
            drawn += fresh;
            // A short read (a cancelled draw) ends the reads too.
            let verdict = if read.samples() < t { None } else { next(&read) };
            counts = Some(read);
            match verdict {
                Some(next_ahead) => ahead = next_ahead,
                None => break,
            }
        }
        drop(cache);
        // xlint: allow(panic-hygiene) — every caller passes at least one
        // target, and the first one is always read.
        let counts = counts.expect("at least one target");
        // A draw ahead of an accepted look reuses nothing of it.
        self.note_usage(drawn, counts.samples().saturating_sub(drawn));
        self.note_coins(&usage);
        if let Some(width) = used_width {
            self.note_width(width);
        }
        counts
    }

    /// Records coin-materialization cost (words synthesized, lazy edge
    /// words skipped, superblocks evaluated) against the request and
    /// session counters.
    pub fn note_coins(&mut self, usage: &CoinUsage) {
        self.request.coin_words_synthesized += usage.words;
        self.request.lazy_edge_words_skipped += usage.edge_words_skipped;
        self.request.superblocks += usage.superblocks;
        SessionTotals::add(&self.state.totals.coin_words_synthesized, usage.words);
        SessionTotals::add(&self.state.totals.lazy_edge_words_skipped, usage.edge_words_skipped);
        SessionTotals::add(&self.state.totals.superblocks_evaluated, usage.superblocks);
    }

    /// Records the superblock width a sampling pass ran on (the widest
    /// pass wins within a request and across the session).
    pub fn note_width(&mut self, width: BlockWords) {
        self.request.block_words = self.request.block_words.max(width.words());
        // ORDERING: Relaxed — a monotone high-water stat; no other
        // memory depends on observing it.
        self.state.totals.widest_block_words.fetch_max(width.words(), Ordering::Relaxed);
    }

    fn note_usage(&mut self, drawn: u64, reused: u64) {
        self.request.samples_drawn += drawn;
        self.request.samples_reused += reused;
        SessionTotals::add(&self.state.totals.samples_drawn, drawn);
        SessionTotals::add(&self.state.totals.samples_reused, reused);
    }
}

/// Which single-flight memo layer a lookup touched (for
/// [`EngineCtx::note_flight`]'s shared accounting).
#[derive(Clone, Copy)]
enum MemoLayer {
    Bounds,
    Reductions,
}

/// How a request will sample, for batch planning: requests with equal
/// keys share one stream and extend each other's prefixes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum PlanKey {
    /// Forward sampling over all nodes (N, SN).
    Forward { seed: u64 },
    /// Reverse sampling over a fixed candidate set (SR, BSR, BSRBK —
    /// BSRBK reads a prefix of BSR's stream).
    Reverse { seed: u64, candidates: Vec<u32> },
    /// Sampling-free: nothing to share (degenerate BSR/BSRBK). The
    /// index keeps each solo request in its own group.
    Solo { index: usize },
}

/// What one [`Detector::apply_delta`] commit did: the new epoch plus
/// what the session carried into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Epoch after the commit (the base graph is epoch 0).
    pub epoch: u64,
    /// Probability version of the new live graph.
    pub graph_version: u64,
    /// Bound vectors repaired into the new epoch, plus sample streams
    /// that survived in place.
    pub revalidated: u64,
    /// Sample streams dropped because the dirty set touched them.
    pub invalidated: u64,
    /// Sample streams the dirty set reached that were repaired in place
    /// by recounting only the nodes downstream of the delta (counted in
    /// `revalidated` too).
    pub repaired: u64,
}

/// A query session that owns one shared graph. See the
/// [module docs](self).
///
/// `Detector` is `Send + Sync`: share one session across threads (via
/// `Arc<Detector>` or scoped borrows) and call [`Detector::detect`] /
/// [`Detector::detect_many`] from all of them — answers are
/// bit-identical to serial execution, and the caches amortize across
/// every client.
#[derive(Debug)]
pub struct Detector {
    config: VulnConfig,
    state: EngineState,
}

// Compile-time proof of the 0.4 concurrency contract: a `Detector`
// can be shared across threads by reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Detector>();
};

impl Detector {
    /// Starts building a session for `graph` — accepts
    /// `&UncertainGraph` (clones), `UncertainGraph` (moves), or
    /// `Arc<UncertainGraph>` (shares); see [`IntoSharedGraph`].
    pub fn builder(graph: impl IntoSharedGraph) -> DetectorBuilder {
        DetectorBuilder { graph: graph.into_shared(), config: VulnConfig::default(), threads: None }
    }

    /// A pinned snapshot of the session's current graph, shareable with
    /// other sessions or threads without copying. The snapshot stays
    /// immutable (and valid) even as later [`Detector::apply_delta`]
    /// calls move the session to new epochs. A commit patches the live
    /// graph in place when nothing else holds it, so holding this handle
    /// across a commit makes that commit copy the graph once; drop it
    /// before the next delta to keep commits copy-free.
    pub fn graph(&self) -> Arc<UncertainGraph> {
        Arc::clone(&self.state.pin().graph)
    }

    /// The session's current epoch: 0 for the base graph, +1 per
    /// committed [`Detector::apply_delta`].
    pub fn epoch(&self) -> u64 {
        self.state.pin().number
    }

    /// The session's resolved configuration (threads already defaulted).
    pub fn config(&self) -> &VulnConfig {
        &self.config
    }

    /// Cumulative cache counters for the session (a consistent snapshot
    /// of the atomic totals), with the epoch gauges read from one pin.
    pub fn session_stats(&self) -> SessionStats {
        let epoch = self.state.pin();
        let mut stats = self.state.totals.snapshot();
        stats.epoch = epoch.number;
        stats.graph_version = epoch.graph.version();
        stats
    }

    /// Commits a batched probability delta as a new epoch.
    ///
    /// The whole batch validates against the current snapshot before
    /// any item applies — an invalid batch changes nothing (no epoch, no
    /// cache effect). On success the swap is atomic: queries already in
    /// flight finish bit-identically on their pinned pre-delta epoch;
    /// queries that start afterwards see the new epoch — its graph the
    /// retiring one patched in place, its coin table the retiring one
    /// with only the dirty items re-quantized, its bound vectors the
    /// retiring ones overwritten from their repaired maintainers (each
    /// moved when no query pins the retiring epoch and nothing else
    /// holds it, copied otherwise; a [`Detector::graph`] handle counts),
    /// its candidate reductions rebuilt on demand — and the session's
    /// sample streams: every stream whose touch ledger proves
    /// independence of the dirty nodes and edges carried over, and every
    /// other stream repaired by recounting only the nodes downstream of
    /// the delta (or dropped, when that set passes the repair cap). All
    /// of it is bit-identical to a cold rebuild against the post-delta
    /// graph.
    ///
    /// Repairs run under the commit lock, on the session's thread count:
    /// a commit that repairs streams takes roughly the downstream set's
    /// share of a sampling pass, and queries starting meanwhile wait for
    /// the new epoch.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaOutcome> {
        let mut live = lock_tracked(&self.state.live);
        let (next, Revalidation { revalidated, invalidated, repaired }) =
            self.state.next_epoch(&mut live, delta, &self.config)?;
        let (epoch, graph_version) = (next.number, next.graph.version());
        live.epoch = Arc::new(next);
        SessionTotals::add(&self.state.totals.deltas_applied, 1);
        SessionTotals::add(&self.state.totals.caches_revalidated, revalidated);
        SessionTotals::add(&self.state.totals.caches_invalidated, invalidated);
        SessionTotals::add(&self.state.totals.caches_repaired, repaired);
        Ok(DeltaOutcome { epoch, graph_version, revalidated, invalidated, repaired })
    }

    /// Drops all derived state (coin table, bounds, reductions, sampled
    /// worlds) but keeps the session counters and the epoch number:
    /// the live epoch is replaced by a fresh one on the same snapshot.
    /// Subsequent queries behave like a fresh session — results are
    /// identical either way.
    ///
    /// Safe to call while other queries are in flight: an in-flight
    /// query keeps its pinned epoch (and detached cells for whatever
    /// streams it already reached), finishes on them, and returns
    /// exactly what it would have returned without the clear; only
    /// queries that *start* afterwards see a cold cache.
    pub fn clear_cache(&self) {
        {
            let mut live = lock_tracked(&self.state.live);
            let (graph, number) = (Arc::clone(&live.epoch.graph), live.epoch.number);
            live.epoch = Arc::new(Epoch::new(graph, number, OnceLock::new()));
            live.maintainers.clear();
        }
        self.state.forward.clear();
        self.state.reverse.clear();
    }

    /// Precomputes the session's bound vectors (useful before taking
    /// traffic) and returns them.
    pub fn warm_bounds(&self) -> Arc<BoundsPair> {
        let epoch = self.state.pin();
        self.ctx(&epoch).bounds()
    }

    /// A context for one query, borrowing the epoch the query pinned at
    /// entry (so a concurrent delta commit cannot move the graph out
    /// from under it).
    fn ctx<'a>(&'a self, epoch: &'a Epoch) -> EngineCtx<'a> {
        EngineCtx {
            epoch,
            config: &self.config,
            state: &self.state,
            request: EngineStats::default(),
            bounds_accessed: false,
            reduction_accessed: false,
            record_usage: true,
            cancel: None,
            sample_cap: None,
        }
    }

    /// A query context carrying one resolved request's cancellation
    /// signal and draw cap into the stream draws.
    fn ctx_for<'a>(&'a self, epoch: &'a Epoch, resolved: &ResolvedRequest) -> EngineCtx<'a> {
        let mut ctx = self.ctx(epoch);
        ctx.cancel = resolved.cancel.clone();
        ctx.sample_cap = resolved.sample_cap;
        ctx
    }

    /// Runs one resolved request on `epoch`, the step shared by
    /// [`Detector::detect`] and [`Detector::detect_many`]: stamps the
    /// answer with the epoch it read, then accounts the outcome. A
    /// completed query counts as a query (and as degraded when cut
    /// short); a query cancelled before any sample counts only as
    /// cancelled.
    fn run_on(&self, epoch: &Epoch, resolved: &ResolvedRequest) -> Result<DetectResponse> {
        let mut ctx = self.ctx_for(epoch, resolved);
        let outcome = algorithms::run(&mut ctx, resolved).map(|mut response| {
            response.engine = ctx.request;
            response.engine.epoch = epoch.number;
            response.engine.graph_version = epoch.graph.version();
            response
        });
        match &outcome {
            Ok(response) => {
                SessionTotals::add(&self.state.totals.queries, 1);
                if response.degraded {
                    SessionTotals::add(&self.state.totals.queries_degraded, 1);
                }
            }
            Err(crate::VulnError::Cancelled) => {
                SessionTotals::add(&self.state.totals.queries_cancelled, 1);
            }
            Err(_) => {}
        }
        outcome
    }

    /// Records a request a serving layer refused under load (shed before
    /// ever reaching [`Detector::detect`]), so session stats describe
    /// offered load, not just answered load.
    pub fn note_shed(&self) {
        SessionTotals::add(&self.state.totals.requests_shed, 1);
    }

    /// Answers one request. Callable from any number of threads at
    /// once; the answer is bit-identical to a serial run.
    pub fn detect(&self, request: &DetectRequest) -> Result<DetectResponse> {
        let epoch = self.state.pin();
        let resolved = request.resolve(&epoch.graph, &self.config)?;
        let _in_flight = self.state.totals.enter();
        self.run_on(&epoch, &resolved)
    }

    /// Answers a batch of requests, sharing one sampling pass per
    /// stream.
    ///
    /// Requests with the same stream (same seed; for reverse sampling
    /// also the same candidate set) are executed in ascending budget
    /// order, so the group draws only `max(tᵢ)` fresh worlds in total.
    /// Responses come back in request order and are bit-identical to
    /// what a lone [`Detector::detect`] call would return.
    ///
    /// Validation is all-or-nothing: if any request is invalid, no
    /// request runs.
    ///
    /// Per-response `bounds_reused`/`reduction_reused` flags describe
    /// session state at the moment each request executes — bounds the
    /// batch planner computed while sizing budgets count as session
    /// state, so even the batch's first reverse-sampling request can
    /// report them reused. Planning itself records no cache usage.
    pub fn detect_many(&self, requests: &[DetectRequest]) -> Result<Vec<DetectResponse>> {
        // One pin for the whole batch: every request (and the planning
        // pass) runs on the same epoch, even mid-commit.
        let epoch = self.state.pin();
        let resolved: Vec<ResolvedRequest> = requests
            .iter()
            .map(|r| r.resolve(&epoch.graph, &self.config))
            .collect::<Result<_>>()?;
        let _in_flight = self.state.totals.enter();

        // Plan each request's stream and budget, then order: groups by
        // first appearance, ascending budget within a group (so later
        // requests extend earlier prefixes instead of redrawing).
        let plans: Vec<(PlanKey, u64)> =
            resolved.iter().enumerate().map(|(i, r)| self.plan(&epoch, i, r)).collect();
        let mut first_seen: BTreeMap<&PlanKey, usize> = BTreeMap::new();
        for (i, (key, _)) in plans.iter().enumerate() {
            first_seen.entry(key).or_insert(i);
        }
        let mut order: Vec<usize> = (0..resolved.len()).collect();
        order.sort_by_key(|&i| (first_seen[&plans[i].0], plans[i].1, i));

        let mut responses: Vec<Option<DetectResponse>> = vec![None; resolved.len()];
        for i in order {
            responses[i] = Some(self.run_on(&epoch, &resolved[i])?);
        }
        // xlint: allow(panic-hygiene) — the loop above writes `Some`
        // at every index of `order`, a permutation of `0..len`.
        Ok(responses.into_iter().map(|r| r.expect("every request answered")).collect())
    }

    /// Stream key and sample budget for one resolved request. Uses the
    /// session caches (bounds/reductions computed here are reused by the
    /// actual run) but records no usage: planning is bookkeeping, not a
    /// query.
    fn plan(&self, epoch: &Epoch, index: usize, req: &ResolvedRequest) -> (PlanKey, u64) {
        let mut ctx = self.ctx(epoch);
        ctx.record_usage = false;
        match req.algorithm {
            AlgorithmKind::Naive => {
                (PlanKey::Forward { seed: req.seed }, ctx.config().naive_samples)
            }
            AlgorithmKind::SampledNaive => {
                let t = algorithms::sn_budget(&ctx, req);
                (PlanKey::Forward { seed: req.seed }, t)
            }
            AlgorithmKind::SampleReverse
            | AlgorithmKind::BoundedSampleReverse
            | AlgorithmKind::BottomK => {
                // Same derivation the run will use — see `reverse_plan`.
                // BSRBK reads at most BSR's budget, so sorting it with
                // that budget still draws the group once.
                let plan = algorithms::reverse_plan(&mut ctx, req);
                if plan.degenerate {
                    return (PlanKey::Solo { index }, 0);
                }
                let ids = plan.candidates.iter().map(|v| v.0).collect();
                (PlanKey::Reverse { seed: req.seed, candidates: ids }, plan.budget)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::VulnError;
    use crate::sample_size::achieved_epsilon;
    use ugraph::EdgeId;
    use vulnds_sampling::Xoshiro256pp;

    pub(super) fn random_graph(n: usize, m: usize, seed: u64) -> UncertainGraph {
        let mut rng = Xoshiro256pp::new(seed);
        let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u != v {
                edges.push((u, v, rng.next_f64() * 0.5));
            }
        }
        ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::KeepMax).unwrap()
    }

    fn session(graph: &UncertainGraph) -> Detector {
        Detector::builder(graph).config(VulnConfig::default().with_seed(77)).build().unwrap()
    }

    #[test]
    fn builder_accepts_every_graph_ownership_shape() {
        let g = random_graph(30, 60, 21);
        let arc = Arc::new(g.clone());
        let by_ref = Detector::builder(&g).seed(1).build().unwrap();
        let by_value = Detector::builder(g.clone()).seed(1).build().unwrap();
        let by_arc = Detector::builder(Arc::clone(&arc)).seed(1).build().unwrap();
        let by_arc_ref = Detector::builder(&arc).seed(1).build().unwrap();
        // Arc-built sessions share the caller's allocation; the others
        // own their own copy.
        assert!(Arc::ptr_eq(&by_arc.graph(), &arc));
        assert!(Arc::ptr_eq(&by_arc_ref.graph(), &arc));
        assert!(!Arc::ptr_eq(&by_ref.graph(), &arc));
        // All four answer identically.
        let req = DetectRequest::new(3, AlgorithmKind::BottomK);
        let reference = by_ref.detect(&req).unwrap();
        for d in [&by_value, &by_arc, &by_arc_ref] {
            assert_eq!(d.detect(&req).unwrap().top_k, reference.top_k);
        }
    }

    #[test]
    fn warm_cache_serves_identical_results_without_redrawing() {
        let g = random_graph(100, 200, 2);
        let d = session(&g);
        for kind in [
            AlgorithmKind::Naive,
            AlgorithmKind::SampledNaive,
            AlgorithmKind::SampleReverse,
            AlgorithmKind::BoundedSampleReverse,
        ] {
            let req = DetectRequest::new(5, kind);
            let cold = d.detect(&req).unwrap();
            let warm = d.detect(&req).unwrap();
            assert_eq!(warm.top_k, cold.top_k, "{kind}");
            assert_eq!(warm.engine.samples_drawn, 0, "{kind}: drew fresh samples when warm");
            assert_eq!(warm.engine.samples_reused, cold.stats.samples_used, "{kind}");
        }
    }

    #[test]
    fn bounds_and_reduction_are_reused_across_k() {
        let g = random_graph(80, 160, 3);
        let d = session(&g);
        let a = d.detect(&DetectRequest::new(3, AlgorithmKind::BoundedSampleReverse)).unwrap();
        assert!(!a.engine.bounds_reused);
        let b = d.detect(&DetectRequest::new(7, AlgorithmKind::BoundedSampleReverse)).unwrap();
        assert!(b.engine.bounds_reused, "bounds must be shared across k");
        assert!(!b.engine.reduction_reused, "different k needs its own reduction");
        let c = d.detect(&DetectRequest::new(7, AlgorithmKind::BottomK)).unwrap();
        assert!(c.engine.reduction_reused, "same k shares the reduction across algorithms");
    }

    #[test]
    fn detect_many_matches_individual_calls_and_draws_fewer_samples() {
        let g = random_graph(100, 200, 4);
        let requests = vec![
            DetectRequest::new(4, AlgorithmKind::SampledNaive),
            DetectRequest::new(8, AlgorithmKind::SampledNaive),
            DetectRequest::new(4, AlgorithmKind::BoundedSampleReverse),
            DetectRequest::new(6, AlgorithmKind::Naive),
        ];
        let batch = session(&g);
        let responses = batch.detect_many(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());

        let mut independent_total = 0u64;
        for (req, resp) in requests.iter().zip(&responses) {
            let solo = session(&g);
            let solo_resp = solo.detect(req).unwrap();
            assert_eq!(solo_resp.top_k, resp.top_k, "batch answer differs for {req:?}");
            independent_total += solo.session_stats().samples_drawn;
        }
        let batch_total = batch.session_stats().samples_drawn;
        assert!(
            batch_total < independent_total,
            "batch drew {batch_total}, independent calls drew {independent_total}"
        );
    }

    #[test]
    fn per_request_overrides_do_not_touch_the_session() {
        let g = random_graph(60, 120, 5);
        let d = session(&g);
        let tight = DetectRequest::new(3, AlgorithmKind::SampledNaive)
            .with_epsilon(0.1)
            .with_delta(0.05)
            .with_seed(123);
        let r1 = d.detect(&tight).unwrap();
        let r2 = d.detect(&DetectRequest::new(3, AlgorithmKind::SampledNaive)).unwrap();
        assert!(r1.stats.sample_budget > r2.stats.sample_budget, "tighter ε must cost more");
        assert_eq!(d.config().seed, 77, "request seed override leaked into the session");
    }

    #[test]
    fn candidate_hint_restricts_reverse_sampling() {
        let g = random_graph(60, 120, 6);
        let d = session(&g);
        let hint: Vec<NodeId> = (0..10).map(NodeId).collect();
        let r = d
            .detect(&DetectRequest::new(2, AlgorithmKind::SampleReverse).with_candidates(hint))
            .unwrap();
        assert!(r.stats.candidates <= 10);
        for s in &r.top_k {
            assert!(s.node.0 < 10, "hint violated: {:?}", s.node);
        }
    }

    #[test]
    fn hint_smaller_than_k_is_rejected() {
        let g = random_graph(60, 120, 11);
        let d = session(&g);
        for kind in [
            AlgorithmKind::SampleReverse,
            AlgorithmKind::BoundedSampleReverse,
            AlgorithmKind::BottomK,
        ] {
            let req = DetectRequest::new(40, kind).with_candidates(vec![NodeId(0), NodeId(1)]);
            assert!(
                matches!(d.detect(&req), Err(VulnError::InvalidParameter(_))),
                "{kind}: undersized hint must be rejected"
            );
            // A hint that covers k (counting bound-verified nodes) still
            // returns exactly k results.
            let ok = DetectRequest::new(2, kind).with_candidates((0..10).map(NodeId).collect());
            assert_eq!(d.detect(&ok).unwrap().top_k.len(), 2, "{kind}");
        }
        // SR has no verified fallback: an empty hint can never cover k.
        let empty = DetectRequest::new(1, AlgorithmKind::SampleReverse).with_candidates(vec![]);
        assert!(matches!(d.detect(&empty), Err(VulnError::InvalidParameter(_))));

        // Hint validation happens at resolve time, so a bad hint anywhere
        // in a batch keeps detect_many all-or-nothing: nothing runs.
        let fresh = session(&g);
        let batch = vec![
            DetectRequest::new(5, AlgorithmKind::SampledNaive),
            DetectRequest::new(5, AlgorithmKind::SampleReverse)
                .with_candidates(vec![NodeId(0), NodeId(1)]),
        ];
        assert!(fresh.detect_many(&batch).is_err());
        assert_eq!(fresh.session_stats().queries, 0);
        assert_eq!(fresh.session_stats().samples_drawn, 0);
    }

    #[test]
    fn unified_errors() {
        let g = random_graph(10, 20, 7);
        let d = session(&g);
        assert!(matches!(
            d.detect(&DetectRequest::new(0, AlgorithmKind::Naive)),
            Err(VulnError::InvalidK { k: 0, n: 10 })
        ));
        assert!(matches!(
            d.detect(&DetectRequest::new(11, AlgorithmKind::Naive)),
            Err(VulnError::InvalidK { k: 11, n: 10 })
        ));
        assert!(matches!(
            d.detect(&DetectRequest::new(2, AlgorithmKind::Naive).with_epsilon(2.0)),
            Err(VulnError::Config(_))
        ));
        assert!(matches!(
            d.detect(
                &DetectRequest::new(2, AlgorithmKind::SampleReverse)
                    .with_candidates(vec![NodeId(99)])
            ),
            Err(VulnError::CandidateOutOfBounds { node: 99, n: 10 })
        ));
        // detect_many is all-or-nothing.
        let d2 = session(&g);
        let reqs = vec![
            DetectRequest::new(2, AlgorithmKind::Naive),
            DetectRequest::new(0, AlgorithmKind::Naive),
        ];
        assert!(d2.detect_many(&reqs).is_err());
        assert_eq!(d2.session_stats().queries, 0, "no request may run on batch failure");
    }

    #[test]
    fn clear_cache_keeps_results_identical() {
        let g = random_graph(80, 160, 8);
        let d = session(&g);
        let req = DetectRequest::new(4, AlgorithmKind::BottomK);
        let a = d.detect(&req).unwrap();
        d.clear_cache();
        let b = d.detect(&req).unwrap();
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(d.session_stats().queries, 2);
        // The second run re-sampled from a cold cache.
        assert_eq!(b.engine.samples_reused, 0);
    }

    #[test]
    fn concurrent_same_stream_queries_draw_once() {
        let g = random_graph(100, 200, 15);
        let d = session(&g);
        let req = DetectRequest::new(5, AlgorithmKind::SampledNaive);
        let solo = session(&g);
        solo.detect(&req).unwrap();
        let expected_drawn = solo.session_stats().samples_drawn;

        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    d.detect(&req).unwrap();
                });
            }
        });
        let totals = d.session_stats();
        assert_eq!(totals.queries, 8);
        assert_eq!(
            totals.samples_drawn, expected_drawn,
            "concurrent same-stream misses must share one sampling pass"
        );
        assert_eq!(totals.bounds_computed, 0, "SN never touches bounds");
        assert!(totals.concurrent_peak >= 1 && totals.concurrent_peak <= 8);
    }

    #[test]
    fn width_planning_and_counters_are_reported() {
        let g = random_graph(100, 200, 12);
        // Planner-driven session: the naive 20k-world budget goes wide.
        let d = session(&g);
        let r = d.detect(&DetectRequest::new(4, AlgorithmKind::Naive)).unwrap();
        assert_eq!(r.engine.block_words, 8, "20k-world budget must plan the widest superblock");
        assert!(r.engine.superblocks > 0);
        assert_eq!(d.session_stats().widest_block_words, 8);
        assert!(d.session_stats().superblocks_evaluated >= r.engine.superblocks);
        // Warm repeat: nothing sampled, so no width is attributed.
        let warm = d.detect(&DetectRequest::new(4, AlgorithmKind::Naive)).unwrap();
        assert_eq!(warm.engine.block_words, 0, "cache hit must not report a sampling width");
        assert_eq!(warm.engine.superblocks, 0);

        // The planner reads the session's thread count, so sessions at
        // different counts run a 4,000-world N budget at different
        // widths — and the answers stay bit-identical.
        let n = DetectRequest::new(4, AlgorithmKind::Naive);
        let build = |threads| {
            Detector::builder(&g)
                .config(VulnConfig::default().with_seed(77))
                .naive_samples(4000)
                .threads(threads)
                .build()
                .unwrap()
        };
        let reference = build(1).detect(&n).unwrap();
        let mut widths = std::collections::BTreeSet::new();
        for threads in [1, 2, 8] {
            let r = build(threads).detect(&n).unwrap();
            assert_eq!(r.top_k, reference.top_k, "width must never change the answer");
            assert_eq!(r.engine.block_words, BlockWords::plan(4000, threads).words());
            widths.insert(r.engine.block_words);
        }
        assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");

        // BSRBK's look-by-look reads run on the planner too: each read
        // is planned for its own look, never wider than BSR's budget.
        let sequential = session(&g);
        let b = sequential.detect(&DetectRequest::new(4, AlgorithmKind::BottomK)).unwrap();
        if b.stats.samples_used > 0 {
            let planned = BlockWords::plan(b.stats.samples_used, sequential.config().threads);
            assert!((1..=planned.words()).contains(&b.engine.block_words), "{:?}", b.engine);
        }
    }

    #[test]
    fn stats_report_fitted_width_for_small_cache_extensions() {
        let g = random_graph(60, 120, 14);
        let d = Detector::builder(&g)
            .config(VulnConfig::default().with_seed(9))
            .threads(8)
            .build()
            .unwrap();
        let epoch = d.state.pin();
        {
            let mut ctx = d.ctx(&epoch);
            let _ = ctx.forward_counts(20_000, 9);
            assert_eq!(ctx.request.block_words, 8, "big cold pass runs wide");
        }
        // A 200-world cache extension still *plans* wide, but the pass
        // narrows it so 8 threads keep fine-grained chunks — and the
        // stats must report the width that actually executed.
        {
            let mut ctx = d.ctx(&epoch);
            let _ = ctx.forward_counts(20_200, 9);
            assert_eq!(ctx.request.samples_drawn, 200);
            assert_eq!(
                ctx.request.block_words, 1,
                "stats must report the fitted width, not the planned one"
            );
        }
    }

    #[test]
    fn builder_defaults_threads_to_available_parallelism() {
        let g = random_graph(10, 10, 9);
        let d = Detector::builder(&g).build().unwrap();
        assert_eq!(d.config().threads, default_threads());
        let e = Detector::builder(&g).threads(3).build().unwrap();
        assert_eq!(e.config().threads, 3);
        // `.config()` adopts the configuration's thread count too.
        let f = Detector::builder(&g).config(VulnConfig::default()).build().unwrap();
        assert_eq!(f.config().threads, 1);
    }

    #[test]
    fn builder_rejects_bound_order_zero() {
        let g = random_graph(10, 10, 9);
        let e = Detector::builder(&g).bound_order(0).build().unwrap_err();
        assert!(matches!(e, VulnError::InvalidParameter(_)), "{e:?}");
        let c = VulnConfig::default().with_bound_order(0);
        assert!(matches!(
            Detector::builder(&g).config(c).build(),
            Err(VulnError::InvalidParameter(_))
        ));
        assert_eq!(Detector::builder(&g).bound_order(1).build().unwrap().config().bound_order, 1);
    }

    #[test]
    fn pre_cancelled_queries_fail_without_counting_as_queries() {
        let g = random_graph(80, 160, 31);
        let d = session(&g);
        let dead = CancelToken::new();
        dead.cancel();
        for kind in
            [AlgorithmKind::SampledNaive, AlgorithmKind::SampleReverse, AlgorithmKind::BottomK]
        {
            let req = DetectRequest::new(4, kind).with_cancel(dead.clone());
            assert!(
                matches!(d.detect(&req), Err(VulnError::Cancelled)),
                "{kind}: pre-cancelled query must report Cancelled"
            );
        }
        let stats = d.session_stats();
        assert_eq!(stats.queries, 0, "cancelled queries must not count as answered");
        assert_eq!(stats.queries_cancelled, 3);
        assert_eq!(stats.queries_degraded, 0);
        assert_eq!(stats.in_flight, 0, "quiescent session must report an empty gauge");
    }

    #[test]
    fn sample_cap_degrades_and_replays_bit_identically() {
        let g = random_graph(100, 200, 32);
        let full = session(&g).detect(&DetectRequest::new(5, AlgorithmKind::SampledNaive)).unwrap();
        assert!(!full.degraded);
        assert_eq!(full.achieved_epsilon, 0.3, "full pass achieves the requested ε");
        let cap = full.stats.samples_used / 2;
        assert!(cap > 0);

        let capped_req = DetectRequest::new(5, AlgorithmKind::SampledNaive).with_sample_cap(cap);
        let capped = session(&g).detect(&capped_req).unwrap();
        assert!(capped.degraded, "a cap below budget must degrade");
        assert_eq!(capped.stats.samples_used, cap);
        assert_eq!(
            capped.stats.sample_budget, full.stats.sample_budget,
            "the ε-derived budget must not change under a cap"
        );
        assert!(
            capped.achieved_epsilon > 0.3,
            "achieved ε must widen: {}",
            capped.achieved_epsilon
        );
        // The replay contract: the same cap reproduces the degraded
        // answer bit-identically, cold or warm, at any thread count.
        let replay = session(&g).detect(&capped_req).unwrap();
        assert_eq!(replay.top_k, capped.top_k);
        let warm = session(&g);
        warm.detect(&DetectRequest::new(5, AlgorithmKind::SampledNaive)).unwrap();
        let warm_replay = warm.detect(&capped_req).unwrap();
        assert_eq!(warm_replay.top_k, capped.top_k, "warm cache changed a degraded answer");
        assert_eq!(warm_replay.stats.samples_used, cap);

        // A cap at or above the budget is not degradation.
        let roomy = DetectRequest::new(5, AlgorithmKind::SampledNaive)
            .with_sample_cap(full.stats.sample_budget);
        let r = session(&g).detect(&roomy).unwrap();
        assert!(!r.degraded);
        assert_eq!(r.top_k, full.top_k);
    }

    #[test]
    fn degraded_queries_are_counted() {
        let g = random_graph(100, 200, 33);
        let d = session(&g);
        let full = d.detect(&DetectRequest::new(4, AlgorithmKind::SampleReverse)).unwrap();
        let cap = (full.stats.samples_used / 2).max(1);
        let req = DetectRequest::new(4, AlgorithmKind::SampleReverse).with_sample_cap(cap);
        let capped = session(&g).detect(&req).unwrap();
        assert!(capped.degraded);
        let counter = session(&g);
        counter.detect(&req).unwrap();
        let stats = counter.session_stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.queries_degraded, 1);
        assert_eq!(stats.queries_cancelled, 0);
    }

    #[test]
    fn shed_requests_are_counted_without_a_query() {
        let g = random_graph(20, 40, 34);
        let d = session(&g);
        d.note_shed();
        d.note_shed();
        let stats = d.session_stats();
        assert_eq!(stats.requests_shed, 2);
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let g = random_graph(90, 180, 10);
        let mut reference: Option<Vec<DetectResponse>> = None;
        for threads in [1usize, 2, 4, 8] {
            let d = Detector::builder(&g)
                .config(VulnConfig::default().with_seed(77))
                .threads(threads)
                .build()
                .unwrap();
            let responses: Vec<DetectResponse> = AlgorithmKind::ALL
                .iter()
                .map(|&kind| d.detect(&DetectRequest::new(5, kind)).unwrap())
                .collect();
            match &reference {
                None => reference = Some(responses),
                Some(expected) => {
                    for (e, r) in expected.iter().zip(&responses) {
                        assert_eq!(e.top_k, r.top_k, "threads = {threads}");
                        assert_eq!(
                            e.stats.samples_used, r.stats.samples_used,
                            "threads = {threads}"
                        );
                    }
                }
            }
        }
    }

    /// Node `n-1` has self-risk 0 and no in-edges, so under push
    /// traversal it never defaults and its single out-edge is never
    /// materialized by any draw — a "dormant" edge a delta can retouch
    /// without perturbing cached sampled state.
    fn dormant_edge_graph() -> (UncertainGraph, EdgeId) {
        let mut risks = vec![0.35; 10];
        risks[9] = 0.0;
        let mut edges: Vec<(u32, u32, f64)> = (0..9u32).map(|v| (v, (v + 1) % 9, 0.4)).collect();
        edges.push((9, 0, 0.9));
        let g = ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::Error).unwrap();
        let dormant = g.find_edge(NodeId(9), NodeId(0)).unwrap();
        (g, dormant)
    }

    #[test]
    fn apply_delta_matches_a_cold_session_bit_for_bit() {
        let g = random_graph(100, 200, 31);
        let warm = session(&g);
        for kind in AlgorithmKind::ALL {
            warm.detect(&DetectRequest::new(5, kind)).unwrap();
        }
        let delta =
            GraphDelta::default().set_self_risk(NodeId(7), 0.45).set_edge_prob(EdgeId(3), 0.41);
        let outcome = warm.apply_delta(&delta).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(warm.epoch(), 1);
        assert!(outcome.revalidated >= 1, "bounds should be repaired into the new epoch");
        // Bounds were repaired through the incremental maintainer and
        // seeded into the new epoch, so the first post-delta pruned
        // query finds them warm.
        let pruned = warm.detect(&DetectRequest::new(5, AlgorithmKind::SampleReverse)).unwrap();
        assert!(pruned.engine.bounds_reused, "repaired bounds must be served from cache");

        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        let cold = session(&post);
        for kind in AlgorithmKind::ALL {
            let req = DetectRequest::new(5, kind);
            let w = warm.detect(&req).unwrap();
            let c = cold.detect(&req).unwrap();
            assert_eq!(w.top_k, c.top_k, "{kind}");
            assert_eq!(w.stats.samples_used, c.stats.samples_used, "{kind}");
        }
    }

    /// The epoch the session's maintainer tracks (there is one per
    /// `(z, method)`).
    fn maintainer_epoch(d: &Detector) -> u64 {
        let live = lock_tracked(&d.state.live);
        assert_eq!(live.maintainers.len(), 1);
        live.maintainers.values().map(|maintainer| maintainer.epoch).next().unwrap()
    }

    #[test]
    fn the_bounds_maintainer_tracks_the_live_epoch() {
        let g = random_graph(80, 160, 33);
        let d = session(&g);
        d.warm_bounds();
        assert_eq!(maintainer_epoch(&d), d.epoch());
        for (v, e) in [(4, 9), (11, 2)] {
            let delta =
                GraphDelta::default().set_self_risk(NodeId(v), 0.27).set_edge_prob(EdgeId(e), 0.33);
            d.apply_delta(&delta).unwrap();
            assert_eq!(maintainer_epoch(&d), d.epoch(), "after epoch {}", d.epoch());
        }
    }

    #[test]
    fn a_stale_epoch_query_does_not_displace_the_live_maintainer() {
        let g = random_graph(80, 160, 37);
        let delta = |v: u32| {
            GraphDelta::default().set_self_risk(NodeId(v), 0.31).set_edge_prob(EdgeId(v), 0.29)
        };
        // A query pinned before a commit reads its epoch's bounds after
        // it: the read hits, and the advanced maintainer stays parked.
        let d = session(&g);
        d.warm_bounds();
        let old = d.state.pin();
        d.apply_delta(&delta(3)).unwrap();
        let computed = d.session_stats().bounds_computed;
        d.ctx(&old).bounds();
        assert_eq!(maintainer_epoch(&d), 1, "a stale maintainer was parked");
        assert_eq!(d.apply_delta(&delta(5)).unwrap().invalidated, 0);
        d.warm_bounds();
        assert_eq!(d.session_stats().bounds_computed, computed, "bounds were recomputed");

        // A query pinned before a commit that builds its bounds only
        // after it parks nothing.
        let d = session(&g);
        let old = d.state.pin();
        d.apply_delta(&delta(3)).unwrap();
        d.ctx(&old).bounds();
        assert!(lock_tracked(&d.state.live).maintainers.is_empty(), "a retired epoch parked");
        d.warm_bounds();
        assert_eq!(maintainer_epoch(&d), 1);
    }

    #[test]
    fn each_epoch_reads_a_table_equal_to_a_fresh_quantization() {
        let g = random_graph(60, 120, 39);
        let deltas: Vec<GraphDelta> = (0..3u32)
            .map(|i| {
                GraphDelta::default()
                    .set_self_risk(NodeId(i), 0.41 + 0.01 * f64::from(i))
                    .set_edge_prob(EdgeId(2 * i), 0.37)
            })
            .collect();
        let fresh = |epoch: &Epoch| CoinTable::new(&epoch.graph);

        // A table built before the commit moves into the next epoch
        // patched, or is copied when a query pins the retiring epoch,
        // whose own table must stay as it was.
        let d = session(&g);
        for (i, delta) in deltas.iter().enumerate() {
            d.detect(&DetectRequest::new(3, AlgorithmKind::SampledNaive)).unwrap();
            let pinned = (i % 2 == 1).then(|| d.state.pin());
            d.apply_delta(delta).unwrap();
            let live = d.state.pin();
            assert_eq!(live.coins.get(), Some(&fresh(&live)), "epoch {}", live.number);
            if let Some(old) = pinned {
                assert_eq!(old.coins.get(), Some(&fresh(&old)), "epoch {}", old.number);
            }
            // Two queries in one epoch share one table.
            let other = d.state.pin();
            assert!(std::ptr::eq(d.ctx(&live).coin_table(), d.ctx(&other).coin_table()));
        }

        // Without a table before the commit, none is built by it; an
        // epoch pinned before the commit quantizes its own snapshot
        // when it first reads one after it.
        let d = session(&g);
        for delta in &deltas {
            d.warm_bounds();
            let old = d.state.pin();
            d.apply_delta(delta).unwrap();
            assert!(d.state.pin().coins.get().is_none(), "a commit quantized");
            assert_eq!(*d.ctx(&old).coin_table(), fresh(&old), "epoch {}", old.number);
        }
        let live = d.state.pin();
        assert_eq!(*d.ctx(&live).coin_table(), fresh(&live));
    }

    #[test]
    fn a_delta_with_chained_items_repairs_bounds_like_a_cold_session() {
        // The first delta's items sit upstream of each other: u's
        // self-risk feeds edge u→v, which feeds v, whose self-risk
        // changes too. The second changes one edge probability alone, so
        // only its target's inputs change.
        let g = random_graph(60, 150, 35);
        let e = EdgeId(17);
        let (u, v) = g.edge_endpoints(e);
        let deltas = [
            GraphDelta::default()
                .set_self_risk(u, 0.48)
                .set_edge_prob(e, 0.46)
                .set_self_risk(v, 0.02),
            GraphDelta::default().set_edge_prob(EdgeId(40), 0.49),
        ];
        let bits = |pair: &BoundsPair| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            (bits(&pair.0), bits(&pair.1))
        };
        for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
            for z in [2, 4] {
                let build = |graph: &UncertainGraph| {
                    Detector::builder(graph).bound_order(z).bounds_method(method).build().unwrap()
                };
                let warm = build(&g);
                warm.warm_bounds();
                let mut post = g.clone();
                for delta in &deltas {
                    warm.apply_delta(delta).unwrap();
                    delta.apply(&mut post).unwrap();
                    let cold = build(&post);
                    assert_eq!(
                        bits(&warm.warm_bounds()),
                        bits(&cold.warm_bounds()),
                        "{method:?} z = {z}, epoch {}",
                        warm.epoch()
                    );
                }
            }
        }
    }

    #[test]
    fn small_edge_delta_preserves_cached_sampled_state() {
        let (g, dormant) = dormant_edge_graph();
        let build = |graph: &UncertainGraph| {
            Detector::builder(graph).seed(77).naive_samples(2_000).build().unwrap()
        };
        let d = build(&g);
        for s in 0..10u64 {
            d.detect(&DetectRequest::new(3, AlgorithmKind::Naive).with_seed(s)).unwrap();
        }
        let drawn_before = d.session_stats().samples_drawn;

        let outcome = d.apply_delta(&GraphDelta::default().set_edge_prob(dormant, 0.01)).unwrap();
        // All 10 sample streams survive, one count each; nothing is dropped.
        assert_eq!(outcome.revalidated, 10);
        assert_eq!(outcome.invalidated, 0);
        assert!(
            outcome.revalidated * 10 >= (outcome.revalidated + outcome.invalidated) * 9,
            "a <=1% delta must preserve >=90% of cached sampled state"
        );

        let mut post = g.clone();
        GraphDelta::default().set_edge_prob(dormant, 0.01).apply(&mut post).unwrap();
        let cold = build(&post);
        for s in 0..10u64 {
            let req = DetectRequest::new(3, AlgorithmKind::Naive).with_seed(s);
            assert_eq!(d.detect(&req).unwrap().top_k, cold.detect(&req).unwrap().top_k);
        }
        assert_eq!(
            d.session_stats().samples_drawn,
            drawn_before,
            "replaying warm queries after the delta must not redraw"
        );
        let stats = d.session_stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.caches_revalidated, 10);
        assert_eq!(stats.caches_invalidated, 0);
    }

    #[test]
    fn self_risk_delta_drops_streams_but_stays_bit_identical() {
        let g = random_graph(60, 120, 5);
        let build = |graph: &UncertainGraph| {
            Detector::builder(graph).seed(77).naive_samples(2_000).build().unwrap()
        };
        let d = build(&g);
        for s in 0..3u64 {
            d.detect(&DetectRequest::new(3, AlgorithmKind::Naive).with_seed(s)).unwrap();
        }
        // Forward streams read every node's self-risk coin, so the delta
        // reaches all three. Node 1 sits in the graph's giant strongly
        // connected component: 45 of 60 nodes lie downstream of it, past
        // the repair cap, so every stream must go.
        let delta = GraphDelta::default().set_self_risk(NodeId(1), 0.9);
        let outcome = d.apply_delta(&delta).unwrap();
        assert!(outcome.invalidated >= 3, "invalidated only {}", outcome.invalidated);
        assert_eq!(outcome.repaired, 0);

        let drawn_before = d.session_stats().samples_drawn;
        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        let cold = build(&post);
        for s in 0..3u64 {
            let req = DetectRequest::new(3, AlgorithmKind::Naive).with_seed(s);
            assert_eq!(d.detect(&req).unwrap().top_k, cold.detect(&req).unwrap().top_k);
        }
        assert!(
            d.session_stats().samples_drawn > drawn_before,
            "invalidated streams must be redrawn"
        );
    }

    #[test]
    fn reverse_streams_survive_a_self_risk_delta_on_an_unread_node() {
        // `random_graph(60, 120, 5)` plus an isolated node 60 of tiny
        // self-risk: no reverse search from another node can reach it,
        // and its upper bound keeps it out of every candidate set, so
        // SR and BSR never read its coin.
        let base = random_graph(60, 120, 5);
        let mut risks: Vec<f64> = base.nodes().map(|v| base.self_risk(v)).collect();
        risks.push(0.01);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|e| {
                let (u, v) = base.edge_endpoints(e);
                (u.0, v.0, base.edge_prob(e))
            })
            .collect();
        let g = ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::Error).unwrap();
        let isolated = NodeId(60);
        let kinds = [AlgorithmKind::SampleReverse, AlgorithmKind::BoundedSampleReverse];
        let requests: Vec<DetectRequest> = kinds
            .iter()
            .flat_map(|&kind| (0..3u64).map(move |s| DetectRequest::new(3, kind).with_seed(s)))
            .collect();

        let matches_cold = |warm: &Detector, graph: &UncertainGraph| {
            let cold = session(graph);
            for req in &requests {
                let (w, c) = (warm.detect(req).unwrap(), cold.detect(req).unwrap());
                assert_eq!(w.top_k, c.top_k, "{req:?}");
                assert_eq!(w.stats.samples_used, c.stats.samples_used, "{req:?}");
            }
        };

        let warm = session(&g);
        for req in &requests {
            let response = warm.detect(req).unwrap();
            assert!(response.stats.samples_used > 0, "{req:?} must sample");
            assert!(response.top_k.iter().all(|s| s.node != isolated));
        }
        let drawn_before = warm.session_stats().samples_drawn;
        let delta = GraphDelta::default().set_self_risk(isolated, 0.02);
        warm.apply_delta(&delta).unwrap();

        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        matches_cold(&warm, &post);
        assert_eq!(
            warm.session_stats().samples_drawn,
            drawn_before,
            "surviving reverse streams must serve the replay without redrawing"
        );

        // A nudge to the top node, whose own search reads its coin,
        // must drop the streams that read it — and stay bit-identical.
        let top = warm.detect(&requests[0]).unwrap().top_k[0].node;
        let nudge = GraphDelta::default().set_self_risk(top, post.self_risk(top) + 0.01);
        warm.apply_delta(&nudge).unwrap();
        nudge.apply(&mut post).unwrap();
        matches_cold(&warm, &post);
        assert!(warm.session_stats().samples_drawn > drawn_before, "read-node streams must redraw");
    }

    #[test]
    fn reverse_streams_survive_an_edge_delta_past_the_deciding_in_edge() {
        // Hub 6 never self-defaults; its first in-neighbour, node 0,
        // always defaults over a certain edge. Every lane of the hub's
        // search is decided by that edge, so the other in-edges are
        // never read and a delta on one of them cannot move the stream.
        let mut risks = vec![0.3; 7];
        risks[0] = 1.0;
        risks[6] = 0.0;
        let edges: Vec<(u32, u32, f64)> =
            (0..6).map(|s| (s, 6, if s == 0 { 1.0 } else { 0.5 })).collect();
        let g = ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::Error).unwrap();
        let hub = NodeId(6);
        assert_eq!(g.in_neighbors(hub)[0], 0, "node 0 is scanned first");
        let unread = g.find_edge(NodeId(3), hub).unwrap();
        let req = DetectRequest::new(1, AlgorithmKind::SampleReverse)
            .with_candidates(vec![hub, NodeId(2)]);

        let warm = session(&g);
        assert!(warm.detect(&req).unwrap().stats.samples_used > 0, "SR must sample");
        let delta = GraphDelta::default().set_edge_prob(unread, 0.9);
        warm.apply_delta(&delta).unwrap();

        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        let (w, c) = (warm.detect(&req).unwrap(), session(&post).detect(&req).unwrap());
        assert_eq!(w.top_k, c.top_k);
        assert_eq!(w.stats.samples_used, c.stats.samples_used);
        assert_eq!(w.engine.samples_drawn, 0, "the surviving stream must serve the replay");
    }

    #[test]
    fn a_repair_records_the_coins_its_recount_reads() {
        // As above, node 0 decides every lane of hub 6, so SR never
        // reads the hub's other in-edges. Once node 0 stops defaulting,
        // the repair's recount scans them, and it must record them: a
        // later delta to one of them has to reach the stream again. The
        // isolated nodes 7 to 15 keep the downstream sets under the cap.
        let mut risks = vec![0.3; 16];
        risks[0] = 1.0;
        risks[6] = 0.0;
        let edges: Vec<(u32, u32, f64)> =
            (0..6).map(|s| (s, 6, if s == 0 { 1.0 } else { 0.5 })).collect();
        let g = ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::Error).unwrap();
        let hub = NodeId(6);
        let req = DetectRequest::new(1, AlgorithmKind::SampleReverse)
            .with_candidates(vec![hub, NodeId(2)]);
        let warm = session(&g);
        warm.detect(&req).unwrap();

        let mut post = g.clone();
        let unread = g.find_edge(NodeId(3), hub).unwrap();
        for delta in [
            GraphDelta::default().set_self_risk(NodeId(0), 0.0),
            GraphDelta::default().set_edge_prob(unread, 0.9),
        ] {
            assert_eq!(warm.apply_delta(&delta).unwrap().repaired, 1, "{delta:?}");
            delta.apply(&mut post).unwrap();
            let (w, c) = (warm.detect(&req).unwrap(), session(&post).detect(&req).unwrap());
            assert_eq!(w.top_k, c.top_k, "{delta:?}");
            assert_eq!(w.engine.samples_drawn, 0, "{delta:?}");
        }
    }

    #[test]
    fn repairs_stop_once_no_query_reads_the_stream() {
        // Node 39 is a sink every other node points at, so a self-risk
        // delta on it reaches the forward stream yet leaves only node 39
        // downstream: a repair every time, until the stream idles.
        let risks = vec![0.2; 40];
        let edges: Vec<(u32, u32, f64)> = (0..39).map(|v| (v, 39, 0.3)).collect();
        let g = ugraph::from_parts(&risks, &edges, ugraph::DuplicateEdgePolicy::Error).unwrap();
        let build = |graph: &UncertainGraph| {
            Detector::builder(graph).seed(77).naive_samples(2_000).build().unwrap()
        };
        let d = build(&g);
        let req = DetectRequest::new(3, AlgorithmKind::Naive);
        d.detect(&req).unwrap();

        let mut post = g.clone();
        let mut nudge = |d: &Detector, i: u32| {
            let delta = GraphDelta::default().set_self_risk(NodeId(39), 0.05 * f64::from(i + 1));
            delta.apply(&mut post).unwrap();
            d.apply_delta(&delta).unwrap()
        };
        for i in 0..MAX_UNREAD_REPAIRS {
            assert_eq!(nudge(&d, i).repaired, 1, "unread repair {i}");
        }
        let idle = nudge(&d, MAX_UNREAD_REPAIRS);
        assert_eq!((idle.repaired, idle.invalidated), (0, 1), "an idle stream must be dropped");

        let w = d.detect(&req).unwrap();
        assert_eq!(w.engine.samples_drawn, 2_000, "the dropped stream is redrawn");
        // A read makes the stream live again: the next delta repairs it.
        assert_eq!(nudge(&d, 0).repaired, 1);
        let (w, c) = (d.detect(&req).unwrap(), build(&post).detect(&req).unwrap());
        assert_eq!(w.top_k, c.top_k);
        assert_eq!(w.engine.samples_drawn, 0);
    }

    /// Every self-risk and edge probability of `g`, as bits.
    fn probability_bits(g: &UncertainGraph) -> Vec<u64> {
        let risks = g.nodes().map(|v| g.self_risk(v).to_bits());
        risks.chain(g.edges().map(|e| g.edge_prob(e).to_bits())).collect()
    }

    /// The requests that warm a session's SN, SR and BSR streams and its
    /// bounds.
    fn warming_requests() -> Vec<DetectRequest> {
        [AlgorithmKind::SampledNaive, AlgorithmKind::SampleReverse, AlgorithmKind::BottomK]
            .into_iter()
            .chain([AlgorithmKind::BoundedSampleReverse])
            .map(|kind| DetectRequest::new(4, kind))
            .collect()
    }

    /// Answers `req` on a pinned epoch, live or retired.
    fn detect_on(d: &Detector, epoch: &Epoch, req: &DetectRequest) -> DetectResponse {
        let resolved = req.resolve(&epoch.graph, d.config()).unwrap();
        algorithms::run(&mut d.ctx_for(epoch, &resolved), &resolved).unwrap()
    }

    #[test]
    fn invalid_delta_is_rejected_without_side_effects() {
        let g = random_graph(40, 80, 6);
        let d = session(&g);
        let requests = warming_requests();
        let before: Vec<DetectResponse> = requests.iter().map(|r| d.detect(r).unwrap()).collect();
        let (ptr, version) = (Arc::as_ptr(&d.graph()), d.graph().version());
        for bad in [
            GraphDelta::default().set_edge_prob(EdgeId(0), 0.2).set_self_risk(NodeId(999), 0.5),
            GraphDelta::default().set_self_risk(NodeId(1), 0.2).set_edge_prob(EdgeId(9_999), 0.5),
            GraphDelta::default().set_self_risk(NodeId(1), 0.2).set_self_risk(NodeId(2), 1.5),
        ] {
            assert!(d.apply_delta(&bad).is_err(), "{bad:?}");
        }
        let stats = d.session_stats();
        assert_eq!((d.epoch(), stats.graph_version, stats.deltas_applied), (0, version, 0));
        assert_eq!(Arc::as_ptr(&d.graph()), ptr, "a rejected delta moved the graph");
        assert_eq!(probability_bits(&d.graph()), probability_bits(&g));
        for (req, before) in requests.iter().zip(&before) {
            let after = d.detect(req).unwrap();
            assert_eq!(before.top_k, after.top_k, "{req:?}");
            assert_eq!(after.engine.samples_drawn, 0, "caches must be untouched");
        }
    }

    #[test]
    fn an_unpinned_warm_session_commits_on_one_graph_allocation() {
        let g = random_graph(80, 160, 43);
        let d = session(&g);
        let requests = warming_requests();
        for req in &requests {
            d.detect(req).unwrap();
        }
        let graph_ptr = Arc::as_ptr(&d.graph());
        let lower_ptr = d.warm_bounds().0.as_ptr();
        let mut post = g.clone();
        for i in 0..3u32 {
            let delta = GraphDelta::default()
                .set_self_risk(NodeId(3 + i), 0.3 + 0.05 * f64::from(i))
                .set_edge_prob(EdgeId(5 * i), 0.44);
            d.apply_delta(&delta).unwrap();
            delta.apply(&mut post).unwrap();
            assert_eq!(Arc::as_ptr(&d.graph()), graph_ptr, "epoch {} copied the graph", d.epoch());
            assert_eq!(d.warm_bounds().0.as_ptr(), lower_ptr, "epoch {} reallocated", d.epoch());
            assert_eq!(probability_bits(&d.graph()), probability_bits(&post));
            let cold = session(&post);
            for req in &requests {
                let (w, c) = (d.detect(req).unwrap(), cold.detect(req).unwrap());
                let bits = |r: &DetectResponse| -> Vec<(u32, u64)> {
                    r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect()
                };
                assert_eq!(bits(&w), bits(&c), "{req:?} at epoch {}", d.epoch());
                assert_eq!(w.stats.samples_used, c.stats.samples_used, "{req:?}");
            }
        }
    }

    #[test]
    fn a_handle_held_across_a_commit_keeps_its_values_and_costs_one_copy() {
        let g = random_graph(80, 160, 47);
        let requests = warming_requests();
        let delta =
            GraphDelta::default().set_self_risk(NodeId(2), 0.47).set_edge_prob(EdgeId(7), 0.39);
        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        let (cold_pre, cold_post) = (session(&g), session(&post));
        for pin in [true, false] {
            let d = session(&g);
            for req in &requests {
                d.detect(req).unwrap();
            }
            let (epoch, graph) = (pin.then(|| d.state.pin()), (!pin).then(|| d.graph()));
            let held = graph.clone().unwrap_or_else(|| Arc::clone(&epoch.as_ref().unwrap().graph));
            d.apply_delta(&delta).unwrap();
            // The held snapshot is the pre-delta allocation, unchanged;
            // the live one is its one copy, patched.
            let live = d.graph();
            assert!(!Arc::ptr_eq(&held, &live), "pin {pin}: the commit patched a held graph");
            assert_eq!(probability_bits(&held), probability_bits(&g), "pin {pin}");
            assert_eq!(probability_bits(&live), probability_bits(&post), "pin {pin}");
            if let Some(epoch) = &epoch {
                for req in &requests {
                    let r = detect_on(&d, epoch, req);
                    assert_eq!(r.top_k, cold_pre.detect(req).unwrap().top_k, "{req:?}");
                }
            }
            for req in &requests {
                assert_eq!(d.detect(req).unwrap().top_k, cold_post.detect(req).unwrap().top_k);
            }
            // With every handle dropped, the next commit copies nothing.
            let copy = Arc::as_ptr(&live);
            drop((epoch, graph, held, live));
            let undo = GraphDelta::default().set_self_risk(NodeId(2), g.self_risk(NodeId(2)));
            d.apply_delta(&undo).unwrap();
            assert_eq!(Arc::as_ptr(&d.graph()), copy, "pin {pin}: a second copy");
        }
    }

    #[test]
    fn an_armed_patch_dropped_on_unwind_puts_the_retiring_graph_back() {
        let g = random_graph(40, 80, 53);
        let d = session(&g);
        let req = DetectRequest::new(3, AlgorithmKind::SampledNaive);
        let before = d.detect(&req).unwrap();
        let delta = GraphDelta::default()
            .set_self_risk(NodeId(3), 0.9)
            .set_edge_prob(EdgeId(4), 0.8)
            .set_self_risk(NodeId(3), 0.7);
        let (ptr, version) = (Arc::as_ptr(&d.graph()), d.graph().version());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut live = lock_tracked(&d.state.live);
            let retiring = Arc::get_mut(&mut live.epoch).expect("no query pins the epoch");
            let patch = Patch::apply(&mut retiring.graph, &delta).unwrap();
            assert_eq!(patch.graph().self_risk(NodeId(3)), 0.7);
            assert!(std::ptr::eq(patch.graph(), ptr), "the patch copied an unshared graph");
            panic!("a commit unwinds with its patch armed");
        }));
        assert!(unwound.is_err());
        // The graph is back in the retiring (still live) epoch, bit for
        // bit, version included, and the session answers as before.
        let live = d.state.pin();
        assert_eq!((Arc::as_ptr(&live.graph), live.graph.version()), (ptr, version));
        assert_eq!(probability_bits(&live.graph), probability_bits(&g));
        assert_eq!(live.number, 0);
        let after = d.detect(&req).unwrap();
        assert_eq!(after.top_k, before.top_k);
        assert_eq!(after.engine.samples_drawn, 0, "the stream outlived the unwound patch");
        // A commit after it lands on the restored graph.
        drop(live);
        d.apply_delta(&delta).unwrap();
        let mut post = g.clone();
        delta.apply(&mut post).unwrap();
        assert_eq!(d.detect(&req).unwrap().top_k, session(&post).detect(&req).unwrap().top_k);
    }

    #[test]
    fn pinned_snapshots_survive_later_epochs() {
        let g = random_graph(30, 60, 8);
        let d = session(&g);
        let pre = d.graph();
        let stats = d.session_stats();
        assert_eq!((stats.epoch, stats.graph_version), (0, pre.version()));

        d.apply_delta(&GraphDelta::default().set_self_risk(NodeId(0), 0.9)).unwrap();
        let post = d.graph();
        assert!(!Arc::ptr_eq(&pre, &post), "a committed delta must publish a new snapshot");
        assert_eq!(pre.self_risk(NodeId(0)), g.self_risk(NodeId(0)));
        assert_eq!(post.self_risk(NodeId(0)), 0.9);
        let stats = d.session_stats();
        assert_eq!((stats.epoch, stats.graph_version), (1, post.version()));
    }

    #[test]
    fn a_session_on_the_post_delta_snapshot_matches_a_fresh_graph() {
        // The snapshot a live session exposes after `apply_delta` is the
        // same input as a from-scratch graph with the delta applied: a
        // new session on either answers bit for bit alike.
        let base = random_graph(40, 80, 12);
        let delta =
            GraphDelta::default().set_self_risk(NodeId(2), 0.55).set_edge_prob(EdgeId(1), 0.35);
        let live = session(&base);
        // Warm the session first, so the delta revalidates its caches
        // rather than swapping a cold graph.
        live.detect(&DetectRequest::new(2, AlgorithmKind::SampledNaive)).unwrap();
        live.apply_delta(&delta).unwrap();
        let mut fresh = base;
        delta.apply(&mut fresh).unwrap();
        let bits = |r: &DetectResponse| -> Vec<(u32, u64)> {
            r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect()
        };
        // The new session shares the live snapshot's `Arc`, uncopied.
        let updated =
            Detector::builder(live.graph()).config(VulnConfig::default().with_seed(77)).build();
        let (updated, cold) = (updated.unwrap(), session(&fresh));
        assert!(Arc::ptr_eq(&updated.graph(), &live.graph()));
        for kind in AlgorithmKind::ALL {
            let req = DetectRequest::new(3, kind);
            let (a, b) = (updated.detect(&req).unwrap(), cold.detect(&req).unwrap());
            assert_eq!(bits(&a), bits(&b), "{kind}");
            assert_eq!(a.stats.samples_used, b.stats.samples_used, "{kind}");
            assert_eq!(a.achieved_epsilon.to_bits(), b.achieved_epsilon.to_bits(), "{kind}");
        }
    }

    type BsrbkCase = (UncertainGraph, DetectRequest);

    /// BSRBK requests over small random graphs, split by outcome: those
    /// whose sequential stop certifies ε at a look below BSR's budget,
    /// and those that run to the budget.
    fn bsrbk_cases() -> (Vec<BsrbkCase>, Vec<BsrbkCase>) {
        let (mut early, mut at_cap) = (Vec::new(), Vec::new());
        for seed in 0..6 {
            let g = random_graph(80, 120, seed);
            for k in [1, 3, 6] {
                for epsilon in [0.3, 0.1, 0.05] {
                    let req = DetectRequest::new(k, AlgorithmKind::BottomK).with_epsilon(epsilon);
                    let r = session(&g).detect(&req).unwrap();
                    if r.stats.sample_budget == 0 {
                        continue;
                    }
                    let bucket = if r.stats.early_stopped { &mut early } else { &mut at_cap };
                    bucket.push((g.clone(), req));
                }
            }
        }
        assert!(
            early.len() >= 3 && at_cap.len() >= 3,
            "{} early, {} at cap",
            early.len(),
            at_cap.len()
        );
        (early, at_cap)
    }

    fn as_bsr(req: &DetectRequest) -> DetectRequest {
        let mut bsr = req.clone();
        bsr.algorithm = AlgorithmKind::BoundedSampleReverse;
        bsr
    }

    #[test]
    fn bsrbk_after_bsr_reads_the_cached_stream_without_drawing() {
        let (early, at_cap) = bsrbk_cases();
        for (g, req) in early.iter().chain(&at_cap) {
            let d = session(g);
            let bsr = d.detect(&as_bsr(req)).unwrap();
            let drawn = d.session_stats().samples_drawn;
            let warm = d.detect(req).unwrap();
            assert_eq!(warm.engine.samples_drawn, 0, "{:?}", warm.stats);
            assert_eq!(warm.engine.coin_words_synthesized, 0);
            assert_eq!(d.session_stats().samples_drawn, drawn);
            assert_eq!(warm.engine.samples_reused, warm.stats.samples_used);
            assert_eq!(warm.stats.sample_budget, bsr.stats.sample_budget, "BSRBK's cap is BSR's t");
            assert!(warm.stats.samples_used <= warm.stats.sample_budget);
            let cold = session(g).detect(req).unwrap();
            assert_eq!(cold.top_k, warm.top_k);
            assert_eq!(cold.stats.samples_used, warm.stats.samples_used);
        }
    }

    #[test]
    fn bsrbk_at_the_cap_returns_bsrs_answer_bit_for_bit() {
        let (_, at_cap) = bsrbk_cases();
        for (g, req) in &at_cap {
            let bk = session(g).detect(req).unwrap();
            let bsr = session(g).detect(&as_bsr(req)).unwrap();
            assert!(!bk.stats.early_stopped && !bk.degraded);
            assert_eq!(bk.stats.samples_used, bsr.stats.sample_budget);
            let bits = |r: &DetectResponse| -> Vec<(u32, u64)> {
                r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect()
            };
            assert_eq!(bits(&bk), bits(&bsr));
            // δ/2 goes to the looks, δ/2 to Eq. 4's pair bound at t.
            let resolved = req.resolve(g, session(g).config()).unwrap();
            let a = (req.k - bk.stats.verified) as u64;
            let b = bk.stats.candidates as u64 - a;
            let half = achieved_epsilon(a, b, resolved.approx.delta() / 2.0, bk.stats.samples_used);
            assert!(bk.achieved_epsilon <= half && bk.achieved_epsilon > 0.0);
        }
    }

    #[test]
    fn bsrbk_early_stop_ranks_the_reverse_counts_of_its_stop_look() {
        let (early, _) = bsrbk_cases();
        for (g, req) in &early {
            let d = session(g);
            let bk = d.detect(req).unwrap();
            let used = bk.stats.samples_used;
            assert!(bk.stats.early_stopped && !bk.degraded && used < bk.stats.sample_budget);
            assert!(cache::looks_below(bk.stats.sample_budget).any(|look| look == used));
            assert_eq!(bk.achieved_epsilon, req.epsilon.unwrap());
            let epoch = d.state.pin();
            let mut ctx = d.ctx(&epoch);
            let resolved = req.resolve(&epoch.graph, d.config()).unwrap();
            let plan = algorithms::reverse_plan(&mut ctx, &resolved);
            let counts = ctx.reverse_counts(&plan.candidates, used, resolved.seed);
            let mut expected: Vec<(u64, u32)> =
                plan.candidates.iter().enumerate().map(|(i, v)| (counts.count(i), v.0)).collect();
            expected.sort_unstable_by_key(|&(c, v)| (std::cmp::Reverse(c), v));
            let got: Vec<(u32, f64)> =
                bk.top_k[plan.k_verified..].iter().map(|s| (s.node.0, s.score)).collect();
            let want: Vec<(u32, f64)> =
                expected[..plan.k_rem].iter().map(|&(c, v)| (v, c as f64 / used as f64)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bsrbk_stop_look_is_identical_across_threads_widths_and_caches() {
        let (early, at_cap) = bsrbk_cases();
        let mut widths = std::collections::BTreeSet::new();
        for (g, req) in early.iter().chain(&at_cap) {
            let reference = session(g).detect(req).unwrap();
            let same = |r: &DetectResponse, what: &str| {
                assert_eq!(r.stats.samples_used, reference.stats.samples_used, "{what}");
                assert_eq!(r.stats.early_stopped, reference.stats.early_stopped, "{what}");
                assert_eq!(r.top_k, reference.top_k, "{what}");
                assert_eq!(r.achieved_epsilon.to_bits(), reference.achieved_epsilon.to_bits());
            };
            for threads in [1, 2, 8] {
                let d = Detector::builder(g)
                    .config(VulnConfig::default().with_seed(77))
                    .threads(threads)
                    .build()
                    .unwrap();
                let r = d.detect(req).unwrap();
                same(&r, &format!("threads {threads}"));
                widths.insert(r.engine.block_words);
            }
            // Warm: after BSR drew the whole stream, after a tighter-ε
            // BSRBK drew a longer one, and on a repeat.
            let warm = session(g);
            warm.detect(&as_bsr(req)).unwrap();
            same(&warm.detect(req).unwrap(), "after BSR");
            let tighter = session(g);
            tighter.detect(&req.clone().with_epsilon(req.epsilon.unwrap() / 2.0)).unwrap();
            same(&tighter.detect(req).unwrap(), "after a tighter BSRBK");
            same(&tighter.detect(req).unwrap(), "repeat");
        }
        // The planner reads the session's thread count.
        assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");
    }

    #[test]
    fn a_draw_ahead_hint_changes_what_is_drawn_not_what_is_read() {
        let g = random_graph(60, 120, 21);
        let candidates: Vec<NodeId> = (0..10).map(NodeId).collect();
        let d = session(&g);
        let epoch = d.state.pin();
        let mut ctx = d.ctx(&epoch);
        let mut seen = Vec::new();
        let read = ctx.reverse_counts_until(&candidates, &[64, 128, 256, 300], 5, |c| {
            seen.push(c.samples());
            (c.samples() < 128).then_some(u64::MAX)
        });
        assert_eq!(seen, vec![64, 128], "every look up to the accepted one is read, in order");
        assert_eq!(read.samples(), 128);
        assert_eq!(ctx.request.samples_drawn, 300, "the hint drew to the last look");
        let fresh = session(&g);
        let plain = fresh.ctx(&fresh.state.pin()).reverse_counts(&candidates, 128, 5);
        assert_eq!(*read, *plain);
    }
}
