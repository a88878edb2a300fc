//! Memo cells for an epoch's bounds and candidate reductions, and the
//! session's prefix-extendable sample counts — all safe to reach from
//! many query threads at once.
//!
//! # Concurrency model
//!
//! Since 0.4 the [`Detector`](super::Detector) answers queries through
//! `&self`, so every cache in this module is an interior-mutability cell
//! designed for **single-flight** builds: when several queries miss on
//! the same key at the same moment, exactly one of them computes the
//! value while the others block on the same slot and then share the
//! one `Arc` — never two redundant builds, never a torn read. The lock
//! held across the build is the whole protocol: a query that blocked on
//! it reads the value as a plain hit.
//!
//! * [`FlightMap`] — a keyed memo map (one epoch's bounds, or its
//!   candidate reductions) whose per-key slot mutex is held across the
//!   build.
//! * [`StreamMap`] — per-sample-stream [`SampleCache`] cells. The
//!   stream's mutex is held across a draw, which *is* the single-flight
//!   property: a second query that wanted the same prefix blocks, then
//!   finds the snapshot and draws nothing.
//!
//! Lock ordering: a map-level mutex is only ever held to clone a slot
//! `Arc` out (never across a build), and slot/stream locks are never
//! nested — so the engine cannot deadlock no matter how queries
//! interleave. Poisoned locks are recovered (`Mutex::into_inner`
//! semantics): every cached value is inserted atomically after its
//! build completes, so a panicking query can never publish a torn
//! snapshot to the survivors.
//!
//! # The sample cache
//!
//! The sample cache exploits the samplers' per-sample RNG streams
//! (sample `i` is always drawn from the stream derived from `(seed, i)`):
//! cumulative counts over ids `0..t` are a *prefix sum* in `t`, so a
//! snapshot at `t0 < t` extends to `t` by drawing only ids `t0..t` — the
//! result is bit-identical to a cold run of `0..t`, which is what lets a
//! warm session serve exact answers while drawing strictly fewer fresh
//! samples.
//!
//! Snapshots are kept in **superblock granularity**: the samplers
//! evaluate `W · 64` worlds per [`SuperBlock`](vulnds_sampling::SuperBlock)
//! at the width the engine planned for the stream, so in addition to
//! the exact budget `t` the cache snapshots the largest
//! superblock-aligned prefix below it (the caller passes the alignment,
//! a multiple of 64). Future extensions then start at a superblock
//! boundary and re-materialize at most the one partial superblock a
//! non-aligned budget left open, instead of re-entering one mid-way on
//! every extension. Extensions that resume at a *narrower* width's
//! boundary still merge exactly — partial superblocks mask the home
//! blocks they do not cover.
//!
//! Reverse streams additionally snapshot every *look* of BSRBK's
//! schedule ([`looks_below`]) that a draw crosses — in the same pass,
//! split at those keys — and never evict them, so BSRBK reads a stream
//! any reverse query drew as a sequence of cache hits.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vulnds_sampling::{DefaultCounts, TouchLedger};

/// Cap on stored snapshots per stream: a session sweeping many distinct
/// budgets would otherwise accumulate one O(slots) counts vector per
/// budget forever. When full, the smallest prefix is evicted — it is the
/// cheapest to re-draw, and the largest snapshot (which every future
/// extension builds on) is always among the survivors.
const MAX_SNAPSHOTS: usize = 8;

/// The first look of BSRBK's sequential schedule: one home block.
const FIRST_LOOK: u64 = 64;

/// The looks of BSRBK's sequential schedule strictly below a budget
/// `t`: 64, 128, 256, … — every look a power-of-two number of home
/// blocks, so the schedule depends on `t` alone, never on the width or
/// thread count a pass runs at. BSRBK reads the reverse stream at each
/// of them and then at `t` itself.
pub(crate) fn looks_below(t: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(FIRST_LOOK), |&look| look.checked_mul(2))
        .take_while(move |&look| look < t)
}

/// Whether `t` is a look of the schedule ([`looks_below`]).
fn is_look(t: u64) -> bool {
    t % FIRST_LOOK == 0 && (t / FIRST_LOOK).is_power_of_two()
}

/// Cap on distinct sample streams a session keeps (per direction). A
/// service exposed to untrusted per-request seeds or candidate hints
/// would otherwise grow one O(slots)-snapshot cell per distinct key
/// forever. When full, an arbitrary other stream is evicted: every
/// cached value here is rebuildable, so eviction costs a redraw, never
/// correctness — answers are pure functions of `(seed, range)`.
const MAX_STREAMS: usize = 64;

/// Cap on distinct single-flight memo slots (candidate reductions are
/// keyed by `k`, which untrusted requests choose). Same rebuildable
/// rationale as [`MAX_STREAMS`].
const MAX_SLOTS: usize = 256;

/// Locks a mutex, recovering from poison (see the module docs). Every
/// engine lock goes through here, which is what the lock-nesting lint
/// audits.
pub(crate) fn lock_tracked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a [`FlightMap`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flight {
    /// The value was already built — possibly while this caller waited
    /// on the slot for the build to finish.
    Hit,
    /// This caller computed the value.
    Built,
}

/// One single-flight slot: the value, whose mutex a build holds and
/// every other caller of the key blocks on.
type Slot<V> = Mutex<Option<Arc<V>>>;

/// A keyed memo map with single-flight builds: concurrent misses on the
/// same key build once; everyone else blocks on the same slot and
/// shares the one `Arc`.
pub(crate) struct FlightMap<K, V> {
    slots: Mutex<BTreeMap<K, Arc<Slot<V>>>>,
}

impl<K, V> Default for FlightMap<K, V> {
    fn default() -> Self {
        FlightMap { slots: Mutex::new(BTreeMap::new()) }
    }
}

impl<K, V> std::fmt::Debug for FlightMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = lock_tracked(&self.slots).len();
        f.debug_struct("FlightMap").field("slots", &len).finish()
    }
}

impl<K: Ord + Clone, V> FlightMap<K, V> {
    fn slot(&self, key: &K) -> Arc<Slot<V>> {
        let mut slots = lock_tracked(&self.slots);
        if !slots.contains_key(key) && slots.len() >= MAX_SLOTS {
            evict_one(&mut slots, key);
        }
        slots.entry(key.clone()).or_default().clone()
    }

    /// Non-building probe: the cached value (waiting out an in-flight
    /// build of it), or `None` if the key has never finished building.
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let slot = {
            let slots = lock_tracked(&self.slots);
            slots.get(key)?.clone()
        };
        let value = lock_tracked(&slot);
        value.clone()
    }

    /// Returns the value for `key`, running `build` if (and only if) no
    /// other caller has built or is building it.
    pub(crate) fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> (Arc<V>, Flight) {
        let slot = self.slot(key);
        let mut value = lock_tracked(&slot);
        if let Some(v) = &*value {
            return (v.clone(), Flight::Hit);
        }
        let v = Arc::new(build());
        *value = Some(v.clone());
        (v, Flight::Built)
    }

    /// Takes the value built for `key` out of the map when nothing else
    /// shares it — how a delta commit moves the unpinned retiring
    /// epoch's bound vectors into the next epoch instead of allocating.
    pub(crate) fn take(&mut self, key: &K) -> Option<V> {
        let slots = self.slots.get_mut().unwrap_or_else(PoisonError::into_inner);
        let slot = Arc::try_unwrap(slots.remove(key)?).ok()?;
        let value = slot.into_inner().unwrap_or_else(PoisonError::into_inner)?;
        Arc::try_unwrap(value).ok()
    }

    /// Stores `value` for `key` outright — how a delta commit seeds the
    /// next epoch's bounds with its repaired vectors before any query
    /// can see the map.
    pub(crate) fn insert(&self, key: &K, value: V) {
        *lock_tracked(&self.slot(key)) = Some(Arc::new(value));
    }
}

/// Evicts an arbitrary entry other than `keep` from a full map (the
/// cardinality backstop for untrusted key diversity — see
/// [`MAX_STREAMS`]/[`MAX_SLOTS`]).
fn evict_one<K: Ord + Clone, V>(map: &mut BTreeMap<K, V>, keep: &K) {
    if let Some(victim) = map.keys().find(|k| *k != keep).cloned() {
        map.remove(&victim);
    }
}

/// One sample stream: the prefix-extendable cache, whose mutex a draw
/// holds, and the stream's touch ledger.
#[derive(Debug, Default)]
pub(crate) struct StreamCell {
    pub(crate) cache: Mutex<SampleCache>,
    /// Union of the node and edge coins every draw (and delta repair)
    /// into this cell ever materialized — the survival witness for
    /// delta-aware revalidation: counts are independent of every
    /// unmarked item's coin, so a delta that only touches unmarked items
    /// leaves the cached prefix bit-identical to a cold post-delta draw.
    ledger: OnceLock<TouchLedger>,
}

impl StreamCell {
    /// The cell's touch ledger, created on first draw.
    pub(crate) fn ledger(&self, num_nodes: usize, num_edges: usize) -> &TouchLedger {
        self.ledger.get_or_init(|| TouchLedger::new(num_nodes, num_edges))
    }

    /// True if any dirty node or dirty edge was ever materialized by a
    /// draw into this cell (a never-drawn cell intersects nothing).
    pub(crate) fn ledger_intersects(&self, nodes: &[u32], edges: &[u32]) -> bool {
        self.ledger.get().is_some_and(|ledger| ledger.intersects(nodes, edges))
    }
}

/// Per-stream [`StreamCell`]s (one per seed, or per
/// `(seed, candidate-set)` for reverse sampling). The cell mutex is held
/// across a draw, which gives sample streams their single-flight
/// property for free.
pub(crate) struct StreamMap<K> {
    streams: Mutex<BTreeMap<K, Arc<StreamCell>>>,
}

impl<K> Default for StreamMap<K> {
    fn default() -> Self {
        StreamMap { streams: Mutex::new(BTreeMap::new()) }
    }
}

impl<K> std::fmt::Debug for StreamMap<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = lock_tracked(&self.streams).len();
        f.debug_struct("StreamMap").field("streams", &len).finish()
    }
}

impl<K: Ord + Clone> StreamMap<K> {
    /// The stream's cache cell, created cold on first access.
    pub(crate) fn stream(&self, key: K) -> Arc<StreamCell> {
        let mut streams = lock_tracked(&self.streams);
        if !streams.contains_key(&key) && streams.len() >= MAX_STREAMS {
            evict_one(&mut streams, &key);
        }
        streams.entry(key).or_default().clone()
    }

    /// Forgets every stream. Queries mid-draw keep their detached cell
    /// (and their snapshots stay valid); future queries start cold.
    pub(crate) fn clear(&self) {
        lock_tracked(&self.streams).clear();
    }

    /// Applies an epoch-revalidation verdict to every cached stream:
    /// cells for which `keep` returns `false` are removed (a query
    /// mid-draw keeps its detached cell and finishes on its pinned
    /// snapshot). `keep` typically locks the cell, which waits out any
    /// in-flight draw — so the ledger it inspects is complete.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&K, &StreamCell) -> bool) {
        lock_tracked(&self.streams).retain(|key, cell| keep(key, cell));
    }
}

/// Prefix-extendable cache of cumulative sample counts for one stream
/// (one seed and, for reverse sampling, one candidate set).
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleCache {
    /// `t →` cumulative counts over sample ids `0..t`. Shared out as
    /// `Arc` so exact cache hits are O(1) instead of an O(slots) copy.
    snapshots: BTreeMap<u64, Arc<DefaultCounts>>,
    /// Probability version of the graph the snapshots are valid for:
    /// stamped on first draw, re-stamped when an epoch's revalidation
    /// proves the cached prefix survives a delta. `None` until the
    /// first serve. A query whose pinned snapshot has a different
    /// version must not touch the snapshots (see
    /// `EngineCtx::stream_counts`).
    pub(crate) graph_version: Option<u64>,
    /// Delta repairs since a query last read the snapshots — the
    /// idleness signal that stops repairs of a stream nobody reads.
    pub(crate) unread_repairs: u32,
}

impl SampleCache {
    /// Returns cumulative counts over sample ids `0..t`, drawing as few
    /// fresh samples as possible. `align` is the snapshot alignment —
    /// the stream's worlds-per-superblock (`W · 64`), a positive
    /// multiple of 64. With `looks`, every look of BSRBK's schedule
    /// ([`looks_below`]) the drawn gap crosses is snapshotted too, and
    /// such snapshots are never evicted. `draw(start, ends)` materializes
    /// the gap `start..ends.last()` in one pass and returns the counts of
    /// each segment between consecutive `ends` (from `start`). Returns
    /// `(counts, drawn, reused)` where `drawn + reused == t` for a
    /// complete serve.
    ///
    /// A draw may come back **short** (fewer samples than its range)
    /// when a cancellation token cut the pass at a chunk boundary. The
    /// segments before the cut are exact, and the truncated prefix is
    /// still an exact cumulative count, so it is snapshotted at the
    /// point actually reached — a retry of the same request resumes from
    /// there instead of restarting — and returned as-is with `drawn`
    /// reflecting what was really drawn.
    pub(crate) fn serve(
        &mut self,
        t: u64,
        align: u64,
        looks: bool,
        draw: impl FnOnce(u64, &[u64]) -> Vec<DefaultCounts>,
    ) -> (Arc<DefaultCounts>, u64, u64) {
        debug_assert!(align >= 64 && align % 64 == 0, "alignment must be a superblock span");
        if let Some(hit) = self.snapshots.get(&t) {
            return (hit.clone(), 0, t);
        }
        let floor = self.snapshots.range(..t).next_back().map(|(&t0, c)| (t0, c.clone()));
        let t0 = floor.as_ref().map_or(0, |&(t0, _)| t0);
        // Inner snapshot keys: the looks the gap crosses, and the largest
        // superblock-aligned prefix strictly inside it, so later
        // extensions resume on a superblock boundary (see the module
        // docs).
        let mut ends: Vec<u64> =
            if looks { looks_below(t).filter(|&l| l > t0).collect() } else { Vec::new() };
        let t_align = t / align * align;
        if t_align > t0 && t_align < t {
            ends.push(t_align);
        }
        ends.sort_unstable();
        ends.dedup();
        ends.push(t);

        let segments = draw(t0, &ends);
        let mut acc = floor.map(|(_, base)| (*base).clone());
        let (mut from, mut reached) = (t0, t0);
        for (&end, segment) in ends.iter().zip(segments) {
            let complete = segment.samples() == end - from;
            reached += segment.samples();
            match acc.as_mut() {
                Some(acc) => acc.merge(&segment),
                None => acc = Some(segment),
            }
            if !complete {
                break;
            }
            if let Some(acc) = acc.as_ref().filter(|_| end < t) {
                self.snapshots.insert(end, Arc::new(acc.clone()));
            }
            from = end;
        }
        // xlint: allow(panic-hygiene) — `ends` is never empty (it ends
        // with `t`) and the draw returns one segment per end.
        let counts = Arc::new(acc.expect("the draw returns a segment per end"));
        // `reached < t` only under cancellation; `reached == t0` means
        // not one chunk completed — nothing new to snapshot.
        if reached > t0 {
            self.snapshots.insert(reached, counts.clone());
        }
        while self.snapshots.len() > MAX_SNAPSHOTS {
            // Evict the smallest prefix other than what this call just
            // produced and the looks — it is the cheapest to re-draw.
            let evictable = |s: u64| s != reached && !(looks && is_look(s));
            match self.snapshots.keys().copied().find(|&s| evictable(s)) {
                Some(victim) => self.snapshots.remove(&victim),
                None => break,
            };
        }
        (counts, reached - t0, t0)
    }

    /// Delta repair: recounts only `slots` in every snapshot and keeps
    /// every other slot's count. `recount` is handed the snapshot keys
    /// in ascending order and returns, in one pass over `0..t_max`, the
    /// counts of exactly `slots` (in order) over each segment between
    /// consecutive keys; their running sums are the repaired prefixes.
    /// Each snapshot is patched through [`Arc::make_mut`]: in place when
    /// the cache is its only holder, on a copy when an in-flight query
    /// of the old epoch still holds it (that query keeps reading the
    /// counts it was served).
    pub(crate) fn repair(
        &mut self,
        slots: &[usize],
        recount: impl FnOnce(&[u64]) -> Vec<DefaultCounts>,
    ) {
        if slots.is_empty() {
            return;
        }
        let keys: Vec<u64> = self.snapshots.keys().copied().collect();
        let segments = recount(&keys);
        assert_eq!(segments.len(), keys.len(), "one segment per snapshot");
        let mut prefix = DefaultCounts::new(slots.len());
        for (snapshot, segment) in self.snapshots.values_mut().zip(&segments) {
            prefix.merge(segment);
            Arc::make_mut(snapshot).overwrite(slots, &prefix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn flight_map_builds_once_and_hits_after() {
        let map: FlightMap<u32, u64> = FlightMap::default();
        assert!(map.get(&7).is_none());
        let (v, flight) = map.get_or_build(&7, || 42);
        assert_eq!((*v, flight), (42, Flight::Built));
        let (v, flight) = map.get_or_build(&7, || panic!("must not rebuild"));
        assert_eq!((*v, flight), (42, Flight::Hit));
        let v = map.get(&7).expect("built key probes as present");
        assert_eq!(*v, 42);
        // A seeded key (the next epoch's repaired bounds) hits, never builds.
        map.insert(&8, 5);
        let (v, flight) = map.get_or_build(&8, || panic!("a seeded key must not build"));
        assert_eq!((*v, flight), (5, Flight::Hit));
    }

    #[test]
    fn flight_map_dedups_concurrent_builds() {
        use std::sync::atomic::AtomicU64;
        let map: FlightMap<u32, u64> = FlightMap::default();
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (v, flight) = map.get_or_build(&1, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the build window so late arrivals
                            // reliably join the flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            99u64
                        });
                        (*v, flight)
                    })
                })
                .collect();
            let results: Vec<(u64, Flight)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(results.iter().all(|&(v, _)| v == 99));
            assert_eq!(
                results.iter().filter(|&&(_, f)| f == Flight::Built).count(),
                1,
                "exactly one thread may build"
            );
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "the build closure ran more than once");
    }

    #[test]
    fn stream_map_shares_cells_and_clears_cold() {
        let map: StreamMap<u64> = StreamMap::default();
        let a = map.stream(5);
        let b = map.stream(5);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one cell");
        let other = map.stream(6);
        assert!(!Arc::ptr_eq(&a, &other));
        lock_tracked(&a.cache).serve(10, 64, false, draw);
        map.clear();
        let fresh = map.stream(5);
        assert!(!Arc::ptr_eq(&a, &fresh), "clear() must detach old cells");
        let (_, drawn, reused) = lock_tracked(&fresh.cache).serve(10, 64, false, draw);
        assert_eq!((drawn, reused), (10, 0), "post-clear stream must start cold");
        // The detached cell still works for whoever holds it.
        let (_, drawn, reused) = lock_tracked(&a.cache).serve(10, 64, false, draw);
        assert_eq!((drawn, reused), (0, 10));
    }

    #[test]
    fn cache_cardinality_is_bounded_against_key_diversity() {
        // Hostile seed sweep: the stream map never exceeds its cap, and
        // the requested key always gets a live cell.
        let map: StreamMap<u64> = StreamMap::default();
        for seed in 0..(MAX_STREAMS as u64 * 4) {
            let cell = map.stream(seed);
            lock_tracked(&cell.cache).serve(10, 64, false, draw);
        }
        let len = lock_tracked(&map.streams).len();
        assert!(len <= MAX_STREAMS, "stream map grew to {len}");
        // Same for single-flight slots under a k sweep.
        let slots: FlightMap<u64, u64> = FlightMap::default();
        for k in 0..(MAX_SLOTS as u64 * 2) {
            let (v, _) = slots.get_or_build(&k, || k);
            assert_eq!(*v, k);
        }
        let len = lock_tracked(&slots.slots).len();
        assert!(len <= MAX_SLOTS, "slot map grew to {len}");
        // An evicted key simply rebuilds — values are pure.
        let (v, _) = slots.get_or_build(&0, || 0);
        assert_eq!(*v, 0);
    }

    /// Fake segment draw: counts slot 0 of `slots` once per sample of
    /// each segment `ends[i - 1]..ends[i]` (from `start`), stopping at
    /// absolute sample id `limit` — enough to verify prefix arithmetic.
    fn segments(slots: usize, start: u64, ends: &[u64], limit: u64) -> Vec<DefaultCounts> {
        let mut from = start;
        ends.iter()
            .map(|&end| {
                let mut c = DefaultCounts::new(slots);
                for _ in from.min(limit)..end.min(limit) {
                    c.begin_sample();
                    c.bump(0);
                }
                from = end;
                c
            })
            .collect()
    }

    fn draw(start: u64, ends: &[u64]) -> Vec<DefaultCounts> {
        segments(1, start, ends, u64::MAX)
    }

    #[test]
    fn cold_draws_everything() {
        let mut cache = SampleCache::default();
        let (c, drawn, reused) = cache.serve(10, 64, false, draw);
        assert_eq!((c.samples(), drawn, reused), (10, 10, 0));
    }

    #[test]
    fn exact_hit_draws_nothing() {
        let mut cache = SampleCache::default();
        cache.serve(10, 64, false, draw);
        let (c, drawn, reused) = cache.serve(10, 64, false, draw);
        assert_eq!((c.samples(), drawn, reused), (10, 0, 10));
    }

    #[test]
    fn extends_prefix() {
        let mut cache = SampleCache::default();
        cache.serve(10, 64, false, draw);
        let (c, drawn, reused) = cache.serve(25, 64, false, draw);
        assert_eq!((c.samples(), c.count(0), drawn, reused), (25, 25, 15, 10));
        // The new snapshot serves exact hits too.
        let (_, drawn, reused) = cache.serve(25, 64, false, draw);
        assert_eq!((drawn, reused), (0, 25));
    }

    #[test]
    fn smaller_than_all_snapshots_redraws() {
        let mut cache = SampleCache::default();
        cache.serve(100, 64, false, draw);
        let (c, drawn, reused) = cache.serve(40, 64, false, draw);
        assert_eq!((c.samples(), drawn, reused), (40, 40, 0));
        // The 64-aligned snapshot produced by the 100-serve beats the
        // fresh 40-snapshot as an extension base.
        let (_, drawn, reused) = cache.serve(70, 64, false, draw);
        assert_eq!((drawn, reused), (6, 64));
    }

    #[test]
    fn extensions_resume_on_block_boundaries() {
        let mut cache = SampleCache::default();
        // A non-aligned budget snapshots its aligned prefix too …
        let (c, drawn, reused) = cache.serve(100, 64, false, draw);
        assert_eq!((c.samples(), drawn, reused), (100, 100, 0));
        assert!(cache.snapshots.contains_key(&64), "aligned prefix not snapshotted");
        // … so a smaller follow-up bridges from the block boundary
        // instead of redrawing everything.
        let (c, drawn, reused) = cache.serve(70, 64, false, draw);
        assert_eq!((c.samples(), c.count(0), drawn, reused), (70, 70, 6, 64));
        // Aligned budgets take the single-draw path and add one snapshot.
        let (_, drawn, reused) = cache.serve(128, 64, false, draw);
        assert_eq!((drawn, reused), (28, 100));
        // Tiny budgets below one block never split.
        let mut small = SampleCache::default();
        let (_, drawn, reused) = small.serve(10, 64, false, draw);
        assert_eq!((drawn, reused), (10, 0));
        assert_eq!(small.snapshots.len(), 1);
    }

    #[test]
    fn extensions_resume_on_superblock_boundaries() {
        // A width-8 stream aligns snapshots at 512: a non-aligned budget
        // snapshots its 512-aligned prefix…
        let mut cache = SampleCache::default();
        let (c, drawn, reused) = cache.serve(1000, 512, false, draw);
        assert_eq!((c.samples(), drawn, reused), (1000, 1000, 0));
        assert!(cache.snapshots.contains_key(&512), "superblock prefix not snapshotted");
        // …so a smaller follow-up bridges from the superblock boundary.
        let (c, drawn, reused) = cache.serve(600, 512, false, draw);
        assert_eq!((c.samples(), drawn, reused), (600, 88, 512));
        // A later narrow-width query on the same stream still extends
        // the widest prefix exactly.
        let (c, drawn, reused) = cache.serve(1100, 64, false, draw);
        assert_eq!((c.samples(), c.count(0), drawn, reused), (1100, 1100, 100, 1000));
    }

    /// Fake cancelled draw: like [`draw`] but stops at absolute sample
    /// id `limit`, mimicking a token cutting the pass mid-gap.
    fn draw_until(limit: u64) -> impl FnOnce(u64, &[u64]) -> Vec<DefaultCounts> {
        move |start, ends| segments(1, start, ends, limit)
    }

    #[test]
    fn truncated_first_stage_snapshots_at_reached_and_resumes() {
        let mut cache = SampleCache::default();
        // The aligned first stage (0..64) is cut at 30: no second stage
        // runs, and the 30-sample prefix is cached as-is.
        let (c, drawn, reused) = cache.serve(100, 64, false, draw_until(30));
        assert_eq!((c.samples(), c.count(0), drawn, reused), (30, 30, 30, 0));
        assert!(cache.snapshots.contains_key(&30), "truncated prefix not snapshotted");
        assert!(!cache.snapshots.contains_key(&64), "incomplete stage must not snapshot");
        assert!(!cache.snapshots.contains_key(&100));
        // A retry resumes from the truncated prefix instead of redrawing.
        let (c, drawn, reused) = cache.serve(100, 64, false, draw);
        assert_eq!((c.samples(), c.count(0), drawn, reused), (100, 100, 70, 30));
    }

    #[test]
    fn truncated_second_stage_keeps_the_aligned_snapshot() {
        let mut cache = SampleCache::default();
        // 0..64 completes, 64..100 is cut at 80: both the aligned and
        // the reached prefixes are cached.
        let (c, drawn, reused) = cache.serve(100, 64, false, draw_until(80));
        assert_eq!((c.samples(), drawn, reused), (80, 80, 0));
        assert!(cache.snapshots.contains_key(&64));
        assert!(cache.snapshots.contains_key(&80));
        let (c, drawn, reused) = cache.serve(100, 64, false, draw);
        assert_eq!((c.samples(), drawn, reused), (100, 20, 80));
    }

    #[test]
    fn zero_progress_draw_caches_nothing() {
        let mut cache = SampleCache::default();
        let (c, drawn, reused) = cache.serve(10, 64, false, draw_until(0));
        assert_eq!((c.samples(), drawn, reused), (0, 0, 0));
        assert!(cache.snapshots.is_empty(), "an empty prefix must not be cached");
        // With a warm floor, a zero-progress draw serves the floor.
        cache.serve(10, 64, false, draw);
        let (c, drawn, reused) = cache.serve(25, 64, false, draw_until(0));
        assert_eq!((c.samples(), drawn, reused), (10, 0, 10));
    }

    #[test]
    fn repair_patches_unheld_snapshots_in_place_and_copies_held_ones() {
        // Two slots; the fake recount marks slot 1 in every sample.
        let draw2 = |start, ends: &[u64]| segments(2, start, ends, u64::MAX);
        let mut cache = SampleCache::default();
        cache.serve(100, 64, false, draw2);
        let held = cache.snapshots[&100].clone();
        let unheld = Arc::as_ptr(&cache.snapshots[&64]);
        let mut seen = Vec::new();
        cache.repair(&[1], |keys: &[u64]| {
            seen.extend_from_slice(keys);
            let mut start = 0;
            keys.iter()
                .map(|&end| {
                    let mut c = DefaultCounts::new(1);
                    for _ in start..end {
                        c.begin_sample();
                        c.bump(0);
                    }
                    start = end;
                    c
                })
                .collect()
        });
        assert_eq!(seen, vec![64, 100], "one pass, split at the snapshot keys");
        for (&t, snapshot) in &cache.snapshots {
            assert_eq!((snapshot.count(0), snapshot.count(1), snapshot.samples()), (t, t, t));
        }
        assert_eq!(held.count(1), 0, "a held snapshot must not change under its reader");
        assert!(!Arc::ptr_eq(&held, &cache.snapshots[&100]), "a held snapshot is copied");
        assert_eq!(Arc::as_ptr(&cache.snapshots[&64]), unheld, "an unheld one is patched in place");
        let (c, drawn, _) = cache.serve(100, 64, false, draw2);
        assert_eq!((c.count(1), drawn), (100, 0), "repaired snapshots serve later hits");
    }

    #[test]
    fn snapshot_count_is_bounded_and_keeps_the_largest() {
        let mut cache = SampleCache::default();
        for t in 1..=50u64 {
            cache.serve(t * 10, 64, false, draw);
        }
        assert!(cache.snapshots.len() <= MAX_SNAPSHOTS);
        // The largest prefix survives eviction: an extension past it
        // reuses all 500 cached samples.
        let (_, drawn, reused) = cache.serve(600, 64, false, draw);
        assert_eq!((drawn, reused), (100, 500));
        // Eviction never drops the snapshot produced by the current call.
        let (_, drawn, reused) = cache.serve(5, 64, false, draw);
        assert_eq!((drawn, reused), (5, 0));
        let (_, drawn, reused) = cache.serve(5, 64, false, draw);
        assert_eq!((drawn, reused), (0, 5));
    }

    #[test]
    fn looks_are_snapshotted_in_one_draw_and_never_evicted() {
        let mut cache = SampleCache::default();
        let mut passes = Vec::new();
        let (c, drawn, _) = cache.serve(1000, 512, true, |start, ends: &[u64]| {
            passes.push((start, ends.to_vec()));
            draw(start, ends)
        });
        assert_eq!((c.samples(), drawn), (1000, 1000));
        assert_eq!(passes, vec![(0, vec![64, 128, 256, 512, 1000])], "one pass split at the looks");
        // A later look reads as a pure hit, and a gap past the cached
        // looks snapshots only the looks it crosses.
        assert_eq!(cache.serve(256, 64, true, draw).1, 0);
        let (_, drawn, reused) = cache.serve(3000, 64, true, draw);
        assert_eq!((drawn, reused), (2000, 1000));
        assert!(cache.snapshots.contains_key(&1024) && cache.snapshots.contains_key(&2048));
        // Sweeping budgets evicts every other snapshot before a look.
        for t in 1..=40u64 {
            cache.serve(3000 + t, 64, true, draw);
        }
        for look in looks_below(3000) {
            assert!(cache.snapshots.contains_key(&look), "look {look} evicted");
        }
        // Without looks nothing is pinned.
        let mut plain = SampleCache::default();
        plain.serve(1000, 512, false, draw);
        assert_eq!(plain.snapshots.keys().copied().collect::<Vec<_>>(), vec![512, 1000]);
    }

    #[test]
    fn the_look_schedule_doubles_from_one_block() {
        assert_eq!(looks_below(64).count(), 0);
        assert_eq!(looks_below(65).collect::<Vec<_>>(), vec![64]);
        assert_eq!(looks_below(1024).collect::<Vec<_>>(), vec![64, 128, 256, 512]);
        assert!(looks_below(u64::MAX).all(is_look));
        assert!(!is_look(0) && !is_look(96) && !is_look(63) && is_look(64));
    }
}
