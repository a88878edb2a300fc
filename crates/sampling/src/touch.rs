//! Touch ledgers — which node and edge coins a sampled stream actually
//! consumed, the key to delta-aware cache revalidation.
//!
//! The lazy superblock kernel only synthesizes a node's self-default
//! word or an edge's survival word when a traversal reaches that item.
//! An item whose coin was **never materialized** across every draw of a
//! cached stream fed no value into any fixpoint, so the cached counts
//! are independent of that coin: a later probability change to the item
//! cannot alter what a cold re-run would have produced, and the cached
//! stream may survive the epoch bit-identically.
//!
//! Reverse searches read a node's coin when they discover it and stop
//! scanning in-edges once every lane is decided, so reverse streams
//! usually survive a self-risk change to a node they never reached and
//! an edge-probability change to an in-edge past the one that decided a
//! hub. Forward streams force every node word (each self-defaulted node
//! seeds the frontier), so their node set is full and any self-risk
//! change reaches them; the session then recounts only the nodes
//! downstream of the change, or drops the stream.
//!
//! [`TouchSet`] is the plain per-kernel bitset — one for nodes, one for
//! edges; [`TouchLedger`] is the shared, thread-safe union of both a
//! session keeps per cached stream.

use std::sync::atomic::{AtomicU64, Ordering};

/// A plain one-bit-per-item set (node ids or canonical edge ids), owned
/// by a single sampling kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchSet {
    bits: Vec<u64>,
}

impl TouchSet {
    /// An empty set sized for `len` items.
    pub fn new(len: usize) -> Self {
        Self { bits: vec![0; len.div_ceil(64)] }
    }

    /// Marks item `i` as touched.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// True if item `i` has been marked.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Union with another set of the same size.
    pub fn merge(&mut self, other: &TouchSet) {
        debug_assert_eq!(self.bits.len(), other.bits.len());
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Number of marked items.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if any of the (sorted or not) item ids is marked.
    pub fn intersects(&self, items: &[u32]) -> bool {
        items.iter().any(|&i| self.contains(i as usize))
    }
}

/// A shared union of [`TouchSet`]s across the worker threads of every
/// draw that fed one cached stream, for nodes and edges alike.
/// Lock-free: workers `absorb` their local sets with relaxed
/// `fetch_or`, and readers take a coherent view only after the drawing
/// thread has published the draw (the session's stream mutex orders the
/// two).
#[derive(Debug, Default)]
pub struct TouchLedger {
    nodes: Vec<AtomicU64>,
    edges: Vec<AtomicU64>,
}

fn shared_bits(len: usize) -> Vec<AtomicU64> {
    let mut bits = Vec::with_capacity(len.div_ceil(64));
    bits.resize_with(len.div_ceil(64), AtomicU64::default);
    bits
}

fn absorb_bits(shared: &[AtomicU64], local: &TouchSet) {
    debug_assert_eq!(shared.len(), local.bits.len());
    for (shared, &word) in shared.iter().zip(&local.bits) {
        if word != 0 {
            // ORDERING: Relaxed — the bits are a commutative union;
            // visibility to readers is ordered by the stream lock (and
            // thread join in the parallel drivers), not here.
            shared.fetch_or(word, Ordering::Relaxed);
        }
    }
}

fn bits_intersect(shared: &[AtomicU64], items: &[u32]) -> bool {
    items.iter().any(|&i| {
        let (word, bit) = (i as usize / 64, i % 64);
        // ORDERING: Relaxed — see `absorb_bits`.
        shared.get(word).is_some_and(|w| w.load(Ordering::Relaxed) >> bit & 1 == 1)
    })
}

fn bits_count(shared: &[AtomicU64]) -> usize {
    // ORDERING: Relaxed — see `absorb_bits`.
    shared.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
}

impl TouchLedger {
    /// An empty ledger sized for `num_nodes` nodes and `num_edges`
    /// edges.
    pub fn new(num_nodes: usize, num_edges: usize) -> Self {
        Self { nodes: shared_bits(num_nodes), edges: shared_bits(num_edges) }
    }

    /// Folds a kernel's touched node and edge sets into the shared
    /// union.
    pub fn absorb(&self, nodes: &TouchSet, edges: &TouchSet) {
        absorb_bits(&self.nodes, nodes);
        absorb_bits(&self.edges, edges);
    }

    /// True if any of the node ids or edge ids is marked in the union:
    /// a delta dirtying them may change what the stream would draw.
    pub fn intersects(&self, nodes: &[u32], edges: &[u32]) -> bool {
        bits_intersect(&self.nodes, nodes) || bits_intersect(&self.edges, edges)
    }

    /// Number of marked nodes in the union.
    pub fn node_count(&self) -> usize {
        bits_count(&self.nodes)
    }

    /// Number of marked edges in the union.
    pub fn edge_count(&self) -> usize {
        bits_count(&self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_contains_count() {
        let mut t = TouchSet::new(130);
        assert_eq!(t.count(), 0);
        for e in [0, 63, 64, 129] {
            t.mark(e);
            assert!(t.contains(e));
        }
        assert_eq!(t.count(), 4);
        assert!(!t.contains(1));
        assert!(!t.contains(1000), "out of range is simply absent");
        assert!(t.intersects(&[5, 129]));
        assert!(!t.intersects(&[5, 7, 128]));
        assert!(!t.intersects(&[]));
    }

    #[test]
    fn merge_is_union() {
        let mut a = TouchSet::new(100);
        let mut b = TouchSet::new(100);
        a.mark(3);
        b.mark(3);
        b.mark(97);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.contains(3) && a.contains(97));
    }

    #[test]
    fn ledger_absorbs_nodes_and_edges_separately() {
        let ledger = TouchLedger::new(70, 200);
        let mut edges = TouchSet::new(200);
        edges.mark(0);
        edges.mark(150);
        let mut more = TouchSet::new(200);
        more.mark(150);
        more.mark(199);
        let mut nodes = TouchSet::new(70);
        nodes.mark(65);
        ledger.absorb(&nodes, &edges);
        ledger.absorb(&TouchSet::new(70), &more);
        assert_eq!((ledger.node_count(), ledger.edge_count()), (1, 3));
        assert!(ledger.intersects(&[], &[199]));
        assert!(ledger.intersects(&[65], &[]));
        // Node 150 is out of range and edge 65 was never marked: the two
        // id spaces never alias.
        assert!(!ledger.intersects(&[150, 1000], &[65, 198, 1000]));
    }

    #[test]
    fn concurrent_absorbs_union_exactly() {
        let ledger = TouchLedger::new(512, 1024);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let ledger = &ledger;
                s.spawn(move || {
                    let mut nodes = TouchSet::new(512);
                    let mut edges = TouchSet::new(1024);
                    for e in (t..1024).step_by(8) {
                        edges.mark(e);
                        nodes.mark(e / 2);
                    }
                    ledger.absorb(&nodes, &edges);
                });
            }
        });
        assert_eq!((ledger.node_count(), ledger.edge_count()), (512, 1024));
    }
}
