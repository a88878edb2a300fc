//! Batched probability deltas — the unit of live graph mutation.
//!
//! A [`GraphDelta`] is an ordered batch of self-risk and edge-probability
//! changes that is validated as a whole and applied atomically: either
//! every change lands on the target graph or none does. Deltas carry a
//! canonical byte encoding (used verbatim by the write-ahead log) so a
//! batch can be persisted, checksummed, and replayed bit-identically.
//!
//! Topology never changes — the paper's deployment recalibrates
//! probabilities monthly while the loan network itself is stable — so a
//! delta addresses existing nodes and edges by id only.

use crate::error::{GraphError, Result};
use crate::graph::UncertainGraph;
use crate::ids::{EdgeId, NodeId};

/// A validated-as-a-whole, applied-atomically batch of probability
/// changes. Later entries for the same item win (last-writer-wins
/// within a batch), matching sequential `set_*` call semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// `(node index, new self-risk)` pairs, in application order.
    pub self_risk: Vec<(u32, f64)>,
    /// `(edge index, new diffusion probability)` pairs, in application order.
    pub edge_prob: Vec<(u32, f64)>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a self-risk change.
    pub fn set_self_risk(mut self, v: NodeId, ps: f64) -> Self {
        self.self_risk.push((v.0, ps));
        self
    }

    /// Queues an edge-probability change.
    pub fn set_edge_prob(mut self, e: EdgeId, prob: f64) -> Self {
        self.edge_prob.push((e.0, prob));
        self
    }

    /// True when the batch contains no changes.
    pub fn is_empty(&self) -> bool {
        self.self_risk.is_empty() && self.edge_prob.is_empty()
    }

    /// Total number of queued changes (not deduplicated).
    pub fn len(&self) -> usize {
        self.self_risk.len() + self.edge_prob.len()
    }

    /// Checks every change against `graph` without mutating it: ids must
    /// be in bounds and probabilities in `[0, 1]`. Returns the first
    /// offending change's error.
    pub fn validate(&self, graph: &UncertainGraph) -> Result<()> {
        let n = graph.num_nodes() as u32;
        let m = graph.num_edges() as u32;
        for &(v, ps) in &self.self_risk {
            if v >= n {
                return Err(GraphError::NodeOutOfBounds { node: v, len: n });
            }
            crate::error::check_probability(ps, "node self-risk")?;
        }
        for &(e, prob) in &self.edge_prob {
            if e >= m {
                return Err(GraphError::EdgeOutOfBounds { edge: e, len: m });
            }
            crate::error::check_probability(prob, "edge diffusion probability")?;
        }
        Ok(())
    }

    /// Validates the whole batch, then applies every change in order.
    /// On error the graph is untouched (atomicity); on success the
    /// graph's probability `version()` has advanced at least once.
    pub fn apply(&self, graph: &mut UncertainGraph) -> Result<()> {
        self.validate(graph)?;
        for &(v, ps) in &self.self_risk {
            graph.set_self_risk(NodeId(v), ps)?;
        }
        for &(e, prob) in &self.edge_prob {
            graph.set_edge_prob(EdgeId(e), prob)?;
        }
        Ok(())
    }

    /// [`GraphDelta::apply`], plus a record of what it overwrote: the
    /// prior value of every queued item and the graph's prior version.
    /// [`DeltaUndo::revert`] puts the graph back bit for bit in
    /// `O(|delta|)`, so a caller that patches a graph in place can roll
    /// the patch back instead of keeping a copy.
    pub fn apply_recorded(&self, graph: &mut UncertainGraph) -> Result<DeltaUndo> {
        self.validate(graph)?;
        let undo = DeltaUndo {
            self_risk: self
                .self_risk
                .iter()
                .map(|&(v, _)| (v, graph.self_risk[v as usize]))
                .collect(),
            edge_prob: self
                .edge_prob
                .iter()
                .map(|&(e, _)| (e, graph.edge_prob[e as usize]))
                .collect(),
            version: graph.version,
        };
        self.apply(graph)?;
        Ok(undo)
    }

    /// Canonical byte encoding — the WAL record payload:
    ///
    /// ```text
    /// n_risk  u32 LE
    /// n_edge  u32 LE
    /// n_risk × (node u32 LE, ps f64 LE)
    /// n_edge × (edge u32 LE, prob f64 LE)
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 12 * (self.self_risk.len() + self.edge_prob.len()));
        out.extend_from_slice(&(self.self_risk.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.edge_prob.len() as u32).to_le_bytes());
        for &(v, ps) in &self.self_risk {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&ps.to_le_bytes());
        }
        for &(e, prob) in &self.edge_prob {
            out.extend_from_slice(&e.to_le_bytes());
            out.extend_from_slice(&prob.to_le_bytes());
        }
        out
    }

    /// Decodes a payload produced by [`GraphDelta::encode`]. The payload
    /// must be exactly consumed; anything else is a parse error.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let bad = |msg: &str| GraphError::Parse { line: 0, message: msg.into() };
        if bytes.len() < 8 {
            return Err(bad("delta payload shorter than its header"));
        }
        let take_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let n_risk = take_u32(&bytes[0..4]) as usize;
        let n_edge = take_u32(&bytes[4..8]) as usize;
        let want = 8usize
            .checked_add(n_risk.checked_mul(12).ok_or_else(|| bad("delta count overflow"))?)
            .and_then(|x| x.checked_add(n_edge * 12))
            .ok_or_else(|| bad("delta count overflow"))?;
        if bytes.len() != want {
            return Err(bad("delta payload length mismatch"));
        }
        let mut off = 8;
        let mut read_pair = |bytes: &[u8]| {
            let id = take_u32(&bytes[off..off + 4]);
            let mut f = [0u8; 8];
            f.copy_from_slice(&bytes[off + 4..off + 12]);
            off += 12;
            (id, f64::from_le_bytes(f))
        };
        let self_risk = (0..n_risk).map(|_| read_pair(bytes)).collect();
        let edge_prob = (0..n_edge).map(|_| read_pair(bytes)).collect();
        Ok(Self { self_risk, edge_prob })
    }

    /// Deduplicated, sorted node indices this delta touches.
    pub fn dirty_nodes(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.self_risk.iter().map(|&(i, _)| i).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Deduplicated, sorted edge indices this delta touches.
    pub fn dirty_edges(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.edge_prob.iter().map(|&(i, _)| i).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// What [`GraphDelta::apply_recorded`] overwrote: each item's prior
/// value, in the delta's order, and the graph's prior version.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaUndo {
    self_risk: Vec<(u32, f64)>,
    edge_prob: Vec<(u32, f64)>,
    version: u64,
}

impl DeltaUndo {
    /// Restores the prior values and version on the graph the delta was
    /// applied to. Items are restored in reverse order, so an item the
    /// batch wrote twice gets the value it had before the first write.
    pub fn revert(&self, graph: &mut UncertainGraph) {
        for &(v, ps) in self.self_risk.iter().rev() {
            graph.self_risk[v as usize] = ps;
        }
        for &(e, prob) in self.edge_prob.iter().rev() {
            graph.edge_prob[e as usize] = prob;
        }
        graph.version = self.version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};

    fn sample() -> UncertainGraph {
        from_parts(
            &[0.1, 0.2, 0.3, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75), (2, 3, 0.6)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn apply_matches_sequential_sets() {
        let mut via_delta = sample();
        let delta = GraphDelta::new()
            .set_self_risk(NodeId(1), 0.9)
            .set_edge_prob(EdgeId(2), 0.05)
            .set_self_risk(NodeId(1), 0.8); // last writer wins
        delta.apply(&mut via_delta).unwrap();

        let mut via_sets = sample();
        via_sets.set_self_risk(NodeId(1), 0.9).unwrap();
        via_sets.set_edge_prob(EdgeId(2), 0.05).unwrap();
        via_sets.set_self_risk(NodeId(1), 0.8).unwrap();
        assert_eq!(via_delta, via_sets);
        assert_eq!(via_delta.self_risk(NodeId(1)), 0.8);
    }

    #[test]
    fn invalid_batch_leaves_graph_untouched() {
        let mut g = sample();
        let before = g.clone();
        let version = g.version();
        for delta in [
            GraphDelta::new().set_self_risk(NodeId(0), 0.5).set_self_risk(NodeId(99), 0.5),
            GraphDelta::new().set_edge_prob(EdgeId(0), 0.5).set_edge_prob(EdgeId(99), 0.5),
            GraphDelta::new().set_self_risk(NodeId(0), 1.5),
            GraphDelta::new().set_edge_prob(EdgeId(0), -0.1),
            GraphDelta::new().set_edge_prob(EdgeId(0), f64::NAN),
        ] {
            assert!(delta.apply(&mut g).is_err());
            assert_eq!(g, before, "failed batch must not partially apply");
            assert_eq!(g.version(), version, "failed batch must not bump the version");
        }
    }

    #[test]
    fn a_reverted_delta_restores_values_and_version_bit_for_bit() {
        let mut g = sample();
        g.set_edge_prob(EdgeId(1), 0.3).unwrap();
        let before = g.clone();
        let delta = GraphDelta::new()
            .set_self_risk(NodeId(2), 0.9)
            .set_edge_prob(EdgeId(1), 0.05)
            .set_self_risk(NodeId(2), 0.7)
            .set_edge_prob(EdgeId(3), 0.0);
        let undo = delta.apply_recorded(&mut g).unwrap();
        assert_eq!(g.self_risk(NodeId(2)), 0.7);
        assert_eq!(g.version(), before.version() + 4);
        undo.revert(&mut g);
        assert_eq!(g, before);
        assert_eq!(g.version(), before.version());
        let bits = |g: &UncertainGraph| -> Vec<u64> {
            let risks = g.nodes().map(|v| g.self_risk(v).to_bits());
            risks.chain(g.edges().map(|e| g.edge_prob(e).to_bits())).collect()
        };
        assert_eq!(bits(&g), bits(&before));
        // An invalid batch records nothing and changes nothing.
        let bad = GraphDelta::new().set_self_risk(NodeId(0), 0.5).set_self_risk(NodeId(9), 0.5);
        assert!(bad.apply_recorded(&mut g).is_err());
        assert_eq!((g.clone(), g.version()), (before.clone(), before.version()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for delta in [
            GraphDelta::new(),
            GraphDelta::new().set_self_risk(NodeId(3), 0.125),
            GraphDelta::new()
                .set_self_risk(NodeId(0), 0.0)
                .set_self_risk(NodeId(2), 1.0)
                .set_edge_prob(EdgeId(1), 0.333)
                .set_edge_prob(EdgeId(3), 0.999),
        ] {
            let bytes = delta.encode();
            assert_eq!(GraphDelta::decode(&bytes).unwrap(), delta);
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = GraphDelta::new().set_self_risk(NodeId(1), 0.5).encode();
        assert!(GraphDelta::decode(&good[..good.len() - 1]).is_err(), "truncated");
        let mut long = good.clone();
        long.push(0);
        assert!(GraphDelta::decode(&long).is_err(), "trailing byte");
        assert!(GraphDelta::decode(&[]).is_err(), "empty");
        // A header promising more pairs than the payload holds.
        let mut lying = good;
        lying[0..4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(GraphDelta::decode(&lying).is_err(), "short body");
    }

    #[test]
    fn dirty_sets_are_sorted_and_deduped() {
        let delta = GraphDelta::new()
            .set_self_risk(NodeId(3), 0.1)
            .set_self_risk(NodeId(1), 0.2)
            .set_self_risk(NodeId(3), 0.3)
            .set_edge_prob(EdgeId(2), 0.4)
            .set_edge_prob(EdgeId(0), 0.5)
            .set_edge_prob(EdgeId(2), 0.6);
        assert_eq!(delta.dirty_nodes(), vec![1, 3]);
        assert_eq!(delta.dirty_edges(), vec![0, 2]);
        assert_eq!(delta.len(), 6);
        assert!(!delta.is_empty());
        assert!(GraphDelta::new().is_empty());
    }
}
