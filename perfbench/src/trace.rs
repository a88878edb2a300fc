//! In-memory spans for traced runs, and the replay of a query's phases
//! through the public layer functions.
//!
//! `Detector::detect` is one opaque call, so a traced run times it as
//! one span and then re-runs the same query's phases (bounds →
//! reduction → coin table → forward/reverse counts → hash order →
//! top-k) on the same inputs, each as a child span. Replayed children
//! therefore lie *after* their parent in time; a query's unattributed
//! time is its duration minus the summed durations of its children.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vulnds::core::{
    compute_bounds, reduce_candidates, select_top_k, select_top_k_dense, AlgorithmKind,
    BoundsMethod, ScoredNode,
};
use vulnds::sampling::{
    parallel_forward_counts_range_width, parallel_reverse_counts_range_width, BlockWords,
    CoinTable, CoinUsage,
};
use vulnds::sketch::{hash_order, UnitHasher};
use vulnds::ugraph::{NodeId, UncertainGraph};

/// The bound order `z` every workload runs with (the paper's tuned
/// value and the engine default).
pub const BOUND_ORDER: usize = 2;

/// One timed interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder; spans stay in memory until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Records an interval measured by the caller; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us: at(start), end_us: at(end), parent, request });
        self.spans.len() - 1
    }

    /// Runs `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Mean duration in milliseconds of the spans named `name`, or 0
    /// when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect();
        if durations.is_empty() {
            0.0
        } else {
            durations.iter().sum::<f64>() / durations.len() as f64
        }
    }

    /// Summed duration in milliseconds of the children of span `id`.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ms).sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            )?;
        }
        out.flush()
    }
}

/// One answered query, as the replay needs it.
pub struct Query<'a> {
    pub graph: &'a UncertainGraph,
    pub k: usize,
    pub algorithm: AlgorithmKind,
    pub seed: u64,
    /// The answer's `stats.sample_budget` (0 for a bounds-only answer).
    pub budget: u64,
}

/// What a replay learned besides its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// `|B|`, verified count and `n`, when the query ran the reduction.
    pub reduction: Option<(usize, usize, usize)>,
    /// Coin materialization of the replayed counting pass, if any.
    pub usage: Option<CoinUsage>,
}

/// Re-runs `q`'s phases through the public layer functions as children
/// of span `parent`. BSRBK's adaptive pass has no public entry point,
/// so it stays in the query's unattributed time.
pub fn replay(tracer: &mut Tracer, parent: usize, request: u64, q: &Query<'_>) -> Replayed {
    let (graph, k, t, at) = (q.graph, q.k, q.budget, Some(parent));
    let mut out = Replayed::default();

    if q.algorithm == AlgorithmKind::SampledNaive {
        let coins = tracer.time("sampling.coin_table", at, request, || CoinTable::new(graph));
        let (counts, usage) = tracer.time("sampling.forward", at, request, || {
            parallel_forward_counts_range_width(
                graph,
                &coins,
                0..t,
                q.seed,
                1,
                BlockWords::plan(t, 1),
            )
        });
        out.usage = Some(usage);
        tracer.time("topk.select", at, request, || select_top_k_dense(&counts.estimates(), k));
        return out;
    }

    let (lower, upper) = tracer.time("bounds.compute", at, request, || {
        compute_bounds(graph, BOUND_ORDER, BoundsMethod::Paper)
    });
    let reduction =
        tracer.time("candidates.reduce", at, request, || reduce_candidates(&lower, &upper, k));
    out.reduction = Some((reduction.candidates.len(), reduction.verified.len(), graph.num_nodes()));
    // SR folds the verified nodes back into its candidate pool.
    let (candidates, k_open) = if q.algorithm == AlgorithmKind::SampleReverse {
        let mut all = reduction.verified.clone();
        all.extend(reduction.candidates.iter().copied());
        all.sort_unstable_by_key(|v| v.0);
        (all, k)
    } else {
        (reduction.candidates.clone(), k.saturating_sub(reduction.verified.len()))
    };
    let by_midpoint = || {
        let midpoint = |v: NodeId| (lower[v.index()] + upper[v.index()]) / 2.0;
        select_top_k(
            candidates.iter().map(|&node| ScoredNode { node, score: midpoint(node) }),
            k_open,
        )
    };

    if t == 0 {
        tracer.time("topk.select", at, request, by_midpoint);
        return out;
    }
    let coins = tracer.time("sampling.coin_table", at, request, || CoinTable::new(graph));
    if q.algorithm == AlgorithmKind::BottomK {
        tracer.time("sketch.hash_order", at, request, || {
            hash_order(&UnitHasher::new(q.seed), t as usize)
        });
        tracer.time("topk.select", at, request, by_midpoint);
        return out;
    }
    let (counts, usage) = tracer.time("sampling.reverse", at, request, || {
        parallel_reverse_counts_range_width(
            graph,
            &coins,
            &candidates,
            0..t,
            q.seed,
            1,
            BlockWords::plan(t, 1),
        )
    });
    out.usage = Some(usage);
    tracer.time("topk.select", at, request, || {
        let estimates = candidates
            .iter()
            .enumerate()
            .map(|(i, &node)| ScoredNode { node, score: counts.estimate(i) });
        select_top_k(estimates, k_open)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnds::datasets::Dataset;

    #[test]
    fn replay_records_each_phase_under_its_query() {
        let graph = Dataset::Guarantee.generate_scaled(3, 0.02);
        let mut tracer = Tracer::default();
        let now = Instant::now();
        let root = tracer.record("detect", now, now, None, 1);
        for algorithm in [AlgorithmKind::SampledNaive, AlgorithmKind::SampleReverse] {
            let q = Query { graph: &graph, k: 3, algorithm, seed: 5, budget: 200 };
            let replayed = replay(&mut tracer, root, 1, &q);
            assert!(replayed.usage.is_some_and(|u| u.words > 0));
        }
        for name in ["sampling.forward", "sampling.reverse", "bounds.compute", "topk.select"] {
            assert!(tracer.spans.iter().any(|s| s.name == name && s.parent == Some(root)));
        }
        assert!(tracer.children_ms(root) > 0.0);
    }
}
