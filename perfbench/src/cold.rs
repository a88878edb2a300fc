//! `paper-cold`: Figure 6 in miniature. SN, SR, BSR and BSRBK on
//! {P2P, Guarantee, Fraud} × ε ∈ {0.3, 0.1}, k = 2%·|V|, δ = 0.1, each
//! query on a fresh `Detector`, so every answer pays the cold path.
//! The 24 cells run round-robin in a seeded order, pass after pass,
//! and each cell reports its median.

use std::sync::Arc;
use std::time::Instant;

use vulnds::core::{DetectRequest, DetectResponse, Detector};
use vulnds::datasets::Dataset;
use vulnds::sampling::Xoshiro256pp;
use vulnds::serve::detect_response_json;
use vulnds::ugraph::UncertainGraph;

use crate::layers::{AnswerStats, Layers, ALGORITHMS};
use crate::report::{ratio, Outcome};
use crate::stats::{median, peak_rss_mb, quantile, Cells};
use crate::trace::Tracer;
use crate::{Options, SETUP_REPEATS};

const DATASETS: [Dataset; 3] = [Dataset::P2P, Dataset::Guarantee, Dataset::Fraud];
const EPSILONS: [f64; 2] = [0.3, 0.1];
const DELTA: f64 = 0.1;
/// Untraced passes a run makes at least, even past `--seconds`: 8 × 24
/// queries leave 19 samples beyond p90, and a longer run averages over
/// more of the machine's speed drift.
const MIN_PASSES: usize = 8;

/// One cell of the grid: indices into [`DATASETS`], [`EPSILONS`] and
/// [`ALGORITHMS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    dataset: usize,
    epsilon: usize,
    algorithm: usize,
}

/// An answer's identity for the bit-identical check: node ids and
/// score bits, in rank order.
fn fingerprint(r: &DetectResponse) -> Vec<(u32, u64)> {
    r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect()
}

/// Whether `answer` is acceptable for a `k` query whose first answer
/// in this run had fingerprint `first`.
fn answer_ok(answer: &DetectResponse, k: usize, first: &[(u32, u64)]) -> bool {
    answer.top_k.len() == k && !answer.degraded && fingerprint(answer) == first
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();

    // Set-up: generating the three graphs, repeated; the median counts.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut graphs: Vec<Arc<UncertainGraph>> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        graphs = DATASETS
            .iter()
            .map(|ds| {
                let t = Instant::now();
                let g = ds.generate_scaled(opts.seed, opts.scale);
                tracer.record("datasets.generate", t, Instant::now(), None, 0);
                Arc::new(g)
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());
    }
    let ks: Vec<usize> = graphs.iter().map(|g| (g.num_nodes() * 2 / 100).max(1)).collect();

    let mut cells: Vec<Cell> = Vec::new();
    for dataset in 0..DATASETS.len() {
        for epsilon in 0..EPSILONS.len() {
            for algorithm in 0..ALGORITHMS.len() {
                cells.push(Cell { dataset, epsilon, algorithm });
            }
        }
    }
    let mut rng = Xoshiro256pp::new(opts.seed ^ 0xC01D);
    let mut first: Vec<Option<Vec<(u32, u64)>>> = vec![None; cells.len()];
    let mut latency = [Cells::default(), Cells::default()];
    let mut wall = [0.0f64; 2];
    let mut queries = [0u64; 2];
    let mut layers = Layers::default();

    // A traced run spends its first half untraced and its second half
    // traced, so the two halves give the tracing overhead.
    let halves: &[(bool, f64)] = if opts.trace {
        &[(false, opts.seconds / 2.0), (true, opts.seconds / 2.0)]
    } else {
        &[(false, opts.seconds)]
    };
    let mut request = 0u64;
    for (half, &(traced, seconds)) in halves.iter().enumerate() {
        let start = Instant::now();
        // Whole passes only, so every cell gets the same number of samples.
        let mut passes = 0;
        while start.elapsed().as_secs_f64() < seconds || (!traced && passes < MIN_PASSES) {
            passes += 1;
            let mut order: Vec<usize> = (0..cells.len()).collect();
            shuffle(&mut order, &mut rng);
            for i in order {
                let cell = cells[i];
                let graph = &graphs[cell.dataset];
                let k = ks[cell.dataset];
                let algorithm = ALGORITHMS[cell.algorithm];
                let detector = Detector::builder(Arc::clone(graph))
                    .seed(opts.seed)
                    .threads(1)
                    .build()
                    .map_err(|e| format!("building a detector: {e}"))?;
                let req = DetectRequest::new(k, algorithm)
                    .with_epsilon(EPSILONS[cell.epsilon])
                    .with_delta(DELTA);
                request += 1;
                let t = Instant::now();
                let answer = detector.detect(&req);
                let end = Instant::now();
                let ms = end.duration_since(t).as_secs_f64() * 1e3;
                latency[half].record(cell, ms);
                queries[half] += 1;
                let Ok(answer) = answer else {
                    out.check(false);
                    continue;
                };
                let expected = first[i].get_or_insert_with(|| fingerprint(&answer));
                out.check(answer_ok(&answer, k, expected));
                if traced {
                    let id = tracer.record("detect", t, end, None, request);
                    let stats = AnswerStats::of(&answer);
                    layers.overhead_ms.push(ms - stats.elapsed_ms);
                    layers.count(&stats);
                    layers.replay(&mut tracer, id, request, graph, &answer, opts.seed);
                    let line = detect_response_json(&answer).to_string();
                    layers.json(&mut tracer, id, request, &line);
                }
            }
        }
        wall[half] = start.elapsed().as_secs_f64();
    }

    let untraced = &latency[0];
    for (c, ms, n) in untraced.medians() {
        let (ds, eps, alg) = (DATASETS[c.dataset], EPSILONS[c.epsilon], ALGORITHMS[c.algorithm]);
        eprintln!("perfbench: {ds:?} eps={eps} {alg}: median {ms:.2} ms over {n}");
    }
    for (i, metric) in ["sn_s", "sr_s", "bsr_s", "bsrbk_s"].into_iter().enumerate() {
        out.set(metric, untraced.sum_of_medians(|c| c.algorithm == i) / 1e3);
    }
    let pooled = untraced.pooled();
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.set("peak_rss_mb", peak_rss_mb(std::process::id()).ok_or("cannot read the peak RSS")?);
    out.set("ok_rate", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    out.set("qps", ratio(queries[0] as f64, wall[0]));
    out.set("query_ms_p50", quantile(&pooled, 0.5).unwrap_or(0.0));
    out.set("query_ms_p90", quantile(&pooled, 0.9).unwrap_or(0.0));
    if opts.trace {
        let mix = |c: &Cells<Cell>| c.sum_of_medians(|_| true);
        out.set("trace.overhead_pct", 100.0 * (ratio(mix(&latency[1]), mix(&latency[0])) - 1.0));
        out.set(
            "datasets.generate_ms",
            tracer.mean_ms("datasets.generate") * DATASETS.len() as f64,
        );
        layers.report(&tracer, &mut out);
        tracer.write(&opts.trace_path()).map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnds::core::AlgorithmKind;

    #[test]
    fn a_corrupted_or_degraded_answer_fails_the_check() {
        let graph = Arc::new(Dataset::Guarantee.generate_scaled(2, 0.02));
        let detector = Detector::builder(graph).seed(2).threads(1).build().unwrap();
        let answer = detector.detect(&DetectRequest::new(4, AlgorithmKind::SampledNaive)).unwrap();
        let first = fingerprint(&answer);
        assert!(answer_ok(&answer, 4, &first));
        assert!(!answer_ok(&answer, 5, &first));

        let mut corrupted = answer.clone();
        corrupted.top_k[3].score = f64::from_bits(corrupted.top_k[3].score.to_bits() ^ 1);
        assert!(!answer_ok(&corrupted, 4, &first));
        let mut degraded = answer.clone();
        degraded.degraded = true;
        assert!(!answer_ok(&degraded, 4, &first));

        let mut out = Outcome::default();
        out.check(answer_ok(&answer, 4, &first));
        out.check(answer_ok(&corrupted, 4, &first));
        assert_eq!((out.attempted, out.failed), (2, 1));
    }
}
