//! Per-layer tallies of a traced run: counts read from the answers
//! (`DetectResponse` stats and engine counters), replayed phase spans,
//! and the JSON layer's cost on each answer.

use vulnds::core::{AlgorithmKind, DetectResponse};
use vulnds::json::Json;
use vulnds::ugraph::UncertainGraph;

use crate::report::{ratio, Outcome};
use crate::stats::quantile;
use crate::trace::{replay, Query, Tracer};

/// The four algorithms every workload runs, in metric order.
pub const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::SampledNaive,
    AlgorithmKind::SampleReverse,
    AlgorithmKind::BoundedSampleReverse,
    AlgorithmKind::BottomK,
];

const DETECT_METRICS: [&str; 4] = [
    "engine.detect_ms.sn",
    "engine.detect_ms.sr",
    "engine.detect_ms.bsr",
    "engine.detect_ms.bsrbk",
];

/// A running `numerator / denominator` pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ratio {
    num: f64,
    den: f64,
}

impl Ratio {
    pub fn add(&mut self, num: f64, den: f64) {
        self.num += num;
        self.den += den;
    }

    pub fn value(&self) -> f64 {
        ratio(self.num, self.den)
    }
}

#[derive(Debug, Default)]
pub struct Layers {
    /// Engine-reported `detect` time per algorithm, in ms.
    detect_ms: [Vec<f64>; 4],
    /// Engine time a replay did not account for, per replayed query.
    unattributed_ms: Vec<f64>,
    /// Caller-observed latency minus the engine's `elapsed`, in ms.
    pub overhead_ms: Vec<f64>,
    candidates: Ratio,
    verified: Ratio,
    pruned: Ratio,
    /// Coin words per freshly drawn sample of the counting passes.
    pass_words: Ratio,
    lazy_skipped: Ratio,
    bsrbk_words: Ratio,
    bsrbk_used: Ratio,
    bsrbk_stops: Ratio,
    /// Reused share of the samples answers consumed.
    reuse: Ratio,
    response_bytes: Ratio,
}

/// The counters one answer carries, whether it came from an
/// in-process `DetectResponse` or a served JSON response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerStats {
    pub algorithm: AlgorithmKind,
    pub elapsed_ms: f64,
    pub sample_budget: u64,
    pub samples_used: u64,
    pub early_stopped: bool,
    pub coin_words: u64,
    pub samples_drawn: u64,
    pub samples_reused: u64,
}

impl AnswerStats {
    pub fn of(answer: &DetectResponse) -> Self {
        let (stats, engine) = (&answer.stats, &answer.engine);
        AnswerStats {
            algorithm: stats.algorithm,
            elapsed_ms: stats.elapsed.as_secs_f64() * 1e3,
            sample_budget: stats.sample_budget,
            samples_used: stats.samples_used,
            early_stopped: stats.early_stopped,
            coin_words: engine.coin_words_synthesized,
            samples_drawn: engine.samples_drawn,
            samples_reused: engine.samples_reused,
        }
    }

    /// Reads the `stats` and `engine` objects of a served answer.
    pub fn parse(response: &Json) -> Option<Self> {
        let (stats, engine) = (response.get("stats")?, response.get("engine")?);
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64);
        let label = stats.get("algorithm")?.as_str()?;
        Some(AnswerStats {
            algorithm: *ALGORITHMS.iter().find(|a| a.label() == label)?,
            elapsed_ms: stats.get("elapsed_ms")?.as_f64()?,
            sample_budget: num(stats, "sample_budget")?,
            samples_used: num(stats, "samples_used")?,
            early_stopped: stats.get("early_stopped")?.as_bool()?,
            coin_words: num(engine, "coin_words_synthesized")?,
            samples_drawn: num(engine, "samples_drawn")?,
            samples_reused: num(engine, "samples_reused")?,
        })
    }
}

impl Layers {
    /// Tallies one answer's engine counters.
    pub fn count(&mut self, a: &AnswerStats) {
        if let Some(i) = ALGORITHMS.iter().position(|&x| x == a.algorithm) {
            self.detect_ms[i].push(a.elapsed_ms);
        }
        let words = a.coin_words as f64;
        if a.algorithm == AlgorithmKind::BottomK {
            self.bsrbk_words.add(words, a.samples_used as f64);
            self.bsrbk_used.add(a.samples_used as f64, a.sample_budget as f64);
            self.bsrbk_stops.add(f64::from(u8::from(a.early_stopped)), 1.0);
        } else if a.samples_drawn > 0 {
            self.pass_words.add(words, a.samples_drawn as f64);
        }
        let (drawn, reused) = (a.samples_drawn as f64, a.samples_reused as f64);
        self.reuse.add(reused, drawn + reused);
    }

    /// Replays the phases of `answer` (timed as span `id`) on `graph`.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        id: usize,
        request: u64,
        graph: &UncertainGraph,
        answer: &DetectResponse,
        seed: u64,
    ) {
        let q = Query {
            graph,
            k: answer.top_k.len(),
            algorithm: answer.stats.algorithm,
            seed,
            budget: answer.stats.sample_budget,
        };
        let replayed = replay(tracer, id, request, &q);
        let engine_ms = answer.stats.elapsed.as_secs_f64() * 1e3;
        self.unattributed_ms.push(engine_ms - tracer.children_ms(id));
        if let Some((size, verified, n)) = replayed.reduction {
            self.candidates.add(size as f64, 1.0);
            self.verified.add(verified as f64, 1.0);
            self.pruned.add(1.0 - size as f64 / n as f64, 1.0);
        }
        if let Some(u) = replayed.usage {
            let total = u.edge_words_skipped + u.edge_words_materialized;
            self.lazy_skipped.add(u.edge_words_skipped as f64, total as f64);
        }
    }

    /// Times the JSON layer on one response line: parsing it, then
    /// rendering the parsed tree back (the encoder `serve` answers with).
    pub fn json(
        &mut self,
        tracer: &mut Tracer,
        id: usize,
        request: u64,
        line: &str,
    ) -> Option<Json> {
        self.response_bytes.add(line.len() as f64, 1.0);
        let parsed = tracer.time("json.parse", Some(id), request, || Json::parse(line)).ok()?;
        tracer.time("json.encode", Some(id), request, || parsed.to_string());
        Some(parsed)
    }

    /// Writes every per-layer metric this tally covers into `out`.
    pub fn report(&self, tracer: &Tracer, out: &mut Outcome) {
        for (name, span) in [
            ("bounds.compute_ms", "bounds.compute"),
            ("candidates.reduce_ms", "candidates.reduce"),
            ("sampling.coin_table_ms", "sampling.coin_table"),
            ("sampling.forward_ms", "sampling.forward"),
            ("sampling.reverse_ms", "sampling.reverse"),
            ("sketch.hash_order_ms", "sketch.hash_order"),
            ("topk.select_ms", "topk.select"),
        ] {
            out.set(name, tracer.mean_ms(span));
        }
        out.set("json.encode_us", tracer.mean_ms("json.encode") * 1e3);
        out.set("json.parse_us", tracer.mean_ms("json.parse") * 1e3);
        out.set("json.response_bytes", self.response_bytes.value());
        out.set("candidates.size", self.candidates.value());
        out.set("candidates.verified", self.verified.value());
        out.set("candidates.pruned_ratio", self.pruned.value());
        out.set("sampling.coin_words_per_sample", self.pass_words.value());
        out.set("sampling.lazy_skip_ratio", self.lazy_skipped.value());
        out.set("bsrbk.coin_words_per_sample", self.bsrbk_words.value());
        out.set("bsrbk.samples_used_ratio", self.bsrbk_used.value());
        out.set("bsrbk.early_stop_rate", self.bsrbk_stops.value());
        out.set("engine.samples_reuse_ratio", self.reuse.value());
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        for (name, v) in DETECT_METRICS.into_iter().zip(&self.detect_ms) {
            out.set(name, mean(v));
        }
        out.set("engine.unattributed_ms", mean(&self.unattributed_ms));
        out.set("serve.overhead_ms_p50", quantile(&self.overhead_ms, 0.5).unwrap_or(0.0));
        out.set("serve.overhead_ms_p90", quantile(&self.overhead_ms, 0.9).unwrap_or(0.0));
    }
}
