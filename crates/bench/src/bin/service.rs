//! Concurrent-service throughput microbench (`BENCH_service.json`):
//! queries/sec vs client threads for one **shared** `Detector` session
//! (the 0.4 `&self` engine) against the pre-0.4 architecture of one
//! session **per client**.
//!
//! Three configurations per client count:
//!
//! * `per_client` — every client builds its own session and answers the
//!   request mix cold: bounds, reductions, coin table, and every
//!   sampled world are paid per client (what the borrowed `&mut`
//!   engine forced a service to do);
//! * `shared_cold` — all clients hit one fresh shared session: the
//!   first arrivals build the caches single-flight, everyone else
//!   reuses them mid-flight;
//! * `shared_warm` — the shared session has already served the mix
//!   once (steady-state service traffic).
//!
//! Throughput is work amortization, not just core count: on any
//! machine the shared warm session answers from cached bounds and
//! sampled-world prefixes while per-client sessions re-derive
//! everything, so the gain shows even on a single-core runner.
//!
//! Env knobs: `VULNDS_SCALE`, `VULNDS_SEED` (see `workload`),
//! `VULNDS_BENCH_JSON` (output path), `VULNDS_BENCH_REPS` (timing
//! repetitions, default 5).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use vulnds_bench::machine::{available_parallelism, emit_machine};
use vulnds_bench::microbench::JsonReport;
use vulnds_bench::workload;
use vulnds_core::engine::{DetectRequest, Detector};
use vulnds_core::AlgorithmKind;
use vulnds_datasets::Dataset;

/// The per-client request mix: the algorithms a screening service
/// actually serves, over a few `k`, so bounds, reductions, and both
/// sampling directions are all on the hot path. Weighted toward the
/// prefix-cacheable estimators (SN/SR/BSR) the way steady-state service
/// traffic is; one BSRBK rides along, reading a prefix of the k1 BSR
/// request's reverse stream.
fn request_mix(n: usize) -> Vec<DetectRequest> {
    let k1 = (n / 100).max(1);
    let k2 = (n / 50).max(2);
    vec![
        DetectRequest::new(k1, AlgorithmKind::SampledNaive),
        DetectRequest::new(k2, AlgorithmKind::SampledNaive),
        DetectRequest::new(k1, AlgorithmKind::BoundedSampleReverse),
        DetectRequest::new(k2, AlgorithmKind::BoundedSampleReverse),
        DetectRequest::new(k1, AlgorithmKind::SampleReverse),
        DetectRequest::new(k1, AlgorithmKind::BottomK),
    ]
}

fn build_session(graph: &std::sync::Arc<ugraph::UncertainGraph>) -> Detector {
    // Serving posture: per-query samplers single-threaded (concurrency
    // comes from the client threads), and a production-ish accuracy
    // contract — a service quotes ε = 0.2, not the benchmark-friendly
    // default 0.3, which is what makes cold re-sampling per client the
    // dominant cost the shared session amortizes away.
    let approx = vulnds_core::ApproxParams::new(0.2, 0.1).expect("valid contract");
    Detector::builder(graph)
        .config(workload::config().with_threads(1).with_approx(approx))
        .build()
        .unwrap()
}

/// Runs `clients` threads, each answering the whole mix once against
/// the session produced by `session_for`, and returns the wall time of
/// the slowest thread (barrier-started).
fn run_clients(
    clients: usize,
    mix: &[DetectRequest],
    session_for: impl Fn() -> std::sync::Arc<Detector> + Sync,
) -> Duration {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let session = session_for();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..mix.len() {
                        // Rotate so concurrent clients interleave
                        // different cache layers.
                        let req = &mix[(i + c) % mix.len()];
                        session.detect(req).expect("valid request");
                    }
                    start.elapsed()
                })
            })
            .collect();
        barrier.wait();
        handles.into_iter().map(|h| h.join().expect("client thread")).max().unwrap()
    })
}

fn reps() -> usize {
    std::env::var("VULNDS_BENCH_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(5)
}

/// Median of `reps` timed runs of `f`.
fn median_duration(mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..reps()).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let graph = std::sync::Arc::new(workload::generate(Dataset::Citation));
    let n = graph.num_nodes();
    let mix = request_mix(n);
    let hardware = available_parallelism();
    println!(
        "service bench: {} nodes, {} edges, {} requests/client, {} hardware threads",
        n,
        graph.num_edges(),
        mix.len(),
        hardware
    );

    let mut report = JsonReport::new();
    // The shared probe keeps the `machine` group's hardware fields in
    // lockstep with `BENCH_sampling.json` (this report used to lack
    // `simd`); workload-specific fields chain onto the same group.
    emit_machine(&mut report)
        .num("nodes", n as f64)
        .num("edges", graph.num_edges() as f64)
        .num("requests_per_client", mix.len() as f64)
        .num("scale", workload::scale());

    for clients in [1usize, 2, 4, 8] {
        // Per-client sessions: every client pays the full cold cost.
        let per_client = median_duration(|| {
            run_clients(clients, &mix, || std::sync::Arc::new(build_session(&graph)))
        });

        // Shared cold session: rebuilt per repetition, clients race in.
        let shared_cold = median_duration(|| {
            let shared = std::sync::Arc::new(build_session(&graph));
            run_clients(clients, &mix, || std::sync::Arc::clone(&shared))
        });

        // Shared warm session: steady-state traffic.
        let warm = std::sync::Arc::new(build_session(&graph));
        for req in &mix {
            warm.detect(req).expect("warm-up");
        }
        let shared_warm =
            median_duration(|| run_clients(clients, &mix, || std::sync::Arc::clone(&warm)));

        let total_queries = (clients * mix.len()) as f64;
        let qps = |d: Duration| total_queries / d.as_secs_f64().max(1e-12);
        let (qps_per_client, qps_cold, qps_warm) =
            (qps(per_client), qps(shared_cold), qps(shared_warm));
        let warm_gain = qps_warm / qps_per_client;
        println!(
            "clients {clients}: per-client {qps_per_client:.1} q/s | shared cold {qps_cold:.1} q/s | shared warm {qps_warm:.1} q/s | warm gain {warm_gain:.2}x"
        );
        report
            .group(&format!("clients_{clients}"))
            .num("client_threads", clients as f64)
            .num("qps_per_client_sessions", qps_per_client)
            .num("qps_shared_cold", qps_cold)
            .num("qps_shared_warm", qps_warm)
            .num("cold_gain_vs_per_client", qps_cold / qps_per_client)
            .num("warm_gain_vs_per_client", warm_gain);

        let stats = warm.session_stats();
        report
            .group(&format!("clients_{clients}_shared_warm_session"))
            .num("queries", stats.queries as f64)
            .num("samples_drawn", stats.samples_drawn as f64)
            .num("samples_reused", stats.samples_reused as f64)
            .num("cache_waits", stats.cache_waits as f64)
            .num("builds_deduped", stats.builds_deduped as f64)
            .num("concurrent_peak", stats.concurrent_peak as f64);
    }

    let path = std::env::var("VULNDS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json").to_string()
    });
    report.write(&path).expect("write benchmark report");
    println!("wrote {path}");
}
