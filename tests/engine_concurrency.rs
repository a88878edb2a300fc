//! Acceptance tests for the 0.4 concurrency contract: one shared
//! `Detector` answers `&self` queries from many threads with answers
//! **bit-identical** to a serial cold-cache run, session caches build
//! single-flight, and `clear_cache` is safe while queries are in
//! flight.
//!
//! CI runs this suite in release mode as its own job
//! (`cargo test --release -p vulnds --test engine_concurrency`) so
//! lock-ordering and interleaving regressions surface under real
//! parallelism, not just the debug scheduler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use vulnds::prelude::*;

/// The mixed request batch every client fires: all five algorithms,
/// several `k`, one per-request `(ε, seed)` override, one candidate
/// hint — enough shape diversity to exercise every cache layer.
fn mixed_batch() -> Vec<DetectRequest> {
    vec![
        DetectRequest::new(3, AlgorithmKind::Naive),
        DetectRequest::new(5, AlgorithmKind::SampledNaive),
        DetectRequest::new(8, AlgorithmKind::SampledNaive),
        DetectRequest::new(4, AlgorithmKind::SampleReverse),
        DetectRequest::new(4, AlgorithmKind::BoundedSampleReverse),
        DetectRequest::new(7, AlgorithmKind::BoundedSampleReverse),
        DetectRequest::new(4, AlgorithmKind::BottomK),
        DetectRequest::new(5, AlgorithmKind::SampledNaive).with_epsilon(0.2).with_seed(99),
        DetectRequest::new(3, AlgorithmKind::SampleReverse)
            .with_candidates((0..40).map(NodeId).collect()),
    ]
}

fn graph() -> UncertainGraph {
    Dataset::Interbank.generate_scaled(11, 1.0)
}

fn session(graph: &UncertainGraph) -> Detector {
    Detector::builder(graph)
        .config(VulnConfig::default().with_seed(77).with_threads(2))
        .build()
        .unwrap()
}

/// The bit-comparable part of a response: ranked nodes with exact
/// scores, plus the deterministic run diagnostics (everything except
/// wall-clock time and cache attribution, which legitimately vary with
/// interleaving).
fn fingerprint(r: &DetectResponse) -> (Vec<(u32, u64)>, u64, u64, usize, usize, bool) {
    (
        r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect(),
        r.stats.sample_budget,
        r.stats.samples_used,
        r.stats.candidates,
        r.stats.verified,
        r.stats.early_stopped,
    )
}

#[test]
fn concurrent_queries_are_bit_identical_to_serial_cold_run() {
    let g = graph();
    let batch = mixed_batch();

    // Reference: a fresh session answering the batch serially, cold.
    let serial = session(&g);
    let reference: Vec<_> = batch.iter().map(|r| fingerprint(&serial.detect(r).unwrap())).collect();

    // 8 threads fire the same batch at one shared session, interleaved
    // (barrier-released, and each thread walks the batch in a different
    // rotation so cache hits/misses interleave across layers).
    let shared = Arc::new(session(&g));
    let n_threads = 8;
    let barrier = Barrier::new(n_threads);
    std::thread::scope(|s| {
        for t in 0..n_threads {
            let shared = Arc::clone(&shared);
            let batch = &batch;
            let reference = &reference;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..batch.len() {
                    let idx = (i + t) % batch.len();
                    let got = shared.detect(&batch[idx]).unwrap();
                    assert_eq!(
                        fingerprint(&got),
                        reference[idx],
                        "thread {t}: request {idx} diverged from the serial cold run"
                    );
                }
            });
        }
    });

    // And again on the (now fully warm) shared session, serially.
    for (i, req) in batch.iter().enumerate() {
        let warm = shared.detect(req).unwrap();
        assert_eq!(fingerprint(&warm), reference[i], "warm request {i} diverged");
    }

    let totals = shared.session_stats();
    assert_eq!(totals.queries, (n_threads as u64 + 1) * batch.len() as u64);
    assert!(totals.concurrent_peak >= 2, "stress run never actually overlapped");
    // Sharing must amortize: 9 batch executions on one session draw
    // far fewer worlds than 9 independent cold sessions would (exact
    // totals depend on which query reaches a stream first — a
    // smaller-budget query that arrives after a larger one redraws its
    // prefix, in serial and concurrent runs alike — so the claim is a
    // strict bound, not equality; exact single-pass accounting is
    // asserted by `concurrent_same_stream_misses_draw_the_sampling_pass_once`).
    let independent = serial.session_stats().samples_drawn * (n_threads as u64 + 1);
    assert!(
        totals.samples_drawn < independent,
        "shared session drew {} worlds, {} independent sessions would draw {independent}",
        totals.samples_drawn,
        n_threads + 1
    );
    assert!(totals.samples_reused > 0, "warm traffic never hit the cache");
}

#[test]
fn detect_many_is_safe_and_identical_under_concurrency() {
    let g = graph();
    let batch = mixed_batch();
    let serial = session(&g);
    let reference: Vec<_> = serial.detect_many(&batch).unwrap().iter().map(fingerprint).collect();

    let shared = session(&g);
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let shared = &shared;
            let batch = &batch;
            let reference = &reference;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let got = shared.detect_many(batch).unwrap();
                let got: Vec<_> = got.iter().map(fingerprint).collect();
                assert_eq!(&got, reference, "concurrent detect_many diverged");
            });
        }
    });
}

#[test]
fn concurrent_same_stream_misses_draw_the_sampling_pass_once() {
    let g = graph();
    let req = DetectRequest::new(6, AlgorithmKind::SampledNaive);

    // What one cold query draws.
    let solo = session(&g);
    let solo_resp = solo.detect(&req).unwrap();
    let expected_drawn = solo_resp.engine.samples_drawn;
    assert!(expected_drawn > 0, "test needs a sampling algorithm");

    // 8 simultaneous cold misses on the same stream: the single-flight
    // stream cell admits one drawer; everyone else blocks on the cell
    // and then serves the snapshot. Total drawn must equal ONE pass.
    let shared = Arc::new(session(&g));
    let barrier = Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let shared = Arc::clone(&shared);
            let req = &req;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                shared.detect(req).unwrap();
            });
        }
    });
    let totals = shared.session_stats();
    assert_eq!(
        totals.samples_drawn, expected_drawn,
        "concurrent same-stream misses drew the pass more than once"
    );
    assert_eq!(totals.samples_reused, 7 * expected_drawn);

    // Same single-flight property for the bounds layer: 8 simultaneous
    // cold BSR queries compute the bound vectors once.
    let bounds_shared = Arc::new(session(&g));
    let barrier = Barrier::new(8);
    let breq = DetectRequest::new(5, AlgorithmKind::BoundedSampleReverse);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let bounds_shared = Arc::clone(&bounds_shared);
            let breq = &breq;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                bounds_shared.detect(breq).unwrap();
            });
        }
    });
    let totals = bounds_shared.session_stats();
    assert_eq!(totals.bounds_computed, 1, "bounds must build single-flight");
    assert_eq!(totals.reductions_computed, 1, "reductions must build single-flight");
}

#[test]
fn clear_cache_while_queries_are_in_flight_is_safe_and_exact() {
    let g = graph();
    let serial = session(&g);
    let batch = mixed_batch();
    let reference: Vec<_> = batch.iter().map(|r| fingerprint(&serial.detect(r).unwrap())).collect();

    // 4 query threads hammer the shared session while the main thread
    // clears the cache repeatedly: every answer must still match the
    // serial reference (in-flight queries keep their Arc snapshots;
    // clears only cold-start *future* queries).
    let shared = session(&g);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let queriers: Vec<_> = (0..4)
            .map(|t| {
                let shared = &shared;
                let batch = &batch;
                let reference = &reference;
                s.spawn(move || {
                    for round in 0..6 {
                        for i in 0..batch.len() {
                            let idx = (i + t + round) % batch.len();
                            let got = shared.detect(&batch[idx]).unwrap();
                            assert_eq!(
                                fingerprint(&got),
                                reference[idx],
                                "request {idx} diverged during concurrent clear_cache"
                            );
                        }
                    }
                })
            })
            .collect();
        let shared = &shared;
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                shared.clear_cache();
                std::thread::yield_now();
            }
        });
        // Join the query threads, then release the clearer.
        for q in queriers {
            q.join().expect("query thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // After the dust settles, a fresh query still answers exactly.
    let after = shared.detect(&batch[0]).unwrap();
    assert_eq!(fingerprint(&after), reference[0]);
}

#[test]
fn updates_under_live_traffic_answer_bit_identically_per_epoch() {
    let g = graph();
    let batch = mixed_batch();
    let deltas: Vec<GraphDelta> = (0..4u32)
        .map(|i| {
            GraphDelta::default()
                .set_self_risk(NodeId(i), 0.55 + 0.05 * f64::from(i))
                .set_edge_prob(EdgeId(i), 0.45)
        })
        .collect();

    // Reference answers per epoch, from fresh cold sessions on each
    // post-delta graph. Epoch e's graph carries a distinct probability
    // version, which responses echo — that is how a concurrent query
    // names the snapshot it pinned.
    let mut epoch_graphs = vec![g.clone()];
    for delta in &deltas {
        let mut next = epoch_graphs.last().unwrap().clone();
        delta.apply(&mut next).unwrap();
        epoch_graphs.push(next);
    }
    let reference: std::collections::BTreeMap<u64, Vec<_>> = epoch_graphs
        .iter()
        .map(|eg| {
            let cold = session(eg);
            (eg.version(), batch.iter().map(|r| fingerprint(&cold.detect(r).unwrap())).collect())
        })
        .collect();

    // 6 query threads hammer the shared session while the main thread
    // commits the deltas one by one. Every answer must be bit-identical
    // to the cold reference for whichever epoch the query pinned —
    // queries in flight across a commit keep their old snapshot.
    let shared = session(&g);
    let committed = AtomicBool::new(false);
    std::thread::scope(|s| {
        let queriers: Vec<_> = (0..6)
            .map(|t| {
                let shared = &shared;
                let batch = &batch;
                let reference = &reference;
                let committed = &committed;
                s.spawn(move || {
                    let mut rounds = 0usize;
                    // Keep querying until every delta is in, plus one
                    // full post-commit round.
                    loop {
                        let done = committed.load(Ordering::Acquire);
                        for i in 0..batch.len() {
                            let idx = (i + t + rounds) % batch.len();
                            let got = shared.detect(&batch[idx]).unwrap();
                            let expected = &reference[&got.engine.graph_version][idx];
                            assert_eq!(
                                &fingerprint(&got),
                                expected,
                                "request {idx} diverged on epoch {}",
                                got.engine.epoch
                            );
                        }
                        rounds += 1;
                        if done {
                            return;
                        }
                    }
                })
            })
            .collect();
        for delta in &deltas {
            shared.apply_delta(delta).unwrap();
            std::thread::yield_now();
        }
        committed.store(true, Ordering::Release);
        for q in queriers {
            q.join().expect("query thread panicked");
        }
    });

    // Quiescent: every future query runs on the final epoch and matches
    // the final cold reference.
    assert_eq!(shared.epoch(), deltas.len() as u64);
    let final_version = epoch_graphs.last().unwrap().version();
    for (i, req) in batch.iter().enumerate() {
        let got = shared.detect(req).unwrap();
        assert_eq!(got.engine.graph_version, final_version);
        assert_eq!(fingerprint(&got), reference[&final_version][i], "settled request {i}");
    }
    let stats = shared.session_stats();
    assert_eq!(stats.deltas_applied, deltas.len() as u64);
    assert_eq!(stats.epoch, deltas.len() as u64);
}

#[test]
fn detector_is_send_sync_and_shareable_by_reference() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Detector>();
    assert_send_sync::<Arc<Detector>>();

    // Scoped borrow (no Arc) is enough to share a session.
    let g = graph();
    let d = session(&g);
    let req = DetectRequest::new(3, AlgorithmKind::BottomK);
    let reference = fingerprint(&d.detect(&req).unwrap());
    std::thread::scope(|s| {
        for _ in 0..3 {
            let d = &d;
            let req = &req;
            let reference = &reference;
            s.spawn(move || {
                assert_eq!(&fingerprint(&d.detect(req).unwrap()), reference);
            });
        }
    });
}

#[test]
fn shared_arc_graph_feeds_many_sessions_without_copying() {
    let shared = Arc::new(graph());
    let a = Detector::builder(Arc::clone(&shared)).seed(1).build().unwrap();
    let b = Detector::builder(Arc::clone(&shared)).seed(1).build().unwrap();
    assert!(Arc::ptr_eq(&a.graph(), &b.graph()));
    let req = DetectRequest::new(4, AlgorithmKind::BottomK);
    assert_eq!(
        fingerprint(&a.detect(&req).unwrap()),
        fingerprint(&b.detect(&req).unwrap()),
        "same graph + config + request must answer identically across sessions"
    );
}
