//! `serve-warm` and `serve-update`: one closed-loop TCP client against
//! the real `vulnds serve` binary on the Guarantee graph.
//!
//! The server runs `--workers 1 --threads 1` and the client keeps one
//! connection with `TCP_NODELAY` on its own socket, writing each request
//! in one `write`. The client sends its next request only after the
//! previous answer arrived, and `shutdown` only after the last one.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vulnds::core::{BoundsMethod, DetectRequest, Detector, IncrementalBounds};
use vulnds::datasets::Dataset;
use vulnds::json::Json;
use vulnds::sampling::Xoshiro256pp;
use vulnds::serve::DEFAULT_SERVE_MAX_SAMPLES;
use vulnds::ugraph::io_binary::{load_binary, save_binary};
use vulnds::ugraph::{EdgeId, GraphDelta, NodeId, UncertainGraph};
use vulnds::wal::{FsyncPolicy, Wal};

use crate::cold::shuffle;
use crate::layers::{AnswerStats, Layers, ALGORITHMS};
use crate::report::{ratio, Outcome};
use crate::stats::{median, peak_rss_mb, quantile, Cells};
use crate::trace::{Tracer, BOUND_ORDER};
use crate::{Options, Workload, SCRATCH_DIR, SETUP_REPEATS};

/// `k` as a share of `|V|`, in percent.
const K_PERCENTS: [usize; 2] = [1, 2];
const EPSILONS: [f64; 2] = [0.2, 0.1];
/// Copies of each algorithm's request kinds in one cycle of the mix
/// (SN, SR, BSR, BSRBK). By engine cost SR and BSR answers are the
/// cheapest class (2/3 of reads), SN the middle one (1/6) and BSRBK,
/// whose adaptive pass is never cached, the dearest (1/6): p50 and p90
/// each fall inside a class, not on a boundary between two.
const WEIGHTS: [usize; 4] = [1, 2, 2, 1];
/// The cycle's order is fixed, not drawn from the workload seed, so
/// every run puts each read at the same distance from the updates.
const CYCLE_ORDER_SEED: u64 = 0x5E4F;
/// On `serve-update`, every `UPDATE_EVERY`-th request is an update. The
/// 8 reads between updates divide the 24-read cycle, so each position of
/// the cycle always sits at the same distance from the last update.
const UPDATE_EVERY: u64 = 9;
/// Longest the client waits for any one answer.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One read request kind of the mix.
#[derive(Debug, Clone, Copy)]
struct Kind {
    algorithm: usize,
    k_percent: usize,
    epsilon: usize,
}

impl Kind {
    fn all() -> Vec<Kind> {
        let mut kinds = Vec::new();
        for algorithm in 0..ALGORITHMS.len() {
            for k_percent in 0..K_PERCENTS.len() {
                for epsilon in 0..EPSILONS.len() {
                    kinds.push(Kind { algorithm, k_percent, epsilon });
                }
            }
        }
        kinds
    }

    fn k(self, n: usize) -> usize {
        (n * K_PERCENTS[self.k_percent] / 100).max(1)
    }

    fn request(self, n: usize) -> DetectRequest {
        DetectRequest::new(self.k(n), ALGORITHMS[self.algorithm])
            .with_epsilon(EPSILONS[self.epsilon])
    }

    /// The wire form; no per-request seed, so the session caches hit.
    fn line(self, id: u64, n: usize) -> String {
        let algorithm = ALGORITHMS[self.algorithm].label().to_ascii_lowercase();
        format!(
            "{{\"id\":{id},\"k\":{},\"algorithm\":\"{algorithm}\",\"epsilon\":{}}}\n",
            self.k(n),
            EPSILONS[self.epsilon]
        )
    }
}

/// An answer's identity: node ids and score bits, in rank order.
type Answer = Vec<(u32, u64)>;

/// The `top_k` of a served response.
fn served_answer(response: &Json) -> Option<Answer> {
    response
        .get("top_k")?
        .as_array()?
        .iter()
        .map(|s| {
            Some((
                u32::try_from(s.get("node")?.as_u64()?).ok()?,
                s.get("score")?.as_f64()?.to_bits(),
            ))
        })
        .collect()
}

/// Whether a served read answered `k` nodes, undegraded, and (when a
/// reference is known) exactly the reference's nodes and scores.
fn read_ok(response: &Json, k: usize, reference: Option<&Answer>) -> bool {
    let answered = response.get("ok").and_then(Json::as_bool) == Some(true)
        && response.get("degraded").and_then(Json::as_bool) == Some(false);
    let Some(got) = served_answer(response).filter(|_| answered) else { return false };
    got.len() == k && reference.is_none_or(|r| *r == got)
}

/// In-process answers for every kind, on `graph` with the server's
/// configuration.
fn reference(graph: &UncertainGraph, seed: u64, kinds: &[Kind]) -> Result<Vec<Answer>, String> {
    let detector = session(graph, seed)?;
    kinds
        .iter()
        .map(|kind| {
            let r = detector.detect(&kind.request(graph.num_nodes())).map_err(|e| e.to_string())?;
            Ok(r.top_k.iter().map(|s| (s.node.0, s.score.to_bits())).collect())
        })
        .collect()
}

/// A session configured like `vulnds serve --threads 1 --seed <seed>`.
fn session(graph: &UncertainGraph, seed: u64) -> Result<Detector, String> {
    Detector::builder(Arc::new(graph.clone()))
        .seed(seed)
        .threads(1)
        .max_samples(DEFAULT_SERVE_MAX_SAMPLES)
        .build()
        .map_err(|e| format!("building the reference session: {e}"))
}

/// One seeded update: two self-risks and three edge probabilities.
/// Today's engine drops every sampled stream on a self-risk change, so
/// each update sends the reads after it back to sampling, and each
/// position of the fixed cycle always meets the same cache state.
fn random_delta(rng: &mut Xoshiro256pp, graph: &UncertainGraph) -> GraphDelta {
    let probability = |rng: &mut Xoshiro256pp| 0.05 + 0.45 * rng.next_f64();
    let mut delta = GraphDelta::new();
    for _ in 0..2 {
        let v = rng.next_bounded(graph.num_nodes() as u64) as u32;
        delta = delta.set_self_risk(NodeId(v), probability(rng));
    }
    for _ in 0..3 {
        let e = rng.next_bounded(graph.num_edges() as u64) as u32;
        delta = delta.set_edge_prob(EdgeId(e), probability(rng));
    }
    delta
}

fn update_line(id: u64, delta: &GraphDelta) -> String {
    let pairs = |items: &[(u32, f64)]| {
        items.iter().map(|(i, p)| format!("[{i},{p}]")).collect::<Vec<_>>().join(",")
    };
    format!(
        "{{\"id\":{id},\"cmd\":\"update\",\"self_risk\":[{}],\"edge_prob\":[{}]}}\n",
        pairs(&delta.self_risk),
        pairs(&delta.edge_prob)
    )
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let updates = opts.workload == Workload::ServeUpdate;
    let binary = server_binary()?;
    let dir = ScratchDir::new(opts)?;
    let graph_path = dir.path.join("guarantee.bin");
    let wal_path = dir.path.join("updates.wal");
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let server_seed = opts.seed ^ 0x5E4E;
    let kinds = Kind::all();

    // The checker's reference answers, from the same graph file the
    // server loads.
    let generated = Dataset::Guarantee.generate_scaled(opts.seed, opts.scale);
    save_binary(&generated, &graph_path).map_err(|e| format!("writing the graph: {e}"))?;
    let t = Instant::now();
    let graph = load_binary(&graph_path).map_err(|e| format!("loading the graph: {e}"))?;
    tracer.record("ugraph.load", t, Instant::now(), None, 0);
    let n = graph.num_nodes();
    let expected = reference(&graph, server_seed, &kinds)?;

    // Set-up, repeated: generate and write the graph, start the server,
    // connect, and warm every request kind once. The last one serves.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    let mut request = 0u64;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, client)) = live.take() {
            stop(server, client)?;
        }
        let _ = std::fs::remove_file(&wal_path);
        let start = Instant::now();
        let g = Dataset::Guarantee.generate_scaled(opts.seed, opts.scale);
        tracer.record("datasets.generate", start, Instant::now(), None, 0);
        save_binary(&g, &graph_path).map_err(|e| format!("writing the graph: {e}"))?;
        let server =
            Server::start(&binary, &graph_path, server_seed, updates.then_some(&*wal_path))?;
        let mut client = Client::connect(&server.addr)?;
        for (kind, reference) in kinds.iter().zip(&expected) {
            request += 1;
            let (line, _) = client.call(&kind.line(request, n))?;
            let ok = Json::parse(&line).is_ok_and(|r| read_ok(&r, kind.k(n), Some(reference)));
            out.check(ok);
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((server, client));
    }
    let (server, mut client) = live.ok_or("no set-up ran")?;

    // One cycle of the mix, as indices into `kinds`. Each position of
    // the cycle is a latency cell.
    let mut cycle: Vec<usize> = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        cycle.extend(std::iter::repeat_n(i, WEIGHTS[kind.algorithm]));
    }
    shuffle(&mut cycle, &mut Xoshiro256pp::new(CYCLE_ORDER_SEED));
    let mut rng = Xoshiro256pp::new(opts.seed ^ 0xDE17A);

    let halves: &[(bool, f64)] = if opts.trace {
        &[(false, opts.seconds / 2.0), (true, opts.seconds / 2.0)]
    } else {
        &[(false, opts.seconds)]
    };
    let mut latency = [Cells::default(), Cells::default()];
    let mut reads_ms: Vec<f64> = Vec::new();
    let mut update_ms: Vec<f64> = Vec::new();
    let mut deltas: Vec<GraphDelta> = Vec::new();
    let mut answered = 0u64;
    let mut wall = 0.0;
    let mut layers = Layers::default();
    let (mut sent, mut next_read) = (0u64, 0usize);
    for (half, &(traced, seconds)) in halves.iter().enumerate() {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            sent += 1;
            request += 1;
            if updates && sent % UPDATE_EVERY == 0 {
                let delta = random_delta(&mut rng, &graph);
                let (line, ms) = client.call(&update_line(request, &delta))?;
                update_ms.push(ms);
                let epoch = Json::parse(&line).ok().and_then(|r| {
                    let acked = r.get("ok").and_then(Json::as_bool) == Some(true);
                    r.get("epoch").and_then(Json::as_u64).filter(|_| acked)
                });
                out.check(epoch == Some(deltas.len() as u64 + 1));
                deltas.push(delta);
                if half == 0 {
                    answered += 1;
                }
                continue;
            }
            let position = next_read % cycle.len();
            let kind = kinds[cycle[position]];
            next_read += 1;
            let t = Instant::now();
            let (line, ms) = client.call(&kind.line(request, n))?;
            let end = Instant::now();
            latency[half].record(position, ms);
            let response = if traced {
                let id = tracer.record("request", t, end, None, request);
                let response = layers.json(&mut tracer, id, request, &line);
                if let Some(stats) = response.as_ref().and_then(AnswerStats::parse) {
                    layers.overhead_ms.push(ms - stats.elapsed_ms);
                    layers.count(&stats);
                }
                response
            } else {
                reads_ms.push(ms);
                answered += 1;
                Json::parse(&line).ok()
            };
            // Mid-stream answers on `serve-update` depend on the epoch,
            // so only their shape is checked here; the final pass below
            // compares them against a replay of the delta stream.
            let reference = (!updates).then(|| &expected[cycle[position]]);
            out.check(response.is_some_and(|r| read_ok(&r, kind.k(n), reference)));
        }
        if half == 0 {
            wall = start.elapsed().as_secs_f64();
        }
    }

    if updates {
        // Replay the delta stream in-process, then compare one pass of
        // the mix against a cold session on the resulting graph.
        let mut last = graph.clone();
        for delta in &deltas {
            delta.apply(&mut last).map_err(|e| format!("replaying a delta: {e}"))?;
        }
        let final_expected = reference(&last, server_seed, &kinds)?;
        for (kind, reference) in kinds.iter().zip(&final_expected) {
            request += 1;
            let (line, _) = client.call(&kind.line(request, n))?;
            out.check(Json::parse(&line).is_ok_and(|r| read_ok(&r, kind.k(n), Some(reference))));
        }
    }

    let session = client.call(&format!("{{\"id\":{},\"cmd\":\"stats\"}}\n", request + 1))?.0;
    let peak_rss = server.peak_rss_mb();
    stop(server, client)?;

    for (&position, ms, count) in latency[0].medians() {
        let kind = kinds[cycle[position]];
        let (alg, k, eps) =
            (ALGORITHMS[kind.algorithm], K_PERCENTS[kind.k_percent], EPSILONS[kind.epsilon]);
        eprintln!("perfbench: #{position} {alg} k={k}% eps={eps}: median {ms:.2} ms over {count}");
    }
    // Per algorithm: the sum over its four kinds of each kind's median,
    // a kind with several cycle positions taking their medians' mean.
    for (i, metric) in ["sn_s", "sr_s", "bsr_s", "bsrbk_s"].into_iter().enumerate() {
        let sum = latency[0].sum_of_medians(|&p| kinds[cycle[p]].algorithm == i);
        out.set(metric, sum / WEIGHTS[i] as f64 / 1e3);
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.set("peak_rss_mb", peak_rss.ok_or("cannot read the server's peak RSS")?);
    out.set("ok_rate", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    out.set("qps", ratio(answered as f64, wall));
    out.set("query_ms_p50", quantile(&reads_ms, 0.5).unwrap_or(0.0));
    out.set("query_ms_p90", quantile(&reads_ms, 0.9).unwrap_or(0.0));
    if opts.trace {
        let mix = |c: &Cells<usize>| c.sum_of_medians(|_| true);
        out.set("trace.overhead_pct", 100.0 * (ratio(mix(&latency[1]), mix(&latency[0])) - 1.0));
        out.set("datasets.generate_ms", tracer.mean_ms("datasets.generate"));
        out.set("ugraph.load_ms", tracer.mean_ms("ugraph.load"));
        out.set("serve.update_ms_p50", quantile(&update_ms, 0.5).unwrap_or(0.0));
        out.set("serve.update_ms_p90", quantile(&update_ms, 0.9).unwrap_or(0.0));
        let counters = Json::parse(&session).ok();
        let counter = |key: &str| {
            counters.as_ref().and_then(|s| s.get("session")?.get(key)?.as_u64()).unwrap_or(0) as f64
        };
        let revalidated = counter("caches_revalidated");
        out.set(
            "engine.revalidated_ratio",
            ratio(revalidated, revalidated + counter("caches_invalidated")),
        );
        replay_kinds(&mut tracer, &mut layers, &graph, server_seed, &kinds, request)?;
        if updates {
            replay_deltas(&mut tracer, &mut out, &graph, server_seed, &kinds, &deltas, &dir.path)?;
        }
        layers.report(&tracer, &mut out);
        tracer.write(&opts.trace_path()).map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}

/// Times each request kind cold in-process, then replays its phases
/// through the layer functions: the per-layer cost of the mix.
fn replay_kinds(
    tracer: &mut Tracer,
    layers: &mut Layers,
    graph: &UncertainGraph,
    seed: u64,
    kinds: &[Kind],
    mut request: u64,
) -> Result<(), String> {
    for kind in kinds {
        request += 1;
        let detector = session(graph, seed)?;
        let t = Instant::now();
        let answer =
            detector.detect(&kind.request(graph.num_nodes())).map_err(|e| e.to_string())?;
        let id = tracer.record("detect", t, Instant::now(), None, request);
        layers.replay(tracer, id, request, graph, &answer, seed);
    }
    Ok(())
}

/// Replays the run's deltas through the update path's layers: bound
/// repair, `Detector::apply_delta` on a session warmed by one pass of
/// the mix, and `Wal::append` to a scratch log.
fn replay_deltas(
    tracer: &mut Tracer,
    out: &mut Outcome,
    graph: &UncertainGraph,
    seed: u64,
    kinds: &[Kind],
    deltas: &[GraphDelta],
    dir: &Path,
) -> Result<(), String> {
    let mut bounds = IncrementalBounds::new(graph.clone(), BOUND_ORDER, BoundsMethod::Paper);
    let detector = session(graph, seed)?;
    for kind in kinds {
        detector.detect(&kind.request(graph.num_nodes())).map_err(|e| e.to_string())?;
    }
    let log = dir.join("replay.wal");
    let mut wal =
        Wal::create(&log, 0, FsyncPolicy::Never).map_err(|e| format!("creating a WAL: {e}"))?;
    for (i, delta) in deltas.iter().enumerate() {
        let epoch = i as u64 + 1;
        tracer.time("bounds.repair", None, epoch, || -> Result<(), String> {
            for &(v, p) in &delta.self_risk {
                bounds.update_self_risk(NodeId(v), p).map_err(|e| e.to_string())?;
            }
            for &(e, p) in &delta.edge_prob {
                bounds.update_edge_prob(EdgeId(e), p).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        tracer
            .time("engine.apply_delta", None, epoch, || detector.apply_delta(delta))
            .map_err(|e| e.to_string())?;
        tracer
            .time("wal.append", None, epoch, || wal.append(epoch, delta))
            .map_err(|e| format!("appending to the WAL: {e}"))?;
    }
    out.set("bounds.repair_ms", tracer.mean_ms("bounds.repair"));
    out.set("engine.apply_delta_ms", tracer.mean_ms("engine.apply_delta"));
    out.set("wal.append_us", tracer.mean_ms("wal.append") * 1e3);
    Ok(())
}

/// Builds the repository's `vulnds` binary (a no-op when it is fresh)
/// and returns its path. Runs from the repository root.
fn server_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "vulnds"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building vulnds failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Ok(PathBuf::from(target).join("release").join("vulnds"))
}

/// A per-run directory under the scratch directory, removed on drop.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    fn new(opts: &Options) -> Result<ScratchDir, String> {
        let name = format!("{}-{}", opts.workload.name(), std::process::id());
        let path = Path::new(SCRATCH_DIR).join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `vulnds serve --tcp` child, killed on drop.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn start(binary: &Path, graph: &Path, seed: u64, wal: Option<&Path>) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command.arg("serve").arg(graph);
        command.args(["--tcp", "127.0.0.1:0", "--workers", "1", "--threads", "1"]);
        command.args(["--seed", &seed.to_string()]);
        if let Some(wal) = wal {
            command.arg("--wal").arg(wal).args(["--fsync", "never"]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("server stderr is not piped")?);
        // The server names its bound address on stderr (the port is
        // the kernel's pick).
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {seen}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or_default().to_string();
            }
            seen.push_str(&line);
        };
        // Keep draining stderr so the server never blocks on the pipe.
        let drain = std::thread::spawn(move || {
            let _ = stderr.read_to_end(&mut Vec::new());
        });
        Ok(Server { child, addr, stderr: Some(drain) })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// Sends `shutdown` after the last answer and waits for a clean exit.
fn stop(mut server: Server, mut client: Client) -> Result<(), String> {
    let (ack, _) = client.call("{\"id\":0,\"cmd\":\"shutdown\"}\n")?;
    drop(client);
    let deadline = Instant::now() + READ_TIMEOUT;
    loop {
        match server.child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("server exited with {status} after {ack}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => return Err("server did not exit after shutdown".to_string()),
            Err(e) => return Err(format!("waiting for the server: {e}")),
        }
    }
}

/// One newline-delimited JSON connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line in one write and waits for its answer;
    /// returns the answer line and the round trip in milliseconds.
    fn call(&mut self, request: &str) -> Result<(String, f64), String> {
        let start = Instant::now();
        self.stream.write_all(request.as_bytes()).map_err(|e| format!("sending: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok((line.trim_end().to_string(), start.elapsed().as_secs_f64() * 1e3)),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(answer: &Answer, degraded: bool) -> Json {
        let top_k = answer
            .iter()
            .map(|&(node, bits)| {
                Json::obj([
                    ("node", Json::from(node as u64)),
                    ("score", Json::Num(f64::from_bits(bits))),
                ])
            })
            .collect();
        Json::obj([
            ("id", Json::from(1u64)),
            ("ok", Json::Bool(true)),
            ("top_k", Json::Arr(top_k)),
            ("degraded", Json::Bool(degraded)),
        ])
    }

    #[test]
    fn a_corrupted_answer_fails_the_check() {
        let reference: Answer = vec![(4, 0.5f64.to_bits()), (2, 0.25f64.to_bits())];
        let line = served(&reference, false).to_string();
        let good = Json::parse(&line).unwrap();
        assert!(read_ok(&good, 2, Some(&reference)));
        assert!(read_ok(&good, 2, None));

        let mut swapped = reference.clone();
        swapped[1].0 = 3;
        let corrupted = Json::parse(&served(&swapped, false).to_string()).unwrap();
        assert!(!read_ok(&corrupted, 2, Some(&reference)));
        let mut nudged = reference.clone();
        nudged[0].1 = 0.5000001f64.to_bits();
        assert!(!read_ok(
            &Json::parse(&served(&nudged, false).to_string()).unwrap(),
            2,
            Some(&reference)
        ));
        assert!(!read_ok(&Json::parse(&served(&reference, true).to_string()).unwrap(), 2, None));
        assert!(!read_ok(&good, 3, None));

        let mut out = Outcome::default();
        out.check(read_ok(&good, 2, Some(&reference)));
        out.check(read_ok(&corrupted, 2, Some(&reference)));
        assert_eq!((out.attempted, out.failed), (2, 1));
    }

    #[test]
    fn requests_are_single_lines_the_server_parses() {
        let kind = Kind { algorithm: 3, k_percent: 1, epsilon: 0 };
        let line = kind.line(9, 1000);
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        let parsed = Json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed.get("k").and_then(Json::as_u64), Some(20));
        assert_eq!(parsed.get("algorithm").and_then(Json::as_str), Some("bsrbk"));

        let graph = Dataset::Guarantee.generate_scaled(1, 0.01);
        let mut rng = Xoshiro256pp::new(3);
        let delta = random_delta(&mut rng, &graph);
        assert!(delta.validate(&graph).is_ok());
        let update = Json::parse(update_line(2, &delta).trim_end()).unwrap();
        let risks = update.get("self_risk").and_then(Json::as_array).unwrap();
        assert_eq!(risks.len(), 2);
        let p = risks[0].as_array().unwrap()[1].as_f64().unwrap();
        assert_eq!(p.to_bits(), delta.self_risk[0].1.to_bits(), "probabilities round-trip");
    }
}
