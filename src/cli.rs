//! Command-line interface implementation (see the `vulnds` binary).
//!
//! Hand-rolled argument parsing — the dependency budget is spent on the
//! algorithmic crates, and the grammar is small:
//!
//! ```text
//! vulnds stats    <graph>                      print Table-2 style stats
//! vulnds detect   <graph> --k <n> [options]    top-k vulnerable nodes
//! vulnds score    <graph> [--method mc|bottomk] all-node risk scores
//! vulnds bounds   <graph> [--order z]          lower/upper bound summary
//! vulnds serve    <graph> [options]            JSON query service (stdin or TCP)
//! vulnds generate <dataset> <out> [--scale s]  synthetic Table-2 dataset
//! vulnds convert  <in> <out> [--relabel o]     text ↔ binary by extension
//! ```
//!
//! Detection runs through the session-oriented
//! [`vulnds_core::engine::Detector`] engine; every failure
//! (usage, graph I/O, configuration) surfaces as the workspace-wide
//! [`VulnError`]. `detect` and `score` take `--format json` for
//! machine-readable output (the same encoding the `serve` responses
//! use — see [`crate::serve`]).

use std::fmt::Write as _;
use std::num::{NonZeroU64, NonZeroUsize};
use std::str::FromStr;
use ugraph::{GraphStats, NodeOrder, UncertainGraph};
use vulnds_core::engine::{default_threads, DetectRequest, Detector};
use vulnds_core::{
    compute_bounds, score_nodes_bottomk, score_nodes_mc, AlgorithmKind, ApproxParams, VulnConfig,
    VulnError,
};
use vulnds_datasets::Dataset;

use crate::json::Json;
use crate::serve::{
    detect_response_json, parse_algorithm, scores_json, serve_durable, serve_tcp,
    session_stats_json, ServeOptions, UpdateLog,
};
use crate::wal::FsyncPolicy;

/// Output encoding for `detect`/`score`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The line-oriented human format (default).
    #[default]
    Human,
    /// One JSON document, field-compatible with `serve` responses.
    Json,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are given by the grammar above
pub enum Command {
    /// `stats <graph>`
    Stats { path: String },
    /// `detect <graph> --k <n> ...`
    Detect {
        path: String,
        k: usize,
        algorithm: AlgorithmKind,
        config: VulnConfig,
        format: OutputFormat,
    },
    /// `score <graph> --method ...`
    Score { path: String, bottomk: bool, config: VulnConfig, format: OutputFormat },
    /// `serve <graph> --workers <w> [--tcp addr] [--wal path] ...`
    Serve {
        path: String,
        config: VulnConfig,
        tcp: Option<String>,
        options: ServeOptions,
        wal: Option<String>,
        fsync: FsyncPolicy,
        compact_every: Option<u64>,
    },
    /// `wal dump|verify <log>`
    Wal { verify: bool, path: String },
    /// `bounds <graph> --order <z>`
    Bounds { path: String, order: usize },
    /// `generate <dataset> <out> --scale <s> --seed <s>`
    Generate { dataset: Dataset, out: String, scale: f64, seed: u64 },
    /// `convert <in> <out> [--relabel degree|bfs]`
    Convert { input: String, output: String, relabel: Option<NodeOrder> },
    /// `--help` or no arguments.
    Help,
}

fn err(msg: impl Into<String>) -> VulnError {
    VulnError::Usage(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
vulnds — top-k vulnerable nodes detection in uncertain graphs

USAGE:
  vulnds stats    <graph>
  vulnds detect   <graph> --k <n> [--algorithm n|sn|sr|bsr|bsrbk]
                  [--epsilon <e>] [--delta <d>] [--seed <s>]
                  [--threads <t>] [--bound-order <z>]
                  [--format human|json]
  vulnds score    <graph> [--method mc|bottomk] [--seed <s>] [--threads <t>]
                  [--format human|json]
  vulnds bounds   <graph> [--order <z>]
  vulnds serve    <graph> [--workers <w>] [--tcp <addr>] [--seed <s>]
                  [--threads <t>] [--bound-order <z>]
                  [--max-samples <n>] [--default-timeout-ms <ms>]
                  [--max-connections <n>] [--drain-ms <ms>]
                  [--wal <log>] [--fsync always|never]
                  [--compact-every <n>]
  vulnds wal      dump|verify <log>
  vulnds generate <dataset> <out> [--scale <0..1>] [--seed <s>]
                  datasets: bitcoin facebook wiki p2p citation
                            interbank guarantee fraud
  vulnds convert  <in> <out> [--relabel degree|bfs]
                  (.bin extension selects binary format)

--threads defaults to the machine's available parallelism; results are
bit-identical for any thread count. The samplers' superblock width
(worlds per traversal = words x 64) is planned per pass from the
sample budget and the thread count, and every width returns
bit-identical results.

convert --relabel renumbers the nodes for cache-friendly sampling
(degree: hubs first; bfs: breadth-first from the biggest hub) and
writes <out>.ids beside <out>: line i (after a # header) holds the
input id of node i. Detect and serve on <out> then answer in the new
ids; a relabeled graph has different coin streams, so its scores vary
within the same epsilon/delta contract.

serve answers newline-delimited JSON requests (see the vulnds::serve
module docs for the wire format) from one shared session: stdin by
default, or a TCP listener with --tcp host:port. --workers sets the
query worker pool per connection (defaults to available parallelism;
TCP mode serves up to --max-connections clients at once, default 64,
each with its own pool over the one shared session, refusing the rest
with a structured overloaded response); --threads sets the per-query
sampler threads and defaults to 1 in serve mode, the right posture
when many clients query at once. Serve caps every query's sample
budget at --max-samples (default 5000000) so a client-chosen epsilon
cannot pin a worker on an unbounded sampling job.
--default-timeout-ms gives every query a deadline (and caps each
request's own timeout_ms): a query cut off by its deadline returns a
degraded answer — fewer samples, a wider achieved_epsilon, still
bit-identically replayable. Requests past the queue are shed with an
error: overloaded response carrying retry_after_ms. A cmd: shutdown
request (or end of input) stops the intake and drains in-flight
queries for --drain-ms (default 2000) before cancelling them into
degraded answers; serve then flushes and exits 0.

--wal makes serve durable: every acked update request is first
appended to <log> as a checksummed, epoch-numbered record (fsync per
--fsync, default always). On startup serve replays the log — loading
<log>.snapshot as the base when a compaction has written one — and
drops any torn tail, so a kill -9 at any instant loses at most
un-acked updates. --compact-every <n> snapshots the live graph and
rotates the log after every n records. vulnds wal dump prints the
records of a log; vulnds wal verify exits 1 on a corrupt record,
reporting the torn-tail offset.
Graph files: text format (see ugraph::io) or binary (.bin).";

/// Parses a `convert --relabel` value: `degree` or `bfs`.
fn parse_relabel(s: &str) -> Result<NodeOrder, VulnError> {
    match s.to_ascii_lowercase().as_str() {
        "degree" => Ok(NodeOrder::DegreeDescending),
        "bfs" => Ok(NodeOrder::BfsFromHub),
        other => Err(err(format!("--relabel: unknown order {other} (degree|bfs)"))),
    }
}

/// Parses a `--format` value.
fn parse_format(s: &str) -> Result<OutputFormat, VulnError> {
    match s.to_ascii_lowercase().as_str() {
        "human" => Ok(OutputFormat::Human),
        "json" => Ok(OutputFormat::Json),
        other => Err(err(format!("--format: unknown format {other} (human|json)"))),
    }
}

/// Parses an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, VulnError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "stats" => {
            let path = it.next().ok_or_else(|| err("stats: missing <graph> path"))?.clone();
            expect_empty(it)?;
            Ok(Command::Stats { path })
        }
        "detect" => {
            let path = it.next().ok_or_else(|| err("detect: missing <graph> path"))?.clone();
            let rest: Vec<String> = it.cloned().collect();
            let mut k: Option<usize> = None;
            let mut algorithm = AlgorithmKind::BottomK;
            let mut config = VulnConfig::default();
            let mut threads: Option<usize> = None;
            let mut format = OutputFormat::Human;
            let mut epsilon = config.approx.epsilon();
            let mut delta = config.approx.delta();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--k" => k = Some(flag(&rest, &mut i)?),
                    "--algorithm" => algorithm = parse_algorithm(&value(&rest, &mut i)?)?,
                    "--epsilon" => epsilon = flag(&rest, &mut i)?,
                    "--delta" => delta = flag(&rest, &mut i)?,
                    "--seed" => config.seed = flag(&rest, &mut i)?,
                    "--threads" => threads = Some(flag(&rest, &mut i)?),
                    "--bound-order" => config.bound_order = flag(&rest, &mut i)?,
                    "--format" => format = parse_format(&value(&rest, &mut i)?)?,
                    other => return Err(err(format!("detect: unknown option {other}"))),
                }
                i += 1;
            }
            config.approx = ApproxParams::new(epsilon, delta)?;
            config.threads = threads.unwrap_or_else(default_threads).max(1);
            let k = k.ok_or_else(|| err("detect: --k is required"))?;
            Ok(Command::Detect { path, k, algorithm, config, format })
        }
        "score" => {
            let path = it.next().ok_or_else(|| err("score: missing <graph> path"))?.clone();
            let rest: Vec<String> = it.cloned().collect();
            let mut bottomk = false;
            let mut config = VulnConfig::default();
            let mut threads: Option<usize> = None;
            let mut format = OutputFormat::Human;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--method" => {
                        bottomk = match value(&rest, &mut i)?.as_str() {
                            "mc" => false,
                            "bottomk" => true,
                            other => return Err(err(format!("--method: unknown method {other}"))),
                        }
                    }
                    "--seed" => config.seed = flag(&rest, &mut i)?,
                    "--threads" => threads = Some(flag(&rest, &mut i)?),
                    "--format" => format = parse_format(&value(&rest, &mut i)?)?,
                    other => return Err(err(format!("score: unknown option {other}"))),
                }
                i += 1;
            }
            config.threads = threads.unwrap_or_else(default_threads).max(1);
            Ok(Command::Score { path, bottomk, config, format })
        }
        "serve" => {
            let path = it.next().ok_or_else(|| err("serve: missing <graph> path"))?.clone();
            let rest: Vec<String> = it.cloned().collect();
            let mut config = VulnConfig::default();
            let mut threads: Option<usize> = None;
            let mut workers: Option<usize> = None;
            let mut tcp: Option<String> = None;
            let mut max_samples = crate::serve::DEFAULT_SERVE_MAX_SAMPLES;
            let mut default_timeout_ms: Option<u64> = None;
            let mut max_connections = crate::serve::MAX_CONNECTIONS;
            let mut drain_ms = crate::serve::DEFAULT_DRAIN_MS;
            let mut wal: Option<String> = None;
            let mut fsync = FsyncPolicy::Always;
            let mut compact_every: Option<u64> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--workers" => workers = Some(flag(&rest, &mut i)?),
                    "--tcp" => tcp = Some(value(&rest, &mut i)?),
                    "--wal" => wal = Some(value(&rest, &mut i)?),
                    "--fsync" => {
                        let v = value(&rest, &mut i)?;
                        fsync = FsyncPolicy::parse(&v).ok_or_else(|| {
                            err(format!("--fsync: unknown policy {v} (always|never)"))
                        })?
                    }
                    "--compact-every" => {
                        compact_every = Some(flag::<NonZeroU64>(&rest, &mut i)?.get())
                    }
                    "--max-samples" => max_samples = flag::<NonZeroU64>(&rest, &mut i)?.get(),
                    "--default-timeout-ms" => default_timeout_ms = Some(flag(&rest, &mut i)?),
                    "--max-connections" => {
                        max_connections = flag::<NonZeroUsize>(&rest, &mut i)?.get()
                    }
                    "--drain-ms" => drain_ms = flag(&rest, &mut i)?,
                    "--seed" => config.seed = flag(&rest, &mut i)?,
                    "--threads" => threads = Some(flag(&rest, &mut i)?),
                    "--bound-order" => config.bound_order = flag(&rest, &mut i)?,
                    other => return Err(err(format!("serve: unknown option {other}"))),
                }
                i += 1;
            }
            // Serving posture: many concurrent clients, so the worker
            // pool gets the parallelism, each query's samplers stay
            // single-threaded unless told otherwise, and every budget
            // is capped — clients pick ε/δ per request, and without a
            // cap a hostile ε (e.g. 1e-9) is a denial of service.
            config.threads = threads.unwrap_or(1).max(1);
            config.max_samples = Some(max_samples);
            let options = ServeOptions {
                workers: workers.unwrap_or_else(default_threads).max(1),
                default_timeout_ms,
                drain_ms,
                max_connections,
                ..ServeOptions::default()
            };
            Ok(Command::Serve { path, config, tcp, options, wal, fsync, compact_every })
        }
        "wal" => {
            let action = it.next().ok_or_else(|| err("wal: missing action (dump|verify)"))?;
            let verify = match action.as_str() {
                "dump" => false,
                "verify" => true,
                other => return Err(err(format!("wal: unknown action {other} (dump|verify)"))),
            };
            let path = it.next().ok_or_else(|| err("wal: missing <log> path"))?.clone();
            expect_empty(it)?;
            Ok(Command::Wal { verify, path })
        }
        "bounds" => {
            let path = it.next().ok_or_else(|| err("bounds: missing <graph> path"))?.clone();
            let rest: Vec<String> = it.cloned().collect();
            let mut order = 2;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--order" => order = flag::<NonZeroUsize>(&rest, &mut i)?.get(),
                    other => return Err(err(format!("bounds: unknown option {other}"))),
                }
                i += 1;
            }
            Ok(Command::Bounds { path, order })
        }
        "generate" => {
            let name = it.next().ok_or_else(|| err("generate: missing <dataset>"))?;
            let dataset = parse_dataset(name)?;
            let out = it.next().ok_or_else(|| err("generate: missing <out> path"))?.clone();
            let rest: Vec<String> = it.cloned().collect();
            let mut scale = 1.0;
            let mut seed = 42;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--scale" => scale = flag(&rest, &mut i)?,
                    "--seed" => seed = flag(&rest, &mut i)?,
                    other => return Err(err(format!("generate: unknown option {other}"))),
                }
                i += 1;
            }
            Ok(Command::Generate { dataset, out, scale, seed })
        }
        "convert" => {
            let input = it.next().ok_or_else(|| err("convert: missing <in> path"))?.clone();
            let output = it.next().ok_or_else(|| err("convert: missing <out> path"))?.clone();
            let relabel = match it.next().map(String::as_str) {
                None => None,
                Some("--relabel") => {
                    let order = it.next().ok_or_else(|| err("--relabel: missing value"))?;
                    Some(parse_relabel(order)?)
                }
                Some(other) => return Err(err(format!("convert: unknown option {other}"))),
            };
            expect_empty(it)?;
            Ok(Command::Convert { input, output, relabel })
        }
        other => Err(err(format!("unknown command {other}; see --help"))),
    }
}

/// Shared tail of `Command::Serve`: bind-or-stdin serving over an
/// already-recovered detector, with an optional durable update log.
fn run_serve(
    detector: &Detector,
    tcp: Option<String>,
    options: &ServeOptions,
    updates: Option<&UpdateLog>,
    out: String,
) -> Result<String, VulnError> {
    match tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| VulnError::Usage(format!("serve: cannot bind {addr}: {e}")))?;
            // Print the *bound* address: with a `:0` port the
            // kernel picks, and harness-driven clients (the
            // fault-injection suite) parse this line to find it.
            let bound =
                listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.clone());
            eprintln!(
                "vulnds serve: listening on {bound} ({} workers per connection, max {} connections)",
                options.workers, options.max_connections
            );
            serve_tcp(detector, listener, options, updates)?;
            eprintln!("vulnds serve: drained and stopped");
        }
        None => {
            // `StdoutLock` is not `Send`; the handle itself is,
            // and locks per `write` call. The summary goes to
            // stderr: stdout is the NDJSON response stream and
            // must stay machine-parseable to the last line.
            let stdin = std::io::stdin();
            let summary =
                serve_durable(detector, options, updates, stdin.lock(), std::io::stdout())?;
            eprintln!(
                "vulnds serve: answered {} requests ({} shed{})",
                summary.requests,
                summary.shed,
                if summary.shutdown { ", shutdown requested" } else { "" }
            );
        }
    }
    Ok(out)
}

fn value(rest: &[String], i: &mut usize) -> Result<String, VulnError> {
    *i += 1;
    rest.get(*i).cloned().ok_or_else(|| err(format!("{}: missing value", rest[*i - 1])))
}

/// A typed flag value, and what its parse error says the value is not.
trait FlagValue: FromStr {
    const WANTED: &'static str;
}

impl FlagValue for u64 {
    const WANTED: &'static str = "an integer";
}

impl FlagValue for usize {
    const WANTED: &'static str = "an integer";
}

impl FlagValue for f64 {
    const WANTED: &'static str = "a number";
}

impl FlagValue for NonZeroU64 {
    const WANTED: &'static str = "a positive integer";
}

impl FlagValue for NonZeroUsize {
    const WANTED: &'static str = "a positive integer";
}

/// Reads the value of the flag at `rest[*i]` (advancing `i` past it) as
/// a `T`, failing with `<flag>: not <T::WANTED>`.
fn flag<T: FlagValue>(rest: &[String], i: &mut usize) -> Result<T, VulnError> {
    let text = value(rest, i)?;
    text.parse().map_err(|_| err(format!("{}: not {}", rest[*i - 1], T::WANTED)))
}

fn expect_empty<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<(), VulnError> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(err(format!("unexpected argument {extra}"))),
    }
}

fn parse_dataset(s: &str) -> Result<Dataset, VulnError> {
    match s.to_ascii_lowercase().as_str() {
        "bitcoin" => Ok(Dataset::Bitcoin),
        "facebook" => Ok(Dataset::Facebook),
        "wiki" => Ok(Dataset::Wiki),
        "p2p" => Ok(Dataset::P2P),
        "citation" => Ok(Dataset::Citation),
        "interbank" => Ok(Dataset::Interbank),
        "guarantee" => Ok(Dataset::Guarantee),
        "fraud" => Ok(Dataset::Fraud),
        other => Err(err(format!("unknown dataset {other}"))),
    }
}

fn load(path: &str) -> Result<UncertainGraph, VulnError> {
    let result = if path.ends_with(".bin") {
        ugraph::io_binary::load_binary(path)
    } else {
        ugraph::io::load_from_path(path)
    };
    result.map_err(|error| VulnError::File { path: path.to_string(), error })
}

fn save(g: &UncertainGraph, path: &str) -> Result<(), VulnError> {
    let result = if path.ends_with(".bin") {
        ugraph::io_binary::save_binary(g, path)
    } else {
        ugraph::io::save_to_path(g, path)
    };
    result.map_err(|error| VulnError::File { path: path.to_string(), error })
}

/// Executes a command, returning the text to print.
pub fn run(command: Command) -> Result<String, VulnError> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Stats { path } => {
            let g = load(&path)?;
            let s = GraphStats::compute(&g);
            let _ = writeln!(out, "nodes:            {}", s.nodes);
            let _ = writeln!(out, "edges:            {}", s.edges);
            let _ = writeln!(out, "avg degree:       {:.3}", s.avg_degree);
            let _ = writeln!(out, "max degree:       {}", s.max_degree);
            let _ = writeln!(out, "max in-degree:    {}", s.max_in_degree);
            let _ = writeln!(out, "max out-degree:   {}", s.max_out_degree);
            let _ = writeln!(out, "mean self-risk:   {:.4}", s.mean_self_risk);
            let _ = writeln!(out, "mean edge prob:   {:.4}", s.mean_edge_prob);
            let scc = ugraph::strongly_connected_components(&g);
            let _ = writeln!(
                out,
                "SCCs:             {} ({} non-trivial)",
                scc.count,
                scc.non_trivial().len()
            );
        }
        Command::Detect { path, k, algorithm, config, format } => {
            let g = load(&path)?;
            if k == 0 || k > g.num_nodes() {
                return Err(err(format!("--k must be in 1..={}", g.num_nodes())));
            }
            let detector = Detector::builder(g).config(config).build()?;
            let r = detector.detect(&DetectRequest::new(k, algorithm))?;
            let session = detector.session_stats();
            if format == OutputFormat::Json {
                let doc = match detect_response_json(&r) {
                    Json::Obj(mut fields) => {
                        fields.push(("session".to_string(), session_stats_json(&session)));
                        Json::Obj(fields)
                    }
                    other => other,
                };
                let _ = writeln!(out, "{doc}");
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "# algorithm {} | samples {}/{} | candidates {} | verified {} | {:?}",
                algorithm.label(),
                r.stats.samples_used,
                r.stats.sample_budget,
                r.stats.candidates,
                r.stats.verified,
                r.stats.elapsed
            );
            let _ = writeln!(
                out,
                "# coins coin-words {} | lazy edge-words skipped {}",
                r.engine.coin_words_synthesized, r.engine.lazy_edge_words_skipped
            );
            let _ = writeln!(
                out,
                "# blocks block-words {} | superblocks {}",
                r.engine.block_words, r.engine.superblocks
            );
            let _ = writeln!(
                out,
                "# traffic queries {} | degraded {} | cancelled {} | shed {} | in-flight {} | \
                 epoch {} | graph-version {} | caches revalidated {} | repaired {} | \
                 invalidated {}",
                session.queries,
                session.queries_degraded,
                session.queries_cancelled,
                session.requests_shed,
                session.in_flight,
                session.epoch,
                session.graph_version,
                session.caches_revalidated,
                session.caches_repaired,
                session.caches_invalidated
            );
            let _ = writeln!(out, "# rank node score");
            for (rank, s) in r.top_k.iter().enumerate() {
                let _ = writeln!(out, "{} {} {:.6}", rank + 1, s.node.0, s.score);
            }
        }
        Command::Score { path, bottomk, config, format } => {
            let g = load(&path)?;
            let k_hint = (g.num_nodes() / 10).max(1);
            let method = if bottomk { "bottomk" } else { "mc" };
            let scores = if bottomk {
                score_nodes_bottomk(&g, k_hint, &config)
            } else {
                score_nodes_mc(&g, k_hint, &config)
            };
            if format == OutputFormat::Json {
                let _ = writeln!(out, "{}", scores_json(method, &scores));
                return Ok(out);
            }
            let _ = writeln!(out, "# node score ({method})");
            for (v, s) in scores.iter().enumerate() {
                let _ = writeln!(out, "{v} {s:.6}");
            }
        }
        Command::Serve { path, config, tcp, options, wal, fsync, compact_every } => {
            let mut g = load(&path)?;
            // Durable startup: a compaction snapshot, when present,
            // replaces the input graph as the replay base; the WAL's
            // base epoch then matches the snapshot and every surviving
            // record re-applies through the engine so caches, bounds,
            // and epoch counters rebuild exactly as if the deltas had
            // just been committed.
            if let Some(wal_path) = &wal {
                let snapshot = crate::wal::snapshot_path(std::path::Path::new(wal_path));
                if snapshot.exists() {
                    g = ugraph::io_binary::load_binary(&snapshot).map_err(|e| {
                        VulnError::Corrupt(format!("snapshot {}: {e}", snapshot.display()))
                    })?;
                }
                let (log, scan) =
                    crate::wal::Wal::recover(std::path::Path::new(wal_path), fsync)
                        .map_err(|e| VulnError::Usage(format!("serve: wal {wal_path}: {e}")))?;
                if let Some(torn) = &scan.torn {
                    eprintln!(
                        "vulnds serve: wal {wal_path}: dropped torn tail at offset {} ({} bytes: {})",
                        torn.offset, torn.dropped_bytes, torn.reason
                    );
                }
                eprintln!(
                    "vulnds serve: wal {wal_path}: base epoch {}, replaying {} record(s)",
                    scan.base_epoch,
                    scan.records.len()
                );
                let detector = Detector::builder(g).config(config).build()?;
                for record in &scan.records {
                    detector.apply_delta(&record.delta).map_err(|e| {
                        VulnError::Corrupt(format!("wal {wal_path}: epoch {}: {e}", record.epoch))
                    })?;
                }
                let updates = UpdateLog::new(log, compact_every);
                return run_serve(&detector, tcp, &options, Some(&updates), out);
            }
            let detector = Detector::builder(g).config(config).build()?;
            return run_serve(&detector, tcp, &options, None, out);
        }
        Command::Wal { verify, path } => {
            let scan = crate::wal::scan(std::path::Path::new(&path))
                .map_err(|e| VulnError::Corrupt(format!("wal {path}: {e}")))?;
            let _ = writeln!(
                out,
                "# wal {path} | base epoch {} | records {} | committed bytes {}",
                scan.base_epoch,
                scan.records.len(),
                scan.committed_len()
            );
            if !verify {
                let _ = writeln!(out, "# epoch offset bytes nodes-touched edges-touched");
                for r in &scan.records {
                    let _ = writeln!(
                        out,
                        "{} {} {} {} {}",
                        r.epoch,
                        r.offset,
                        r.delta.encode().len(),
                        r.delta.self_risk.len(),
                        r.delta.edge_prob.len()
                    );
                }
            }
            if let Some(torn) = &scan.torn {
                return Err(VulnError::Corrupt(format!(
                    "wal {path}: torn tail at offset {} ({} bytes dropped: {})",
                    torn.offset, torn.dropped_bytes, torn.reason
                )));
            }
            let _ = writeln!(out, "# verify ok");
        }
        Command::Bounds { path, order } => {
            let g = load(&path)?;
            let (lower, upper) = compute_bounds(&g, order, Default::default());
            let _ = writeln!(out, "# node lower upper (order {order})");
            for v in 0..g.num_nodes() {
                let _ = writeln!(out, "{v} {:.6} {:.6}", lower[v], upper[v]);
            }
        }
        Command::Generate { dataset, out: path, scale, seed } => {
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(err("--scale must be in (0, 1]"));
            }
            let g = dataset.generate_scaled(seed, scale);
            save(&g, &path)?;
            let s = GraphStats::compute(&g);
            let _ =
                writeln!(out, "wrote {} ({} nodes, {} edges) to {path}", dataset, s.nodes, s.edges);
        }
        Command::Convert { input, output, relabel } => {
            let g = load(&input)?;
            match relabel {
                None => save(&g, &output)?,
                Some(order) => {
                    let (relabeled, map) = g.relabeled(order);
                    save(&relabeled, &output)?;
                    let ids = format!("{output}.ids");
                    let mut text = format!("# original id of each node of {output}, in order\n");
                    for new in 0..map.len() as u32 {
                        let _ = writeln!(text, "{}", map.to_old(ugraph::NodeId(new)).0);
                    }
                    std::fs::write(&ids, text)
                        .map_err(|e| err(format!("convert: cannot write {ids}: {e}")))?;
                    let _ = writeln!(out, "wrote node ids to {ids}");
                }
            }
            let _ = writeln!(out, "converted {input} -> {output}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_detect_with_options() {
        let c = parse(&args(
            "detect g.txt --k 10 --algorithm bsr --epsilon 0.2 --delta 0.05 --seed 7 --threads 4 --bound-order 3",
        ))
        .unwrap();
        match c {
            Command::Detect { path, k, algorithm, config, format } => {
                assert_eq!(path, "g.txt");
                assert_eq!(k, 10);
                assert_eq!(algorithm, AlgorithmKind::BoundedSampleReverse);
                assert_eq!(config.approx.epsilon(), 0.2);
                assert_eq!(config.approx.delta(), 0.05);
                assert_eq!(config.seed, 7);
                assert_eq!(config.threads, 4);
                assert_eq!(config.bound_order, 3);
                assert_eq!(format, OutputFormat::Human);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // BSRBK's stop reads no bottom-k parameter, so neither command
        // takes one.
        assert!(parse(&args("detect g.txt --k 3 --bk 8")).is_err());
        assert!(parse(&args("serve g.txt --bk 16")).is_err());
    }

    #[test]
    fn parses_direction_and_relabel_values() {
        // The forward kernel has one traversal policy, so neither command
        // takes a direction.
        for value in ["push", "pull", "auto"] {
            assert!(parse(&args(&format!("detect g.txt --k 3 --direction {value}"))).is_err());
            assert!(parse(&args(&format!("serve g.txt --direction {value}"))).is_err());
        }

        // Relabeling happens once, at ingest: `convert` takes the order,
        // and leaving the flag off keeps the input's ids.
        for (line, expected) in [
            ("convert g.txt g.bin", None),
            ("convert g.txt g.bin --relabel degree", Some(NodeOrder::DegreeDescending)),
            ("convert g.txt g.bin --relabel bfs", Some(NodeOrder::BfsFromHub)),
        ] {
            match parse(&args(line)).unwrap() {
                Command::Convert { relabel, .. } => assert_eq!(relabel, expected, "{line}"),
                other => panic!("wrong command: {other:?}"),
            }
        }
        for line in [
            "convert g.txt g.bin --relabel hilbert",
            "convert g.txt g.bin --relabel none",
            "convert g.txt g.bin --relabel",
            "convert g.txt g.bin --relabel bfs extra",
            "convert g.txt g.bin --frobnicate",
            // A session answers in its graph file's ids only, so detect
            // takes no order.
            "detect g.txt --k 3 --relabel none",
            "detect g.txt --k 3 --relabel degree",
            "detect g.txt --k 3 --relabel bfs",
        ] {
            assert!(parse(&args(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_serve_with_options() {
        let c = parse(&args("serve g.txt --workers 6 --tcp 127.0.0.1:7070 --seed 9")).unwrap();
        match c {
            Command::Serve { path, config, tcp, options, .. } => {
                assert_eq!(path, "g.txt");
                assert_eq!(options.workers, 6);
                assert_eq!(tcp.as_deref(), Some("127.0.0.1:7070"));
                assert_eq!(config.seed, 9);
                assert_eq!(config.threads, 1, "serve defaults per-query samplers to 1 thread");
                assert_eq!(
                    config.max_samples,
                    Some(crate::serve::DEFAULT_SERVE_MAX_SAMPLES),
                    "serve must cap budgets by default (hostile-epsilon DoS guard)"
                );
                assert_eq!(options.default_timeout_ms, None);
                assert_eq!(options.max_connections, crate::serve::MAX_CONNECTIONS);
                assert_eq!(options.drain_ms, crate::serve::DEFAULT_DRAIN_MS);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("serve g.txt --max-samples 1000")).unwrap() {
            Command::Serve { config, .. } => assert_eq!(config.max_samples, Some(1000)),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("serve g.txt --max-samples 0")).is_err());
        assert!(parse(&args("serve g.txt --max-samples lots")).is_err());
        // Defaults: stdin mode, worker pool sized to the machine.
        match parse(&args("serve g.txt")).unwrap() {
            Command::Serve { tcp, options, .. } => {
                assert_eq!(options.workers, default_threads().max(1));
                assert_eq!(tcp, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("serve")).is_err());
        assert!(parse(&args("serve g.txt --frobnicate yes")).is_err());
    }

    #[test]
    fn parses_serve_durability_flags_and_wal_subcommand() {
        match parse(&args("serve g.bin --wal g.wal --fsync never --compact-every 32")).unwrap() {
            Command::Serve { wal, fsync, compact_every, .. } => {
                assert_eq!(wal.as_deref(), Some("g.wal"));
                assert_eq!(fsync, FsyncPolicy::Never);
                assert_eq!(compact_every, Some(32));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: no log, fsync on every append, no compaction.
        match parse(&args("serve g.bin")).unwrap() {
            Command::Serve { wal, fsync, compact_every, .. } => {
                assert_eq!(wal, None);
                assert_eq!(fsync, FsyncPolicy::Always);
                assert_eq!(compact_every, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("serve g.bin --fsync sometimes")).is_err());
        assert!(parse(&args("serve g.bin --compact-every 0")).is_err());
        assert!(parse(&args("serve g.bin --compact-every many")).is_err());

        match parse(&args("wal dump g.wal")).unwrap() {
            Command::Wal { verify, path } => {
                assert!(!verify);
                assert_eq!(path, "g.wal");
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(matches!(
            parse(&args("wal verify g.wal")).unwrap(),
            Command::Wal { verify: true, .. }
        ));
        assert!(parse(&args("wal g.wal")).is_err());
        assert!(parse(&args("wal verify")).is_err());
        assert!(parse(&args("wal verify g.wal extra")).is_err());
    }

    #[test]
    fn wal_dump_and_verify_report_records_and_corruption() {
        use std::io::{Seek, SeekFrom, Write as _};

        let dir = std::env::temp_dir().join("vulnds_cli_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("updates.wal");
        let mut wal = crate::wal::Wal::create(&log, 0, FsyncPolicy::Never).unwrap();
        wal.append(1, &ugraph::GraphDelta::default().set_self_risk(ugraph::NodeId(2), 0.5))
            .unwrap();
        wal.append(
            2,
            &ugraph::GraphDelta::default()
                .set_edge_prob(ugraph::EdgeId(0), 0.25)
                .set_self_risk(ugraph::NodeId(1), 0.75),
        )
        .unwrap();
        drop(wal);
        let log_s = log.to_string_lossy().to_string();

        let dump = run(parse(&args(&format!("wal dump {log_s}"))).unwrap()).unwrap();
        assert!(dump.contains("base epoch 0"), "{dump}");
        assert!(dump.contains("records 2"), "{dump}");
        let rows: Vec<&str> = dump.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(rows.len(), 2, "{dump}");
        assert!(rows[0].starts_with("1 "), "{dump}");
        assert!(rows[1].starts_with("2 "), "{dump}");

        let verify = run(parse(&args(&format!("wal verify {log_s}"))).unwrap()).unwrap();
        assert!(verify.contains("# verify ok"), "{verify}");

        // Flip one payload byte in the second record: verify must fail
        // with the corruption error (exit 1 at the binary), naming the
        // torn-tail offset, while dump-without-verify of the intact
        // prefix still works.
        let len = std::fs::metadata(&log).unwrap().len();
        let mut f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
        f.seek(SeekFrom::Start(len - 6)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        let err = run(parse(&args(&format!("wal verify {log_s}"))).unwrap()).unwrap_err();
        match &err {
            VulnError::Corrupt(msg) => {
                assert!(msg.contains("torn tail at offset"), "{msg}");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn parses_serve_robustness_options() {
        let c =
            parse(&args("serve g.txt --default-timeout-ms 250 --max-connections 8 --drain-ms 750"))
                .unwrap();
        match c {
            Command::Serve { options, .. } => {
                assert_eq!(options.default_timeout_ms, Some(250));
                assert_eq!(options.max_connections, 8);
                assert_eq!(options.drain_ms, 750);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("serve g.txt --default-timeout-ms soon")).is_err());
        assert!(parse(&args("serve g.txt --max-connections 0")).is_err());
        assert!(parse(&args("serve g.txt --max-connections many")).is_err());
        assert!(parse(&args("serve g.txt --drain-ms gently")).is_err());
    }

    #[test]
    fn parses_format_values() {
        for (value, expected) in [("human", OutputFormat::Human), ("json", OutputFormat::Json)] {
            match parse(&args(&format!("detect g.txt --k 3 --format {value}"))).unwrap() {
                Command::Detect { format, .. } => assert_eq!(format, expected),
                other => panic!("wrong command: {other:?}"),
            }
            match parse(&args(&format!("score g.txt --format {value}"))).unwrap() {
                Command::Score { format, .. } => assert_eq!(format, expected),
                other => panic!("wrong command: {other:?}"),
            }
        }
        assert!(parse(&args("detect g.txt --k 3 --format yaml")).is_err());
    }

    #[test]
    fn rejects_the_block_words_flag() {
        // The planner is the only source of a pass's width, so no
        // command takes one.
        for value in ["auto", "1", "2", "4", "8"] {
            for cmd in ["detect g.txt --k 3", "score g.txt", "serve g.txt"] {
                let line = format!("{cmd} --block-words {value}");
                assert!(parse(&args(&line)).is_err(), "{line}");
            }
        }
    }

    #[test]
    fn threads_default_to_available_parallelism() {
        for cmd in ["detect g.txt --k 3", "score g.txt"] {
            let threads = match parse(&args(cmd)).unwrap() {
                Command::Detect { config, .. } | Command::Score { config, .. } => config.threads,
                other => panic!("wrong command: {other:?}"),
            };
            assert_eq!(threads, default_threads().max(1), "{cmd}");
        }
    }

    #[test]
    fn detect_requires_k() {
        let e = parse(&args("detect g.txt")).unwrap_err();
        assert!(e.to_string().contains("--k"));
        assert!(matches!(e, VulnError::Usage(_)));
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse(&args("detect g.txt --k 3 --frobnicate yes")).is_err());
        assert!(parse(&args("warp g.txt")).is_err());
        assert!(parse(&args("detect g.txt --k 3 --algorithm quantum")).is_err());
        assert!(parse(&args("generate mars out.txt")).is_err());
        // Invalid (ε, δ) surfaces as the unified configuration error.
        assert!(matches!(
            parse(&args("detect g.txt --k 3 --epsilon 2.0")),
            Err(VulnError::Config(_))
        ));
    }

    #[test]
    fn parses_all_datasets() {
        for name in
            ["bitcoin", "facebook", "wiki", "p2p", "citation", "interbank", "guarantee", "fraud"]
        {
            let c = parse(&args(&format!("generate {name} out.txt"))).unwrap();
            assert!(matches!(c, Command::Generate { .. }), "{name}");
        }
    }

    #[test]
    fn end_to_end_generate_stats_detect_convert() {
        let dir = std::env::temp_dir().join("vulnds_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        let bin = dir.join("g.bin").to_string_lossy().to_string();

        let msg =
            run(parse(&args(&format!("generate interbank {txt} --scale 1.0 --seed 3"))).unwrap())
                .unwrap();
        assert!(msg.contains("125 nodes"), "{msg}");

        let stats = run(parse(&args(&format!("stats {txt}"))).unwrap()).unwrap();
        assert!(stats.contains("nodes:            125"), "{stats}");
        assert!(stats.contains("SCCs"), "{stats}");

        let det =
            run(parse(&args(&format!("detect {txt} --k 5 --algorithm bsrbk --seed 2"))).unwrap())
                .unwrap();
        assert!(det.lines().count() >= 8, "{det}");
        assert!(det.contains("# algorithm BSRBK"), "{det}");
        assert!(det.contains("# coins coin-words"), "{det}");
        assert!(det.contains("# blocks block-words"), "{det}");

        let conv = run(parse(&args(&format!("convert {txt} {bin}"))).unwrap()).unwrap();
        assert!(conv.contains("converted"));
        // Binary file loads and detects identically.
        let det2 =
            run(parse(&args(&format!("detect {bin} --k 5 --algorithm bsrbk --seed 2"))).unwrap())
                .unwrap();
        assert_eq!(
            det.lines().skip(1).collect::<Vec<_>>(),
            det2.lines().skip(1).collect::<Vec<_>>(),
            "text vs binary detection differ"
        );

        let bounds = run(parse(&args(&format!("bounds {txt} --order 2"))).unwrap()).unwrap();
        assert_eq!(bounds.lines().count(), 126); // header + 125 nodes

        let score =
            run(parse(&args(&format!("score {txt} --method bottomk --seed 4"))).unwrap()).unwrap();
        assert_eq!(score.lines().count(), 126);

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn threads_do_not_change_cli_output() {
        let dir = std::env::temp_dir().join("vulnds_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        run(parse(&args(&format!("generate interbank {txt} --scale 1.0"))).unwrap()).unwrap();
        // Rankings are byte-identical for any thread count; the
        // `#`-prefixed diagnostics (elapsed time, planned superblock
        // width, coin counters) reflect execution strategy and may
        // differ.
        for algorithm in ["sn", "bsrbk"] {
            let detect = |threads: usize| {
                run(parse(&args(&format!(
                    "detect {txt} --k 5 --algorithm {algorithm} --threads {threads} --seed 2"
                )))
                .unwrap())
                .unwrap()
            };
            let one = detect(1);
            let four = detect(4);
            assert_eq!(
                one.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>(),
                four.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>(),
                "{algorithm}: thread count changed the ranking"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn block_words_do_not_change_cli_ranking() {
        let dir = std::env::temp_dir().join("vulnds_cli_width_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        run(parse(&args(&format!("generate interbank {txt} --scale 1.0"))).unwrap()).unwrap();
        // The planner reads --threads, so N's 20,000 worlds run at width 8
        // on one thread and at width 4 on 32, as the `# blocks` line
        // reports.
        let (mut rankings, mut widths) = (Vec::new(), std::collections::BTreeSet::new());
        for threads in [1, 32] {
            let out = run(parse(&args(&format!(
                "detect {txt} --k 5 --algorithm n --seed 2 --threads {threads}"
            )))
            .unwrap())
            .unwrap();
            let blocks = out.lines().find(|l| l.starts_with("# blocks")).unwrap();
            widths.insert(blocks.split_whitespace().nth(3).unwrap().to_string());
            // Compare the ranking lines only: the coin/superblock
            // diagnostics legitimately vary with the width.
            rankings
                .push(out.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n"));
        }
        assert!(widths.len() >= 2, "thread counts must plan different widths: {widths:?}");
        for (i, r) in rankings.iter().enumerate().skip(1) {
            assert_eq!(r, &rankings[0], "thread variant {i} changed the ranking");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn relabel_convert_maps_answers_to_original_ids() {
        let dir = std::env::temp_dir().join("vulnds_cli_relabel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        let bfs = dir.join("g_bfs.txt").to_string_lossy().to_string();
        run(parse(&args(&format!("generate interbank {txt} --scale 1.0 --seed 3"))).unwrap())
            .unwrap();
        let msg =
            run(parse(&args(&format!("convert {txt} {bfs} --relabel bfs"))).unwrap()).unwrap();
        assert!(msg.contains(&format!("{bfs}.ids")), "{msg}");

        // The id map is a `#` header, then one input id per node of the
        // written graph: a permutation of 0..n.
        let ids_text = std::fs::read_to_string(format!("{bfs}.ids")).unwrap();
        assert!(ids_text.starts_with('#'), "{ids_text}");
        let ids: Vec<u32> =
            ids_text.lines().filter(|l| !l.starts_with('#')).map(|l| l.parse().unwrap()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..125).collect::<Vec<u32>>());

        // Detecting on the written file and mapping through the ids file
        // answers bit for bit like an in-process session on the
        // relabeled graph mapped through its `NodeMap`.
        let g = load(&txt).unwrap();
        let (relabeled, map) = g.relabeled(NodeOrder::BfsFromHub);
        assert_eq!(load(&bfs).unwrap(), relabeled);
        let config = VulnConfig::default().with_seed(2).with_threads(1);
        let session = Detector::builder(relabeled).config(config).build().unwrap();
        for kind in AlgorithmKind::ALL {
            let label = kind.label().to_ascii_lowercase();
            let out = run(parse(&args(&format!(
                "detect {bfs} --k 5 --algorithm {label} --seed 2 --threads 1 --format json"
            )))
            .unwrap())
            .unwrap();
            let doc = Json::parse(out.trim()).unwrap();
            let got: Vec<(u32, u64)> = doc
                .get("top_k")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    let node = e.get("node").and_then(Json::as_u64).unwrap() as usize;
                    (ids[node], e.get("score").and_then(Json::as_f64).unwrap().to_bits())
                })
                .collect();
            let want: Vec<(u32, u64)> = session
                .detect(&DetectRequest::new(5, kind))
                .unwrap()
                .top_k
                .iter()
                .map(|s| (map.to_old(s.node).0, s.score.to_bits()))
                .collect();
            assert_eq!(got, want, "{kind}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn detect_and_bounds_reject_bound_order_zero() {
        let dir = std::env::temp_dir().join("vulnds_cli_order_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        run(parse(&args(&format!("generate interbank {txt} --scale 1.0"))).unwrap()).unwrap();
        let line = format!("detect {txt} --k 3 --algorithm bsr --bound-order 0");
        let e = run(parse(&args(&line)).unwrap()).unwrap_err();
        assert!(matches!(e, VulnError::InvalidParameter(_)), "{e:?}");
        let e = parse(&args(&format!("bounds {txt} --order 0"))).unwrap_err();
        assert!(e.to_string().contains("--order"), "{e}");
        assert!(run(parse(&args(&format!("bounds {txt} --order 1"))).unwrap()).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn detect_validates_k_against_graph() {
        let dir = std::env::temp_dir().join("vulnds_cli_k_test");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt").to_string_lossy().to_string();
        run(parse(&args(&format!("generate interbank {txt} --scale 1.0"))).unwrap()).unwrap();
        let e = run(parse(&args(&format!("detect {txt} --k 0"))).unwrap()).unwrap_err();
        assert!(e.to_string().contains("--k must be"), "{e}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_reports_missing_file() {
        let e = run(Command::Stats { path: "/nonexistent/g.txt".into() }).unwrap_err();
        assert!(matches!(e, VulnError::File { .. }), "{e:?}");
        assert!(e.to_string().contains("/nonexistent/g.txt"), "{e}");
    }
}
