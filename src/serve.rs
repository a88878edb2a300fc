//! The `vulnds serve` front end: a zero-dependency query service over
//! one shared [`Detector`] session.
//!
//! Requests are newline-delimited JSON objects, answered by a pool of
//! worker threads that all query the **same** session through `&self` —
//! the 0.4 concurrency contract ([`Detector`] is `Send + Sync`, answers
//! are bit-identical to serial execution) is what makes this front end
//! a thin loop: no per-client session, no request serialization, and
//! every client compounds the same bounds/reduction/sampled-world
//! caches.
//!
//! ```text
//! # request (one per line; `id` is echoed back, any JSON value)
//! {"id": 1, "cmd": "detect", "k": 5, "algorithm": "bsrbk", "epsilon": 0.2, "seed": 7}
//! {"id": 2, "cmd": "batch", "requests": [{"k": 5, "algorithm": "sn"}, {"k": 9, "algorithm": "sn"}]}
//! {"id": 7, "cmd": "update", "self_risk": [[4, 0.5]], "edges": [[0, 5, 0.7]]}
//! {"id": 3, "cmd": "stats"}
//! {"id": 4, "cmd": "clear"}
//! {"id": 5, "k": 5, "timeout_ms": 50, "sample_cap": 100000}
//! {"id": 6, "cmd": "shutdown"}
//!
//! # response (one per line; order may differ from request order — match by id)
//! {"id": 1, "ok": true, "top_k": [{"node": 17, "score": 0.31}, …], "degraded": false, …}
//! {"id": 3, "ok": true, "session": {"queries": 2, "samples_drawn": 18000, …}, "queued": 0}
//! {"id": 5, "ok": true, "top_k": […], "degraded": true, "achieved_epsilon": 0.31, …}
//! {"id": 6, "ok": true, "draining": true}
//! {"id": 9, "ok": false, "error": "detect: \"k\" (positive integer) is required"}
//! {"id": 7, "ok": false, "error": "overloaded", "retry_after_ms": 100}
//! ```
//!
//! `cmd` defaults to `"detect"` when a `k` field is present. Responses
//! stream back as they complete, so a slow query never blocks a fast
//! one; clients that need pairing must send an `id`.
//!
//! ## Live updates & durability
//!
//! An `update` request batches probability changes (`self_risk` as
//! `[node, p]` pairs; `edge_prob` as `[edge, p]` pairs; `edges` as
//! `[u, v, p]` endpoint triples) into one [`GraphDelta`], applied
//! atomically: queries in flight finish bit-identically on the old
//! snapshot, later queries see the new epoch, and the answer carries
//! the committed `epoch`, `graph_version`, and the cache-revalidation
//! tally. With a [`UpdateLog`] attached (`--wal`), the delta is
//! appended to a checksummed write-ahead log and fsynced **before**
//! the engine applies it or the client sees the ack — see
//! [`crate::wal`] for the format and recovery contract.
//!
//! ## Deadlines, degradation, and drain
//!
//! Every request may carry a `timeout_ms` (monotonic deadline for the
//! query; capped by the server's `--default-timeout-ms` when set) and a
//! `sample_cap` (hard cap on Monte-Carlo worlds). A query cut short by
//! either returns a **degraded** answer: `"degraded": true`, the exact
//! `samples_used`, and the widened `achieved_epsilon` actually earned by
//! those samples. Replaying the same request with that `samples_used`
//! as its `sample_cap` reproduces the degraded answer bit-identically —
//! a cut-off pass is a valid (ε′, δ) answer, not a corrupted one.
//!
//! When the request queue is full the reader **sheds** instead of
//! buffering without bound: the request is answered immediately with
//! `{"error": "overloaded", "retry_after_ms": …}` and never queued.
//! A `shutdown` request (or end-of-input) stops the intake, then gives
//! in-flight queries a drain window (`--drain-ms`) to finish; whatever
//! is still running when it expires is cancelled at the next superblock
//! boundary and answered degraded. Either way every accepted request
//! gets a response and the loop exits cleanly.
//!
//! Each connection runs only a reader and its worker pool. The reader
//! answers sheds, parse errors, oversized lines and the shutdown ack
//! itself. Every thread encodes into its own reused buffer and writes
//! each response as one `write_all` of a whole line under one output
//! lock; TCP streams run with `TCP_NODELAY`, so no line waits on the
//! client's delayed ACK.
//!
//! The same loop serves stdin (the default) or a TCP listener
//! (`--tcp addr`, one connection handler per client, all sharing the
//! one session). The JSON response encoders are shared with the CLI's
//! `--format json` mode, so scripted `vulnds detect` output and service
//! responses stay field-compatible.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use ugraph::{EdgeId, GraphDelta, NodeId};
use vulnds_core::engine::{DetectRequest, DetectResponse, Detector};
use vulnds_core::{AlgorithmKind, DeltaOutcome, EngineStats, RunStats, SessionStats, VulnError};
use vulnds_sampling::CancelToken;

use crate::json::Json;
use crate::wal::{self, Wal};

/// What one [`serve`] loop did, reported when its input ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Non-empty request lines answered (including error responses).
    pub requests: u64,
    /// Requests refused with `overloaded` because the queue was full.
    pub shed: u64,
    /// Whether the loop ended on a `shutdown` request (from this
    /// connection or, under TCP, any other) rather than end-of-input.
    pub shutdown: bool,
}

/// Tuning knobs for one serve loop (or one TCP listener's worth of
/// them). [`serve`] uses the defaults with an explicit worker count;
/// the CLI maps `--workers`, `--default-timeout-ms`, `--drain-ms`, and
/// `--max-connections` onto the fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads answering queries (per connection under TCP).
    pub workers: usize,
    /// Deadline applied to every query that does not bring its own
    /// `timeout_ms`; a request's own value is **capped** at this, so a
    /// client cannot opt out of the server's latency posture.
    pub default_timeout_ms: Option<u64>,
    /// How long in-flight queries may keep running after shutdown or
    /// end-of-input before being cancelled into degraded answers.
    pub drain_ms: u64,
    /// Concurrent TCP connections accepted before refusing with a
    /// structured `overloaded` response ([`serve_tcp`] only).
    pub max_connections: usize,
    /// Depth of the request queue between the reader and the workers;
    /// requests beyond it are shed, not buffered.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            default_timeout_ms: None,
            drain_ms: DEFAULT_DRAIN_MS,
            max_connections: MAX_CONNECTIONS,
            queue_depth: QUEUE_DEPTH,
        }
    }
}

/// Durability and compaction state shared by every connection's
/// `update` path. One lock serializes commits, which keeps the log's
/// record order identical to the engine's epoch order; queries never
/// take it.
pub struct UpdateLog {
    wal: Mutex<Wal>,
    /// Absolute epoch of the engine's base graph: the WAL's base epoch
    /// at startup. The engine counts epochs from 0 per process, so
    /// every externally-reported epoch is `offset + engine epoch`.
    offset: u64,
    /// Rotate (snapshot + truncate) after this many records since the
    /// last rotation.
    compact_every: Option<u64>,
}

impl UpdateLog {
    /// Wraps a recovered (or fresh) log. `wal.base_epoch()` must match
    /// the graph the engine session was built on — i.e. recovery has
    /// already replayed the log's records into the session.
    pub fn new(wal: Wal, compact_every: Option<u64>) -> UpdateLog {
        let offset = wal.base_epoch();
        UpdateLog { wal: Mutex::new(wal), offset, compact_every }
    }

    /// Absolute epoch of the engine's epoch 0.
    pub fn epoch_offset(&self) -> u64 {
        self.offset
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.lock().records()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Wal> {
        // A thread that panicked mid-commit leaves the log in its
        // last-durable state, which is exactly what recovery tolerates.
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commits one delta durably: validate against the live graph,
    /// append + fsync, then apply to the engine — so the ack implies
    /// the record is on disk, and a crash between append and apply
    /// replays a delta that was never acked (recovered state may run
    /// *ahead* of the acked history, never behind it).
    pub fn commit(
        &self,
        detector: &Detector,
        delta: &GraphDelta,
    ) -> Result<DeltaOutcome, VulnError> {
        let mut log = self.lock();
        delta.validate(&detector.graph())?;
        let epoch = self.offset + detector.epoch() + 1;
        log.append(epoch, delta).map_err(|e| VulnError::Usage(format!("wal append: {e}")))?;
        let outcome = detector.apply_delta(delta)?;
        if let Some(every) = self.compact_every {
            if log.since_rotate() >= every {
                // Best-effort: a failed compaction leaves a longer log,
                // not a broken one, and the commit is already durable.
                let snapshot = wal::snapshot_path(log.path());
                if wal::write_snapshot(&detector.graph(), &snapshot).is_ok() {
                    let _ = log.rotate(epoch);
                }
            }
        }
        Ok(outcome)
    }
}

/// Longest request line the service buffers (1 MiB). A client that
/// streams more without a newline gets an error response for that line
/// and the excess is discarded unbuffered, so one connection can never
/// grow the server's memory without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default depth of the request queue between a connection's reader and
/// its worker pool. A client that floods past it is shed with
/// `overloaded` responses instead of growing server memory.
pub const QUEUE_DEPTH: usize = 256;

/// Default hard cap on any one query's sample budget in serve mode
/// (`VulnConfig::max_samples`; override with `--max-samples`). Clients
/// choose `ε`/`δ` per request, and an `ε` of `1e-9` is a valid value
/// whose Equation-3 budget would pin a worker for years — the cap
/// turns that into a bounded (if cap-truncated) answer instead of a
/// denial of service. 5M worlds ≈ tight-contract territory for the
/// graph sizes a single node serves.
pub const DEFAULT_SERVE_MAX_SAMPLES: u64 = 5_000_000;

/// Default concurrent-TCP-connection cap (override with
/// `--max-connections`); further clients are refused with one
/// structured `overloaded` line and disconnected, so hostile connection
/// floods cannot multiply worker pools without bound (threads per
/// connection = `workers` + 1).
pub const MAX_CONNECTIONS: usize = 64;

/// Default drain window after shutdown/end-of-input (override with
/// `--drain-ms`): long enough for well-behaved queries to finish, short
/// enough that a pinned worker degrades instead of stalling exit.
pub const DEFAULT_DRAIN_MS: u64 = 2_000;

/// `retry_after_ms` hint attached to every `overloaded` refusal — one
/// queue's worth of typical service time, not a promise.
pub const RETRY_AFTER_MS: u64 = 100;

/// TCP read-poll interval: how often an idle connection handler wakes
/// to check for a server-wide shutdown.
const TCP_POLL_MS: u64 = 200;

/// Cross-connection stop signal: set by the first `shutdown` request
/// (or by the acceptor) and polled by every reader.
#[derive(Default)]
struct ServeControl {
    stop: AtomicBool,
}

impl ServeControl {
    fn stop_requested(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release store in the
        // shutdown path so a reader that observes the flag also
        // observes everything the requester did before setting it.
        self.stop.load(Ordering::Acquire)
    }

    fn request_stop(&self) {
        // ORDERING: Release — see `stop_requested`.
        self.stop.store(true, Ordering::Release);
    }
}

/// How one [`read_request_line`] call ended.
enum LineRead {
    /// Input is exhausted.
    Eof,
    /// `buf` holds one complete request line.
    Line,
    /// The line exceeded [`MAX_REQUEST_BYTES`]; its bytes were drained
    /// and dropped.
    Oversized,
    /// A stop was requested while waiting for bytes.
    Stopped,
}

/// A retryable "no bytes yet" read error: the poll interval expiring on
/// a TCP stream with a read timeout, or a plain EINTR.
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Reads one `\n`-terminated line into `buf` (cleared first), buffering
/// at most [`MAX_REQUEST_BYTES`]; an oversized line's excess bytes are
/// consumed and dropped without being stored. Timed-out reads (TCP
/// streams poll at [`TCP_POLL_MS`]) retry until bytes arrive or
/// `stopped` reports a shutdown — partial bytes survive the retries, so
/// a slow-loris client neither blocks shutdown nor corrupts framing.
fn read_request_line(
    input: &mut impl BufRead,
    buf: &mut Vec<u8>,
    stopped: &impl Fn() -> bool,
) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        // +2: room for a CRLF terminator on a content line of exactly
        // MAX_REQUEST_BYTES, so the LF- and CRLF-framed forms of the
        // same at-limit request are judged identically.
        let room = (MAX_REQUEST_BYTES + 2).saturating_sub(buf.len());
        if room == 0 {
            break; // at the limit with no newline: oversized
        }
        match input.by_ref().take(room as u64).read_until(b'\n', buf) {
            Ok(0) if buf.is_empty() => return Ok(LineRead::Eof),
            Ok(0) => break, // EOF mid-line: serve what arrived
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    break;
                }
                // No newline yet: the take limit was hit (loop exits
                // via room == 0) or EOF follows (next read returns 0).
            }
            Err(e) if retryable(&e) => {
                if stopped() {
                    return Ok(LineRead::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let terminated = buf.last() == Some(&b'\n');
    if terminated {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() <= MAX_REQUEST_BYTES {
        return Ok(LineRead::Line);
    }
    // Oversized: drain the rest of the line without buffering it, unless
    // its newline is already read (the next bytes are the next line).
    buf.clear();
    if terminated {
        return Ok(LineRead::Oversized);
    }
    loop {
        match input.fill_buf() {
            Ok(chunk) => {
                if chunk.is_empty() {
                    return Ok(LineRead::Oversized);
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        input.consume(i + 1);
                        return Ok(LineRead::Oversized);
                    }
                    None => {
                        let len = chunk.len();
                        input.consume(len);
                    }
                }
            }
            Err(e) if retryable(&e) => {
                if stopped() {
                    return Ok(LineRead::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Encodes `response` into `line` (cleared first) as one whole
/// newline-terminated response line.
fn encode_line(line: &mut String, response: &Json) {
    line.clear();
    response.encode_into(line);
    line.push('\n');
}

/// Writes and flushes one whole response line under the connection's
/// output lock; `false` once the output has failed. `line` is the
/// caller's reused encode buffer. The line goes out in one `write_all`:
/// a separate write for its `\n` would sit behind the peer's delayed ACK
/// (Nagle). The first write error replaces the sink, and a poisoned lock
/// (a writer panicked, perhaps mid-line) counts as failed.
fn emit<W: Write>(output: &Mutex<std::io::Result<W>>, line: &mut String, response: &Json) -> bool {
    // Encode outside the lock, so workers contend only for the write.
    encode_line(line, response);
    let Ok(mut output) = output.lock() else { return false };
    if let Ok(sink) = &mut *output {
        if let Err(e) = sink.write_all(line.as_bytes()).and_then(|()| sink.flush()) {
            *output = Err(e);
        }
    }
    output.is_ok()
}

/// Per-loop context the workers answer requests against.
#[derive(Clone, Copy)]
struct ServeCtx<'a> {
    detector: &'a Detector,
    /// Parent token for every query: cancelled when the drain window
    /// expires, turning in-flight work into degraded answers.
    drain: &'a CancelToken,
    default_timeout_ms: Option<u64>,
    /// Requests queued but not yet popped by a worker (queue gauge).
    queued: &'a AtomicU64,
    /// Write-ahead log for `update` commits; `None` serves updates
    /// non-durably (applied atomically, lost on restart).
    updates: Option<&'a UpdateLog>,
}

/// Answers newline-delimited JSON requests from `input` on a pool of
/// `workers` threads sharing `detector` — [`serve_durable`] with default
/// options and no write-ahead log. Kept as the simplest entry point (and
/// the one the in-repo tests exercise).
pub fn serve(
    detector: &Detector,
    workers: usize,
    input: impl BufRead,
    output: impl Write + Send,
) -> Result<ServeSummary, VulnError> {
    let options = ServeOptions { workers, ..ServeOptions::default() };
    serve_durable(detector, &options, None, input, output)
}

/// Answers newline-delimited JSON requests from `input` on
/// `options.workers` pool threads sharing `detector`, writing one JSON
/// response line per request to `output` as each completes. Returns
/// when `input` ends or a `shutdown` request arrives, after draining
/// in-flight queries under `options.drain_ms`. With `updates`, `update`
/// commits append to that write-ahead log (fsync per its policy) before
/// being acked; without it they apply atomically but are lost on
/// restart.
pub fn serve_durable(
    detector: &Detector,
    options: &ServeOptions,
    updates: Option<&UpdateLog>,
    input: impl BufRead,
    output: impl Write + Send,
) -> Result<ServeSummary, VulnError> {
    serve_inner(detector, options, updates, input, output, &ServeControl::default())
}

fn serve_inner(
    detector: &Detector,
    options: &ServeOptions,
    updates: Option<&UpdateLog>,
    mut input: impl BufRead,
    output: impl Write + Send,
    control: &ServeControl,
) -> Result<ServeSummary, VulnError> {
    let queued = AtomicU64::new(0);
    let drain = CancelToken::new();
    let output = Mutex::new(Ok(output));
    // Every non-empty line is answered exactly once while the output
    // holds, so the reader alone keeps the tallies.
    let mut summary = ServeSummary::default();
    let read: std::io::Result<()> = std::thread::scope(|s| {
        let (task_tx, task_rx) = mpsc::sync_channel::<Json>(options.queue_depth.max(1));
        let task_rx = Arc::new(Mutex::new(task_rx));
        // Each worker holds a `done` sender, so the drain wait below
        // ends as soon as the last worker exits.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let ctx = ServeCtx {
            detector,
            drain: &drain,
            default_timeout_ms: options.default_timeout_ms,
            queued: &queued,
            updates,
        };
        for _ in 0..options.workers.max(1) {
            let (task_rx, done_tx, output) = (Arc::clone(&task_rx), done_tx.clone(), &output);
            s.spawn(move || {
                let _done = done_tx;
                let mut line = String::new();
                // Hold the receiver lock only to pop one request, not
                // while answering it.
                while let Ok(Ok(request)) = task_rx.lock().map(|rx| rx.recv()) {
                    // ORDERING: Relaxed — a momentary gauge; the reader's
                    // increment for this request happened before its send.
                    ctx.queued.fetch_sub(1, Ordering::Relaxed);
                    if !emit(output, &mut line, &respond_parsed(&ctx, &request)) {
                        break;
                    }
                }
            });
        }
        // The workers own the receiver now: once every one has exited on
        // a failed output, the queue reports itself disconnected.
        drop((task_rx, done_tx));
        let mut buf = Vec::new();
        let mut line = String::new();
        let stop_observed = || control.stop_requested();
        loop {
            // A line the pool cannot take is answered here, in line.
            let request = match read_request_line(&mut input, &mut buf, &stop_observed)? {
                LineRead::Eof => break,
                LineRead::Stopped => {
                    // Another connection asked the server to shut down.
                    summary.shutdown = true;
                    break;
                }
                LineRead::Oversized => Err(failure(
                    Json::Null,
                    format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                )),
                LineRead::Line => {
                    let line = String::from_utf8_lossy(&buf);
                    if line.trim().is_empty() {
                        continue;
                    }
                    match Json::parse_salvaging_id(&line) {
                        (Ok(json), _) => Ok(json),
                        (Err(e), id) => Err(failure(id.unwrap_or(Json::Null), e.to_string())),
                    }
                }
            };
            summary.requests += 1;
            let refusal = match request {
                Err(refusal) => refusal,
                Ok(json) if json.get("cmd").and_then(Json::as_str) == Some("shutdown") => {
                    // Ack, stop the intake everywhere, and fall through
                    // to the drain below.
                    summary.shutdown = true;
                    let ack = Json::obj([
                        ("id", request_id(&json)),
                        ("ok", Json::Bool(true)),
                        ("draining", Json::Bool(true)),
                    ]);
                    emit(&output, &mut line, &ack);
                    control.request_stop();
                    break;
                }
                Ok(json) => {
                    // ORDERING: Relaxed — incremented before the send so
                    // a worker's decrement can never observe the gauge at
                    // zero first.
                    queued.fetch_add(1, Ordering::Relaxed);
                    match task_tx.try_send(json) {
                        Ok(()) => continue,
                        Err(TrySendError::Full(json)) => {
                            // Shed: answer now, never queue. Bounded
                            // memory beats unbounded latency.
                            // ORDERING: Relaxed — see the increment above.
                            queued.fetch_sub(1, Ordering::Relaxed);
                            summary.shed += 1;
                            detector.note_shed();
                            overloaded(request_id(&json))
                        }
                        // Every worker has exited on a failed output.
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            };
            if !emit(&output, &mut line, &refusal) {
                break;
            }
        }
        drop(task_tx);
        // Drain: give in-flight queries `drain_ms` to finish, then cancel
        // them into degraded answers.
        if let Err(RecvTimeoutError::Timeout) =
            done_rx.recv_timeout(Duration::from_millis(options.drain_ms))
        {
            drain.cancel();
        }
        Ok(())
    });
    read.and(output.into_inner().unwrap_or_else(PoisonError::into_inner).map(drop))
        .map_err(|e| VulnError::Usage(format!("serve: I/O error: {e}")))?;
    Ok(summary)
}

/// Accepts TCP connections, answering each client's newline-delimited
/// JSON requests with a **per-connection** `options.workers`-thread
/// pool over the one shared `detector`. Connections are served
/// concurrently (capped at `options.max_connections`; further clients
/// get one structured `overloaded` line) and all compound the same
/// session caches. Returns cleanly — after draining every connection —
/// once any client sends a `shutdown` request.
pub fn serve_tcp(
    detector: &Detector,
    listener: TcpListener,
    options: &ServeOptions,
    updates: Option<&UpdateLog>,
) -> Result<(), VulnError> {
    /// Releases the connection slot on drop — including when the
    /// handler unwinds — so a panicking connection can never leak one
    /// of the `max_connections` slots permanently.
    struct SlotRelease<'a>(&'a AtomicU64);
    impl Drop for SlotRelease<'_> {
        fn drop(&mut self) {
            // ORDERING: AcqRel — pairs with the acceptor's RMWs so the
            // open-connection count is exact and the cap cannot be
            // overshot by a stale read.
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }

    let max_connections = options.max_connections.max(1);
    let control = ServeControl::default();
    let addr = listener.local_addr().ok();
    let open = AtomicU64::new(0);
    std::thread::scope(|s| {
        for stream in listener.incoming() {
            if control.stop_requested() {
                break; // a handler observed `shutdown` and woke us
            }
            let Ok(mut stream) = stream else { continue };
            // Responses leave in whole lines, so Nagle only delays them.
            let _ = stream.set_nodelay(true);
            // ORDERING: AcqRel — reserve-then-release must be exact
            // RMWs against concurrent SlotRelease drops, or a refusal
            // storm could leak slots past the cap.
            if open.fetch_add(1, Ordering::AcqRel) >= max_connections as u64 {
                open.fetch_sub(1, Ordering::AcqRel);
                let mut line = String::new();
                encode_line(&mut line, &overloaded(Json::Null));
                let _ = stream.write_all(line.as_bytes());
                continue;
            }
            let open = &open;
            let control = &control;
            s.spawn(move || {
                let _slot = SlotRelease(open);
                // Poll-friendly reads: an idle connection observes a
                // server-wide shutdown within TCP_POLL_MS instead of
                // blocking in read() forever.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(TCP_POLL_MS)));
                // Per-connection I/O errors drop the connection, not
                // the service.
                let summary = match stream.try_clone() {
                    Ok(reader) => serve_inner(
                        detector,
                        options,
                        updates,
                        BufReader::new(reader),
                        stream,
                        control,
                    )
                    .ok(),
                    Err(_) => None,
                };
                // The acceptor blocks in accept(); a handler that saw
                // the shutdown wakes it with a throwaway connection so
                // it can observe the stop flag and exit.
                if summary.is_some_and(|sm| sm.shutdown) {
                    if let Some(addr) = addr {
                        let _ = std::net::TcpStream::connect(addr);
                    }
                }
            });
        }
        Ok(())
    })
}

/// The `id` a response echoes: the request's own, or `null`.
fn request_id(request: &Json) -> Json {
    request.get("id").cloned().unwrap_or(Json::Null)
}

/// Shapes one engine/parse failure as a response line.
fn failure(id: Json, error: impl Into<String>) -> Json {
    Json::obj([("id", id), ("ok", Json::Bool(false)), ("error", Json::Str(error.into()))])
}

/// Shapes a load-shed refusal: machine-matchable `error` plus a
/// back-off hint.
fn overloaded(id: Json) -> Json {
    Json::obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::Str("overloaded".to_string())),
        ("retry_after_ms", RETRY_AFTER_MS.into()),
    ])
}

/// Answers one parsed request as a response object; engine errors
/// become `ok: false` responses rather than killing the connection.
fn respond_parsed(ctx: &ServeCtx<'_>, request: &Json) -> Json {
    let mut fields = vec![("id".to_string(), request_id(request))];
    match dispatch(ctx, request) {
        Ok(Json::Obj(payload)) => {
            fields.push(("ok".to_string(), Json::Bool(true)));
            fields.extend(payload);
        }
        Ok(other) => {
            fields.push(("ok".to_string(), Json::Bool(true)));
            fields.push(("result".to_string(), other));
        }
        Err(e) => {
            fields.push(("ok".to_string(), Json::Bool(false)));
            fields.push(("error".to_string(), Json::Str(e.to_string())));
        }
    }
    Json::Obj(fields)
}

/// Applies the serve loop's query policy to one parsed request: the
/// server's default timeout caps the client's (so a client cannot opt
/// out of the latency posture), and every query hangs off the drain
/// token so shutdown can cancel it into a degraded answer.
fn scoped(mut request: DetectRequest, ctx: &ServeCtx<'_>) -> DetectRequest {
    request.timeout_ms = match (request.timeout_ms, ctx.default_timeout_ms) {
        (Some(t), Some(cap)) => Some(t.min(cap)),
        (t, cap) => t.or(cap),
    };
    request.cancel = Some(ctx.drain.clone());
    request
}

/// Routes one parsed request to the engine.
fn dispatch(ctx: &ServeCtx<'_>, request: &Json) -> Result<Json, VulnError> {
    let detector = ctx.detector;
    let cmd = match request.get("cmd").map(|c| (c, c.as_str())) {
        None if request.get("k").is_some() => "detect",
        None => "",
        Some((_, Some(s))) => s,
        Some((_, None)) => return Err(usage("\"cmd\" must be a string")),
    };
    match cmd {
        "detect" => {
            let response = detector.detect(&scoped(parse_detect(request)?, ctx))?;
            Ok(detect_response_json(&response))
        }
        "batch" => {
            let items = request
                .get("requests")
                .and_then(Json::as_array)
                .ok_or_else(|| usage("batch: \"requests\" (array) is required"))?;
            let parsed: Vec<DetectRequest> = items
                .iter()
                .map(|item| parse_detect(item).map(|r| scoped(r, ctx)))
                .collect::<Result<_, _>>()?;
            let responses = detector.detect_many(&parsed)?;
            Ok(Json::obj([(
                "responses",
                Json::Arr(responses.iter().map(detect_response_json).collect()),
            )]))
        }
        "update" => {
            let delta = parse_update(detector, request)?;
            let outcome = match ctx.updates {
                Some(updates) => updates.commit(detector, &delta)?,
                None => detector.apply_delta(&delta)?,
            };
            let offset = ctx.updates.map_or(0, UpdateLog::epoch_offset);
            Ok(Json::obj([
                ("epoch", (offset + outcome.epoch).into()),
                ("graph_version", outcome.graph_version.into()),
                ("revalidated", outcome.revalidated.into()),
                ("repaired", outcome.repaired.into()),
                ("invalidated", outcome.invalidated.into()),
                ("durable", ctx.updates.is_some().into()),
            ]))
        }
        "stats" => {
            let mut session = detector.session_stats();
            session.epoch += ctx.updates.map_or(0, UpdateLog::epoch_offset);
            Ok(Json::obj([
                ("session", session_stats_json(&session)),
                ("wal_records", ctx.updates.map_or(0, UpdateLog::records).into()),
                // ORDERING: Relaxed — a momentary gauge for operators.
                ("queued", ctx.queued.load(Ordering::Relaxed).into()),
            ]))
        }
        "clear" => {
            detector.clear_cache();
            Ok(Json::obj([("cleared", Json::Bool(true))]))
        }
        other => {
            Err(usage(&format!("unknown cmd {other:?} (detect|batch|update|stats|clear|shutdown)")))
        }
    }
}

/// Extracts a [`GraphDelta`] from an `update` request. Three change
/// lists are accepted, all optional but at least one required:
/// `self_risk` as `[node, p]` pairs, `edge_prob` as `[edge, p]` pairs
/// addressing edges by index, and `edges` as `[u, v, p]` triples
/// addressing edges by their endpoints.
fn parse_update(detector: &Detector, request: &Json) -> Result<GraphDelta, VulnError> {
    let pair = |item: &Json, what: &str| -> Result<(u32, f64), VulnError> {
        let items = item
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| usage(&format!("update: {what} entries must be [id, p] pairs")))?;
        let id = items[0]
            .as_u64()
            .filter(|&id| id <= u32::MAX as u64)
            .ok_or_else(|| usage(&format!("update: {what} ids must be u32 integers")))?;
        let p = items[1]
            .as_f64()
            .ok_or_else(|| usage(&format!("update: {what} probabilities must be numbers")))?;
        Ok((id as u32, p))
    };
    let mut delta = GraphDelta::new();
    if let Some(v) = request.get("self_risk") {
        let items = v.as_array().ok_or_else(|| usage("update: \"self_risk\" must be an array"))?;
        for item in items {
            let (id, p) = pair(item, "self_risk")?;
            delta = delta.set_self_risk(NodeId(id), p);
        }
    }
    if let Some(v) = request.get("edge_prob") {
        let items = v.as_array().ok_or_else(|| usage("update: \"edge_prob\" must be an array"))?;
        for item in items {
            let (id, p) = pair(item, "edge_prob")?;
            delta = delta.set_edge_prob(EdgeId(id), p);
        }
    }
    if let Some(v) = request.get("edges") {
        let items = v.as_array().ok_or_else(|| usage("update: \"edges\" must be an array"))?;
        let graph = detector.graph();
        for item in items {
            let triple = item
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| usage("update: \"edges\" entries must be [u, v, p] triples"))?;
            let endpoint = |j: &Json| {
                j.as_u64()
                    .filter(|&id| id <= u32::MAX as u64)
                    .ok_or_else(|| usage("update: edge endpoints must be u32 integers"))
            };
            let (u, v) = (endpoint(&triple[0])? as u32, endpoint(&triple[1])? as u32);
            let p = triple[2]
                .as_f64()
                .ok_or_else(|| usage("update: edge probabilities must be numbers"))?;
            let edge = graph
                .find_edge(NodeId(u), NodeId(v))
                .ok_or_else(|| usage(&format!("update: no edge {u} -> {v} in the graph")))?;
            delta = delta.set_edge_prob(edge, p);
        }
    }
    if delta.is_empty() {
        return Err(usage("update: needs \"self_risk\", \"edge_prob\", or \"edges\""));
    }
    Ok(delta)
}

fn usage(msg: &str) -> VulnError {
    VulnError::Usage(msg.to_string())
}

/// Parses an algorithm label (shared with the CLI's `--algorithm`).
pub(crate) fn parse_algorithm(s: &str) -> Result<AlgorithmKind, VulnError> {
    match s.to_ascii_lowercase().as_str() {
        "n" | "naive" => Ok(AlgorithmKind::Naive),
        "sn" => Ok(AlgorithmKind::SampledNaive),
        "sr" => Ok(AlgorithmKind::SampleReverse),
        "bsr" => Ok(AlgorithmKind::BoundedSampleReverse),
        "bsrbk" => Ok(AlgorithmKind::BottomK),
        other => Err(usage(&format!("unknown algorithm {other} (n|sn|sr|bsr|bsrbk)"))),
    }
}

/// Extracts a [`DetectRequest`] from a request object (used both for
/// `detect` and for each element of `batch`'s `requests`).
fn parse_detect(request: &Json) -> Result<DetectRequest, VulnError> {
    let k = request
        .get("k")
        .and_then(Json::as_u64)
        .filter(|&k| k > 0)
        .ok_or_else(|| usage("detect: \"k\" (positive integer) is required"))? as usize;
    let algorithm = match request.get("algorithm") {
        None => AlgorithmKind::BottomK,
        Some(a) => parse_algorithm(
            a.as_str().ok_or_else(|| usage("detect: \"algorithm\" must be a string"))?,
        )?,
    };
    let mut parsed = DetectRequest::new(k, algorithm);
    if let Some(v) = request.get("epsilon") {
        parsed = parsed
            .with_epsilon(v.as_f64().ok_or_else(|| usage("detect: \"epsilon\" must be a number"))?);
    }
    if let Some(v) = request.get("delta") {
        parsed = parsed
            .with_delta(v.as_f64().ok_or_else(|| usage("detect: \"delta\" must be a number"))?);
    }
    if let Some(v) = request.get("seed") {
        parsed = parsed
            .with_seed(v.as_u64().ok_or_else(|| usage("detect: \"seed\" must be an integer"))?);
    }
    if let Some(v) = request.get("timeout_ms") {
        parsed = parsed.with_timeout_ms(
            v.as_u64()
                .ok_or_else(|| usage("detect: \"timeout_ms\" must be a non-negative integer"))?,
        );
    }
    if let Some(v) = request.get("sample_cap") {
        parsed = parsed.with_sample_cap(
            v.as_u64()
                .filter(|&c| c > 0)
                .ok_or_else(|| usage("detect: \"sample_cap\" must be a positive integer"))?,
        );
    }
    if let Some(v) = request.get("candidates") {
        let items = v.as_array().ok_or_else(|| usage("detect: \"candidates\" must be an array"))?;
        let mut candidates = Vec::with_capacity(items.len());
        for item in items {
            let id = item
                .as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .ok_or_else(|| usage("detect: candidate ids must be u32 integers"))?;
            candidates.push(NodeId(id as u32));
        }
        parsed = parsed.with_candidates(candidates);
    }
    Ok(parsed)
}

/// Encodes a detection answer — the shared shape of `serve` responses
/// and `vulnds detect --format json` output.
pub fn detect_response_json(response: &DetectResponse) -> Json {
    Json::obj([
        (
            "top_k",
            Json::Arr(
                response
                    .top_k
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("node", Json::from(s.node.0 as u64)),
                            ("score", s.score.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("degraded", response.degraded.into()),
        // Non-finite (no samples at all) renders as null by design.
        ("achieved_epsilon", response.achieved_epsilon.into()),
        ("stats", run_stats_json(&response.stats)),
        ("engine", engine_stats_json(&response.engine)),
    ])
}

/// Encodes the algorithm-level diagnostics of one answer.
fn run_stats_json(stats: &RunStats) -> Json {
    Json::obj([
        ("algorithm", stats.algorithm.label().into()),
        ("sample_budget", stats.sample_budget.into()),
        ("samples_used", stats.samples_used.into()),
        ("candidates", stats.candidates.into()),
        ("verified", stats.verified.into()),
        ("early_stopped", stats.early_stopped.into()),
        ("elapsed_ms", (stats.elapsed.as_secs_f64() * 1e3).into()),
    ])
}

/// Encodes the session-cache diagnostics of one answer.
fn engine_stats_json(engine: &EngineStats) -> Json {
    Json::obj([
        ("samples_drawn", engine.samples_drawn.into()),
        ("samples_reused", engine.samples_reused.into()),
        ("bounds_reused", engine.bounds_reused.into()),
        ("reduction_reused", engine.reduction_reused.into()),
        ("coin_words_synthesized", engine.coin_words_synthesized.into()),
        ("lazy_edge_words_skipped", engine.lazy_edge_words_skipped.into()),
        ("block_words", engine.block_words.into()),
        ("superblocks", engine.superblocks.into()),
        ("epoch", engine.epoch.into()),
        ("graph_version", engine.graph_version.into()),
    ])
}

/// Encodes cumulative session counters (the `stats` command, and the
/// session line of `--format json` CLI output).
pub(crate) fn session_stats_json(session: &SessionStats) -> Json {
    Json::obj([
        ("queries", session.queries.into()),
        ("queries_degraded", session.queries_degraded.into()),
        ("queries_cancelled", session.queries_cancelled.into()),
        ("requests_shed", session.requests_shed.into()),
        ("in_flight", session.in_flight.into()),
        ("samples_drawn", session.samples_drawn.into()),
        ("samples_reused", session.samples_reused.into()),
        ("bounds_computed", session.bounds_computed.into()),
        ("bounds_reused", session.bounds_reused.into()),
        ("reductions_computed", session.reductions_computed.into()),
        ("reductions_reused", session.reductions_reused.into()),
        ("coin_words_synthesized", session.coin_words_synthesized.into()),
        ("lazy_edge_words_skipped", session.lazy_edge_words_skipped.into()),
        ("superblocks_evaluated", session.superblocks_evaluated.into()),
        ("widest_block_words", session.widest_block_words.into()),
        ("concurrent_peak", session.concurrent_peak.into()),
        ("epoch", session.epoch.into()),
        ("graph_version", session.graph_version.into()),
        ("deltas_applied", session.deltas_applied.into()),
        ("caches_revalidated", session.caches_revalidated.into()),
        ("caches_invalidated", session.caches_invalidated.into()),
        ("caches_repaired", session.caches_repaired.into()),
    ])
}

/// Encodes all-node scores (`vulnds score --format json`).
pub(crate) fn scores_json(method: &str, scores: &[f64]) -> Json {
    Json::obj([
        ("method", method.into()),
        ("scores", Json::Arr(scores.iter().map(|&s| Json::Num(s)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnds_datasets::Dataset;

    fn service() -> Detector {
        let graph = Dataset::Interbank.generate_scaled(3, 1.0);
        Detector::builder(graph).seed(7).threads(1).build().unwrap()
    }

    /// Runs a full serve loop over in-memory I/O and returns the
    /// response lines parsed back to JSON.
    fn run_lines(detector: &Detector, workers: usize, input: &str) -> Vec<Json> {
        run_lines_with(detector, &ServeOptions { workers, ..ServeOptions::default() }, input).1
    }

    fn run_lines_with(
        detector: &Detector,
        options: &ServeOptions,
        input: &str,
    ) -> (ServeSummary, Vec<Json>) {
        let mut output = Vec::new();
        let summary = serve_durable(detector, options, None, input.as_bytes(), &mut output)
            .expect("serve runs");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> =
            text.lines().map(|l| Json::parse(l).expect("valid response JSON")).collect();
        assert_eq!(summary.requests as usize, lines.len());
        (summary, lines)
    }

    fn by_id(lines: &[Json], id: u64) -> &Json {
        lines
            .iter()
            .find(|l| l.get("id").and_then(Json::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    }

    /// The keys of a JSON object, in wire order.
    fn keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Obj(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn wire_key_lists_are_pinned() {
        // Clients read these objects by key: a key that vanishes or moves
        // must fail here, not silently on the wire.
        let detector = service();
        let lines = run_lines(&detector, 1, "{\"id\": 1, \"cmd\": \"stats\"}\n");
        let session = by_id(&lines, 1).get("session").expect("stats carry the session");
        assert_eq!(
            keys(session),
            [
                "queries",
                "queries_degraded",
                "queries_cancelled",
                "requests_shed",
                "in_flight",
                "samples_drawn",
                "samples_reused",
                "bounds_computed",
                "bounds_reused",
                "reductions_computed",
                "reductions_reused",
                "coin_words_synthesized",
                "lazy_edge_words_skipped",
                "superblocks_evaluated",
                "widest_block_words",
                "concurrent_peak",
                "epoch",
                "graph_version",
                "deltas_applied",
                "caches_revalidated",
                "caches_invalidated",
                "caches_repaired",
            ]
        );
        let response = detector.detect(&DetectRequest::new(3, AlgorithmKind::BottomK)).unwrap();
        let answer = detect_response_json(&response);
        assert_eq!(keys(&answer), ["top_k", "degraded", "achieved_epsilon", "stats", "engine"]);
        assert_eq!(
            keys(answer.get("stats").unwrap()),
            [
                "algorithm",
                "sample_budget",
                "samples_used",
                "candidates",
                "verified",
                "early_stopped",
                "elapsed_ms",
            ]
        );
        assert_eq!(
            keys(answer.get("engine").unwrap()),
            [
                "samples_drawn",
                "samples_reused",
                "bounds_reused",
                "reduction_reused",
                "coin_words_synthesized",
                "lazy_edge_words_skipped",
                "block_words",
                "superblocks",
                "epoch",
                "graph_version",
            ]
        );
    }

    #[test]
    fn answers_detect_stats_and_errors() {
        let detector = service();
        let lines = run_lines(
            &detector,
            2,
            concat!(
                "{\"id\": 1, \"cmd\": \"detect\", \"k\": 5, \"algorithm\": \"bsrbk\"}\n",
                "\n", // blank lines are skipped, not errors
                "{\"id\": 2, \"k\": 3, \"algorithm\": \"sn\"}\n", // cmd defaults to detect
                "{\"id\": 3, \"cmd\": \"stats\"}\n",
                "{\"id\": 4, \"cmd\": \"warp\"}\n",
                "{\"id\": 5, \"cmd\": \"detect\"}\n", // missing k
                "not json at all\n",
            ),
        );
        assert_eq!(lines.len(), 6);

        let detect = by_id(&lines, 1);
        assert_eq!(detect.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(detect.get("top_k").and_then(Json::as_array).map(<[Json]>::len), Some(5));
        assert_eq!(detect.get("degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(
            detect.get("stats").and_then(|s| s.get("algorithm")).and_then(Json::as_str),
            Some("BSRBK")
        );
        assert!(detect.get("engine").and_then(|e| e.get("samples_drawn")).is_some());

        assert_eq!(by_id(&lines, 2).get("ok").and_then(Json::as_bool), Some(true));

        let stats = by_id(&lines, 3);
        // Workers race with the stats request; the counter is whatever
        // it was at that moment, but the field must exist and be sane.
        let queries =
            stats.get("session").and_then(|s| s.get("queries")).and_then(Json::as_u64).unwrap();
        assert!(queries <= 3);
        // The robustness gauges ride along on every stats answer.
        for gauge in ["queries_degraded", "queries_cancelled", "requests_shed", "in_flight"] {
            assert!(
                stats.get("session").and_then(|s| s.get(gauge)).and_then(Json::as_u64).is_some(),
                "missing session gauge {gauge}"
            );
        }
        assert!(stats.get("queued").and_then(Json::as_u64).is_some());

        for id in [4, 5] {
            let err = by_id(&lines, id);
            assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false), "{err}");
            assert!(err.get("error").is_some());
        }
        // The unparseable line still gets a response, with a null id.
        let bad = lines
            .iter()
            .find(|l| l.get("id") == Some(&Json::Null))
            .expect("malformed line answered");
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn syntax_errors_echo_the_id_parsed_before_the_error() {
        let detector = service();
        let lines = run_lines(
            &detector,
            1,
            concat!(
                "{\"id\": 77, \"cmd\": \"detect\", \"k\": }\n", // id seen, then broken
                "{\"k\": , \"id\": 78}\n",                      // broken before the id
            ),
        );
        let with_id = by_id(&lines, 77);
        assert_eq!(with_id.get("ok").and_then(Json::as_bool), Some(false));
        assert!(with_id.get("error").is_some());
        let without = lines.iter().find(|l| l.get("id") == Some(&Json::Null)).unwrap();
        assert_eq!(without.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn concurrent_service_answers_match_direct_calls() {
        let detector = service();
        let reference = service();
        let mut input = String::new();
        for id in 0..12u64 {
            let k = 2 + (id % 4);
            let alg = ["n", "sn", "sr", "bsr", "bsrbk"][(id % 5) as usize];
            input.push_str(&format!("{{\"id\": {id}, \"k\": {k}, \"algorithm\": \"{alg}\"}}\n"));
        }
        let lines = run_lines(&detector, 4, &input);
        for id in 0..12u64 {
            let k = 2 + (id % 4);
            let alg = [
                AlgorithmKind::Naive,
                AlgorithmKind::SampledNaive,
                AlgorithmKind::SampleReverse,
                AlgorithmKind::BoundedSampleReverse,
                AlgorithmKind::BottomK,
            ][(id % 5) as usize];
            let expected = reference.detect(&DetectRequest::new(k as usize, alg)).unwrap();
            let got = by_id(&lines, id);
            assert_eq!(got.get("ok").and_then(Json::as_bool), Some(true), "{got}");
            let top: Vec<(u64, f64)> = got
                .get("top_k")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    (
                        e.get("node").and_then(Json::as_u64).unwrap(),
                        e.get("score").and_then(Json::as_f64).unwrap(),
                    )
                })
                .collect();
            let want: Vec<(u64, f64)> =
                expected.top_k.iter().map(|s| (s.node.0 as u64, s.score)).collect();
            assert_eq!(top, want, "service answer diverged for id {id}");
        }
    }

    #[test]
    fn batch_requests_share_the_session() {
        let detector = service();
        let lines = run_lines(
            &detector,
            2,
            "{\"id\": 1, \"cmd\": \"batch\", \"requests\": [{\"k\": 3, \"algorithm\": \"sn\"}, {\"k\": 6, \"algorithm\": \"sn\"}]}\n",
        );
        let responses = by_id(&lines, 1).get("responses").and_then(Json::as_array).unwrap();
        assert_eq!(responses.len(), 2);
        // Budget-ordered batching: the k=3 request's stream is a prefix
        // of the k=6 request's, so the pair draws max(t) not sum(t).
        let drawn: u64 = responses
            .iter()
            .map(|r| r.get("engine").and_then(|e| e.get("samples_drawn")).and_then(Json::as_u64))
            .map(Option::unwrap)
            .sum();
        let budgets: Vec<u64> = responses
            .iter()
            .map(|r| r.get("stats").and_then(|s| s.get("sample_budget")).and_then(Json::as_u64))
            .map(Option::unwrap)
            .collect();
        assert_eq!(drawn, *budgets.iter().max().unwrap());
    }

    #[test]
    fn clear_command_cold_starts_future_queries() {
        let detector = service();
        let lines = run_lines(&detector, 1, "{\"id\": 1, \"k\": 4, \"algorithm\": \"sn\"}\n");
        let first_drawn = by_id(&lines, 1)
            .get("engine")
            .and_then(|e| e.get("samples_drawn"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(first_drawn > 0);
        // Same query warm: nothing drawn. After clear: everything drawn.
        let lines = run_lines(
            &detector,
            1,
            concat!(
                "{\"id\": 1, \"k\": 4, \"algorithm\": \"sn\"}\n",
                "{\"id\": 2, \"cmd\": \"clear\"}\n",
                "{\"id\": 3, \"k\": 4, \"algorithm\": \"sn\"}\n",
            ),
        );
        let drawn = |id| {
            by_id(&lines, id)
                .get("engine")
                .and_then(|e| e.get("samples_drawn"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(drawn(1), 0, "warm query must reuse the cache");
        assert_eq!(by_id(&lines, 2).get("cleared").and_then(Json::as_bool), Some(true));
        assert_eq!(drawn(3), first_drawn, "post-clear query must redraw from cold");
    }

    #[test]
    fn hostile_epsilon_is_bounded_by_the_session_sample_cap() {
        // A serve-mode session caps budgets (the CLI wires
        // DEFAULT_SERVE_MAX_SAMPLES into the config); a client-chosen
        // tiny epsilon must answer promptly at the cap instead of
        // pinning a worker on an astronomically large sampling job.
        let graph = Dataset::Interbank.generate_scaled(3, 1.0);
        let detector =
            Detector::builder(graph).seed(7).threads(1).max_samples(2_000).build().unwrap();
        let lines = run_lines(
            &detector,
            1,
            "{\"id\": 1, \"k\": 2, \"algorithm\": \"sn\", \"epsilon\": 0.000001}\n",
        );
        let r = by_id(&lines, 1);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let budget =
            r.get("stats").and_then(|s| s.get("sample_budget")).and_then(Json::as_u64).unwrap();
        assert_eq!(budget, 2_000, "budget must truncate at the session cap");
    }

    #[test]
    fn oversized_and_hostile_lines_get_error_responses_not_crashes() {
        let detector = service();
        // One oversized line (no newline until past the cap), one
        // deeply-nested hostile line, then a normal request: the
        // connection survives all three.
        let mut input = Vec::new();
        input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 100));
        input.push(b'\n');
        input.extend("[".repeat(200_000).into_bytes());
        input.push(b'\n');
        input.extend(b"{\"id\": 9, \"k\": 2, \"algorithm\": \"sn\"}\n");
        let mut output = Vec::new();
        let summary =
            serve(&detector, 2, std::io::Cursor::new(input), &mut output).expect("serve runs");
        assert_eq!(summary.requests, 3);
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect();
        let oversized = lines
            .iter()
            .find(|l| l.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("exceeds")))
            .expect("oversized line answered with an error");
        assert_eq!(oversized.get("ok").and_then(Json::as_bool), Some(false));
        let hostile = lines
            .iter()
            .find(|l| l.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("nesting")))
            .expect("hostile nesting answered with an error");
        assert_eq!(hostile.get("ok").and_then(Json::as_bool), Some(false));
        let good = by_id(&lines, 9);
        assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(good.get("top_k").and_then(Json::as_array).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn a_line_just_past_the_cap_leaves_the_next_line_whole() {
        // The reader's window holds two bytes past the cap (room for a
        // CRLF), so a line one byte over arrives with its newline already
        // read; the next line is a request of its own, not that line's
        // tail to drain.
        let detector = service();
        for (extra, end) in [(1, "\n"), (1, "\r\n"), (2, "\n"), (100, "\n")] {
            let mut input = "x".repeat(MAX_REQUEST_BYTES + extra);
            input.push_str(end);
            input.push_str("{\"id\": 1, \"cmd\": \"stats\"}\n");
            let lines = run_lines(&detector, 1, &input);
            assert_eq!(lines.len(), 2, "{extra} bytes over, ending {end:?}");
            assert_eq!(by_id(&lines, 1).get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn per_request_overrides_parse() {
        let detector = service();
        let lines = run_lines(
            &detector,
            1,
            concat!(
                "{\"id\": 1, \"k\": 3, \"algorithm\": \"sr\", \"epsilon\": 0.5, \"delta\": 0.2, \"seed\": 11, \"candidates\": [0, 1, 2, 3, 4, 5, 6, 7]}\n",
                "{\"id\": 2, \"k\": 3, \"algorithm\": \"sr\", \"epsilon\": 0.1, \"delta\": 0.2, \"seed\": 11, \"candidates\": [0, 1, 2, 3, 4, 5, 6, 7]}\n",
            ),
        );
        let budget = |id| {
            by_id(&lines, id)
                .get("stats")
                .and_then(|s| s.get("sample_budget"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(budget(2) > budget(1), "tighter epsilon must cost a bigger budget");
        let candidates = by_id(&lines, 1)
            .get("stats")
            .and_then(|s| s.get("candidates"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(candidates <= 8);
    }

    #[test]
    fn sample_cap_requests_answer_degraded_and_replay() {
        let detector = service();
        let lines = run_lines(
            &detector,
            1,
            concat!(
                "{\"id\": 1, \"k\": 3, \"algorithm\": \"sn\"}\n",
                "{\"id\": 2, \"cmd\": \"clear\"}\n",
                "{\"id\": 3, \"k\": 3, \"algorithm\": \"sn\", \"sample_cap\": 64}\n",
                "{\"id\": 4, \"cmd\": \"clear\"}\n",
                "{\"id\": 5, \"k\": 3, \"algorithm\": \"sn\", \"sample_cap\": 64}\n",
                "{\"id\": 6, \"k\": 3, \"algorithm\": \"sn\", \"sample_cap\": 0}\n",
            ),
        );
        let full = by_id(&lines, 1);
        assert_eq!(full.get("degraded").and_then(Json::as_bool), Some(false));
        let capped = by_id(&lines, 3);
        assert_eq!(capped.get("ok").and_then(Json::as_bool), Some(true), "{capped}");
        assert_eq!(capped.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            capped.get("stats").and_then(|s| s.get("samples_used")).and_then(Json::as_u64),
            Some(64)
        );
        let widened = capped.get("achieved_epsilon").and_then(Json::as_f64).unwrap();
        assert!(widened.is_finite() && widened > 0.0);
        // Same cap from cold replays the identical degraded answer.
        assert_eq!(by_id(&lines, 5).get("top_k"), capped.get("top_k"), "degraded replay differs");
        // A zero cap is a usage error, not a hung or empty answer.
        assert_eq!(by_id(&lines, 6).get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn timeout_zero_cancels_cold_queries_cleanly() {
        let detector = service();
        let (_, lines) = run_lines_with(
            &detector,
            &ServeOptions::default(),
            "{\"id\": 1, \"k\": 3, \"algorithm\": \"sn\", \"timeout_ms\": 0}\n",
        );
        let r = by_id(&lines, 1);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r}");
        assert!(
            r.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("cancelled")),
            "{r}"
        );
        assert_eq!(detector.session_stats().queries_cancelled, 1);
        // The session is not poisoned.
        let (_, lines) = run_lines_with(
            &detector,
            &ServeOptions::default(),
            "{\"id\": 2, \"k\": 3, \"algorithm\": \"sn\"}\n",
        );
        assert_eq!(by_id(&lines, 2).get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn server_default_timeout_caps_the_clients() {
        let detector = service();
        // An expired server default applies to requests without their
        // own timeout AND caps a client's generous one.
        let options = ServeOptions { default_timeout_ms: Some(0), ..ServeOptions::default() };
        let (_, lines) = run_lines_with(
            &detector,
            &options,
            concat!(
                "{\"id\": 1, \"k\": 3, \"algorithm\": \"sn\"}\n",
                "{\"id\": 2, \"k\": 3, \"algorithm\": \"sn\", \"timeout_ms\": 99999999}\n",
            ),
        );
        for id in [1, 2] {
            let r = by_id(&lines, id);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r}");
        }
        assert_eq!(detector.session_stats().queries_cancelled, 2);
    }

    #[test]
    fn shutdown_acks_stops_intake_and_reports() {
        let detector = service();
        let (summary, lines) = run_lines_with(
            &detector,
            &ServeOptions::default(),
            concat!(
                "{\"id\": 1, \"k\": 3, \"algorithm\": \"sn\"}\n",
                "{\"id\": 2, \"cmd\": \"shutdown\"}\n",
                "{\"id\": 3, \"k\": 3, \"algorithm\": \"sn\"}\n", // after shutdown: unread
            ),
        );
        assert!(summary.shutdown);
        assert_eq!(summary.requests, 2, "intake must stop at the shutdown line");
        assert_eq!(by_id(&lines, 1).get("ok").and_then(Json::as_bool), Some(true));
        let ack = by_id(&lines, 2);
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
        assert!(lines.iter().all(|l| l.get("id").and_then(Json::as_u64) != Some(3)));
    }

    #[test]
    fn flood_past_the_queue_sheds_with_structured_refusals() {
        let detector = service();
        // One worker, a queue of one, and two slow head-of-line queries
        // (tight ε on a cold cache): the burst behind them cannot all
        // fit, so at least one refusal is guaranteed; every refusal is
        // the structured overloaded shape and the summary tallies them.
        let mut input = String::new();
        for id in 0..2u64 {
            input.push_str(&format!(
                "{{\"id\": {id}, \"k\": 3, \"algorithm\": \"sn\", \"epsilon\": 0.03, \"seed\": {id}}}\n"
            ));
        }
        // Every fifth line of the burst is also followed by a malformed
        // one: the reader answers those itself, so a full queue never
        // sheds them.
        let mut malformed = Vec::new();
        for id in 2..40u64 {
            input.push_str(&format!("{{\"id\": {id}, \"cmd\": \"stats\"}}\n"));
            if id % 5 == 0 {
                malformed.push(100 + id);
                input.push_str(&format!("{{\"id\": {}, \"k\": }}\n", 100 + id));
            }
        }
        let options = ServeOptions { workers: 1, queue_depth: 1, ..ServeOptions::default() };
        let (summary, lines) = run_lines_with(&detector, &options, &input);
        assert_eq!(summary.requests, 40 + malformed.len() as u64);
        for id in malformed {
            let bad = by_id(&lines, id);
            assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
            let error = bad.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.starts_with("invalid JSON"), "{bad}");
        }
        let refusals: Vec<&Json> = lines
            .iter()
            .filter(|l| l.get("error").and_then(Json::as_str) == Some("overloaded"))
            .collect();
        assert!(!refusals.is_empty(), "flood past a full queue must shed");
        assert_eq!(summary.shed as usize, refusals.len());
        for refusal in refusals {
            assert_eq!(refusal.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                refusal.get("retry_after_ms").and_then(Json::as_u64),
                Some(RETRY_AFTER_MS),
                "{refusal}"
            );
        }
        assert_eq!(detector.session_stats().requests_shed, summary.shed);
    }

    /// An output whose every write fails, as a reset socket's does.
    struct BrokenOutput;

    impl Write for BrokenOutput {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_output_ends_the_loop_with_an_io_error() {
        let detector = service();
        let detect = |id: u64| format!("{{\"id\": {id}, \"k\": 3, \"algorithm\": \"sn\"}}\n");
        // Each worker exits on its first failed line, so the loop must end
        // without them: queued requests find the queue disconnected, and
        // lines the reader answers itself (malformed, shed, shutdown) find
        // the output failed. A drain window far longer than the bound
        // shows the drain wait ends with the last worker, not on a timer.
        let only_queued: String = (0..300).map(detect).collect();
        let with_inline: String = (0..300)
            .map(|id| if id % 2 == 0 { detect(id) } else { format!("{{\"id\": {id}, \"k\": }}\n") })
            .collect();
        let with_shutdown = format!("{}{{\"id\": 9, \"cmd\": \"shutdown\"}}\n", detect(8));
        for input in [only_queued, with_inline, with_shutdown] {
            for workers in [1, 3] {
                let options = ServeOptions {
                    workers,
                    queue_depth: 2,
                    drain_ms: 600_000,
                    ..ServeOptions::default()
                };
                let started = std::time::Instant::now();
                let err = serve_durable(&detector, &options, None, input.as_bytes(), BrokenOutput)
                    .expect_err("a failed output fails the loop");
                assert_eq!(err.to_string(), "serve: I/O error: peer gone");
                assert!(started.elapsed() < Duration::from_secs(60), "{:?}", started.elapsed());
            }
        }
    }

    /// An output that records every `write` call's bytes separately.
    #[derive(Default)]
    struct RecordingOutput {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingOutput {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_is_one_write() {
        // A line split across writes leaves its tail behind the client's
        // delayed ACK on a TCP stream; every response must be one write.
        let detector = service();
        let mut input = String::from(concat!(
            "{\"id\": 1, \"k\": 3, \"algorithm\": \"bsrbk\"}\n",
            "{\"id\": 2, \"cmd\": \"batch\", \"requests\": [{\"k\": 2, \"algorithm\": \"sn\"}]}\n",
            "{\"id\": 3, \"cmd\": \"update\", \"self_risk\": [[3, 0.6]]}\n",
            "{\"id\": 4, \"cmd\": \"stats\"}\n",
            "{\"id\": 5, \"k\": }\n",
        ));
        input.push_str(&"x".repeat(MAX_REQUEST_BYTES + 100));
        input.push_str("\n{\"id\": 6, \"cmd\": \"shutdown\"}\n");
        for workers in [1, 3] {
            let mut output = RecordingOutput::default();
            let summary = serve(&detector, workers, input.as_bytes(), &mut output).unwrap();
            assert_eq!(summary.requests, 7);
            assert_eq!(output.writes.len(), 7, "one write per response line");
            for write in &output.writes {
                let text = std::str::from_utf8(write).unwrap();
                assert_eq!(text.find('\n'), Some(text.len() - 1), "{text:?}");
                Json::parse(text.trim_end()).expect("a whole JSON line");
            }
        }
    }

    #[test]
    fn tcp_round_trips_skip_the_delayed_ack_floor() {
        use std::io::{BufRead, BufReader, Write};
        let graph = Dataset::Interbank.generate_scaled(3, 1.0);
        let detector = Arc::new(Detector::builder(graph).seed(7).threads(1).build().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Detached acceptor: lives until the test process exits.
        std::thread::spawn(move || {
            let _ = serve_tcp(&detector, listener, &ServeOptions::default(), None);
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = |id: u64| {
            let request = format!("{{\"id\": {id}, \"k\": 3, \"algorithm\": \"sn\"}}\n");
            stream.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let answer = Json::parse(line.trim_end()).unwrap();
            assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(true), "{answer}");
        };
        round_trip(0); // cold: draws the samples the timed requests reuse
        let started = std::time::Instant::now();
        for id in 1..=20 {
            round_trip(id);
        }
        // A response whose newline waits on a delayed ACK costs >= 40 ms
        // on Linux, so twenty of them take >= 800 ms.
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(400), "20 cached round trips took {elapsed:?}");
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        let graph = Dataset::Interbank.generate_scaled(3, 1.0);
        let detector = Arc::new(Detector::builder(graph).seed(7).threads(1).build().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(&detector);
        // Detached acceptor: lives until the test process exits.
        std::thread::spawn(move || {
            let options = ServeOptions { workers: 2, ..ServeOptions::default() };
            let _ = serve_tcp(&server, listener, &options, None);
        });

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\": 1, \"k\": 3, \"algorithm\": \"bsrbk\"}\n{\"id\": 2, \"cmd\": \"stats\"}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            lines.push(Json::parse(&line.unwrap()).unwrap());
        }
        assert_eq!(lines.len(), 2);
        let detect = by_id(&lines, 1);
        assert_eq!(detect.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(detect.get("top_k").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        // The TCP answer matches a direct call on the shared session's twin.
        let direct = detector.detect(&DetectRequest::new(3, AlgorithmKind::BottomK)).unwrap();
        let first = detect.get("top_k").unwrap().as_array().unwrap()[0]
            .get("node")
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(first, direct.top_k[0].node.0 as u64);
    }

    #[test]
    fn tcp_shutdown_refuses_and_exits_cleanly() {
        use std::io::{BufRead, BufReader, Write};
        let graph = Dataset::Interbank.generate_scaled(3, 1.0);
        let detector = Detector::builder(graph).seed(7).threads(1).build().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let detector = Arc::new(detector);
            move || {
                let options = ServeOptions {
                    workers: 1,
                    max_connections: 1,
                    drain_ms: 500,
                    ..ServeOptions::default()
                };
                serve_tcp(&detector, listener, &options, None)
            }
        });
        // First client occupies the single slot (acceptor claims the
        // slot before accepting the next stream, so this is ordered).
        let first = std::net::TcpStream::connect(addr).unwrap();
        // Second client is refused with the structured overloaded line.
        let refused = std::net::TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        BufReader::new(refused).read_line(&mut line).unwrap();
        let refusal = Json::parse(line.trim()).unwrap();
        assert_eq!(refusal.get("error").and_then(Json::as_str), Some("overloaded"), "{refusal}");
        assert_eq!(refusal.get("retry_after_ms").and_then(Json::as_u64), Some(RETRY_AFTER_MS));
        // The surviving client asks the whole server to shut down; the
        // acceptor wakes, drains, and serve_tcp returns.
        let mut first = first;
        first.write_all(b"{\"id\": 1, \"cmd\": \"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        BufReader::new(first.try_clone().unwrap()).read_line(&mut ack).unwrap();
        let ack = Json::parse(ack.trim()).unwrap();
        assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true), "{ack}");
        server.join().unwrap().expect("serve_tcp exits cleanly after shutdown");
    }

    /// Fresh WAL in a per-process temp path; returns the path too so
    /// tests can rescan it after the serve loop drops the log.
    fn temp_wal(name: &str) -> (UpdateLog, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("vulnds-serve-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, 0, crate::wal::FsyncPolicy::Never).expect("create wal");
        (UpdateLog::new(wal, None), path)
    }

    #[test]
    fn update_applies_delta_and_reports_epoch_and_revalidation() {
        let detector = service();
        let lines = run_lines(
            &detector,
            1, // one worker: updates and queries stay in request order
            concat!(
                "{\"id\": 1, \"cmd\": \"detect\", \"k\": 4, \"algorithm\": \"sr\"}\n",
                "{\"id\": 2, \"cmd\": \"update\", \"self_risk\": [[3, 0.6]], \"edge_prob\": [[5, 0.42]]}\n",
                "{\"id\": 3, \"cmd\": \"detect\", \"k\": 4, \"algorithm\": \"sr\"}\n",
                "{\"id\": 4, \"cmd\": \"stats\"}\n",
            ),
        );
        let update = by_id(&lines, 2);
        assert_eq!(update.get("ok").and_then(Json::as_bool), Some(true), "{update}");
        assert_eq!(update.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(update.get("durable").and_then(Json::as_bool), Some(false));
        assert!(update.get("graph_version").and_then(Json::as_u64).unwrap() > 0);
        assert!(update.get("revalidated").is_some() && update.get("invalidated").is_some());
        assert!(update.get("repaired").and_then(Json::as_u64).is_some());

        // The post-update answer is bit-identical to a fresh session on
        // the mutated graph: epoch swap plus revalidation never change
        // what a query computes, only how much survives warm.
        let mut mutated = Dataset::Interbank.generate_scaled(3, 1.0);
        GraphDelta::default()
            .set_self_risk(NodeId(3), 0.6)
            .set_edge_prob(EdgeId(5), 0.42)
            .apply(&mut mutated)
            .expect("delta applies");
        let reference = Detector::builder(mutated).seed(7).threads(1).build().unwrap();
        let want = reference
            .detect(&vulnds_core::DetectRequest::new(4, AlgorithmKind::SampleReverse))
            .unwrap();
        let got = by_id(&lines, 3);
        let got_top: Vec<(u64, String)> = got
            .get("top_k")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                (e.get("node").and_then(Json::as_u64).unwrap(), e.get("score").unwrap().to_string())
            })
            .collect();
        let want_top: Vec<(u64, String)> = want
            .top_k
            .iter()
            .map(|s| (u64::from(s.node.0), Json::from(s.score).to_string()))
            .collect();
        assert_eq!(got_top, want_top);
        assert_eq!(
            got.get("engine").and_then(|e| e.get("epoch")).and_then(Json::as_u64),
            Some(1),
            "{got}"
        );

        let session = by_id(&lines, 4).get("session").cloned().unwrap();
        assert_eq!(session.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(session.get("deltas_applied").and_then(Json::as_u64), Some(1));
        assert!(session.get("caches_revalidated").and_then(Json::as_u64).is_some());
        assert!(session.get("caches_repaired").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn durable_update_is_on_disk_before_the_ack() {
        let detector = service();
        let (updates, path) = temp_wal("durable-ack");
        let mut output = Vec::new();
        let input = concat!(
            "{\"id\": 1, \"cmd\": \"update\", \"edges\": [[0, 1, 0.8]]}\n",
            "{\"id\": 2, \"cmd\": \"update\", \"self_risk\": [[9, 0.3], [4, 0.5]]}\n",
            "{\"id\": 3, \"cmd\": \"stats\"}\n",
        );
        let options = ServeOptions { workers: 1, ..ServeOptions::default() };
        serve_durable(&detector, &options, Some(&updates), input.as_bytes(), &mut output)
            .expect("serve runs");
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect();
        for id in [1, 2] {
            let ack = by_id(&lines, id);
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack}");
            assert_eq!(ack.get("durable").and_then(Json::as_bool), Some(true));
            assert_eq!(ack.get("epoch").and_then(Json::as_u64), Some(id));
        }
        let stats = by_id(&lines, 3);
        assert_eq!(stats.get("wal_records").and_then(Json::as_u64), Some(2));

        // Every acked epoch is a committed record; replaying the log
        // over a fresh copy of the base graph reproduces the live
        // graph bit for bit.
        let scan = crate::wal::scan(&path).expect("scan recovers");
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![1, 2]);
        let mut replayed = Dataset::Interbank.generate_scaled(3, 1.0);
        for record in &scan.records {
            record.delta.apply(&mut replayed).expect("replay applies");
        }
        let live = detector.graph();
        assert_eq!(replayed.num_nodes(), live.num_nodes());
        for v in 0..replayed.num_nodes() {
            assert_eq!(
                replayed.self_risk(NodeId(v as u32)).to_bits(),
                live.self_risk(NodeId(v as u32)).to_bits()
            );
        }
        for e in 0..replayed.num_edges() {
            assert_eq!(
                replayed.edge_prob(EdgeId(e as u32)).to_bits(),
                live.edge_prob(EdgeId(e as u32)).to_bits()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_updates_are_rejected_without_advancing_the_epoch() {
        let detector = service();
        let lines = run_lines(
            &detector,
            1,
            concat!(
                "{\"id\": 1, \"cmd\": \"update\"}\n", // empty delta
                "{\"id\": 2, \"cmd\": \"update\", \"self_risk\": [[99999, 0.5]]}\n",
                "{\"id\": 3, \"cmd\": \"update\", \"edges\": [[0, 0, 0.5]]}\n", // no such edge
                "{\"id\": 4, \"cmd\": \"update\", \"self_risk\": [[1, 1.5]]}\n", // bad prob
                "{\"id\": 5, \"cmd\": \"stats\"}\n",
            ),
        );
        for id in [1, 2, 3, 4] {
            let resp = by_id(&lines, id);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
            assert!(resp.get("error").is_some());
        }
        let session = by_id(&lines, 5).get("session").cloned().unwrap();
        assert_eq!(session.get("epoch").and_then(Json::as_u64), Some(0));
        assert_eq!(session.get("deltas_applied").and_then(Json::as_u64), Some(0));
    }
}
