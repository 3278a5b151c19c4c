//! The long-lived analysis service: connection handling, admission
//! control, backpressure, report persistence, and graceful drain.
//!
//! # Architecture
//!
//! One [`Server`] owns one shared [`ModelCache`] (optionally under an LRU
//! byte budget) and serves any number of connections — unix-socket
//! streams ([`Server::serve_unix`]) or a stdin/stdout pair
//! ([`Server::serve_stdio`]). Each connection speaks the line protocol of
//! [`crate::wire`]: `job` lines stage specs into the connection's pending
//! batch, `run` executes the batch through
//! [`pa_batch::run_batch_in`] over the shared cache — so models stay warm
//! across batches and connections — and appends the report to the
//! append-only JSONL sink.
//!
//! # Admission and backpressure
//!
//! Nothing buffers without bound: each connection's pending batch is
//! capped at [`ServeConfig::queue_depth`] jobs (further `job` lines are
//! rejected with `reason:"backpressure"` until a `run` drains the queue),
//! each wire line is capped at [`crate::wire::MAX_LINE_BYTES`] bytes, and
//! the daemon admits at most [`ServeConfig::max_connections`] concurrent
//! connections (excess connections get one `reason:"admission"` line and
//! are closed). Every rejection is tallied ([`Server::jobs_rejected`],
//! [`Server::connections_rejected`], [`Server::lines_rejected`]) — the
//! bench `serve` block gates the tallies exactly.
//!
//! # Digest equivalence
//!
//! A batch submitted over the wire produces a [`pa_batch::BatchReport`]
//! whose canonical JSON — and FNV digest — is bitwise identical to
//! running the same specs through [`pa_batch::run_batch`] directly, for
//! any worker count, any cache warmth, and any eviction schedule. The
//! argument has three independent legs: the wire codec is the identity on
//! specs (`wire` module docs), evicted models are rebuilt bitwise
//! identically (PR 5/PR 8 determinism contracts, pinned in
//! `pa_batch::cache`), and canonical cache statistics are computed
//! per-batch from the job set alone ([`pa_batch::CacheSession`]). The
//! `tests/service.rs` determinism matrix and the CI `serve-smoke` job pin
//! the composition.
//!
//! # Shutdown
//!
//! A `{"op":"drain"}` line (or stdin EOF in stdio mode) starts a graceful
//! drain: the listener stops admitting, in-flight batches finish under
//! their cooperative timeouts, reports are flushed, and
//! [`Server::serve_unix`] returns. There is no signal handler — the
//! workspace vendors no libc — so process supervisors should send `drain`
//! over the socket instead of relying on `SIGTERM`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pa_batch::{run_batch_in, BatchOptions, BatchReport, JobSpec, ModelCache};
use pa_telemetry::TelemetryScope;

use crate::wire::{
    error_line, json_string, parse_request, CustomRegistry, Request, RunOptions, WireError,
    MAX_LINE_BYTES,
};

/// Service knobs. Everything has a working default; construct with
/// `ServeConfig::default()` and override fields.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Default worker threads per batch (a `run` line may override).
    pub workers: usize,
    /// Maximum staged jobs per connection before `job` lines are rejected
    /// with backpressure.
    pub queue_depth: usize,
    /// Maximum concurrent connections admitted.
    pub max_connections: usize,
    /// LRU byte budget for the shared model cache (`None` = unbounded).
    /// A model is accounted at its CSR rows, one region byte per state and
    /// its decoded starts (`pa_batch::ModelCache`'s eviction docs): the
    /// four n = 4 models of the default fault grid take 53.5 MB, where
    /// rows plus state stores took 316.5 MB, so a given budget holds
    /// about 6× as many of them as when the stores were kept. Rows are
    /// most of it (46.2 MB), at 5 bytes per choice and per transition.
    pub cache_budget: Option<u64>,
    /// Default per-job cooperative timeout (a `run` line may override).
    pub timeout: Option<Duration>,
    /// Append-only JSONL report sink (`None` = no persistence).
    pub report_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 256,
            max_connections: 8,
            cache_budget: None,
            timeout: None,
            report_path: None,
        }
    }
}

/// Lifetime tallies of one server (all monotone; the bench `serve` block
/// gates them exactly).
#[derive(Debug, Default)]
struct ServiceStats {
    jobs_accepted: AtomicU64,
    jobs_rejected: AtomicU64,
    lines_rejected: AtomicU64,
    batches_run: AtomicU64,
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
}

/// The long-lived analysis service (see the module docs).
pub struct Server {
    config: ServeConfig,
    registry: CustomRegistry,
    cache: ModelCache,
    stats: ServiceStats,
    draining: AtomicBool,
    report: Option<Mutex<std::fs::File>>,
    scope: TelemetryScope,
}

impl Server {
    /// Builds a server: a fresh (optionally budgeted) cache and, when
    /// configured, the report sink opened in append mode.
    ///
    /// # Errors
    ///
    /// Opening the report sink.
    pub fn new(config: ServeConfig, registry: CustomRegistry) -> io::Result<Server> {
        let report = match &config.report_path {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let cache = match config.cache_budget {
            Some(budget) => ModelCache::with_budget(budget),
            None => ModelCache::new(),
        };
        Ok(Server {
            config,
            registry,
            cache,
            stats: ServiceStats::default(),
            draining: AtomicBool::new(false),
            report,
            scope: TelemetryScope::new("serve"),
        })
    }

    /// The shared model cache (lifetime counters feed the stats op and
    /// the bench gates).
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// Jobs admitted into pending batches.
    pub fn jobs_accepted(&self) -> u64 {
        self.stats.jobs_accepted.load(Ordering::Relaxed)
    }

    /// Jobs rejected by backpressure or while draining.
    pub fn jobs_rejected(&self) -> u64 {
        self.stats.jobs_rejected.load(Ordering::Relaxed)
    }

    /// Lines rejected as malformed (syntax, unknown ops/kinds, oversize).
    pub fn lines_rejected(&self) -> u64 {
        self.stats.lines_rejected.load(Ordering::Relaxed)
    }

    /// Batches executed.
    pub fn batches_run(&self) -> u64 {
        self.stats.batches_run.load(Ordering::Relaxed)
    }

    /// Connections admitted.
    pub fn connections_accepted(&self) -> u64 {
        self.stats.connections_accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the admission gate.
    pub fn connections_rejected(&self) -> u64 {
        self.stats.connections_rejected.load(Ordering::Relaxed)
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain (idempotent). Streams notice at their
    /// next request line; [`Server::serve_unix`] stops admitting.
    /// SeqCst: the flag is set on a handler thread and must be visible to
    /// the accept loop once its wake-up connection lands.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn count(&self, counter: &AtomicU64, metric: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        let _in_scope = self.scope.enter();
        pa_telemetry::counter(metric).inc();
    }

    /// Appends one report line to the sink:
    /// `{"schema":"pa-serve/report/v1","digest":"…","canonical":{…}}`.
    fn persist(&self, report: &BatchReport) -> io::Result<bool> {
        let Some(sink) = &self.report else {
            return Ok(false);
        };
        let line = format!(
            "{{\"schema\":\"pa-serve/report/v1\",\"digest\":\"{}\",\"canonical\":{}}}\n",
            report.digest(),
            report.canonical_json()
        );
        let mut file = sink.lock().expect("report sink poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(true)
    }

    fn run_response(&self, report: &BatchReport, persisted: bool) -> String {
        let tally = report.tally();
        format!(
            "{{\"ok\":true,\"digest\":\"{}\",\"jobs\":{},\"done\":{},\"failed\":{},\
             \"timed_out\":{},\"cancelled\":{},\"violated\":{},\"workers\":{},\
             \"wall_seconds\":{},\"persisted\":{persisted}}}",
            report.digest(),
            report.jobs.len(),
            tally.done,
            tally.failed,
            tally.timed_out,
            tally.cancelled,
            tally.violated,
            report.workers,
            report.wall_seconds,
        )
    }

    fn stats_response(&self, pending: usize) -> String {
        let budget = match self.cache.budget() {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"ok\":true,\"stats\":{{\"schema\":\"pa-serve/stats/v3\",\
             \"jobs_accepted\":{},\"jobs_rejected\":{},\"lines_rejected\":{},\
             \"batches_run\":{},\"connections_accepted\":{},\"connections_rejected\":{},\
             \"pending\":{pending},\"draining\":{},\
             \"cache\":{{\"model_hits\":{},\"model_misses\":{},\"rebuilds\":{},\
             \"evictions\":{},\"resident_bytes\":{},\"budget\":{budget},\
             \"distinct_models\":{}}}}}}}",
            self.jobs_accepted(),
            self.jobs_rejected(),
            self.lines_rejected(),
            self.batches_run(),
            self.connections_accepted(),
            self.connections_rejected(),
            self.draining(),
            self.cache.model_hits(),
            self.cache.model_misses(),
            self.cache.rebuilds(),
            self.cache.evictions(),
            self.cache.resident_bytes(),
            self.cache.distinct_models(),
        )
    }

    /// Serves one connection: reads request lines, writes one response
    /// line each, runs batches over the shared cache. Returns `true` when
    /// the peer requested a drain (the caller shuts the daemon down).
    ///
    /// Blank lines are ignored; malformed lines get a structured
    /// `reason:"bad-line"` response and never poison the staged batch or
    /// the connection.
    ///
    /// # Errors
    ///
    /// Only transport I/O errors; protocol problems are in-band.
    pub fn handle_stream<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<bool> {
        let mut pending: Vec<JobSpec> = Vec::new();
        loop {
            let line = match read_line_capped(&mut reader)? {
                None => return Ok(false),
                Some(Err(err)) => {
                    self.count(&self.stats.lines_rejected, "serve.lines.rejected");
                    writeln!(writer, "{}", error_line("bad-line", &err.message))?;
                    writer.flush()?;
                    continue;
                }
                Some(Ok(line)) => line,
            };
            if line.trim().is_empty() {
                continue;
            }
            let response = match parse_request(&line, &self.registry) {
                Err(err) => {
                    self.count(&self.stats.lines_rejected, "serve.lines.rejected");
                    error_line("bad-line", &err.message)
                }
                Ok(Request::Ping) => "{\"ok\":true,\"pong\":true}".to_string(),
                Ok(Request::Stats) => self.stats_response(pending.len()),
                Ok(Request::Drain) => {
                    self.request_drain();
                    writeln!(writer, "{{\"ok\":true,\"draining\":true}}")?;
                    writer.flush()?;
                    return Ok(true);
                }
                Ok(Request::Job(spec)) => {
                    if self.draining() {
                        self.count(&self.stats.jobs_rejected, "serve.jobs.rejected");
                        error_line("draining", "server is draining; no new jobs")
                    } else if pending.len() >= self.config.queue_depth {
                        self.count(&self.stats.jobs_rejected, "serve.jobs.rejected");
                        error_line(
                            "backpressure",
                            &format!(
                                "pending queue full ({} jobs); run or drop the batch first",
                                pending.len()
                            ),
                        )
                    } else {
                        let key = spec.key();
                        pending.push(*spec);
                        self.count(&self.stats.jobs_accepted, "serve.jobs.accepted");
                        format!(
                            "{{\"ok\":true,\"queued\":{},\"key\":{}}}",
                            pending.len(),
                            json_string(&key)
                        )
                    }
                }
                Ok(Request::Run(opts)) => self.run_pending(&mut pending, opts),
            };
            writeln!(writer, "{response}")?;
            writer.flush()?;
        }
    }

    /// Runs and clears the pending batch (also cleared on batch-assembly
    /// errors: a rejected batch is consumed, not retried line-by-line).
    fn run_pending(&self, pending: &mut Vec<JobSpec>, opts: RunOptions) -> String {
        if pending.is_empty() {
            return error_line("empty-batch", "no jobs staged; submit job lines first");
        }
        let options = BatchOptions {
            workers: opts.workers.unwrap_or(self.config.workers).max(1),
            timeout: opts
                .timeout_secs
                .map(Duration::from_secs_f64)
                .or(self.config.timeout),
            cancel: None,
        };
        let specs = std::mem::take(pending);
        match run_batch_in(&specs, &options, &self.cache) {
            Ok(report) => {
                self.count(&self.stats.batches_run, "serve.batches.run");
                let persisted = match self.persist(&report) {
                    Ok(persisted) => persisted,
                    Err(e) => {
                        return error_line(
                            "report-sink",
                            &format!("batch ran but persisting failed: {e}"),
                        )
                    }
                };
                self.run_response(&report, persisted)
            }
            Err(e) => error_line("batch-error", &e.to_string()),
        }
    }

    /// Binds `path` (replacing a stale socket file) and serves until a
    /// peer sends `drain`. One thread per admitted connection; over-cap
    /// connections are refused with one `reason:"admission"` line.
    /// In-flight connections finish before this returns; the socket file
    /// is removed on the way out.
    ///
    /// # Errors
    ///
    /// Binding or accepting on the socket.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        let active = AtomicUsize::new(0);
        let active_ref = &active;
        std::thread::scope(|scope| -> io::Result<()> {
            loop {
                let (stream, _) = listener.accept()?;
                if self.draining() {
                    // Either the drain wake-up connection or a late
                    // client; both get told and the listener stops.
                    let _ = writeln!(&stream, "{}", error_line("draining", "server is draining"));
                    return Ok(());
                }
                if active.load(Ordering::Relaxed) >= self.config.max_connections {
                    self.count(
                        &self.stats.connections_rejected,
                        "serve.connections.rejected",
                    );
                    let _ = writeln!(
                        &stream,
                        "{}",
                        error_line(
                            "admission",
                            &format!("connection limit reached ({})", self.config.max_connections),
                        )
                    );
                    continue;
                }
                self.count(
                    &self.stats.connections_accepted,
                    "serve.connections.accepted",
                );
                active.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || {
                    let result = stream.try_clone().and_then(|read_half| {
                        self.handle_stream(BufReader::new(read_half), &stream)
                    });
                    active_ref.fetch_sub(1, Ordering::Relaxed);
                    if matches!(result, Ok(true)) {
                        // Wake the blocked accept() so the listener loop
                        // observes the drain flag and exits.
                        let _ = UnixStream::connect(path);
                    }
                });
            }
        })?;
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Serves one session over stdin/stdout (EOF ends it — the stdio
    /// analogue of `drain`).
    ///
    /// # Errors
    ///
    /// Transport I/O errors.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.handle_stream(stdin.lock(), stdout.lock())?;
        self.request_drain();
        Ok(())
    }
}

/// Reads one `\n`-terminated line, capped at [`MAX_LINE_BYTES`]:
/// `None` = EOF, `Some(Err(_))` = oversized or non-UTF-8 (the rest of the
/// offending line is consumed so the stream stays line-aligned).
fn read_line_capped<R: BufRead>(reader: &mut R) -> io::Result<Option<Result<String, WireError>>> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_LINE_BYTES {
        // Oversized: discard through the end of the line.
        let mut total = buf.len();
        loop {
            let mut rest = Vec::new();
            let m = reader
                .by_ref()
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut rest)?;
            total += m;
            if m == 0 || rest.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Some(Err(WireError {
            message: format!("line exceeds {MAX_LINE_BYTES} bytes ({total} read)"),
        })));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(Ok(line))),
        Err(_) => Ok(Some(Err(WireError {
            message: "line is not valid UTF-8".to_string(),
        }))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn server() -> Server {
        Server::new(ServeConfig::default(), CustomRegistry::new()).unwrap()
    }

    fn drive(server: &Server, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        server
            .handle_stream(Cursor::new(input.as_bytes().to_vec()), &mut out)
            .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn ping_and_stats_respond_in_order() {
        let s = server();
        let lines = drive(&s, "{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n");
        assert_eq!(lines.len(), 2, "blank line gets no response");
        assert!(lines[0].contains("\"pong\":true"));
        assert!(lines[1].contains("\"pa-serve/stats/v3\""));
        assert!(lines[1].contains("\"budget\":null"));
        // v3 ends the cache block at its model counters and has no
        // stored-model counters or block-store gauges.
        assert!(lines[1].contains("\"distinct_models\":0}}}"));
        assert!(!lines[1].contains("\"store\""));
        assert!(!lines[1].contains("stored_"));
    }

    #[test]
    fn backpressure_rejects_beyond_queue_depth() {
        let config = ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let s = Server::new(config, CustomRegistry::new()).unwrap();
        let job = "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3}";
        let job2 = "{\"op\":\"job\",\"kind\":{\"arrow\":1},\"n\":3}";
        let job3 = "{\"op\":\"job\",\"kind\":{\"arrow\":2},\"n\":3}";
        let lines = drive(&s, &format!("{job}\n{job2}\n{job3}\n"));
        assert!(lines[0].contains("\"queued\":1"));
        assert!(lines[1].contains("\"queued\":2"));
        assert!(lines[2].contains("\"reason\":\"backpressure\""));
        assert_eq!(s.jobs_accepted(), 2);
        assert_eq!(s.jobs_rejected(), 1);
    }

    #[test]
    fn empty_run_is_an_in_band_error() {
        let s = server();
        let lines = drive(&s, "{\"op\":\"run\"}\n");
        assert!(lines[0].contains("\"reason\":\"empty-batch\""));
        assert_eq!(s.batches_run(), 0);
    }

    #[test]
    fn duplicate_keys_consume_the_batch() {
        let s = server();
        let job = "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3}";
        let lines = drive(
            &s,
            &format!("{job}\n{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"run\"}}\n"),
        );
        assert!(lines[2].contains("\"reason\":\"batch-error\""));
        assert!(lines[2].contains("duplicate job key"));
        assert!(
            lines[3].contains("\"reason\":\"empty-batch\""),
            "failed batch was consumed: {}",
            lines[3]
        );
    }

    #[test]
    fn drain_ends_the_stream_and_flags_the_server() {
        let s = server();
        let mut out = Vec::new();
        let drained = s
            .handle_stream(
                Cursor::new(b"{\"op\":\"drain\"}\n{\"op\":\"ping\"}\n".to_vec()),
                &mut out,
            )
            .unwrap();
        assert!(drained);
        assert!(s.draining());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"draining\":true"));
        assert!(!text.contains("pong"), "no lines served after drain");
    }

    #[test]
    fn jobs_are_rejected_while_draining() {
        let s = server();
        s.request_drain();
        let lines = drive(&s, "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3}\n");
        assert!(lines[0].contains("\"reason\":\"draining\""));
        assert_eq!(s.jobs_rejected(), 1);
    }

    #[test]
    fn oversized_lines_are_skipped_without_desync() {
        let s = server();
        let long = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let lines = drive(&s, &format!("{long}\n{{\"op\":\"ping\"}}\n"));
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"reason\":\"bad-line\""));
        assert!(lines[0].contains("exceeds"));
        assert!(lines[1].contains("\"pong\":true"), "stream stayed aligned");
        assert_eq!(s.lines_rejected(), 1);
    }

    #[test]
    fn invalid_utf8_is_a_bad_line() {
        let s = server();
        let mut input = b"{\"op\":\"ping\"}\n".to_vec();
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut out = Vec::new();
        s.handle_stream(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("not valid UTF-8"));
        assert!(lines[2].contains("\"pong\":true"));
    }
}
