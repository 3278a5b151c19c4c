//! `batch-socket`: in-process `pa-serve` daemons (2 workers, unbounded
//! model cache) and one client connection submitting the batch suite over
//! the unix socket: every paper arrow under four fault plans, the composed
//! arrow, both expected-time bounds, the invariant and the appendix lemmas
//! at `n = 3, 4`, plus three sampled `n = 8` jobs. Each pass starts a
//! fresh daemon and submits the suite twice: cold (the batch pays the
//! model builds) and warm.
//!
//! The traced run adds spans per socket line, and after the passes a
//! direct probe on a fresh `ModelCache`: one span per `ModelCache::model`
//! key, then `run_batch_in` for per-job busy time by kind.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pa_batch::{run_batch_in, BatchOptions, JobKind, JobSpec, McSettings, ModelCache};
use pa_core::SetExpr;
use pa_faults::default_grid;
use pa_lehmann_rabin::{lemmas, paper};
use pa_serve::json::Json;
use pa_serve::{spec_to_wire, CustomRegistry, ServeConfig, Server};

use crate::{median, percentile, total_s, trace, traced_median, Ctx, Res, Shape, Workload};

/// Report digest of the full job set (`n = 3, 4` plus the sampled jobs).
const DIGEST_FULL: &str = "d86dde1290ae8b3c";
/// Report digest of the `n = 3` model-backed subset, pinned since
/// `pa-batch` landed.
const DIGEST_N3: &str = "102994e6e3208eed";
/// Batch worker threads.
const WORKERS: usize = 2;
/// Trajectories of each sampled job.
const TRAJECTORIES: u64 = 10_000;
/// Span pass id of the post-run direct probe.
const PROBE: usize = usize::MAX;

/// The model-backed jobs of ring sizes `sizes`: each paper arrow under
/// each default-grid fault plan, the composed arrow, both expected-time
/// bounds, the invariant, and (up to `n = 4`) the appendix lemmas.
fn model_specs(sizes: &[usize]) -> Vec<JobSpec> {
    let grid = default_grid();
    let mut specs = Vec::new();
    for &n in sizes {
        for (name, plan) in &grid {
            for index in 0..paper::all_arrows().len() {
                specs.push(
                    JobSpec::new(n, JobKind::Arrow { index }).with_plan(name.clone(), plan.clone()),
                );
            }
        }
        specs.push(JobSpec::new(n, JobKind::ComposedArrow));
        for (from, to, bound) in [
            ("RT", "P", paper::expected_time_rt_to_p()),
            ("T", "C", paper::expected_time_t_to_c()),
        ] {
            specs.push(JobSpec::new(
                n,
                JobKind::ExpectedTime {
                    from: SetExpr::named(from),
                    to: SetExpr::named(to),
                    bound,
                },
            ));
        }
        specs.push(JobSpec::new(n, JobKind::Invariant));
        if n <= 4 {
            for index in 0..lemmas::appendix_lemmas().len() {
                specs.push(JobSpec::new(n, JobKind::Lemma { index }));
            }
        }
    }
    specs
}

/// Three sampled reachability estimates on a ring of 8 under the uniform
/// adversary, with fixed seeds (so every pinned answer holds).
fn sampled_specs() -> Vec<JobSpec> {
    [("C", 13, 1), ("P", 13, 2), ("C", 8, 3)]
        .into_iter()
        .map(|(target, within, seed)| {
            JobSpec::new(
                8,
                JobKind::Sampled {
                    target: SetExpr::named(target),
                    within,
                    claimed: 0.125,
                    mc: McSettings {
                        trajectories: TRAJECTORIES,
                        seed,
                    },
                },
            )
        })
        .collect()
}

/// The per-kind busy-time bucket of a job.
fn kind_label(kind: &JobKind) -> &'static str {
    match kind {
        JobKind::Arrow { .. } | JobKind::ComposedArrow | JobKind::Reach { .. } => "batch.arrow_s",
        JobKind::ExpectedTime { .. } => "batch.etime_s",
        JobKind::Lemma { .. } => "batch.lemma_s",
        JobKind::Invariant => "batch.invariant_s",
        JobKind::Sampled { .. } => "batch.sampled_s",
        _ => "batch.job_busy_s",
    }
}

/// One line-protocol client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Res<Client> {
        // The daemon thread may still be binding.
        for _ in 0..1000 {
            if let Ok(stream) = UnixStream::connect(path) {
                return Ok(Client {
                    reader: BufReader::new(stream.try_clone()?),
                    writer: stream,
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!("could not connect to {}", path.display()).into())
    }

    fn send(&mut self, line: &str) -> Res<Json> {
        writeln!(self.writer, "{line}")?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(Json::parse(response.trim_end())?)
    }
}

/// An in-process daemon serving one unix socket, and its client.
struct Daemon {
    server: Arc<Server>,
    thread: JoinHandle<std::io::Result<()>>,
    client: Client,
}

impl Daemon {
    fn start(path: PathBuf) -> Res<Daemon> {
        let config = ServeConfig {
            workers: WORKERS,
            cache_budget: None,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(config, CustomRegistry::new())?);
        let thread = {
            let server = Arc::clone(&server);
            let path = path.clone();
            std::thread::spawn(move || server.serve_unix(&path))
        };
        let client = Client::connect(&path)?;
        Ok(Daemon {
            server,
            thread,
            client,
        })
    }

    /// Drains the daemon and waits for its thread.
    fn stop(mut self) -> Res<()> {
        let reply = self.client.send("{\"op\":\"drain\"}")?;
        if reply.get("draining").and_then(Json::as_bool) != Some(true) {
            return Err(format!("drain refused: {reply:?}").into());
        }
        drop(self.client);
        self.thread
            .join()
            .map_err(|_| "serve daemon panicked")?
            .map_err(|e| format!("serve daemon: {e}"))?;
        Ok(())
    }
}

/// What one submitted batch returned.
struct Submitted {
    /// First job line sent to digest reply received.
    turnaround_s: f64,
    /// Daemon-reported batch wall time.
    wall_s: f64,
    ack_ms: Vec<f64>,
    digest: String,
}

/// Sends every job line in `order`, then the run line, and verifies the
/// reply against `pinned`.
fn submit(ctx: &mut Ctx, client: &mut Client, lines: &[String], pinned: &str) -> Res<Submitted> {
    let order = ctx.rng.order(lines.len());
    let mut ack_ms = Vec::with_capacity(lines.len());
    let mut acks_ok = true;
    let t0 = Instant::now();
    for &index in &order {
        let t = Instant::now();
        let ack = client.send(&lines[index])?;
        let end = Instant::now();
        trace::record("serve.job_line", t, end);
        ack_ms.push((end - t).as_secs_f64() * 1e3);
        acks_ok &= ack.get("ok").and_then(Json::as_bool) == Some(true);
    }
    let run_line = format!("{{\"op\":\"run\",\"workers\":{WORKERS}}}");
    let done = trace::span("serve.run_line", || client.send(&run_line))?;
    let turnaround_s = t0.elapsed().as_secs_f64();
    let field = |key: &str| done.get(key).and_then(Json::as_f64);
    let digest = done
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let pinned = ctx.pin(pinned, "ffffffffffffffff");
    ctx.check(acks_ok, "every job line acknowledged");
    ctx.check(
        field("jobs") == Some(lines.len() as f64) && field("failed") == Some(0.0),
        format!(
            "batch of {} jobs ran without failures: {done:?}",
            lines.len()
        ),
    );
    ctx.check(
        digest == pinned,
        format!("batch digest {digest}, pinned {pinned}"),
    );
    Ok(Submitted {
        turnaround_s,
        wall_s: field("wall_seconds").unwrap_or(0.0),
        ack_ms,
        digest,
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hands the heap a drained daemon freed back to the OS, so that the next
/// pass's peak RSS is its own and not stacked on memory the allocator
/// kept from the previous daemon.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` takes a padding byte count, only walks
    // the allocator's own free lists under their locks, and may be called
    // from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Lifetime counters of the daemon's model cache.
fn cache_counters(cache: &ModelCache) -> [u64; 3] {
    [
        cache.model_hits(),
        cache.model_misses(),
        cache.config_hits(),
    ]
}

pub struct BatchSocket {
    specs: Vec<JobSpec>,
    lines: Vec<String>,
    digest_pin: &'static str,
    /// Model hits, model misses and config hits of the last cold batch.
    cold_counters: [u64; 3],
    /// Client turnaround of each cold and each warm batch.
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    /// Every job line's acknowledgement latency.
    ack_ms: Vec<f64>,
    /// Client turnaround minus the daemon's batch wall time, every batch.
    overhead_s: Vec<f64>,
    answers: String,
}

impl BatchSocket {
    pub fn new(shape: Shape) -> BatchSocket {
        let (specs, digest_pin) = match shape {
            Shape::Full => {
                let mut specs = model_specs(&[3, 4]);
                specs.extend(sampled_specs());
                (specs, DIGEST_FULL)
            }
            Shape::N3 => (model_specs(&[3]), DIGEST_N3),
        };
        BatchSocket {
            specs,
            lines: Vec::new(),
            digest_pin,
            cold_counters: [0; 3],
            cold_s: Vec::new(),
            warm_s: Vec::new(),
            ack_ms: Vec::new(),
            overhead_s: Vec::new(),
            answers: String::new(),
        }
    }

    /// Submits the job set once and records its latencies.
    fn batch(&mut self, ctx: &mut Ctx, daemon: &mut Daemon) -> Res<f64> {
        let sub = submit(ctx, &mut daemon.client, &self.lines, self.digest_pin)?;
        self.ack_ms.extend(sub.ack_ms);
        self.overhead_s.push(sub.turnaround_s - sub.wall_s);
        self.answers = sub.digest;
        Ok(sub.turnaround_s)
    }

    /// The direct probe: a fresh cache, one span per distinct model key,
    /// then `run_batch_in` over the warm cache.
    fn probe(&self, ctx: &mut Ctx) -> Res<()> {
        trace::set_pass(PROBE);
        trace::set_enabled(true);
        let cache = ModelCache::new();
        let mut keys = Vec::new();
        for spec in &self.specs {
            if !matches!(spec.kind, JobKind::Sampled { .. })
                && !keys.contains(&(spec.n, spec.plan.clone()))
            {
                keys.push((spec.n, spec.plan.clone()));
                trace::span("batch.model", || {
                    cache.model(spec.n, &spec.plan, spec.state_limit)
                })?;
            }
        }
        let options = BatchOptions::with_workers(WORKERS);
        let report = trace::span("batch.run_batch_in", || {
            run_batch_in(&self.specs, &options, &cache)
        })?;
        trace::set_enabled(false);
        let digest = report.digest();
        let pinned = ctx.pin(self.digest_pin, "ffffffffffffffff");
        ctx.check(
            digest == pinned,
            format!("direct run_batch_in digest {digest}, pinned {pinned}"),
        );

        let kinds: HashMap<String, &'static str> = self
            .specs
            .iter()
            .map(|s| (s.key(), kind_label(&s.kind)))
            .collect();
        let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
        for job in &report.jobs {
            *busy.entry(kinds[&job.key]).or_default() += job.seconds;
        }
        let total: f64 = report.jobs.iter().map(|j| j.seconds).sum();
        let trajectories = self
            .specs
            .iter()
            .map(|s| match &s.kind {
                JobKind::Sampled { mc, .. } => mc.trajectories,
                _ => 0,
            })
            .sum::<u64>() as f64;
        let sampled_s = busy.get("batch.sampled_s").copied().unwrap_or(0.0);
        for label in [
            "batch.arrow_s",
            "batch.etime_s",
            "batch.lemma_s",
            "batch.invariant_s",
            "batch.sampled_s",
        ] {
            ctx.layer(label, busy.get(label).copied().unwrap_or(0.0));
        }
        ctx.layer("batch.job_busy_s", total);
        ctx.layer(
            "batch.worker_idle_frac",
            1.0 - total / (WORKERS as f64 * report.wall_seconds),
        );
        ctx.layer(
            "mc.trajectories_per_s",
            if sampled_s > 0.0 {
                trajectories / sampled_s
            } else {
                0.0
            },
        );
        let totals = trace::totals(PROBE);
        ctx.layer("batch.model_build_s", total_s(&totals, "batch.model"));
        ctx.layer("batch.run_s", total_s(&totals, "batch.run_batch_in"));
        Ok(())
    }
}

impl Workload for BatchSocket {
    /// The pre-flight: a fresh daemon answers the `n = 3` subset over the
    /// socket with its pinned digest, and drains.
    fn setup(&mut self, ctx: &mut Ctx, rep: usize, _reps: usize) -> Res<()> {
        let preflight: Vec<String> = model_specs(&[3])
            .iter()
            .map(spec_to_wire)
            .collect::<Result<_, _>>()?;
        let mut daemon = Daemon::start(ctx.work.join(format!("pre-{rep}.sock")))?;
        submit(ctx, &mut daemon.client, &preflight, DIGEST_N3)?;
        daemon.stop()?;
        self.lines = self
            .specs
            .iter()
            .map(spec_to_wire)
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// A fresh daemon answers the job set twice: cold (the batch pays the
    /// model builds, as on a new daemon) and warm (every model cached).
    fn pass(&mut self, ctx: &mut Ctx, pass: usize) -> Res<f64> {
        let t = Instant::now();
        let path = ctx.work.join(format!("serve-{pass}.sock"));
        let mut daemon = trace::span("serve.start", || Daemon::start(path))?;
        let before = cache_counters(daemon.server.cache());
        let cold = self.batch(ctx, &mut daemon)?;
        let after = cache_counters(daemon.server.cache());
        let warm = self.batch(ctx, &mut daemon)?;
        let rebuilt = cache_counters(daemon.server.cache())[1] - after[1];
        ctx.check(rebuilt == 0, format!("warm batch built {rebuilt} models"));
        trace::span("serve.drain", || daemon.stop())?;
        trim_heap();
        self.cold_counters = [0, 1, 2].map(|i| after[i] - before[i]);
        self.cold_s.push(cold);
        self.warm_s.push(warm);
        Ok(t.elapsed().as_secs_f64())
    }

    fn layers(&mut self, ctx: &mut Ctx, traced: &[usize]) -> Res<()> {
        let [hits, misses, config_hits] = self.cold_counters;
        ctx.layer("batch.model_hits", hits as f64);
        ctx.layer("batch.model_misses", misses as f64);
        ctx.layer("batch.config_hits", config_hits as f64);
        ctx.layer("serve.cold_batch_s", median(&self.cold_s));
        ctx.layer("serve.warm_batch_s", median(&self.warm_s));
        ctx.layer("serve.ack_p50_ms", percentile(&self.ack_ms, 0.5));
        ctx.layer("serve.ack_p90_ms", percentile(&self.ack_ms, 0.9));
        ctx.layer(
            "serve.lines_s",
            traced_median(traced, |m| total_s(m, "serve.job_line")),
        );
        ctx.layer("serve.overhead_s", median(&self.overhead_s));
        ctx.layer(
            "serve.daemon_s",
            traced_median(traced, |m| {
                total_s(m, "serve.start") + total_s(m, "serve.drain")
            }),
        );
        self.probe(ctx)
    }

    fn answers(&self) -> String {
        self.answers.clone()
    }
}
