//! End-to-end benchmark of the checker.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--shape full|n3] [--break-pin]
//! ```
//!
//! One process runs one workload as a closed loop: one client, each pass
//! starting only after the previous one finished and was verified. The
//! seed permutes the order of checks, job lines and queries; it never
//! changes an answer, so every pass is checked against pinned values.
//! Set-up (daemon start, spill) is timed apart from the passes and
//! repeated so that `setup_s` is a median.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of the traced run
//! (spans around each call into a layer's public functions, see
//! [`trace`]). `--shape n3` is the small shape the self-tests use;
//! `--break-pin` corrupts one pinned answer so the run must fail.

mod batch;
mod claims;
mod stored;
mod trace;

use std::collections::BTreeMap;
use std::error::Error;
use std::path::PathBuf;
use std::time::Instant;

use trace::Totals;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// The end-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// The per-layer metrics, printed on every workload with `--trace 1`
/// (0 where the workload does not reach the layer from a traced call).
const PER_LAYER: &[(&str, &str)] = &[
    ("lr.reachable_s", "s"),
    ("lr.reachable_calls", "count"),
    ("lr.with_starts_s", "s"),
    ("mdp.explore_s", "s"),
    ("mdp.explore_calls", "count"),
    ("mdp.explore_states", "count"),
    ("mdp.explore_states_per_s", "1/s"),
    ("mdp.model_bytes", "B"),
    ("mdp.csr_build_s", "s"),
    ("mdp.target_mask_s", "s"),
    ("mdp.solve_s", "s"),
    ("mdp.drop_s", "s"),
    ("mdp.solve_sweeps", "count"),
    ("mdp.solve_state_updates", "count"),
    ("batch.model_build_s", "s"),
    ("batch.model_hits", "count"),
    ("batch.model_misses", "count"),
    ("batch.config_hits", "count"),
    ("batch.run_s", "s"),
    ("batch.job_busy_s", "s"),
    ("batch.arrow_s", "s"),
    ("batch.etime_s", "s"),
    ("batch.lemma_s", "s"),
    ("batch.invariant_s", "s"),
    ("batch.sampled_s", "s"),
    ("batch.worker_idle_frac", "ratio"),
    ("mc.trajectories_per_s", "1/s"),
    ("serve.cold_batch_s", "s"),
    ("serve.warm_batch_s", "s"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_p90_ms", "ms"),
    ("serve.lines_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.daemon_s", "s"),
    ("store.spill_s", "s"),
    ("store.file_bytes", "B"),
    ("store.open_s", "s"),
    ("store.query_s", "s"),
    ("store.faults", "count"),
    ("store.hits", "count"),
    ("store.evictions", "count"),
    ("store.faults_per_level", "count"),
    ("store.bytes_paged", "B"),
    ("store.peak_resident_bytes", "B"),
    ("store.solve_sweeps", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.wall_traced_s", "s"),
    ("trace.wall_untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Passes per run at least (in a traced run, two traced and one
/// untraced).
const MIN_PASSES: usize = 3;

/// Problem size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The benchmark's reference size.
    Full,
    /// The `n = 3` shape the self-tests run.
    N3,
}

/// SplitMix64: the seed's permutation stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A permutation of `0..len` (Fisher–Yates).
    pub fn order(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// What a workload sees: the run's settings, the answer checks and the
/// per-layer metrics it fills in.
pub struct Ctx {
    break_pin: bool,
    /// Scratch directory for the spill and the socket, inside the
    /// working directory; removed (and checked gone) at exit.
    pub work: PathBuf,
    pub rng: SplitMix64,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
}

impl Ctx {
    /// Counts one verified operation; a failed check is reported on
    /// stderr and counts toward `fail_frac`.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH: {what}");
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The pinned value, or a corrupted one under `--break-pin`.
    pub fn pin<T: Copy>(&self, pinned: T, broken: T) -> T {
        if self.break_pin {
            broken
        } else {
            pinned
        }
    }
}

/// One workload: repeated set-up, then closed-loop passes.
pub trait Workload {
    /// One set-up repetition (`rep` of `reps`); the last one leaves the
    /// workload ready for its passes.
    fn setup(&mut self, ctx: &mut Ctx, rep: usize, reps: usize) -> Res<()>;
    /// One verified pass; returns its measured seconds.
    fn pass(&mut self, ctx: &mut Ctx, pass: usize) -> Res<f64>;
    /// Fills the per-layer metrics of a traced run, mostly from the spans
    /// of the `traced` passes.
    fn layers(&mut self, ctx: &mut Ctx, traced: &[usize]) -> Res<()>;
    /// Releases resources and runs the end-of-run checks.
    fn finish(&mut self, _ctx: &mut Ctx) -> Res<()> {
        Ok(())
    }
    /// A digest of every answer of the run, equal across traced and
    /// untraced runs.
    fn answers(&self) -> String;
}

/// FNV-1a 64 over bytes, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", pa_store::fnv1a_64(bytes))
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`), except that the median of
/// an even count averages the two middle values; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let m = sorted.len() / 2;
        return (sorted[m - 1] + sorted[m]) / 2.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over the traced passes of a value derived from each pass's
/// span totals.
pub fn traced_median(passes: &[usize], f: impl Fn(&BTreeMap<&'static str, Totals>) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(|&p| f(&trace::totals(p))).collect();
    median(&values)
}

/// Total seconds of the spans named `name` in one pass.
pub fn total_s(totals: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_s)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The run's scratch directory, removed on every way out of [`run`].
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    shape: Shape,
    break_pin: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        shape: Shape::Full,
        break_pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--shape" => {
                args.shape = match value()?.as_str() {
                    "full" => Shape::Full,
                    "n3" => Shape::N3,
                    other => return Err(format!("unknown shape {other}").into()),
                }
            }
            "--break-pin" => args.break_pin = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--seconds must be non-negative".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Res<bool> {
    // Telemetry stays off: the measured numbers are the default
    // configuration (the claims workload measures its cost separately).
    pa_telemetry::set_enabled(false);
    // One engine worker per thread of load: the batch daemon already runs
    // two batch workers, so the load stays at two threads, the reference
    // container's core count. Set before any engine thread starts.
    std::env::set_var("PA_MDP_WORKERS", "1");
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work)?;
    let scratch = Scratch(work.clone());
    let mut ctx = Ctx {
        break_pin: args.break_pin,
        work: work.clone(),
        rng: SplitMix64(args.seed),
        attempted: 0,
        failed: 0,
        layers: BTreeMap::new(),
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "claims-quotient" => Box::new(claims::Claims::new(args.shape)),
        "batch-socket" => Box::new(batch::BatchSocket::new(args.shape)),
        "stored-one-block" => Box::new(stored::StoredOneBlock::new(args.shape)),
        other => return Err(format!("unknown workload {other:?}").into()),
    };

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        workload.setup(&mut ctx, rep, SETUP_REPS)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    // Closed loop: passes follow each other until the run time is used
    // up. A traced run traces the even passes and leaves the odd ones
    // untraced to measure the tracing overhead.
    let start = Instant::now();
    let mut seconds = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let on = args.trace && pass % 2 == 0;
        trace::set_pass(pass);
        trace::set_enabled(on);
        let d = trace::span("pass", || workload.pass(&mut ctx, pass))?;
        trace::set_enabled(false);
        seconds.push(d);
        if on { &mut traced } else { &mut untraced }.push(pass);
        pass += 1;
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let pass_s = |ps: &[usize]| median(&ps.iter().map(|&p| seconds[p]).collect::<Vec<_>>());
        let (t, u) = (pass_s(&traced), pass_s(&untraced));
        ctx.layer("trace.wall_traced_s", t);
        ctx.layer("trace.wall_untraced_s", u);
        ctx.layer("trace.overhead_s", t - u);
        // Self time of the benchmark's own spans: what no layer span covers.
        let unattributed = traced_median(&traced, |m| {
            ["pass", "claim"]
                .iter()
                .filter_map(|name| m.get(name))
                .map(|t| t.self_s)
                .sum()
        });
        ctx.layer("trace.unattributed_s", unattributed);
        workload.layers(&mut ctx, &traced)?;
        let spans = ctx
            .work
            .with_file_name(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&spans)?;
        println!("perfbench: spans written to {}", spans.display());
        for (name, unit) in PER_LAYER {
            let value = ctx.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
        if let Some(extra) = ctx
            .layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("per-layer metric {extra} is not declared").into());
        }
    }
    workload.finish(&mut ctx)?;
    drop(scratch);
    ctx.check(
        !work.exists(),
        format!("scratch dir {} removed", work.display()),
    );
    if !args.trace {
        let values = [median(&setups), median(&seconds), peak_rss_mib()?];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    for (name, value, unit) in &metrics {
        println!("perfbench: {} {name} = {value} {unit}", args.workload);
    }
    let fail_frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    println!(
        "perfbench: {} passes = {} fail_frac = {fail_frac} ({} of {})",
        args.workload,
        seconds.len(),
        ctx.failed,
        ctx.attempted
    );
    let rounded = |xs: &[f64]| {
        xs.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "perfbench: {} setup seconds = [{}]",
        args.workload,
        rounded(&setups)
    );
    println!(
        "perfbench: {} pass seconds = [{}]",
        args.workload,
        rounded(&seconds)
    );
    println!(
        "perfbench: {} answers = {}",
        args.workload,
        workload.answers()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.failed == 0,
        ctx.attempted,
        ctx.failed,
        body.join(",")
    );
    Ok(ctx.failed == 0)
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(2);
        }
    }
}
