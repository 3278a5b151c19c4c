//! The concurrent job driver: a bounded worker pool over a key-sorted job
//! list, with cooperative cancellation and per-job timeouts.
//!
//! # Determinism
//!
//! Workers claim jobs from a shared atomic cursor over the **key-sorted**
//! spec list and write results into per-job slots, so the aggregated
//! report is ordered by job key no matter which worker ran what. Each
//! job's answer depends only on its spec (engines run single-threaded
//! inside the job; the model cache builds each key exactly once), so the
//! whole report — including cache hit/miss counts — is bitwise identical
//! for every worker count. The `tests/determinism.rs` suite pins this.
//!
//! # Telemetry
//!
//! Every job runs under its own [`TelemetryScope`] named `job:<key>`;
//! model-cache builds nest into the cache's scope. Nothing is recorded
//! into the process-global registry by the driver itself, so batch runs
//! compose with surrounding instrumentation without a reset.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pa_core::Arrow;
use pa_faults::region_pred_under;
use pa_lehmann_rabin::{lemmas, paper, verify_lemma_6_1, LrError};
use pa_mdp::{InvariantResult, MdpError, Query, QueryObjective};
use pa_telemetry::TelemetryScope;

use crate::cache::{CacheSession, ModelCache};
use crate::report::BatchReport;
use crate::spec::{BatchOptions, JobKind, JobResult, JobSpec, JobStatus, JobValue};

/// What a running job sees: the batch's session view of the shared model
/// cache plus the cancellation and timeout checkpoint. Custom job bodies
/// receive it too.
pub struct JobCtx<'a> {
    /// The batch's session over the shared model cache (canonical cache
    /// statistics are per-session — see [`CacheSession`]).
    pub cache: &'a CacheSession<'a>,
    /// The job being run.
    pub spec: &'a JobSpec,
    cancel: &'a AtomicBool,
    deadline: Option<Instant>,
}

impl JobCtx<'_> {
    /// Fails if the batch was cancelled or the job's deadline has passed.
    /// Call between expensive stages; the driver classifies the resulting
    /// error as [`JobStatus::Cancelled`] / [`JobStatus::TimedOut`] rather
    /// than [`JobStatus::Failed`].
    ///
    /// # Errors
    ///
    /// A short description of the interruption.
    pub fn checkpoint(&self) -> Result<(), String> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err("batch cancelled".to_string());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err("job timeout exceeded".to_string());
            }
        }
        Ok(())
    }
}

/// Errors of batch assembly (individual job failures are statuses, not
/// errors — one bad job must not sink the batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// Two specs produced the same key; their results would be
    /// indistinguishable in the aggregated report.
    DuplicateKey(
        /// The colliding key.
        String,
    ),
    /// The spec list was empty.
    NoJobs,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::DuplicateKey(key) => write!(f, "duplicate job key: {key}"),
            BatchError::NoJobs => write!(f, "no jobs in batch"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Runs a batch: sorts the specs by key, schedules them over
/// `options.workers` threads, and aggregates the results.
///
/// # Errors
///
/// [`BatchError::DuplicateKey`] if two specs share a key,
/// [`BatchError::NoJobs`] on an empty list. Job-level failures surface as
/// [`JobStatus`] values inside the report instead.
pub fn run_batch(specs: &[JobSpec], options: &BatchOptions) -> Result<BatchReport, BatchError> {
    run_batch_in(specs, options, &ModelCache::new())
}

/// [`run_batch`] over a caller-supplied [`ModelCache`], so a long-lived
/// service can keep models warm across batches (the `pa-serve` daemon
/// does). The canonical report — and therefore its digest — is computed
/// from a per-batch [`CacheSession`] and is bitwise identical whether the
/// cache is cold, warm, or evicting under a byte budget.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_batch_in(
    specs: &[JobSpec],
    options: &BatchOptions,
    cache: &ModelCache,
) -> Result<BatchReport, BatchError> {
    if specs.is_empty() {
        return Err(BatchError::NoJobs);
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| specs[i].key());
    for w in order.windows(2) {
        if specs[w[0]].key() == specs[w[1]].key() {
            return Err(BatchError::DuplicateKey(specs[w[0]].key()));
        }
    }

    let session = CacheSession::new(cache);
    let default_cancel = Arc::new(AtomicBool::new(false));
    let cancel: &AtomicBool = options.cancel.as_deref().unwrap_or(&default_cancel);
    let workers = options.workers.max(1);
    let timeout = options.timeout;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();

    let started = Instant::now();
    let order_ref = &order;
    let slots_ref = &slots;
    let session_ref = &session;
    let next_ref = &next;
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers.min(specs.len()) {
            scope.spawn(move |_| loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= order_ref.len() {
                    break;
                }
                let spec = &specs[order_ref[i]];
                let result = run_one(spec, session_ref, cancel, timeout);
                *slots_ref[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    })
    .expect("batch worker panicked");

    let jobs: Vec<JobResult> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job writes its slot")
        })
        .collect();
    Ok(BatchReport {
        jobs,
        workers,
        wall_seconds: started.elapsed().as_secs_f64(),
        cache: session.stats(),
        cache_snapshot: cache.scope().snapshot(),
    })
}

/// Runs one job under its own telemetry scope and classifies the outcome.
fn run_one(
    spec: &JobSpec,
    cache: &CacheSession<'_>,
    cancel: &AtomicBool,
    timeout: Option<Duration>,
) -> JobResult {
    let key = spec.key();
    let telemetry = TelemetryScope::new(format!("job:{key}"));
    let started = Instant::now();
    let deadline = timeout.map(|t| started + t);
    let ctx = JobCtx {
        cache,
        spec,
        cancel,
        deadline,
    };
    let status = if cancel.load(Ordering::Relaxed) {
        JobStatus::Cancelled
    } else {
        let _in_scope = telemetry.enter();
        match execute(&ctx) {
            Ok(value) => JobStatus::Done(value),
            Err(_) if cancel.load(Ordering::Relaxed) => JobStatus::Cancelled,
            Err(_) if deadline.is_some_and(|d| Instant::now() >= d) => JobStatus::TimedOut,
            Err(message) => JobStatus::Failed(message),
        }
    };
    JobResult {
        key,
        n: spec.n,
        plan_name: spec.plan_name.clone(),
        custom: matches!(spec.kind, JobKind::Custom { .. }),
        status,
        seconds: started.elapsed().as_secs_f64(),
        snapshot: telemetry.snapshot(),
    }
}

/// Dispatches a job body. Every path returns stringified errors so the
/// driver can classify them uniformly.
fn execute(ctx: &JobCtx<'_>) -> Result<JobValue, String> {
    ctx.checkpoint()?;
    match &ctx.spec.kind {
        JobKind::Arrow { index } => {
            let arrows = paper::all_arrows();
            let (arrow, _why) = arrows.get(*index).ok_or_else(|| {
                format!("arrow index {index} out of range (have {})", arrows.len())
            })?;
            run_arrow(ctx, arrow)
        }
        JobKind::ComposedArrow => run_arrow(ctx, &paper::arrow_t_to_c()),
        JobKind::ExpectedTime { from, to, bound } => {
            // An unknown region fails the job before it touches the cache.
            for atom in from.atoms().chain(to.atoms()) {
                region_pred_under(atom).map_err(|e| e.to_string())?;
            }
            let checker = ctx
                .cache
                .model(ctx.spec.n, &ctx.spec.plan, ctx.spec.state_limit)?;
            ctx.checkpoint()?;
            // A divergent expectation at a queried start is the
            // expected-time analogue of a violated bound, not a failure.
            let expected = match checker.expected_time(from, to, QueryObjective::MaxCost, tune(ctx))
            {
                Ok(expected) => Some(expected),
                Err(LrError::Mdp(MdpError::DivergentExpectation { .. })) => None,
                Err(e) => return Err(e.to_string()),
            };
            Ok(JobValue::Time {
                expected,
                bound: *bound,
                within: expected.is_some_and(|e| pa_core::meets_time_bound(e, *bound)),
            })
        }
        JobKind::Invariant => {
            match verify_lemma_6_1(ctx.spec.n, ctx.spec.state_limit).map_err(|e| e.to_string())? {
                InvariantResult::Holds { states_checked } => Ok(JobValue::Invariant {
                    holds: true,
                    states_checked,
                }),
                InvariantResult::Violated { .. } => Ok(JobValue::Invariant {
                    holds: false,
                    states_checked: 0,
                }),
            }
        }
        JobKind::Lemma { index } => {
            let specs = lemmas::appendix_lemmas();
            let lemma = specs.get(*index).ok_or_else(|| {
                format!("lemma index {index} out of range (have {})", specs.len())
            })?;
            let check = lemmas::check_lemma(ctx.spec.n, lemma, ctx.spec.state_limit)
                .map_err(|e| e.to_string())?;
            Ok(JobValue::Lemma {
                name: check.name.to_string(),
                min_prob: check.min_prob,
                instances: check.instances,
                holds: check.holds(),
            })
        }
        JobKind::Reach {
            target,
            within,
            claimed,
        } => {
            let exact = pa_faults::exact_reach_uniform(
                ctx.spec.n,
                &ctx.spec.plan,
                target,
                *within,
                ctx.spec.state_limit,
            )
            .map_err(|e| e.to_string())?;
            ctx.checkpoint()?;
            Ok(prob_value(exact, *claimed, None, 1))
        }
        JobKind::Sampled {
            target,
            within,
            claimed,
            mc,
        } => {
            // Model-free: trajectories of the implicit faulty round model,
            // no exploration and no cache slot — the whole point of the
            // sampled tier is running where the cache could not build.
            let estimate = pa_faults::estimate_reach_uniform(
                ctx.spec.n,
                &ctx.spec.plan,
                target,
                *within,
                &pa_mc::McConfig::new(mc.trajectories, mc.seed, *within).with_workers(1),
            )
            .map_err(|e| e.to_string())?;
            ctx.checkpoint()?;
            let interval = estimate.interval(pa_prob::stats::Z_99);
            Ok(JobValue::Estimate {
                point: estimate.point(),
                lo: interval.lo().value(),
                hi: interval.hi().value(),
                claimed: *claimed,
                trials: estimate.trials(),
                hits: estimate.hit_count(),
                refuted: interval.hi().value() < *claimed,
            })
        }
        JobKind::Custom { run, .. } => run(ctx),
    }
}

/// Evaluates one arrow claim on the shared model's checker. Equals
/// `pa_faults::check_arrow_under` (with `FaultPlan::none` that in turn
/// equals the fault-free `check_arrow`) bitwise — see the soundness notes
/// on [`crate::cache`].
fn run_arrow(ctx: &JobCtx<'_>, arrow: &Arrow) -> Result<JobValue, String> {
    let checker = ctx
        .cache
        .model(ctx.spec.n, &ctx.spec.plan, ctx.spec.state_limit)?;
    ctx.checkpoint()?;
    let check = checker.arrow(arrow, tune(ctx)).map_err(|e| e.to_string())?;
    Ok(prob_value(
        check.measured.lo().value(),
        arrow.prob().value(),
        check.worst_state,
        check.states_checked,
    ))
}

/// The job's own query settings: its solver and tolerance.
fn tune(ctx: &JobCtx<'_>) -> impl for<'q> FnOnce(Query<'q>) -> Query<'q> {
    let (solver, epsilon) = (ctx.spec.solver, ctx.spec.epsilon);
    move |q| q.solver(solver).epsilon(epsilon)
}

/// A finished probability claim, its verdict from [`pa_core::meets_claim`].
fn prob_value(
    measured: f64,
    claimed: f64,
    worst_state: Option<String>,
    states_checked: usize,
) -> JobValue {
    JobValue::Prob {
        measured,
        claimed,
        holds: pa_core::meets_claim(measured, claimed),
        worst_state,
        states_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Arrow, ArrowCheck, SetExpr};
    use pa_faults::{classify, Survival};
    use pa_prob::{Prob, ProbInterval};

    /// The verdict sites — `ArrowCheck::holds`, the survival map's
    /// `classify`, the arrow and reachability jobs (both built by
    /// `prob_value`), and `LemmaCheck::holds` behind the lemma job for the
    /// certain claims — agree on either side of the slack below a claim.
    #[test]
    fn every_verdict_site_agrees_just_below_a_claim() {
        for claimed in [0.125, 1.0] {
            for (measured, holds) in [(claimed - 1e-10, false), (claimed - 1e-13, true)] {
                let check = ArrowCheck {
                    arrow: Arrow::new(
                        SetExpr::named("T"),
                        SetExpr::named("C"),
                        13.0,
                        Prob::new(claimed).unwrap(),
                    )
                    .unwrap(),
                    measured: ProbInterval::exact(Prob::new(measured).unwrap()),
                    worst_state: None,
                    states_checked: 1,
                };
                assert_eq!(check.holds(), holds, "check_arrow at {measured}");
                let survival = if holds {
                    Survival::Holds
                } else {
                    Survival::Degraded
                };
                assert_eq!(
                    classify(measured, claimed),
                    survival,
                    "survival at {measured}"
                );
                let JobValue::Prob { holds: job, .. } = prob_value(measured, claimed, None, 1)
                else {
                    unreachable!("prob_value builds JobValue::Prob");
                };
                assert_eq!(job, holds, "batch job at {measured}");
                if claimed == 1.0 {
                    let lemma = lemmas::LemmaCheck {
                        name: "A.4",
                        instances: 1,
                        min_prob: measured,
                    };
                    assert_eq!(lemma.holds(), holds, "lemma at {measured}");
                }
            }
        }
    }

    /// A plan that crash-stops every process in round 1 empties every
    /// fault-aware region, so each arrow is vacuous: the exact checker, the
    /// batch arrow job and the expected-time job all take their
    /// empty-source branch.
    #[test]
    fn an_all_crash_plan_makes_every_source_region_vacuous() {
        use pa_faults::{check_arrow_under, FaultEvent, FaultKind, FaultPlan};
        use pa_lehmann_rabin::{RoundConfig, DEFAULT_STATE_LIMIT};

        let crash = |process| FaultEvent {
            round: 1,
            process,
            kind: FaultKind::CrashStop,
        };
        let plan = FaultPlan::new((0..3).map(crash).collect()).unwrap();
        let cfg = RoundConfig::new(3).unwrap();
        let mut specs = Vec::new();
        for (index, (arrow, _why)) in paper::all_arrows().into_iter().enumerate() {
            let check = check_arrow_under(cfg, &arrow, &plan, DEFAULT_STATE_LIMIT).unwrap();
            assert_eq!(check.measured.lo(), Prob::ONE, "{arrow}");
            assert_eq!(check.states_checked, 0, "{arrow}");
            assert_eq!(check.worst_state, None, "{arrow}");
            specs.push(JobSpec::new(3, JobKind::Arrow { index }).with_plan("all", plan.clone()));
        }
        specs.push(
            JobSpec::new(
                3,
                JobKind::ExpectedTime {
                    from: SetExpr::named("T"),
                    to: SetExpr::named("C"),
                    bound: 63.0,
                },
            )
            .with_plan("all", plan),
        );
        let report = run_batch(&specs, &BatchOptions::default()).unwrap();
        assert_eq!(report.jobs.len(), specs.len());
        for job in &report.jobs {
            match &job.status {
                JobStatus::Done(JobValue::Prob {
                    measured,
                    holds,
                    worst_state,
                    states_checked,
                    ..
                }) => {
                    assert_eq!(*measured, 1.0, "{}", job.key);
                    assert!(*holds, "{}", job.key);
                    assert_eq!(*worst_state, None, "{}", job.key);
                    assert_eq!(*states_checked, 0, "{}", job.key);
                }
                JobStatus::Done(JobValue::Time {
                    expected, within, ..
                }) => {
                    assert_eq!(*expected, Some(0.0));
                    assert!(*within);
                }
                other => panic!("{}: {other:?}", job.key),
            }
        }
    }
}
