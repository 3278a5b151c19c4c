//! Job specifications: what a batch run is made of.
//!
//! A [`JobSpec`] names one analysis — a paper arrow, the composed
//! `T —13→ C` arrow, an expected-time bound, the Lemma 6.1 invariant, an
//! appendix lemma, or an arbitrary [`JobKind::Custom`] closure — on one
//! ring size, under one [`FaultPlan`], with one solver and tolerance. Its
//! [`key`](JobSpec::key) is a stable string that identifies the job in
//! every report; the driver sorts and deduplicates by it, which is what
//! makes aggregated output order-independent.

use std::sync::Arc;
use std::time::Duration;

use pa_core::SetExpr;
use pa_faults::{FaultPlan, DEFAULT_STATE_LIMIT};
use pa_mdp::Solver;
use pa_telemetry::TelemetrySnapshot;

use crate::driver::JobCtx;

/// A custom job body: gets the shared [`crate::ModelCache`] and the
/// cancellation/timeout checkpoint through its [`JobCtx`].
pub type CustomFn = dyn Fn(&JobCtx<'_>) -> Result<JobValue, String> + Send + Sync;

/// Knobs of a sampled ([`JobKind::Sampled`]) job. All three are part of
/// the job key: changing any of them changes the estimate bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSettings {
    /// Trajectories to sample.
    pub trajectories: u64,
    /// Base seed; trajectory `i` runs on its derived stream.
    pub seed: u64,
}

/// Which analysis a job runs.
#[derive(Clone)]
pub enum JobKind {
    /// One of the five paper arrows, by index into
    /// [`pa_lehmann_rabin::paper::all_arrows`].
    Arrow {
        /// Index into the paper's arrow chain (0..5).
        index: usize,
    },
    /// The composed `T —13→_{1/8} C` arrow
    /// ([`pa_lehmann_rabin::paper::arrow_t_to_c`]).
    ComposedArrow,
    /// Worst-case expected time from the worst state of `from` to `to`,
    /// compared against `bound` (paper Section 6.2).
    ExpectedTime {
        /// Source region set.
        from: SetExpr,
        /// Target region set.
        to: SetExpr,
        /// The claimed upper bound, in time units.
        bound: f64,
    },
    /// The Lemma 6.1 safety invariant
    /// ([`pa_lehmann_rabin::verify_lemma_6_1`]).
    Invariant,
    /// One appendix lemma, by index into
    /// [`pa_lehmann_rabin::lemmas::appendix_lemmas`].
    Lemma {
        /// Index into the appendix lemma list.
        index: usize,
    },
    /// The exact tier of the same estimand as [`JobKind::Sampled`]: the
    /// probability of reaching `target` within `within` time units from
    /// the all-trying start under the uniform-random adversary and the
    /// job's fault plan, via the exact bounded query over the
    /// [`pa_mc::UniformChain`] wrapping
    /// ([`pa_faults::exact_reach_uniform`]). Violated when the exact
    /// value falls below `claimed`. [`crate::select_kind`] picks between
    /// this and [`JobKind::Sampled`] on a state budget.
    Reach {
        /// Target region set.
        target: SetExpr,
        /// Time budget of the bounded query.
        within: u32,
        /// The claimed lower bound on the probability.
        claimed: f64,
    },
    /// A sampled (Monte-Carlo) reachability estimate: the probability of
    /// reaching `target` within `within` time units from the all-trying
    /// start under the uniform-random adversary and the job's fault plan
    /// ([`pa_faults::estimate_reach_uniform`]). The escape-hatch tier for
    /// rings the exact engine cannot hold; the claim is *statistically
    /// refuted* (and the job violated) when the whole 99% interval falls
    /// below `claimed`.
    Sampled {
        /// Target region set.
        target: SetExpr,
        /// Time budget per trajectory.
        within: u32,
        /// The claimed lower bound on the probability.
        claimed: f64,
        /// Sampling knobs (part of the key).
        mc: McSettings,
    },
    /// An arbitrary closure; the batch layer runs it under the job's
    /// telemetry scope and classifies its result like any other job.
    Custom {
        /// Stable name, used in the job key.
        name: String,
        /// The job body.
        run: Arc<CustomFn>,
    },
}

impl std::fmt::Debug for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobKind::Arrow { index } => write!(f, "Arrow({index})"),
            JobKind::ComposedArrow => write!(f, "ComposedArrow"),
            JobKind::ExpectedTime { from, to, bound } => {
                write!(f, "ExpectedTime({from} -> {to} <= {bound})")
            }
            JobKind::Invariant => write!(f, "Invariant"),
            JobKind::Lemma { index } => write!(f, "Lemma({index})"),
            JobKind::Reach {
                target,
                within,
                claimed,
            } => write!(f, "Reach({target} <= {within} @ {claimed})"),
            JobKind::Sampled {
                target,
                within,
                claimed,
                mc,
            } => write!(
                f,
                "Sampled({target} <= {within} @ {claimed}, {} trials, seed {})",
                mc.trajectories, mc.seed
            ),
            JobKind::Custom { name, .. } => write!(f, "Custom({name})"),
        }
    }
}

impl JobKind {
    /// The kind's fragment of the job key. Stable: reports, digests, and
    /// the bench baseline all key on it.
    pub fn key_fragment(&self) -> String {
        match self {
            JobKind::Arrow { index } => format!("arrow:{index}"),
            JobKind::ComposedArrow => "composed".to_string(),
            JobKind::ExpectedTime { from, to, .. } => format!("etime:{from}->{to}"),
            JobKind::Invariant => "invariant".to_string(),
            JobKind::Lemma { index } => format!("lemma:{index}"),
            JobKind::Reach { target, within, .. } => format!("reach:{target}|t={within}"),
            JobKind::Sampled {
                target, within, mc, ..
            } => format!(
                "sampled:{target}|t={within}|traj={}|seed={}",
                mc.trajectories, mc.seed
            ),
            JobKind::Custom { name, .. } => format!("custom:{name}"),
        }
    }
}

/// One job: an analysis kind plus every knob that changes its answer.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Ring size.
    pub n: usize,
    /// The analysis to run.
    pub kind: JobKind,
    /// Human-readable fault-plan name (a report column, part of the key).
    pub plan_name: String,
    /// The fault schedule the model is built under.
    pub plan: FaultPlan,
    /// Value-iteration engine for the job's queries.
    pub solver: Solver,
    /// Convergence tolerance for unbounded queries.
    pub epsilon: f64,
    /// Cap on explored states.
    pub state_limit: usize,
}

impl JobSpec {
    /// A job with the default knobs: no faults, Jacobi, `1e-9`, the
    /// workspace state limit.
    pub fn new(n: usize, kind: JobKind) -> JobSpec {
        JobSpec {
            n,
            kind,
            plan_name: "none".to_string(),
            plan: FaultPlan::none(),
            solver: Solver::Jacobi,
            epsilon: 1e-9,
            state_limit: DEFAULT_STATE_LIMIT,
        }
    }

    /// Replaces the fault plan (name becomes a report column).
    pub fn with_plan(mut self, name: impl Into<String>, plan: FaultPlan) -> JobSpec {
        self.plan_name = name.into();
        self.plan = plan;
        self
    }

    /// Replaces the solver.
    pub fn with_solver(mut self, solver: Solver) -> JobSpec {
        self.solver = solver;
        self
    }

    /// Replaces the tolerance.
    pub fn with_epsilon(mut self, epsilon: f64) -> JobSpec {
        self.epsilon = epsilon;
        self
    }

    /// Replaces the state limit.
    pub fn with_state_limit(mut self, limit: usize) -> JobSpec {
        self.state_limit = limit;
        self
    }

    /// The job's stable identity: reports sort by it, the driver rejects
    /// duplicates of it, and the worker-invariance digest hashes over it.
    pub fn key(&self) -> String {
        let solver = match self.solver {
            Solver::Jacobi => "jacobi",
            Solver::SccOrdered => "scc",
        };
        format!(
            "{}|n={}|plan={}|solver={solver}|eps={:e}",
            self.kind.key_fragment(),
            self.n,
            self.plan_name,
            self.epsilon
        )
    }
}

/// The measured answer of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobValue {
    /// An arrow check: worst-case probability vs. the claim.
    Prob {
        /// Measured worst-case probability over all adversaries.
        measured: f64,
        /// The claimed bound.
        claimed: f64,
        /// Whether the claim holds ([`pa_core::meets_claim`]).
        holds: bool,
        /// The minimizing start state, rendered.
        worst_state: Option<String>,
        /// Number of start states checked.
        states_checked: usize,
    },
    /// An expected-time bound check.
    Time {
        /// Worst-case expected time; `None` when some adversary avoids the
        /// target entirely (divergent expectation).
        expected: Option<f64>,
        /// The claimed upper bound.
        bound: f64,
        /// Whether the bound holds.
        within: bool,
    },
    /// An invariant check.
    Invariant {
        /// Whether the invariant holds on every reachable state.
        holds: bool,
        /// Number of states examined (0 when violated).
        states_checked: usize,
    },
    /// An appendix lemma check.
    Lemma {
        /// The lemma's paper name.
        name: String,
        /// Minimal goal probability over all instances and adversaries.
        min_prob: f64,
        /// Hypothesis instances checked.
        instances: usize,
        /// Whether the lemma (a certainty claim) holds.
        holds: bool,
    },
    /// A sampled reachability estimate with its 99% Wilson interval.
    Estimate {
        /// Point estimate `hits / trials`.
        point: f64,
        /// Lower end of the 99% interval.
        lo: f64,
        /// Upper end of the 99% interval.
        hi: f64,
        /// The claimed lower bound the estimate is judged against.
        claimed: f64,
        /// Trajectories sampled.
        trials: u64,
        /// Trajectories that reached the target within the budget.
        hits: u64,
        /// Whether the claim is statistically refuted: the whole 99%
        /// interval sits below `claimed`. (An interval merely straddling
        /// the claim is compatible with it.)
        refuted: bool,
    },
    /// Aggregate verdict tallies from a custom job.
    Tallies {
        /// Claims that held.
        holds: u64,
        /// Claims that were violated.
        violated: u64,
        /// Informational rows with no verdict.
        info: u64,
    },
}

impl JobValue {
    /// Whether the value reports a violated claim (used for exit codes).
    pub fn violated(&self) -> bool {
        match self {
            JobValue::Prob { holds, .. } => !holds,
            JobValue::Time { within, .. } => !within,
            JobValue::Invariant { holds, .. } => !holds,
            JobValue::Lemma { holds, .. } => !holds,
            JobValue::Estimate { refuted, .. } => *refuted,
            JobValue::Tallies { violated, .. } => *violated > 0,
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Finished with a value.
    Done(JobValue),
    /// Errored (model validation, exploration, unknown region, …).
    Failed(String),
    /// Exceeded the per-job timeout at a checkpoint.
    TimedOut,
    /// The batch was cancelled before or during the job.
    Cancelled,
}

impl JobStatus {
    /// Short status label, stable across releases (part of reports).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// One finished job, as aggregated into a [`crate::BatchReport`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's stable key.
    pub key: String,
    /// Ring size, copied from the spec for convenience.
    pub n: usize,
    /// Fault-plan name, copied from the spec.
    pub plan_name: String,
    /// `true` for [`JobKind::Custom`] jobs (their scoped metrics are kept
    /// out of the canonical report: custom bodies may record
    /// wall-clock-dependent values).
    pub custom: bool,
    /// How the job ended.
    pub status: JobStatus,
    /// Wall-clock duration of the job (report-only; never part of the
    /// canonical output).
    pub seconds: f64,
    /// The job's scoped telemetry, frozen at completion.
    pub snapshot: TelemetrySnapshot,
}

/// Knobs of one batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (at least 1). The answer is bitwise identical for
    /// every value; only wall-clock time changes.
    pub workers: usize,
    /// Per-job timeout, enforced cooperatively at stage checkpoints.
    pub timeout: Option<Duration>,
    /// External cancellation flag; set it to `true` to drain the batch.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            workers: 1,
            timeout: None,
            cancel: None,
        }
    }
}

impl BatchOptions {
    /// Options with `workers` threads and no timeout.
    pub fn with_workers(workers: usize) -> BatchOptions {
        BatchOptions {
            workers: workers.max(1),
            ..BatchOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinguish_knobs() {
        let base = JobSpec::new(3, JobKind::Arrow { index: 2 });
        assert_eq!(base.key(), "arrow:2|n=3|plan=none|solver=jacobi|eps=1e-9");
        let scc = base.clone().with_solver(Solver::SccOrdered);
        assert_ne!(base.key(), scc.key());
        let other_plan = base.clone().with_plan(
            "crash-stop r2 p0",
            FaultPlan::single(2, 0, pa_faults::FaultKind::CrashStop).unwrap(),
        );
        assert_ne!(base.key(), other_plan.key());
    }

    #[test]
    fn kind_fragments_cover_every_variant() {
        let from = SetExpr::named("RT");
        let to = SetExpr::named("P");
        assert_eq!(JobKind::ComposedArrow.key_fragment(), "composed");
        assert_eq!(
            JobKind::ExpectedTime {
                from,
                to,
                bound: 60.0
            }
            .key_fragment(),
            "etime:RT->P"
        );
        assert_eq!(JobKind::Invariant.key_fragment(), "invariant");
        assert_eq!(JobKind::Lemma { index: 7 }.key_fragment(), "lemma:7");
    }

    #[test]
    fn violated_tracks_each_value_variant() {
        assert!(JobValue::Prob {
            measured: 0.1,
            claimed: 0.5,
            holds: false,
            worst_state: None,
            states_checked: 1
        }
        .violated());
        assert!(!JobValue::Time {
            expected: Some(12.0),
            bound: 60.0,
            within: true
        }
        .violated());
        assert!(JobValue::Tallies {
            holds: 3,
            violated: 1,
            info: 0
        }
        .violated());
    }
}
