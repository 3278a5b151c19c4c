use pa_core::Automaton;
use pa_prob::rng::SplitMix64;

use crate::{McConfig, McError, McEstimate, SamplePolicy};

/// Outcome of a single trajectory, the unit the batch driver accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trajectory {
    /// Accumulated cost (time) at the first target visit, `None` for a
    /// miss.
    pub hit_at: Option<u32>,
    /// Whether the per-trajectory step cap fired.
    pub early: bool,
    /// Steps taken.
    pub steps: u64,
}

/// Runs one trajectory on its private stream. Semantics mirror the exact
/// bounded value iteration: a visit to the target with accumulated cost
/// `≤ max_time` is a hit; a step whose cost would exceed the budget, a
/// dead end, or the step cap is a miss.
fn run_trajectory<M, P>(
    model: &M,
    start: &M::State,
    target: &(impl Fn(&M::State) -> bool + ?Sized),
    cost_of: &(impl Fn(&M::State, &M::Action) -> u32 + ?Sized),
    policy: &P,
    cfg: &McConfig,
    rng: &mut SplitMix64,
) -> Trajectory
where
    M: Automaton,
    P: SamplePolicy<M>,
{
    let mut state = start.clone();
    let mut spent = 0u32;
    let mut steps_taken = 0u64;
    loop {
        if target(&state) {
            return Trajectory {
                hit_at: Some(spent),
                early: false,
                steps: steps_taken,
            };
        }
        if steps_taken >= cfg.max_steps {
            return Trajectory {
                hit_at: None,
                early: true,
                steps: steps_taken,
            };
        }
        let steps = model.steps(&state);
        if steps.is_empty() {
            // Dead end outside the target: the exact engine values it 0.
            return Trajectory {
                hit_at: None,
                early: false,
                steps: steps_taken,
            };
        }
        let remaining = cfg.max_time - spent;
        let chosen = policy.choose(&state, &steps, remaining, rng);
        let step = &steps[chosen];
        let cost = cost_of(&state, &step.action);
        if cost > remaining {
            // Budget exhausted before the target — exactly the level-0
            // failure of the cost-bounded recursion.
            return Trajectory {
                hit_at: None,
                early: false,
                steps: steps_taken,
            };
        }
        spent += cost;
        state = step.target.sample(rng).clone();
        steps_taken += 1;
    }
}

/// Runs a batch of `cfg.trajectories` trajectories and accumulates their
/// outcomes into an [`McEstimate`] with cost budget `cfg.max_time`.
///
/// Trajectory `i` calls `trajectory` on its private stream
/// `SplitMix64::for_trial(cfg.seed, i)`. Worker `w` of `W` runs the
/// strided indices `w, w + W, …` on a scoped thread into a local
/// accumulator, and the accumulators merge by integer addition, so the
/// estimate is bitwise identical for every worker count and across runs;
/// only wall-clock time varies.
///
/// Records the `mc.trajectories`, `mc.steps`, `mc.early_stops` and
/// `mc.rng_draws` telemetry counters and the `mc.seconds` span.
///
/// # Errors
///
/// [`McError::NoTrajectories`] for an empty batch,
/// [`McError::WorkerPanicked`] if `trajectory` panics on a worker.
///
/// # Examples
///
/// ```
/// use pa_mc::{run_trajectories, McConfig, Trajectory};
/// use rand::RngExt;
///
/// // One fair coin per round until heads, within 3 rounds.
/// let est = run_trajectories(&McConfig::new(5_000, 42, 3), |rng| {
///     let hit_at = (1..=3).find(|_| rng.random_bool(0.5));
///     let steps = u64::from(hit_at.unwrap_or(3));
///     Trajectory { hit_at, early: false, steps }
/// })
/// .unwrap();
/// assert!((est.point() - 0.875).abs() < 0.05);
/// ```
pub fn run_trajectories<F>(cfg: &McConfig, trajectory: F) -> Result<McEstimate, McError>
where
    F: Fn(&mut SplitMix64) -> Trajectory + Sync,
{
    if cfg.trajectories == 0 {
        return Err(McError::NoTrajectories);
    }
    let _span = pa_telemetry::span("mc.seconds");
    let workers = cfg.worker_count();
    let trajectory = &trajectory;
    // Join every worker before looking at any result: a panicked worker
    // left unjoined would make the scope itself panic.
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut acc = McEstimate::empty(cfg.max_time);
                    let mut i = w;
                    while i < cfg.trajectories {
                        let mut rng = SplitMix64::for_trial(cfg.seed, i);
                        let out = trajectory(&mut rng);
                        acc.record(out.hit_at, out.early, out.steps, rng.draws());
                        i += workers;
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    // Integer merge: associative, so any partition of the trial index
    // space (any worker count) lands on the same accumulator.
    let mut total = McEstimate::empty(cfg.max_time);
    for part in parts {
        total.absorb(&part.map_err(|_| McError::WorkerPanicked)?);
    }

    if pa_telemetry::enabled() {
        pa_telemetry::counter("mc.trajectories").add(total.trials());
        pa_telemetry::counter("mc.steps").add(total.total_steps());
        pa_telemetry::counter("mc.early_stops").add(total.early_stops());
        pa_telemetry::counter("mc.rng_draws").add(total.rng_draws());
    }
    Ok(total)
}

/// Estimates the probability of reaching `target` from `start` within the
/// cost budget `cfg.max_time`, sampling `cfg.trajectories` trajectories
/// under `policy` through [`run_trajectories`] (which see for the
/// determinism contract, telemetry and errors).
///
/// # Errors
///
/// As [`run_trajectories`].
pub fn estimate_reach<M, P>(
    model: &M,
    start: &M::State,
    target: impl Fn(&M::State) -> bool + Sync,
    cost_of: impl Fn(&M::State, &M::Action) -> u32 + Sync,
    policy: &P,
    cfg: &McConfig,
) -> Result<McEstimate, McError>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    P: SamplePolicy<M> + Sync,
{
    run_trajectories(cfg, |rng| {
        run_trajectory(model, start, &target, &cost_of, policy, cfg, rng)
    })
}
