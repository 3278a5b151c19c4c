use pa_prob::rng::SplitMix64;
use rand::RngExt;

use pa_core::Automaton;
use pa_mdp::{BoundedPolicy, StateSpace};

/// The embedded adversary of a sampled batch: picks one of the current
/// state's enabled steps, by its index in [`Automaton::steps`] order.
///
/// `remaining` is the cost budget still available — cost-indexed policies
/// (the exact engine's [`BoundedPolicy`]) key their decision on it. A
/// policy may consume randomness from the trajectory's private stream;
/// those draws are part of the trajectory's deterministic replay.
pub trait SamplePolicy<M: Automaton> {
    /// Chooses an index below `enabled`, the number of steps `state`
    /// enables (at least one).
    fn choose(
        &self,
        state: &M::State,
        enabled: usize,
        remaining: u32,
        rng: &mut SplitMix64,
    ) -> usize;

    /// Stable display name (lands in reports and digests).
    fn name(&self) -> &'static str;
}

/// Uniform-random choice among the enabled steps — the estimation
/// adversary for models where no exact policy exists. Its estimand is
/// exactly the reachability value of the [`crate::UniformChain`]
/// wrapping, which is how it is cross-validated.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPolicy;

impl<M: Automaton> SamplePolicy<M> for UniformPolicy {
    fn choose(
        &self,
        _state: &M::State,
        enabled: usize,
        _remaining: u32,
        rng: &mut SplitMix64,
    ) -> usize {
        // A forced move consumes no randomness: most round-model states
        // have exactly one enabled step, and skipping the draw keeps
        // trajectories short-stream without changing the law.
        if enabled == 1 {
            0
        } else {
            rng.random_range(0..enabled)
        }
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Always the first enabled step — a degenerate deterministic scheduler,
/// useful as a baseline and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstPolicy;

impl<M: Automaton> SamplePolicy<M> for FirstPolicy {
    fn choose(
        &self,
        _state: &M::State,
        _enabled: usize,
        _remaining: u32,
        _rng: &mut SplitMix64,
    ) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "first"
    }
}

/// Replays the exact engine's optimal cost-indexed policy on the implicit
/// model.
///
/// [`pa_mdp::Explored`] preserves choice order (`mdp.choices(i)[k]` is
/// `automaton.steps(&states[i])[k]`), so the index the [`BoundedPolicy`]
/// stores for explicit state `i` at budget `remaining` is directly the
/// index of the implicit model's step here. Under this policy the sampled
/// trajectory law *is* the law of the optimizing adversary, so the
/// estimand equals the exact query value — the property the
/// cross-validation gates lean on.
#[derive(Debug, Clone, Copy)]
pub struct OptimalReplay<'a, SP> {
    /// The state store of the exploration the policy was extracted over.
    pub space: &'a SP,
    /// The extracted cost-indexed policy.
    pub policy: &'a BoundedPolicy,
}

impl<M: Automaton, SP: StateSpace<M::State>> SamplePolicy<M> for OptimalReplay<'_, SP> {
    fn choose(
        &self,
        state: &M::State,
        enabled: usize,
        remaining: u32,
        _rng: &mut SplitMix64,
    ) -> usize {
        let fallback = 0;
        let Some(index) = self.space.get(state) else {
            // Unreached under the exploration that produced the policy;
            // cannot happen when the trajectory starts from an explored
            // start state of the same model.
            return fallback;
        };
        match self.policy.choice(index, remaining) {
            Some(choice) => (choice as usize).min(enabled.saturating_sub(1)),
            None => fallback,
        }
    }

    fn name(&self) -> &'static str {
        "optimal-replay"
    }
}
