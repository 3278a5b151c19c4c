//! The sampler enumerates each state's steps through
//! `Automaton::for_each_step` into reused buffers. This property pins it
//! to a reference loop kept here that samples `Automaton::steps()` with
//! `FiniteDist::sample`: on random table automata, under every policy,
//! each trial reaches the same `Trajectory` with the same RNG draws.

use pa_core::{Automaton, TableAutomaton};
use pa_mc::{
    estimate_reach, FirstPolicy, McConfig, McEstimate, SamplePolicy, Trajectory, UniformPolicy,
};
use pa_prob::rng::SplitMix64;
use proptest::prelude::*;
use rand::RngExt;

type Table = TableAutomaton<u8, u8>;

/// Per state, its steps: an action label and `(target, weight)` pairs.
type Rows = Vec<Vec<(u8, Vec<(u8, u32)>)>>;

/// Draws one index even when a single step is enabled, so the policy's
/// draws interleave with the outcome draws differently from
/// [`UniformPolicy`].
struct AlwaysDraws;

impl SamplePolicy<Table> for AlwaysDraws {
    fn choose(&self, _: &u8, enabled: usize, _: u32, rng: &mut SplitMix64) -> usize {
        rng.random_range(0..enabled)
    }

    fn name(&self) -> &'static str {
        "always-draws"
    }
}

/// The sampler as it was written over `steps()`: collect the enabled
/// steps, let the policy pick one, charge its cost, sample its target.
fn reference<P: SamplePolicy<Table>>(
    model: &Table,
    target: &[bool],
    policy: &P,
    cfg: &McConfig,
    rng: &mut SplitMix64,
) -> Trajectory {
    let mut state = model.start_states()[0];
    let mut spent = 0u32;
    let mut steps_taken = 0u64;
    let miss = |early, steps| Trajectory {
        hit_at: None,
        early,
        steps,
    };
    loop {
        if target[usize::from(state)] {
            return Trajectory {
                hit_at: Some(spent),
                early: false,
                steps: steps_taken,
            };
        }
        if steps_taken >= cfg.max_steps {
            return miss(true, steps_taken);
        }
        let steps = model.steps(&state);
        if steps.is_empty() {
            return miss(false, steps_taken);
        }
        let remaining = cfg.max_time - spent;
        let step = &steps[policy.choose(&state, steps.len(), remaining, rng)];
        let cost = cost(&state, &step.action);
        if cost > remaining {
            return miss(false, steps_taken);
        }
        spent += cost;
        state = *step.target.sample(rng);
        steps_taken += 1;
    }
}

fn cost(_: &u8, action: &u8) -> u32 {
    u32::from(action % 3)
}

/// A table automaton over states `0..rows.len()`, start state 0: per
/// state, up to three steps, each an action label and up to three
/// `(target, weight)` outcomes normalized to a distribution (repeated
/// targets merge).
fn table(rows: &Rows) -> Table {
    let n = rows.len() as u8;
    let mut b = TableAutomaton::builder().start(0u8);
    for (s, steps) in rows.iter().enumerate() {
        for (action, outcomes) in steps {
            let total: u32 = outcomes.iter().map(|(_, w)| w).sum();
            let dist = outcomes
                .iter()
                .map(|&(t, w)| (t % n, f64::from(w) / f64::from(total)));
            b = b.step(s as u8, *action, dist).unwrap();
        }
    }
    b.build().unwrap()
}

fn arb_rows() -> impl Strategy<Value = Rows> {
    let step = (0u8..6, prop::collection::vec((any::<u8>(), 1u32..8), 1..4));
    prop::collection::vec(prop::collection::vec(step, 0..4), 1..8)
}

/// Runs trial 0 of `seed` through the sampler and through the reference
/// loop, each recorded into its own one-trial accumulator.
fn both<P: SamplePolicy<Table> + Sync>(
    model: &Table,
    target: &[bool],
    policy: &P,
    cfg: &McConfig,
) -> (McEstimate, McEstimate) {
    let sampled =
        estimate_reach(model, &0u8, |s| target[usize::from(*s)], cost, policy, cfg).unwrap();
    let mut rng = SplitMix64::for_trial(cfg.seed, 0);
    let t = reference(model, target, policy, cfg, &mut rng);
    let mut want = McEstimate::empty(cfg.max_time);
    want.record(t.hit_at, t.early, t.steps, rng.draws());
    (sampled, want)
}

proptest! {
    #[test]
    fn visitor_sampling_replays_the_steps_reference(
        rows in arb_rows(),
        target_bits in any::<u8>(),
        max_time in 0u32..8,
        max_steps in 1u64..40,
        seed in any::<u64>(),
    ) {
        let model = table(&rows);
        // State 0 is never a target, so every trial reaches the step loop.
        let target: Vec<bool> =
            (0..rows.len()).map(|s| s > 0 && target_bits & (1 << s) != 0).collect();
        for trial in 0..16 {
            let cfg = McConfig {
                max_steps,
                ..McConfig::new(1, seed.wrapping_add(trial), max_time).with_workers(1)
            };
            let (got, want) = both(&model, &target, &UniformPolicy, &cfg);
            prop_assert_eq!(got, want, "uniform, trial {}", trial);
            let (got, want) = both(&model, &target, &FirstPolicy, &cfg);
            prop_assert_eq!(got, want, "first, trial {}", trial);
            let (got, want) = both(&model, &target, &AlwaysDraws, &cfg);
            prop_assert_eq!(got, want, "always-draws, trial {}", trial);
        }
    }
}
