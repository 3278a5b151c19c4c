//! Cross-validation of the sampled tier against the exact engine on a
//! small hand-built MDP, plus the determinism contracts.

use pa_core::{Automaton, Step};
use pa_mc::{
    chain_target, estimate_reach, run_trajectories, McConfig, McError, OptimalReplay, Trajectory,
    UniformChain, UniformPolicy,
};
use pa_prob::rng::SplitMix64;
use pa_prob::stats::Z_99;
use pa_prob::{FiniteDist, Prob};
use proptest::prelude::*;
use rand::RngExt;

use pa_mdp::{Explore, Objective};

/// A race to position 3 with a real scheduling decision each round:
/// `safe` advances one position with certainty, `risky` advances two with
/// probability 1/2 and stays put otherwise. Every move costs 1.
struct Race;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pos(u8);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    Safe,
    Risky,
}

impl Automaton for Race {
    type State = Pos;
    type Action = Move;

    fn start_states(&self) -> Vec<Pos> {
        vec![Pos(0)]
    }

    fn steps(&self, state: &Pos) -> Vec<Step<Pos, Move>> {
        if state.0 >= 3 {
            return Vec::new();
        }
        vec![
            Step {
                action: Move::Safe,
                target: FiniteDist::point(Pos(state.0 + 1)),
            },
            Step {
                action: Move::Risky,
                target: FiniteDist::new(vec![
                    (Pos((state.0 + 2).min(3)), 0.5),
                    (Pos(state.0), 0.5),
                ])
                .unwrap(),
            },
        ]
    }
}

fn race_cost(_: &Pos, _: &Move) -> u32 {
    1
}

fn at_goal(p: &Pos) -> bool {
    p.0 >= 3
}

#[test]
fn optimal_replay_interval_contains_exact_min_prob() {
    let budget = 2; // Min policy: two risky jumps, P = 1/4; safe can't make it.
    let explored = Explore::new(&Race)
        .cost(race_cost)
        .limit(10_000)
        .run()
        .unwrap();
    let analysis = explored
        .query_where(at_goal)
        .objective(Objective::MinProb)
        .horizon(budget)
        .with_policy()
        .run()
        .unwrap();
    let start = explored.mdp.initial_states()[0];
    let exact = analysis.value(start);
    let policy = analysis.policy.as_ref().unwrap();

    let replay = OptimalReplay {
        space: &explored.space,
        policy,
    };
    let est = estimate_reach(
        &Race,
        &Pos(0),
        at_goal,
        race_cost,
        &replay,
        &McConfig::new(20_000, 42, budget),
    )
    .unwrap();
    let ci = est.interval(Z_99);
    assert!(
        ci.contains(Prob::new(exact).unwrap()),
        "99% interval {ci} must contain the exact value {exact}"
    );
    assert!((est.point() - exact).abs() < 0.02);
}

#[test]
fn uniform_policy_interval_contains_chain_exact_value() {
    let budget = 3;
    let chain = UniformChain::new(&Race);
    let explored = Explore::new(&chain)
        .cost(UniformChain::<Race>::cost(race_cost))
        .limit(10_000)
        .run()
        .unwrap();
    let mut target = chain_target(at_goal);
    let analysis = explored
        .query_where(|s| target(s))
        .objective(Objective::MinProb)
        .horizon(budget)
        .run()
        .unwrap();
    // The chain has a single choice everywhere, so min = max = the
    // uniform-policy value.
    let exact = analysis.value(explored.mdp.initial_states()[0]);
    assert!(exact > 0.0 && exact < 1.0, "nontrivial estimand: {exact}");

    let est = estimate_reach(
        &Race,
        &Pos(0),
        at_goal,
        race_cost,
        &UniformPolicy,
        &McConfig::new(20_000, 7, budget),
    )
    .unwrap();
    let ci = est.interval(Z_99);
    assert!(
        ci.contains(Prob::new(exact).unwrap()),
        "99% interval {ci} must contain the chain value {exact}"
    );
}

#[test]
fn estimates_are_bitwise_invariant_in_worker_count() {
    let base = McConfig::new(5_000, 11, 3);
    let mut runs = Vec::new();
    for workers in [1, 2, 8] {
        let est = estimate_reach(
            &Race,
            &Pos(0),
            at_goal,
            race_cost,
            &UniformPolicy,
            &base.with_workers(workers),
        )
        .unwrap();
        runs.push(est);
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
    assert_eq!(runs[0].digest_fragment(), runs[2].digest_fragment());
}

#[test]
fn estimates_are_deterministic_in_seed() {
    let run = |seed| {
        estimate_reach(
            &Race,
            &Pos(0),
            at_goal,
            race_cost,
            &UniformPolicy,
            &McConfig::new(2_000, seed, 3),
        )
        .unwrap()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).hit_count(), run(6).hit_count());
}

#[test]
fn zero_trajectories_is_an_error() {
    let err = estimate_reach(
        &Race,
        &Pos(0),
        at_goal,
        race_cost,
        &UniformPolicy,
        &McConfig::new(0, 1, 3),
    )
    .unwrap_err();
    assert_eq!(err, McError::NoTrajectories);
}

#[test]
fn mean_hit_time_tracks_the_safe_walk() {
    // FirstPolicy always picks `safe`: deterministic hit at time 3.
    let est = estimate_reach(
        &Race,
        &Pos(0),
        at_goal,
        race_cost,
        &pa_mc::FirstPolicy,
        &McConfig::new(500, 3, 5),
    )
    .unwrap();
    assert_eq!(est.hit_count(), 500);
    let (stats, censored) = est.time_stats();
    assert_eq!(censored, 0);
    assert_eq!(stats.mean(), 3.0);
    let (lo, hi) = est.mean_time_ci(Z_99);
    assert!(lo <= 3.0 && 3.0 <= hi);
}

/// A biased coin flipped once per round until it lands: each round
/// succeeds with probability `p / 256`. The trajectory stops at the first
/// success or after `cap` rounds.
fn biased_coin(p: u8, cap: u32, rng: &mut SplitMix64) -> Trajectory {
    for round in 1..=cap {
        if rng.random_range(0u32..256) < u32::from(p) {
            return Trajectory {
                hit_at: Some(round),
                early: false,
                steps: u64::from(round),
            };
        }
    }
    Trajectory {
        hit_at: None,
        early: false,
        steps: u64::from(cap),
    }
}

#[test]
fn a_panicking_trajectory_is_a_worker_error() {
    for workers in [1, 3] {
        let cfg = McConfig::new(100, 1, 5).with_workers(workers);
        let err = run_trajectories(&cfg, |rng| {
            if rng.random_range(0u32..10) == 0 {
                panic!("trajectory bug");
            }
            biased_coin(128, 5, rng)
        })
        .unwrap_err();
        assert_eq!(err, McError::WorkerPanicked, "{workers} workers");
    }
}

#[test]
fn the_driver_rejects_an_empty_batch() {
    let err =
        run_trajectories(&McConfig::new(0, 1, 5), |rng| biased_coin(128, 5, rng)).unwrap_err();
    assert_eq!(err, McError::NoTrajectories);
}

#[test]
fn the_driver_matches_the_geometric_law() {
    let est = run_trajectories(&McConfig::new(20_000, 42, 3), |rng| {
        biased_coin(128, 3, rng)
    })
    .unwrap();
    // P[heads within 3 flips] = 1 - (1/2)^3 = 0.875.
    assert!(est.interval(Z_99).contains(Prob::new(0.875).unwrap()));
    assert_eq!(est.hit_count() + est.misses(), 20_000);
}

proptest! {
    #[test]
    fn driver_estimates_are_deterministic_in_configuration(
        p in 1u8..=255, trials in 1u64..500, seed in any::<u64>(), cap in 0u32..20,
    ) {
        let cfg = McConfig::new(trials, seed, cap);
        let a = run_trajectories(&cfg, |rng| biased_coin(p, cap, rng)).unwrap();
        let b = run_trajectories(&cfg, |rng| biased_coin(p, cap, rng)).unwrap();
        prop_assert_eq!(a.digest_fragment(), b.digest_fragment());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn driver_estimates_are_bitwise_invariant_in_worker_count(
        p in 1u8..=255, trials in 1u64..500, seed in any::<u64>(),
    ) {
        let cfg = McConfig::new(trials, seed, 10);
        let one = run_trajectories(&cfg.with_workers(1), |rng| biased_coin(p, 10, rng)).unwrap();
        for workers in [2, 3, 7] {
            let many =
                run_trajectories(&cfg.with_workers(workers), |rng| biased_coin(p, 10, rng)).unwrap();
            prop_assert_eq!(&one, &many);
        }
    }

    #[test]
    fn per_round_cdf_is_monotone_and_bounded(p in 1u8..=255, seed in any::<u64>()) {
        let est = run_trajectories(&McConfig::new(500, seed, 30), |rng| biased_coin(p, 30, rng))
            .unwrap();
        prop_assert_eq!(est.trials(), 500);
        let mut last = 0;
        for t in 0..=30 {
            let within = est.hits_within(t);
            prop_assert!(within >= last);
            prop_assert!(within <= est.trials());
            last = within;
        }
        prop_assert_eq!(last + est.misses(), est.trials());
    }
}
