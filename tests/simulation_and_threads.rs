//! Integration of the round simulator and `pa-mc`'s batch driver with the
//! case study, plus the real threaded implementation (experiment E13).

use std::time::Duration;

use timebounds::lehmann_rabin::{concurrent, lemma_6_1_invariant, regions, sims};
use timebounds::mc::{run_trajectories, McConfig};
use timebounds::prob::rng::SplitMix64;

#[test]
fn invariant_holds_along_long_simulated_traces() {
    for n in [2, 3, 5, 8] {
        let sim = sims::LrSim::new(n, sims::UniformRandom)
            .unwrap()
            .with_start(sims::all_trying(n).unwrap());
        let mut rng = SplitMix64::new(n as u64);
        let trace = sim.trace(300, &mut rng);
        for s in &trace {
            assert!(lemma_6_1_invariant(&s.config), "n={n}: {}", s.config);
            assert!(
                timebounds::lehmann_rabin::adjacent_exclusion(&s.config),
                "n={n}: {}",
                s.config
            );
        }
    }
}

#[test]
fn every_trial_eventually_eats() {
    let sim = sims::LrSim::new(4, sims::AntiProgress)
        .unwrap()
        .with_start(sims::all_trying(4).unwrap());
    let est = run_trajectories(&McConfig::new(2_000, 21, 500), |rng| {
        sim.trajectory(regions::in_c, 500, rng)
    })
    .unwrap();
    let (stats, censored) = est.time_stats();
    assert_eq!(censored, 0, "progress must happen with probability 1");
    assert!(stats.mean() >= 4.0, "a meal takes at least 4 rounds");
    assert!(stats.min().unwrap() >= 4.0);
}

#[test]
fn hitting_time_is_deterministic_per_seed() {
    let sim = sims::LrSim::new(3, sims::UniformRandom)
        .unwrap()
        .with_start(sims::all_trying(3).unwrap());
    let a = sim.trajectory(regions::in_c, 100, &mut SplitMix64::new(77));
    let b = sim.trajectory(regions::in_c, 100, &mut SplitMix64::new(77));
    assert_eq!(a, b);
    assert!(a.hit_at.is_some());
}

#[test]
fn idle_start_with_eager_user_still_progresses() {
    // From the all-idle start the eager user issues try at round starts;
    // progress follows.
    let sim = sims::LrSim::new(3, sims::RoundRobin).unwrap();
    let hit = sim.trajectory(regions::in_c, 200, &mut SplitMix64::new(3));
    assert!(hit.hit_at.is_some());
}

#[test]
fn threads_always_reach_the_critical_section() {
    let report = concurrent::run_trials(5, 25, 2024, Duration::from_secs(20)).unwrap();
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.crit_entries, 25);
    assert!(report.time_to_crit.max().unwrap() < 10.0);
}

#[test]
fn thread_contention_costs_flips() {
    // More philosophers → at least as many flips in total (each trial
    // flips at least once per participating thread that races).
    let small = concurrent::run_trials(2, 10, 5, Duration::from_secs(10)).unwrap();
    assert!(small.total_flips >= 10);
    let large = concurrent::run_trials(8, 10, 5, Duration::from_secs(10)).unwrap();
    assert!(large.total_flips >= 10);
}
