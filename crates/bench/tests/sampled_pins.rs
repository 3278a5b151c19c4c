//! Exact pins on the sampled hit counts behind E11, E12 and the
//! cross-validation checks. Trial `i` of a batch runs on its own stream
//! `SplitMix64::for_trial(seed, i)`, so these counts are a function of the
//! model, the scheduler and the seed alone; a drift means a trial's rounds
//! changed, never noise.

use pa_bench::experiments::{cross_validation, scheduler_estimate};
use pa_lehmann_rabin::sims::{AntiProgress, RoundRobin, UniformRandom};
use pa_mc::McConfig;

/// E12's scheduler comparison: n = 3, 20,000 trials, seed 99, deadline 13.
#[test]
fn e12_scheduler_hit_counts_are_pinned() {
    let cfg = McConfig::new(20_000, 99, 13);
    let hits = [
        scheduler_estimate(3, RoundRobin, &cfg).unwrap().hit_count(),
        scheduler_estimate(3, UniformRandom, &cfg)
            .unwrap()
            .hit_count(),
        scheduler_estimate(3, AntiProgress, &cfg)
            .unwrap()
            .hit_count(),
    ];
    assert_eq!(hits, [19_690, 19_690, 19_690]);
}

/// E11's statistical row at n = 8: anti-progress, 4,000 trials, seed 2024.
#[test]
fn e11_anti_progress_hit_count_is_pinned() {
    let cfg = McConfig::new(4_000, 2024, 13);
    let est = scheduler_estimate(8, AntiProgress, &cfg).unwrap();
    assert_eq!((est.trials(), est.hit_count()), (4_000, 4_000));
}

/// `experiments::cross_validation(3)`: anti-progress, 20,000 trials, seed 7.
#[test]
fn cross_validation_hit_count_is_pinned() {
    let (_, point) = cross_validation(3).unwrap();
    assert_eq!((point * 20_000.0).round() as u64, 19_709);
}

/// The per-round first-hit counts behind the root crate's
/// `exact_curve_lower_bounds_simulated_cdf`: uniform-random, 30,000
/// trials, seed 11, 20 rounds.
#[test]
fn simulated_cdf_round_counts_are_pinned() {
    let est = scheduler_estimate(3, UniformRandom, &McConfig::new(30_000, 11, 20)).unwrap();
    let round_counts: [u64; 21] = [
        0, 0, 0, 0, 22_552, 0, 0, 0, 5_564, 0, 0, 0, 1_418, 0, 0, 0, 342, 0, 0, 0, 88,
    ];
    assert_eq!(est.histogram(), &round_counts[..]);
}
