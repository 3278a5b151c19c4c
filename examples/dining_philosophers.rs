//! The Lehmann–Rabin Dining Philosophers, three ways:
//!
//! 1. a round-by-round trace of the protocol model under a scheduler,
//! 2. Monte-Carlo statistics of the time until some philosopher eats,
//! 3. the real multi-threaded implementation with try-locks.
//!
//! ```text
//! cargo run --release --example dining_philosophers [n]
//! ```

use std::error::Error;
use std::time::Duration;

use timebounds::lehmann_rabin::{concurrent, regions, sims};
use timebounds::mc::{run_trajectories, McConfig, McEstimate};
use timebounds::prob::rng::SplitMix64;
use timebounds::prob::stats::{BernoulliEstimator, Z_95};

fn main() -> Result<(), Box<dyn Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(5);

    // 1. A single trace under the rotating round-robin scheduler.
    println!("— one run, ring of {n}, round-robin scheduler —");
    let sim = sims::LrSim::new(n, sims::RoundRobin)?.with_start(sims::all_trying(n)?);
    let mut rng = SplitMix64::new(2024);
    let trace = sim.trace(30, &mut rng);
    for (round, state) in trace.iter().enumerate().take(12) {
        let tags = [
            (regions::in_g(&state.config), "G"),
            (regions::in_p(&state.config), "P"),
            (regions::in_c(&state.config), "C"),
        ];
        let region: Vec<&str> = tags.iter().filter(|(b, _)| *b).map(|(_, t)| *t).collect();
        println!("  round {round:>2}: {} {}", state.config, region.join(","));
        if regions::in_c(&state.config) {
            break;
        }
    }
    match trace.iter().position(|s| regions::in_c(&s.config)) {
        Some(r) => println!("  first philosopher eats after {r} rounds"),
        None => println!("  nobody ate within 30 rounds (rare)"),
    }

    // 2. Monte-Carlo: distribution of the time to the first meal.
    println!("\n— Monte-Carlo, 20000 trials per scheduler —");
    let mc = McConfig::new(20_000, 7, 200);
    let estimates = [
        ("round-robin", sample(n, sims::RoundRobin, &mc)?),
        ("uniform-random", sample(n, sims::UniformRandom, &mc)?),
        ("anti-progress", sample(n, sims::AntiProgress, &mc)?),
    ];
    for (name, est) in estimates {
        let (stats, censored) = est.time_stats();
        let p13 = BernoulliEstimator::from_counts(est.hits_within(13), est.trials());
        println!(
            "  {name:<15} mean time-to-eat {:.2} rounds (max {:.0}), censored {censored}, P[eat ≤ 13] = {} ",
            stats.mean(),
            stats.max().unwrap_or(f64::NAN),
            p13.wilson_interval(Z_95),
        );
    }
    println!("  paper guarantees: P[eat ≤ 13] ≥ 1/8 and E[time] ≤ 63 against ANY adversary");

    // 3. Real threads.
    println!("\n— real threads ({n} philosophers, std Mutex try-locks) —");
    let report = concurrent::run_trials(n, 50, 42, Duration::from_secs(20))?;
    println!(
        "  {} trials: mean {:.3} ms, max {:.3} ms to first meal; {} timeouts; {} coin flips",
        report.trials,
        report.time_to_crit.mean() * 1e3,
        report
            .time_to_crit
            .max()
            .map(|m| m * 1e3)
            .unwrap_or(f64::NAN),
        report.timeouts,
        report.total_flips,
    );
    Ok(())
}

/// Samples `scheduler` on the ring of `n` from the all-trying start until
/// some philosopher eats, for at most `mc.max_time` rounds.
fn sample<S: sims::RoundScheduler>(
    n: usize,
    scheduler: S,
    mc: &McConfig,
) -> Result<McEstimate, Box<dyn Error>> {
    let sim = sims::LrSim::new(n, scheduler)?.with_start(sims::all_trying(n)?);
    Ok(run_trajectories(mc, |rng| {
        sim.trajectory(regions::in_c, mc.max_time, rng)
    })?)
}
