//! The expected-time analysis of Section 6.2, reproduced end to end:
//!
//! 1. solve the paper's recurrence (E[V] = 60, total bound 63),
//! 2. compare with the naive geometric bound 13 / (1/8) = 104,
//! 3. compute the exact worst-case expectation on the round model,
//! 4. cross-check with Monte-Carlo estimates under concrete schedulers.
//!
//! ```text
//! cargo run --release --example expected_time [n]
//! ```

use std::error::Error;

use timebounds::core::{geometric_bound, solve_expected_time, Branch, SetExpr};
use timebounds::lehmann_rabin::{max_expected_time, paper, regions, sims, RoundConfig, RoundMdp};
use timebounds::mc::{run_trajectories, McConfig};
use timebounds::prob::Prob;

fn main() -> Result<(), Box<dyn Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3);

    // 1. The paper's recurrence: V = 1/8·10 + 1/2·(5 + V₁) + 3/8·(10 + V₂).
    let branches = [
        Branch::done(Prob::ratio(1, 8)?, 10.0),
        Branch::retry(Prob::ratio(1, 2)?, 5.0),
        Branch::retry(Prob::ratio(3, 8)?, 10.0),
    ];
    let e_rt_p = solve_expected_time(&branches)?;
    println!("paper recurrence:  E[RT → P] ≤ {e_rt_p}");
    println!(
        "paper total bound: E[T → C] ≤ 2 + {e_rt_p} + 1 = {}",
        paper::expected_time_t_to_c()
    );

    // 2. The coarse geometric bound the recurrence beats.
    let coarse = geometric_bound(13.0, Prob::ratio(1, 8)?)?;
    println!("naive bound from T —13→_1/8 C alone: t/p = {coarse}");

    // 3. The exact worst case over all round adversaries.
    let mdp = RoundMdp::new(RoundConfig::new(n)?);
    let exact_rt_p = max_expected_time(
        &mdp,
        &SetExpr::named("RT"),
        &SetExpr::named("P"),
        20_000_000,
    )?;
    let exact_t_c =
        max_expected_time(&mdp, &SetExpr::named("T"), &SetExpr::named("C"), 20_000_000)?;
    println!("\nexact worst case on the round model (n = {n}, burst = 1):");
    println!("  max E[RT → P] = {exact_rt_p:.3}  (paper bound 60)");
    println!("  max E[T → C]  = {exact_t_c:.3}  (paper bound 63)");
    assert!(exact_rt_p <= 60.0 && exact_t_c <= 63.0);

    // 4. Monte-Carlo under concrete schedulers (should sit below the exact
    //    worst case, up to the +1 partial-round margin and CI noise).
    let sim = sims::LrSim::new(n, sims::AntiProgress)?.with_start(sims::all_trying(n)?);
    let est = run_trajectories(&McConfig::new(50_000, 123, 500), |rng| {
        sim.trajectory(regions::in_c, 500, rng)
    })?;
    let (stats, censored) = est.time_stats();
    println!("\nMonte-Carlo, anti-progress scheduler, all-trying start:");
    println!(
        "  mean time-to-C = {:.3} ± {:.3} rounds over {} trials ({censored} censored)",
        stats.mean(),
        1.96 * stats.std_err(),
        stats.count(),
    );
    assert!(stats.mean() <= exact_t_c + 1.0);
    println!("\nordering verified: scheduler mean ≤ exact worst case ≤ paper bound");
    Ok(())
}
