//! Cross-validation between the exact checker (pa-mdp backward induction)
//! and the statistical estimator (pa-mc sampling of the round simulator): independent
//! implementations of the same semantics must agree.

use timebounds::lehmann_rabin::{
    check_arrow, paper, regions, round_cost, sims, RoundConfig, RoundMdp,
};
use timebounds::mc::{run_trajectories, McConfig, McEstimate};
use timebounds::mdp::{Explore, Objective};
use timebounds::prob::stats::{BernoulliEstimator, Z_99};

/// Samples `scheduler` on the ring of 3 from the all-trying start until
/// some process reaches `C`, for at most `cfg.max_time` rounds.
fn sample<S: sims::RoundScheduler>(scheduler: S, cfg: &McConfig) -> McEstimate {
    let sim = sims::LrSim::new(3, scheduler)
        .unwrap()
        .with_start(sims::all_trying(3).unwrap());
    run_trajectories(cfg, |rng| sim.trajectory(regions::in_c, cfg.max_time, rng)).unwrap()
}

#[test]
fn concrete_schedulers_dominate_the_exact_worst_case() {
    let exact_worst = check_arrow(
        &RoundMdp::new(RoundConfig::new(3).unwrap()),
        &paper::arrow_t_to_c(),
    )
    .unwrap()
    .measured
    .lo();
    let mc = McConfig::new(20_000, 5, 13);
    let estimates = [
        sample(sims::RoundRobin, &mc),
        sample(sims::UniformRandom, &mc),
        sample(sims::AntiProgress, &mc),
    ];
    for (which, est) in estimates.iter().enumerate() {
        let ci = est.estimator().wilson_interval(Z_99);
        assert!(
            ci.hi().at_least(exact_worst),
            "scheduler {which}: CI {ci} below exact worst case {exact_worst}"
        );
    }
}

/// The exact probability-vs-time curve from the all-trying start must
/// bracket the Monte-Carlo CDF of a concrete scheduler from below (the
/// exact value is the minimum over all adversaries, the simulated scheduler
/// is just one of them).
#[test]
fn exact_curve_lower_bounds_simulated_cdf() {
    let all_trying = sims::all_trying(3).unwrap();
    let mdp = RoundMdp::new(RoundConfig::new(3).unwrap())
        .with_starts(vec![all_trying])
        .with_absorb(regions::in_c);
    let explored = Explore::new(&mdp)
        .cost(round_cost)
        .limit(10_000_000)
        .run()
        .unwrap();
    let target = explored.target_where(|rs| regions::in_c(&rs.config));
    let start = explored.mdp.initial_states()[0];
    let mut exact_curve = vec![0.0f64]; // t = 0
    explored
        .query()
        .objective(Objective::MinProb)
        .target(target)
        .horizon(19)
        .on_level(|_, v| exact_curve.push(v[start]))
        .run()
        .unwrap();
    // The curve's bits, pinned: 1 - 4^-j from t = 4j on (0, 3/4, 15/16,
    // 63/64, 255/256, 1023/1024), each held for four time units.
    let steps: [u64; 6] = [
        0,
        0x3fe8_0000_0000_0000,
        0x3fee_0000_0000_0000,
        0x3fef_8000_0000_0000,
        0x3fef_e000_0000_0000,
        0x3fef_f800_0000_0000,
    ];
    let bits: Vec<u64> = exact_curve.iter().map(|v| v.to_bits()).collect();
    let pinned: Vec<u64> = (0..=20).map(|t| steps[t / 4]).collect();
    assert_eq!(bits, pinned);

    let est = sample(sims::UniformRandom, &McConfig::new(30_000, 11, 20));
    for t in 0..=20u32 {
        let exact = exact_curve[t as usize];
        let ci =
            BernoulliEstimator::from_counts(est.hits_within(t), est.trials()).wilson_interval(Z_99);
        assert!(
            ci.hi().value() + 1e-9 >= exact,
            "t={t}: simulated CI {ci} below exact worst case {exact}"
        );
    }
    // And the curve shapes agree qualitatively: both are 0 before round 4
    // (a meal takes flip, wait, second, crit) and near 1 by round 20.
    assert_eq!(exact_curve[3], 0.0);
    assert_eq!(est.hits_within(3), 0);
    assert!(exact_curve[20] > 0.99);
    assert!(est.point() > 0.99);
}

/// Replaying the extracted optimal (minimizing) policy through the explicit
/// MDP by direct sampling reproduces the backward-induction value — the
/// policy really is the worst-case adversary it claims to be.
#[test]
fn extracted_worst_case_policy_reproduces_its_value() {
    use rand::RngExt;
    use timebounds::mdp::Query;
    use timebounds::prob::rng::SplitMix64;

    let all_trying = sims::all_trying(3).unwrap();
    let mdp = RoundMdp::new(RoundConfig::new(3).unwrap())
        .with_starts(vec![all_trying])
        .with_absorb(regions::in_c);
    let explored = Explore::new(&mdp)
        .cost(round_cost)
        .limit(10_000_000)
        .run()
        .unwrap();
    let target = explored.target_where(|rs| regions::in_c(&rs.config));
    let budget = 12u32; // time 13
    let analysis = Query::csr(&explored.mdp)
        .objective(Objective::MinProb)
        .target(&target)
        .horizon(budget)
        .with_policy()
        .run()
        .unwrap();
    let values = analysis.values;
    let policy = analysis
        .policy
        .expect("with_policy() query returns a policy");
    let start = explored.mdp.initial_states()[0];

    // Sample trajectories following the policy.
    let trials = 40_000u64;
    let mut hits = 0u64;
    for trial in 0..trials {
        let mut rng = SplitMix64::for_trial(99, trial);
        let mut state = start;
        let mut remaining = budget;
        loop {
            if target[state] {
                hits += 1;
                break;
            }
            let Some(choice_idx) = policy.choice(state, remaining) else {
                break; // absorbing non-target state
            };
            let rows = explored.mdp.rows();
            let c = rows.choice_range(state).start + choice_idx as usize;
            if rows.cost(c) > remaining {
                break; // out of time budget
            }
            remaining -= rows.cost(c);
            // Sample the successor.
            let mut x: f64 = rng.random();
            let trans = rows.trans_range(c);
            let mut next = rows.targets[trans.start] as usize;
            for i in trans {
                if x < rows.prob(i) {
                    next = rows.targets[i] as usize;
                    break;
                }
                x -= rows.prob(i);
            }
            state = next;
        }
    }
    let simulated = hits as f64 / trials as f64;
    let exact = values[start];
    assert!(
        (simulated - exact).abs() < 0.01,
        "policy replay {simulated} vs exact {exact}"
    );
}
