//! The sampled tier over the faulty round model: Monte-Carlo estimates of
//! arrow probabilities and hitting times, cross-validated against the
//! exact checker where the exact checker can still run.
//!
//! Two modes:
//!
//! * [`sampled_arrow_under`] — the cross-validation mode. Runs the *same*
//!   fault-wrapped pipeline as [`crate::check_arrow_under`], additionally
//!   extracts the minimizing adversary's cost-indexed policy, and replays
//!   it with [`pa_mc::OptimalReplay`] from the worst start state. The
//!   estimand then *equals* the exact worst-case value, so the sampled
//!   99% interval must contain it — the property the `mc-smoke` CI gate
//!   enforces on `n = 3..5`.
//! * [`estimate_reach_uniform`] — the escape-hatch mode for rings the
//!   exact engine cannot hold (`n = 8` and beyond). No exploration at
//!   all: trajectories of the implicit faulty round model from the
//!   canonical all-trying start under the uniform-random adversary.

use pa_core::{Arrow, Automaton, SetExpr};
use pa_lehmann_rabin::{
    explore_checker, reachable_configs, time_to_budget, ArrowSolve, Config, Pc, ProcState,
    Quotient, RoundConfig, Side,
};
use pa_mc::{
    chain_target, estimate_reach, ChainState, McConfig, McEstimate, OptimalReplay, UniformChain,
    UniformPolicy,
};
use pa_mdp::{Explore, Explored, Objective, PackedSpace, StateSpace};
use pa_prob::stats::Z_99;
use pa_prob::{Prob, ProbInterval};

use crate::{
    faulty_round_cost, set_pred_under, FaultChecker, FaultError, FaultPlan, FaultyRoundMdp,
    FaultyStateCodec,
};

/// A sampled arrow check with its exact-engine anchor.
#[derive(Debug, Clone)]
pub struct SampledArrow {
    /// The arrow, rendered (`U —t→_p U'`).
    pub arrow: String,
    /// The claimed probability bound.
    pub claimed: f64,
    /// The exact worst-case value from the bounded query (the estimand).
    pub exact: f64,
    /// The worst start state the trajectories replay from.
    pub worst_state: String,
    /// The sampled accumulator.
    pub estimate: McEstimate,
    /// The 99% Wilson interval of the estimate.
    pub interval: ProbInterval,
    /// Whether the interval contains the exact value — the cross-
    /// validation verdict the CI gate hard-fails on.
    pub contains_exact: bool,
}

/// Samples an arrow claim under a fault plan by replaying the extracted
/// optimal (minimizing) adversary from the worst start state, and checks
/// the 99% interval against the exact value computed on the same model.
///
/// `mc.max_time` is overridden with the arrow's own time budget so the
/// trajectory semantics match the bounded query level for level. Returns
/// `None` when the arrow's source region is empty under the plan (the
/// claim is vacuous; there is nothing to sample).
///
/// # Errors
///
/// Region, plan-validation, exploration, analysis, and sampling errors.
pub fn sampled_arrow_under(
    cfg: RoundConfig,
    arrow: &Arrow,
    plan: &FaultPlan,
    limit: usize,
    mc: &McConfig,
) -> Result<Option<SampledArrow>, FaultError> {
    let Some((model, checker, space)) = arrow_model(cfg, arrow, plan, limit)? else {
        return Ok(None);
    };
    let ArrowSolve {
        worst, analysis, ..
    } = checker
        .solve_arrow(arrow, |q| q.with_policy())?
        .expect("arrow model has at least one start state");
    let exact = analysis.values[worst];
    let policy = analysis
        .policy
        .as_ref()
        .expect("with_policy() query returns a policy");

    let to = set_pred_under(arrow.to())?;
    let n = cfg.n;
    let budget = time_to_budget(arrow.time());
    let replay = OptimalReplay {
        space: &space,
        policy,
    };
    let estimate = estimate_reach(
        &model,
        &space.state(worst),
        |s| to(&s.inner.config, s.crashed_mask(n)),
        faulty_round_cost,
        &replay,
        &McConfig {
            max_time: budget,
            ..*mc
        },
    )?;
    let interval = estimate.interval(Z_99);
    Ok(Some(SampledArrow {
        arrow: arrow.to_string(),
        claimed: arrow.prob().value(),
        exact,
        worst_state: space.state(worst).to_string(),
        estimate,
        interval,
        contains_exact: interval.contains(Prob::clamped(exact)),
    }))
}

/// The fault-wrapped arrow model the sampled replays run on (packed,
/// full space), with its automaton and its state store; `None` for an
/// empty source region.
fn arrow_model(
    cfg: RoundConfig,
    arrow: &Arrow,
    plan: &FaultPlan,
    limit: usize,
) -> Result<Option<(FaultyRoundMdp, FaultChecker, PackedSpace<FaultyStateCodec>)>, FaultError> {
    let reachable = reachable_configs(cfg.n, limit)?;
    let model = FaultyRoundMdp::new(cfg, plan.clone())?;
    let space = PackedSpace::new(FaultyStateCodec::new(cfg.n, model.round_cap())?);
    let scope = Some((arrow.from(), arrow.to()));
    Ok(explore_checker(
        model,
        &reachable,
        scope,
        limit,
        Quotient::Full,
        space,
    )?)
}

/// The canonical all-trying configuration (`T`: every process at `Pc::F`),
/// the start state of the paper's composed `T —13→_{1/8} C` arrow and of
/// the escape-hatch estimates.
///
/// # Errors
///
/// Propagates ring-size validation errors.
pub fn trying_start(n: usize) -> Result<Config, FaultError> {
    let mut config = Config::initial(n)?;
    for i in 0..n {
        config = config.with_proc(i, ProcState::new(Pc::F, Side::Left));
    }
    Ok(config)
}

/// Escape-hatch estimate for rings the exact engine cannot hold: the
/// probability of reaching `target` within `within` time units from the
/// all-trying start, under the uniform-random adversary and `plan`'s
/// faults. Never explores — memory stays constant in `n`.
///
/// The estimand is the exact reachability value of the
/// [`pa_mc::UniformChain`] wrapping of the same model, which is how the
/// small-instance tests pin it.
///
/// # Errors
///
/// Region, plan-validation, and sampling errors.
pub fn estimate_reach_uniform(
    n: usize,
    plan: &FaultPlan,
    target: &SetExpr,
    within: u32,
    mc: &McConfig,
) -> Result<McEstimate, FaultError> {
    estimate_reach_uniform_from(n, plan, trying_start(n)?, target, within, mc)
}

/// [`estimate_reach_uniform`] from an explicit start configuration — the
/// form the hybrid survival map uses to sample a faulted arrow from a
/// canonical representative of its *source* region (fault plans break
/// rotation symmetry, so faulted columns cannot run on the quotient).
///
/// # Errors
///
/// Same as [`estimate_reach_uniform`].
pub fn estimate_reach_uniform_from(
    n: usize,
    plan: &FaultPlan,
    start: Config,
    target: &SetExpr,
    within: u32,
    mc: &McConfig,
) -> Result<McEstimate, FaultError> {
    let cfg = RoundConfig::new(n)?;
    let to = set_pred_under(target)?;
    let model = crate::FaultyRoundMdp::new(cfg, plan.clone())?.with_starts(vec![start]);
    let start = model
        .start_states()
        .into_iter()
        .next()
        .expect("faulty round model has a start state");
    Ok(estimate_reach(
        &model,
        &start,
        |s| to(&s.inner.config, s.crashed_mask(n)),
        faulty_round_cost,
        &UniformPolicy,
        &McConfig {
            max_time: within,
            ..*mc
        },
    )?)
}

/// The exact value of the [`estimate_reach_uniform`] estimand, computed
/// by exploring the [`UniformChain`] wrapping of the same model (on which
/// the uniform-random adversary is the *only* adversary, so the bounded
/// query's min and max coincide with the uniform-policy value).
///
/// Only feasible while the chain still fits `limit` states — this is the
/// small-instance anchor the sampled tier is cross-validated against.
///
/// # Errors
///
/// Region, plan-validation, exploration, and analysis errors.
pub fn exact_reach_uniform(
    n: usize,
    plan: &FaultPlan,
    target: &SetExpr,
    within: u32,
    limit: usize,
) -> Result<f64, FaultError> {
    let to = set_pred_under(target)?;
    let explored = explore_uniform_chain(n, plan, limit)?;
    let mut pred =
        chain_target(|s: &crate::FaultyRoundState| to(&s.inner.config, s.crashed_mask(n)));
    let analysis = explored
        .query_where(|s| pred(s))
        .objective(Objective::MinProb)
        .horizon(within)
        .run()?;
    let start = explored
        .mdp
        .initial_states()
        .first()
        .copied()
        .expect("chain model has a start state");
    Ok(analysis.value(start))
}

/// The number of states [`exact_reach_uniform`] explores on a ring of `n`
/// under `plan`: the size of its exact tier, whatever the target.
///
/// # Errors
///
/// Plan-validation and exploration errors.
pub fn uniform_chain_states(n: usize, plan: &FaultPlan, limit: usize) -> Result<usize, FaultError> {
    Ok(explore_uniform_chain(n, plan, limit)?.num_states())
}

/// The [`UniformChain`] wrapping of the faulty round model of a ring of
/// `n` under `plan`, explored from the all-trying start.
fn explore_uniform_chain(
    n: usize,
    plan: &FaultPlan,
    limit: usize,
) -> Result<Explored<ChainState<crate::FaultyRoundState>>, FaultError> {
    let cfg = RoundConfig::new(n)?;
    let model = crate::FaultyRoundMdp::new(cfg, plan.clone())?.with_starts(vec![trying_start(n)?]);
    let chain = UniformChain::new(&model);
    Ok(Explore::new(&chain)
        .cost(UniformChain::<crate::FaultyRoundMdp>::cost(
            faulty_round_cost,
        ))
        .limit(limit)
        .run()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_lehmann_rabin::{paper, regions};

    #[test]
    fn trying_start_is_in_t() {
        let c = trying_start(3).unwrap();
        assert!(regions::in_t(&c));
    }

    #[test]
    fn sampled_g_to_p_contains_exact_value_at_n3() {
        let (arrow, _why) = paper::all_arrows().remove(3);
        let cfg = RoundConfig::new(3).unwrap();
        let sampled = sampled_arrow_under(
            cfg,
            &arrow,
            &FaultPlan::none(),
            1_000_000,
            &McConfig::new(4_000, 42, 0),
        )
        .unwrap()
        .expect("G is non-empty on the fault-free ring");
        assert!(
            sampled.contains_exact,
            "interval {} must contain exact {}",
            sampled.interval, sampled.exact
        );
    }

    #[test]
    fn sampled_interval_contains_the_quotient_exact_value_at_n3_and_n4() {
        // The PR 7 containment gate, extended to the quotient path: the
        // quotient engine explores a different (orbit-collapsed, bit-
        // packed) model, yet computes the same estimand as the full-space
        // check the trajectories replay against — so its exact value must
        // land inside the sampled 99% Wilson interval too.
        let (arrow, _why) = paper::all_arrows().remove(3);
        let plan = FaultPlan::none();
        for n in [3usize, 4] {
            let cfg = RoundConfig::new(n).unwrap();
            let sampled =
                sampled_arrow_under(cfg, &arrow, &plan, 1_000_000, &McConfig::new(4_000, 42, 0))
                    .unwrap()
                    .expect("G is non-empty on the fault-free ring");
            let quotient =
                crate::check_arrow_under_quotient(cfg, &arrow, &plan, 1_000_000).unwrap();
            let exact = quotient.measured.lo().value();
            assert_eq!(
                exact.to_bits(),
                sampled.exact.to_bits(),
                "n={n}: quotient exact {exact} vs full exact {}",
                sampled.exact
            );
            assert!(
                sampled.interval.contains(Prob::clamped(exact)),
                "n={n}: interval {} must contain quotient-exact {exact}",
                sampled.interval
            );
        }
    }

    #[test]
    fn uniform_interval_contains_chain_exact_value_at_n3() {
        let target = SetExpr::named("C");
        let exact = exact_reach_uniform(3, &FaultPlan::none(), &target, 13, 1_000_000).unwrap();
        assert!(exact > 0.0 && exact <= 1.0, "nontrivial estimand: {exact}");
        let est = estimate_reach_uniform(
            3,
            &FaultPlan::none(),
            &target,
            13,
            &McConfig::new(4_000, 11, 0),
        )
        .unwrap();
        let interval = est.interval(Z_99);
        assert!(
            interval.contains(Prob::clamped(exact)),
            "interval {interval} must contain exact {exact}"
        );
    }

    #[test]
    fn arrow_intervals_achieve_nominal_coverage_across_100_seeds() {
        // One exploration per ring, then 100 independently seeded replays:
        // the 99% Wilson intervals must contain the exact value in at
        // least 96 of 100 (nominal coverage leaves about one expected
        // miss).
        let (arrow, _why) = paper::all_arrows().remove(3);
        let plan = FaultPlan::none();
        for n in [3usize, 4] {
            let cfg = RoundConfig::new(n).unwrap();
            let (model, checker, space) = arrow_model(cfg, &arrow, &plan, 1_000_000)
                .unwrap()
                .expect("G is non-empty on the fault-free ring");
            let ArrowSolve {
                worst, analysis, ..
            } = checker
                .solve_arrow(&arrow, |q| q.with_policy())
                .unwrap()
                .unwrap();
            let exact = analysis.values[worst];
            let to = set_pred_under(arrow.to()).unwrap();
            let budget = time_to_budget(arrow.time());
            let replay = OptimalReplay {
                space: &space,
                policy: analysis.policy.as_ref().unwrap(),
            };
            let mut contained = 0;
            for seed in 0..100u64 {
                let estimate = estimate_reach(
                    &model,
                    &space.state(worst),
                    |s| to(&s.inner.config, s.crashed_mask(n)),
                    faulty_round_cost,
                    &replay,
                    &McConfig::new(600, seed, budget),
                )
                .unwrap();
                if estimate.interval(Z_99).contains(Prob::clamped(exact)) {
                    contained += 1;
                }
            }
            assert!(
                contained >= 96,
                "n={n}: only {contained}/100 of the 99% intervals contained {exact}"
            );
        }
    }

    #[test]
    fn uniform_estimate_runs_without_exploring() {
        let est = estimate_reach_uniform(
            4,
            &FaultPlan::none(),
            &SetExpr::named("C"),
            13,
            &McConfig::new(500, 7, 0),
        )
        .unwrap();
        assert_eq!(est.trials(), 500);
        // Under Unit-Time scheduling some trajectories reach C by 13.
        assert!(est.hit_count() > 0);
    }
}
