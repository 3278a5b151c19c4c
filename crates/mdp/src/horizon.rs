//! Cost-bounded reachability by backward induction.
//!
//! This is the engine behind exact verification of arrow statements
//! `U —t→_p U'`: with intra-round scheduling steps costing 0 and round
//! boundaries costing 1, the minimal probability (over all adversaries) of
//! reaching `U'` with total cost at most `t` is exactly the quantity
//! Definition 3.1 bounds.
//!
//! For finite-horizon reachability objectives on a finite MDP, deterministic
//! cost-indexed Markov policies attain the optimum over *all* history-
//! dependent deterministic adversaries, so backward induction quantifies
//! over the paper's full adversary class (substitution 2 in DESIGN.md).

use crate::{source, MdpError, SolveStats, ToCsr};

/// Whether the adversary minimizes or maximizes the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Worst case for the algorithm: the adversary minimizes the
    /// probability of reaching the target (the quantifier in `U —t→_p U'`).
    MinProb,
    /// Best case: the adversary maximizes the probability.
    MaxProb,
}

impl Objective {
    /// Whether `a` improves on `b` under this objective.
    #[inline]
    pub(crate) fn better(self, a: f64, b: f64) -> bool {
        match self {
            Objective::MinProb => a < b,
            Objective::MaxProb => a > b,
        }
    }

    /// The identity element of the optimization (`±∞`).
    #[inline]
    pub(crate) fn start(self) -> f64 {
        match self {
            Objective::MinProb => f64::INFINITY,
            Objective::MaxProb => f64::NEG_INFINITY,
        }
    }
}

/// A deterministic cost-indexed policy extracted from backward induction:
/// `decision[k][s]` is the optimal choice index in state `s` with `k` cost
/// units of budget remaining (`None` for states without choices).
#[derive(Debug, Clone)]
pub struct BoundedPolicy {
    /// `decision[k][s]`, `k = 0..=budget`.
    pub decision: Vec<Vec<Option<u32>>>,
}

impl BoundedPolicy {
    /// The optimal choice in `state` with `remaining` budget (clamped to
    /// the largest computed level).
    pub fn choice(&self, state: usize, remaining: u32) -> Option<u32> {
        let k = (remaining as usize).min(self.decision.len() - 1);
        self.decision[k][state]
    }
}

/// Computes `P^opt[reach target with total cost ≤ budget]` for every state,
/// invoking `on_level(k, values)` after each budget level `k = 0..=budget`
/// (useful for probability-vs-time CDF series). Returns the final level.
///
/// Each level is the fixpoint of
/// `v(s) = opt_c [ Σ p · (cost(c)=1 ? prev : v)(t) ]` over the zero-cost
/// subgraph, starting from 0 (the least fixpoint, reached exactly when the
/// zero-cost subgraph is acyclic, and approached monotonically from below —
/// hence conservatively for `MinProb` claims — otherwise). Levels run on
/// the CSR engine's Jacobi sweeps.
///
/// # Errors
///
/// Returns [`MdpError::TargetLengthMismatch`] for a malformed target vector
/// and [`MdpError::BadDistribution`] if any transition cost exceeds 1.
pub fn cost_bounded_reach_levels<M: ToCsr + ?Sized>(
    mdp: &M,
    target: &[bool],
    budget: u32,
    objective: Objective,
    mut on_level: impl FnMut(u32, &[f64]),
) -> Result<Vec<f64>, MdpError> {
    source::bounded_levels(
        &*mdp.to_csr(),
        target,
        budget,
        objective,
        source::LevelSolver::Jacobi,
        None,
        &mut on_level,
        &mut SolveStats::default(),
    )
    .map(|(values, _)| values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, CsrMdp, ExplicitMdp, Query};

    /// Bounded reachability via the `Query` builder (the migration target
    /// of the removed pre-`Query` free function).
    fn cost_bounded_reach(
        mdp: &ExplicitMdp,
        target: &[bool],
        budget: u32,
        objective: Objective,
    ) -> Result<Vec<f64>, MdpError> {
        Ok(Query::csr(&CsrMdp::from(mdp))
            .objective(objective)
            .target(target)
            .horizon(budget)
            .run()
            .map_err(MdpError::into_root)?
            .values)
    }

    fn cost_bounded_reach_with_policy(
        mdp: &ExplicitMdp,
        target: &[bool],
        budget: u32,
        objective: Objective,
    ) -> Result<(Vec<f64>, BoundedPolicy), MdpError> {
        let analysis = Query::csr(&CsrMdp::from(mdp))
            .objective(objective)
            .target(target)
            .horizon(budget)
            .with_policy()
            .run()
            .map_err(MdpError::into_root)?;
        let policy = analysis
            .policy
            .expect("with_policy() query returns a policy");
        Ok((analysis.values, policy))
    }

    /// Geometric trial: each round, flip a coin; heads wins.
    /// State 0 = trying, 1 = won.
    fn geometric() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn geometric_bounded_reach_is_one_minus_half_pow() {
        let m = geometric();
        let target = [false, true];
        for budget in 0..6 {
            let v = cost_bounded_reach(&m, &target, budget, Objective::MinProb).unwrap();
            let expect = 1.0 - 0.5f64.powi(budget as i32);
            assert!(
                (v[0] - expect).abs() < 1e-12,
                "budget {budget}: {} vs {expect}",
                v[0]
            );
        }
    }

    #[test]
    fn target_states_have_probability_one_at_zero_budget() {
        let m = geometric();
        let v = cost_bounded_reach(&m, &[false, true], 0, Objective::MinProb).unwrap();
        assert_eq!(v[1], 1.0);
    }

    /// Adversary picks between a safe branch (never reaches) and a risky
    /// branch (reaches with probability 1): min picks safe, max risky.
    fn pick() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::to(1, 2)],
                vec![], // dead end
                vec![], // target
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn min_and_max_differ_under_nondeterminism() {
        let m = pick();
        let target = [false, false, true];
        let vmin = cost_bounded_reach(&m, &target, 3, Objective::MinProb).unwrap();
        let vmax = cost_bounded_reach(&m, &target, 3, Objective::MaxProb).unwrap();
        assert_eq!(vmin[0], 0.0);
        assert_eq!(vmax[0], 1.0);
    }

    #[test]
    fn zero_cost_steps_do_not_consume_budget() {
        // 0 -0-> 1 -0-> 2 (target): reachable even with budget 0.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(0, 1)], vec![Choice::to(0, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let v = cost_bounded_reach(&m, &[false, false, true], 0, Objective::MinProb).unwrap();
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn cost_one_steps_consume_budget() {
        // 0 -1-> 1 -1-> 2 (target): needs budget 2.
        let m = ExplicitMdp::new(
            vec![vec![Choice::to(1, 1)], vec![Choice::to(1, 2)], vec![]],
            vec![0],
        )
        .unwrap();
        let target = [false, false, true];
        let v1 = cost_bounded_reach(&m, &target, 1, Objective::MinProb).unwrap();
        let v2 = cost_bounded_reach(&m, &target, 2, Objective::MinProb).unwrap();
        assert_eq!(v1[0], 0.0);
        assert_eq!(v2[0], 1.0);
    }

    #[test]
    fn levels_are_monotone_in_budget() {
        let m = geometric();
        let mut last = -1.0;
        cost_bounded_reach_levels(&m, &[false, true], 8, Objective::MinProb, |_, v| {
            assert!(v[0] >= last - 1e-12);
            last = v[0];
        })
        .unwrap();
    }

    #[test]
    fn rejects_costs_above_one() {
        let m = ExplicitMdp::new(vec![vec![Choice::to(2, 0)]], vec![0]).unwrap();
        assert!(matches!(
            cost_bounded_reach(&m, &[false], 3, Objective::MinProb),
            Err(MdpError::BadDistribution { .. })
        ));
    }

    #[test]
    fn rejects_bad_target_length() {
        let m = geometric();
        assert!(matches!(
            cost_bounded_reach(&m, &[false], 3, Objective::MinProb),
            Err(MdpError::TargetLengthMismatch { .. })
        ));
    }

    #[test]
    fn policy_extraction_picks_optimal_choice() {
        let m = pick();
        let target = [false, false, true];
        let (_, pmin) = cost_bounded_reach_with_policy(&m, &target, 3, Objective::MinProb).unwrap();
        let (_, pmax) = cost_bounded_reach_with_policy(&m, &target, 3, Objective::MaxProb).unwrap();
        // With budget remaining, min avoids the target (choice 0 → dead end),
        // max goes for it (choice 1 → target).
        assert_eq!(pmin.choice(0, 3), Some(0));
        assert_eq!(pmax.choice(0, 3), Some(1));
        // Terminal states have no decision.
        assert_eq!(pmin.choice(1, 3), None);
    }

    #[test]
    fn policy_clamps_budget_lookup() {
        let m = pick();
        let (_, p) =
            cost_bounded_reach_with_policy(&m, &[false, false, true], 1, Objective::MaxProb)
                .unwrap();
        assert_eq!(p.choice(0, 99), p.choice(0, 1));
    }
}
