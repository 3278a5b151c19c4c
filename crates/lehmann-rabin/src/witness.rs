//! Worst-case witness extraction: turn the optimal adverse policy computed
//! by backward induction into a concrete, human-readable schedule.
//!
//! The exact checker proves statements of the form "no adversary can push
//! the probability below `p`"; this module answers the follow-up question
//! *what does the worst adversary actually do?* by replaying the extracted
//! cost-indexed policy from the worst start state, resolving each coin
//! flip to its most adverse outcome (the successor minimizing the
//! remaining reachability value). The result is the unluckiest execution
//! under the most hostile schedule — e.g. the all-`W←` lockstep pattern
//! that forces repeated flip retries in the composed `T —13→ C` claim.

use pa_core::Arrow;
use pa_mdp::StateSpace;

use crate::arrows::arrow_model;
use crate::{time_to_budget, ArrowSolve, Config, LrError, Quotient, RoundAction, RoundMdp};

/// One step of a worst-case witness trace.
#[derive(Debug, Clone)]
pub struct WitnessStep {
    /// The action the worst-case adversary schedules.
    pub action: RoundAction,
    /// The configuration after the step (most adverse coin outcome).
    pub config: Config,
    /// Whole time units elapsed after the step.
    pub time: u32,
}

/// A worst-case witness for an arrow claim.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The start configuration minimizing the reachability value.
    pub start: Config,
    /// The exact minimal probability from that start.
    pub min_prob: f64,
    /// The replayed schedule (most adverse outcomes).
    pub steps: Vec<WitnessStep>,
    /// Whether the unluckiest path still reached the target in time.
    pub reached: bool,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "worst start {} (min P = {:.6}); unluckiest schedule:",
            self.start, self.min_prob
        )?;
        for s in &self.steps {
            writeln!(f, "  t≤{:<2} {:?} → {}", s.time + 1, s.action, s.config)?;
        }
        write!(
            f,
            "  outcome: target {} on this path",
            if self.reached { "reached" } else { "missed" }
        )
    }
}

/// Extracts the worst-case adversary for `arrow` on the round model and
/// replays it from the worst start configuration, resolving every random
/// outcome adversely. The trace is truncated at the arrow's time bound.
///
/// # Errors
///
/// Returns region-resolution and exploration errors.
pub fn worst_case_witness(mdp: &RoundMdp, arrow: &Arrow, limit: usize) -> Result<Witness, LrError> {
    let (model, checker, space) = arrow_model(
        mdp,
        mdp.clone(),
        arrow.from(),
        arrow.to(),
        limit,
        Quotient::Full,
    )?
    .expect("the arrow's source region is reachable");
    let ArrowSolve {
        worst: worst_start,
        analysis,
        ..
    } = checker
        .solve_arrow(arrow, |q| q.with_policy())?
        .expect("an arrow model has starts");
    let target = checker.target_mask(arrow.to())?;
    let n = mdp.config().n;
    let budget = time_to_budget(arrow.time());
    let values = analysis.values;
    let policy = analysis
        .policy
        .expect("with_policy() query returns a policy");

    let mut steps = Vec::new();
    let mut state = worst_start;
    let mut remaining = budget;
    let mut reached = target[worst_start];
    // Bound the walk defensively: at most (n·burst + 1) micro-steps per
    // round.
    let max_steps = (budget as usize + 1) * (n * usize::from(mdp.config().burst) + 1) + 8;
    for _ in 0..max_steps {
        if target[state] {
            reached = true;
            break;
        }
        let Some(choice_idx) = policy.choice(state, remaining) else {
            break;
        };
        let rows = checker.rows().rows();
        let c = rows.choice_range(state).start + choice_idx as usize;
        let cost = rows.cost(c);
        if cost > remaining {
            break;
        }
        remaining -= cost;
        // Most adverse outcome: the successor with the smallest value at
        // the post-step budget level.
        let next = rows
            .trans_range(c)
            .filter(|&i| rows.prob(i) > 0.0)
            .map(|i| rows.targets[i] as usize)
            .min_by(|&a, &b| values[a].total_cmp(&values[b]))
            .expect("valid distribution");
        // Recover the action by matching the choice index against the
        // implicit model's step order (preserved by exploration).
        let action = {
            use pa_core::Automaton;
            model.steps(&space.state(state))[choice_idx as usize].action
        };
        state = next;
        steps.push(WitnessStep {
            action,
            config: space.state(state).config,
            time: budget - remaining,
        });
    }

    Ok(Witness {
        start: space.state(worst_start).config,
        min_prob: values[worst_start],
        steps,
        reached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper, regions, RoundConfig};

    #[test]
    fn witness_for_g_to_p_starts_in_g_and_halves() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let w = worst_case_witness(&mdp, &paper::arrow_g_to_p(), 10_000_000).unwrap();
        assert!(regions::in_g(&w.start), "start {} not in G", w.start);
        assert!((w.min_prob - 0.5).abs() < 1e-9);
        assert!(!w.steps.is_empty());
    }

    #[test]
    fn witness_for_deterministic_arrow_reaches_target() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let w = worst_case_witness(&mdp, &paper::arrow_p_to_c(), 10_000_000).unwrap();
        assert!((w.min_prob - 1.0).abs() < 1e-9);
        assert!(w.reached, "even the unluckiest path must reach C:\n{w}");
        assert!(regions::in_c(&w.steps.last().unwrap().config));
    }

    #[test]
    fn witness_times_respect_the_bound() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let arrow = paper::arrow_t_to_c();
        let w = worst_case_witness(&mdp, &arrow, 10_000_000).unwrap();
        for s in &w.steps {
            assert!(f64::from(s.time) < arrow.time());
        }
        // The composed claim's worst n=3 start is the symmetric all-W←
        // (or its mirror) lockstep configuration.
        let all_w = w.start.procs().iter().all(|p| p.pc == crate::Pc::W);
        assert!(all_w, "worst start {}", w.start);
    }
}
