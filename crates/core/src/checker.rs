use std::fmt;

use pa_prob::ProbInterval;

use crate::Arrow;

/// Absolute slack under which a measured worst-case probability still
/// meets a claimed lower bound: room for `f64` round-off, nothing more.
pub const CLAIM_SLACK: f64 = 1e-12;

/// The one verdict rule for a probability claim: `true` when `measured`
/// is at least `claimed` up to [`CLAIM_SLACK`].
///
/// [`ArrowCheck::holds`], the fault survival map, and the batch driver's
/// arrow and reachability jobs all decide through this function, so a
/// worst case just below a claim gets the same verdict everywhere.
pub fn meets_claim(measured: f64, claimed: f64) -> bool {
    measured >= claimed - CLAIM_SLACK
}

/// The result of checking an [`Arrow`] claim against a model.
///
/// Produced by the exact checker in `pa-lehmann-rabin` (backed by the
/// `pa-mdp` backward-induction engine) and by the Monte-Carlo estimator in
/// `pa-sim`. The `measured` bracket is the *minimal* probability over all
/// adversaries of the schema of reaching the target within the time bound,
/// minimized over all start states in the source set; the claim holds when
/// the whole bracket sits at or above the claimed probability.
#[derive(Debug, Clone)]
pub struct ArrowCheck {
    /// The claim that was checked.
    pub arrow: Arrow,
    /// The measured worst-case probability (bracket).
    pub measured: ProbInterval,
    /// Rendering of the start state achieving the measured minimum, when
    /// the checker identifies one.
    pub worst_state: Option<String>,
    /// Number of start states quantified over.
    pub states_checked: usize,
}

impl ArrowCheck {
    /// `true` when the measured bracket's lower end meets the claimed
    /// bound ([`meets_claim`]).
    pub fn holds(&self) -> bool {
        meets_claim(self.measured.lo().value(), self.arrow.prob().value())
    }

    /// Slack between the measured lower endpoint and the claimed bound
    /// (positive when the model beats the paper's bound).
    pub fn slack(&self) -> f64 {
        self.measured.lo().value() - self.arrow.prob().value()
    }
}

impl fmt::Display for ArrowCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: measured {} over {} start states → {}",
            self.arrow,
            self.measured,
            self.states_checked,
            if self.holds() { "HOLDS" } else { "VIOLATED" }
        )?;
        if let Some(w) = &self.worst_state {
            write!(f, " (worst start: {w})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetExpr;
    use pa_prob::Prob;

    fn check(measured_lo: f64, claimed: f64) -> ArrowCheck {
        ArrowCheck {
            arrow: Arrow::new(
                SetExpr::named("G"),
                SetExpr::named("P"),
                5.0,
                Prob::new(claimed).unwrap(),
            )
            .unwrap(),
            measured: ProbInterval::exact(Prob::new(measured_lo).unwrap()),
            worst_state: Some("⟨W← F W→⟩".into()),
            states_checked: 100,
        }
    }

    #[test]
    fn holds_iff_bracket_clears_claim() {
        assert!(check(0.30, 0.25).holds());
        assert!(check(0.25, 0.25).holds());
        assert!(!check(0.20, 0.25).holds());
    }

    #[test]
    fn holds_allows_round_off_only() {
        assert!(check(0.25 - CLAIM_SLACK / 2.0, 0.25).holds());
        assert!(!check(0.25 - 1e-10, 0.25).holds());
    }

    #[test]
    fn slack_is_signed() {
        assert!(check(0.30, 0.25).slack() > 0.0);
        assert!(check(0.20, 0.25).slack() < 0.0);
    }

    #[test]
    fn display_mentions_verdict_and_worst_state() {
        let s = check(0.30, 0.25).to_string();
        assert!(s.contains("HOLDS"));
        assert!(s.contains("worst start"));
        let s = check(0.10, 0.25).to_string();
        assert!(s.contains("VIOLATED"));
    }
}
