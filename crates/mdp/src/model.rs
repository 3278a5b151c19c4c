use crate::MdpError;

/// One nondeterministic choice available in a state: a transition cost
/// (0 or more time units) and a probability distribution over successor
/// state indices.
///
/// Costs let one MDP transition relation encode the round-based timed
/// semantics: intra-round scheduling steps cost 0, round boundaries cost 1,
/// and "time ≤ t" becomes "total cost ≤ t".
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Time cost incurred by taking this choice.
    pub cost: u32,
    /// `(successor index, probability)` pairs.
    pub transitions: Vec<(usize, f64)>,
}

impl Choice {
    /// A deterministic choice to one successor.
    pub fn to(cost: u32, successor: usize) -> Choice {
        Choice {
            cost,
            transitions: vec![(successor, 1.0)],
        }
    }

    /// A probabilistic choice.
    pub fn dist(cost: u32, transitions: Vec<(usize, f64)>) -> Choice {
        Choice { cost, transitions }
    }
}

/// An explicit-state Markov decision process with costed transitions.
///
/// States are dense indices `0..num_states()`. Each state carries a list of
/// [`Choice`]s; a state with no choices is absorbing for every analysis
/// (reachability value 0 unless it is a target, expected cost 0 once
/// reached — see the individual algorithms).
///
/// Construct with [`ExplicitMdp::new`], which validates every distribution.
/// This nested form is for hand-built models and the nested-model
/// oracles of [`crate::reference`]: exploration of an implicit
/// [`pa_core::Automaton`] ([`crate::Explore`]) writes a [`crate::CsrMdp`]
/// directly. A [`crate::Query`] takes the flattened form,
/// `CsrMdp::from(&explicit)`.
#[derive(Debug, Clone)]
pub struct ExplicitMdp {
    choices: Vec<Vec<Choice>>,
    initial: Vec<usize>,
}

impl ExplicitMdp {
    /// Creates a model from per-state choice lists and initial states.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadDistribution`] if any choice has an empty
    /// support, a negative weight, or weights not summing to one;
    /// [`MdpError::BadStateIndex`] if any transition or initial state is out
    /// of range; [`MdpError::NoInitialStates`] if `initial` is empty.
    pub fn new(choices: Vec<Vec<Choice>>, initial: Vec<usize>) -> Result<ExplicitMdp, MdpError> {
        let n = choices.len();
        if initial.is_empty() {
            return Err(MdpError::NoInitialStates);
        }
        for &i in &initial {
            if i >= n {
                return Err(MdpError::BadStateIndex {
                    index: i,
                    num_states: n,
                });
            }
        }
        for (s, cs) in choices.iter().enumerate() {
            for c in cs {
                if c.transitions.is_empty() {
                    return Err(MdpError::BadDistribution {
                        state: s,
                        reason: "empty support".into(),
                    });
                }
                let mut sum = 0.0;
                for &(t, p) in &c.transitions {
                    if t >= n {
                        return Err(MdpError::BadStateIndex {
                            index: t,
                            num_states: n,
                        });
                    }
                    if !p.is_finite() || p < 0.0 {
                        return Err(MdpError::BadDistribution {
                            state: s,
                            reason: format!("weight {p}"),
                        });
                    }
                    sum += p;
                }
                if (sum - 1.0).abs() > 1e-6 {
                    return Err(MdpError::BadDistribution {
                        state: s,
                        reason: format!("weights sum to {sum}"),
                    });
                }
            }
        }
        Ok(ExplicitMdp { choices, initial })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.choices.len()
    }

    /// Total number of choices across all states.
    pub fn num_choices(&self) -> usize {
        self.choices.iter().map(Vec::len).sum()
    }

    /// Total number of probabilistic transitions.
    pub fn num_transitions(&self) -> usize {
        self.choices
            .iter()
            .flat_map(|cs| cs.iter())
            .map(|c| c.transitions.len())
            .sum()
    }

    /// The choices of a state.
    pub fn choices(&self, state: usize) -> &[Choice] {
        &self.choices[state]
    }

    /// The initial state indices.
    pub fn initial_states(&self) -> &[usize] {
        &self.initial
    }

    /// Validates that a target vector matches the state count.
    pub(crate) fn check_target(&self, target: &[bool]) -> Result<(), MdpError> {
        if target.len() != self.num_states() {
            return Err(MdpError::TargetLengthMismatch {
                got: target.len(),
                expected: self.num_states(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-state chain with a probabilistic middle step.
    pub(crate) fn chain() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![
                vec![Choice::dist(1, vec![(1, 0.5), (2, 0.5)])],
                vec![Choice::to(1, 2)],
                vec![],
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn counts_are_consistent() {
        let m = chain();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.num_choices(), 2);
        assert_eq!(m.num_transitions(), 3);
        assert_eq!(m.initial_states(), [0]);
    }

    #[test]
    fn rejects_empty_initial() {
        assert!(matches!(
            ExplicitMdp::new(vec![vec![]], vec![]),
            Err(MdpError::NoInitialStates)
        ));
    }

    #[test]
    fn rejects_out_of_range_targets() {
        let r = ExplicitMdp::new(vec![vec![Choice::to(0, 5)]], vec![0]);
        assert!(matches!(r, Err(MdpError::BadStateIndex { .. })));
    }

    #[test]
    fn rejects_unnormalized_distribution() {
        let r = ExplicitMdp::new(vec![vec![Choice::dist(0, vec![(0, 0.4)])], vec![]], vec![0]);
        assert!(matches!(r, Err(MdpError::BadDistribution { .. })));
    }

    #[test]
    fn rejects_negative_weight() {
        let r = ExplicitMdp::new(
            vec![vec![Choice::dist(0, vec![(0, -0.5), (0, 1.5)])]],
            vec![0],
        );
        assert!(matches!(r, Err(MdpError::BadDistribution { .. })));
    }

    #[test]
    fn rejects_empty_support() {
        let r = ExplicitMdp::new(vec![vec![Choice::dist(0, vec![])]], vec![0]);
        assert!(matches!(r, Err(MdpError::BadDistribution { .. })));
    }

    #[test]
    fn check_target_validates_length() {
        let m = chain();
        assert!(m.check_target(&[false, false, true]).is_ok());
        assert!(m.check_target(&[false]).is_err());
    }
}
