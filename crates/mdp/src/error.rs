use std::error::Error;
use std::fmt;

/// Error type for MDP construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// State-space exploration exceeded the configured limit.
    StateLimitExceeded {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A state index was out of range for the model.
    BadStateIndex {
        /// The offending index.
        index: usize,
        /// Number of states in the model.
        num_states: usize,
    },
    /// A transition distribution was invalid (weights not summing to one,
    /// negative weight, or empty support).
    BadDistribution {
        /// The state whose choice is malformed.
        state: usize,
        /// Description of the defect.
        reason: String,
    },
    /// An analysis requires the target vector to have one entry per state.
    TargetLengthMismatch {
        /// Length of the supplied target vector.
        got: usize,
        /// Number of states in the model.
        expected: usize,
    },
    /// Expected-cost analysis was asked for a state from which the target
    /// is not reached almost surely under every adversary, so the worst-case
    /// expectation diverges.
    DivergentExpectation {
        /// The offending state index.
        state: usize,
    },
    /// A value was read at a state the analysis did not solve: one
    /// outside the cone of a [`crate::Query::cone`] query.
    Unsolved {
        /// The unsolved state index.
        state: usize,
    },
    /// The model has no initial states.
    NoInitialStates,
    /// A [`crate::Query`] was built with an unsupported combination of
    /// settings (for example a time horizon on an expected-cost objective).
    InvalidQuery {
        /// What was wrong with the query.
        reason: String,
    },
    /// A model backend failed while streaming rows (an out-of-core store
    /// hitting an I/O error or a corrupt block, a row sink failing to
    /// persist a state's choices).
    Backend {
        /// Description of the backend failure.
        reason: String,
    },
    /// A [`crate::Query`] failed while running; `stage` names the analysis
    /// phase and `source` carries the underlying error (also exposed via
    /// [`std::error::Error::source`]).
    Query {
        /// The query stage that failed (e.g. `"target"`, `"solve"`).
        stage: &'static str,
        /// The underlying error.
        source: Box<MdpError>,
    },
}

impl MdpError {
    /// Unwraps [`MdpError::Query`] wrappers down to the root cause, for
    /// callers that want to match the concrete variant (e.g.
    /// [`MdpError::BadDistribution`]) rather than the query stage.
    pub fn into_root(self) -> MdpError {
        match self {
            MdpError::Query { source, .. } => source.into_root(),
            other => other,
        }
    }
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::StateLimitExceeded { limit } => {
                write!(f, "state-space exploration exceeded limit of {limit} states")
            }
            MdpError::BadStateIndex { index, num_states } => {
                write!(f, "state index {index} out of range (model has {num_states})")
            }
            MdpError::BadDistribution { state, reason } => {
                write!(f, "invalid distribution at state {state}: {reason}")
            }
            MdpError::TargetLengthMismatch { got, expected } => {
                write!(f, "target vector has length {got}, expected {expected}")
            }
            MdpError::DivergentExpectation { state } => write!(
                f,
                "worst-case expected cost diverges from state {state} (target not reached almost surely)"
            ),
            MdpError::Unsolved { state } => {
                write!(f, "state {state} lies outside the solved cone")
            }
            MdpError::NoInitialStates => write!(f, "model has no initial states"),
            MdpError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            MdpError::Backend { reason } => write!(f, "model backend failed: {reason}"),
            MdpError::Query { stage, source } => {
                write!(f, "query failed during {stage}: {source}")
            }
        }
    }
}

impl Error for MdpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MdpError::Query { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let variants = [
            MdpError::StateLimitExceeded { limit: 10 },
            MdpError::BadStateIndex {
                index: 5,
                num_states: 3,
            },
            MdpError::BadDistribution {
                state: 0,
                reason: "sums to 0.5".into(),
            },
            MdpError::TargetLengthMismatch {
                got: 2,
                expected: 3,
            },
            MdpError::DivergentExpectation { state: 7 },
            MdpError::Unsolved { state: 4 },
            MdpError::NoInitialStates,
            MdpError::InvalidQuery {
                reason: "horizon on a cost objective".into(),
            },
            MdpError::Backend {
                reason: "block 3: I/O error".into(),
            },
            MdpError::Query {
                stage: "solve",
                source: Box::new(MdpError::NoInitialStates),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn query_error_exposes_source_chain_and_root() {
        let root = MdpError::TargetLengthMismatch {
            got: 2,
            expected: 3,
        };
        let wrapped = MdpError::Query {
            stage: "target",
            source: Box::new(MdpError::Query {
                stage: "solve",
                source: Box::new(root.clone()),
            }),
        };
        // std::error::Error::source walks one level at a time...
        let level1 = wrapped.source().expect("outer source");
        assert!(level1.source().is_some(), "inner Query keeps its source");
        // ...and into_root unwraps the whole chain.
        assert_eq!(wrapped.into_root(), root);
    }
}
