//! Error type of the fault subsystem.

use pa_lehmann_rabin::LrError;

/// Errors raised when building or analysing fault configurations.
#[derive(Debug)]
pub enum FaultError {
    /// A crash-restart downtime outside the encodable range `1..=14`.
    BadDowntime {
        /// The offending downtime.
        downtime: u32,
    },
    /// Two fault events target the same process in the same round.
    DuplicateEvent {
        /// The round of the collision.
        round: u32,
        /// The process targeted twice.
        process: usize,
    },
    /// A fault event scheduled for round 0 (rounds are 1-based).
    ZeroRound,
    /// A fault rate outside `[0, 1]`.
    BadRate {
        /// The name of the offending rate field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault event targets a process outside the ring.
    ProcessOutOfRange {
        /// The offending process index.
        process: usize,
        /// The ring size.
        n: usize,
    },
    /// A rotation-quotient analysis was requested under a nonempty fault
    /// plan. Fault events name specific processes, which breaks the ring's
    /// rotation symmetry — the quotient is only sound for the zero-fault
    /// column.
    SymmetryBroken,
    /// A survival map was asked for over a fault grid with no columns; the
    /// hybrid map needs at least its zero-fault column.
    EmptyGrid,
    /// A fault plan's round cap does not fit the round field of the
    /// bit-packed state encoding, whose width shrinks with the ring
    /// ([`crate::max_packed_round`]; only rings of 12 or more can miss).
    RoundCapUnencodable {
        /// The offending cap (one past the last scripted round).
        cap: u32,
        /// The ring size.
        n: usize,
    },
    /// An error from the underlying protocol / round model.
    Lr(LrError),
    /// An error from the MDP engine.
    Mdp(pa_mdp::MdpError),
    /// An error from the sampled estimation tier.
    Mc(pa_mc::McError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadDowntime { downtime } => {
                write!(f, "crash-restart downtime {downtime} outside 1..=14")
            }
            FaultError::DuplicateEvent { round, process } => {
                write!(f, "two fault events for process {process} in round {round}")
            }
            FaultError::ZeroRound => write!(f, "fault events are 1-based; round 0 is invalid"),
            FaultError::BadRate { field, value } => {
                write!(f, "fault rate {field} = {value} outside [0, 1]")
            }
            FaultError::ProcessOutOfRange { process, n } => {
                write!(f, "fault event targets process {process} of a ring of {n}")
            }
            FaultError::SymmetryBroken => write!(
                f,
                "rotation-quotient analysis requires an empty fault plan \
                 (fault events name processes, breaking ring symmetry)"
            ),
            FaultError::EmptyGrid => write!(
                f,
                "the fault grid is empty; it needs at least the zero-fault column"
            ),
            FaultError::RoundCapUnencodable { cap, n } => write!(
                f,
                "round cap {cap} exceeds the packable bound {} of a ring of {n}",
                crate::max_packed_round(*n)
            ),
            FaultError::Lr(e) => write!(f, "protocol error: {e}"),
            FaultError::Mdp(e) => write!(f, "mdp error: {e}"),
            FaultError::Mc(e) => write!(f, "monte-carlo error: {e}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Lr(e) => Some(e),
            FaultError::Mdp(e) => Some(e),
            FaultError::Mc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LrError> for FaultError {
    fn from(e: LrError) -> FaultError {
        FaultError::Lr(e)
    }
}

impl From<pa_mdp::MdpError> for FaultError {
    fn from(e: pa_mdp::MdpError) -> FaultError {
        FaultError::Mdp(e)
    }
}

impl From<pa_mc::McError> for FaultError {
    fn from(e: pa_mc::McError) -> FaultError {
        FaultError::Mc(e)
    }
}
