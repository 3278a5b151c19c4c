use std::error::Error;
use std::fmt;

use pa_core::CoreError;
use pa_mdp::MdpError;

/// Error type for the Lehmann–Rabin case study.
#[derive(Debug, Clone, PartialEq)]
pub enum LrError {
    /// The ring size is unsupported (must be between 2 and 16).
    BadRingSize {
        /// The requested size.
        n: usize,
    },
    /// An arrow referred to a region atom the resolver does not know.
    UnknownRegion(String),
    /// A burst cap of zero was requested (every ready process must be able
    /// to take at least one step per round).
    ZeroBurst,
    /// A burst cap above 15 was requested: each process's remaining
    /// per-round budget is stored in a 4-bit nibble.
    BurstTooLarge {
        /// The requested burst cap.
        burst: u8,
    },
    /// An underlying model-checking error.
    Mdp(MdpError),
    /// An underlying framework error.
    Core(CoreError),
    /// The concurrent implementation failed (a worker thread panicked or a
    /// channel closed unexpectedly).
    Concurrency(String),
}

impl fmt::Display for LrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LrError::BadRingSize { n } => {
                write!(f, "ring size {n} unsupported (need 2 ≤ n ≤ 16)")
            }
            LrError::UnknownRegion(name) => write!(f, "unknown region atom {name}"),
            LrError::ZeroBurst => write!(f, "burst cap must be at least 1"),
            LrError::BurstTooLarge { burst } => write!(
                f,
                "burst cap {burst} unsupported (per-round budgets are 4-bit nibbles, so burst ≤ 15)"
            ),
            LrError::Mdp(e) => write!(f, "{e}"),
            LrError::Core(e) => write!(f, "{e}"),
            LrError::Concurrency(msg) => write!(f, "concurrent run failed: {msg}"),
        }
    }
}

impl Error for LrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LrError::Mdp(e) => Some(e),
            LrError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MdpError> for LrError {
    fn from(e: MdpError) -> LrError {
        LrError::Mdp(e)
    }
}

impl From<CoreError> for LrError {
    fn from(e: CoreError) -> LrError {
        LrError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let variants = [
            LrError::BadRingSize { n: 1 },
            LrError::UnknownRegion("X".into()),
            LrError::ZeroBurst,
            LrError::BurstTooLarge { burst: 16 },
            LrError::Mdp(MdpError::NoInitialStates),
            LrError::Core(CoreError::FragmentMismatch),
            LrError::Concurrency("oops".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        assert!(LrError::Mdp(MdpError::NoInitialStates).source().is_some());
        assert!(LrError::ZeroBurst.source().is_none());
    }
}
