use std::error::Error;
use std::fmt;
use std::io;

use pa_mdp::MdpError;

/// Error type for the on-disk store: creation, spilling, opening, and
/// block paging.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure, with the store-side operation that
    /// hit it.
    Io {
        /// What the store was doing (e.g. `"write block 3"`).
        op: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The file ends before a structure it promises (header, footer,
    /// trailer, or a block's payload).
    Truncated {
        /// Which structure was cut short.
        what: String,
    },
    /// The file does not start with a `pa-store/csr` magic (`PACSR…`), or the
    /// footer trailer magic is wrong.
    BadMagic,
    /// The file declares a format version this reader does not speak, or a
    /// layout this build cannot map (e.g. a big-endian host).
    Unsupported {
        /// Why the file cannot be read here.
        reason: String,
    },
    /// A block's payload does not hash to the digest recorded at write
    /// time — disk corruption or a concurrent overwrite.
    DigestMismatch {
        /// The block whose payload is corrupt.
        block: usize,
        /// The digest recorded in the footer.
        expected: u64,
        /// The digest of the bytes actually on disk.
        got: u64,
    },
    /// A block's declared geometry (state/choice/transition counts and
    /// payload length) is internally inconsistent, or a paged-in CSR
    /// block's rows break the invariants the solvers index by (offsets
    /// that decrease, a target out of range, a choice that is not a
    /// distribution).
    BadBlock {
        /// The offending block.
        block: usize,
        /// What is inconsistent.
        reason: String,
    },
    /// An exploration or analysis error from the MDP layer.
    Mdp(MdpError),
}

impl StoreError {
    pub(crate) fn io(op: impl Into<String>) -> impl FnOnce(io::Error) -> StoreError {
        let op = op.into();
        move |source| StoreError::Io { op, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "I/O error while trying to {op}: {source}"),
            StoreError::Truncated { what } => {
                write!(f, "store file truncated: {what} extends past end of file")
            }
            StoreError::BadMagic => write!(f, "not a pa-store/csr/v2 file (bad magic)"),
            StoreError::Unsupported { reason } => write!(f, "unsupported store file: {reason}"),
            StoreError::DigestMismatch {
                block,
                expected,
                got,
            } => write!(
                f,
                "block {block} payload digest mismatch: footer records {expected:016x}, \
                 disk bytes hash to {got:016x}"
            ),
            StoreError::BadBlock { block, reason } => {
                write!(f, "block {block} metadata inconsistent: {reason}")
            }
            StoreError::Mdp(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Mdp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MdpError> for StoreError {
    fn from(e: MdpError) -> StoreError {
        StoreError::Mdp(e)
    }
}

impl From<StoreError> for MdpError {
    /// Lowers a store failure into the MDP layer's backend variant, so the
    /// block-streamed engines surface paging errors through the normal
    /// [`MdpError`] channel. An already-wrapped [`StoreError::Mdp`] passes
    /// through unchanged.
    fn from(e: StoreError) -> MdpError {
        match e {
            StoreError::Mdp(inner) => inner,
            other => MdpError::Backend {
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_named() {
        let variants = [
            StoreError::Io {
                op: "write block 3".into(),
                source: io::Error::other("disk full"),
            },
            StoreError::Truncated {
                what: "footer".into(),
            },
            StoreError::BadMagic,
            StoreError::Unsupported {
                reason: "version 9".into(),
            },
            StoreError::DigestMismatch {
                block: 2,
                expected: 1,
                got: 2,
            },
            StoreError::BadBlock {
                block: 0,
                reason: "payload length".into(),
            },
            StoreError::Mdp(MdpError::NoInitialStates),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn lowering_to_mdp_error_unwraps_mdp_and_wraps_the_rest() {
        let roundtrip: MdpError = StoreError::Mdp(MdpError::NoInitialStates).into();
        assert_eq!(roundtrip, MdpError::NoInitialStates);
        let backend: MdpError = StoreError::BadMagic.into();
        match backend {
            MdpError::Backend { reason } => assert!(reason.contains("magic")),
            other => panic!("expected Backend, got {other:?}"),
        }
    }
}
