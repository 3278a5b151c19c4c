//! Out-of-core state spaces for the `timebounds` workspace: spill explored
//! CSR blocks to an append-only `pa-store/csr/v2` file, page them back on
//! demand through a byte-budgeted mmap block cache, and run the
//! block-streamed solvers so peak memory is bounded by the cache budget —
//! with results bitwise identical to the in-core pipeline.
//!
//! The crate is the disk side of the [`pa_mdp::CsrSource`] seam:
//!
//! * [`SpillTo::spill_to`] — builder option on [`pa_mdp::Explore`]: the
//!   serial BFS streams each closed state row into a [`StoreWriter`],
//!   which flushes page-aligned, FNV-digested blocks; packed state keys
//!   follow as their own blocks. Peak exploration memory is the state
//!   space, the frontier, and one pending block.
//! * [`StoredCsr`] / [`StoredModel`] — the reopened file behind a
//!   [`BlockCache`] (LRU, pin counts, byte budget mirroring `pa-batch`'s
//!   `ModelCache::with_budget` semantics). [`pa_mdp::Query::source`] runs
//!   bounded/unbounded reachability and expected-time analyses block by
//!   block; any budget down to a single resident block terminates with
//!   bitwise-identical values (pinned by this crate's parity tests and the
//!   bench `store` block).
//! * [`stats`] — process-wide residency/fault/eviction totals, surfaced as
//!   `mdp.store.*` telemetry and in `pa-serve`'s `stats` responses.
//!
//! DESIGN §15 documents the format, the block lifecycle, and the soundness
//! argument that the streamed solvers converge to the in-core fixpoint.
//!
//! # Example
//!
//! ```
//! use pa_core::TableAutomaton;
//! use pa_mdp::QueryObjective;
//! use pa_store::SpillTo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = TableAutomaton::builder()
//!     .start("try")
//!     .step("try", "flip", [("won", 0.5), ("try", 0.5)])?
//!     .build()?;
//! let dir = std::env::temp_dir().join(format!("pa-store-doc-{}", std::process::id()));
//! let stored = pa_mdp::Explore::new(&m)
//!     .limit(10_000)
//!     .spill_to(&dir, 1 << 20)
//!     .run()?;
//! let analysis = stored
//!     .query_where(|s| *s == "won")
//!     .objective(QueryObjective::MinProb)
//!     .horizon(3)
//!     .run()?;
//! let start = stored.store().file().initial()[0];
//! assert!((analysis.values[start] - 0.875).abs() < 1e-12);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
mod error;
mod format;
mod mmap;
mod spill;
mod stored;

pub use cache::{stats, BlockCache, StoreStats};
pub use error::StoreError;
pub use format::{
    fnv1a_64, BlockKind, BlockMeta, MappedBlock, StoreFile, StoreWriter, BLOCK_ALIGN,
    DEFAULT_BLOCK_BYTES, FOOTER_MAGIC, HEADER_MAGIC, VERSION,
};
pub use spill::{KeySource, KeyWord, SpillTo, Spilling};
pub use stored::{StoredCsr, StoredModel};
