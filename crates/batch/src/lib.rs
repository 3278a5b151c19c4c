//! Deterministic concurrent batch driver for the `timebounds` analyses.
//!
//! The paper's claims — the five `U —t→_p U'` arrows, the composed
//! `T —13→_{1/8} C` chain, the expected-time bounds, Lemma 6.1, the
//! appendix lemmas — are each one *query* against a model determined by a
//! ring size and a fault plan. Run serially (as `pa-bench`'s E1–E15
//! originally did), every analysis re-explores its model from scratch and
//! every run accumulates into the same global telemetry registry. This
//! crate makes "model × query × fault plan" a first-class job:
//!
//! * [`JobSpec`] / [`JobKind`] — one analysis with every knob that changes
//!   its answer, identified by a stable string [`JobSpec::key`].
//! * [`run_batch`] — schedules jobs over a bounded worker pool
//!   ([`BatchOptions::workers`]) with cooperative per-job timeouts and
//!   batch cancellation, aggregating into a [`BatchReport`].
//! * [`ModelCache`] — explored fault-wrapped round models keyed by
//!   `(ring, plan)`, built once and shared by every job that queries them
//!   as the [`pa_lehmann_rabin::ArrowChecker`] every arrow and
//!   expected-time job asks (soundness argument on
//!   [`pa_lehmann_rabin::checker`]).
//! * Per-job [`pa_telemetry::TelemetryScope`]s — no cross-job bleed, no
//!   global resets.
//!
//! # Determinism contract
//!
//! [`BatchReport::canonical_json`] (and its [`BatchReport::digest`]) are
//! bitwise identical for every worker count, including `workers = 1`:
//! jobs are keyed and sorted, engines run single-threaded inside jobs
//! (parallelism comes from running *jobs* concurrently), the cache builds
//! each key exactly once, and everything scheduling-dependent is kept out
//! of the canonical serialization. `tests/determinism.rs` pins the
//! contract; `tables --batch` (pa-bench) exposes it on the command line,
//! and `pa-bench`'s `pinned_invariants` test pins the `n = 3` suite's
//! tallies and digest at one and four workers.
//!
//! # Example
//!
//! ```
//! use pa_batch::{run_batch, BatchOptions, JobKind, JobSpec};
//!
//! let specs: Vec<JobSpec> = (0..2)
//!     .map(|index| JobSpec::new(3, JobKind::Arrow { index }))
//!     .collect();
//! let report = run_batch(&specs, &BatchOptions::with_workers(2)).unwrap();
//! assert_eq!(report.tally().done, 2);
//! assert!(report.cache.model_hits > 0, "second arrow reused the model");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod driver;
mod report;
mod select;
mod spec;

pub use cache::{CacheSession, ModelCache};
pub use driver::{run_batch, run_batch_in, BatchError, JobCtx};
pub use report::{BatchReport, CacheStats, Tally};
pub use select::{estimated_ring_states, select_kind};
pub use spec::{
    BatchOptions, CustomFn, JobKind, JobResult, JobSpec, JobStatus, JobValue, McSettings,
};
