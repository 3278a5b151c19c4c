//! Deterministic fault injection for the timebounds workspace: which of
//! the paper's claims survive crashes?
//!
//! Lynch–Saias–Segala prove `U —t→_p U'` statements assuming every ready
//! process steps within one time unit (`Unit-Time`) and nobody fails. This
//! crate weakens that assumption three ways and re-runs the exact checker
//! under each:
//!
//! * [`FaultKind::CrashStop`] — a process halts forever, keeping its
//!   forks;
//! * [`FaultKind::CrashRestart`] — a process halts and resumes after a
//!   configurable downtime (in round/patient-time units);
//! * [`FaultKind::DropObligation`] — the scheduler skips a process's
//!   `Unit-Time` obligation for one round (a transient envelope
//!   violation).
//!
//! Faults are expressed as a scripted [`FaultPlan`] or compiled from a
//! rate-based, seeded [`FaultModel`]; both are fully deterministic, so
//! every analysis is replayable bit for bit. The plan is lowered into the
//! ordinary MDP pipeline by [`FaultyRoundMdp`] (crashed processes lose
//! their choices; dead states become tagged absorbing self-loops — see
//! [`FaultyRoundMdp::crash_tags`] and [`pa_mdp::tagged_absorbing_violations`]),
//! and onto the fragment-level checker by [`faulty_adversary`] (the core
//! [`pa_core::FaultFilter`] driven by the plan and the patient clock).
//!
//! The headline artifact is the claim [`survival_map`]: every paper arrow
//! re-evaluated under a grid of fault configurations and classified as
//! [`Survival::Holds`], [`Survival::Degraded`], or [`Survival::Fails`] —
//! with the zero-fault column bitwise equal to the fault-free
//! [`pa_lehmann_rabin::check_arrow`] results (wrapping in
//! [`FaultPlan::none`] is a strict identity).
//!
//! # Example
//!
//! ```no_run
//! use pa_faults::{survival_map, Survival};
//!
//! # fn main() -> Result<(), pa_faults::FaultError> {
//! let map = survival_map(3, 5_000_000)?;
//! for row in &map.rows {
//!     let no_fault = &row.cells[0];
//!     assert_eq!(no_fault.survival, Survival::Holds);
//!     println!("{}: {:?}", row.arrow, row.cells.last().unwrap().survival);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod error;
mod model;
mod packed;
mod plan;
mod round;
mod sampling;
mod survival;

pub use adversary::{faulty_adversary, round_of_time};
pub use error::FaultError;
pub use model::FaultModel;
/// The fault-aware region resolvers, which live beside the fault-free
/// ones in `pa-lehmann-rabin`.
pub use pa_lehmann_rabin::{region_pred_under, set_pred_under};
pub use packed::{max_packed_round, FaultyStateCodec};
pub use plan::{FaultEvent, FaultKind, FaultPlan, MAX_DOWNTIME};
pub use round::{
    faulty_round_cost, FaultChecker, FaultyRoundMdp, FaultyRoundState, STOPPED, TAG_CRASH,
};
pub use sampling::{
    estimate_reach_uniform, estimate_reach_uniform_from, exact_reach_uniform, sampled_arrow_under,
    trying_start, uniform_chain_states, SampledArrow,
};
pub use survival::{
    check_arrow_under, check_arrow_under_quotient, classify, default_grid, start_crash_mask,
    survival_map, survival_map_hybrid, survival_map_hybrid_with_grid, survival_map_with_grid,
    HybridSurvivalMap, HybridSurvivalRow, SampledSurvivalCell, Survival, SurvivalCell, SurvivalMap,
    SurvivalRow, DEFAULT_STATE_LIMIT,
};
