//! Seeded deterministic Monte-Carlo estimation tier for the `timebounds`
//! workspace — the scalability escape hatch when exact value iteration
//! cannot hold the model.
//!
//! The exact `pa-mdp` checker answers `U —t→_p U'` queries by exploring
//! the full reachable state space; on the Lehmann–Rabin ring that wall is
//! around `n = 7` (2.16M states). This crate estimates the same
//! quantities by sampling trajectories of the *implicit* model instead:
//!
//! * [`estimate_reach`] runs a batch of trajectories of any
//!   [`pa_core::Automaton`] under a pluggable [`SamplePolicy`] (the
//!   embedded adversary), accumulating first-hit times against a cost
//!   budget into an [`McEstimate`].
//! * Determinism contract: trajectory `i` always runs on the private
//!   stream `SplitMix64::for_trial(seed, i)`, and the accumulator is
//!   integer-only (a first-hit-time histogram), so the result is bitwise
//!   identical for every worker count.
//! * Cross-validation: [`OptimalReplay`] replays the cost-indexed optimal
//!   policy extracted by [`pa_mdp::Query::with_policy`] on the implicit
//!   model (choice order is preserved by [`pa_mdp::Explored`]), so on
//!   small instances the sampled estimand *equals* the exact query value
//!   and the Wilson interval must contain it.
//! * [`UniformChain`] wraps an automaton so that the uniform-random
//!   policy becomes the model's only adversary; exact queries over the
//!   wrapped chain cross-validate [`UniformPolicy`] estimates.
//!
//! Estimates carry Wilson intervals for probabilities
//! ([`McEstimate::interval`]) and CLT intervals for conditional hitting
//! times ([`McEstimate::mean_time_ci`]), both from `pa-prob`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod config;
mod engine;
mod error;
mod estimate;
mod policy;

pub use chain::{chain_target, ChainAction, ChainState, UniformChain};
pub use config::McConfig;
pub use engine::estimate_reach;
pub use error::McError;
pub use estimate::McEstimate;
pub use policy::{FirstPolicy, OptimalReplay, SamplePolicy, UniformPolicy};
