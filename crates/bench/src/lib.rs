//! Experiment harness for the `timebounds` workspace.
//!
//! The paper is a theory paper: its "evaluation" is the set of proved
//! quantitative propositions. This crate regenerates each of them
//! mechanically — see the experiment index in `DESIGN.md` (E1–E18). The
//! [`experiments`] module computes the rows; the `tables` binary prints
//! them (and is what produced `EXPERIMENTS.md`). The sampled-tier
//! ([`mc_suite`]) and out-of-core ([`store_suite`]) probes check their own
//! pinned digests and exit nonzero on drift. End-to-end performance is
//! measured by the separate `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_suite;
pub mod experiments;
pub mod mc_suite;
pub mod store_suite;
mod table;

pub use pa_serve::json;

pub use table::{render_table, Row, Verdict};
