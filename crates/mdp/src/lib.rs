//! Explicit-state MDP model-checking substrate for the `timebounds`
//! workspace.
//!
//! The paper proves statements of the form `U —t→_p U'` by hand; this crate
//! verifies them mechanically, PRISM-style, by quantifying over *all*
//! adversaries of a schema at once:
//!
//! * [`Explore`] — build a [`CsrMdp`] from any implicit
//!   [`pa_core::Automaton`], assigning each transition a time cost
//!   (0 = scheduling step inside a time unit, 1 = time-unit boundary).
//!   Rows go straight from the automaton's step visitor
//!   ([`pa_core::Automaton::for_each_step`]) into the CSR arrays or any
//!   other [`RowSink`]; no nested model is built. The builder selects an
//!   optional [`Symmetry`] (quotient construction, e.g.
//!   [`RingRotation`]) and the state representation ([`BoxedSpace`] or
//!   bit-packed [`PackedSpace`]).
//! * [`Query`] — the single analysis entry point: a builder unifying
//!   objective ([`QueryObjective`]: bounded/unbounded reachability per
//!   Definition 3.1, worst/best-case expected time per Section 6.2),
//!   target (mask, index list, or predicate), optional time horizon,
//!   solver, tolerance and policy extraction behind a
//!   single [`Query::run`] returning a typed [`Analysis`].
//! * [`check_invariant`] — exhaustive invariant checking with shortest
//!   witness paths (Lemma 6.1).
//! * [`tag_choices`] — annotate explored choices (e.g. fault-injected
//!   crash self-loops) so absorbing structure can be audited before
//!   solving ([`tagged_absorbing_violations`]).
//!
//! The pre-`Query` free functions (`cost_bounded_reach`, `reach_prob`,
//! `max_expected_cost`, `cost_bounded_reach_with_policy`) were removed
//! after their deprecation cycle; every analysis now goes through
//! [`Query`].
//!
//! All quantitative analyses read a model through one row view,
//! [`CsrRows`], handed out block by block by a [`CsrSource`]: an in-core
//! [`CsrMdp`] (`CsrMdp::from` flattens a hand-built [`ExplicitMdp`]) is a
//! single block, a stored model one or many. The default schedule is
//! double-buffered Jacobi value iteration, with results that are
//! bit-for-bit identical for every block structure. On a single-block source,
//! [`Solver::SccOrdered`] condenses the choice graph into strongly
//! connected components first ([`SccDecomposition`]) and solves them in
//! reverse topological order with the same per-state updates — far fewer
//! state updates on the layered round models this workspace targets (see
//! the `query` module docs for selection guidance). Every engine runs on
//! the calling thread; parallelism lives one level up, in callers that
//! answer independent questions side by side. The [`mod@reference`] module retains nested-model oracles — both a Jacobi
//! twin (bitwise comparison) and the original Gauss–Seidel engine
//! (tolerance comparison, benchmark baseline) — used by the property
//! tests.
//!
//! # Example
//!
//! ```
//! use pa_core::TableAutomaton;
//! use pa_mdp::{Explore, QueryObjective};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A process that wins a coin flip once per time unit.
//! let m = TableAutomaton::builder()
//!     .start("try")
//!     .step("try", "flip", [("won", 0.5), ("try", 0.5)])?
//!     .build()?;
//! let e = Explore::new(&m).limit(10_000).run()?;
//! let analysis = e
//!     .query_where(|s| *s == "won")
//!     .objective(QueryObjective::MinProb)
//!     .horizon(3)
//!     .run()?;
//! let start = e.mdp.initial_states()[0];
//! assert!((analysis.values[start] - 0.875).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod explore;
pub mod fxhash;
mod horizon;
mod model;
pub mod query;
pub mod reference;
mod scc;
pub mod source;
pub mod space;
pub mod symmetry;
mod tag;
mod value_iter;

pub use csr::{CsrBuilder, CsrMdp, CsrRow, ToCsr};
pub use error::MdpError;
pub use explore::{
    check_invariant, Explore, Explored, InvariantResult, RowSink, StateRows, StreamSummary,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use horizon::{cost_bounded_reach_levels, BoundedPolicy, Objective};
pub use model::{Choice, ExplicitMdp};
pub use query::{
    default_solver, set_default_solver, Analysis, IntoTarget, Query, QueryObjective, Solver,
};
pub use scc::SccDecomposition;
pub use source::{csr_digest, CsrRows, CsrSource, SolveStats};
pub use space::{BoxedSpace, PackedSpace, StateCodec, StateSpace};
pub use symmetry::{
    least_key, least_lane_image, least_lane_rotation, reflect_lanes, rotate_lanes, MirrorRingState,
    RingDihedral, RingRotation, RingState, Symmetry,
};
pub use tag::{tag_choices, tagged_absorbing_violations, ChoiceTags, TAG_NONE};
pub use value_iter::{prob0_max, prob0_min, prob1, IterOptions};
