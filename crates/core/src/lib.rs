//! The probabilistic-automaton framework and time-bound proof method of
//! **Lynch, Saias & Segala, "Proving Time Bounds for Randomized Distributed
//! Algorithms" (PODC 1994)**.
//!
//! The crate mirrors the paper's structure:
//!
//! | Paper | Here |
//! |---|---|
//! | Def 2.1 probabilistic automata | [`Automaton`], [`Step`], [`TableAutomaton`] |
//! | executions & fragments | [`Fragment`] |
//! | Def 2.2 adversaries | [`Adversary`] and implementations |
//! | Defs 2.3/2.4 execution automata `H(M,A,α)` | [`ExecTree`] |
//! | cone measure over maximal executions | [`ExecTree::cone_prob`] |
//! | Def 2.5 event schemas | [`EventSchema`], [`Eventually`], combinators |
//! | Def 2.6 adversary schemas, Def 3.3 execution closure | [`schema`] |
//! | patient (timed) construction | [`Patient`], [`TimedState`], [`Timed`] |
//! | Def 3.1 statements `U —t→_p U'` and `e_{U',t}` | [`Arrow`], [`ReachWithin`] |
//! | Prop 3.2 (weakening) | [`Arrow::weaken`] |
//! | Thm 3.4 (composability) | [`Arrow::then`], audited by [`Derivation`] |
//! | Section 4 `first`/`next`, Prop 4.2 | [`First`], [`Next`], [`check_first_intersection`], [`check_next_bound`] |
//! | Section 6.2 expected-time recurrence | [`solve_expected_time`], [`Branch`] |
//!
//! # Example: the paper's composability chain
//!
//! ```
//! use pa_core::{Arrow, Derivation, SetExpr};
//! use pa_prob::Prob;
//!
//! # fn main() -> Result<(), pa_core::CoreError> {
//! let g_to_p = Arrow::new(SetExpr::named("G"), SetExpr::named("P"), 5.0,
//!                         Prob::ratio(1, 4)?)?;
//! let p_to_c = Arrow::new(SetExpr::named("P"), SetExpr::named("C"), 1.0,
//!                         Prob::ONE)?;
//! let proof = Derivation::axiom(g_to_p, "Prop A.11")
//!     .compose(Derivation::axiom(p_to_c, "Prop A.1"));
//! let arrow = proof.conclusion()?;
//! assert_eq!(arrow.to_string(), "G —6→_0.25 C");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod arrow;
mod automaton;
mod checker;
mod derivation;
mod error;
mod event;
mod exec_tree;
mod execution;
mod first_next;
mod measure;
mod recurrence;
pub mod schema;
mod timed;

pub use adversary::{
    validated_choice, Adversary, FaultFilter, FirstEnabled, FnAdversary, Halt, IndexAdversary,
};
pub use arrow::{Arrow, SetExpr};
pub use automaton::{
    collect_steps, map_outcomes, Automaton, Step, TableAutomaton, TableAutomatonBuilder,
};
pub use checker::{meets_claim, ArrowCheck, CLAIM_SLACK};
pub use derivation::Derivation;
pub use error::CoreError;
pub use event::{AllOf, AnyOf, Complement, EventSchema, Eventually, Outcome};
pub use exec_tree::{ExecTree, NodeId, NodeKind};
pub use execution::Fragment;
pub use first_next::{
    check_first_intersection, check_next_bound, min_step_prob, ActionBound, First,
    IndependenceCheck, Next,
};
pub use measure::{rectangle_partition_mass, Rectangle};
pub use recurrence::{geometric_bound, solve_expected_time, Branch};
pub use timed::{
    check_unit_time_envelope, EnvelopeVerdict, Patient, ReachWithin, Timed, TimedAction, TimedState,
};
