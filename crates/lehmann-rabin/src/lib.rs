//! The Lehmann–Rabin randomized Dining Philosophers algorithm — the case
//! study of Sections 5–6 and the appendix of Lynch–Saias–Segala
//! (PODC 1994).
//!
//! The crate provides, layer by layer:
//!
//! * [`Pc`], [`Side`], [`ProcState`], [`Config`] — the state space of
//!   Section 6.1 (with dead `uᵢ` values canonicalized).
//! * [`LrProtocol`] — Figure 1's transition semantics as a probabilistic
//!   automaton under free interleaving.
//! * [`regions`] — the classifiers `T`, `C`, `RT`, `F`, `G`, `P`, the
//!   *good process* notion, and the one-byte region summary of a state.
//! * [`lemma_6_1_invariant`] / [`verify_lemma_6_1`] — the resource
//!   invariant, checked exhaustively.
//! * [`RoundMdp`] — the round-based realization of the `Unit-Time`
//!   adversary schema, analysable with `pa-mdp`.
//! * [`paper`] — the five arrow axioms, the composed `T —13→_{1/8} C`
//!   derivation, and the 60/63 expected-time bounds.
//! * [`check_arrow`] / [`max_expected_time`] — exact verification of those
//!   claims against *all* round adversaries, through the one
//!   [`ArrowChecker`] that every arrow and expected-time question in the
//!   workspace runs on. The bounded arrow checks explore the round model
//!   with its commuting intra-round interleavings reduced ([`Reduced`]);
//!   the expected-time functions explore it unreduced. They all read the
//!   reachable configurations from a memo on the [`RoundMdp`] value, so
//!   checking many claims on one model enumerates them once.
//! * [`check_arrow_quotient`] / [`RoundStateCodec`] — the same checks on
//!   the dihedral-quotient model (rotations and the mirror image,
//!   [`Config::reflected`]) with bit-packed states: up to `2n`-fold fewer
//!   states. `states_checked` then counts dihedral orbits of the source
//!   region. [`reachable_configs_quotient`] and the `pa-faults` quotient
//!   stay on the rotation quotient; [`Quotient`] names the choice.
//! * [`sims`] — concrete schedulers (round-robin, random, adaptive
//!   anti-progress) and the round simulator whose trajectories
//!   `pa-mc`'s batch driver samples.
//! * [`lemmas`] — the appendix lemmas A.4–A.10 verified on conditioned
//!   (forced-first-flip) models, plus the Section 7 future-work lower
//!   bound on progress time.
//! * [`worst_case_witness`] — replay of the extracted optimal adversary
//!   as a concrete, inspectable schedule.
//! * [`concurrent`] — a real multi-threaded implementation with
//!   `std::sync::Mutex` try-locks and timestamped [`events`] logs, matching
//!   Figure 1's atomic semantics.
//!
//! # Example
//!
//! ```no_run
//! use pa_lehmann_rabin::{check_arrow, paper, RoundConfig, RoundMdp};
//!
//! # fn main() -> Result<(), pa_lehmann_rabin::LrError> {
//! let mdp = RoundMdp::new(RoundConfig::new(3)?);
//! let report = check_arrow(&mdp, &paper::arrow_g_to_p())?;
//! assert!(report.holds());
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrows;
pub mod checker;
pub mod concurrent;
mod error;
pub mod events;
mod invariant;
pub mod lemmas;
mod packed;
mod pc;
mod protocol;
mod reduce;
pub mod regions;
mod round;
pub mod sims;
mod state;
mod witness;

pub use arrows::{
    check_arrow, check_arrow_quotient, check_arrow_with_limit, max_expected_time,
    max_expected_time_quotient, min_expected_time, min_expected_time_quotient, paper,
    reachable_configs, reachable_configs_in, reachable_configs_quotient, region_pred,
    region_pred_under, set_pred, set_pred_under, DEFAULT_STATE_LIMIT,
};
pub use checker::{
    explore_checker, ArrowChecker, ArrowSolve, CheckedState, Quotient, RoundAutomaton,
};
pub use error::LrError;
pub use invariant::{adjacent_exclusion, lemma_6_1_invariant, verify_lemma_6_1};
pub use packed::{ConfigCodec, RoundStateCodec};
pub use pc::{Pc, ProcState, Side};
pub use protocol::{LrAction, LrProtocol, UserModel};
pub use reduce::Reduced;
pub use round::{round_cost, time_to_budget, RoundAction, RoundConfig, RoundMdp, RoundState};
pub use state::Config;
pub(crate) use state::MAX_RING;
pub use witness::{worst_case_witness, Witness, WitnessStep};
