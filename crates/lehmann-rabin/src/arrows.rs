//! The paper's arrow claims as data, the region resolvers, the
//! reachable-configuration enumerations, and the exact checks of each
//! claim against *all* adversaries of the round model (thin calls into
//! [`crate::ArrowChecker`]).

use pa_core::{Arrow, ArrowCheck, Derivation, SetExpr};
use pa_mdp::{
    BoxedSpace, CsrRow, Explore, Explored, MdpError, PackedSpace, QueryObjective, RowSink,
};
use pa_prob::Prob;

use crate::checker::{explore_checker, ArrowChecker, Quotient};
use crate::packed::RoundStateCodec;
use crate::{regions, Config, LrError, RoundMdp, RoundState};

/// Default cap on explored round states.
pub const DEFAULT_STATE_LIMIT: usize = 20_000_000;

/// The paper's five arrow axioms and their composition (Section 6.2).
pub mod paper {
    use super::*;

    /// `P —1→_1 C` (Proposition A.1).
    pub fn arrow_p_to_c() -> Arrow {
        Arrow::new(SetExpr::named("P"), SetExpr::named("C"), 1.0, Prob::ONE)
            .expect("static arrow is valid")
    }

    /// `T —2→_1 RT ∪ C` (Proposition A.3).
    pub fn arrow_t_to_rtc() -> Arrow {
        Arrow::new(
            SetExpr::named("T"),
            SetExpr::union_of(["RT", "C"]),
            2.0,
            Prob::ONE,
        )
        .expect("static arrow is valid")
    }

    /// `RT —3→_1 F ∪ G ∪ P` (Proposition A.15).
    pub fn arrow_rt_to_fgp() -> Arrow {
        Arrow::new(
            SetExpr::named("RT"),
            SetExpr::union_of(["F", "G", "P"]),
            3.0,
            Prob::ONE,
        )
        .expect("static arrow is valid")
    }

    /// `F —2→_{1/2} G ∪ P` (Proposition A.14).
    pub fn arrow_f_to_gp() -> Arrow {
        Arrow::new(
            SetExpr::named("F"),
            SetExpr::union_of(["G", "P"]),
            2.0,
            Prob::HALF,
        )
        .expect("static arrow is valid")
    }

    /// `G —5→_{1/4} P` (Proposition A.11).
    pub fn arrow_g_to_p() -> Arrow {
        Arrow::new(
            SetExpr::named("G"),
            SetExpr::named("P"),
            5.0,
            Prob::ratio(1, 4).expect("1/4 is a probability"),
        )
        .expect("static arrow is valid")
    }

    /// All five axioms with their paper justification, in chain order.
    pub fn all_arrows() -> Vec<(Arrow, &'static str)> {
        vec![
            (arrow_t_to_rtc(), "Proposition A.3"),
            (arrow_rt_to_fgp(), "Proposition A.15"),
            (arrow_f_to_gp(), "Proposition A.14"),
            (arrow_g_to_p(), "Proposition A.11"),
            (arrow_p_to_c(), "Proposition A.1"),
        ]
    }

    /// The full Section 6.2 derivation of `T —13→_{1/8} C` from the five
    /// axioms via Proposition 3.2 and Theorem 3.4.
    pub fn composed_derivation() -> Derivation {
        let c = SetExpr::named("C");
        Derivation::axiom(arrow_t_to_rtc(), "Proposition A.3")
            .compose(Derivation::axiom(arrow_rt_to_fgp(), "Proposition A.15").weaken(c.clone()))
            .compose(
                Derivation::axiom(arrow_f_to_gp(), "Proposition A.14")
                    .weaken(SetExpr::union_of(["G", "P", "C"])),
            )
            .compose(
                Derivation::axiom(arrow_g_to_p(), "Proposition A.11")
                    .weaken(SetExpr::union_of(["P", "C"])),
            )
            .compose(Derivation::axiom(arrow_p_to_c(), "Proposition A.1").weaken(c))
    }

    /// The composed claim `T —13→_{1/8} C`.
    pub fn arrow_t_to_c() -> Arrow {
        composed_derivation()
            .conclusion()
            .expect("the paper's derivation is valid")
    }

    /// The Section 6.2 recurrence bound on the expected time from `RT` to
    /// `P`: 60 time units.
    pub fn expected_time_rt_to_p() -> f64 {
        pa_core::solve_expected_time(&[
            pa_core::Branch::done(Prob::ratio(1, 8).expect("1/8"), 10.0),
            pa_core::Branch::retry(Prob::HALF, 5.0),
            pa_core::Branch::retry(Prob::ratio(3, 8).expect("3/8"), 10.0),
        ])
        .expect("the paper's recurrence is well-formed")
    }

    /// The paper's overall expected-time bound from `T` to `C`:
    /// 2 (T→RT) + 60 (RT→P) + 1 (P→C) = 63 time units.
    pub fn expected_time_t_to_c() -> f64 {
        2.0 + expected_time_rt_to_p() + 1.0
    }
}

/// Resolves a region atom name (`T`, `C`, `RT`, `F`, `G`, `P`) to its
/// configuration predicate.
///
/// # Errors
///
/// Returns [`LrError::UnknownRegion`] for any other name.
pub fn region_pred(atom: &str) -> Result<fn(&Config) -> bool, LrError> {
    match atom {
        "T" => Ok(regions::in_t),
        "C" => Ok(regions::in_c),
        "RT" => Ok(regions::in_rt),
        "F" => Ok(regions::in_f),
        "G" => Ok(regions::in_g),
        "P" => Ok(regions::in_p),
        other => Err(LrError::UnknownRegion(other.to_string())),
    }
}

/// Resolves a [`SetExpr`] (union of region atoms) to a predicate.
///
/// # Errors
///
/// Returns [`LrError::UnknownRegion`] if any atom is unknown.
pub fn set_pred(set: &SetExpr) -> Result<impl Fn(&Config) -> bool + Send + Sync, LrError> {
    let preds: Vec<fn(&Config) -> bool> = set.atoms().map(region_pred).collect::<Result<_, _>>()?;
    Ok(move |c: &Config| preds.iter().any(|p| p(c)))
}

/// Resolves a region atom to its fault-aware predicate over a
/// configuration and the crash mask in force (the `_under` family of
/// [`regions`], which requires progress witnesses to be live). Under the
/// mask 0 each agrees with [`region_pred`]'s.
///
/// # Errors
///
/// [`LrError::UnknownRegion`] for unknown atoms.
pub fn region_pred_under(atom: &str) -> Result<fn(&Config, u32) -> bool, LrError> {
    match atom {
        "T" => Ok(regions::in_t_under),
        "C" => Ok(regions::in_c_under),
        "RT" => Ok(regions::in_rt_under),
        "F" => Ok(regions::in_f_under),
        "G" => Ok(regions::in_g_under),
        "P" => Ok(regions::in_p_under),
        other => Err(LrError::UnknownRegion(other.to_string())),
    }
}

/// Resolves a [`SetExpr`] to a fault-aware union predicate.
///
/// # Errors
///
/// Same as [`region_pred_under`].
pub fn set_pred_under(
    set: &SetExpr,
) -> Result<impl Fn(&Config, u32) -> bool + Send + Sync + 'static, LrError> {
    let preds: Vec<fn(&Config, u32) -> bool> = set
        .atoms()
        .map(region_pred_under)
        .collect::<Result<_, _>>()?;
    Ok(move |c: &Config, crashed: u32| preds.iter().any(|p| p(c, crashed)))
}

/// Enumerates `rstates(M)`: every configuration reachable from the all-idle
/// start under the full user model and free interleaving. These are the
/// states the paper's arrow statements quantify over.
///
/// # Errors
///
/// Propagates ring-size validation and state-limit errors.
pub fn reachable_configs(n: usize, limit: usize) -> Result<Vec<Config>, LrError> {
    reachable_configs_in(n, limit, Quotient::Full)
}

/// The rotation quotient of [`reachable_configs`]: one representative (the
/// lexicographically least rotation) per rotation orbit of reachable
/// configurations, up to `n`-fold fewer states. Region membership and
/// analysis values are rotation-invariant, so quantifying over
/// representatives is equivalent to quantifying over `rstates(M)` (see
/// DESIGN §13). This stays a rotation enumeration: the `pa-faults`
/// quotient, the stored models and their pinned digests are built from
/// it. [`check_arrow_quotient`] enumerates the dihedral quotient instead.
///
/// # Errors
///
/// Propagates ring-size validation and state-limit errors.
pub fn reachable_configs_quotient(n: usize, limit: usize) -> Result<Vec<Config>, LrError> {
    reachable_configs_in(n, limit, Quotient::Rotation)
}

/// The reachable configurations under `quotient`: all of them
/// ([`reachable_configs`]), or one representative per rotation or
/// dihedral orbit, in exploration order.
///
/// # Errors
///
/// Propagates ring-size validation and state-limit errors.
pub fn reachable_configs_in(
    n: usize,
    limit: usize,
    quotient: Quotient,
) -> Result<Vec<Config>, LrError> {
    let protocol = crate::LrProtocol::new(n, crate::UserModel::full())?;
    let explore = Explore::new(&protocol).limit(limit);
    let (space, _) = quotient
        .install(explore, n)
        .run_streamed(BoxedSpace::default(), &mut DiscardRows)?;
    Ok(space.into_states())
}

/// A row sink that keeps nothing: the reachable-configuration
/// enumerations need the explored states, never the model.
struct DiscardRows;

impl RowSink for DiscardRows {
    fn state_row(&mut self, _id: usize, _row: CsrRow<'_>) -> Result<(), MdpError> {
        Ok(())
    }
}

/// The explored arrow model of one `from → to` question on the round
/// model: the automaton (the witness replays its steps) and the checker
/// over its bit-packed states.
pub(crate) type ArrowModel = (
    RoundMdp,
    ArrowChecker<RoundState, Explored<RoundState, PackedSpace<RoundStateCodec>>>,
);

/// Explores the model every arrow analysis of the round model runs on
/// ([`crate::explore_checker`]): each reachable configuration of `from`
/// (each orbit representative under a quotient) as a fresh round start,
/// `to` absorbing. Returns `None` when `from` has no reachable
/// configuration.
///
/// States are always packed ([`RoundStateCodec`]): the packed store
/// explores the same model, with the same ids, as the boxed one at half
/// the bytes per state.
pub(crate) fn arrow_model(
    mdp: &RoundMdp,
    from: &SetExpr,
    to: &SetExpr,
    limit: usize,
    quotient: Quotient,
) -> Result<Option<ArrowModel>, LrError> {
    let n = mdp.config().n;
    let configs = reachable_configs_in(n, limit, quotient)?;
    let space = PackedSpace::new(RoundStateCodec::new(n)?);
    explore_checker(
        mdp.clone(),
        &configs,
        Some((from, to)),
        limit,
        quotient,
        space,
    )
}

/// Exactly checks an arrow claim `U —t→_p U'` on the round model: for every
/// reachable configuration in `U`, the minimal probability over all round
/// adversaries of reaching `U'` within time `t` must be at least `p`.
///
/// The check explores the round MDP from all `U`-configurations at once
/// (each wrapped as a fresh round start, states bit-packed by
/// [`RoundStateCodec`]), makes `U'` absorbing (sound for first-hitting),
/// and runs cost-bounded backward induction.
///
/// # Errors
///
/// Returns [`LrError::UnknownRegion`] for unresolvable set atoms and
/// propagates exploration/analysis errors.
pub fn check_arrow(mdp: &RoundMdp, arrow: &Arrow) -> Result<ArrowCheck, LrError> {
    check_arrow_with_limit(mdp, arrow, DEFAULT_STATE_LIMIT)
}

/// [`check_arrow`] with an explicit state limit.
///
/// # Errors
///
/// See [`check_arrow`].
pub fn check_arrow_with_limit(
    mdp: &RoundMdp,
    arrow: &Arrow,
    limit: usize,
) -> Result<ArrowCheck, LrError> {
    check_arrow_impl(mdp, arrow, limit, Quotient::Full)
}

/// [`check_arrow_with_limit`] on the dihedral-quotient round model
/// ([`pa_mdp::RingDihedral`]: rotations and the mirror image). Starts are
/// the dihedral orbit representatives of `U ∩ rstates(M)`, so
/// `states_checked` counts *dihedral orbits*, not configurations, and
/// `worst_state` is a representative; successors are canonicalized during
/// exploration. Both the arrow regions and the round cost are invariant
/// under rotation and reflection, so the verdict and the measured
/// probability equal the full-space check's. The quotient-equivalence
/// tests pin them bitwise against the full space and the rotation
/// quotient on `n = 3..5`.
///
/// # Errors
///
/// See [`check_arrow`].
pub fn check_arrow_quotient(
    mdp: &RoundMdp,
    arrow: &Arrow,
    limit: usize,
) -> Result<ArrowCheck, LrError> {
    check_arrow_impl(mdp, arrow, limit, Quotient::Dihedral)
}

fn check_arrow_impl(
    mdp: &RoundMdp,
    arrow: &Arrow,
    limit: usize,
    quotient: Quotient,
) -> Result<ArrowCheck, LrError> {
    match arrow_model(mdp, arrow.from(), arrow.to(), limit, quotient)? {
        Some((_, checker)) => checker.arrow(arrow, |q| q),
        None => Ok(ArrowCheck::vacuous(arrow)),
    }
}

/// Computes the exact worst-case expected time (in time units) to reach
/// `target_set` from the worst configuration of `from_set`, on the round
/// model. Round counting measures whole time units, so the reported value
/// upper-bounds the continuous expected time by construction of the model
/// (`expected rounds + 1` covers the partial final round).
///
/// # Errors
///
/// Returns region/exploration errors, and
/// [`pa_mdp::MdpError::DivergentExpectation`] (wrapped) if some adversary
/// can avoid the target from a start state.
pub fn max_expected_time(
    mdp: &RoundMdp,
    from_set: &SetExpr,
    target_set: &SetExpr,
    limit: usize,
) -> Result<f64, LrError> {
    expected_time_impl(
        mdp,
        from_set,
        target_set,
        limit,
        QueryObjective::MaxCost,
        Quotient::Full,
    )
}

/// [`max_expected_time`] on the dihedral-quotient round model
/// (orbit-representative starts, as in [`check_arrow_quotient`]). Pinned
/// equal to the full-space value within `1e-7` on `n = 3..5` by the
/// quotient-equivalence tests.
///
/// # Errors
///
/// Same as [`max_expected_time`].
pub fn max_expected_time_quotient(
    mdp: &RoundMdp,
    from_set: &SetExpr,
    target_set: &SetExpr,
    limit: usize,
) -> Result<f64, LrError> {
    expected_time_impl(
        mdp,
        from_set,
        target_set,
        limit,
        QueryObjective::MaxCost,
        Quotient::Dihedral,
    )
}

/// The best-case counterpart of [`max_expected_time`]: the expected time
/// under the most cooperative scheduler, from the *worst* configuration of
/// `from_set` (so the pair brackets the achievable range). The round
/// model's zero-cost subgraph is acyclic (budgets strictly decrease), so
/// the minimizing analysis is well defined.
///
/// # Errors
///
/// Same as [`max_expected_time`].
pub fn min_expected_time(
    mdp: &RoundMdp,
    from_set: &SetExpr,
    target_set: &SetExpr,
    limit: usize,
) -> Result<f64, LrError> {
    expected_time_impl(
        mdp,
        from_set,
        target_set,
        limit,
        QueryObjective::MinCost,
        Quotient::Full,
    )
}

/// [`min_expected_time`] on the dihedral-quotient round model.
///
/// # Errors
///
/// Same as [`max_expected_time`].
pub fn min_expected_time_quotient(
    mdp: &RoundMdp,
    from_set: &SetExpr,
    target_set: &SetExpr,
    limit: usize,
) -> Result<f64, LrError> {
    expected_time_impl(
        mdp,
        from_set,
        target_set,
        limit,
        QueryObjective::MinCost,
        Quotient::Dihedral,
    )
}

fn expected_time_impl(
    mdp: &RoundMdp,
    from_set: &SetExpr,
    target_set: &SetExpr,
    limit: usize,
    objective: QueryObjective,
    quotient: Quotient,
) -> Result<f64, LrError> {
    match arrow_model(mdp, from_set, target_set, limit, quotient)? {
        Some((_, checker)) => checker.expected_time(from_set, target_set, objective, |q| q),
        None => Ok(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundConfig;

    #[test]
    fn paper_arrows_have_the_published_parameters() {
        let arrows = paper::all_arrows();
        assert_eq!(arrows.len(), 5);
        let total_time: f64 = arrows.iter().map(|(a, _)| a.time()).sum();
        assert_eq!(total_time, 13.0);
        let product: f64 = arrows.iter().map(|(a, _)| a.prob().value()).product();
        assert_eq!(product, 0.125);
    }

    #[test]
    fn composed_arrow_is_t_13_eighth_c() {
        let a = paper::arrow_t_to_c();
        assert_eq!(a.to_string(), "T —13→_0.125 C");
    }

    #[test]
    fn derivation_renders_with_all_axioms() {
        let text = paper::composed_derivation().render().unwrap();
        for name in ["A.3", "A.15", "A.14", "A.11", "A.1"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn expected_time_constants_match_the_paper() {
        assert!((paper::expected_time_rt_to_p() - 60.0).abs() < 1e-9);
        assert!((paper::expected_time_t_to_c() - 63.0).abs() < 1e-9);
    }

    #[test]
    fn region_resolvers_know_all_atoms() {
        for atom in ["T", "C", "RT", "F", "G", "P"] {
            assert!(region_pred(atom).is_ok());
            assert!(region_pred_under(atom).is_ok());
        }
        assert!(matches!(region_pred("X"), Err(LrError::UnknownRegion(_))));
        assert!(matches!(
            region_pred_under("X"),
            Err(LrError::UnknownRegion(_))
        ));
    }

    #[test]
    fn set_pred_unions_atoms() {
        let set = SetExpr::union_of(["C", "P"]);
        let pred = set_pred(&set).unwrap();
        let c = Config::initial(3)
            .unwrap()
            .with_proc(0, crate::ProcState::new(crate::Pc::P, crate::Side::Left));
        assert!(pred(&c));
        assert!(!pred(&Config::initial(3).unwrap()));
    }

    #[test]
    fn reachable_configs_cover_all_regions() {
        let configs = reachable_configs(3, 1_000_000).unwrap();
        assert!(configs.len() > 100);
        for atom in ["T", "C", "RT", "F", "G", "P"] {
            let pred = region_pred(atom).unwrap();
            assert!(
                configs.iter().any(pred),
                "no reachable config in region {atom}"
            );
        }
        // Every reachable config satisfies Lemma 6.1.
        assert!(configs.iter().all(crate::lemma_6_1_invariant));
    }

    #[test]
    fn expected_time_brackets_order() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let lo =
            min_expected_time(&mdp, &SetExpr::named("T"), &SetExpr::named("C"), 5_000_000).unwrap();
        let hi =
            max_expected_time(&mdp, &SetExpr::named("T"), &SetExpr::named("C"), 5_000_000).unwrap();
        assert!(lo <= hi, "best case {lo} must not exceed worst case {hi}");
        assert!(lo >= 4.0, "a meal takes flip, wait, second, crit");
        assert!(hi <= 63.0);
    }

    #[test]
    fn quotient_reachable_configs_are_canonical_representatives() {
        use pa_mdp::Symmetry;
        let full = reachable_configs(4, 1_000_000).unwrap();
        let quot = reachable_configs_quotient(4, 1_000_000).unwrap();
        assert!(quot.len() < full.len(), "{} !< {}", quot.len(), full.len());
        let rot = pa_mdp::RingRotation::new(4);
        assert!(quot.iter().all(|c| rot.canon(c) == *c));
        // Every reachable configuration's orbit has exactly one
        // representative among the quotient states.
        let set: std::collections::HashSet<_> = quot.iter().cloned().collect();
        assert_eq!(set.len(), quot.len());
        assert!(full.iter().all(|c| set.contains(&rot.canon(c))));
    }

    #[test]
    fn quotient_check_matches_full_space_bitwise_at_n3() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        for arrow in [paper::arrow_f_to_gp(), paper::arrow_p_to_c()] {
            let full = check_arrow(&mdp, &arrow).unwrap();
            let quot = check_arrow_quotient(&mdp, &arrow, DEFAULT_STATE_LIMIT).unwrap();
            // Bounded-horizon induction over the quotient visits the same
            // per-orbit values in the same outcome order: bitwise equal.
            assert_eq!(full.measured.lo(), quot.measured.lo(), "{arrow}");
            assert_eq!(full.holds(), quot.holds());
            assert!(quot.states_checked > 0);
            assert!(quot.states_checked <= full.states_checked);
        }
    }

    #[test]
    fn quotient_expected_time_agrees_at_n3() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let t = SetExpr::named("T");
        let c = SetExpr::named("C");
        let full = max_expected_time(&mdp, &t, &c, 5_000_000).unwrap();
        let quot = max_expected_time_quotient(&mdp, &t, &c, 5_000_000).unwrap();
        assert!((full - quot).abs() < 1e-7, "full {full} vs quotient {quot}");
    }

    #[test]
    fn check_p_to_c_holds_exactly() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let report = check_arrow(&mdp, &paper::arrow_p_to_c()).unwrap();
        assert!(report.holds(), "{report}");
        // P →(1) C is deterministic: probability exactly 1.
        assert_eq!(report.measured.lo(), Prob::ONE);
        assert!(report.states_checked > 0);
    }

    #[test]
    fn check_f_to_gp_holds_for_n3() {
        let mdp = RoundMdp::new(RoundConfig::new(3).unwrap());
        let report = check_arrow(&mdp, &paper::arrow_f_to_gp()).unwrap();
        assert!(report.holds(), "{report}");
        assert!(report.slack() >= 0.0);
    }

    #[test]
    fn unknown_source_region_is_an_error() {
        let mdp = RoundMdp::new(RoundConfig::new(2).unwrap());
        let bad = Arrow::new(
            SetExpr::named("NOSUCH"),
            SetExpr::named("C"),
            1.0,
            Prob::ONE,
        )
        .unwrap();
        assert!(matches!(
            check_arrow(&mdp, &bad),
            Err(LrError::UnknownRegion(_))
        ));
    }
}
