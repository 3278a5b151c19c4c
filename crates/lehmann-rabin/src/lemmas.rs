//! Mechanical verification of the appendix lemmas (A.4–A.10).
//!
//! Each appendix lemma has the shape: *assume a local state pattern around
//! an anchor process `i`; condition on the outcomes of specific processes'
//! first coin flips (the `first(flip_j, side)` events of Section 4); then
//! within time `t` a local goal holds (with certainty).*
//!
//! Conditioning on `first(flip_j, side)` is implemented by *forcing*: the
//! first `flip_j` scheduled in the model deterministically yields `side`.
//! Executions where `flip_j` never occurs belong to the event by
//! definition, and on the others forcing reproduces exactly the
//! conditional behaviour, so "the lemma holds" becomes "minimal
//! probability 1 of reaching the goal within `t` in the forced model" —
//! checkable by the same backward induction as the arrows.
//!
//! Also here: [`progress_time_lower_bound`], the paper's first suggested
//! future-work item (Section 7) — the largest time for which some
//! adversary can still surely prevent progress.

use pa_core::{collect_steps, map_outcomes, Automaton, Step};
use pa_mdp::{Explore, Objective, Query};

use crate::arrows::arrow_model;
use crate::{
    reachable_configs, round_cost, time_to_budget, Config, LrAction, LrError, Pc, Quotient,
    RoundAction, RoundMdp, RoundState, Side,
};

/// A conditioned round model: the first `flip_j` of each listed process is
/// forced to the given side (the sub-model induced by the event
/// `∩_j first(flip_j, side_j)`).
#[derive(Debug, Clone)]
pub struct ForcedRoundMdp {
    inner: RoundMdp,
    forced: Vec<(usize, Side)>,
}

/// State of the forced model: the round state plus the set of forcings not
/// yet consumed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForcedState {
    /// The underlying round state.
    pub round: RoundState,
    /// Bitmask of processes whose first flip is still forced.
    pub pending: u32,
}

impl ForcedRoundMdp {
    /// Wraps a round model with first-flip forcings.
    pub fn new(inner: RoundMdp, forced: Vec<(usize, Side)>) -> ForcedRoundMdp {
        ForcedRoundMdp { inner, forced }
    }

    fn initial_pending(&self) -> u32 {
        self.forced.iter().fold(0, |m, (i, _)| m | (1 << i))
    }

    fn forced_side(&self, process: usize) -> Side {
        self.forced
            .iter()
            .find(|(i, _)| *i == process)
            .map(|(_, s)| *s)
            .expect("pending bit implies a forcing entry")
    }
}

impl Automaton for ForcedRoundMdp {
    type State = ForcedState;
    type Action = RoundAction;

    fn start_states(&self) -> Vec<ForcedState> {
        let pending = self.initial_pending();
        self.inner
            .start_states()
            .into_iter()
            .map(|round| ForcedState { round, pending })
            .collect()
    }

    fn steps(&self, state: &ForcedState) -> Vec<Step<ForcedState, RoundAction>> {
        collect_steps(|f| self.for_each_step(state, f))
    }

    /// The round model's steps with the pending bits carried along; the
    /// first flip of a process still pending is forced to its side (one
    /// outcome of weight 1) and clears that process's bit.
    fn for_each_step<F>(&self, state: &ForcedState, mut f: F)
    where
        F: FnMut(&RoundAction, &[(ForcedState, f64)]),
    {
        self.inner
            .for_each_step(&state.round, |action, outcomes| match *action {
                RoundAction::Schedule(LrAction::Flip(p)) if state.pending & (1 << p) != 0 => {
                    let side = self.forced_side(p as usize);
                    let (outcome, _) = outcomes
                        .iter()
                        .find(|(rs, _)| rs.config.proc(p as usize).side == side)
                        .expect("flip offers both sides");
                    let forced = ForcedState {
                        round: outcome.clone(),
                        pending: state.pending & !(1 << p),
                    };
                    f(action, &[(forced, 1.0)]);
                }
                _ => map_outcomes(
                    outcomes,
                    |rs| ForcedState {
                        round: rs.clone(),
                        pending: state.pending,
                    },
                    |mapped| f(action, mapped),
                ),
            });
    }

    fn is_external(&self, action: &RoundAction) -> bool {
        self.inner.is_external(action)
    }
}

/// Local-state shorthand used by the lemma hypotheses: the paper's
/// `{E_R, R, F}` etc.
fn in_err_r_f(c: &Config, j: usize) -> bool {
    matches!(c.proc(j).pc, Pc::Er | Pc::R | Pc::F)
}

fn in_err_r_t(c: &Config, j: usize) -> bool {
    matches!(c.proc(j).pc, Pc::Er | Pc::R) || c.proc(j).pc.in_trying()
}

fn is(c: &Config, j: usize, pc: Pc, side: Option<Side>) -> bool {
    c.proc(j).matches(pc, side)
}

/// Whether process `j` is in `{E_R, R, F, #→}` (benign right-pointing
/// neighbour set of the `G` definition).
#[allow(dead_code)]
fn benign_right(c: &Config, j: usize) -> bool {
    in_err_r_f(c, j)
        || (matches!(c.proc(j).pc, Pc::W | Pc::S | Pc::D) && c.proc(j).side == Side::Right)
}

type HypFn = fn(&Config, usize) -> bool;
type ForcedFn = fn(usize, usize) -> Vec<(usize, Side)>;
type GoalFn = fn(&Config, usize) -> bool;

/// One appendix lemma as checkable data. The anchor index `i` ranges over
/// all ring positions; indices in hypothesis/goal are relative to it.
pub struct LemmaSpec {
    /// Paper name, e.g. "A.4(1)".
    pub name: &'static str,
    /// Time bound `t` of the lemma.
    pub time: f64,
    /// Hypothesis pattern at anchor `i`.
    pub hypothesis: HypFn,
    /// First-flip forcings as `(process, side)`, given `(i, n)`.
    pub forced: ForcedFn,
    /// Goal predicate at anchor `i` (must hold with certainty in time).
    pub goal: GoalFn,
}

impl std::fmt::Debug for LemmaSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LemmaSpec({}, t={})", self.name, self.time)
    }
}

fn prev(i: usize, n: usize) -> usize {
    (i + n - 1) % n
}

fn next(i: usize, n: usize) -> usize {
    (i + 1) % n
}

/// Goal of the A.4/A.5 family: `X_{i-1} = P` or `X_i = S`.
fn goal_a4(c: &Config, i: usize) -> bool {
    is(c, prev(i, c.n()), Pc::P, None) || is(c, i, Pc::S, None)
}

/// Goal of the A.7/A.8 family: `i` or `i+1` is in `P`.
fn goal_pair_p(c: &Config, i: usize) -> bool {
    is(c, i, Pc::P, None) || is(c, next(i, c.n()), Pc::P, None)
}

/// Goal of A.9: one of `i-1`, `i`, `i+1` is in `P`.
fn goal_triple_p(c: &Config, i: usize) -> bool {
    let n = c.n();
    is(c, prev(i, n), Pc::P, None) || is(c, i, Pc::P, None) || is(c, next(i, n), Pc::P, None)
}

/// Goal of A.10: one of `i`, `i+1`, `i+2` is in `P`.
fn goal_triple_p_fwd(c: &Config, i: usize) -> bool {
    let n = c.n();
    is(c, i, Pc::P, None) || is(c, next(i, n), Pc::P, None) || is(c, (i + 2) % n, Pc::P, None)
}

/// The checkable appendix lemmas. The symmetric mirror cases of A.7/A.8
/// are included explicitly where the paper states them.
pub fn appendix_lemmas() -> Vec<LemmaSpec> {
    vec![
        LemmaSpec {
            name: "A.4(1)",
            time: 1.0,
            hypothesis: |c, i| in_err_r_f(c, prev(i, c.n())) && is(c, i, Pc::W, Some(Side::Left)),
            forced: |i, n| vec![(prev(i, n), Side::Left)],
            goal: goal_a4,
        },
        LemmaSpec {
            name: "A.4(2)",
            time: 2.0,
            hypothesis: |c, i| {
                is(c, prev(i, c.n()), Pc::D, None) && is(c, i, Pc::W, Some(Side::Left))
            },
            forced: |i, n| vec![(prev(i, n), Side::Left)],
            goal: goal_a4,
        },
        LemmaSpec {
            name: "A.4(3)",
            time: 3.0,
            hypothesis: |c, i| {
                is(c, prev(i, c.n()), Pc::S, None) && is(c, i, Pc::W, Some(Side::Left))
            },
            forced: |i, n| vec![(prev(i, n), Side::Left)],
            goal: goal_a4,
        },
        LemmaSpec {
            name: "A.4(4)",
            time: 4.0,
            hypothesis: |c, i| {
                is(c, prev(i, c.n()), Pc::W, None) && is(c, i, Pc::W, Some(Side::Left))
            },
            forced: |i, n| vec![(prev(i, n), Side::Left)],
            goal: goal_a4,
        },
        LemmaSpec {
            name: "A.5",
            time: 4.0,
            hypothesis: |c, i| in_err_r_t(c, prev(i, c.n())) && is(c, i, Pc::W, Some(Side::Left)),
            forced: |i, n| vec![(prev(i, n), Side::Left)],
            goal: goal_a4,
        },
        LemmaSpec {
            name: "A.7a",
            time: 1.0,
            hypothesis: |c, i| {
                let n = c.n();
                is(c, i, Pc::S, Some(Side::Left))
                    && matches!(c.proc(next(i, n)).pc, Pc::W | Pc::S)
                    && c.proc(next(i, n)).side == Side::Right
            },
            forced: |_, _| vec![],
            goal: goal_pair_p,
        },
        LemmaSpec {
            name: "A.7b",
            time: 1.0,
            hypothesis: |c, i| {
                let n = c.n();
                matches!(c.proc(i).pc, Pc::W | Pc::S)
                    && c.proc(i).side == Side::Left
                    && is(c, next(i, n), Pc::S, Some(Side::Right))
            },
            forced: |_, _| vec![],
            goal: goal_pair_p,
        },
        LemmaSpec {
            name: "A.8a",
            time: 1.0,
            hypothesis: |c, i| {
                let n = c.n();
                let r = next(i, n);
                is(c, i, Pc::S, Some(Side::Left))
                    && (in_err_r_f(c, r) || is(c, r, Pc::D, Some(Side::Right)))
            },
            forced: |i, n| vec![(next(i, n), Side::Right)],
            goal: goal_pair_p,
        },
        LemmaSpec {
            // The paper writes the mirror hypothesis as `X_i ∈ {E_R,R,F,D}`;
            // by the symmetry with A.8a (and with Lemma A.6, which it
            // instantiates) the `D` must point left — a right-pointing `D`
            // holds the contested resource `Res_i` itself, and the checker
            // indeed refutes that reading (min P = 0).
            name: "A.8b",
            time: 1.0,
            hypothesis: |c, i| {
                let n = c.n();
                (in_err_r_f(c, i) || is(c, i, Pc::D, Some(Side::Left)))
                    && is(c, next(i, n), Pc::S, Some(Side::Right))
            },
            forced: |i, _| vec![(i, Side::Left)],
            goal: goal_pair_p,
        },
        LemmaSpec {
            name: "A.9",
            time: 5.0,
            hypothesis: |c, i| {
                let n = c.n();
                let l = prev(i, n);
                let r = next(i, n);
                in_err_r_t(c, l)
                    && is(c, i, Pc::W, Some(Side::Left))
                    && (in_err_r_f(c, r)
                        || is(c, r, Pc::W, Some(Side::Right))
                        || is(c, r, Pc::D, Some(Side::Right)))
            },
            forced: |i, n| vec![(prev(i, n), Side::Left), (next(i, n), Side::Right)],
            goal: goal_triple_p,
        },
        LemmaSpec {
            name: "A.10",
            time: 5.0,
            hypothesis: |c, i| {
                let n = c.n();
                let r = next(i, n);
                let rr = (i + 2) % n;
                (in_err_r_f(c, i)
                    || is(c, i, Pc::W, Some(Side::Left))
                    || is(c, i, Pc::D, Some(Side::Left)))
                    && is(c, r, Pc::W, Some(Side::Right))
                    && in_err_r_t(c, rr)
            },
            forced: |i, n| vec![(i, Side::Left), ((i + 2) % n, Side::Right)],
            goal: goal_triple_p_fwd,
        },
    ]
}

/// The verdict of checking one appendix lemma.
#[derive(Debug, Clone)]
pub struct LemmaCheck {
    /// The lemma name.
    pub name: &'static str,
    /// Total `(anchor, configuration)` hypothesis instances checked.
    pub instances: usize,
    /// The minimal probability of the goal within the time bound, over
    /// all instances and all adversaries of the conditioned model.
    pub min_prob: f64,
}

impl LemmaCheck {
    /// The lemma claims certainty: it holds iff the minimum is 1, decided
    /// by [`pa_core::meets_claim`].
    pub fn holds(&self) -> bool {
        self.instances == 0 || pa_core::meets_claim(self.min_prob, 1.0)
    }
}

impl std::fmt::Display for LemmaCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Lemma {}: min P = {:.6} over {} instances → {}",
            self.name,
            self.min_prob,
            self.instances,
            if self.holds() { "HOLDS" } else { "VIOLATED" }
        )
    }
}

/// Checks one appendix lemma exhaustively on a ring of `n`: over every
/// anchor position, every reachable configuration matching the hypothesis,
/// and every adversary of the conditioned round model.
///
/// # Errors
///
/// Propagates ring validation and exploration errors.
pub fn check_lemma(n: usize, spec: &LemmaSpec, limit: usize) -> Result<LemmaCheck, LrError> {
    let universe = reachable_configs(n, limit)?;
    let base = RoundMdp::new(crate::RoundConfig::new(n)?);
    let budget = time_to_budget(spec.time);
    let mut instances = 0usize;
    let mut min_prob = 1.0f64;
    for i in 0..n {
        let starts: Vec<Config> = universe
            .iter()
            .filter(|c| (spec.hypothesis)(c, i))
            .cloned()
            .collect();
        if starts.is_empty() {
            continue;
        }
        instances += starts.len();
        let goal = spec.goal;
        let inner = base
            .clone()
            .with_starts(starts)
            .with_absorb(move |c: &Config| goal(c, i));
        let model = ForcedRoundMdp::new(inner, (spec.forced)(i, n));
        let explored = Explore::new(&model)
            .cost(|s: &ForcedState, a: &RoundAction| round_cost(&s.round, a))
            .limit(limit)
            .run()?;
        let target = explored.target_where(|fs| (spec.goal)(&fs.round.config, i));
        let worst = explored
            .query()
            .objective(Objective::MinProb)
            .target(target)
            .horizon(budget)
            .run()?
            .worst_over(explored.mdp.initial_states())?;
        if let Some((_, worst)) = worst {
            min_prob = min_prob.min(worst);
        }
    }
    Ok(LemmaCheck {
        name: spec.name,
        instances,
        min_prob,
    })
}

/// The paper's future-work item (Section 7): a *lower* bound on the time
/// for progress. Returns the largest time `t` (up to `max_time`) for which
/// some adversary surely prevents any state of `to_set` within `t`, i.e.
/// `min P[reach within t] = 0` — one less than the first time at which
/// progress has positive worst-case probability.
///
/// # Errors
///
/// Propagates region resolution and exploration errors.
pub fn progress_time_lower_bound(
    mdp: &RoundMdp,
    from_set: &pa_core::SetExpr,
    to_set: &pa_core::SetExpr,
    max_time: u32,
    limit: usize,
) -> Result<Option<u32>, LrError> {
    let Some((_, checker, space)) =
        arrow_model(mdp, mdp.clone(), from_set, to_set, limit, Quotient::Full)?
    else {
        return Ok(None);
    };
    drop(space);
    let target = checker.target_mask(to_set)?;
    let initials = checker.rows().initial_states();
    let mut first_positive: Option<u32> = None;
    Query::csr(checker.rows())
        .objective(Objective::MinProb)
        .target(target)
        .horizon(time_to_budget(f64::from(max_time)))
        .on_level(|k, v| {
            if first_positive.is_none() && initials.iter().all(|&s| v[s] > 1e-12) {
                first_positive = Some(k + 1); // budget k ⇔ time k+1
            }
        })
        .run()?;
    Ok(match first_positive {
        Some(t) => Some(t - 1),
        None => Some(max_time),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::SetExpr;

    #[test]
    fn forced_flip_is_deterministic_and_consumed() {
        let base = RoundMdp::new(crate::RoundConfig::new(3).unwrap())
            .with_starts(vec![crate::sims::all_trying(3).unwrap()]);
        let m = ForcedRoundMdp::new(base, vec![(0, Side::Right)]);
        let start = m.start_states().remove(0);
        assert_eq!(start.pending, 0b001);
        let flip0 = m
            .steps(&start)
            .into_iter()
            .find(|s| matches!(s.action, RoundAction::Schedule(LrAction::Flip(0))))
            .expect("process 0 can flip");
        assert!(flip0.target.is_point(), "forced flip has one outcome");
        let next = flip0.target.support().next().unwrap();
        assert_eq!(next.round.config.proc(0).side, Side::Right);
        assert_eq!(next.pending, 0, "forcing consumed");
        // Subsequent flips of process 0 are fair again.
        let flip1 = m
            .steps(&start)
            .into_iter()
            .find(|s| matches!(s.action, RoundAction::Schedule(LrAction::Flip(1))))
            .expect("process 1 can flip");
        assert_eq!(flip1.target.len(), 2, "unforced flips stay fair");
    }

    #[test]
    fn lemma_a4_1_holds_for_n3() {
        let spec = &appendix_lemmas()[0];
        assert_eq!(spec.name, "A.4(1)");
        let check = check_lemma(3, spec, 10_000_000).unwrap();
        assert!(check.instances > 0);
        assert!(check.holds(), "{check}");
    }

    #[test]
    fn lemma_a7_holds_for_n3() {
        let lemmas = appendix_lemmas();
        let spec = lemmas.iter().find(|l| l.name == "A.7a").unwrap();
        let check = check_lemma(3, spec, 10_000_000).unwrap();
        assert!(check.instances > 0);
        assert!(check.holds(), "{check}");
    }

    #[test]
    fn progress_needs_at_least_four_rounds_from_trying_starts() {
        let mdp = RoundMdp::new(crate::RoundConfig::new(3).unwrap());
        let bound = progress_time_lower_bound(
            &mdp,
            &SetExpr::named("T"),
            &SetExpr::named("C"),
            20,
            10_000_000,
        )
        .unwrap()
        .expect("T is nonempty");
        // A meal needs at least flip, wait, second, crit — and the worst
        // trying state needs at least that.
        assert!(bound >= 3, "lower bound {bound}");
        assert!(
            bound < 13,
            "paper's upper bound must exceed the lower bound"
        );
    }
}
