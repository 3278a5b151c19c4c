use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

use pa_prob::{FiniteDist, Prob};

use crate::CoreError;

/// One transition of a probabilistic automaton: an action label together
/// with a probability distribution over target states (Definition 2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Step<S, A> {
    /// The action labelling the step.
    pub action: A,
    /// The distribution over successor states.
    pub target: FiniteDist<S>,
}

impl<S: PartialEq, A> Step<S, A> {
    /// Creates a deterministic step to a single target state.
    pub fn deterministic(action: A, target: S) -> Step<S, A> {
        Step {
            action,
            target: FiniteDist::point(target),
        }
    }

    /// Creates a fair-coin step between two targets.
    pub fn coin(action: A, heads: S, tails: S) -> Step<S, A> {
        Step {
            action,
            target: FiniteDist::bernoulli(heads, tails, Prob::HALF)
                .expect("bernoulli(1/2) is always valid"),
        }
    }
}

/// A (simple) probabilistic automaton, per Definition 2.1 of the paper.
///
/// The automaton is presented *implicitly*: rather than materializing
/// `states(M)` and `steps(M)`, implementors provide the start states and the
/// enabled steps of any given state. This scales to the Lehmann–Rabin system,
/// whose state space is exponential in the ring size, while still supporting
/// the explicit [`TableAutomaton`] for small examples.
///
/// The action signature (external/internal partition) is exposed through
/// [`Automaton::is_external`]; it defaults to treating every action as
/// internal, which is adequate for analyses that do not compose automata.
pub trait Automaton {
    /// The state type. `Eq + Hash` so explorations can deduplicate states.
    type State: Clone + Eq + Hash + Debug;
    /// The action type.
    type Action: Clone + PartialEq + Debug;

    /// The (non-empty) set of start states.
    fn start_states(&self) -> Vec<Self::State>;

    /// The steps enabled in `state`. An empty vector means the state is
    /// terminal (it enables no step).
    fn steps(&self, state: &Self::State) -> Vec<Step<Self::State, Self::Action>>;

    /// Visits the steps enabled in `state` without materializing them:
    /// `f` receives each step's action and its `(target, probability)`
    /// outcomes, in [`Automaton::steps`] order and with the exact
    /// probabilities `steps()` reports (distinct targets, positive
    /// weights, duplicates already merged).
    ///
    /// The default forwards `steps()`. Automata on a hot exploration path
    /// override it with an allocation-free enumeration and implement
    /// `steps()` as a collector over it, so the step relation exists once.
    fn for_each_step<F>(&self, state: &Self::State, mut f: F)
    where
        F: FnMut(&Self::Action, &[(Self::State, f64)]),
        Self: Sized,
    {
        let mut outcomes = Vec::new();
        for step in self.steps(state) {
            outcomes.clear();
            outcomes.extend(step.target.iter().map(|(t, p)| (t.clone(), p.value())));
            f(&step.action, &outcomes);
        }
    }

    /// Whether `action` is external (visible). Defaults to `false`.
    fn is_external(&self, _action: &Self::Action) -> bool {
        false
    }
}

/// Collects the steps a [`Automaton::for_each_step`] visitor enumerates —
/// the `steps()` of an automaton whose step relation is written as a
/// visitor.
pub fn collect_steps<S, A: Clone>(
    visit: impl FnOnce(&mut dyn FnMut(&A, &[(S, f64)])),
) -> Vec<Step<S, A>>
where
    S: Clone + PartialEq,
{
    let mut out = Vec::new();
    visit(&mut |action: &A, outcomes: &[(S, f64)]| {
        out.push(Step {
            action: action.clone(),
            target: FiniteDist::new(outcomes.iter().cloned())
                .expect("visitor outcomes form a distribution"),
        });
    });
    out
}

/// Calls `f` with `outcomes` mapped through `g`, holding the mapped
/// outcomes on the stack for the one- and two-point distributions wrapper
/// automata see on their hot path. `g` must be injective on the outcomes
/// (as a state-wrapping map is), so no merging is needed.
pub fn map_outcomes<S, T: PartialEq>(
    outcomes: &[(S, f64)],
    g: impl Fn(&S) -> T,
    f: impl FnOnce(&[(T, f64)]),
) {
    match outcomes {
        [(a, p)] => f(&[(g(a), *p)]),
        [(a, p), (b, q)] => {
            let mapped = [(g(a), *p), (g(b), *q)];
            debug_assert!(
                mapped[0].0 != mapped[1].0,
                "map_outcomes needs an injective map"
            );
            f(&mapped)
        }
        _ => {
            let mapped: Vec<(T, f64)> = outcomes.iter().map(|(s, p)| (g(s), *p)).collect();
            f(&mapped)
        }
    }
}

/// An explicit, table-driven probabilistic automaton for small models:
/// examples, unit tests, and the coin-flip systems of Section 4.
///
/// Build one with [`TableAutomatonBuilder`].
///
/// # Examples
///
/// ```
/// use pa_core::{Automaton, TableAutomaton};
/// use pa_prob::Prob;
///
/// # fn main() -> Result<(), pa_core::CoreError> {
/// // The paper's motivating example from Section 2: from s0, one step goes
/// // to s1/s2 with probability 1/2 each, a second step with 1/3 and 2/3.
/// let m = TableAutomaton::builder()
///     .start("s0")
///     .step("s0", "first", [("s1", 0.5), ("s2", 0.5)])?
///     .step("s0", "second", [("s1", 1.0 / 3.0), ("s2", 2.0 / 3.0)])?
///     .build()?;
/// assert_eq!(m.steps(&"s0").len(), 2);
/// assert!(m.steps(&"s1").is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TableAutomaton<S, A> {
    starts: Vec<S>,
    steps: HashMap<S, Vec<Step<S, A>>>,
    external: Vec<A>,
}

impl<S: Clone + Eq + Hash + Debug, A: Clone + PartialEq + Debug> TableAutomaton<S, A> {
    /// Starts building a table automaton.
    pub fn builder() -> TableAutomatonBuilder<S, A> {
        TableAutomatonBuilder {
            starts: Vec::new(),
            steps: HashMap::new(),
            external: Vec::new(),
        }
    }

    /// Returns `true` if the automaton is *fully probabilistic*
    /// (Definition 2.1): a unique start state and at most one step enabled
    /// from each state.
    pub fn is_fully_probabilistic(&self) -> bool {
        self.starts.len() == 1 && self.steps.values().all(|v| v.len() <= 1)
    }

    /// Enumerates the reachable states (`rstates(M)`) by breadth-first
    /// exploration from the start states.
    pub fn reachable_states(&self) -> Vec<S> {
        let mut seen: HashSet<S> = HashSet::new();
        let mut queue: VecDeque<S> = VecDeque::new();
        let mut out = Vec::new();
        for s in &self.starts {
            if seen.insert(s.clone()) {
                queue.push_back(s.clone());
            }
        }
        while let Some(s) = queue.pop_front() {
            out.push(s.clone());
            for step in self.steps(&s) {
                for t in step.target.support() {
                    if seen.insert(t.clone()) {
                        queue.push_back(t.clone());
                    }
                }
            }
        }
        out
    }
}

impl<S: Clone + Eq + Hash + Debug, A: Clone + PartialEq + Debug> Automaton
    for TableAutomaton<S, A>
{
    type State = S;
    type Action = A;

    fn start_states(&self) -> Vec<S> {
        self.starts.clone()
    }

    fn steps(&self, state: &S) -> Vec<Step<S, A>> {
        self.steps.get(state).cloned().unwrap_or_default()
    }

    fn is_external(&self, action: &A) -> bool {
        self.external.contains(action)
    }
}

/// Builder for [`TableAutomaton`].
#[derive(Debug, Clone)]
pub struct TableAutomatonBuilder<S, A> {
    starts: Vec<S>,
    steps: HashMap<S, Vec<Step<S, A>>>,
    external: Vec<A>,
}

impl<S: Clone + Eq + Hash + Debug, A: Clone + PartialEq + Debug> TableAutomatonBuilder<S, A> {
    /// Adds a start state.
    pub fn start(mut self, state: S) -> Self {
        self.starts.push(state);
        self
    }

    /// Adds a probabilistic step from `source` with the given
    /// `(target, weight)` distribution.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError::Prob`] if the weights do not form a
    /// distribution.
    pub fn step(
        mut self,
        source: S,
        action: A,
        dist: impl IntoIterator<Item = (S, f64)>,
    ) -> Result<Self, CoreError> {
        let target = FiniteDist::new(dist)?;
        self.steps
            .entry(source)
            .or_default()
            .push(Step { action, target });
        Ok(self)
    }

    /// Adds a deterministic step from `source` to `target`.
    pub fn det_step(mut self, source: S, action: A, target: S) -> Self {
        self.steps
            .entry(source)
            .or_default()
            .push(Step::deterministic(action, target));
        self
    }

    /// Marks an action as external (part of `ext(M)` in the signature).
    pub fn external(mut self, action: A) -> Self {
        self.external.push(action);
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Structure`] if no start state was declared.
    pub fn build(self) -> Result<TableAutomaton<S, A>, CoreError> {
        if self.starts.is_empty() {
            return Err(CoreError::Structure(
                "automaton needs at least one start state".into(),
            ));
        }
        Ok(TableAutomaton {
            starts: self.starts,
            steps: self.steps,
            external: self.external,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_choice() -> TableAutomaton<&'static str, &'static str> {
        TableAutomaton::builder()
            .start("s0")
            .step("s0", "first", [("s1", 0.5), ("s2", 0.5)])
            .unwrap()
            .step("s0", "second", [("s1", 1.0 / 3.0), ("s2", 2.0 / 3.0)])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_start_state() {
        let r = TableAutomaton::<&str, &str>::builder().build();
        assert!(matches!(r, Err(CoreError::Structure(_))));
    }

    #[test]
    fn default_step_visitor_replays_steps_exactly() {
        // Duplicate outcomes ("b" twice) merge at construction; 1/3 and
        // 2/3 are not dyadic, so a recomputed weight would show in the
        // bits.
        let m = TableAutomaton::builder()
            .start("a")
            .step("a", "dup", [("b", 0.25), ("c", 0.5), ("b", 0.25)])
            .unwrap()
            .step("a", "third", [("c", 1.0 / 3.0), ("b", 2.0 / 3.0)])
            .unwrap()
            .det_step("a", "stay", "a")
            .build()
            .unwrap();
        let mut visited: Vec<(&str, Vec<(&str, u64)>)> = Vec::new();
        m.for_each_step(&"a", |action, outcomes| {
            visited.push((
                action,
                outcomes.iter().map(|&(t, p)| (t, p.to_bits())).collect(),
            ));
        });
        let expected: Vec<(&str, Vec<(&str, u64)>)> = m
            .steps(&"a")
            .iter()
            .map(|step| {
                (
                    step.action,
                    step.target
                        .iter()
                        .map(|(t, p)| (*t, p.value().to_bits()))
                        .collect(),
                )
            })
            .collect();
        assert_eq!(visited, expected);
        assert_eq!(
            visited[0].1,
            [("b", 0.5f64.to_bits()), ("c", 0.5f64.to_bits())]
        );
        // The collector rebuilds the same steps from the visitor.
        let collected = collect_steps(|f| m.for_each_step(&"a", f));
        assert_eq!(collected, m.steps(&"a"));
        let mut none = 0;
        m.for_each_step(&"b", |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn map_outcomes_keeps_order_and_bits() {
        let third = 1.0 / 3.0;
        for outcomes in [
            vec![(1u8, 1.0)],
            vec![(1, third), (2, 1.0 - third)],
            vec![(1, 0.25), (2, 0.25), (3, 0.5)],
        ] {
            let mut seen = Vec::new();
            map_outcomes(&outcomes, |s| u16::from(*s) * 10, |m| seen = m.to_vec());
            let want: Vec<(u16, f64)> = outcomes
                .iter()
                .map(|&(s, p)| (u16::from(s) * 10, p))
                .collect();
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn steps_of_unknown_state_are_empty() {
        let m = two_choice();
        assert!(m.steps(&"s1").is_empty());
    }

    #[test]
    fn nondeterministic_automaton_is_not_fully_probabilistic() {
        assert!(!two_choice().is_fully_probabilistic());
    }

    #[test]
    fn deterministic_chain_is_fully_probabilistic() {
        let m = TableAutomaton::builder()
            .start(0u8)
            .det_step(0, 'a', 1)
            .det_step(1, 'b', 2)
            .build()
            .unwrap();
        assert!(m.is_fully_probabilistic());
    }

    #[test]
    fn reachable_states_explores_all_targets() {
        let m = two_choice();
        let mut r = m.reachable_states();
        r.sort();
        assert_eq!(r, ["s0", "s1", "s2"]);
    }

    #[test]
    fn reachable_states_ignores_unreachable_entries() {
        let m = TableAutomaton::builder()
            .start(0u8)
            .det_step(0, 'a', 1)
            .det_step(7, 'z', 8) // unreachable island
            .build()
            .unwrap();
        let r = m.reachable_states();
        assert!(!r.contains(&7));
        assert!(!r.contains(&8));
    }

    #[test]
    fn external_actions_are_flagged() {
        let m = TableAutomaton::builder()
            .start(0u8)
            .det_step(0, "crit", 1)
            .det_step(1, "tau", 2)
            .external("crit")
            .build()
            .unwrap();
        assert!(m.is_external(&"crit"));
        assert!(!m.is_external(&"tau"));
    }

    #[test]
    fn coin_step_is_fair() {
        let s = Step::coin("flip", "L", "R");
        assert_eq!(s.target.prob_of(&"L"), Prob::HALF);
        assert_eq!(s.target.prob_of(&"R"), Prob::HALF);
    }
}
