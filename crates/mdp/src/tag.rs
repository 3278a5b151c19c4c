//! Choice tagging: annotate the choices of an explored model with small
//! labels so structural contracts can be audited before solving.
//!
//! The fault subsystem is the motivating consumer: when a fault layer
//! lowers crashed processes into the explored MDP, every choice it injects
//! for a dead configuration must be an *absorbing* deterministic self-loop
//! — otherwise the new states would leak probability mass and corrupt
//! both the Jacobi and the SCC-ordered solvers (an absorbing state is a
//! trivial SCC; a mis-built one becomes a spurious nontrivial component).
//! [`tag_choices`] recomputes the implicit automaton's steps in explored
//! order to assign a tag per choice, and
//! [`tagged_absorbing_violations`] reports every tagged choice that fails
//! the absorbing contract.

use pa_core::Automaton;

use crate::{CsrMdp, Explored};

/// The neutral tag: an ordinary protocol choice.
pub const TAG_NONE: u8 = 0;

/// Per-choice tags aligned with an [`Explored`] model: `tags[s][k]`
/// labels state `s`'s `k`-th choice (`mdp.rows().choice_range(s).nth(k)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceTags {
    /// `tags[state][choice]`, in the explored model's choice order.
    pub tags: Vec<Vec<u8>>,
}

impl ChoiceTags {
    /// The tag of choice `k` in state `s`.
    pub fn tag(&self, s: usize, k: usize) -> u8 {
        self.tags[s][k]
    }

    /// Number of choices carrying `tag`.
    pub fn count(&self, tag: u8) -> usize {
        self.tags
            .iter()
            .map(|cs| cs.iter().filter(|&&t| t == tag).count())
            .sum()
    }
}

/// Tags every choice of an explored model by re-enumerating the implicit
/// automaton's steps in explored state order (exploration preserves choice
/// order, so `steps(&states[s])[k]` *is* state `s`'s `k`-th choice).
///
/// Records the number of non-[`TAG_NONE`] choices in the
/// `mdp.tag.tagged_choices` telemetry counter when telemetry is enabled.
///
/// # Panics
///
/// Panics if the automaton's step count for some state disagrees with the
/// explored model — that means the automaton is not the one that was
/// explored (or is nondeterministic in its step enumeration, which the
/// exploration contract forbids).
pub fn tag_choices<M: Automaton, SP: crate::StateSpace<M::State>>(
    automaton: &M,
    explored: &Explored<M::State, SP>,
    mut tag_of: impl FnMut(&M::State, &M::Action) -> u8,
) -> ChoiceTags {
    let mut tags = Vec::with_capacity(explored.num_states());
    let mut tagged = 0u64;
    for s in 0..explored.num_states() {
        let state = explored.state(s);
        let mut row: Vec<u8> = Vec::new();
        automaton.for_each_step(&state, |action, _| {
            let t = tag_of(&state, action);
            if t != TAG_NONE {
                tagged += 1;
            }
            row.push(t);
        });
        assert_eq!(
            row.len(),
            explored.mdp.rows().choice_range(s).len(),
            "state {s}: automaton disagrees with the explored model"
        );
        tags.push(row);
    }
    if pa_telemetry::enabled() {
        pa_telemetry::counter("mdp.tag.tagged_choices").add(tagged);
    }
    ChoiceTags { tags }
}

/// Audits the absorbing contract of every choice carrying `tag`: such a
/// choice must be a deterministic self-loop (one transition, back to its
/// own state, probability exactly 1). Returns the `(state, choice)` pairs
/// that violate it — an empty vector certifies that all tagged choices
/// are absorbing, so both solvers treat the tagged states as sinks.
pub fn tagged_absorbing_violations(
    mdp: &CsrMdp,
    tags: &ChoiceTags,
    tag: u8,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let rows = mdp.rows();
    for s in rows.states() {
        for (k, c) in rows.choice_range(s).enumerate() {
            if tags.tag(s, k) != tag {
                continue;
            }
            let trans = rows.trans_range(c);
            let absorbing = trans.len() == 1
                && rows.targets[trans.start] as usize == s
                && rows.prob(trans.start) == 1.0;
            if !absorbing {
                out.push((s, k));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Explore;
    use pa_core::TableAutomaton;

    const TAG_CRASH: u8 = 1;

    /// 0 --go--> 1; 1 --stay--> 1 (absorbing); 0 --bad--> {0, 1}.
    fn model() -> TableAutomaton<u8, &'static str> {
        TableAutomaton::builder()
            .start(0)
            .det_step(0, "go", 1)
            .step(0, "bad", [(0, 0.5), (1, 0.5)])
            .unwrap()
            .det_step(1, "stay", 1)
            .build()
            .unwrap()
    }

    #[test]
    fn tags_align_with_choice_order() {
        let m = model();
        let e = Explore::new(&m).limit(100).run().unwrap();
        let tags = tag_choices(
            &m,
            &e,
            |_, a| if *a == "stay" { TAG_CRASH } else { TAG_NONE },
        );
        assert_eq!(tags.count(TAG_CRASH), 1);
        let s1 = e.index_of(&1).unwrap();
        assert_eq!(tags.tag(s1, 0), TAG_CRASH);
    }

    #[test]
    fn absorbing_self_loops_pass_the_audit() {
        let m = model();
        let e = Explore::new(&m).limit(100).run().unwrap();
        let tags = tag_choices(
            &m,
            &e,
            |_, a| if *a == "stay" { TAG_CRASH } else { TAG_NONE },
        );
        assert!(tagged_absorbing_violations(&e.mdp, &tags, TAG_CRASH).is_empty());
    }

    #[test]
    fn non_absorbing_tagged_choices_are_reported() {
        let m = model();
        let e = Explore::new(&m).limit(100).run().unwrap();
        // Mis-tag the probabilistic branch as a crash choice.
        let tags = tag_choices(
            &m,
            &e,
            |_, a| if *a == "bad" { TAG_CRASH } else { TAG_NONE },
        );
        let bad = tagged_absorbing_violations(&e.mdp, &tags, TAG_CRASH);
        let s0 = e.index_of(&0).unwrap();
        assert_eq!(bad, vec![(s0, 1)]);
    }

    #[test]
    fn untagged_choices_are_never_audited() {
        let m = model();
        let e = Explore::new(&m).limit(100).run().unwrap();
        let tags = tag_choices(&m, &e, |_, _| TAG_NONE);
        assert!(tagged_absorbing_violations(&e.mdp, &tags, TAG_CRASH).is_empty());
    }
}
