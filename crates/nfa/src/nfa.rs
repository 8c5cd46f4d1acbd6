//! The ε-free NFA `M_Q = (S, Σ, δ, s0, F)` used by the RPQ algorithms.

use igc_graph::{FxHashMap, Label};

/// An NFA state index. State `0` is always the initial state `s0`.
pub type StateId = u16;

/// An ε-free nondeterministic finite automaton over node labels.
///
/// Transitions are stored per state as a label-indexed map to successor
/// state lists, so the product-graph traversal of `RPQ_NFA` can enumerate
/// `δ(s, l(v'))` in O(1) lookup + output time.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `delta[s]` maps a label to the successor states `δ(s, α)`.
    delta: Vec<FxHashMap<Label, Vec<StateId>>>,
    /// `accepting[s]` is true iff `s ∈ F`.
    accepting: Vec<bool>,
}

impl Nfa {
    /// Build from raw parts. `delta.len()` and `accepting.len()` must agree;
    /// state 0 is the initial state.
    pub fn from_parts(delta: Vec<FxHashMap<Label, Vec<StateId>>>, accepting: Vec<bool>) -> Self {
        assert_eq!(delta.len(), accepting.len());
        assert!(!delta.is_empty(), "an NFA needs at least the initial state");
        assert!(delta.len() <= StateId::MAX as usize + 1);
        Nfa { delta, accepting }
    }

    /// Number of states `|S|`.
    pub fn state_count(&self) -> usize {
        self.delta.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> StateId {
        0
    }

    /// `δ(s, α)`.
    #[inline]
    pub fn next(&self, s: StateId, label: Label) -> &[StateId] {
        self.delta[s as usize]
            .get(&label)
            .map_or(&[], |v| v.as_slice())
    }

    /// True iff `s ∈ F`.
    #[inline]
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s as usize]
    }

    /// States reached from `s0` by consuming the *first* path label — the
    /// seeding function of the RPQ product traversal: a source node `u`
    /// starts in every state of `start_states(l(u))`.
    #[inline]
    pub fn start_states(&self, label: Label) -> &[StateId] {
        self.next(0, label)
    }

    /// True iff ε is accepted (s0 ∈ F). For RPQ over node-labelled paths this
    /// never fires (every path has at least one node label), but it keeps
    /// word acceptance exact.
    pub fn accepts_empty(&self) -> bool {
        self.accepting[0]
    }

    /// Subset-simulation word acceptance — the oracle the Glushkov
    /// construction is property-tested against.
    pub fn accepts_word(&self, word: &[Label]) -> bool {
        if word.is_empty() {
            return self.accepts_empty();
        }
        let mut current: Vec<bool> = vec![false; self.state_count()];
        for &s in self.start_states(word[0]) {
            current[s as usize] = true;
        }
        for &l in &word[1..] {
            let mut next: Vec<bool> = vec![false; self.state_count()];
            for (s, &on) in current.iter().enumerate() {
                if on {
                    for &t in self.next(s as StateId, l) {
                        next[t as usize] = true;
                    }
                }
            }
            current = next;
        }
        current
            .iter()
            .enumerate()
            .any(|(s, &on)| on && self.is_accepting(s as StateId))
    }

    /// Iterate every transition `(s, α, t)` with `t ∈ δ(s, α)` — used to
    /// build inverse transition tables for backward propagation.
    pub fn all_transitions(&self) -> impl Iterator<Item = (StateId, Label, StateId)> + '_ {
        self.delta.iter().enumerate().flat_map(|(s, m)| {
            m.iter()
                .flat_map(move |(&l, ts)| ts.iter().map(move |&t| (s as StateId, l, t)))
        })
    }

    /// Every label that appears on some transition (the alphabet actually
    /// used; labels outside this set can never advance the automaton).
    pub fn used_labels(&self) -> Vec<Label> {
        let mut set: Vec<Label> = self.delta.iter().flat_map(|m| m.keys().copied()).collect();
        set.sort_unstable();
        set.dedup();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built NFA for `a·b*`: s0 --a--> s1(accepting) --b--> s1.
    fn ab_star() -> Nfa {
        let a = Label(0);
        let b = Label(1);
        let mut d0 = FxHashMap::default();
        d0.insert(a, vec![1]);
        let mut d1 = FxHashMap::default();
        d1.insert(b, vec![1]);
        Nfa::from_parts(vec![d0, d1], vec![false, true])
    }

    #[test]
    fn accepts_and_rejects() {
        let n = ab_star();
        let a = Label(0);
        let b = Label(1);
        assert!(n.accepts_word(&[a]));
        assert!(n.accepts_word(&[a, b, b]));
        assert!(!n.accepts_word(&[b]));
        assert!(!n.accepts_word(&[a, a]));
        assert!(!n.accepts_word(&[]));
    }

    #[test]
    fn start_states_seed_on_first_label() {
        let n = ab_star();
        assert_eq!(n.start_states(Label(0)), &[1]);
        assert!(n.start_states(Label(1)).is_empty());
    }

    #[test]
    fn used_labels_sorted_unique() {
        let n = ab_star();
        assert_eq!(n.used_labels(), vec![Label(0), Label(1)]);
    }

    #[test]
    #[should_panic(expected = "at least the initial state")]
    fn empty_nfa_rejected() {
        let _ = Nfa::from_parts(vec![], vec![]);
    }
}
