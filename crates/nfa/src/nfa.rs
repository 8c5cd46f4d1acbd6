//! The ε-free NFA `M_Q = (S, Σ, δ, s0, F)` used by the RPQ algorithms.
//!
//! δ and δ⁻¹ are each one dense `[state × column]` table, where a column
//! is a label's position in the sorted list of labels the automaton reads
//! (a handful: at most one per label occurrence of the query). Nothing is
//! sized by a label id or by the graph, and a lookup hashes nothing: find
//! the column, index the cell, return the slice. [`Nfa::next`] is the one
//! probe the product traversals make per graph edge; [`Nfa::prev`] is what
//! IncRPQ's potential recomputation walks backwards.

use igc_graph::{FxHashMap, Label};

/// An NFA state index. State `0` is always the initial state `s0`.
pub type StateId = u16;

/// A `[state × column]` table of state lists, stored as one run of states
/// with the cells' boundaries beside it.
#[derive(Debug, Clone)]
struct Table {
    /// Cell `i` is `states[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    states: Vec<StateId>,
}

impl Table {
    /// Lay out `cells` (row-major) in order.
    fn new(cells: Vec<Vec<StateId>>) -> Self {
        let mut bounds = Vec::with_capacity(cells.len() + 1);
        bounds.push(0);
        let mut states = Vec::new();
        for cell in cells {
            states.extend(cell);
            bounds.push(states.len() as u32);
        }
        Table { bounds, states }
    }

    #[inline]
    fn cell(&self, i: usize) -> &[StateId] {
        &self.states[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// An ε-free nondeterministic finite automaton over node labels.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Every label on some transition, sorted; a label's position is its
    /// column in both tables.
    labels: Vec<Label>,
    /// `δ(s, α)` at cell `s · |labels| + column(α)`.
    delta: Table,
    /// `δ⁻¹(t, α) = {s : t ∈ δ(s, α)}`, ascending, in the same shape.
    inverse: Table,
    /// `accepting[s]` is true iff `s ∈ F`.
    accepting: Vec<bool>,
}

impl Nfa {
    /// Build from raw parts: `delta[s]` maps a label to `δ(s, α)`.
    /// `delta.len()` and `accepting.len()` must agree; state 0 is the
    /// initial state.
    pub fn from_parts(delta: Vec<FxHashMap<Label, Vec<StateId>>>, accepting: Vec<bool>) -> Self {
        assert_eq!(delta.len(), accepting.len());
        assert!(!delta.is_empty(), "an NFA needs at least the initial state");
        assert!(delta.len() <= StateId::MAX as usize + 1);
        let mut labels: Vec<Label> = delta.iter().flat_map(|m| m.keys().copied()).collect();
        labels.sort_unstable();
        labels.dedup();
        let cols = labels.len();
        let mut forward = vec![Vec::new(); delta.len() * cols];
        let mut inverse = vec![Vec::new(); delta.len() * cols];
        // States are consumed in order, so every inverse cell is ascending.
        for (s, row) in delta.into_iter().enumerate() {
            for (label, targets) in row {
                let c = labels.binary_search(&label).expect("collected above");
                for &t in &targets {
                    inverse[t as usize * cols + c].push(s as StateId);
                }
                forward[s * cols + c] = targets;
            }
        }
        Nfa {
            labels,
            delta: Table::new(forward),
            inverse: Table::new(inverse),
            accepting,
        }
    }

    /// Number of states `|S|`.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> StateId {
        0
    }

    /// The cell of `(s, label)` in either table; `None` for a label the
    /// automaton never reads.
    #[inline]
    fn cell(&self, s: StateId, label: Label) -> Option<usize> {
        let c = self.labels.iter().position(|&l| l == label)?;
        Some(s as usize * self.labels.len() + c)
    }

    /// `δ(s, α)`.
    #[inline]
    pub fn next(&self, s: StateId, label: Label) -> &[StateId] {
        self.cell(s, label).map_or(&[], |i| self.delta.cell(i))
    }

    /// `δ⁻¹(t, α) = {s : t ∈ δ(s, α)}`, ascending — the states a
    /// predecessor of an `α`-labelled node can be in to reach it in `t`.
    #[inline]
    pub fn prev(&self, t: StateId, label: Label) -> &[StateId] {
        self.cell(t, label).map_or(&[], |i| self.inverse.cell(i))
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

    /// Every label that appears on some transition, sorted (the alphabet
    /// actually used; labels outside this set can never advance the
    /// automaton).
    pub fn used_labels(&self) -> &[Label] {
        &self.labels
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
    fn prev_inverts_next() {
        let n = ab_star();
        assert_eq!(n.prev(1, Label(0)), &[0]);
        assert_eq!(n.prev(1, Label(1)), &[1]);
        assert!(n.prev(0, Label(0)).is_empty());
        assert!(
            n.prev(1, Label(7)).is_empty(),
            "a label no transition reads"
        );
        for s in 0..2 {
            for l in [Label(0), Label(1)] {
                for &t in n.next(s, l) {
                    assert!(n.prev(t, l).contains(&s));
                }
            }
        }
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
