//! Datasets and query generators for the experiments.

use igc_graph::fxhash::FxHashSet;
use igc_graph::generator::Dataset;
use igc_graph::{DynamicGraph, Edge, Label, LabelInterner, NodeId, Update, UpdateBatch};
use igc_iso::Pattern;
use igc_kws::KwsQuery;
use igc_nfa::Regex;
use igc_rules::{v, Atom, PredId, Program, RuleSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Fixed seed so every experiment run sees the same graphs.
pub const GRAPH_SEED: u64 = 20170514; // SIGMOD'17 opening day

/// Build a dataset graph at the given scale.
pub fn dataset(d: Dataset, scale: f64) -> DynamicGraph {
    d.generate(scale, GRAPH_SEED)
}

/// A KWS query with `m` keywords and bound `b`, keywords drawn as the first
/// `m` labels of the alphabet (every label id exists in the generated
/// graphs with overwhelming probability).
pub fn kws_query(m: usize, b: u32) -> KwsQuery {
    KwsQuery::new((0..m as u32).map(Label).collect(), b)
}

/// An RPQ of the paper's size measure `|Q| = size` (label occurrences),
/// with one union and one Kleene star — the *anchored* family
/// `lR · (l0 + l1)* · l2 · … ` over an alphabet of `alphabet` Zipf-ranked
/// labels, where `R` is a mid-tail rank (a few percent of nodes).
///
/// The shape mirrors real RPQ workloads (and the paper's Example 4): a
/// selective anchor label at the source, broad traversal labels under the
/// star. With Zipfian labels the anchors are few while the traversal
/// explores a large reachable region, so the batch algorithm's cost is
/// genuinely `Θ(sources · region)`.
pub fn rpq_query(size: usize, alphabet: usize) -> Regex {
    assert!(size >= 3, "the family needs at least three occurrences");
    assert!(alphabet >= 8);
    // Anchor rank: selective but populated — a few percent of nodes, like
    // an entity type one hops *from* in a real knowledge-graph RPQ.
    let rare = (alphabet / 40).max(6);
    let mut s = format!("l{rare}.(l0+l1)*");
    for i in 2..size - 1 {
        s.push_str(&format!(".l{i}"));
    }
    let mut interner = LabelInterner::new();
    // Intern numeric labels in id order so l{i} ↔ Label(i).
    for i in 0..alphabet {
        interner.intern(&format!("l{i}"));
    }
    Regex::parse(&s, &mut interner).expect("generated query parses")
}

/// An ISO pattern following the paper's Exp-2 sweep shape
/// `(|V_Q|, |E_Q|, d_Q)`: `n` nodes and diameter `n - 2`, with `|E_Q| =
/// n + 1` (n ≥ 4). The paper's exact `n + 2` edge counts force antiparallel
/// edge pairs or long directed cycles, which have essentially no matches in
/// sparse digraphs — on our generator stand-ins both sides of the
/// comparison would degenerate to trivial label filtering. One fewer edge
/// keeps the same node counts and diameters with a DAG-shaped motif that
/// actually occurs. Labels cycle through `{0, 1, 2}`,
/// the head of the Zipf distribution.
pub fn iso_pattern(n: usize) -> Pattern {
    assert!(n >= 3);
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if n == 3 {
        // (3, 3, 1): transitive triangle — every pair adjacent undirected.
        edges.extend([(0, 1), (1, 2), (0, 2)]);
    } else {
        // Path 0→1→…→(n-2): undirected diameter n-2 over n-1 nodes; the
        // pair (0, n-2) realises it.
        for i in 0..n as u32 - 2 {
            edges.push((i, i + 1));
        }
        // Node n-1 collects in-edges from 0, 1, 2. Detours through n-1
        // connect nodes at path distance ≤ 2, so dist(0, n-2) — and with it
        // the diameter — stays n-2.
        edges.push((0, n as u32 - 1));
        edges.push((1, n as u32 - 1));
        edges.push((2, n as u32 - 1));
    }
    let p = Pattern::from_parts(&labels, &edges);
    debug_assert_eq!(p.edge_count(), if n == 3 { 3 } else { n + 1 });
    debug_assert_eq!(p.diameter(), n - 2);
    p
}

// ---------------------------------------------------------------------
// Rule-view workloads (the `igc_rules` fifth view class)
// ---------------------------------------------------------------------

/// Host roles in the attack-graph workload, encoded as node labels.
pub const ATTACK_ENTRY: Label = Label(1);
/// An unpatched service an attacker can pivot through.
pub const ATTACK_VULN: Label = Label(2);
/// A crown-jewel asset — reaching one derives `goal_reached`.
pub const ATTACK_CRITICAL: Label = Label(3);

/// The anchored attack-reachability program over host-role labels:
///
/// ```text
/// exec_code(h)    ⇐ has_label(h, ENTRY)
/// exec_code(y)    ⇐ exec_code(x) ∧ edge(x, y) ∧ has_label(y, VULN)
/// exec_code(y)    ⇐ exec_code(x) ∧ edge(x, y) ∧ has_label(y, CRITICAL)
/// goal_reached(h) ⇐ exec_code(h) ∧ has_label(h, CRITICAL)
/// ```
///
/// Anchored (recursion grows from entry points) rather than all-pairs
/// transitive closure, so the derived-fact count stays `O(|V|)` at
/// experiment scale instead of `O(|V|²)`. Returns the compiled program
/// plus the `exec_code` and `goal_reached` predicate ids.
pub fn attack_program() -> (Program, PredId, PredId) {
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec_code", 1).expect("fresh predicate");
    let goal = rs.predicate("goal_reached", 1).expect("fresh predicate");
    rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ATTACK_ENTRY)])
        .expect("valid rule");
    for target in [ATTACK_VULN, ATTACK_CRITICAL] {
        rs.rule(
            exec,
            &[v(1)],
            vec![
                Atom::pred(exec, &[v(0)]),
                Atom::edge(v(0), v(1)),
                Atom::has_label(v(1), target),
            ],
        )
        .expect("valid rule");
    }
    rs.rule(
        goal,
        &[v(0)],
        vec![
            Atom::pred(exec, &[v(0)]),
            Atom::has_label(v(0), ATTACK_CRITICAL),
        ],
    )
    .expect("valid rule");
    (rs.compile().expect("stratifiable program"), exec, goal)
}

/// The host-role label for node `i` in the windowed-streaming workload:
/// deterministic by index — 1/16 entry points, 1/16 critical assets,
/// 10/16 vulnerable services, the rest hardened (`Label(0)`).
pub fn attack_label(i: usize) -> Label {
    match i % 16 {
        0 => ATTACK_ENTRY,
        1 => ATTACK_CRITICAL,
        r if r < 12 => ATTACK_VULN,
        _ => Label(0),
    }
}

/// A sliding-window edge stream over a fixed node population: each tick
/// inserts a fresh cohort of random edges and — once the window is full —
/// retracts the cohort that slid out, in the **same coalesced batch**.
/// Deletion storms are the workload's point: every slide retracts a whole
/// cohort at once, and [`WindowedStream::storm`] retracts many cohorts in
/// one batch.
///
/// Deterministic for a given seed; nodes are labelled by [`attack_label`].
#[derive(Debug, Clone)]
pub struct WindowedStream {
    nodes: usize,
    window: usize,
    per_tick: usize,
    rng: StdRng,
    /// Live cohorts, oldest first.
    live: VecDeque<Vec<Edge>>,
    /// Edges currently in the graph (cohorts are disjoint).
    present: FxHashSet<Edge>,
}

impl WindowedStream {
    /// An edge-free graph of `nodes` labelled hosts plus the stream that
    /// will populate it: `window` live ticks of `per_tick` edges each.
    pub fn new(nodes: usize, window: usize, per_tick: usize, seed: u64) -> (DynamicGraph, Self) {
        assert!(nodes >= 2 && window >= 1 && per_tick >= 1);
        let mut g = DynamicGraph::new();
        for i in 0..nodes {
            g.add_node(attack_label(i));
        }
        let stream = WindowedStream {
            nodes,
            window,
            per_tick,
            rng: StdRng::seed_from_u64(seed),
            live: VecDeque::new(),
            present: FxHashSet::default(),
        };
        (g, stream)
    }

    /// Edges currently live in the window.
    pub fn live_edges(&self) -> usize {
        self.present.len()
    }

    /// The next tick: insert a fresh cohort and, if the window is full,
    /// retract the oldest one — one coalesced batch, already normalized
    /// with respect to the stream's own graph.
    pub fn next_batch(&mut self) -> UpdateBatch {
        let mut updates = Vec::with_capacity(self.per_tick * 2);
        if self.live.len() == self.window {
            let old = self.live.pop_front().expect("window is full");
            for (u, v) in old {
                self.present.remove(&(u, v));
                updates.push(Update::delete(u, v));
            }
        }
        let mut cohort = Vec::with_capacity(self.per_tick);
        while cohort.len() < self.per_tick {
            let u = NodeId(self.rng.gen_range(0..self.nodes as u32));
            let w = NodeId(self.rng.gen_range(0..self.nodes as u32));
            if u != w && self.present.insert((u, w)) {
                cohort.push((u, w));
                updates.push(Update::insert(u, w));
            }
        }
        self.live.push_back(cohort);
        UpdateBatch::from_updates(updates)
    }

    /// A deletion storm: retract the oldest `cohorts` cohorts in one
    /// coalesced batch (no insertions). With `cohorts >= window / 2` this
    /// retracts at least half the live edges in a single tick.
    pub fn storm(&mut self, cohorts: usize) -> UpdateBatch {
        let n = cohorts.min(self.live.len());
        let mut updates = Vec::new();
        for _ in 0..n {
            let old = self.live.pop_front().expect("cohort count bounded above");
            for (u, v) in old {
                self.present.remove(&(u, v));
                updates.push(Update::delete(u, v));
            }
        }
        UpdateBatch::from_updates(updates)
    }
}

/// The paper's default queries for Exp-1/Exp-3: KWS `(m,b) = (3,2)`,
/// RPQ `|Q| = 4`, ISO `(4,6,2)`.
pub fn default_kws() -> KwsQuery {
    kws_query(3, 2)
}

/// Default RPQ (`|Q| = 4`) for a given dataset alphabet.
pub fn default_rpq(alphabet: usize) -> Regex {
    rpq_query(4, alphabet)
}

/// Default ISO pattern (`(4,6,2)`).
pub fn default_iso() -> Pattern {
    iso_pattern(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpq_sizes_match_paper_measure() {
        for size in 3..=7 {
            assert_eq!(rpq_query(size, 100).size(), size, "|Q| for size {size}");
            assert_eq!(rpq_query(size, 495).size(), size);
        }
    }

    #[test]
    fn iso_patterns_match_paper_shapes() {
        for n in 3..=7 {
            let p = iso_pattern(n);
            assert_eq!(p.node_count(), n);
            assert_eq!(p.edge_count(), if n == 3 { 3 } else { n + 1 });
            assert_eq!(p.diameter(), n - 2);
        }
    }

    #[test]
    fn datasets_generate_at_small_scale() {
        for d in [
            Dataset::DbpediaLike,
            Dataset::LivejournalLike,
            Dataset::Synthetic,
        ] {
            let g = dataset(d, 0.01);
            assert!(g.node_count() > 0);
            assert!(g.edge_count() > 0);
        }
    }

    #[test]
    fn kws_query_uses_leading_labels() {
        let q = kws_query(4, 3);
        assert_eq!(q.m(), 4);
        assert_eq!(q.keywords[3], Label(3));
    }

    #[test]
    fn windowed_stream_slides_and_storms() {
        let (mut g, mut ws) = WindowedStream::new(50, 4, 20, 7);
        assert_eq!(g.edge_count(), 0);
        for tick in 0..6 {
            let batch = ws.next_batch();
            let (dels, ins) = batch.split_edges();
            assert_eq!(ins.len(), 20);
            assert_eq!(dels.len(), if tick < 4 { 0 } else { 20 }, "tick {tick}");
            g.apply_batch(&batch);
            assert_eq!(g.edge_count(), ws.live_edges());
        }
        assert_eq!(ws.live_edges(), 80);
        // Storm: half the window out in one coalesced batch.
        let storm = ws.storm(2);
        let (dels, ins) = storm.split_edges();
        assert_eq!((dels.len(), ins.len()), (40, 0));
        g.apply_batch(&storm);
        assert_eq!(g.edge_count(), 40);
    }

    #[test]
    fn windowed_stream_is_deterministic() {
        let (_, mut a) = WindowedStream::new(40, 3, 10, 9);
        let (_, mut b) = WindowedStream::new(40, 3, 10, 9);
        for _ in 0..5 {
            assert_eq!(
                format!("{:?}", a.next_batch()),
                format!("{:?}", b.next_batch())
            );
        }
    }

    #[test]
    fn attack_program_compiles_and_is_anchored() {
        let (p, exec, goal) = attack_program();
        assert_eq!(p.pred_count(), 2);
        assert_eq!(p.rule_count(), 4);
        assert!(p.is_recursive(exec));
        assert!(!p.is_recursive(goal));
    }
}
