//! Answer and marking-key goldens for `IncRpq`.
//!
//! After every `apply` of each scenario, the sorted answer and the sorted
//! set of marking keys `(source, node, state)` are folded into two running
//! digests, and the final digests are pinned. Both are functions of the
//! graph alone — the answer is batch `RPQ_NFA`'s, the key set is the set of
//! reachable product configurations — so they hold for any correct
//! maintenance, whatever distance, rank or support lists it keeps. This
//! file is never edited to follow a change of algorithm: a change that
//! moves a digest has changed *what* is maintained.

use igc_core::IncView;
use igc_graph::fxhash::FxHasher;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::graph::graph_from;
use igc_graph::{DynamicGraph, LabelInterner, NodeId, Update, UpdateBatch};
use igc_nfa::Regex;
use igc_rpq::{IncRpq, MarkKey};
use std::hash::{Hash, Hasher};

/// Running digests of one scenario: answers, marking keys, apply count.
#[derive(Default)]
struct Digests {
    answers: FxHasher,
    keys: FxHasher,
    applies: u64,
}

impl Digests {
    /// Apply `delta` to `g` and the view, then fold the view's state in.
    fn step(&mut self, g: &mut DynamicGraph, inc: &mut IncRpq, delta: &UpdateBatch) {
        g.apply_batch(delta);
        inc.apply(g, delta);
        inc.sorted_answer().hash(&mut self.answers);
        let keys: Vec<MarkKey> = inc
            .marking_signature()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        keys.hash(&mut self.keys);
        self.applies += 1;
    }

    fn finish(&self) -> (u64, u64, u64) {
        (self.answers.finish(), self.keys.finish(), self.applies)
    }
}

/// The graph and query of the two `WorkStats` golden scenarios.
fn work_scenario(count: usize, rho_insert: f64, seed: u64, rounds: u64) -> (u64, u64, u64) {
    let mut g = uniform_graph(60, 240, 3, 42);
    let mut it = LabelInterner::new();
    let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
    let mut inc = IncRpq::new(&g, &q);
    let mut d = Digests::default();
    for round in 0..rounds {
        let delta = random_update_batch(&g, count, rho_insert, seed + round);
        d.step(&mut g, &mut inc, &delta);
    }
    d.finish()
}

#[test]
fn buffer_reuse_scenario_golden() {
    assert_eq!(
        work_scenario(12, 0.5, 1000, 5),
        (6191598604458505616, 14668183772628250044, 5)
    );
}

#[test]
fn deletion_heavy_scenario_golden() {
    assert_eq!(
        work_scenario(15, 0.2, 2000, 8),
        (6613091098409561328, 12400066982716530361, 8)
    );
}

/// A self-loop inserted at a node whose markings feed each other within
/// the batch.
#[test]
fn self_loop_scenario_golden() {
    let mut it = LabelInterner::new();
    let ids: Vec<u32> = ["a", "a", "a", "a", "b", "b", "b", "a"]
        .iter()
        .map(|l| it.intern(l).0)
        .collect();
    let mut g = graph_from(
        &ids,
        &[
            (0, 7),
            (1, 7),
            (2, 7),
            (3, 7),
            (0, 4),
            (1, 4),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
        ],
    );
    let q = Regex::parse("a.(a+b.b.b).a.a", &mut it).unwrap();
    let mut inc = IncRpq::new(&g, &q);
    let mut d = Digests::default();
    let n = NodeId;
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![Update::insert(n(7), n(7))]),
    );
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![Update::delete(n(6), n(7)), Update::delete(n(0), n(7))]),
    );
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![Update::delete(n(7), n(7)), Update::insert(n(6), n(7))]),
    );
    assert_eq!(d.finish(), (14213355591422979592, 14826541197749119444, 3));
}

/// Paper Example 5: cut the `b3` route of `c·(b·a+c)*·c` and splice in a
/// `b·a` detour in the same batch, then undo both halves one at a time.
#[test]
fn paper_example5_golden() {
    let mut it = LabelInterner::new();
    // c1 b1 a1 c2 b3 a2 + spare b2(6) a3(7)
    let ids: Vec<u32> = ["c", "b", "a", "c", "b", "a", "b", "a"]
        .iter()
        .map(|l| it.intern(l).0)
        .collect();
    let mut g = graph_from(&ids, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]);
    let q = Regex::parse("c.(b.a+c)*.c", &mut it).unwrap();
    let mut inc = IncRpq::new(&g, &q);
    let mut d = Digests::default();
    let n = NodeId;
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![
            Update::delete(n(3), n(4)),
            Update::insert(n(3), n(6)),
            Update::insert(n(6), n(7)),
            Update::insert(n(7), n(3)),
        ]),
    );
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![Update::insert(n(3), n(4))]),
    );
    d.step(
        &mut g,
        &mut inc,
        &UpdateBatch::from_updates(vec![Update::delete(n(7), n(3))]),
    );
    assert_eq!(d.finish(), (11016130796979812293, 5835917273682637965, 3));
}

/// A seeded 300-batch generator stream at one delete share.
fn stream(delete_share: f64, seed: u64) -> (u64, u64, u64) {
    let mut g = uniform_graph(100, 650, 4, seed);
    let mut it = LabelInterner::new();
    let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
    let mut inc = IncRpq::new(&g, &q);
    let mut d = Digests::default();
    for round in 0..300 {
        let delta = random_update_batch(&g, 4, 1.0 - delete_share, seed * 1000 + round);
        d.step(&mut g, &mut inc, &delta);
    }
    d.finish()
}

#[test]
fn generator_stream_goldens() {
    assert_eq!(
        stream(0.2, 1),
        (247780569213500422, 9999616514115549420, 300),
        "delete share 0.2"
    );
    assert_eq!(
        stream(0.5, 2),
        (11240778387979205183, 13054833113986615181, 300),
        "delete share 0.5"
    );
    assert_eq!(
        stream(0.8, 3),
        (2066874039787360719, 804762388334619275, 300),
        "delete share 0.8"
    );
}
