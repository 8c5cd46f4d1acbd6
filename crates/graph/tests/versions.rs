//! The versioning contract of [`DynamicGraph`]: a clone shares storage with
//! its original, and no write to either side is visible through the other;
//! the bulk constructor builds the graph the unit primitives build; a batch
//! applies as its units applied one by one, whichever graph it was
//! normalized against. Each property runs 96 seeded cases; a failing
//! case's seed is printed.

use igc_graph::graph::Edge;
use igc_graph::{DynamicGraph, Label, NodeId, Update, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

const LABELS: u32 = 4;

/// Run `body` on 96 seeded cases. Each prints its seed first, so the
/// output of a failing test ends with the seed of the case that failed.
fn cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..96 {
        eprintln!("case seed {seed}");
        body(&mut StdRng::seed_from_u64(seed));
    }
}

/// Everything a reader can observe of a graph, adjacency in list order.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    epoch: u64,
    edges: Vec<Edge>,
    labels: Vec<Label>,
    successors: Vec<Vec<NodeId>>,
    predecessors: Vec<Vec<NodeId>>,
    by_label: Vec<Vec<NodeId>>,
}

fn observe(g: &DynamicGraph) -> Observed {
    Observed {
        epoch: g.epoch(),
        edges: g.sorted_edges(),
        labels: g.nodes().map(|v| g.label(v)).collect(),
        successors: g.nodes().map(|v| g.successors(v).to_vec()).collect(),
        predecessors: g.nodes().map(|v| g.predecessors(v).to_vec()).collect(),
        by_label: (0..LABELS)
            .map(|l| g.nodes_with_label(Label(l)).to_vec())
            .collect(),
    }
}

/// A small digraph as (labels, edges); repeated edges and self-loops occur.
fn arb_graph(rng: &mut StdRng) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = rng.gen_range(2u32..12);
    graph_on(rng, n, 0..40)
}

/// Labels for `n` nodes, and a number of edges in `edges` among them.
fn graph_on(rng: &mut StdRng, n: u32, edges: Range<usize>) -> (Vec<u32>, Vec<(u32, u32)>) {
    let labels = (0..n).map(|_| rng.gen_range(0..LABELS)).collect();
    let edge = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..n));
    let edges: Vec<_> = (0..rng.gen_range(edges)).map(|_| edge(rng)).collect();
    (labels, edges)
}

/// One raw unit: delete or insert between ids that may lie a few past the
/// node count (fresh nodes, with default-labelled gap fillers below them),
/// each endpoint with or without an explicit label.
type RawUnit = (bool, u32, u32, u32, u32);

/// Three generations of batches, each with the side it is applied to, of
/// `units` units between ids below `ids`.
fn generations(rng: &mut StdRng, ids: u32, units: Range<usize>) -> Vec<(bool, Vec<RawUnit>)> {
    let label = |rng: &mut StdRng| rng.gen_range(0..=LABELS);
    let unit = |rng: &mut StdRng| {
        let (a, b) = (rng.gen_range(0..ids), rng.gen_range(0..ids));
        (rng.gen(), a, b, label(rng), label(rng))
    };
    let generation = |rng: &mut StdRng| {
        let (side, n) = (rng.gen(), rng.gen_range(units.clone()));
        (side, (0..n).map(|_| unit(rng)).collect())
    };
    (0..3).map(|_| generation(rng)).collect()
}

fn batch_of(raw: &[RawUnit]) -> UpdateBatch {
    let label = |l: u32| (l < LABELS).then_some(Label(l));
    UpdateBatch::from_updates(
        raw.iter()
            .map(|&(insert, a, b, la, lb)| {
                if insert {
                    Update::insert_labeled(NodeId(a), NodeId(b), label(la), label(lb))
                } else {
                    Update::delete(NodeId(a), NodeId(b))
                }
            })
            .collect(),
    )
}

fn labels_of(raw: &[u32]) -> Vec<Label> {
    raw.iter().map(|&l| Label(l)).collect()
}

fn edges_of(raw: &[(u32, u32)]) -> Vec<Edge> {
    raw.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()
}

/// The reference for [`DynamicGraph::sorted_edges`]: the out-lists in node
/// order, each source's run comparison-sorted.
fn sorted_by_run(g: &DynamicGraph) -> Vec<Edge> {
    let mut e: Vec<Edge> = g.edges().collect();
    e.chunk_by_mut(|a, b| a.0 == b.0)
        .for_each(<[Edge]>::sort_unstable);
    e
}

/// Everything [`observe`] reads but the epoch: what a write leaves behind.
fn content(g: &DynamicGraph) -> Observed {
    Observed {
        epoch: 0,
        ..observe(g)
    }
}

/// `g.apply_batch(delta)` against [`DynamicGraph::apply`] called once per
/// unit of `delta` on a copy of `g`: the same content, and a graph whose
/// invariants hold (no list holds an entry twice).
fn assert_applies_per_unit(g: &mut DynamicGraph, delta: &UpdateBatch) {
    let mut reference = g.clone();
    for u in delta {
        reference.apply(u);
    }
    g.apply_batch(delta);
    assert_eq!(g.check_invariants(), Ok(()));
    assert_eq!(content(g), content(&reference));
}

/// Every generation's batch, normalized against the live graph, applied
/// to a clone that shares every slab with it and then to the live graph
/// itself; the run continues on whichever side the generation names.
fn normalized_generations_apply_per_unit(
    labels: &[u32],
    edges: &[(u32, u32)],
    generations: &[(bool, Vec<RawUnit>)],
) {
    let mut live = DynamicGraph::from_edges(labels_of(labels), &edges_of(edges)).unwrap();
    for (continue_on_the_clone, raw) in generations {
        let delta = batch_of(raw).normalize_against(&live);
        let mut clone = live.clone();
        assert_applies_per_unit(&mut clone, &delta);
        assert_applies_per_unit(&mut live, &delta);
        if *continue_on_the_clone {
            live = clone;
        }
    }
}

/// A dense digraph on two to four nodes, and three generations of long
/// batches whose ids reach one past it: several net deletes of one batch
/// share a list, so an earlier delete's swap-remove moves a later one's
/// entry, and an insert between them may refill the slot it left.
type DenseCase = ((Vec<u32>, Vec<(u32, u32)>), Vec<(bool, Vec<RawUnit>)>);

fn arb_dense(rng: &mut StdRng) -> DenseCase {
    let n = rng.gen_range(2u32..5);
    (graph_on(rng, n, 0..24), generations(rng, n + 1, 8..32))
}

#[test]
fn writes_to_one_version_never_show_in_another() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let generations = generations(rng, 16, 0..12);
        let mut live = DynamicGraph::from_edges(labels_of(&labels), &edges_of(&edges)).unwrap();
        // The same writes on a graph that is never cloned.
        let mut unversioned = live.clone();
        let mut frozen: Vec<(DynamicGraph, Observed)> = Vec::new();
        for (write_the_clone, raw) in &generations {
            let delta = batch_of(raw);
            let before = observe(&live);
            let mut other = live.clone();
            if *write_the_clone {
                std::mem::swap(&mut live, &mut other);
            }
            live.apply_batch(&delta);
            assert_eq!(&observe(&other), &before);
            unversioned.apply_batch(&delta);
            assert_eq!(observe(&live), observe(&unversioned));
            frozen.push((other, before));
        }
        assert_eq!(live.check_invariants(), Ok(()));
        // Drop the versions oldest first: each must still read as it did
        // when it was frozen, whatever was written or freed since.
        for (version, seen) in frozen {
            assert_eq!(version.check_invariants(), Ok(()));
            assert_eq!(observe(&version), seen);
        }
        assert_eq!(observe(&live), observe(&unversioned));
    });
}

#[test]
fn bulk_build_equals_unit_build() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let (labels, edges) = (labels_of(&labels), edges_of(&edges));
        let mut unit = DynamicGraph::with_capacity(labels.len(), edges.len());
        for &l in &labels {
            unit.add_node(l);
        }
        for &(u, v) in &edges {
            unit.insert_edge(u, v);
        }
        let bulk = DynamicGraph::from_edges(labels, &edges).unwrap();
        assert_eq!(bulk.check_invariants(), Ok(()));
        assert_eq!(observe(&bulk), observe(&unit));
        assert_eq!(
            bulk.edges().collect::<Vec<_>>(),
            unit.edges().collect::<Vec<_>>()
        );
    });
}

/// `sorted_edges` on `from_edges` output, and on both sides of every
/// clone after one of them took a batch: swap-removed and re-grown
/// lists, fresh nodes, self-loops.
#[test]
fn sorted_edges_equals_the_per_run_sort() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let generations = generations(rng, 16, 0..12);
        let bulk = DynamicGraph::from_edges(labels_of(&labels), &edges_of(&edges)).unwrap();
        assert_eq!(bulk.sorted_edges(), sorted_by_run(&bulk));
        let mut live = bulk.clone();
        for (write_the_clone, raw) in &generations {
            let mut other = live.clone();
            if *write_the_clone {
                std::mem::swap(&mut live, &mut other);
            }
            live.apply_batch(&batch_of(raw));
            assert_eq!(live.sorted_edges(), sorted_by_run(&live));
            assert_eq!(other.sorted_edges(), sorted_by_run(&other));
        }
        assert_eq!(bulk.sorted_edges(), sorted_by_run(&bulk));
    });
}

/// `apply_batch` of a delta normalized against the very graph it is
/// applied to, and of the same delta on a clone sharing its slabs.
#[test]
fn a_normalized_delta_applies_as_its_units() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let generations = generations(rng, 16, 0..12);
        normalized_generations_apply_per_unit(&labels, &edges, &generations);
    });
}

/// The same on dense graphs of two to four nodes: several deletes of
/// one batch hit one list.
#[test]
fn a_normalized_delta_on_a_dense_graph_applies_as_its_units() {
    cases(|rng| {
        let ((labels, edges), generations) = arb_dense(rng);
        normalized_generations_apply_per_unit(&labels, &edges, &generations);
    });
}

/// A normalized delta that meets a graph or a batch other than the one
/// it was normalized into: every such apply still equals its units
/// applied one by one.
#[test]
fn a_delta_off_its_graph_applies_as_its_units() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let generations = generations(rng, 16, 0..12);
        let mut live = DynamicGraph::from_edges(labels_of(&labels), &edges_of(&edges)).unwrap();
        for (_, raw) in &generations {
            let delta = batch_of(raw).normalize_against(&live);
            let units: Vec<Update> = delta.iter().copied().collect();
            let existing = |u: &&Update| {
                let (a, b) = u.edge();
                live.contains_node(a) && live.contains_node(b)
            };
            let insert = units.iter().filter(|u| u.is_insert()).find(existing);
            let delete = units.iter().find(|u| !u.is_insert());

            // A clone written after normalizing: the delta's first and last
            // units are already applied to it.
            let mut written = live.clone();
            for u in units.first().into_iter().chain(units.last()) {
                written.apply(u);
            }
            assert_applies_per_unit(&mut written, &delta);

            // The delta given one more unit: its first, a second time.
            if let Some(&first) = units.first() {
                let mut pushed = delta.clone();
                pushed.push(first);
                assert_applies_per_unit(&mut live.clone(), &pushed);
            }

            // The graph written by a unit primitive in between.
            let mut inserted = live.clone();
            let (a, b) = insert.map_or((NodeId(0), NodeId(1)), Update::edge);
            inserted.insert_edge(a, b);
            assert_applies_per_unit(&mut inserted, &delta);
            let mut deleted = live.clone();
            let (a, b) = delete.map_or((NodeId(0), NodeId(1)), Update::edge);
            deleted.delete_edge(a, b);
            assert_applies_per_unit(&mut deleted, &delta);
            let mut grown = live.clone();
            grown.add_node(Label(0));
            assert_applies_per_unit(&mut grown, &delta);

            // A different graph at the same epoch, |V| and |E|: every edge
            // reversed.
            let reversed: Vec<Edge> = live.edges().map(|(u, v)| (v, u)).collect();
            let labels: Vec<Label> = live.nodes().map(|v| live.label(v)).collect();
            let mut other = DynamicGraph::from_edges(labels, &reversed).unwrap();
            other.restore_epoch(live.epoch());
            assert_eq!(
                (other.epoch(), other.node_count(), other.edge_count()),
                (live.epoch(), live.node_count(), live.edge_count())
            );
            assert_applies_per_unit(&mut other, &delta);

            assert_applies_per_unit(&mut live, &delta);
        }
    });
}
