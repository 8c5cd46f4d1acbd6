//! The versioning contract of [`DynamicGraph`]: a clone shares storage with
//! its original, and no write to either side is visible through the other;
//! the bulk constructor builds the graph the unit primitives build; a batch
//! applies as its units applied one by one, whichever graph it was
//! normalized against.

use igc_graph::graph::Edge;
use igc_graph::{DynamicGraph, Label, NodeId, Update, UpdateBatch};
use proptest::prelude::*;

const LABELS: u32 = 4;

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
fn arb_graph() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u32)>)> {
    (2u32..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..LABELS, n as usize),
            proptest::collection::vec((0..n, 0..n), 0..40),
        )
    })
}

/// One raw unit: delete or insert between ids that may lie a few past the
/// node count (fresh nodes, with default-labelled gap fillers below them),
/// each endpoint with or without an explicit label.
type RawUnit = (bool, u32, u32, u32, u32);

/// Three generations of batches, each with the side it is applied to.
fn arb_generations() -> impl Strategy<Value = Vec<(bool, Vec<RawUnit>)>> {
    let unit = (any::<bool>(), 0u32..16, 0u32..16, 0..=LABELS, 0..=LABELS);
    proptest::collection::vec((any::<bool>(), proptest::collection::vec(unit, 0..12)), 3)
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
    prop_assert_eq!(g.check_invariants(), Ok(()));
    prop_assert_eq!(content(g), content(&reference));
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

fn arb_dense() -> impl Strategy<Value = DenseCase> {
    (2u32..5).prop_flat_map(|n| {
        let unit = (any::<bool>(), 0..n + 1, 0..n + 1, 0..=LABELS, 0..=LABELS);
        (
            (
                proptest::collection::vec(0..LABELS, n as usize),
                proptest::collection::vec((0..n, 0..n), 0..24),
            ),
            proptest::collection::vec((any::<bool>(), proptest::collection::vec(unit, 8..32)), 3),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn writes_to_one_version_never_show_in_another(
        (labels, edges) in arb_graph(),
        generations in arb_generations(),
    ) {
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
            prop_assert_eq!(&observe(&other), &before);
            unversioned.apply_batch(&delta);
            prop_assert_eq!(observe(&live), observe(&unversioned));
            frozen.push((other, before));
        }
        prop_assert_eq!(live.check_invariants(), Ok(()));
        // Drop the versions oldest first: each must still read as it did
        // when it was frozen, whatever was written or freed since.
        for (version, seen) in frozen {
            prop_assert_eq!(version.check_invariants(), Ok(()));
            prop_assert_eq!(observe(&version), seen);
        }
        prop_assert_eq!(observe(&live), observe(&unversioned));
    }

    #[test]
    fn bulk_build_equals_unit_build(
        (labels, edges) in arb_graph(),
    ) {
        let (labels, edges) = (labels_of(&labels), edges_of(&edges));
        let mut unit = DynamicGraph::with_capacity(labels.len(), edges.len());
        for &l in &labels {
            unit.add_node(l);
        }
        for &(u, v) in &edges {
            unit.insert_edge(u, v);
        }
        let bulk = DynamicGraph::from_edges(labels, &edges).unwrap();
        prop_assert_eq!(bulk.check_invariants(), Ok(()));
        prop_assert_eq!(observe(&bulk), observe(&unit));
        prop_assert_eq!(bulk.edges().collect::<Vec<_>>(), unit.edges().collect::<Vec<_>>());
    }

    /// `sorted_edges` on `from_edges` output, and on both sides of every
    /// clone after one of them took a batch: swap-removed and re-grown
    /// lists, fresh nodes, self-loops.
    #[test]
    fn sorted_edges_equals_the_per_run_sort(
        (labels, edges) in arb_graph(),
        generations in arb_generations(),
    ) {
        let bulk = DynamicGraph::from_edges(labels_of(&labels), &edges_of(&edges)).unwrap();
        prop_assert_eq!(bulk.sorted_edges(), sorted_by_run(&bulk));
        let mut live = bulk.clone();
        for (write_the_clone, raw) in &generations {
            let mut other = live.clone();
            if *write_the_clone {
                std::mem::swap(&mut live, &mut other);
            }
            live.apply_batch(&batch_of(raw));
            prop_assert_eq!(live.sorted_edges(), sorted_by_run(&live));
            prop_assert_eq!(other.sorted_edges(), sorted_by_run(&other));
        }
        prop_assert_eq!(bulk.sorted_edges(), sorted_by_run(&bulk));
    }

    /// `apply_batch` of a delta normalized against the very graph it is
    /// applied to, and of the same delta on a clone sharing its slabs.
    #[test]
    fn a_normalized_delta_applies_as_its_units(
        (labels, edges) in arb_graph(),
        generations in arb_generations(),
    ) {
        normalized_generations_apply_per_unit(&labels, &edges, &generations);
    }

    /// The same on dense graphs of two to four nodes: several deletes of
    /// one batch hit one list.
    #[test]
    fn a_normalized_delta_on_a_dense_graph_applies_as_its_units(
        ((labels, edges), generations) in arb_dense(),
    ) {
        normalized_generations_apply_per_unit(&labels, &edges, &generations);
    }

    /// A normalized delta that meets a graph or a batch other than the one
    /// it was normalized into: every such apply still equals its units
    /// applied one by one.
    #[test]
    fn a_delta_off_its_graph_applies_as_its_units(
        (labels, edges) in arb_graph(),
        generations in arb_generations(),
    ) {
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
            prop_assert_eq!(
                (other.epoch(), other.node_count(), other.edge_count()),
                (live.epoch(), live.node_count(), live.edge_count())
            );
            assert_applies_per_unit(&mut other, &delta);

            assert_applies_per_unit(&mut live, &delta);
        }
    }
}
