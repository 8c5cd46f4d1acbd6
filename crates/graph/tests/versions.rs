//! The versioning contract of [`DynamicGraph`]: a clone shares storage with
//! its original, and no write to either side is visible through the other;
//! the bulk constructor builds the graph the unit primitives build.

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
}
