//! Deletion-storm regression: when more than half the graph's edges
//! retract in ONE coalesced batch, `IncRules` must touch only the facts
//! affected by the storm — never re-evaluate the stable region.
//!
//! Two disjoint regions share one graph and one attack-reachability view:
//!
//! * region **A** (the storm): an entry point feeding a vulnerable chain
//!   with chords and back-edges (support cycles included) — every A edge
//!   dies in the storm batch, which is > 50 % of all edges;
//! * region **B** (stable): an entry point feeding a long vulnerable
//!   chain — deep derivations that make from-scratch re-evaluation
//!   expensive, and that the storm must leave bit-identical *without
//!   visiting them*.
//!
//! The work-counter assertion is the point: the storm's maintenance work
//! must be a small multiple of region A's size and at least 5× below the
//! naive from-scratch re-evaluation of the post-storm graph.

use igc_bench::workloads::{attack_label, attack_program, ATTACK_ENTRY, ATTACK_VULN};
use igc_core::IncView;
use igc_graph::{DynamicGraph, NodeId, Update, UpdateBatch};
use igc_rules::{naive_fixpoint, Fact, IncRules};

const NB: u32 = 400; // region B chain length (node count - 1)
const NA: u32 = 200; // region A chain length (node count - 1)

/// Region B: entry at node 0, vulnerable chain 0→1→…→NB.
/// Region A: entry at NB+1, vulnerable chain plus chords and back-edges.
/// Returns the graph and the list of region-A edges (the storm set).
fn two_region_graph() -> (DynamicGraph, Vec<(NodeId, NodeId)>) {
    let mut g = DynamicGraph::new();
    g.add_node(ATTACK_ENTRY);
    for _ in 0..NB {
        g.add_node(ATTACK_VULN);
    }
    let a0 = NB + 1;
    g.add_node(ATTACK_ENTRY);
    for _ in 0..NA {
        g.add_node(ATTACK_VULN);
    }
    for i in 0..NB {
        g.insert_edge(NodeId(i), NodeId(i + 1));
    }
    let mut storm_edges = Vec::new();
    let mut a_edge = |g: &mut DynamicGraph, u: u32, v: u32| {
        g.insert_edge(NodeId(a0 + u), NodeId(a0 + v));
        storm_edges.push((NodeId(a0 + u), NodeId(a0 + v)));
    };
    for i in 0..NA {
        a_edge(&mut g, i, i + 1);
    }
    for i in 0..NA - 1 {
        a_edge(&mut g, i, i + 2); // chords: extra support everywhere
    }
    for i in (5..NA).step_by(5) {
        a_edge(&mut g, i, i - 5); // back-edges: genuine support cycles
    }
    (g, storm_edges)
}

#[test]
fn storm_touches_only_affected_facts() {
    let (program, exec, _) = attack_program();
    let (mut g, storm_edges) = two_region_graph();
    assert!(
        2 * storm_edges.len() > g.edge_count(),
        "the storm must retract more than half of all edges: {} of {}",
        storm_edges.len(),
        g.edge_count()
    );

    let mut view = IncRules::new(&g, program.clone());
    // Both chains fully executable: every node derives exec.
    assert_eq!(view.derived_count() as u32, NB + NA + 2);
    let b_facts_before: Vec<Fact> = view
        .facts_of(exec)
        .into_iter()
        .filter(|f| f.args()[0].0 <= NB)
        .collect();
    assert_eq!(b_facts_before.len() as u32, NB + 1);

    // The storm: every region-A edge out in one coalesced batch.
    let storm = UpdateBatch::from_updates(
        storm_edges
            .iter()
            .map(|&(u, v)| Update::delete(u, v))
            .collect(),
    );
    g.apply_batch(&storm);
    let before = view.work();
    view.apply(&g, &storm);
    let storm_work = view.work().since(&before).total();
    view.verify_against_batch(&g).expect("post-storm audit");

    // Exactly region A's derived frontier died (the A entry fact stays:
    // entry labels are base facts, not edge-supported).
    assert_eq!(view.last_delta().facts_removed, NA as u64);
    assert_eq!(view.derived_count() as u32, NB + 2);
    // Whatever the repair phase retracted to get there lies in region A:
    // it never over-deletes a fact the storm left derivable.
    let d = view.last_delta();
    assert!(d.overdeleted <= NA as u64, "{d:?}");
    assert_eq!(d.rederived, 0, "{d:?}");

    // Region B is bit-identical — same facts, same support counts.
    let b_facts_after: Vec<Fact> = view
        .facts_of(exec)
        .into_iter()
        .filter(|f| f.args()[0].0 <= NB)
        .collect();
    assert_eq!(b_facts_before, b_facts_after);

    // The work bound: the storm is maintained in work proportional to the
    // affected region, not by re-evaluating the database. The naive
    // oracle's from-scratch cost on the post-storm graph (dominated by
    // region B's deep chain) must dwarf it.
    let scratch = naive_fixpoint(&g, &program);
    assert_eq!(scratch.facts.len() as u32, NB + 2, "oracle agrees on size");
    let scratch_work = scratch.work.total();
    assert!(
        storm_work * 5 <= scratch_work,
        "storm work {storm_work} is not ≥5× below from-scratch {scratch_work}"
    );
}

#[test]
fn workload_labels_cover_all_roles() {
    // The windowed workload's deterministic labelling keeps every role
    // populated (the storm scenario above relies on entry + vuln only).
    let roles: Vec<_> = (0..32).map(attack_label).collect();
    assert!(roles.contains(&ATTACK_ENTRY));
    assert!(roles.contains(&ATTACK_VULN));
    assert!(roles.contains(&igc_bench::workloads::ATTACK_CRITICAL));
}
