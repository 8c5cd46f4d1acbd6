//! Churn-shaped coverage of `IncScc`: a giant component whose hub fans fray
//! off and are fused back, batch after batch — the shape under which every
//! structural change must cost the smaller side and leave the giant alone.

use igc_core::IncrementalAlgorithm;
use igc_graph::graph::{graph_from, Edge};
use igc_graph::{DynamicGraph, NodeId, Update, UpdateBatch};
use igc_scc::{tarjan, IncScc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A strongly connected core — a ring over `0..core` — with `hubs` hub
/// nodes on it (`0, 1, …`), each carrying `fan` leaves tied to the component
/// by exactly `hub → leaf → hub`. Returns the graph and the fan edges.
fn giant_with_fans(core: u32, hubs: u32, fan: u32) -> (DynamicGraph, Vec<Edge>) {
    let n = core + hubs * fan;
    let mut edges: Vec<(u32, u32)> = (0..core).map(|i| (i, (i + 1) % core)).collect();
    let mut fans = Vec::new();
    for h in 0..hubs {
        for l in 0..fan {
            let leaf = core + h * fan + l;
            edges.push((h, leaf));
            edges.push((leaf, h));
            fans.push((NodeId(h), NodeId(leaf)));
            fans.push((NodeId(leaf), NodeId(h)));
        }
    }
    (graph_from(&vec![0; n as usize], &edges), fans)
}

fn apply(g: &mut DynamicGraph, inc: &mut IncScc, updates: Vec<Update>) {
    let delta = UpdateBatch::from_updates(updates).normalized();
    g.apply_batch(&delta);
    inc.apply(g, &delta);
}

/// Tarjan oracle plus the view's own audit (invariants, partition, and the
/// recount of every condensation edge's multiplicity).
fn audit(inc: &IncScc, g: &DynamicGraph, what: &str) {
    assert_eq!(inc.components(), tarjan(g).canonical(), "{what}");
    assert_eq!(
        igc_core::IncView::verify_against_batch(inc, g),
        Ok(()),
        "{what}"
    );
}

#[test]
fn fray_and_refuse_cycles_match_tarjan() {
    let core = 120u32;
    let (mut g, mut live) = giant_with_fans(core, 6, 12);
    let mut rng = StdRng::seed_from_u64(15);
    // Chords keep the core connected when ring edges go; they and the ring
    // are at stake too, so the giant itself fractures now and then.
    for _ in 0..core {
        let (u, v) = (rng.gen_range(0..core), rng.gen_range(0..core));
        if u != v && g.insert_edge(NodeId(u), NodeId(v)) {
            live.push((NodeId(u), NodeId(v)));
        }
    }
    live.extend((0..core).map(|i| (NodeId(i), NodeId((i + 1) % core))));
    let mut inc = IncScc::new(&g);
    audit(&inc, &g, "construction");
    assert_eq!(inc.scc_count(), 1);

    let mut removed: Vec<Edge> = Vec::new();
    for cycle in 0..24 {
        // Two fraying batches (mostly deletes, a few edges put back) …
        for fray in 0..2 {
            let mut updates = Vec::new();
            let mut back = Vec::new();
            for _ in 0..removed.len().min(4) {
                let e = removed.swap_remove(rng.gen_range(0..removed.len()));
                back.push(e);
                updates.push(Update::insert(e.0, e.1));
            }
            for _ in 0..30 {
                let e = live.swap_remove(rng.gen_range(0..live.len()));
                removed.push(e);
                updates.push(Update::delete(e.0, e.1));
            }
            live.append(&mut back);
            apply(&mut g, &mut inc, updates);
            audit(&inc, &g, &format!("cycle {cycle} fray {fray}"));
        }
        // … then one batch fuses everything back.
        let updates = removed.iter().map(|e| Update::insert(e.0, e.1)).collect();
        live.append(&mut removed);
        apply(&mut g, &mut inc, updates);
        audit(&inc, &g, &format!("cycle {cycle} re-fuse"));
        assert_eq!(inc.scc_count(), 1, "cycle {cycle}: everything fused back");
    }
}

#[test]
fn hub_keeps_its_scc_id_across_fray_and_refuse() {
    let (mut g, fans) = giant_with_fans(40, 2, 8);
    let mut inc = IncScc::new(&g);
    let hub = NodeId(0);
    let id = inc.scc_of(hub);

    // Fray: half of hub 0's leaves lose their way in, the other half their
    // way out; all eight fall off as singletons.
    let cut: Vec<Edge> = fans
        .iter()
        .copied()
        .filter(|&(u, v)| u == hub && v.0 % 2 == 0 || v == hub && u.0 % 2 == 1)
        .collect();
    assert_eq!(cut.len(), 8);
    let dels = cut.iter().map(|e| Update::delete(e.0, e.1)).collect();
    apply(&mut g, &mut inc, dels);
    audit(&inc, &g, "fray");
    assert_eq!(inc.scc_count(), 9);
    assert_eq!(inc.scc_of(hub), id, "the part that stayed keeps its id");
    assert_eq!(inc.scc_of(NodeId(17)), id);
    for &(u, v) in &cut {
        let leaf = if u == hub { v } else { u };
        assert_ne!(inc.scc_of(leaf), id);
    }

    // Re-fuse: the leaves come back into the surviving component.
    let ins = cut.iter().map(|e| Update::insert(e.0, e.1)).collect();
    apply(&mut g, &mut inc, ins);
    audit(&inc, &g, "re-fuse");
    assert_eq!(inc.scc_count(), 1);
    assert_eq!(
        inc.scc_of(hub),
        id,
        "the larger side of a merge keeps its id"
    );
    for &(u, v) in &cut {
        assert_eq!(inc.scc_of(u), id);
        assert_eq!(inc.scc_of(v), id);
    }
}

#[test]
fn merging_a_singleton_costs_the_singleton() {
    // A k-ring plus one node `s` with `s → 0`; inserting `0 → s` violates
    // the rank order and merges `s` into the ring.
    let work_for = |k: u32| {
        let mut edges: Vec<(u32, u32)> = (0..k).map(|i| (i, (i + 1) % k)).collect();
        edges.push((k, 0));
        let mut g = graph_from(&vec![0; k as usize + 1], &edges);
        let mut inc = IncScc::new(&g);
        let ring = inc.scc_of(NodeId(0));
        assert_eq!(inc.scc_count(), 2);
        inc.reset_work();
        apply(&mut g, &mut inc, vec![Update::insert(NodeId(0), NodeId(k))]);
        audit(&inc, &g, "merge");
        assert_eq!(inc.scc_count(), 1);
        assert_eq!(inc.scc_of(NodeId(k)), ring);
        assert_eq!(inc.last_metrics().affected, 1, "k = {k}");
        inc.work()
    };
    let small = work_for(50);
    assert!(small.total() > 0);
    assert_eq!(small, work_for(2_000));
}
