//! Churn-shaped coverage of `IncScc`: a giant component whose hub fans fray
//! off and are fused back, batch after batch — the shape under which every
//! structural change must cost the smaller side and leave the giant alone.

use igc_core::{IncView, WorkStats};
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
        let before = inc.work();
        apply(&mut g, &mut inc, vec![Update::insert(NodeId(0), NodeId(k))]);
        audit(&inc, &g, "merge");
        assert_eq!(inc.scc_count(), 1);
        assert_eq!(inc.scc_of(NodeId(k)), ring);
        assert_eq!(inc.last_metrics().affected, 1, "k = {k}");
        inc.work().since(&before)
    };
    let small = work_for(50);
    assert!(small.total() > 0);
    assert_eq!(small, work_for(2_000));
}

// ---------------------------------------------------------------------
// The certificate: what a deletion costs depends on what it breaks.
// ---------------------------------------------------------------------

/// Hub nodes of [`ring_with_chords`]: pairwise non-adjacent on the ring.
const HUBS: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// A ring over `0..n` whose node 0 is the best-connected member — so the
/// certificate roots there — with `0 ⇄ h` for every hub `h` and chords
/// `h_i → h_{i+1}`, `h_i → h_{i+2}` among the hubs. Every hub is a child
/// of the root in both BFS trees, so no chord is a tree edge, whatever `n`.
/// Returns the graph (plus `extra` isolated nodes) and the chords.
fn ring_with_chords(n: u32, extra: u32) -> (DynamicGraph, Vec<Edge>) {
    assert!(n > 13);
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for h in HUBS {
        edges.push((0, h));
        edges.push((h, 0));
    }
    let mut chords = Vec::new();
    for (i, &h) in HUBS.iter().enumerate() {
        for step in [1, 2] {
            let to = HUBS[(i + step) % HUBS.len()];
            edges.push((h, to));
            chords.push((NodeId(h), NodeId(to)));
        }
    }
    (graph_from(&vec![0; (n + extra) as usize], &edges), chords)
}

fn delete(g: &mut DynamicGraph, inc: &mut IncScc, edges: &[Edge]) {
    let dels = edges.iter().map(|e| Update::delete(e.0, e.1)).collect();
    apply(g, inc, dels);
}

fn insert(g: &mut DynamicGraph, inc: &mut IncScc, edges: &[(u32, u32)]) {
    let ins = edges
        .iter()
        .map(|&(u, v)| Update::insert(NodeId(u), NodeId(v)))
        .collect();
    apply(g, inc, ins);
}

/// The giant's certificate is built by its first intra deletion; every test
/// below starts from a warm one. Returns the work done so far, which a
/// test's measurement starts from.
fn warm(g: &mut DynamicGraph, inc: &mut IncScc, chord: Edge) -> WorkStats {
    delete(g, inc, &[chord]);
    assert_eq!(
        inc.last_delta().fallbacks,
        1,
        "the first deletion certifies"
    );
    audit(inc, g, "warm");
    inc.work()
}

#[test]
fn non_tree_deletions_cost_the_same_at_any_giant_size() {
    let work_for = |n: u32| {
        let (mut g, chords) = ring_with_chords(n, 0);
        let mut inc = IncScc::new(&g);
        let warmed = warm(&mut g, &mut inc, chords[0]);
        delete(&mut g, &mut inc, &chords[1..9]);
        audit(&inc, &g, "chords gone");
        assert_eq!(inc.scc_count(), 1);
        assert_eq!(
            inc.last_delta(),
            Default::default(),
            "n = {n}: no tree edge hit"
        );
        inc.work().since(&warmed)
    };
    let small = work_for(50);
    assert!(small.total() > 0);
    assert_eq!(small, work_for(2_000));
}

#[test]
fn replaced_parent_costs_the_orphans_neighbourhood() {
    // `x` hangs below hub 2 in the out-tree (2 is scanned before 4) and has
    // hub 4 as its other way in; `x → 0` keeps it in the component.
    let run = |n: u32| {
        let (mut g, chords) = ring_with_chords(n, 1);
        let x = n;
        let mut inc = IncScc::new(&g);
        insert(&mut g, &mut inc, &[(2, x), (4, x), (x, 0)]);
        assert_eq!(inc.scc_count(), 1);
        let warmed = warm(&mut g, &mut inc, chords[0]);
        delete(&mut g, &mut inc, &[(NodeId(2), NodeId(x))]);
        audit(&inc, &g, "re-attached");
        assert_eq!(inc.scc_count(), 1);
        let d = inc.last_delta();
        assert_eq!(
            (d.tree_hits, d.reattached, d.carved, d.fallbacks),
            (1, 1, 0, 0),
            "n = {n}"
        );
        inc.work().since(&warmed)
    };
    let small = run(50);
    // One deletion classified and looked up, one orphan, one candidate, a
    // walk of two nodes: nothing that grows with the orphan's surroundings.
    assert!(small.total() <= 12, "{small:?}");
    assert_eq!(small, run(2_000));
}

#[test]
fn orphans_whose_candidates_hang_below_each_other() {
    // Below the root: x → x1 and y → y1, crossed by x1 → y and y1 → x; x1
    // and y1 lead back to the root. Cutting both 0 → x and 0 → y leaves each
    // orphan with a candidate in the other's subtree only.
    let build = |rescue: bool| {
        let n = 30;
        let (mut g, chords) = ring_with_chords(n, 4);
        let [x, x1, y, y1] = [n, n + 1, n + 2, n + 3];
        let mut inc = IncScc::new(&g);
        let mut links = vec![
            (0, x),
            (x, x1),
            (0, y),
            (y, y1),
            (x1, y),
            (y1, x),
            (x1, 0),
            (y1, 0),
        ];
        if rescue {
            // A way into y's subtree from outside both.
            links.push((12, y1));
        }
        insert(&mut g, &mut inc, &links);
        assert_eq!(inc.scc_count(), 1);
        warm(&mut g, &mut inc, chords[0]);
        delete(
            &mut g,
            &mut inc,
            &[(NodeId(0), NodeId(x)), (NodeId(0), NodeId(y))],
        );
        audit(&inc, &g, "both cut");
        (inc, NodeId(x))
    };
    // Nothing else leads in: the four are cut off together, as one
    // component (x → x1 → y → y1 → x) that still reaches the giant.
    let (inc, x) = build(false);
    assert_eq!(inc.scc_count(), 2);
    assert_ne!(inc.scc_of(x), inc.scc_of(NodeId(0)));
    let d = inc.last_delta();
    assert_eq!((d.tree_hits, d.carved, d.fallbacks), (2, 4, 0));
    // One outside way in re-attaches all four; nothing is carved.
    let (inc, x) = build(true);
    assert_eq!(inc.scc_count(), 1);
    assert_eq!(inc.scc_of(x), inc.scc_of(NodeId(0)));
    let d = inc.last_delta();
    assert_eq!((d.tree_hits, d.carved, d.fallbacks), (2, 0, 0));
    assert!(d.reattached >= 2);
}

#[test]
fn fray_carve_refuse_under_a_warm_certificate_keeps_the_hubs_id() {
    let (mut g, fans) = giant_with_fans(40, 2, 8);
    let mut inc = IncScc::new(&g);
    let hub = NodeId(0);
    let id = inc.scc_of(hub);
    let cut: Vec<Edge> = fans
        .iter()
        .copied()
        .filter(|&(u, v)| u == hub && v.0 % 2 == 0 || v == hub && u.0 % 2 == 1)
        .collect();
    for round in 0..3 {
        delete(&mut g, &mut inc, &cut);
        audit(&inc, &g, &format!("round {round} fray"));
        assert_eq!(inc.scc_count(), 9);
        assert_eq!(inc.scc_of(hub), id);
        let d = inc.last_delta();
        assert_eq!(d.carved, 8, "round {round}: the leaves, nothing else");
        // Only the first round has to certify the giant; after that the
        // certificate is patched by each merge and split.
        assert_eq!(d.fallbacks, u64::from(round == 0), "round {round}");
        let ins = cut.iter().map(|e| Update::insert(e.0, e.1)).collect();
        apply(&mut g, &mut inc, ins);
        audit(&inc, &g, &format!("round {round} re-fuse"));
        assert_eq!(inc.scc_count(), 1);
        assert_eq!(inc.scc_of(hub), id);
    }
}

#[test]
fn a_repair_over_budget_rebuilds_a_valid_certificate() {
    // Node 0 feeds `k` nodes z (ids 1..=k) and, through `q`, a spine of `m`
    // nodes; everything leads back to 0. Each z's other way in is from deep
    // down the spine. Cutting every 0 → z and the spine's own tree edge in
    // one batch makes each z walk the whole spine up to an orphan: k·m
    // steps, past the budget of 5·|Vc|.
    let (k, m) = (30u32, 120u32);
    let head = k + 1;
    let q = head + m;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for z in 1..=k {
        edges.push((0, z));
        edges.push((z, 0));
        edges.push((head + m - z, z));
    }
    edges.push((0, head));
    for s in head..head + m - 1 {
        edges.push((s, s + 1));
    }
    for s in head..head + m {
        edges.push((s, 0));
    }
    edges.extend([(0, q), (q, head), (q, 0), (0, q + 1), (q + 1, 0)]);
    let mut g = graph_from(&vec![0; q as usize + 2], &edges);
    let mut inc = IncScc::new(&g);
    assert_eq!(inc.scc_count(), 1);
    warm(&mut g, &mut inc, (NodeId(0), NodeId(q + 1)));
    assert_eq!(inc.scc_count(), 2);

    let mut cut: Vec<Edge> = (1..=k).map(|z| (NodeId(0), NodeId(z))).collect();
    cut.push((NodeId(0), NodeId(head)));
    delete(&mut g, &mut inc, &cut);
    // Still one component (0 → q → spine → every z → 0) …
    audit(&inc, &g, "over budget");
    assert_eq!(inc.scc_count(), 2);
    let d = inc.last_delta();
    assert_eq!((d.fallbacks, d.carved), (1, 0), "{d:?}");
    // … under a certificate that works: the next deletions are repaired
    // without another rebuild, and a real cut is found.
    delete(&mut g, &mut inc, &[(NodeId(q), NodeId(0))]);
    assert_eq!(inc.last_delta().fallbacks, 0);
    delete(&mut g, &mut inc, &[(NodeId(q), NodeId(head))]);
    audit(&inc, &g, "spine cut off");
    assert_eq!(inc.last_delta().fallbacks, 0);
    assert!(inc.scc_count() > 2);
}
