//! Regular path queries over an evolving knowledge graph — the paper's
//! Section 5.2 setting (relative boundedness).
//!
//! The graph mimics a DBpedia-style knowledge base (495 Zipf-distributed
//! type labels). The query anchors at a mid-tail type and traverses the two
//! most common types under a Kleene star, like "from a `Film`, follow
//! `Person`/`Work` chains". The maintained product-graph markings answer
//! the query after every change, and the printed AFF statistics show the
//! relative-boundedness claim: incremental work tracks |AFF|, not |G|.
//!
//! ```text
//! cargo run --release --example knowledge_graph
//! ```

use incgraph::graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;
use std::time::Instant;

fn main() {
    let mut g = uniform_graph(12_000, 112_000, 495, 11);
    println!(
        "knowledge graph: {} entities, {} facts, 495 types",
        g.node_count(),
        g.edge_count()
    );

    // l12 · (l0 + l1)* · l2 — anchored traversal (see igc-bench workloads).
    let mut labels = LabelInterner::new();
    for i in 0..495 {
        labels.intern(&format!("l{i}"));
    }
    let q = Regex::parse("l12.(l0+l1)*.l2", &mut labels).unwrap();
    let t0 = Instant::now();
    let mut rpq = IncRpq::new(&g, &q);
    println!(
        "batch evaluation: {} matches, {} markings, {:.2?}",
        rpq.answer().len(),
        rpq.mark_count(),
        t0.elapsed()
    );

    for round in 1..=8 {
        let delta = random_update_batch(&g, 500, 0.5, 42 + round);
        g.apply_batch(&delta);
        let t0 = Instant::now();
        rpq.apply(&g, &delta);
        let dt = t0.elapsed();
        let m = rpq.last_metrics();
        println!(
            "round {round}: |ΔG| = {:3}  |ΔO| = {:4}  |AFF| = {:6}  response {dt:>9.2?}",
            m.input_updates, m.output_changes, m.affected
        );
    }

    // Verify against a fresh batch run: the same answer and the same
    // marked configurations, and every marking's rank and supports keep
    // their promise (the view's own audit).
    let fresh = IncRpq::new(&g, &q);
    assert_eq!(rpq.sorted_answer(), fresh.sorted_answer());
    assert_eq!(rpq.marking_keys(), fresh.marking_keys());
    rpq.verify_against_batch(&g).unwrap();
    println!("final answer and auxiliary markings verified against batch ✓");
}
