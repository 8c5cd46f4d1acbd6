//! A seeded soak of `IncRpq`'s ranks: every `apply` is audited.
//!
//! Six queries, forty small random graphs each, thirty batches per graph at
//! delete shares cycling through 0.2, 0.5 and 0.8 — 7 200 applies — plus
//! one unit-at-a-time run per graph and query. After each one the view's
//! audit holds the answer to batch `RPQ_NFA`, the marking keys to a fresh
//! construction's, and every marking to its promise: a non-seed marking of
//! rank `r` lists exactly the markings of rank `< r` it is one product edge
//! from, and at least one. No `affected` flag may be left behind.

use igc_core::incremental::apply_one_by_one;
use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::LabelInterner;
use igc_nfa::Regex;
use igc_rpq::IncRpq;

const QUERIES: [&str; 6] = [
    "l0.(l1+l2)*.l2",
    "l0*.l1",
    "(l0.l1)*.l2",
    "l1.(l0+l1)*",
    "l0.l1.l2",
    "(l0+l1+l2)*.l0.(l1.l2)*",
];
const GRAPHS: u64 = 40;
const BATCHES: u64 = 30;
const DELETE_SHARES: [f64; 3] = [0.2, 0.5, 0.8];

#[test]
fn every_apply_keeps_ranks_and_supports_complete() {
    let mut audited = 0u64;
    for (qi, expr) in QUERIES.iter().enumerate() {
        let mut labels = LabelInterner::new();
        for i in 0..3 {
            labels.intern(&format!("l{i}"));
        }
        let q = Regex::parse(expr, &mut labels).unwrap();
        for gi in 0..GRAPHS {
            let seed = qi as u64 * 1_000 + gi;
            let nodes = 12 + (gi % 9) as usize;
            let mut g = uniform_graph(nodes, nodes * (2 + (gi % 3) as usize), 3, seed);
            let mut inc = IncRpq::new(&g, &q);
            for b in 0..BATCHES {
                let share = DELETE_SHARES[(b % 3) as usize];
                let count = 1 + ((seed + b) % 8) as usize;
                let delta = random_update_batch(&g, count, 1.0 - share, seed * 100 + b);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
                if let Err(e) = inc.verify_against_batch(&g) {
                    panic!("{expr}, graph {gi}, batch {b}: {e}");
                }
                audited += 1;
            }
            let delta = random_update_batch(&g, 12, 0.5, seed * 100 + BATCHES);
            apply_one_by_one(&mut inc, &mut g, &delta);
            if let Err(e) = inc.verify_against_batch(&g) {
                panic!("{expr}, graph {gi}, unit run: {e}");
            }
        }
    }
    assert_eq!(audited, QUERIES.len() as u64 * GRAPHS * BATCHES);
}
