//! One function per figure/table of the paper's evaluation.
//!
//! Each data point measures, from a precomputed auxiliary state:
//! * the grouped incremental algorithm (`Inc*`),
//! * the one-update-at-a-time variant (`Inc*ⁿ`),
//! * the batch algorithm recomputing on `G ⊕ ΔG` from scratch,
//! * for SCC additionally the dynamic baseline `DynSCC`, for RPQ the
//!   rebuild of `IncRpq`'s state beside the paper's `RPQ_NFA`,
//! * for rules, a semi-naive rebuild and the naive fixpoint in place of one
//!   batch algorithm.
//!
//! With `verify` on, every point cross-checks the incremental answer
//! against the batch answer on the updated graph — the harness doubles as
//! an integration test at experiment scale.

use crate::harness::{pct, time, Counters, Row, Series, Times};
use crate::workloads::{self, WindowedStream, GRAPH_SEED};
use igc_core::incremental::apply_one_by_one;
use igc_core::work::WorkStats;
use igc_core::IncView;
use igc_graph::generator::{random_update_batch, Dataset};
use igc_graph::{DynamicGraph, UpdateBatch};
use igc_iso::{IncIso, Pattern};
use igc_kws::{batch as kws_batch, IncKws, KwsQuery};
use igc_nfa::{build_nfa, Regex};
use igc_rpq::{batch as rpq_batch, IncRpq};
use igc_rules::{naive_fixpoint, IncRules};
use igc_scc::{tarjan, DynScc, IncScc};

/// Experiment configuration shared by all figures.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale (1.0 = the laptop-sized full datasets).
    pub scale: f64,
    /// Cross-check incremental answers against batch recomputation.
    pub verify: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.15,
            verify: true,
        }
    }
}

/// The |ΔG| fractions of Exp-1 (5 % … 40 % of |G|'s edges).
pub const DELTAG_FRACS: [f64; 8] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40];

fn delta_for(g: &DynamicGraph, frac: f64, rho_insert: f64, salt: u64) -> UpdateBatch {
    let count = ((g.edge_count() as f64) * frac).round() as usize;
    random_update_batch(g, count.max(1), rho_insert, GRAPH_SEED ^ salt)
}

// ---------------------------------------------------------------------
// Per-class measurement points
// ---------------------------------------------------------------------

/// The two incremental arms every point opens with, each on its own clone
/// of `base` and `g`: the grouped `apply` on `G ⊕ ΔG`, then the
/// one-update-at-a-time variant. Returns the updated graph, both maintained
/// states and both times in seconds.
fn inc_arms<A: IncView + Clone>(
    g: &DynamicGraph,
    base: &A,
    delta: &UpdateBatch,
) -> (DynamicGraph, A, A, f64, f64) {
    let mut inc = base.clone();
    let mut g_inc = g.clone();
    let (_, t_inc) = time(|| {
        g_inc.apply_batch(delta);
        inc.apply(&g_inc, delta);
    });

    let mut incn = base.clone();
    let mut g_n = g.clone();
    let (_, t_incn) = time(|| apply_one_by_one(&mut incn, &mut g_n, delta));
    (g_inc, inc, incn, t_inc, t_incn)
}

/// Measure KWS algorithms on one `(G, ΔG)` instance.
pub fn kws_point(g: &DynamicGraph, q: &KwsQuery, delta: &UpdateBatch, verify: bool) -> Times {
    let (g_inc, inc, incn, t_inc, t_incn) = inc_arms(g, &IncKws::new(g, q.clone()), delta);

    // The batch baseline pays the full-graph O(m(V log V + E)) cost a
    // general BLINKS-style engine pays (see kws_batch::compute_kdist_baseline).
    let (_, t_batch) = time(|| {
        let mut w = WorkStats::new();
        kws_batch::compute_kdist_baseline(&g_inc, q, &mut w)
    });
    if verify {
        let fresh = IncKws::new(&g_inc, q.clone());
        assert_eq!(
            inc.answer_signature(),
            fresh.answer_signature(),
            "IncKWS diverged from batch"
        );
        assert_eq!(incn.answer_signature(), fresh.answer_signature());
    }
    vec![("IncKWS", t_inc), ("IncKWSn", t_incn), ("BLINKS", t_batch)]
}

/// Measure RPQ algorithms on one instance; the counters are `IncRPQ`'s
/// [`RpqDelta`](igc_rpq::RpqDelta) for the grouped `apply`.
pub fn rpq_point(
    g: &DynamicGraph,
    q: &Regex,
    delta: &UpdateBatch,
    verify: bool,
) -> (Times, Counters) {
    let (g_inc, inc, incn, t_inc, t_incn) = inc_arms(g, &IncRpq::new(g, q), delta);

    // The batch column is the paper's RPQ_NFA: the answer-only product
    // traversal on G ⊕ ΔG. `rebuild` builds the full queryable state
    // (traversal + markings) from scratch, the response a system keeping
    // `IncRpq`'s state would pay instead.
    let nfa = build_nfa(q);
    let mut w = WorkStats::new();
    let (plain, t_batch) = time(|| rpq_batch::evaluate(&g_inc, &nfa, &mut w));
    let (fresh, t_rebuild) = time(|| IncRpq::with_nfa(&g_inc, nfa));
    if verify {
        let batch = rpq_batch::sorted_answer(&plain);
        assert_eq!(inc.sorted_answer(), batch, "IncRPQ diverged from batch");
        assert_eq!(incn.sorted_answer(), batch);
        assert_eq!(fresh.sorted_answer(), batch);
    }
    let d = inc.last_delta();
    (
        vec![
            ("IncRPQ", t_inc),
            ("IncRPQn", t_incn),
            ("RPQnfa", t_batch),
            ("rebuild", t_rebuild),
        ],
        vec![
            ("flagged", d.flagged),
            ("resettled", d.resettled),
            ("created", d.created),
            ("removed", d.removed),
        ],
    )
}

/// Measure SCC algorithms on one instance; the counters are `IncSCC`'s
/// [`SccDelta`](igc_scc::SccDelta) for the grouped `apply`.
pub fn scc_point(g: &DynamicGraph, delta: &UpdateBatch, verify: bool) -> (Times, Counters) {
    let (g_inc, inc, incn, t_inc, t_incn) = inc_arms(g, &IncScc::new(g), delta);

    let (fresh, t_batch) = time(|| tarjan(&g_inc));

    let mut dyn_scc = DynScc::new(g);
    let mut g_d = g.clone();
    let (_, t_dyn) = time(|| apply_one_by_one(&mut dyn_scc, &mut g_d, delta));

    if verify {
        let canon = fresh.canonical();
        assert_eq!(inc.components(), canon, "IncSCC diverged from Tarjan");
        assert_eq!(incn.components(), canon);
        assert_eq!(dyn_scc.components(), canon);
    }
    let d = inc.last_delta();
    (
        vec![
            ("IncSCC", t_inc),
            ("IncSCCn", t_incn),
            ("Tarjan", t_batch),
            ("DynSCC", t_dyn),
        ],
        vec![
            ("tree_hits", d.tree_hits),
            ("reattached", d.reattached),
            ("carved", d.carved),
            ("fallbacks", d.fallbacks),
        ],
    )
}

/// Measure ISO algorithms on one instance.
pub fn iso_point(g: &DynamicGraph, p: &Pattern, delta: &UpdateBatch, verify: bool) -> Times {
    let (g_inc, inc, incn, t_inc, t_incn) = inc_arms(g, &IncIso::new(g, p.clone()), delta);

    // As with RPQ, the batch column rebuilds the indexed match set (VF2
    // enumeration + the edge index the maintained state carries).
    let (fresh, t_batch) = time(|| IncIso::new(&g_inc, p.clone()));
    if verify {
        assert_eq!(
            inc.sorted_matches(),
            fresh.sorted_matches(),
            "IncISO diverged from VF2"
        );
        assert_eq!(incn.sorted_matches(), fresh.sorted_matches());
    }
    vec![("IncISO", t_inc), ("IncISOn", t_incn), ("VF2", t_batch)]
}

/// Measure rule maintenance on one instance, from a warm view `base` of
/// `g`: `IncRules`, grouped and one update at a time, against a semi-naive
/// rebuild and the naive fixpoint; the counters are `IncRules`'
/// [`RulesDelta`](igc_rules::RulesDelta) for the grouped `apply`.
pub fn rules_point(
    g: &DynamicGraph,
    base: &IncRules,
    delta: &UpdateBatch,
    verify: bool,
) -> (Times, Counters) {
    let (g_inc, inc, incn, t_inc, t_incn) = inc_arms(g, base, delta);

    let (fresh, t_semi) = time(|| IncRules::new(&g_inc, base.program().clone()));
    let (oracle, t_naive) = time(|| naive_fixpoint(&g_inc, base.program()));
    if verify {
        inc.verify_against_batch(&g_inc)
            .expect("IncRules diverged from the naive fixpoint");
        assert_eq!(incn.sorted_facts(), oracle.sorted_facts());
        assert_eq!(fresh.sorted_facts(), oracle.sorted_facts());
    }
    let d = inc.last_delta();
    (
        vec![
            ("IncRules", t_inc),
            ("IncRulesn", t_incn),
            ("SemiNaive", t_semi),
            ("Naive", t_naive),
        ],
        vec![
            ("suspects", d.suspects),
            ("overdeleted", d.overdeleted),
            ("rederived", d.rederived),
            ("removed", d.facts_removed),
            ("added", d.facts_added),
        ],
    )
}

/// A point of a class that keeps no maintenance counters.
fn plain(times: Times) -> (Times, Counters) {
    (times, Counters::new())
}

/// Which of the paper's query classes a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Keyword search.
    Kws,
    /// Regular path queries.
    Rpq,
    /// Strongly connected components.
    Scc,
    /// Subgraph isomorphism.
    Iso,
}

impl Class {
    const ALL: [Class; 4] = [Class::Kws, Class::Rpq, Class::Scc, Class::Iso];

    /// The class's name in the paper's figure captions.
    fn name(self) -> &'static str {
        match self {
            Class::Kws => "KWS",
            Class::Rpq => "RPQ",
            Class::Scc => "SCC",
            Class::Iso => "ISO",
        }
    }

    /// One point of this class with the paper's default query for it
    /// (Exp-1 / Exp-3) on `g`, a graph of dataset `data`, as the row at `x`.
    fn row(
        self,
        x: String,
        g: &DynamicGraph,
        data: Dataset,
        delta: &UpdateBatch,
        verify: bool,
    ) -> Row {
        let (times, counters) = match self {
            Class::Kws => plain(kws_point(g, &workloads::default_kws(), delta, verify)),
            Class::Rpq => rpq_point(g, &workloads::default_rpq(data.alphabet()), delta, verify),
            Class::Scc => scc_point(g, delta, verify),
            Class::Iso => plain(iso_point(g, &workloads::default_iso(), delta, verify)),
        };
        Row { x, times, counters }
    }
}

// ---------------------------------------------------------------------
// Figure 8(a)–(i): varying |ΔG|
// ---------------------------------------------------------------------

/// Generic Exp-1 sweep: vary |ΔG| from 5 % to 40 % of |E| at ρ = 1.
pub fn fig8_deltag(panel: char, class: Class, data: Dataset, cfg: &ExpConfig) -> Series {
    let caption = match data {
        Dataset::DbpediaLike => "DBpedia-like",
        Dataset::LivejournalLike => "liveJ-like",
        Dataset::Synthetic => "Synthetic",
    };
    let g = workloads::dataset(data, cfg.scale);
    let mut rows = Vec::new();
    for (i, &frac) in DELTAG_FRACS.iter().enumerate() {
        let delta = delta_for(&g, frac, 0.5, i as u64);
        rows.push(class.row(pct(frac), &g, data, &delta, cfg.verify));
    }
    Series {
        title: format!("Fig 8({panel}) Varying ΔG, {} ({caption})", class.name()),
        x_label: "|ΔG|/|G|",
        unit: "s",
        rows,
    }
}

// ---------------------------------------------------------------------
// Figure 8(j)–(l): varying the query
// ---------------------------------------------------------------------

/// Fig 8(j): KWS queries `(m, b)` from `(2,1)` to `(6,5)`, |ΔG| = 10 %.
pub fn fig8j(cfg: &ExpConfig) -> Series {
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let delta = delta_for(&g, 0.10, 0.5, 99);
    let mut rows = Vec::new();
    for (m, b) in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)] {
        let q = workloads::kws_query(m, b);
        rows.push(Row {
            x: format!("({m},{b})"),
            times: kws_point(&g, &q, &delta, cfg.verify),
            counters: Counters::new(),
        });
    }
    Series {
        title: "Fig 8(j) Varying Q, KWS (DBpedia-like)".into(),
        x_label: "(m,b)",
        unit: "s",
        rows,
    }
}

/// Fig 8(k): RPQ sizes 3…7, |ΔG| = 10 %.
pub fn fig8k(cfg: &ExpConfig) -> Series {
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let delta = delta_for(&g, 0.10, 0.5, 98);
    let mut rows = Vec::new();
    for size in 3..=7 {
        let q = workloads::rpq_query(size, Dataset::DbpediaLike.alphabet());
        let (times, counters) = rpq_point(&g, &q, &delta, cfg.verify);
        rows.push(Row {
            x: format!("{size}"),
            times,
            counters,
        });
    }
    Series {
        title: "Fig 8(k) Varying Q, RPQ (DBpedia-like)".into(),
        x_label: "|Q|",
        unit: "s",
        rows,
    }
}

/// Fig 8(l): ISO patterns `(3,5,1)…(7,9,5)`, |ΔG| = 10 %.
pub fn fig8l(cfg: &ExpConfig) -> Series {
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let delta = delta_for(&g, 0.10, 0.5, 97);
    let mut rows = Vec::new();
    for n in 3..=7 {
        let p = workloads::iso_pattern(n);
        rows.push(Row {
            x: format!("({},{},{})", n, p.edge_count(), n - 2),
            times: iso_point(&g, &p, &delta, cfg.verify),
            counters: Counters::new(),
        });
    }
    Series {
        title: "Fig 8(l) Varying Q, ISO (DBpedia-like)".into(),
        x_label: "(|VQ|,|EQ|,dQ)",
        unit: "s",
        rows,
    }
}

// ---------------------------------------------------------------------
// Figure 8(m)–(p): varying |G|
// ---------------------------------------------------------------------

/// Generic Exp-3 sweep: scale factors 0.2…1.0 of the synthetic dataset with
/// a fixed absolute |ΔG| (10 % of the full-scale edge count, mirroring the
/// paper's fixed 15M updates).
pub fn fig8_scale(panel: char, class: Class, cfg: &ExpConfig) -> Series {
    let full_edges = workloads::dataset(Dataset::Synthetic, cfg.scale).edge_count();
    let fixed_updates = ((full_edges as f64) * 0.10).round() as usize;
    let mut rows = Vec::new();
    for factor in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale * factor);
        let count = fixed_updates.min(g.edge_count());
        let delta = random_update_batch(&g, count, 0.5, GRAPH_SEED ^ 0xf1);
        rows.push(class.row(
            format!("{factor}"),
            &g,
            Dataset::Synthetic,
            &delta,
            cfg.verify,
        ));
    }
    Series {
        title: format!("Fig 8({panel}) Varying G, {} (Synthetic)", class.name()),
        x_label: "scale factor",
        unit: "s",
        rows,
    }
}

// ---------------------------------------------------------------------
// In-text experiments
// ---------------------------------------------------------------------

/// Exp-1(5): unit updates — one insertion and one deletion per class.
pub fn unit_updates(cfg: &ExpConfig) -> Series {
    let data = Dataset::DbpediaLike;
    let g = workloads::dataset(data, cfg.scale);
    let mut rows = Vec::new();
    for (kind, rho) in [("insert", 1.0), ("delete", 0.0)] {
        let delta = random_update_batch(&g, 1, rho, GRAPH_SEED ^ 0xabc);
        // On a unit update `Inc*ⁿ` (every point's second column) is `Inc*`.
        let mut times = Vec::new();
        for class in Class::ALL {
            let mut point = class.row(String::new(), &g, data, &delta, cfg.verify);
            point.times.remove(1);
            times.extend(point.times);
        }
        rows.push(Row {
            x: kind.to_owned(),
            times,
            counters: Counters::new(),
        });
    }
    Series {
        title: "Unit updates (Exp-1(5)): incremental vs batch per class".into(),
        x_label: "unit update",
        unit: "s",
        rows,
    }
}

/// ρ-sensitivity: fixed |ΔG| = 10 %, insertion fraction varied.
pub fn rho_sensitivity(cfg: &ExpConfig) -> Series {
    let data = Dataset::DbpediaLike;
    let g = workloads::dataset(data, cfg.scale);
    let mut rows = Vec::new();
    for rho in [0.2, 0.4, 0.5, 0.6, 0.8] {
        let delta = delta_for(&g, 0.10, rho, (rho * 100.0) as u64);
        let times =
            Class::ALL.map(|class| class.row(String::new(), &g, data, &delta, cfg.verify).times[0]);
        rows.push(Row {
            x: format!("{rho}"),
            times: times.to_vec(),
            counters: Counters::new(),
        });
    }
    Series {
        title: "ρ-sensitivity: fixed |ΔG| = 10%, varying insert fraction".into(),
        x_label: "insert fraction",
        unit: "s",
        rows,
    }
}

/// Rule maintenance on the windowed attack-graph stream, from a view kept
/// warm over `WINDOW + 3` ticks: one steady-state *slide* (a cohort in, a
/// cohort out) and, from the same window, a *storm* (half of it retracted
/// in one coalesced batch — the deletion-heavy regime support counting
/// exists for). The stream's sizes are fixed; `cfg.scale` does not apply.
pub fn rules_maintain(cfg: &ExpConfig) -> Series {
    const NODES: usize = 400;
    const WINDOW: usize = 8;
    const PER_TICK: usize = 400;
    let (mut g, mut ws) = WindowedStream::new(NODES, WINDOW, PER_TICK, 0x5EED_2017);
    let mut view = IncRules::new(&g, workloads::attack_program().0);
    for _ in 0..WINDOW + 3 {
        let delta = ws.next_batch();
        g.apply_batch(&delta);
        view.apply(&g, &delta);
    }
    let mut rows = Vec::new();
    for (phase, delta) in [
        ("slide", ws.clone().next_batch()),
        ("storm", ws.storm(WINDOW / 2)),
    ] {
        let (times, counters) = rules_point(&g, &view, &delta, cfg.verify);
        rows.push(Row {
            x: phase.to_owned(),
            times,
            counters,
        });
    }
    Series {
        title: "Rules: incremental vs from-scratch on a window slide and a deletion storm".into(),
        x_label: "phase",
        unit: "s",
        rows,
    }
}

/// Theorem 1 made visible: on the Fig. 9 two-cycle gadget, the first
/// insertion changes no output (`|CHANGED| = 1`) while the affected
/// markings grow linearly with the gadget size — the "undoable" shape.
pub fn undoable_demo() -> Series {
    let mut rows = Vec::new();
    for n in [25usize, 50, 100, 200] {
        let gadget = igc_core::gadgets::two_cycle_gadget(n);
        let mut interner = gadget.interner.clone();
        let q = Regex::parse(gadget.query, &mut interner).expect("gadget query parses");
        let mut g = gadget.graph.clone();
        let mut inc = IncRpq::new(&g, &q);
        let before = inc.answer().len();
        let delta = UpdateBatch::from_updates(vec![gadget.delta1]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.answer().len(), before, "Δ1 must not change the output");
        let m = inc.last_metrics();
        rows.push(Row {
            x: format!("n={n}"),
            times: vec![
                ("CHANGED", m.changed() as f64),
                ("AFF(markings)", (m.affected.max(1)) as f64),
            ],
            counters: Counters::new(),
        });
    }
    Series {
        title: "Undoable (Thm 1): two-cycle gadget — |AFF| grows, |CHANGED| stays 1".into(),
        x_label: "gadget size",
        unit: "count",
        rows,
    }
}

/// Localizability check: fixed small |ΔG|, growing |G| — the *work
/// counters* of IncKWS and IncISO must stay (statistically) flat.
pub fn locality_demo(cfg: &ExpConfig) -> Series {
    let mut rows = Vec::new();
    for factor in [0.25, 0.5, 1.0, 2.0] {
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale * factor);
        let delta = random_update_batch(&g, 100, 0.5, GRAPH_SEED ^ 0x10c);
        let mut g2 = g.clone();

        let mut kws = IncKws::new(&g, workloads::default_kws());
        let kws_built = kws.work();
        g2.apply_batch(&delta);
        kws.apply(&g2, &delta);

        let mut iso = IncIso::new(&g, workloads::default_iso());
        let iso_built = iso.work();
        iso.apply(&g2, &delta);

        rows.push(Row {
            x: format!("{factor}×"),
            times: vec![
                ("IncKWS work", kws.work().since(&kws_built).total() as f64),
                ("IncISO work", iso.work().since(&iso_built).total() as f64),
                ("|G|", g.size() as f64),
            ],
            counters: Counters::new(),
        });
    }
    Series {
        title: "Localizable (Thm 3): work vs |G| at fixed |ΔG| = 100 updates".into(),
        x_label: "graph scale",
        unit: "ops",
        rows,
    }
}

/// All figure ids understood by [`run`].
pub const ALL_FIGS: [&str; 16] = [
    "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h", "fig8i", "fig8j",
    "fig8k", "fig8l", "fig8m", "fig8n", "fig8o", "fig8p",
];

/// The in-text experiment ids understood by [`run`] beside [`ALL_FIGS`].
pub const IN_TEXT: [&str; 5] = ["unit", "rho", "rules", "undoable", "locality"];

/// Run one named experiment; `None` if `fig` is not an id of [`ALL_FIGS`]
/// or [`IN_TEXT`].
pub fn run(fig: &str, cfg: &ExpConfig) -> Option<Series> {
    use Class::*;
    use Dataset::*;
    Some(match fig {
        "fig8a" => fig8_deltag('a', Kws, DbpediaLike, cfg),
        "fig8b" => fig8_deltag('b', Rpq, DbpediaLike, cfg),
        "fig8c" => fig8_deltag('c', Scc, DbpediaLike, cfg),
        "fig8d" => fig8_deltag('d', Iso, DbpediaLike, cfg),
        "fig8e" => fig8_deltag('e', Kws, LivejournalLike, cfg),
        "fig8f" => fig8_deltag('f', Rpq, LivejournalLike, cfg),
        "fig8g" => fig8_deltag('g', Scc, LivejournalLike, cfg),
        "fig8h" => fig8_deltag('h', Iso, LivejournalLike, cfg),
        "fig8i" => fig8_deltag('i', Scc, Synthetic, cfg),
        "fig8j" => fig8j(cfg),
        "fig8k" => fig8k(cfg),
        "fig8l" => fig8l(cfg),
        "fig8m" => fig8_scale('m', Kws, cfg),
        "fig8n" => fig8_scale('n', Rpq, cfg),
        "fig8o" => fig8_scale('o', Scc, cfg),
        "fig8p" => fig8_scale('p', Iso, cfg),
        "unit" => unit_updates(cfg),
        "rho" => rho_sensitivity(cfg),
        "rules" => rules_maintain(cfg),
        "undoable" => undoable_demo(),
        "locality" => locality_demo(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.004,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn kws_point_verifies_at_tiny_scale() {
        let cfg = tiny();
        let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
        let delta = delta_for(&g, 0.10, 0.5, 1);
        let times = kws_point(&g, &workloads::default_kws(), &delta, true);
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn scc_point_verifies_at_tiny_scale() {
        let cfg = tiny();
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale);
        let delta = delta_for(&g, 0.10, 0.5, 2);
        let (times, counters) = scc_point(&g, &delta, true);
        assert_eq!(times.len(), 4);
        assert_eq!(counters.len(), 4);
    }

    #[test]
    fn rpq_and_iso_points_verify_at_tiny_scale() {
        let cfg = tiny();
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale);
        let delta = delta_for(&g, 0.05, 0.5, 3);
        let (times, counters) = rpq_point(&g, &workloads::default_rpq(100), &delta, true);
        assert_eq!((times.len(), counters.len()), (4, 4));
        assert_eq!(
            iso_point(&g, &workloads::default_iso(), &delta, true).len(),
            3
        );
    }

    #[test]
    fn rules_point_verifies_at_tiny_scale() {
        // `verify` audits every maintained fact and support count of each
        // row against the naive oracle on the way.
        let s = rules_maintain(&tiny());
        let rows: Vec<_> = s
            .rows
            .iter()
            .map(|r| (&*r.x, r.times.len(), r.counters.len()))
            .collect();
        assert_eq!(rows, [("slide", 4, 5), ("storm", 4, 5)]);
    }

    #[test]
    fn undoable_demo_shows_growth() {
        let s = undoable_demo();
        let aff: Vec<f64> = s
            .rows
            .iter()
            .map(|r| {
                r.times
                    .iter()
                    .find(|(n, _)| *n == "AFF(markings)")
                    .unwrap()
                    .1
            })
            .collect();
        assert!(
            aff.last().unwrap() > &(aff[0] * 2.0),
            "AFF must grow with the gadget: {aff:?}"
        );
        let changed: Vec<f64> = s
            .rows
            .iter()
            .map(|r| r.times.iter().find(|(n, _)| *n == "CHANGED").unwrap().1)
            .collect();
        assert!(changed.iter().all(|&c| c == 1.0));
    }

    #[test]
    fn run_accepts_all_ids() {
        // `verify` is on in `tiny()`: every point of every panel is
        // cross-checked against batch recomputation on the way.
        for id in ALL_FIGS.iter().chain(&IN_TEXT) {
            let s = run(id, &tiny()).unwrap_or_else(|| panic!("{id} is a listed id"));
            assert!(!s.rows.is_empty(), "{id} produced no rows");
        }
        assert!(run("engine", &tiny()).is_none());
    }
}
