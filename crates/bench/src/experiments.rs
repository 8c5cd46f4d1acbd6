//! One function per figure/table of the paper's evaluation.
//!
//! Each data point measures, from a precomputed auxiliary state:
//! * the grouped incremental algorithm (`Inc*`),
//! * the one-update-at-a-time variant (`Inc*ⁿ`),
//! * the batch algorithm recomputing on `G ⊕ ΔG` from scratch,
//! * for SCC additionally the dynamic baseline `DynSCC`.
//!
//! With `verify` on, every point cross-checks the incremental answer
//! against the batch answer on the updated graph — the harness doubles as
//! an integration test at experiment scale.

use crate::harness::{pct, time, Row, Series};
use crate::workloads::{self, GRAPH_SEED};
use igc_core::incremental::{apply_one_by_one, IncrementalAlgorithm};
use igc_core::work::WorkStats;
use igc_engine::{Engine, ViewHandle};
use igc_graph::generator::{random_update_batch, Dataset};
use igc_graph::{DynamicGraph, UpdateBatch};
use igc_iso::{IncIso, Pattern};
use igc_kws::{batch as kws_batch, IncKws, KwsQuery};
use igc_log::{FileBackend, LogBackend};
use igc_nfa::{build_nfa, Regex};
use igc_rpq::{batch as rpq_batch, IncRpq};
use igc_scc::{tarjan, DynScc, IncScc};
use std::sync::Arc;

/// Experiment configuration shared by all figures.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale (1.0 = the laptop-sized full datasets).
    pub scale: f64,
    /// Cross-check incremental answers against batch recomputation.
    pub verify: bool,
    /// Commit fan-out for the `engine` experiment: `0` = sequential,
    /// `n ≥ 1` = `CommitMode::Parallel { threads: n }` (the `--threads`
    /// flag of the experiments binary).
    pub threads: usize,
    /// Attach a durable commit log to the `engine` experiment (`--log`):
    /// commits journal write-ahead, the run demonstrates a background
    /// view build, and the JSON gains log/replay-throughput sections.
    pub log: bool,
    /// Crash the (logged) engine after this many commits (`--crash-at N`),
    /// then `Engine::recover` from the journal, re-register the four
    /// classes, audit, and serve the remaining commits. Implies `log`.
    pub crash_at: Option<usize>,
    /// Directory for the file-backed log (`--log-dir`); wiped before the
    /// run and kept after it. Default: a throwaway temp directory,
    /// removed when the run ends.
    pub log_dir: Option<String>,
    /// Tailing read replicas for the `engine` experiment (`--replicas N`,
    /// implies `log`): `n ≥ 1` adds a `replication` section to the JSON —
    /// read throughput at 1/2/4 replicas, observed lag under sustained
    /// commit load plus backlog drain time, and a journal-boundedness
    /// series of compactions across checkpoint cadences.
    pub replicas: usize,
    /// Concurrent submitter threads for the ingest micro-benchmark
    /// (`--ingest N`): `n ≥ 1` adds an `ingest` section to the JSON —
    /// four arms (durable every-append / group-commit, volatile
    /// per-submission / coalesced) with throughput, p50/p99
    /// submit→receipt latency, fsync-barrier counts, and
    /// receipts-match-submissions + journal-replay audits.
    pub ingest: usize,
    /// Slide ticks for the rule-view micro-benchmark (`--rules N`):
    /// `n ≥ 1` adds a `rules` section to the JSON — an [`igc_rules`]
    /// attack-graph view over a sliding-window edge stream, with
    /// per-commit latency for insert-heavy (fill) and deletion-storm
    /// phases, maintenance counters, oracle audits, and the storm-phase
    /// speedup over from-scratch re-evaluation.
    pub rules: usize,
    /// Seeded fault storms for the chaos resilience run (`--chaos N`):
    /// `n ≥ 1` adds a `chaos` section to the JSON — `n` deterministic
    /// storms of injected append/read/sync faults (torn half-writes
    /// included) driven through a logged engine under a [`RetryPolicy`],
    /// with absorbed-retry counts, degraded-window counts and wall-clock,
    /// mean time-to-heal, self-healing replica counters
    /// (tail retries / post-compaction reattaches), and
    /// no-acked-commit-lost + views-bit-identical audits against a
    /// never-faulted twin.
    ///
    /// [`RetryPolicy`]: igc_log::RetryPolicy
    pub chaos: usize,
    /// Concurrent snapshot-reader threads for the MVCC serving run
    /// (`--snapshots N`): `n ≥ 1` adds a `snapshots` section to the JSON —
    /// publish overhead on the commit hot path (MVCC bookkeeping as a
    /// share of commit latency — target < 5 % of the median commit),
    /// copy-on-write cost under held pins, reader throughput from `n`
    /// threads pinning and reading snapshots while commits flow, the
    /// version-window memory series, and frozen-pin + window-bound audits.
    pub snapshots: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.15,
            verify: true,
            threads: 0,
            log: false,
            crash_at: None,
            log_dir: None,
            replicas: 0,
            ingest: 0,
            rules: 0,
            chaos: 0,
            snapshots: 0,
        }
    }
}

/// The [`CommitMode`](igc_engine::CommitMode) an [`ExpConfig`] asks for.
fn commit_mode(cfg: &ExpConfig) -> igc_engine::CommitMode {
    if cfg.threads == 0 {
        igc_engine::CommitMode::Sequential
    } else {
        igc_engine::CommitMode::Parallel {
            threads: cfg.threads,
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

/// Measure KWS algorithms on one `(G, ΔG)` instance.
pub fn kws_point(
    g: &DynamicGraph,
    q: &KwsQuery,
    delta: &UpdateBatch,
    verify: bool,
) -> Vec<(&'static str, f64)> {
    let base = IncKws::new(g, q.clone());

    let mut inc = base.clone();
    let mut g_inc = g.clone();
    let (_, t_inc) = time(|| {
        g_inc.apply_batch(delta);
        inc.apply(&g_inc, delta);
    });

    let mut incn = base.clone();
    let mut g_n = g.clone();
    let (_, t_incn) = time(|| apply_one_by_one(&mut incn, &mut g_n, delta));

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
    vec![
        ("IncKWS", t_inc.as_secs_f64()),
        ("IncKWSn", t_incn.as_secs_f64()),
        ("BLINKS", t_batch.as_secs_f64()),
    ]
}

/// Measure RPQ algorithms on one instance.
pub fn rpq_point(
    g: &DynamicGraph,
    q: &Regex,
    delta: &UpdateBatch,
    verify: bool,
) -> Vec<(&'static str, f64)> {
    let base = IncRpq::new(g, q);

    let mut inc = base.clone();
    let mut g_inc = g.clone();
    let (_, t_inc) = time(|| {
        g_inc.apply_batch(delta);
        inc.apply(&g_inc, delta);
    });

    let mut incn = base.clone();
    let mut g_n = g.clone();
    let (_, t_incn) = time(|| apply_one_by_one(&mut incn, &mut g_n, delta));

    // The batch column rebuilds the full queryable state from scratch on
    // G ⊕ ΔG (traversal + markings) — the from-scratch response an
    // incrementalized system would have to pay; the pure answer-only
    // traversal is what the paper's RPQ_NFA does and is cheaper by a small
    // constant (see EXPERIMENTS.md).
    let (fresh, t_batch) = time(|| IncRpq::with_nfa(&g_inc, build_nfa(q)));
    if verify {
        assert_eq!(
            inc.sorted_answer(),
            fresh.sorted_answer(),
            "IncRPQ diverged from batch"
        );
        assert_eq!(incn.sorted_answer(), fresh.sorted_answer());
        let mut w = WorkStats::new();
        let plain = rpq_batch::evaluate(&g_inc, fresh.nfa(), &mut w);
        assert_eq!(fresh.sorted_answer(), rpq_batch::sorted_answer(&plain));
    }
    vec![
        ("IncRPQ", t_inc.as_secs_f64()),
        ("IncRPQn", t_incn.as_secs_f64()),
        ("RPQnfa", t_batch.as_secs_f64()),
    ]
}

/// Measure SCC algorithms on one instance.
pub fn scc_point(g: &DynamicGraph, delta: &UpdateBatch, verify: bool) -> Vec<(&'static str, f64)> {
    let base = IncScc::new(g);

    let mut inc = base.clone();
    let mut g_inc = g.clone();
    let (_, t_inc) = time(|| {
        g_inc.apply_batch(delta);
        inc.apply(&g_inc, delta);
    });

    let mut incn = base.clone();
    let mut g_n = g.clone();
    let (_, t_incn) = time(|| apply_one_by_one(&mut incn, &mut g_n, delta));

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
    vec![
        ("IncSCC", t_inc.as_secs_f64()),
        ("IncSCCn", t_incn.as_secs_f64()),
        ("Tarjan", t_batch.as_secs_f64()),
        ("DynSCC", t_dyn.as_secs_f64()),
    ]
}

/// Measure ISO algorithms on one instance.
pub fn iso_point(
    g: &DynamicGraph,
    p: &Pattern,
    delta: &UpdateBatch,
    verify: bool,
) -> Vec<(&'static str, f64)> {
    let base = IncIso::new(g, p.clone());

    let mut inc = base.clone();
    let mut g_inc = g.clone();
    let (_, t_inc) = time(|| {
        g_inc.apply_batch(delta);
        inc.apply(&g_inc, delta);
    });

    let mut incn = base.clone();
    let mut g_n = g.clone();
    let (_, t_incn) = time(|| apply_one_by_one(&mut incn, &mut g_n, delta));

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
    vec![
        ("IncISO", t_inc.as_secs_f64()),
        ("IncISOn", t_incn.as_secs_f64()),
        ("VF2", t_batch.as_secs_f64()),
    ]
}

// ---------------------------------------------------------------------
// Figure 8(a)–(i): varying |ΔG|
// ---------------------------------------------------------------------

/// Which query class a figure sweeps.
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

/// Generic Exp-1 sweep: vary |ΔG| from 5 % to 40 % of |E| at ρ = 1.
pub fn fig8_deltag(class: Class, data: Dataset, cfg: &ExpConfig, title: &str) -> Series {
    let g = workloads::dataset(data, cfg.scale);
    let mut rows = Vec::new();
    for (i, &frac) in DELTAG_FRACS.iter().enumerate() {
        let delta = delta_for(&g, frac, 0.5, i as u64);
        let times = match class {
            Class::Kws => kws_point(&g, &workloads::default_kws(), &delta, cfg.verify),
            Class::Rpq => rpq_point(
                &g,
                &workloads::default_rpq(data.alphabet()),
                &delta,
                cfg.verify,
            ),
            Class::Scc => scc_point(&g, &delta, cfg.verify),
            Class::Iso => iso_point(&g, &workloads::default_iso(), &delta, cfg.verify),
        };
        rows.push(Row {
            x: pct(frac),
            times,
        });
    }
    Series {
        title: title.to_owned(),
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
        rows.push(Row {
            x: format!("{size}"),
            times: rpq_point(&g, &q, &delta, cfg.verify),
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
pub fn fig8_scale(class: Class, cfg: &ExpConfig, title: &str) -> Series {
    let full_edges = workloads::dataset(Dataset::Synthetic, cfg.scale).edge_count();
    let fixed_updates = ((full_edges as f64) * 0.10).round() as usize;
    let mut rows = Vec::new();
    for factor in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale * factor);
        let count = fixed_updates.min(g.edge_count());
        let delta = random_update_batch(&g, count, 0.5, GRAPH_SEED ^ 0xf1);
        let times = match class {
            Class::Kws => kws_point(&g, &workloads::default_kws(), &delta, cfg.verify),
            Class::Rpq => rpq_point(
                &g,
                &workloads::default_rpq(Dataset::Synthetic.alphabet()),
                &delta,
                cfg.verify,
            ),
            Class::Scc => scc_point(&g, &delta, cfg.verify),
            Class::Iso => iso_point(&g, &workloads::default_iso(), &delta, cfg.verify),
        };
        rows.push(Row {
            x: format!("{factor}"),
            times,
        });
    }
    Series {
        title: title.to_owned(),
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
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let mut rows = Vec::new();
    for (kind, rho) in [("insert", 1.0), ("delete", 0.0)] {
        let delta = random_update_batch(&g, 1, rho, GRAPH_SEED ^ 0xabc);
        let mut times = Vec::new();
        for (name, t) in kws_point(&g, &workloads::default_kws(), &delta, cfg.verify) {
            if name != "IncKWSn" {
                times.push((name, t));
            }
        }
        for (name, t) in rpq_point(&g, &workloads::default_rpq(495), &delta, cfg.verify) {
            if name != "IncRPQn" {
                times.push((name, t));
            }
        }
        for (name, t) in scc_point(&g, &delta, cfg.verify) {
            if name != "IncSCCn" {
                times.push((name, t));
            }
        }
        for (name, t) in iso_point(&g, &workloads::default_iso(), &delta, cfg.verify) {
            if name != "IncISOn" {
                times.push((name, t));
            }
        }
        rows.push(Row {
            x: kind.to_owned(),
            times,
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
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let mut rows = Vec::new();
    for rho in [0.2, 0.4, 0.5, 0.6, 0.8] {
        let delta = delta_for(&g, 0.10, rho, (rho * 100.0) as u64);
        let times = vec![
            (
                "IncKWS",
                kws_point(&g, &workloads::default_kws(), &delta, cfg.verify)[0].1,
            ),
            (
                "IncRPQ",
                rpq_point(&g, &workloads::default_rpq(495), &delta, cfg.verify)[0].1,
            ),
            ("IncSCC", scc_point(&g, &delta, cfg.verify)[0].1),
            (
                "IncISO",
                iso_point(&g, &workloads::default_iso(), &delta, cfg.verify)[0].1,
            ),
        ];
        rows.push(Row {
            x: format!("{rho}"),
            times,
        });
    }
    Series {
        title: "ρ-sensitivity: fixed |ΔG| = 10%, varying insert fraction".into(),
        x_label: "insert fraction",
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
        kws.reset_work();
        g2.apply_batch(&delta);
        kws.apply(&g2, &delta);

        let mut iso = IncIso::new(&g, workloads::default_iso());
        iso.reset_work();
        iso.apply(&g2, &delta);

        rows.push(Row {
            x: format!("{factor}×"),
            times: vec![
                ("IncKWS work", kws.work().total() as f64),
                ("IncISO work", iso.work().total() as f64),
                ("|G|", g.size() as f64),
            ],
        });
    }
    Series {
        title: "Localizable (Thm 3): work vs |G| at fixed |ΔG| = 100 updates".into(),
        x_label: "graph scale",
        unit: "ops",
        rows,
    }
}

// ---------------------------------------------------------------------
// Engine commit series (multi-view serving trajectory)
// ---------------------------------------------------------------------

/// Result of the engine experiment: a printable series and the
/// machine-readable JSON the binary writes to `BENCH_engine.json`, so the
/// perf trajectory accumulates across PRs.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Per-commit latency table for terminal display.
    pub series: Series,
    /// The same data as a JSON document (per-commit latency series with
    /// per-view breakdown and engine totals).
    pub json: String,
}

/// Number of commits the engine experiment drives.
pub const ENGINE_COMMITS: usize = 12;

/// Number of lockstep commits in the sequential-vs-parallel comparison
/// appended to the engine experiment's JSON.
pub const COMPARE_COMMITS: usize = 8;

/// A deliberately buggy fifth view registered alongside the four default
/// ones: panics on its 3rd `apply`, so the serving trajectory exercises —
/// and `BENCH_engine.json` records — a real quarantine event.
#[derive(Clone)]
struct EngineCanary {
    applies: u64,
}

impl igc_core::IncView for EngineCanary {
    fn name(&self) -> &str {
        "canary"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.applies += 1;
        if self.applies == 3 {
            panic!("canary: deliberate failure on apply #3");
        }
    }
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn reset_work(&mut self) {}
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn clone_view(&self) -> Box<dyn igc_core::IncView> {
        Box::new(self.clone())
    }
}

/// Run `f` with the default panic hook silenced, so the canary's deliberate
/// (engine-caught) panic does not write a backtrace into the experiment
/// output. The hook is global process state: a mutex serializes concurrent
/// users (the library tests run threaded), and a drop guard restores the
/// previous hook even if `f` itself panics, so a genuine failure elsewhere
/// keeps its diagnostics.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::panic::PanicHookInfo;
    use std::sync::{Mutex, MutexGuard};
    type PrevHook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send>;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    struct Restore<'a> {
        prev: Option<PrevHook>,
        _serialize: MutexGuard<'a, ()>,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = match HOOK_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _restore = Restore {
        prev: Some(prev),
        _serialize: guard,
    };
    f()
}

/// The sequential-vs-parallel fan-out comparison: the four default views
/// cloned into two engines over the same starting graph, driven in lockstep
/// through [`COMPARE_COMMITS`] identical commits — one engine sequential,
/// one `CommitMode::Parallel`. Records each commit's *view latency sum*
/// (the fan-out cost parallelism targets; normalization and the graph
/// apply are mode-independent) plus wall-clock medians and the speedup.
/// With `verify` on, both engines' receipts are cross-checked for equal
/// work and the final views audited — the comparison doubles as an
/// equivalence test at experiment scale.
///
/// The parallel side always uses at least 2 workers: a 1-thread "parallel"
/// engine runs its fan-out inline by construction, and recording a
/// sequential-vs-sequential pair as a speedup datapoint would pollute the
/// accumulated trajectory.
fn engine_compare(cfg: &ExpConfig) -> String {
    let threads = cfg.threads.max(2);
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let rpq = IncRpq::new(&g, &workloads::default_rpq(495));
    let scc = IncScc::new(&g);
    let kws = IncKws::new(&g, workloads::default_kws());
    let iso = IncIso::new(&g, workloads::default_iso());
    let mut seq = Engine::new(g.clone());
    let mut par = Engine::new(g);
    par.set_commit_mode(igc_engine::CommitMode::Parallel { threads });
    for e in [&mut seq, &mut par] {
        e.register(rpq.clone()).expect("register rpq");
        e.register(scc.clone()).expect("register scc");
        e.register(kws.clone()).expect("register kws");
        e.register(iso.clone()).expect("register iso");
    }

    let view_sum = |r: &igc_engine::CommitReceipt| -> f64 {
        r.per_view.iter().map(|v| v.elapsed.as_secs_f64()).sum()
    };
    let mut seq_series: Vec<f64> = Vec::with_capacity(COMPARE_COMMITS);
    let mut par_series: Vec<f64> = Vec::with_capacity(COMPARE_COMMITS);
    for i in 0..COMPARE_COMMITS {
        let count = (((seq.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
        let delta = random_update_batch(seq.graph(), count, 0.5, GRAPH_SEED ^ (0xc0 + i as u64));
        let rs = seq.commit(&delta).expect("sequential commit");
        let rp = par.commit(&delta).expect("parallel commit");
        if cfg.verify {
            assert_eq!(rs.work, rp.work, "modes diverged in work at commit {i}");
            assert_eq!(rs.applied, rp.applied);
        }
        seq_series.push(view_sum(&rs));
        par_series.push(view_sum(&rp));
    }
    if cfg.verify {
        seq.verify_all().expect("sequential views audit clean");
        par.verify_all().expect("parallel views audit clean");
    }

    let median = |series: &[f64]| -> f64 {
        let mut s = series.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        s[(s.len() - 1) / 2]
    };
    let fmt_series = |series: &[f64]| -> String {
        series
            .iter()
            .map(|v| format!("{v:.9}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (ms, mp) = (median(&seq_series), median(&par_series));
    format!(
        "{{\"threads\": {}, \"commits\": {}, \"seq_view_s\": [{}], \"par_view_s\": [{}], \
         \"seq_view_median_s\": {:.9}, \"par_view_median_s\": {:.9}, \
         \"speedup_median\": {:.3}}}",
        threads,
        COMPARE_COMMITS,
        fmt_series(&seq_series),
        fmt_series(&par_series),
        ms,
        mp,
        if mp > 0.0 { ms / mp } else { 0.0 }
    )
}

/// The logged-vs-unlogged lockstep comparison: the four default views
/// cloned into two engines over the same starting graph, driven through
/// [`COMPARE_COMMITS`] identical commits — one engine journaling
/// write-ahead through a file-backed log (checkpoint cadence disabled, so
/// this pins the pure per-commit WAL cost; checkpoints are an amortized,
/// cadence-controlled cost reported separately in the `log` section), one
/// unlogged. Records full commit latencies, medians and the overhead
/// percentage — the durability PR's "< 5 % at scale 0.15" target made
/// measurable. With `verify` on, both engines' receipts are cross-checked
/// and the final views audited.
fn engine_logged_compare(cfg: &ExpConfig, log_dir: &std::path::Path) -> String {
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let rpq = IncRpq::new(&g, &workloads::default_rpq(495));
    let scc = IncScc::new(&g);
    let kws = IncKws::new(&g, workloads::default_kws());
    let iso = IncIso::new(&g, workloads::default_iso());
    let dir = log_dir.join("logged-compare");
    let _ = std::fs::remove_dir_all(&dir);
    let backend: Arc<dyn LogBackend> =
        Arc::new(FileBackend::new(&dir).expect("create comparison log dir"));
    let mut plain = Engine::new(g.clone());
    let mut logged = Engine::new(g)
        .with_log(backend)
        .expect("attach comparison log");
    logged.set_checkpoint_every(0);
    for e in [&mut plain, &mut logged] {
        e.register(rpq.clone()).expect("register rpq");
        e.register(scc.clone()).expect("register scc");
        e.register(kws.clone()).expect("register kws");
        e.register(iso.clone()).expect("register iso");
    }

    let mut plain_series: Vec<f64> = Vec::with_capacity(COMPARE_COMMITS);
    let mut logged_series: Vec<f64> = Vec::with_capacity(COMPARE_COMMITS);
    for i in 0..COMPARE_COMMITS {
        let count = (((plain.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
        let delta = random_update_batch(plain.graph(), count, 0.5, GRAPH_SEED ^ (0xd00 + i as u64));
        let ru = plain.commit(&delta).expect("unlogged commit");
        let rl = logged.commit(&delta).expect("logged commit");
        if cfg.verify {
            assert_eq!(ru.work, rl.work, "logging changed view work at commit {i}");
            assert_eq!(ru.applied, rl.applied);
            assert_eq!(ru.epoch, rl.epoch);
        }
        plain_series.push(ru.elapsed.as_secs_f64());
        logged_series.push(rl.elapsed.as_secs_f64());
    }
    if cfg.verify {
        plain.verify_all().expect("unlogged views audit clean");
        logged.verify_all().expect("logged views audit clean");
    }

    let median = |series: &[f64]| -> f64 {
        let mut s = series.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        s[(s.len() - 1) / 2]
    };
    let fmt_series = |series: &[f64]| -> String {
        series
            .iter()
            .map(|v| format!("{v:.9}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (mu, ml) = (median(&plain_series), median(&logged_series));
    let overhead_pct = if mu > 0.0 {
        (ml - mu) / mu * 100.0
    } else {
        0.0
    };
    let json = format!(
        "{{\"commits\": {}, \"unlogged_s\": [{}], \"logged_s\": [{}], \
         \"unlogged_median_s\": {:.9}, \"logged_median_s\": {:.9}, \
         \"overhead_pct\": {:.2}}}",
        COMPARE_COMMITS,
        fmt_series(&plain_series),
        fmt_series(&logged_series),
        mu,
        ml,
        overhead_pct
    );
    let _ = std::fs::remove_dir_all(&dir);
    json
}

/// Checkpoint cadence the logged engine experiment runs with — small
/// enough that the 12-commit script crosses several checkpoints.
pub const ENGINE_LOG_CHECKPOINT_EVERY: u64 = 4;

/// Commits each phase of the replication micro-benchmark drives.
pub const REPLICATION_COMMITS: usize = 12;

/// Reads each replica thread issues in the read-throughput sweep.
const REPLICATION_READS: usize = 200;

/// The replication micro-benchmark behind `--replicas N`: a shared
/// in-memory commit log ships a leader's epochs to tailing [`Replica`]s.
/// Three phases, one JSON object:
///
/// * `read_throughput` — 1/2/4 replicas each serving [`REPLICATION_READS`]
///   SCC reads from their own thread at their own frontier (no leader
///   coordination), aggregate reads/s per replica count;
/// * `lag` — `n` followers tail (catch-up poll loop) on worker threads
///   while the leader drives [`REPLICATION_COMMITS`] commits; each poll
///   samples `ReplicaStatus::lag` *before* catching up, recording the
///   worst observed staleness, plus the wall-clock a deliberately stale
///   follower needs to drain the full backlog at the end;
/// * `compaction` — a caught-up pinned follower rides along while the
///   leader compacts after every checkpoint cadence; journal bytes and
///   retained segment counts per cadence show the log staying bounded.
fn engine_replication(cfg: &ExpConfig) -> String {
    use igc_engine::Replica;
    use igc_log::MemBackend;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let followers = cfg.replicas.max(1);
    let build_leader = || {
        let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
        let backend = MemBackend::new();
        let mut leader = Engine::new(g)
            .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
            .expect("attach replication log");
        leader.set_checkpoint_every(ENGINE_LOG_CHECKPOINT_EVERY);
        leader
            .register(IncScc::new(leader.graph()))
            .expect("register scc");
        (backend, leader)
    };
    let commit_one = |leader: &mut Engine, salt: u64| {
        let count = (((leader.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
        let delta = random_update_batch(leader.graph(), count, 0.5, GRAPH_SEED ^ (0x5e9 + salt));
        leader.commit(&delta).expect("leader commit");
    };
    let scc_replica = |leader: &mut Engine| {
        let mut r = leader.replica().expect("attach replica");
        let h = r.register("scc", IncScc::init()).expect("replica scc");
        r.catch_up().expect("initial catch-up");
        (r, h)
    };

    // Phase 1: read throughput at 1/2/4 replicas, each on its own thread.
    let mut throughput_rows = Vec::new();
    for count in [1usize, 2, 4] {
        let (_backend, mut leader) = build_leader();
        for i in 0..4 {
            commit_one(&mut leader, i);
        }
        let mut replicas: Vec<_> = (0..count).map(|_| scc_replica(&mut leader)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for pair in replicas.iter_mut() {
                s.spawn(move || {
                    let (r, h) = pair;
                    let mut acc = 0usize;
                    for _ in 0..REPLICATION_READS {
                        acc += r.view(h).expect("replica read").components().len();
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let reads = (count * REPLICATION_READS) as f64;
        throughput_rows.push(format!(
            "{{\"replicas\": {count}, \"reads\": {}, \"elapsed_s\": {elapsed:.9}, \
             \"reads_per_s\": {:.1}}}",
            reads as u64,
            if elapsed > 0.0 { reads / elapsed } else { 0.0 }
        ));
    }

    // Phase 2: observed lag while followers tail a sustained commit load,
    // plus the drain time of a follower that slept through all of it.
    let (_backend, mut leader) = build_leader();
    let (mut stale, stale_scc) = scc_replica(&mut leader);
    let mut tailing: Vec<_> = (0..followers).map(|_| scc_replica(&mut leader)).collect();
    let stop = AtomicBool::new(false);
    let (observed_max_lag, polls) = std::thread::scope(|s| {
        let handles: Vec<_> = tailing
            .iter_mut()
            .map(|pair| {
                let stop = &stop;
                s.spawn(move || {
                    let (r, _) = pair;
                    let mut max_lag = 0u64;
                    let mut polls = 0u64;
                    loop {
                        let done = stop.load(Ordering::Acquire);
                        // Sample staleness first: the lag a reader would
                        // see right now, before this poll repairs it.
                        if let Ok(st) = r.status() {
                            max_lag = max_lag.max(st.lag);
                        }
                        r.catch_up().expect("tailing catch-up");
                        polls += 1;
                        if done {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    (max_lag, polls)
                })
            })
            .collect();
        for i in 0..REPLICATION_COMMITS {
            commit_one(&mut leader, 0x100 + i as u64);
        }
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("tailing thread"))
            .fold((0u64, 0u64), |(ml, p), (l, q)| (ml.max(l), p + q))
    });
    let backlog = stale.status().expect("stale status").lag;
    let drain_start = Instant::now();
    stale.catch_up().expect("drain backlog");
    let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;
    let final_lag = stale.status().expect("drained status").lag;
    let leader_scc: ViewHandle<IncScc> = leader
        .typed(leader.find("scc").expect("leader scc"))
        .expect("typed scc handle");
    assert_eq!(
        stale.view(&stale_scc).expect("drained view").components(),
        leader.view(&leader_scc).expect("leader view").components(),
        "drained follower must agree with the leader"
    );
    let lag_json = format!(
        "{{\"followers\": {followers}, \"commits\": {REPLICATION_COMMITS}, \
         \"observed_max_lag_epochs\": {observed_max_lag}, \"polls\": {polls}, \
         \"backlog_epochs\": {backlog}, \"drain_ms\": {drain_ms:.3}, \
         \"final_lag_epochs\": {final_lag}}}"
    );

    // Phase 3: compact after every checkpoint cadence with a caught-up
    // pinned follower attached; the retained journal must stay bounded.
    let (backend, mut leader) = build_leader();
    let (mut rider, _rider_scc) = scc_replica(&mut leader);
    let mut bytes_rows = Vec::new();
    let mut segment_rows = Vec::new();
    let (mut dropped_segments, mut dropped_bytes) = (0u64, 0u64);
    let cadences = 5usize;
    for cadence in 0..cadences {
        for i in 0..ENGINE_LOG_CHECKPOINT_EVERY as usize {
            commit_one(
                &mut leader,
                0x200 + (cadence * ENGINE_LOG_CHECKPOINT_EVERY as usize + i) as u64,
            );
        }
        rider.catch_up().expect("rider catch-up");
        let c = leader.compact_log().expect("compact");
        dropped_segments += u64::from(c.dropped_segments);
        dropped_bytes += c.dropped_bytes;
        bytes_rows.push(leader.log().expect("log").bytes().expect("bytes"));
        segment_rows.push(c.retained_segments);
    }
    let late = Replica::attach(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
        .expect("post-compaction attach");
    assert_eq!(
        late.frontier(),
        leader.epoch(),
        "fresh post-compaction replica seeds at the head"
    );
    let max_retained = segment_rows.iter().copied().max().unwrap_or(0);
    let fmt_u64 = |xs: &[u64]| {
        xs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let compaction_json = format!(
        "{{\"cadences\": {cadences}, \"checkpoint_every\": {ENGINE_LOG_CHECKPOINT_EVERY}, \
         \"bytes_after_compaction\": [{}], \"retained_segments\": [{}], \
         \"dropped_segments_total\": {dropped_segments}, \
         \"dropped_bytes_total\": {dropped_bytes}, \"journal_bounded\": {}}}",
        fmt_u64(&bytes_rows),
        segment_rows
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        max_retained <= 2
    );

    format!(
        "{{\"read_throughput\": [{}], \"lag\": {lag_json}, \"compaction\": {compaction_json}}}",
        throughput_rows.join(", ")
    )
}

/// Commit index at which the logged (non-crashing) run spawns its
/// background `rpq:bg` build; it joins after the final commit.
pub const ENGINE_BACKGROUND_SPAWN_AT: usize = 9;

/// Unique throwaway directory for an auto-managed experiment log.
fn temp_log_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "igc-engine-log-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Submissions each submitter drives in one ingest arm — open loop (each
/// submitter firehoses its whole stream, then awaits every ticket), the
/// sustained-backlog shape coalescing and group commit are built for. A
/// closed loop (one outstanding submission per thread) would measure the
/// OS scheduler's wake-up convoy instead: on few cores the server and all
/// submitters serialize, and per-tick latency is dominated by thread
/// hand-offs rather than by commit or fsync work. The stream is long
/// enough that commit work dominates the few-millisecond thread
/// spawn/wake-up floor every arm pays once.
pub const INGEST_PER_SUBMITTER: usize = 96;

/// Raw units per submission batch in the ingest micro-benchmark.
const INGEST_UNITS: usize = 8;

/// Node pairs in the shared hot pool the ingest streams churn over.
const INGEST_HOT_POOL: u64 = 48;

/// Hot-churn ingest streams: every unit toggles one edge drawn from a
/// small pool of node pairs shared by all submitters. This is the
/// workload shape the coalescing front door is built for: under hot keys,
/// the tick's single `normalize_against` pass collapses cross-submission
/// churn (duplicate inserts, insert/delete flip-flops) to at most one net
/// update per edge, while per-submission commits pay incremental view
/// maintenance for every intermediate state the same edges pass through.
/// (On streams of mostly-disjoint cold updates there is nothing to dedup
/// and coalescing is a wash — the per-commit fixed cost it saves is small
/// next to the view work, which is the same either way.)
fn churn_streams(g: &DynamicGraph, submitters: usize) -> Vec<Vec<UpdateBatch>> {
    use igc_graph::{NodeId, Update};
    let n = g.node_count() as u64;
    let mut state = GRAPH_SEED ^ 0x1A6E57;
    let mut next = move || {
        // splitmix64: tiny, deterministic, and plenty for pool sampling.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pool: Vec<(NodeId, NodeId)> = (0..INGEST_HOT_POOL)
        .map(|_| {
            let a = next() % n;
            let mut b = next() % n;
            if a == b {
                b = (b + 1) % n;
            }
            (NodeId(a as u32), NodeId(b as u32))
        })
        .collect();
    (0..submitters)
        .map(|_| {
            (0..INGEST_PER_SUBMITTER)
                .map(|_| {
                    (0..INGEST_UNITS)
                        .map(|_| {
                            let (src, dst) = pool[(next() % INGEST_HOT_POOL) as usize];
                            if next() % 2 == 0 {
                                Update::insert(src, dst)
                            } else {
                                Update::delete(src, dst)
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The ingest micro-benchmark behind `--ingest N`: `N` submitter threads
/// drive identical pre-generated hot-churn streams (see
/// [`churn_streams`]) through an
/// [`IngestServer`](igc_engine::IngestServer) under four arms —
///
/// * `durable_every_append`: per-submission commits (`max_coalesce` 1)
///   with one fsync barrier per WAL record — the classic durable write
///   path;
/// * `durable_group_commit`: coalesced ticks plus
///   [`DurabilityMode::GroupCommit`](igc_log::DurabilityMode) — one
///   barrier covers a whole tick's records;
/// * `volatile_per_submission` / `volatile_coalesced`: the same pair
///   without a log, isolating the coalescing win from the fsync win.
///
/// Each arm records wall clock, submissions/s, p50/p99 submit→receipt
/// latency, commit/append/barrier counts and a receipts-match-submissions
/// audit; durable arms additionally replay their journal and assert the
/// recovered graph is bit-identical. The two headline ratios — durable
/// group-commit vs durable every-append throughput, and coalesced vs
/// per-submission wall clock — are this subsystem's acceptance numbers.
fn engine_ingest(cfg: &ExpConfig) -> String {
    use igc_engine::{IngestConfig, IngestReceipt, IngestServer};
    use igc_log::DurabilityMode;
    use std::time::{Duration, Instant};

    let submitters = cfg.ingest.max(1);
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    // Identical pre-generated hot-churn streams for every arm (see
    // [`churn_streams`]): submitters race, so none could see a current
    // graph anyway — the tick's normalization pass is what makes blind
    // resubmission of hot keys safe, and what coalescing monetizes.
    let streams: Vec<Vec<UpdateBatch>> = churn_streams(&g, submitters);

    struct ArmOutcome {
        json: String,
        wall_s: f64,
        subs_per_s: f64,
    }

    let run_arm = |name: &str, durability: Option<DurabilityMode>, max_coalesce: usize| {
        let mut engine = Engine::new(g.clone());
        let dir = durability.map(|_| temp_log_dir());
        let backend: Option<Arc<dyn LogBackend>> = dir.as_ref().map(|d| {
            let _ = std::fs::remove_dir_all(d);
            Arc::new(FileBackend::new(d).expect("create ingest log dir")) as Arc<dyn LogBackend>
        });
        if let Some(b) = &backend {
            engine = engine.with_log(b.clone()).expect("attach ingest log");
            // Cadence checkpoints off: the arms compare append/barrier
            // costs, not checkpoint amortization.
            engine.set_checkpoint_every(0);
        }
        engine
            .register(IncRpq::new(engine.graph(), &workloads::default_rpq(495)))
            .expect("register rpq");
        engine
            .register(IncScc::new(engine.graph()))
            .expect("register scc");
        if let Some(mode) = durability {
            engine.set_durability(mode).expect("set durability");
        }

        let server = IngestServer::spawn_with(
            engine,
            IngestConfig {
                max_coalesce,
                pipeline: true,
                ..IngestConfig::default()
            },
        );
        let start = Instant::now();
        let per_thread: Vec<(Vec<IngestReceipt>, Vec<Duration>, bool)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .iter()
                    .map(|stream| {
                        let ingest = server.handle();
                        scope.spawn(move || {
                            // Burst the stream, then await: each latency is
                            // submit→receipt for that submission, queueing
                            // under backlog included.
                            let tickets: Vec<_> = stream
                                .iter()
                                .map(|batch| {
                                    let t0 = Instant::now();
                                    let ticket =
                                        ingest.submit(batch.clone()).expect("server is up");
                                    (ticket, t0, batch.len())
                                })
                                .collect();
                            let mut receipts = Vec::with_capacity(stream.len());
                            let mut latencies = Vec::with_capacity(stream.len());
                            let mut echoed = true;
                            for (ticket, t0, units) in tickets {
                                let receipt = ticket.wait().expect("submission committed");
                                latencies.push(t0.elapsed());
                                echoed &= receipt.units == units;
                                receipts.push(receipt);
                            }
                            (receipts, latencies, echoed)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread clean"))
                    .collect()
            });
        let wall_s = start.elapsed().as_secs_f64();
        let engine = server.shutdown().expect("server returns the engine");

        let receipts: Vec<&IngestReceipt> = per_thread.iter().flat_map(|(r, _, _)| r).collect();
        let mut latencies: Vec<f64> = per_thread
            .iter()
            .flat_map(|(_, l, _)| l)
            .map(|d| d.as_secs_f64())
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let quantile = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
        let expected = submitters * INGEST_PER_SUBMITTER;
        let receipts_match =
            receipts.len() == expected && per_thread.iter().all(|(_, _, echoed)| *echoed);
        let total_units: usize = receipts.iter().map(|r| r.units).sum();
        let widest = receipts.iter().map(|r| r.coalesced).max().unwrap_or(0);

        if cfg.verify {
            engine.verify_all().expect("ingest arm views audit clean");
        }
        // Durable arms: count appends/barriers and prove the journal
        // replays to the exact served frontier.
        let (appends, barriers, recover_note) = match engine.log() {
            Some(log) => {
                let appends = log.deltas() + log.checkpoints();
                let barriers = log.syncs();
                assert_eq!(
                    log.unsynced_appends(),
                    0,
                    "shutdown leaves a barriered tail"
                );
                let backend = backend.clone().expect("durable arm has a backend");
                let recovered = Engine::recover(backend).expect("recover ingest journal");
                assert_eq!(recovered.epoch(), engine.epoch(), "recovered frontier");
                let matches = recovered.graph().sorted_edges() == engine.graph().sorted_edges();
                assert!(
                    matches,
                    "ingest journal replay diverged from the served graph"
                );
                (
                    appends,
                    barriers,
                    format!(", \"recover_matches\": {matches}"),
                )
            }
            None => (0, 0, String::new()),
        };
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let subs_per_s = if wall_s > 0.0 {
            expected as f64 / wall_s
        } else {
            0.0
        };
        let json = format!(
            "{{\"arm\": \"{name}\", \"durable\": {}, \"max_coalesce\": {max_coalesce}, \
             \"submissions\": {expected}, \"units\": {total_units}, \"commits\": {}, \
             \"epochs\": {}, \"widest_tick\": {widest}, \"wall_s\": {wall_s:.9}, \
             \"submissions_per_s\": {subs_per_s:.1}, \"p50_submit_to_receipt_s\": {:.9}, \
             \"p99_submit_to_receipt_s\": {:.9}, \"wal_appends\": {appends}, \
             \"fsync_barriers\": {barriers}, \
             \"receipts_match_submissions\": {receipts_match}{recover_note}}}",
            backend.is_some(),
            engine.commits(),
            engine.epoch(),
            quantile(0.50),
            quantile(0.99),
        );
        ArmOutcome {
            json,
            wall_s,
            subs_per_s,
        }
    };

    let every = run_arm("durable_every_append", Some(DurabilityMode::EveryAppend), 1);
    let group = run_arm(
        "durable_group_commit",
        Some(DurabilityMode::GroupCommit {
            max_batch: 8,
            max_delay: Duration::from_millis(5),
        }),
        64,
    );
    let v_per = run_arm("volatile_per_submission", None, 1);
    let v_coal = run_arm("volatile_coalesced", None, 64);

    let group_speedup = if every.subs_per_s > 0.0 {
        group.subs_per_s / every.subs_per_s
    } else {
        0.0
    };
    let coalesce_speedup = if v_coal.wall_s > 0.0 {
        v_per.wall_s / v_coal.wall_s
    } else {
        0.0
    };
    format!(
        "{{\"submitters\": {submitters}, \"per_submitter\": {INGEST_PER_SUBMITTER}, \
         \"units_per_submission\": {INGEST_UNITS}, \"arms\": [{}, {}, {}, {}], \
         \"group_commit_speedup_vs_every_append\": {group_speedup:.3}, \
         \"coalesced_speedup_vs_per_submission\": {coalesce_speedup:.3}}}",
        every.json, group.json, v_per.json, v_coal.json
    )
}

/// Window length (ticks) of the `--rules N` windowed-streaming workload.
pub const RULES_WINDOW: usize = 8;

/// Backbone size of the `--rules N` workload, as a multiple of the churn
/// region's host count: the persistent infrastructure graph the window
/// storm must *not* make the view re-derive.
pub const RULES_BACKBONE_FACTOR: usize = 48;

/// The rule-view micro-benchmark behind `--rules N`: an [`IncRules`] view
/// maintaining the attack-reachability program over a sliding-window edge
/// stream ([`workloads::WindowedStream`]), committed through its own
/// engine. Three phases, one JSON object:
///
/// * `fill` — [`RULES_WINDOW`] insert-only ticks populate the window
///   (per-commit latency, derived-fact census, oracle audit);
/// * `slide` — `N` steady-state ticks, each one coalesced batch carrying a
///   cohort of insertions *and* the retracted cohort that slid out
///   (per-commit latency plus the view's maintenance counters);
/// * `storm` — half the window retracted in a single coalesced batch,
///   timed against from-scratch re-evaluation of the post-storm graph
///   (naive fixpoint and semi-naive rebuild baselines) — the headline
///   `speedup_vs_naive` number.
///
/// The graph is a persistent backbone ([`RULES_BACKBONE_FACTOR`] × the
/// churn region, entry-anchored corridors that never slide out) with the
/// windowed churn riding in a disjoint host range — the streaming shape
/// the "undoable" side targets: storms retract transient edges only, so
/// incremental work stays bounded by the affected window facts while the
/// from-scratch baselines re-derive the whole database.
///
/// Every phase ends in `verify_all`, so each `audit` field is a real
/// incremental-vs-oracle comparison, not a checksum. The workload `seed`,
/// window and backbone parameters are recorded so a run is reproducible
/// from its JSON alone.
fn engine_rules(cfg: &ExpConfig) -> String {
    use igc_rules::{naive_fixpoint, IncRules};
    use std::time::Instant;

    let slide_ticks = cfg.rules.max(1);
    let nodes = ((4000.0 * cfg.scale).round() as usize).max(64);
    let per_tick = nodes; // mean degree ≈ RULES_WINDOW once the window fills
    let backbone = RULES_BACKBONE_FACTOR * nodes;
    let seed = GRAPH_SEED ^ 0x201e5;
    let (program, _exec, goal) = workloads::attack_program();
    let (g, mut ws) =
        workloads::WindowedStream::with_backbone(backbone, nodes, RULES_WINDOW, per_tick, seed);
    let backbone_edges = g.edge_count();

    let mut engine = Engine::new(g);
    engine.set_commit_mode(commit_mode(cfg));
    let rules = engine
        .register(IncRules::new(engine.graph(), program.clone()))
        .expect("register rules view");
    let audit = |engine: &mut Engine| -> String {
        if !cfg.verify {
            return "\"skipped\"".to_owned();
        }
        match engine.verify_all() {
            Ok(()) => "\"pass\"".to_owned(),
            Err(e) => format!("\"fail: {e}\""),
        }
    };

    // Phase 1: fill the window, insert-only ticks.
    let mut fill_s = Vec::with_capacity(RULES_WINDOW);
    for _ in 0..RULES_WINDOW {
        let delta = ws.next_batch();
        let t = Instant::now();
        engine.commit(&delta).expect("fill commit");
        fill_s.push(t.elapsed().as_secs_f64());
    }
    let (fill_facts, fill_goals) = {
        let view = engine.view(&rules).expect("rules view");
        (view.derived_count(), view.facts_of(goal).len())
    };
    let fill_audit = audit(&mut engine);

    // Phase 2: steady-state slides — every commit is a coalesced
    // insert-cohort + retract-cohort batch.
    let mut slide_s = Vec::with_capacity(slide_ticks);
    let mut slide_delta = igc_rules::RulesDelta::default();
    for _ in 0..slide_ticks {
        let delta = ws.next_batch();
        let t = Instant::now();
        engine.commit(&delta).expect("slide commit");
        slide_s.push(t.elapsed().as_secs_f64());
        let d = engine.view(&rules).expect("rules view").last_delta();
        slide_delta.facts_added += d.facts_added;
        slide_delta.facts_removed += d.facts_removed;
        slide_delta.overdeleted += d.overdeleted;
        slide_delta.rederived += d.rederived;
        slide_delta.repairs += d.repairs;
    }
    let slide_audit = audit(&mut engine);

    // Phase 3: the deletion storm — half the window out in one batch.
    let live_before = engine.graph().edge_count();
    let storm = ws.storm(RULES_WINDOW / 2);
    let deleted = storm.len();
    let t = Instant::now();
    engine.commit(&storm).expect("storm commit");
    let storm_s = t.elapsed().as_secs_f64();
    let storm_delta = engine.view(&rules).expect("rules view").last_delta();
    let storm_audit = audit(&mut engine);

    // From-scratch baselines on the post-storm graph.
    let t = Instant::now();
    let oracle = naive_fixpoint(engine.graph(), &program);
    let naive_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let rebuilt = IncRules::new(engine.graph(), program.clone());
    let seminaive_s = t.elapsed().as_secs_f64();
    assert_eq!(
        rebuilt.derived_count(),
        oracle.facts.len(),
        "from-scratch baselines disagree"
    );

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0f64, f64::max);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    format!(
        "{{\"program\": \"attack_graph\", \"seed\": {seed}, \"nodes\": {nodes}, \
         \"backbone_nodes\": {backbone}, \"backbone_edges\": {backbone_edges}, \
         \"window_ticks\": {RULES_WINDOW}, \"edges_per_tick\": {per_tick}, \
         \"slide_ticks\": {slide_ticks}, \
         \"fill\": {{\"commits\": {RULES_WINDOW}, \"mean_commit_s\": {:.9}, \
         \"max_commit_s\": {:.9}, \"derived_facts\": {fill_facts}, \
         \"goals_reached\": {fill_goals}, \"audit\": {fill_audit}}}, \
         \"slide\": {{\"commits\": {slide_ticks}, \"mean_commit_s\": {:.9}, \
         \"max_commit_s\": {:.9}, \"facts_added\": {}, \"facts_removed\": {}, \
         \"overdeleted\": {}, \"rederived\": {}, \"repairs\": {}, \
         \"audit\": {slide_audit}}}, \
         \"storm\": {{\"live_edges_before\": {live_before}, \"deleted_edges\": {deleted}, \
         \"commit_s\": {storm_s:.9}, \"scratch_naive_s\": {naive_s:.9}, \
         \"scratch_seminaive_s\": {seminaive_s:.9}, \"speedup_vs_naive\": {:.2}, \
         \"speedup_vs_seminaive\": {:.2}, \"facts_removed\": {}, \"overdeleted\": {}, \
         \"rederived\": {}, \"audit\": {storm_audit}}}, \
         \"derived_facts_final\": {}}}",
        mean(&fill_s),
        max(&fill_s),
        mean(&slide_s),
        max(&slide_s),
        slide_delta.facts_added,
        slide_delta.facts_removed,
        slide_delta.overdeleted,
        slide_delta.rederived,
        slide_delta.repairs,
        ratio(naive_s, storm_s),
        ratio(seminaive_s, storm_s),
        storm_delta.facts_removed,
        storm_delta.overdeleted,
        storm_delta.rederived,
        rebuilt.derived_count(),
    )
}

/// The chaos resilience run (`--chaos N`): `N` deterministic seeded fault
/// storms against a logged engine, each measuring the full degradation
/// story end to end:
///
/// * a [`ChaosBackend`](igc_log::ChaosBackend) wraps the journal and
///   executes a seeded [`FaultPlan`](igc_log::FaultPlan) of transient
///   append/read/sync failures and torn half-writes (no bit-flips — those
///   corrupt acknowledged records by design);
/// * the engine runs under a [`RetryPolicy`](igc_log::RetryPolicy); faults
///   inside the budget are absorbed (counted via
///   [`CommitReceipt::log_retries`](igc_engine::CommitReceipt)), faults
///   past it degrade the engine to read-only until
///   [`Engine::heal`](igc_engine::Engine::heal) lands — degraded windows,
///   their wall-clock and the mean time-to-heal are recorded;
/// * a resilient follower tails the same faulted journal throughout
///   (transient-read retries counted), and a dormant unpinned follower
///   that compaction outruns reattaches from the newest checkpoint;
/// * audits: no acknowledged commit is lost (a crash-recovery replays to
///   the leader's exact graph) and the view answers stay bit-identical to
///   a never-faulted twin fed the same acknowledged deltas.
fn engine_chaos(cfg: &ExpConfig) -> String {
    use igc_engine::{EngineError, Replica, TailResilience};
    use igc_log::{ChaosBackend, ChaosProfile, FaultPlan, MemBackend, RetryPolicy};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    const CHAOS_COMMITS: usize = 12;
    let storms = cfg.chaos.max(1);
    let profile = ChaosProfile {
        horizon: 128,
        append_fail: 0.12,
        read_fail: 0.06,
        sync_fail: 0.10,
        torn_fraction: 0.5,
        bit_flip: 0.0,
        max_burst: 3,
    };
    let retry =
        RetryPolicy::retries(2).with_delays(Duration::from_micros(20), Duration::from_micros(200));

    let mut acked = 0u64;
    let mut rejected = 0u64;
    let mut retries_absorbed = 0u64;
    let mut heal_probes_failed = 0u64;
    let mut degraded_windows = 0u64;
    let mut degraded_s = 0.0f64;
    let mut tail_retries = 0u64;
    let mut reattaches = 0u64;
    let (mut append_faults, mut read_faults, mut sync_faults, mut torn_writes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut audit = "\"pass\"".to_owned();
    let mut fail = |what: String| {
        if audit == "\"pass\"" {
            audit = format!("\"fail: {what}\"");
        }
    };

    for storm in 0..storms as u64 {
        let chaos = ChaosBackend::new(Arc::new(MemBackend::new()), FaultPlan::none());
        let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
        let mut leader = Engine::new(g.clone())
            .with_log(Arc::new(chaos.clone()) as Arc<dyn LogBackend>)
            .expect("attach chaos log");
        leader.set_checkpoint_every(ENGINE_LOG_CHECKPOINT_EVERY);
        leader.set_retry_policy(retry).expect("set retry policy");
        // Group commit so the storm also exercises the barrier path:
        // sync faults either get absorbed by the policy or surface as
        // sync debt that degrades the engine until healed.
        leader
            .set_durability(igc_log::DurabilityMode::GroupCommit {
                max_batch: 4,
                max_delay: Duration::from_secs(3600),
            })
            .expect("set durability");
        let leader_scc = leader
            .register(IncScc::new(leader.graph()))
            .expect("register scc");
        let mut twin = Engine::new(g);
        let twin_scc = twin
            .register(IncScc::new(twin.graph()))
            .expect("register twin scc");

        // A resilient follower that tails right through the storm, and a
        // dormant unpinned one for compaction to outrun.
        let resilience = TailResilience {
            retry: RetryPolicy::retries(6)
                .with_delays(Duration::from_micros(20), Duration::from_micros(200)),
            reattach: true,
        };
        let mut tailer = leader.replica().expect("attach tailer");
        tailer.set_tail_resilience(resilience);
        let mut dormant = Replica::attach(Arc::new(chaos.clone()) as Arc<dyn LogBackend>)
            .expect("attach dormant");
        dormant.set_tail_resilience(resilience);
        let drained = AtomicBool::new(true); // pre-stopped: tail = one resilient drain

        // The storm proper.
        chaos.set_plan(FaultPlan::seeded(GRAPH_SEED ^ (0xc4a05 + storm), &profile));
        for round in 0..CHAOS_COMMITS {
            let count = (((leader.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
            let delta = random_update_batch(
                leader.graph(),
                count,
                0.5,
                GRAPH_SEED ^ (0xc400 + storm * 100 + round as u64),
            );
            let mut landed = false;
            for _ in 0..500 {
                if leader.is_degraded() {
                    if leader.heal().is_err() {
                        heal_probes_failed += 1; // still inside a window
                    }
                    continue;
                }
                match leader.commit(&delta) {
                    Ok(receipt) => {
                        acked += 1;
                        retries_absorbed += receipt.log_retries;
                        landed = true;
                        break;
                    }
                    Err(EngineError::RetriesExhausted { .. }) => rejected += 1,
                    Err(other) => panic!("chaos storm surfaced {other:?}"),
                }
            }
            assert!(landed, "commit did not land within the plan horizon");
            twin.commit(&delta).expect("twin commit");
            tailer
                .tail(&drained, Duration::from_millis(1))
                .expect("resilient tail");
        }

        // Quiet the storm, settle debt, and audit the whole story.
        chaos.set_plan(FaultPlan::none());
        while leader.is_degraded() {
            leader.heal().expect("heal under a quiet plan");
        }
        leader.sync_log().expect("settle sync debt");
        degraded_windows += leader.degraded_windows();
        degraded_s += leader.degraded_elapsed().as_secs_f64();
        let stats = chaos.stats();
        append_faults += stats.append_faults;
        read_faults += stats.read_faults;
        sync_faults += stats.sync_faults;
        torn_writes += stats.torn_writes;

        if cfg.verify {
            if let Err(e) = leader.verify_all() {
                fail(format!("storm {storm}: leader audit: {e}"));
            }
            // Views bit-identical to the never-faulted twin.
            if leader.view(&leader_scc).expect("leader scc").components()
                != twin.view(&twin_scc).expect("twin scc").components()
            {
                fail(format!("storm {storm}: leader diverged from the twin"));
            }
            // No acked commit lost: recovery replays the exact graph.
            let recovered = Engine::recover(chaos.inner()).expect("recover");
            if recovered.epoch() != leader.epoch()
                || recovered.graph().sorted_edges() != leader.graph().sorted_edges()
            {
                fail(format!("storm {storm}: recovery lost acked commits"));
            }
        }

        // The tailing follower rode the storm out; compaction outruns the
        // dormant one, whose resilient drain reattaches from the newest
        // checkpoint.
        tailer
            .tail(&drained, Duration::from_millis(1))
            .expect("final drain");
        if tailer.frontier() != leader.epoch() {
            fail(format!("storm {storm}: tailer stranded"));
        }
        leader.compact_log().expect("compact");
        dormant
            .tail(&drained, Duration::from_millis(1))
            .expect("dormant reattach drain");
        if dormant.frontier() != leader.epoch() {
            fail(format!("storm {storm}: dormant follower stranded"));
        }
        tail_retries += tailer.tail_retries();
        reattaches += dormant.reattaches();
    }

    let mean_heal_ms = if degraded_windows > 0 {
        degraded_s * 1e3 / degraded_windows as f64
    } else {
        0.0
    };
    format!(
        "{{\"storms\": {storms}, \"commits_per_storm\": {CHAOS_COMMITS}, \
         \"retry_attempts\": {}, \"profile\": {{\"horizon\": {}, \
         \"append_fail\": {}, \"read_fail\": {}, \"sync_fail\": {}, \
         \"torn_fraction\": {}, \"max_burst\": {}}}, \
         \"acked_commits\": {acked}, \"rejected_commits\": {rejected}, \
         \"log_retries_absorbed\": {retries_absorbed}, \
         \"append_faults\": {append_faults}, \"read_faults\": {read_faults}, \
         \"sync_faults\": {sync_faults}, \"torn_writes\": {torn_writes}, \
         \"degraded_windows\": {degraded_windows}, \
         \"degraded_ms\": {:.3}, \"mean_time_to_heal_ms\": {mean_heal_ms:.3}, \
         \"heal_probes_failed\": {heal_probes_failed}, \
         \"replica_tail_retries\": {tail_retries}, \
         \"replica_reattaches\": {reattaches}, \"audit\": {audit}}}",
        retry.max_attempts,
        profile.horizon,
        profile.append_fail,
        profile.read_fail,
        profile.sync_fail,
        profile.torn_fraction,
        profile.max_burst,
        degraded_s * 1e3,
    )
}

/// Number of commits each arm of the MVCC snapshot experiment drives.
const SNAPSHOT_COMMITS: usize = 16;

/// Pinned-reader depth of the copy-on-write arm: the newest
/// `SNAPSHOT_PIN_DEPTH` epochs stay pinned throughout.
const SNAPSHOT_PIN_DEPTH: usize = 4;

/// The MVCC snapshot serving run (`--snapshots N`): the `snapshots`
/// section of `BENCH_engine.json`.
///
/// Three arms over identical DBpedia-like engines (all four view classes
/// registered) fed identical ~2 %-of-edges deltas:
///
/// * **publish** — no pins held: per-commit MVCC bookkeeping (version GC +
///   publication, measured directly by the store) as a share of the median
///   commit. This is the hot-path cost every deployment pays; the audit
///   requires < 5 % of the median commit.
/// * **pinned** — the newest [`SNAPSHOT_PIN_DEPTH`] epochs stay pinned by
///   readers throughout: the first commit after each pin copies the shared
///   graph and each view's answer state, the version GC must still hold the window at
///   ≤ pin-depth + 1, and a pin frozen early in the run must serve
///   bit-identical answers at the end (checked on graph edges + SCC
///   components).
/// * **reader throughput** — `N` reader threads pin-and-read snapshots in a
///   loop (no locks, no coordination) while the writer drives the same
///   commit stream; reports sustained reads/s.
fn engine_snapshots(cfg: &ExpConfig) -> String {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let readers = cfg.snapshots.max(1);
    let mut audit = "\"pass\"".to_owned();
    let mut fail = |what: String| {
        if audit == "\"pass\"" {
            audit = format!("\"fail: {what}\"");
        }
    };
    let median = |series: &[f64]| -> f64 {
        let mut s = series.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        s[(s.len() - 1) / 2]
    };
    let build = |g: &DynamicGraph| -> Engine {
        let mut e = Engine::new(g.clone());
        e.register(IncRpq::new(e.graph(), &workloads::default_rpq(495)))
            .expect("register rpq");
        e.register(IncScc::new(e.graph())).expect("register scc");
        e.register(IncKws::new(e.graph(), workloads::default_kws()))
            .expect("register kws");
        e.register(IncIso::new(e.graph(), workloads::default_iso()))
            .expect("register iso");
        e
    };
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let deltas: Vec<UpdateBatch> = {
        // Same stream for every arm: sized against the starting graph
        // (ρ = 0.5 keeps the size stable, so the arms stay comparable).
        let count = (((g.edge_count() as f64) * 0.02).round() as usize).max(1);
        (0..SNAPSHOT_COMMITS)
            .map(|i| random_update_batch(&g, count, 0.5, GRAPH_SEED ^ (0x5a4b + i as u64)))
            .collect()
    };

    // Arm 1: publish overhead, no pins. The window must stay at 1 and the
    // store-measured MVCC time must be a sliver of the commit.
    let mut baseline = build(&g);
    let publish_at_start = baseline.snapshot_store().publish_elapsed();
    let mut base_lat = Vec::with_capacity(SNAPSHOT_COMMITS);
    for delta in &deltas {
        let receipt = baseline.commit(delta).expect("baseline commit");
        base_lat.push(receipt.elapsed.as_secs_f64());
        if baseline.snapshot_store().window() != 1 {
            fail(format!(
                "no-pins window is {}, expected 1",
                baseline.snapshot_store().window()
            ));
        }
    }
    let publish_s = (baseline.snapshot_store().publish_elapsed() - publish_at_start).as_secs_f64();
    let publish_per_commit_s = publish_s / SNAPSHOT_COMMITS as f64;
    let base_median = median(&base_lat);
    let publish_overhead_pct = if base_median > 0.0 {
        publish_per_commit_s / base_median * 100.0
    } else {
        0.0
    };
    if publish_overhead_pct >= 5.0 {
        fail(format!(
            "publish overhead {publish_overhead_pct:.3} % of the median commit (target < 5 %)"
        ));
    }

    // Arm 2: the same stream with the newest SNAPSHOT_PIN_DEPTH epochs
    // pinned throughout, plus one pin frozen early and held to the end.
    let mut pinned = build(&g);
    let mut pin_lat = Vec::with_capacity(SNAPSHOT_COMMITS);
    let mut live_pins: std::collections::VecDeque<igc_engine::Snapshot> =
        std::collections::VecDeque::new();
    let mut frozen: Option<(
        igc_engine::Snapshot,
        Vec<igc_graph::Edge>,
        Vec<Vec<igc_graph::NodeId>>,
    )> = None;
    let mut max_window = 0usize;
    let mut window_rows = Vec::with_capacity(SNAPSHOT_COMMITS);
    for (i, delta) in deltas.iter().enumerate() {
        let receipt = pinned.commit(delta).expect("pinned commit");
        pin_lat.push(receipt.elapsed.as_secs_f64());
        live_pins.push_back(pinned.snapshot().expect("pin the new head"));
        if live_pins.len() > SNAPSHOT_PIN_DEPTH {
            live_pins.pop_front();
        }
        if i == 2 {
            let s = pinned.snapshot().expect("freeze a pin");
            let scc: &IncScc = s
                .view_dyn(s.find("scc").expect("scc published"))
                .expect("scc active")
                .as_any()
                .downcast_ref()
                .expect("scc type");
            frozen = Some((s.clone(), s.graph().sorted_edges(), scc.components()));
        }
        let stats = pinned.snapshot_store().retained_stats();
        max_window = max_window.max(stats.versions);
        window_rows.push(format!(
            "{{\"epoch\": {}, \"versions\": {}, \"distinct_graphs\": {}, \
             \"distinct_view_cells\": {}}}",
            receipt.epoch, stats.versions, stats.distinct_graphs, stats.distinct_view_cells
        ));
        // +2, not +1: the frozen pin from commit 2 is a fifth distinct
        // pinned epoch once the sliding window has moved past it.
        let bound = SNAPSHOT_PIN_DEPTH + if i >= 2 { 1 } else { 0 } + 1;
        if stats.versions > bound {
            fail(format!(
                "commit {i}: window {} exceeds pin bound {bound}",
                stats.versions
            ));
        }
    }
    let pin_median = median(&pin_lat);
    let cow_overhead_pct = if base_median > 0.0 {
        (pin_median - base_median) / base_median * 100.0
    } else {
        0.0
    };
    let (frozen_pin, frozen_edges, frozen_scc) = frozen.expect("frozen pin captured");
    if frozen_pin.graph().sorted_edges() != frozen_edges {
        fail("frozen pin's graph drifted".to_owned());
    }
    let scc_now: &IncScc = frozen_pin
        .view_dyn(frozen_pin.find("scc").expect("scc still in the pin"))
        .expect("scc active in the pin")
        .as_any()
        .downcast_ref()
        .expect("scc type");
    if scc_now.components() != frozen_scc {
        fail("frozen pin's scc answers drifted".to_owned());
    }
    if cfg.verify {
        if let Err(e) = pinned.verify_all() {
            fail(format!("pinned-arm live views diverged: {e}"));
        }
    }
    drop(live_pins);
    drop(frozen_pin);

    // Arm 3: reader threads pin-and-read while the writer commits the
    // same stream over the arm-2 engine (its pins just dropped, so the
    // window re-collapses as the commits flow).
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let handles: Vec<std::thread::JoinHandle<()>> = (0..readers)
        .map(|_| {
            let store = Arc::clone(pinned.snapshot_store());
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Ok(s) = store.snapshot() else { continue };
                    // A real read: resolve a label and touch the graph —
                    // both plain derefs on the pinned version.
                    let _ = s.find("scc");
                    std::hint::black_box(s.graph().edge_count());
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let write_start = std::time::Instant::now();
    let count = (((pinned.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
    for i in 0..SNAPSHOT_COMMITS {
        let delta = random_update_batch(
            pinned.graph(),
            count,
            0.5,
            GRAPH_SEED ^ (0x5a4c00 + i as u64),
        );
        pinned.commit(&delta).expect("commit under readers");
    }
    let write_s = write_start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let total_reads = reads.load(Ordering::Relaxed);
    let reads_per_s = if write_s > 0.0 {
        total_reads as f64 / write_s
    } else {
        0.0
    };
    if total_reads == 0 {
        fail("readers made no progress under sustained writes".to_owned());
    }

    format!(
        "{{\"readers\": {readers}, \"commits_per_arm\": {SNAPSHOT_COMMITS}, \
         \"pin_depth\": {SNAPSHOT_PIN_DEPTH}, \
         \"publish\": {{\"median_commit_s\": {base_median:.9}, \
         \"per_commit_s\": {publish_per_commit_s:.9}, \
         \"overhead_pct\": {publish_overhead_pct:.4}}}, \
         \"pinned\": {{\"median_commit_s\": {pin_median:.9}, \
         \"cow_overhead_pct\": {cow_overhead_pct:.3}, \
         \"max_window\": {max_window}, \"window\": [{}]}}, \
         \"reader_throughput\": {{\"threads\": {readers}, \"reads\": {total_reads}, \
         \"writer_elapsed_s\": {write_s:.9}, \"reads_per_s\": {reads_per_s:.1}}}, \
         \"audit\": {audit}}}",
        window_rows.join(", "),
    )
}

/// One churning multi-view serving run with the full v2 lifecycle: the four
/// default views plus a deliberately flaky canary registered on a
/// DBpedia-like graph, `ENGINE_COMMITS` commits of ~2 % of the edges each
/// (ρ = 0.5, so the graph size stays stable), per-commit latency recorded
/// per view. Along the way the canary is quarantined by the engine (commit
/// 3) and later deregistered; the `iso` view is deregistered mid-run and
/// lazily re-registered from the live graph a few commits later. All
/// lifecycle events land in the JSON alongside the latency series. With
/// `verify` on, every surviving view is audited against from-scratch
/// recomputation after the final commit.
///
/// With `cfg.log` the engine journals write-ahead through a file-backed
/// commit log and the run additionally demonstrates a **background** view
/// build (`rpq:bg` spawned at commit [`ENGINE_BACKGROUND_SPAWN_AT`],
/// joined after the last commit, answers cross-checked against the eager
/// `rpq` view); the JSON gains `log` (journal totals + replay-throughput
/// series) and `background` sections. With `cfg.crash_at = Some(n)` the
/// engine is dropped after `n` commits and rebuilt with
/// [`Engine::recover`]; the four classes re-join lazily from the replayed
/// graph and the run serves the remaining commits — the JSON records the
/// crash/recovery in a `recovery` section.
///
/// With `cfg.replicas = n ≥ 1` the JSON additionally gains a
/// `replication` section (see [`engine_replication`](self): read
/// throughput at 1/2/4 replicas, observed tailing lag plus backlog drain
/// time, and per-cadence journal bytes under periodic compaction).
///
/// With `cfg.ingest = n ≥ 1` the JSON additionally gains an `ingest`
/// section (see [`engine_ingest`](self)): `n` concurrent submitters
/// driven through the async front door under four durability/coalescing
/// arms, with throughput, p50/p99 submit→receipt latency and
/// receipts-match-submissions audits.
///
/// With `cfg.rules = n ≥ 1` the JSON additionally gains a `rules` section
/// (see [`engine_rules`](self)): an `IncRules` attack-graph view over a
/// sliding-window edge stream — fill/slide/deletion-storm phases with
/// per-commit latency, maintenance counters, oracle audits, and the
/// storm-phase speedup over from-scratch re-evaluation.
///
/// With `cfg.chaos = n ≥ 1` the JSON additionally gains a `chaos` section
/// (see [`engine_chaos`](self)): `n` deterministic seeded fault storms
/// against a logged engine under a retry policy — absorbed retries,
/// degraded read-only windows with mean time-to-heal, self-healing
/// replica counters, and no-acked-commit-lost + views-bit-identical
/// audits against a never-faulted twin.
///
/// With `cfg.snapshots = n ≥ 1` the JSON additionally gains a `snapshots`
/// section (see [`engine_snapshots`](self)): MVCC publish overhead on the
/// commit hot path (target < 5 % of the median commit), copy-on-write
/// cost and the version-window memory series under held reader pins, and
/// sustained reader throughput from `n` snapshot-pinning threads — with
/// frozen-pin bit-identity and window-bound audits.
pub fn engine_run(cfg: &ExpConfig) -> EngineRun {
    let g = workloads::dataset(Dataset::DbpediaLike, cfg.scale);
    let logging = cfg.log || cfg.crash_at.is_some();
    // Resolve the log directory: user-specified (wiped, kept) or a
    // throwaway temp dir (removed at the end of the run).
    let log_dir = logging.then(|| match &cfg.log_dir {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => (temp_log_dir(), true),
    });
    let backend: Option<Arc<dyn LogBackend>> = log_dir.as_ref().map(|(dir, _)| {
        let _ = std::fs::remove_dir_all(dir);
        Arc::new(FileBackend::new(dir).expect("create log directory")) as Arc<dyn LogBackend>
    });

    let mut engine = Engine::new(g);
    if let Some(b) = &backend {
        engine = engine.with_log(b.clone()).expect("attach commit log");
        engine.set_checkpoint_every(ENGINE_LOG_CHECKPOINT_EVERY);
    }
    engine.set_commit_mode(commit_mode(cfg));
    engine
        .register(IncRpq::new(engine.graph(), &workloads::default_rpq(495)))
        .expect("register rpq");
    engine
        .register(IncScc::new(engine.graph()))
        .expect("register scc");
    engine
        .register(IncKws::new(engine.graph(), workloads::default_kws()))
        .expect("register kws");
    engine
        .register(IncIso::new(engine.graph(), workloads::default_iso()))
        .expect("register iso");
    engine
        .register(EngineCanary { applies: 0 })
        .expect("register canary");

    // Column labels come from the registry itself, so adding/reordering
    // views above cannot desynchronize the table. `Row` wants 'static
    // strs; leaking one small string per view per process run is fine. The
    // initial set stays the header for the whole run — lifecycle events
    // remove and re-add views, and absent views report 0 for that commit.
    let view_names: Vec<&'static str> = engine
        .labels()
        .map(|l| &*Box::leak(l.to_string().into_boxed_str()))
        .collect();
    let labels_json = view_names
        .iter()
        .map(|l| format!("\"{l}\""))
        .collect::<Vec<_>>()
        .join(", ");

    let mut rows = Vec::new();
    let mut commits_json: Vec<String> = Vec::new();
    let mut recovery_json: Option<String> = None;
    let mut background: Option<igc_engine::BackgroundBuild<IncRpq>> = None;
    for i in 0..ENGINE_COMMITS {
        // The crash script: after `crash_at` commits, drop the engine
        // cold (mid-stream, no farewell checkpoint) and rebuild it purely
        // from the journal; the four classes re-join lazily from the
        // replayed graph and the run keeps serving.
        if cfg.crash_at == Some(i) {
            let crash_epoch = engine.epoch();
            drop(std::mem::replace(
                &mut engine,
                Engine::new(DynamicGraph::new()),
            ));
            let backend = backend.clone().expect("crash requires the log backend");
            let recover_start = std::time::Instant::now();
            let mut recovered = Engine::recover(backend).expect("recover from journal");
            let replay_s = recover_start.elapsed().as_secs_f64();
            assert_eq!(
                recovered.epoch(),
                crash_epoch,
                "recovered at the crash epoch"
            );
            recovered.set_commit_mode(commit_mode(cfg));
            recovered.set_checkpoint_every(ENGINE_LOG_CHECKPOINT_EVERY);
            recovered
                .register_lazy("rpq", IncRpq::init(workloads::default_rpq(495)))
                .expect("re-register rpq");
            recovered
                .register_lazy("scc", IncScc::init())
                .expect("re-register scc");
            recovered
                .register_lazy("kws", IncKws::init(workloads::default_kws()))
                .expect("re-register kws");
            recovered
                .register_lazy("iso", IncIso::init(workloads::default_iso()))
                .expect("re-register iso");
            if cfg.verify {
                recovered
                    .verify_all()
                    .expect("recovered views audit clean against recomputation");
            }
            let deltas_replayed = recovered.log().map_or(0, |l| l.deltas());
            recovery_json = Some(format!(
                "{{\"crash_after_commits\": {i}, \"crash_at_epoch\": {crash_epoch}, \
                 \"replay_s\": {replay_s:.9}, \"deltas_in_journal\": {deltas_replayed}, \
                 \"reregistered\": [\"rpq\", \"scc\", \"kws\", \"iso\"], \
                 \"audit\": \"clean\"}}"
            ));
            engine = recovered;
        }

        // The lifecycle script, keyed on commit index (epoch = index + 1):
        // the canary quarantines itself at epoch 3 and is deregistered
        // before commit 6; iso is deregistered before commit 4 and lazily
        // re-registered (from the live graph) before commit 8. Every step
        // is guarded on the roster so the script composes with a crash at
        // any point (post-recovery, the canary stays gone and iso is
        // already back).
        if i == 4 {
            if let Some(iso) = engine.find("iso") {
                engine.deregister(iso).expect("deregister iso");
            }
        }
        if i == 6 {
            if let Some(canary) = engine.find("canary") {
                engine.deregister(canary).expect("deregister canary");
            }
        }
        if i == 8 && engine.find("iso").is_none() {
            engine
                .register_lazy("iso", IncIso::init(workloads::default_iso()))
                .expect("lazy re-register iso");
        }
        // The background-build script (logged, non-crashing runs): spawn
        // an off-path `rpq:bg` build; commits keep flowing below while it
        // replays the journal on its worker, and it joins after the final
        // commit.
        if logging && cfg.crash_at.is_none() && i == ENGINE_BACKGROUND_SPAWN_AT {
            background = Some(
                engine
                    .register_background("rpq:bg", IncRpq::init(workloads::default_rpq(495)))
                    .expect("spawn background rpq build"),
            );
        }

        let count = (((engine.graph().edge_count() as f64) * 0.02).round() as usize).max(1);
        let delta =
            random_update_batch(engine.graph(), count, 0.5, GRAPH_SEED ^ (0xe91 + i as u64));

        // Commit 2 (0-based) trips the canary; silence the panic hook for
        // just that commit.
        let receipt = if i == 2 {
            quiet_panics(|| engine.commit(&delta))
        } else {
            engine.commit(&delta)
        }
        .expect("engine commit");

        let mut times: Vec<(&'static str, f64)> = vec![("commit", receipt.elapsed.as_secs_f64())];
        let mut per_view_json = String::new();
        for name in &view_names {
            let v = receipt.per_view.iter().find(|v| &*v.label == *name);
            times.push((name, v.map_or(0.0, |v| v.elapsed.as_secs_f64())));
            if let Some(v) = v {
                if !per_view_json.is_empty() {
                    per_view_json.push_str(", ");
                }
                let quarantined = if v.applied() {
                    ""
                } else {
                    ", \"quarantined\": true"
                };
                per_view_json.push_str(&format!(
                    "\"{}\": {{\"latency_s\": {:.9}, \"work\": {}{}}}",
                    v.label,
                    v.elapsed.as_secs_f64(),
                    v.work.total(),
                    quarantined
                ));
            }
        }
        commits_json.push(format!(
            "    {{\"epoch\": {}, \"submitted\": {}, \"applied\": {}, \"dropped\": {}, \
             \"latency_s\": {:.9}, \"graph_s\": {:.9}, \"skipped_quarantined\": {}, \
             \"per_view\": {{{}}}}}",
            receipt.epoch,
            receipt.submitted,
            receipt.applied,
            receipt.dropped,
            receipt.elapsed.as_secs_f64(),
            receipt.graph_elapsed.as_secs_f64(),
            receipt.skipped_quarantined,
            per_view_json
        ));
        rows.push(Row {
            x: format!("{}", receipt.epoch),
            times,
        });
    }

    // Join the background build: catch `rpq:bg` up on the log tail and
    // splice it in, then cross-check it against the eager `rpq` view that
    // saw every commit live — bit-identical answers or the run fails.
    let background_json = background.map(|build| {
        let spawn_epoch = ENGINE_BACKGROUND_SPAWN_AT as u64;
        let join_start = std::time::Instant::now();
        let bg = engine.join_background(build).expect("join background rpq");
        let join_s = join_start.elapsed().as_secs_f64();
        let eager: ViewHandle<IncRpq> = engine
            .typed(engine.find("rpq").expect("eager rpq live"))
            .expect("rpq handle");
        let identical = engine.view(&bg).expect("bg view").sorted_answer()
            == engine.view(&eager).expect("eager view").sorted_answer();
        if cfg.verify {
            assert!(identical, "background rpq diverged from eager rpq");
        }
        format!(
            "{{\"label\": \"rpq:bg\", \"spawned_before_commit\": {spawn_epoch}, \
             \"joined_at_epoch\": {}, \"join_s\": {join_s:.9}, \
             \"matches_eager\": {identical}}}",
            engine.epoch()
        )
    });

    if cfg.verify {
        if let Err(failures) = engine.verify_all() {
            panic!("engine views diverged from batch recomputation: {failures}");
        }
    }

    // Journal totals plus a replay-throughput series: rebuild the graph
    // at 25/50/75/100 % of the logged history and record how fast
    // checkpoint-restore + tail replay runs.
    let log_json = engine.log().map(|log| {
        let replayer = log.replayer();
        let summary = replayer.summary().expect("log summary");
        let mut replay_rows = Vec::new();
        for quarter in [1u64, 2, 3, 4] {
            let target =
                summary.first_epoch + (summary.last_epoch - summary.first_epoch) * quarter / 4;
            let replay_start = std::time::Instant::now();
            let replayed = replayer.replay_at(target).expect("replay");
            let elapsed = replay_start.elapsed().as_secs_f64();
            let units_per_s = if elapsed > 0.0 {
                replayed.units_applied as f64 / elapsed
            } else {
                0.0
            };
            replay_rows.push(format!(
                "{{\"to_epoch\": {target}, \"base\": {}, \"deltas\": {}, \"units\": {}, \
                 \"elapsed_s\": {elapsed:.9}, \"units_per_s\": {units_per_s:.1}}}",
                replayed.base_epoch, replayed.deltas_applied, replayed.units_applied
            ));
        }
        format!(
            "{{\"checkpoint_every\": {}, \"deltas\": {}, \"checkpoints\": {}, \
             \"units\": {}, \"bytes\": {}, \"torn_tails\": {}, \"replay\": [{}]}}",
            engine.checkpoint_every(),
            summary.deltas,
            summary.checkpoints,
            summary.units,
            summary.bytes,
            summary.torn_tails,
            replay_rows.join(", ")
        )
    });

    let events_json = engine
        .events()
        .iter()
        .map(|e| {
            format!(
                "    {{\"epoch\": {}, \"kind\": \"{}\", \"label\": \"{}\"}}",
                e.epoch,
                e.kind.tag(),
                e.label
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (mode_tag, threads) = match engine.commit_mode() {
        igc_engine::CommitMode::Sequential => ("sequential", 0),
        igc_engine::CommitMode::Parallel { threads } => ("parallel", threads),
    };
    let comparison_json = engine_compare(cfg);
    // Durability sections, present only on logged / crashed runs.
    let mut extra_sections = String::new();
    if let Some(log) = log_json {
        extra_sections.push_str(&format!("  \"log\": {log},\n"));
    }
    if let Some((dir, _)) = &log_dir {
        let logged_comparison = engine_logged_compare(cfg, dir);
        extra_sections.push_str(&format!("  \"logged_comparison\": {logged_comparison},\n"));
    }
    if let Some(recovery) = recovery_json {
        extra_sections.push_str(&format!("  \"recovery\": {recovery},\n"));
    }
    if let Some(bg) = background_json {
        extra_sections.push_str(&format!("  \"background\": {bg},\n"));
    }
    if cfg.replicas > 0 {
        let replication = engine_replication(cfg);
        extra_sections.push_str(&format!("  \"replication\": {replication},\n"));
    }
    if cfg.ingest > 0 {
        let ingest = engine_ingest(cfg);
        extra_sections.push_str(&format!("  \"ingest\": {ingest},\n"));
    }
    if cfg.rules > 0 {
        let rules = engine_rules(cfg);
        extra_sections.push_str(&format!("  \"rules\": {rules},\n"));
    }
    if cfg.chaos > 0 {
        let chaos = engine_chaos(cfg);
        extra_sections.push_str(&format!("  \"chaos\": {chaos},\n"));
    }
    if cfg.snapshots > 0 {
        let snapshots = engine_snapshots(cfg);
        extra_sections.push_str(&format!("  \"snapshots\": {snapshots},\n"));
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_commit\",\n  \"dataset\": \"dbpedia_like\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \
         \"available_parallelism\": {},\n  \"views\": [{}],\n  \"commits\": [\n{}\n  ],\n  \
         \"events\": [\n{}\n  ],\n  \"comparison\": {},\n{}  \
         \"totals\": {{\"commits\": {}, \"units_applied\": {}, \"units_dropped\": {}, \
         \"latency_s\": {:.9}, \"work\": {}, \"retired_views\": {}}}\n}}\n",
        cfg.scale,
        GRAPH_SEED,
        mode_tag,
        threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        labels_json,
        commits_json.join(",\n"),
        events_json,
        comparison_json,
        extra_sections,
        engine.commits(),
        engine.units_applied(),
        engine.units_dropped(),
        engine.total_elapsed().as_secs_f64(),
        engine.total_work().total(),
        engine.retired().len()
    );

    // An auto-managed (temp-dir) journal is torn down with the run; a
    // user-specified --log-dir is kept for post-mortem replay.
    if let Some((dir, temporary)) = &log_dir {
        if *temporary {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    EngineRun {
        series: Series {
            title: format!(
                "Engine: {} commits × 4 views + canary (DBpedia-like), per-commit \
                 latency, lifecycle mid-run",
                ENGINE_COMMITS
            ),
            x_label: "epoch",
            unit: "s",
            rows,
        },
        json,
    }
}

/// All figure ids understood by [`run`].
pub const ALL_FIGS: [&str; 16] = [
    "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h", "fig8i", "fig8j",
    "fig8k", "fig8l", "fig8m", "fig8n", "fig8o", "fig8p",
];

/// Run one named experiment.
pub fn run(fig: &str, cfg: &ExpConfig) -> Series {
    use Class::*;
    use Dataset::*;
    match fig {
        "fig8a" => fig8_deltag(
            Kws,
            DbpediaLike,
            cfg,
            "Fig 8(a) Varying ΔG, KWS (DBpedia-like)",
        ),
        "fig8b" => fig8_deltag(
            Rpq,
            DbpediaLike,
            cfg,
            "Fig 8(b) Varying ΔG, RPQ (DBpedia-like)",
        ),
        "fig8c" => fig8_deltag(
            Scc,
            DbpediaLike,
            cfg,
            "Fig 8(c) Varying ΔG, SCC (DBpedia-like)",
        ),
        "fig8d" => fig8_deltag(
            Iso,
            DbpediaLike,
            cfg,
            "Fig 8(d) Varying ΔG, ISO (DBpedia-like)",
        ),
        "fig8e" => fig8_deltag(
            Kws,
            LivejournalLike,
            cfg,
            "Fig 8(e) Varying ΔG, KWS (liveJ-like)",
        ),
        "fig8f" => fig8_deltag(
            Rpq,
            LivejournalLike,
            cfg,
            "Fig 8(f) Varying ΔG, RPQ (liveJ-like)",
        ),
        "fig8g" => fig8_deltag(
            Scc,
            LivejournalLike,
            cfg,
            "Fig 8(g) Varying ΔG, SCC (liveJ-like)",
        ),
        "fig8h" => fig8_deltag(
            Iso,
            LivejournalLike,
            cfg,
            "Fig 8(h) Varying ΔG, ISO (liveJ-like)",
        ),
        "fig8i" => fig8_deltag(Scc, Synthetic, cfg, "Fig 8(i) Varying ΔG, SCC (Synthetic)"),
        "fig8j" => fig8j(cfg),
        "fig8k" => fig8k(cfg),
        "fig8l" => fig8l(cfg),
        "fig8m" => fig8_scale(Kws, cfg, "Fig 8(m) Varying G, KWS (Synthetic)"),
        "fig8n" => fig8_scale(Rpq, cfg, "Fig 8(n) Varying G, RPQ (Synthetic)"),
        "fig8o" => fig8_scale(Scc, cfg, "Fig 8(o) Varying G, SCC (Synthetic)"),
        "fig8p" => fig8_scale(Iso, cfg, "Fig 8(p) Varying G, ISO (Synthetic)"),
        "unit" => unit_updates(cfg),
        "rho" => rho_sensitivity(cfg),
        "undoable" => undoable_demo(),
        "locality" => locality_demo(cfg),
        "engine" => engine_run(cfg).series,
        other => panic!("unknown experiment id {other:?}"),
    }
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
        let times = scc_point(&g, &delta, true);
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn rpq_and_iso_points_verify_at_tiny_scale() {
        let cfg = tiny();
        let g = workloads::dataset(Dataset::Synthetic, cfg.scale);
        let delta = delta_for(&g, 0.05, 0.5, 3);
        assert_eq!(
            rpq_point(&g, &workloads::default_rpq(100), &delta, true).len(),
            3
        );
        assert_eq!(
            iso_point(&g, &workloads::default_iso(), &delta, true).len(),
            3
        );
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
        // Only check dispatch for the cheap in-text experiments here; the
        // fig8 sweeps are exercised by the experiments binary.
        let _ = run("undoable", &tiny());
    }

    #[test]
    fn engine_run_parallel_mode_is_recorded_and_consistent() {
        let cfg = ExpConfig {
            threads: 2,
            ..tiny()
        };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        assert!(r.json.contains("\"mode\": \"parallel\""));
        assert!(r.json.contains("\"threads\": 2"));
        // verify=true already audited every surviving view against batch
        // recomputation inside engine_run, under parallel fan-out.
    }

    #[test]
    fn engine_run_with_log_journals_replays_and_joins_background_view() {
        let cfg = ExpConfig {
            log: true,
            ..tiny()
        };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        // Journal totals and the replay-throughput series.
        assert!(r.json.contains("\"log\": {\"checkpoint_every\": 4"));
        assert!(r.json.contains("\"replay\": [{\"to_epoch\""));
        assert!(r.json.contains("\"units_per_s\""));
        assert!(r.json.contains("\"torn_tails\": 0"));
        // The lockstep logged-vs-unlogged series pins the WAL overhead.
        assert!(r.json.contains("\"logged_comparison\": {\"commits\": 8"));
        assert!(r.json.contains("\"overhead_pct\""));
        // The background build joined and matched the eager rpq view
        // (verify=true would have panicked otherwise).
        assert!(r
            .json
            .contains("\"kind\": \"registered_background\", \"label\": \"rpq:bg\""));
        assert!(r.json.contains("\"matches_eager\": true"));
        // No crash in this run.
        assert!(!r.json.contains("\"recovery\""));
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_with_replicas_emits_the_replication_section() {
        let cfg = ExpConfig {
            replicas: 2,
            log: true,
            ..tiny()
        };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        // The three replication phases all land in the JSON.
        assert!(r
            .json
            .contains("\"replication\": {\"read_throughput\": [{\"replicas\": 1"));
        assert!(r.json.contains("{\"replicas\": 2"));
        assert!(r.json.contains("{\"replicas\": 4"));
        assert!(r.json.contains("\"reads_per_s\""));
        assert!(r.json.contains("\"lag\": {\"followers\": 2"));
        assert!(r.json.contains("\"observed_max_lag_epochs\""));
        assert!(r.json.contains("\"drain_ms\""));
        assert!(r.json.contains("\"final_lag_epochs\": 0"));
        // A full sleep-through backlog is exactly the commit count.
        assert!(r
            .json
            .contains(&format!("\"backlog_epochs\": {REPLICATION_COMMITS}")));
        assert!(r.json.contains("\"compaction\": {\"cadences\": 5"));
        assert!(r.json.contains("\"journal_bounded\": true"));
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_with_rules_emits_the_rules_section() {
        let cfg = ExpConfig { rules: 3, ..tiny() };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        // All three phases with their audits, plus the reproducibility
        // parameters (seed + window geometry).
        assert!(r.json.contains("\"rules\": {\"program\": \"attack_graph\""));
        assert!(r
            .json
            .contains(&format!("\"seed\": {}", GRAPH_SEED ^ 0x201e5)));
        assert!(r
            .json
            .contains(&format!("\"window_ticks\": {RULES_WINDOW}")));
        assert!(r.json.contains("\"slide_ticks\": 3"));
        assert!(r.json.contains("\"fill\": {\"commits\""));
        assert!(r.json.contains("\"slide\": {\"commits\": 3"));
        assert!(r.json.contains("\"storm\": {\"live_edges_before\""));
        assert!(r.json.contains("\"speedup_vs_naive\""));
        assert_eq!(
            r.json.matches("\"audit\": \"pass\"").count(),
            3,
            "all three rules phases audit against the oracle:\n{}",
            r.json
        );
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_with_chaos_emits_the_chaos_section() {
        let cfg = ExpConfig { chaos: 2, ..tiny() };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        assert!(r.json.contains("\"chaos\": {\"storms\": 2"));
        assert!(r.json.contains("\"acked_commits\": 24"), "{}", r.json);
        assert!(r.json.contains("\"degraded_windows\""));
        assert!(r.json.contains("\"replica_tail_retries\""));
        assert!(r.json.contains("\"replica_reattaches\""));
        // The storms must actually storm, the audits must all pass, and
        // nothing acknowledged may be lost.
        assert!(!r.json.contains("\"audit\": \"fail"), "{}", r.json);
        assert!(r.json.contains("\"audit\": \"pass\""));
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_with_snapshots_emits_the_snapshots_section() {
        let cfg = ExpConfig {
            snapshots: 2,
            ..tiny()
        };
        let r = engine_run(&cfg);
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        assert!(r.json.contains("\"snapshots\": {\"readers\": 2"));
        assert!(r
            .json
            .contains(&format!("\"commits_per_arm\": {SNAPSHOT_COMMITS}")));
        assert!(r
            .json
            .contains(&format!("\"pin_depth\": {SNAPSHOT_PIN_DEPTH}")));
        // All three arms report.
        assert!(r.json.contains("\"publish\": {\"median_commit_s\""));
        assert!(r.json.contains("\"overhead_pct\""));
        assert!(r.json.contains("\"cow_overhead_pct\""));
        assert!(r.json.contains("\"max_window\""));
        assert!(r.json.contains("\"reader_throughput\": {\"threads\": 2"));
        assert!(r.json.contains("\"reads_per_s\""));
        // The audits: frozen pins stay frozen, the version window stays
        // within the pin bound, publish overhead stays under 5 %.
        assert!(!r.json.contains("\"audit\": \"fail"), "{}", r.json);
        assert!(r.json.contains("\"audit\": \"pass\""));
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_crash_recovers_and_serves_the_rest() {
        let cfg = ExpConfig {
            crash_at: Some(6),
            ..tiny()
        };
        let r = engine_run(&cfg);
        assert_eq!(
            r.series.rows.len(),
            ENGINE_COMMITS,
            "full series despite the crash"
        );
        assert!(r.json.contains("\"recovery\": {\"crash_after_commits\": 6"));
        assert!(r.json.contains("\"crash_at_epoch\": 6"));
        assert!(r.json.contains("\"audit\": \"clean\""));
        // Post-recovery lifecycle re-registrations are journaled events.
        assert!(r
            .json
            .contains("\"kind\": \"registered_lazy\", \"label\": \"rpq\""));
        // The journal keeps growing after recovery: 12 deltas total.
        assert!(r.json.contains("\"deltas\": 12"));
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
    }

    #[test]
    fn engine_run_emits_series_events_and_wellformed_json() {
        let r = engine_run(&tiny());
        assert_eq!(r.series.rows.len(), ENGINE_COMMITS);
        // Each row: the total plus one column per initially registered view
        // (absent views report 0 for lifecycle-affected commits).
        assert_eq!(r.series.rows[0].times.len(), 6);
        assert!(r.json.contains("\"bench\": \"engine_commit\""));
        // The workload RNG seed is recorded, so replay/recovery series are
        // reproducible run-to-run.
        assert!(r.json.contains("\"seed\": 20170514"));
        assert!(r
            .json
            .contains("\"views\": [\"rpq\", \"scc\", \"kws\", \"iso\", \"canary\"]"));
        assert!(r.json.contains("\"latency_s\""));
        assert!(r.json.contains("\"totals\""));
        // The scripted lifecycle is journaled: the canary's quarantine, both
        // deregistrations, and iso's lazy re-registration.
        assert!(r
            .json
            .contains("\"kind\": \"quarantined\", \"label\": \"canary\""));
        assert!(r
            .json
            .contains("\"kind\": \"deregistered\", \"label\": \"iso\""));
        assert!(r
            .json
            .contains("\"kind\": \"deregistered\", \"label\": \"canary\""));
        assert!(r
            .json
            .contains("\"kind\": \"registered_lazy\", \"label\": \"iso\""));
        assert!(r.json.contains("\"quarantined\": true"));
        assert!(r.json.contains("\"retired_views\": 2"));
        // Commit-mode provenance and the sequential-vs-parallel comparison.
        assert!(r.json.contains("\"mode\": \"sequential\""));
        assert!(r.json.contains("\"threads\": 0"));
        assert!(r.json.contains("\"available_parallelism\""));
        assert!(r.json.contains("\"comparison\": {\"threads\": 2"));
        assert!(r.json.contains("\"seq_view_median_s\""));
        assert!(r.json.contains("\"speedup_median\""));
        // Balanced braces/brackets — a cheap well-formedness check given
        // no JSON parser is vendored.
        assert_eq!(
            r.json.matches('{').count(),
            r.json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(r.json.matches('[').count(), r.json.matches(']').count());
        // Commits count in JSON matches the series (every event line also
        // carries an "epoch" key).
        assert_eq!(
            r.json.matches("\"epoch\"").count(),
            ENGINE_COMMITS + r.json.matches("\"kind\"").count()
        );
    }
}
