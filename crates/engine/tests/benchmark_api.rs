//! What `benchmark/` compiles against, pinned inside tier-1.
//!
//! `benchmark/` is a package of its own that `cargo test` at the root never
//! builds, and a PR may not edit it — so a rename here would only surface in
//! CI's last step. This test imports what `benchmark/src/{run,views}.rs`
//! import (and nothing else from these crates) and makes the same calls in
//! the same shapes. If it stops compiling, `benchmark/` has too.

use igc_core::{ChangeMetrics, IncView, WorkStats};
use igc_engine::{
    CommitMode, CommitReceipt, Engine, EngineError, IngestServer, Replica, Snapshot, ViewHandle,
};
use igc_graph::{
    graph::graph_from, DynamicGraph, Label, LabelInterner, NodeId, Update, UpdateBatch,
};
use igc_iso::{IncIso, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{LogBackend, MemBackend};
use igc_rpq::IncRpq;
use igc_rules::{v, Atom, IncRules, Program, RuleSet};
use igc_scc::IncScc;
use std::sync::Arc;

struct Handles {
    rpq: ViewHandle<IncRpq>,
    scc: ViewHandle<IncScc>,
    kws: ViewHandle<IncKws>,
    iso: ViewHandle<IncIso>,
    rules: ViewHandle<IncRules>,
}

fn regex() -> igc_nfa::Regex {
    igc_nfa::Regex::parse("l0.(l1+l2)*.l2", &mut LabelInterner::new()).unwrap()
}

fn kws_query() -> KwsQuery {
    KwsQuery::new(vec![Label(1), Label(2)], 2)
}

fn pattern() -> Pattern {
    Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])
}

fn program() -> Program {
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec", 1).unwrap();
    rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))])
        .unwrap();
    rs.rule(
        exec,
        &[v(1)],
        vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
    )
    .unwrap();
    rs.compile().unwrap()
}

fn register(engine: &mut Engine) -> Result<Handles, EngineError> {
    Ok(Handles {
        rpq: engine.register_lazy("rpq", IncRpq::init(regex()))?,
        scc: engine.register_lazy("scc", IncScc::init())?,
        kws: engine.register_lazy("kws", IncKws::init(kws_query()))?,
        iso: engine.register_lazy("iso", IncIso::init(pattern()))?,
        rules: engine.register_lazy("rules", IncRules::init(program()))?,
    })
}

/// `Handles::live` / `Handles::pinned`: the same handles read an engine and
/// a snapshot of it.
fn sizes(
    engine: &Engine,
    snap: &Snapshot,
    h: &Handles,
) -> Result<[(usize, usize); 5], EngineError> {
    Ok([
        (
            engine.view(&h.rpq)?.answer().len(),
            snap.view(&h.rpq)?.answer().len(),
        ),
        (
            engine.view(&h.scc)?.scc_count(),
            snap.view(&h.scc)?.scc_count(),
        ),
        (
            engine.view(&h.kws)?.match_count(),
            snap.view(&h.kws)?.match_count(),
        ),
        (
            engine.view(&h.iso)?.match_count(),
            snap.view(&h.iso)?.match_count(),
        ),
        (
            engine.view(&h.rules)?.derived_count(),
            snap.view(&h.rules)?.derived_count(),
        ),
    ])
}

#[test]
fn the_benchmarks_calls_compile_and_run() -> Result<(), EngineError> {
    let base: DynamicGraph = graph_from(&[0, 1, 2, 0, 1, 2], &[(0, 1), (1, 2), (3, 4)]);
    let backend: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
    let mut engine = Engine::new(base.clone()).with_log(backend.clone())?;
    engine.set_checkpoint_every(8);
    engine.set_commit_mode(CommitMode::Sequential);
    let h = register(&mut engine)?;

    // The follower registers the way `run.rs` does: results discarded with `?`.
    let mut replica = Replica::attach(backend)?;
    replica.register("rpq", IncRpq::init(regex()))?;
    replica.register("scc", IncScc::init())?;
    replica.register("kws", IncKws::init(kws_query()))?;
    replica.register("iso", IncIso::init(pattern()))?;
    replica.register("rules", IncRules::init(program()))?;

    // The shadow layers: concrete views driven through `[&mut dyn IncView; N]`
    // with only `igc_core::IncView` in scope.
    let mut shadow_graph = base.clone();
    let (mut rpq, mut scc) = (IncRpq::new(&base, &regex()), IncScc::new(&base));
    let (mut kws, mut iso) = (
        IncKws::new(&base, kws_query()),
        IncIso::new(&base, pattern()),
    );
    let mut rules = IncRules::new(&base, program());

    let batches = [
        vec![
            Update::insert(NodeId(2), NodeId(3)),
            Update::insert(NodeId(4), NodeId(5)),
        ],
        vec![
            Update::delete(NodeId(0), NodeId(1)),
            Update::insert(NodeId(5), NodeId(0)),
        ],
    ];
    for (round, updates) in batches.into_iter().enumerate() {
        let batch = UpdateBatch::from_updates(updates);
        if round == 1 {
            engine.set_commit_mode(CommitMode::Parallel { threads: 2 });
        }
        let delta = batch.normalize_against(&shadow_graph);
        let prepared = engine.prepare(&batch)?;
        let (receipt, next): (CommitReceipt, _) = engine.apply_prepared(prepared, None)?;
        assert!(next.is_none());

        shadow_graph.apply_batch(&delta);
        let shadows: [&mut dyn IncView; 5] = [&mut rpq, &mut scc, &mut kws, &mut iso, &mut rules];
        let mut shadow_work = WorkStats::new();
        for view in shadows {
            let before = view.work();
            view.apply(&shadow_graph, &delta);
            shadow_work += view.work().since(&before);
        }
        assert_eq!(receipt.work, shadow_work, "shadow work == receipt work");
    }
    let affected = |m: ChangeMetrics| m.affected;
    let _ = [
        affected(rpq.last_metrics()),
        affected(scc.last_metrics()),
        affected(kws.last_metrics()),
        affected(iso.last_metrics()),
        affected(rules.metrics()),
    ];

    // Reads: live, pinned, type-erased (the clone probe), and the store.
    let snap = engine.snapshot()?;
    for (live, pinned) in sizes(&engine, &snap, &h)? {
        assert_eq!(live, pinned);
    }
    for id in [h.rpq.id(), h.scc.id(), h.kws.id(), h.iso.id(), h.rules.id()] {
        let copy = engine.view_dyn(id)?.clone_view();
        assert_eq!(copy.name(), engine.view_dyn(id)?.name());
    }
    let store = Arc::clone(engine.snapshot_store());
    assert_eq!(store.snapshot_at(snap.epoch())?.epoch(), engine.epoch());
    assert!(store.window() >= 1 && store.retained_stats().distinct_view_cells >= 5);
    let _ = store.publish_elapsed();

    engine.verify_all()?;
    replica.catch_up()?;
    engine.checkpoint()?;
    engine.compact_log()?;
    assert_eq!(replica.status()?.lag, 0);
    assert_eq!(replica.frontier(), engine.epoch());
    assert_eq!(
        replica.graph().sorted_edges(),
        engine.graph().sorted_edges()
    );
    replica.verify_all()?;

    // The ingest front door takes the engine and hands it back.
    let server = IngestServer::spawn(engine);
    let engine = server.shutdown()?;
    assert_eq!(engine.epoch(), 2);
    Ok(())
}

// What `run.rs` imports beyond the above, for the shadow log and `durable_recover`.
use igc_log::{CommitLog, DurabilityMode, FileBackend, Replayer};
use std::time::Duration;

const GROUP_COMMIT: DurabilityMode = DurabilityMode::GroupCommit {
    max_batch: 8,
    max_delay: Duration::from_secs(1),
};

#[test]
fn the_benchmarks_durable_calls_compile_and_run() -> Result<(), EngineError> {
    let base: DynamicGraph = graph_from(&[0, 1, 2, 0, 1, 2], &[(0, 1), (1, 2), (3, 4)]);
    let dir = std::env::temp_dir().join(format!("igc-benchmark-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = || FileBackend::new(&dir).map(|b| Arc::new(b) as Arc<dyn LogBackend>);
    let insert = |u, v| UpdateBatch::from_updates(vec![Update::insert(NodeId(u), NodeId(v))]);

    // The shadow log keeps its own epoch chain beside the engine's journal.
    let mut log = CommitLog::create(Arc::new(MemBackend::new()))?;
    log.set_durability(GROUP_COMMIT);
    log.append_checkpoint(&base)?;
    let epoch = log.last_epoch().map_or(1, |e| e + 1);
    log.append_delta(epoch, &insert(2, 3).normalize_against(&base))?;
    log.sync()?;
    assert!(log.bytes().unwrap_or(0) > 0 && log.last_epoch() == Some(epoch));

    let mut engine = Engine::new(base).with_log(journal()?)?;
    engine.set_durability(GROUP_COMMIT)?;
    let h = register(&mut engine)?;
    // (0, 1) is present and normalizes away: every receipt field `run.rs` reads.
    let mut batch = insert(2, 3);
    batch.push(Update::insert(NodeId(0), NodeId(1)));
    let r: CommitReceipt = engine.commit(&batch)?;
    assert_eq!(
        (r.submitted, r.applied, r.dropped, r.log_retries),
        (2, 1, 1, 0)
    );
    let views: Duration = r.per_view.iter().map(|v| v.elapsed).sum();
    assert!(r.per_view.len() == 5 && r.graph_elapsed + views <= r.elapsed);
    assert!(engine.log().and_then(|l| l.bytes().ok()).unwrap_or(0) > 0);

    // One submit → wait round through the front door, then a crash: the
    // server is dropped un-shut-down and the journal is all that is left.
    let server = IngestServer::spawn(engine);
    let ingest = server.handle();
    let receipt = ingest.submit(insert(4, 5))?.wait()?;
    assert_eq!((receipt.epoch, receipt.coalesced), (2, 1));
    assert_eq!((receipt.commit.epoch, receipt.commit.applied), (2, 1));
    let derived = ingest.snapshot()?.view(&h.rules)?.derived_count();
    drop((ingest, server));

    let replayer = Replayer::new(journal()?);
    assert_eq!(replayer.summary()?.last_epoch, 2);
    assert_eq!(replayer.latest()?.graph.edge_count(), 5);
    let mut recovered = Engine::recover(journal()?)?;
    let h = register(&mut recovered)?;
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(recovered.view(&h.rules)?.derived_count(), derived);
    recovered.verify_all()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
