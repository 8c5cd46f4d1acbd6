//! Chaos integration: one-shot faults placed through the whole stack —
//! a failed WAL append that degrades the engine and the one recovery
//! path, [`Engine::heal`] then commit again; sync failures at the
//! group-commit quiesce barrier and during a runtime durability flip;
//! overload shedding at the ingest front door; and a follower's
//! post-compaction reattach — each checked against the four real query
//! classes. Seeded fault storms run in the simulation
//! (`tests/engine_consistency.rs`), which decides when each fault fires.

use igc_engine::{Engine, EngineError, EngineTotals, IngestServer, Replica};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::graph::graph_from;
use igc_graph::{DynamicGraph, Label, LabelInterner, NodeId, Update, UpdateBatch};
use igc_iso::{IncIso, MatchKey, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{ChaosBackend, DurabilityMode, LogBackend, MemBackend};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

fn kws_query() -> KwsQuery {
    KwsQuery::new(vec![Label(1), Label(2)], 2)
}

fn iso_pattern() -> Pattern {
    Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])
}

fn register_all(engine: &mut Engine) {
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine.register("kws", IncKws::init(kws_query())).unwrap();
    engine.register("iso", IncIso::init(iso_pattern())).unwrap();
}

/// The four views' complete answers in canonical form — the bit-identical
/// comparison key between a faulted engine and its reference twin.
#[derive(Debug, PartialEq, Eq)]
struct Answers {
    rpq: Vec<(NodeId, NodeId)>,
    scc: Vec<Vec<NodeId>>,
    kws: Vec<(NodeId, Vec<u32>)>,
    iso: Vec<MatchKey>,
}

fn answers(engine: &Engine) -> Answers {
    let rpq: &IncRpq = engine
        .view(&engine.typed(engine.find("rpq").unwrap()).unwrap())
        .unwrap();
    let scc: &IncScc = engine
        .view(&engine.typed(engine.find("scc").unwrap()).unwrap())
        .unwrap();
    let kws: &IncKws = engine
        .view(&engine.typed(engine.find("kws").unwrap()).unwrap())
        .unwrap();
    let iso: &IncIso = engine
        .view(&engine.typed(engine.find("iso").unwrap()).unwrap())
        .unwrap();
    Answers {
        rpq: rpq.sorted_answer(),
        scc: scc.components(),
        kws: kws.answer_signature(),
        iso: iso.sorted_matches(),
    }
}

struct ReplicaViews {
    rpq: igc_engine::ViewHandle<IncRpq>,
    scc: igc_engine::ViewHandle<IncScc>,
    kws: igc_engine::ViewHandle<IncKws>,
    iso: igc_engine::ViewHandle<IncIso>,
}

fn register_replica(replica: &mut Replica) -> ReplicaViews {
    ReplicaViews {
        rpq: replica.register("rpq", IncRpq::init(rpq_query())).unwrap(),
        scc: replica.register("scc", IncScc::init()).unwrap(),
        kws: replica.register("kws", IncKws::init(kws_query())).unwrap(),
        iso: replica
            .register("iso", IncIso::init(iso_pattern()))
            .unwrap(),
    }
}

fn replica_answers(replica: &Replica, views: &ReplicaViews) -> Answers {
    Answers {
        rpq: replica.view(&views.rpq).unwrap().sorted_answer(),
        scc: replica.view(&views.scc).unwrap().components(),
        kws: replica.view(&views.kws).unwrap().answer_signature(),
        iso: replica.view(&views.iso).unwrap().sorted_matches(),
    }
}

fn backend_pair() -> (ChaosBackend, Arc<dyn LogBackend>) {
    let chaos = ChaosBackend::new(Arc::new(MemBackend::new()));
    let arc: Arc<dyn LogBackend> = Arc::new(chaos.clone());
    (chaos, arc)
}

/// `heal` keeps failing while the fault window persists (the checkpoint
/// probe hits the same dead disk), the engine stays degraded, and the
/// window is only accounted once the probe finally lands.
#[test]
fn heal_fails_while_the_fault_persists_then_recovers() {
    let (chaos, backend) = backend_pair();
    let mut engine = Engine::new(uniform_graph(16, 40, 3, 9))
        .with_log(backend)
        .unwrap();
    register_all(&mut engine);

    let d0 = random_update_batch(engine.graph(), 6, 0.5, 900);
    engine.commit(&d0).unwrap();

    // The disk dies for the next three appends.
    for _ in 0..3 {
        chaos.fail_next_append(0);
    }

    // The first fault: the commit is rejected and the engine degrades.
    let d1 = random_update_batch(engine.graph(), 6, 0.5, 901);
    let err = engine.commit(&d1).unwrap_err();
    assert!(matches!(err, EngineError::JournalFailed { .. }), "{err:?}");
    assert!(engine.is_degraded());

    // The second and third: heal's checkpoint probe fails, the engine
    // stays degraded, no window is accounted.
    assert!(engine.heal().is_err());
    assert!(engine.is_degraded());
    assert_eq!(engine.degraded_windows(), 0);
    assert!(engine.heal().is_err());
    assert!(engine.is_degraded());

    // The faults are spent: heal lands, the window closes.
    engine.heal().unwrap();
    assert!(!engine.is_degraded());
    assert_eq!(engine.degraded_windows(), 1);
    assert!(engine.degraded_elapsed() > Duration::ZERO);

    // The deferred delta commits on the same epoch chain; replay agrees.
    engine.commit(&d1).unwrap();
    engine.verify_all().unwrap();
    let replayed = engine.log().unwrap().replayer().latest().unwrap();
    assert_eq!(replayed.graph.sorted_edges(), engine.graph().sorted_edges());
}

/// Degraded read-only mode is *read-only*, not read-nothing: snapshot
/// creation and pinned snapshot reads keep working while every write path
/// is rejected with `Degraded`. A pin taken before the outage serves its
/// frozen answers through it, a pin taken *during* the outage serves the
/// last published (pre-outage) version, and healing resumes publication
/// without disturbing either.
#[test]
fn degraded_mode_still_serves_snapshots() {
    let (chaos, backend) = backend_pair();
    let mut engine = Engine::new(uniform_graph(16, 40, 3, 9))
        .with_log(backend)
        .unwrap();
    register_all(&mut engine);

    // A healthy commit, then a reader pins the result.
    let d0 = random_update_batch(engine.graph(), 6, 0.5, 910);
    engine.commit(&d0).unwrap();
    let pinned = engine.snapshot().unwrap();
    assert_eq!(pinned.epoch(), engine.epoch());
    let frozen_answers = answers(&engine);
    let frozen_edges = engine.graph().sorted_edges();
    chaos.fail_next_append(0);

    // The next commit hits the dead disk: the engine degrades, the commit
    // is rejected, the pre-outage pin is untouched.
    let d1 = random_update_batch(engine.graph(), 6, 0.5, 911);
    assert!(matches!(
        engine.commit(&d1),
        Err(EngineError::JournalFailed { .. })
    ));
    assert!(engine.is_degraded());
    assert!(matches!(
        engine.degraded_error(),
        Some(EngineError::Degraded { .. })
    ));

    // The regression contract: snapshot creation never returns Degraded.
    let during = engine.snapshot().expect("snapshots stay up while degraded");
    assert_eq!(
        during.epoch(),
        pinned.epoch(),
        "the rejected commit published nothing: the outage snapshot is the \
         last healthy version"
    );
    assert_eq!(
        engine.snapshot_at(pinned.epoch()).unwrap().epoch(),
        pinned.epoch(),
        "snapshot_at works while degraded too"
    );
    // Pinned reads through the outage serve the frozen pre-outage state.
    assert_eq!(pinned.graph().sorted_edges(), frozen_edges);
    assert_eq!(during.graph().sorted_edges(), frozen_edges);
    for (label, class) in [("rpq", 0usize), ("scc", 1), ("kws", 2), ("iso", 3)] {
        let id = pinned.find(label).expect("class label published");
        let v = pinned.view_dyn(id).expect("class view active");
        // Spot-check one class in full; the rest by name resolution.
        if class == 0 {
            let rpq: &IncRpq = v.downcast_ref().unwrap();
            assert_eq!(rpq.sorted_answer(), frozen_answers.rpq);
        }
        assert_eq!(v.name(), label);
    }

    // Heal, land the deferred delta: publication resumes, old pins stay
    // frozen, and a fresh pin sees the new epoch.
    engine.heal().unwrap();
    engine.commit(&d1).unwrap();
    let after = engine.snapshot().unwrap();
    assert_eq!(after.epoch(), engine.epoch());
    assert!(after.epoch() > pinned.epoch());
    assert_eq!(pinned.graph().sorted_edges(), frozen_edges);
    engine.verify_all().unwrap();
}

/// A sync failure at the group-commit quiesce barrier (the one a tick
/// issues when it leaves the queue empty) degrades the engine; later
/// submissions are rejected fast through their tickets; shutdown returns
/// the degraded engine, which heals and resumes.
#[test]
fn sync_failure_at_the_quiesce_barrier_degrades_the_ingest() {
    let (chaos, backend) = backend_pair();
    let mut engine = Engine::new(uniform_graph(24, 64, 3, 21))
        .with_log(backend)
        .unwrap();
    register_all(&mut engine);
    engine
        .set_durability(DurabilityMode::GroupCommit {
            max_batch: 64,
            max_delay: Duration::from_secs(3600),
        })
        .unwrap();
    let seed_graph = engine.graph().clone();
    // Settle the log here, so the only barrier below is the one that
    // follows `d0`.
    engine.sync_log().unwrap();
    let settled = chaos.stats().syncs;
    let server = IngestServer::spawn(engine);
    let ingest = server.handle();

    // A clean round trip first: the tick that `wait` runs leaves the
    // queue empty, so its quiesce barrier has run by the time it returns.
    let d0 = random_update_batch(&seed_graph, 6, 0.5, 2100);
    ingest.submit(d0).unwrap().wait().unwrap();
    assert_eq!(chaos.stats().syncs, settled + 1, "one quiesce barrier");

    // Arm the one-shot: the *next* barrier with pending records fails.
    // That barrier closes `d1`'s tick, after its receipt is sent.
    chaos.fail_next_sync();
    let d1 = random_update_batch(&seed_graph, 6, 0.5, 2101);
    ingest.submit(d1).unwrap().wait().unwrap();

    // The engine degraded before `d1`'s wait returned: the next
    // submission is rejected at admission.
    let d = random_update_batch(&seed_graph, 6, 0.5, 2200);
    match ingest.submit(d).unwrap().wait() {
        Err(EngineError::Degraded { cause, .. }) => {
            assert!(cause.contains("injected"), "{cause}")
        }
        other => panic!("expected a Degraded rejection, got {other:?}"),
    }

    // Shutdown hands back the degraded engine; heal restores writes.
    let mut engine = server.shutdown().unwrap();
    assert!(engine.is_degraded());
    engine.heal().unwrap();
    assert_eq!(engine.degraded_windows(), 1);
    let d2 = random_update_batch(engine.graph(), 6, 0.5, 2300);
    engine.commit(&d2).unwrap();
    engine.verify_all().unwrap();
    let replayed = engine.log().unwrap().replayer().latest().unwrap();
    assert_eq!(replayed.graph.sorted_edges(), engine.graph().sorted_edges());
}

/// A sync failure during a runtime durability flip: records appended
/// under `None` become the backlog an `EveryAppend` barrier must flush;
/// when that barrier fails the commit that carried it still succeeds
/// (its append was acknowledged) but the engine degrades on the unsettled
/// sync debt — and heal settles exactly that debt.
#[test]
fn sync_failure_during_a_durability_flip_degrades_on_sync_debt() {
    let (chaos, backend) = backend_pair();
    let mut engine = Engine::new(uniform_graph(24, 64, 3, 31))
        .with_log(backend)
        .unwrap();
    register_all(&mut engine);

    // Build an unsynced backlog under DurabilityMode::None.
    for round in 0..2u64 {
        let d = random_update_batch(engine.graph(), 6, 0.5, 3100 + round);
        engine.commit(&d).unwrap();
    }

    // Flip to per-append barriers with the fault armed: the next commit's
    // append succeeds, then its barrier fails, leaving sync debt.
    engine.set_durability(DurabilityMode::EveryAppend).unwrap();
    chaos.fail_next_sync();
    let d = random_update_batch(engine.graph(), 6, 0.5, 3200);
    let epoch_before = engine.epoch();
    let receipt = engine.commit(&d).unwrap();
    assert_eq!(receipt.epoch, epoch_before + 1, "the carrying commit lands");
    assert!(
        engine.is_degraded(),
        "unsettled sync debt must degrade the engine"
    );

    // Degraded: commits fail fast, reads keep serving.
    let err = engine
        .commit(&random_update_batch(engine.graph(), 6, 0.5, 3201))
        .unwrap_err();
    assert!(matches!(err, EngineError::Degraded { .. }), "{err:?}");
    engine.verify_all().unwrap();

    // Heal settles the debt (the barrier syncs the still-dirty
    // segments) and writes resume.
    engine.heal().unwrap();
    assert_eq!(engine.degraded_windows(), 1);
    engine
        .commit(&random_update_batch(engine.graph(), 6, 0.5, 3202))
        .unwrap();
    engine.verify_all().unwrap();

    // Nothing acknowledged was lost across the whole episode.
    let mut recovered = Engine::recover(chaos.inner()).unwrap();
    assert_eq!(recovered.epoch(), engine.epoch());
    register_all(&mut recovered);
    assert_eq!(answers(&recovered), answers(&engine));
}

/// Compaction outruns an unpinned follower: fail-fast `catch_up` reports
/// a precise `FrontierCompacted`; `tail` re-attaches by itself — the
/// follower re-seeds from the newest checkpoint *through its
/// live views* — answers match the leader without re-registering.
#[test]
fn reattach_recovers_an_unpinned_follower_after_compaction() {
    let (chaos, backend) = backend_pair();
    let mut leader = Engine::new(uniform_graph(24, 64, 3, 51))
        .with_log(backend)
        .unwrap();
    leader.set_checkpoint_every(3);
    register_all(&mut leader);

    // An unpinned (cross-process shape) follower, caught up at epoch 0.
    let mut follower = Replica::attach(Arc::new(chaos.clone())).unwrap();
    let views = register_replica(&mut follower);
    follower.catch_up().unwrap();
    let stranded_at = follower.frontier();

    // The leader runs ahead and compacts the follower's window away.
    for round in 0..9u64 {
        let d = random_update_batch(leader.graph(), 8, 0.5, 5100 + round);
        leader.commit(&d).unwrap();
    }
    let compaction = leader.compact_log().unwrap();
    assert!(compaction.dropped_segments > 0, "compaction must bite");

    // Fail-fast contract: a precise error, not garbage.
    match follower.catch_up().unwrap_err() {
        EngineError::FrontierCompacted { frontier, oldest } => {
            assert_eq!(frontier, stranded_at);
            assert!(oldest > frontier + 1, "{oldest} vs {frontier}");
        }
        other => panic!("expected FrontierCompacted, got {other:?}"),
    }

    // Self-healing contract: the tail reattaches and converges.
    let stopped = AtomicBool::new(true);
    follower.tail(&stopped, Duration::from_millis(1)).unwrap();
    assert_eq!(follower.reattaches(), 1);
    assert_eq!(follower.frontier(), leader.epoch());
    assert_eq!(replica_answers(&follower, &views), answers(&leader));
    follower.verify_all().unwrap();

    // And again — reattach is not a one-time trick.
    for round in 0..9u64 {
        let d = random_update_batch(leader.graph(), 8, 0.5, 5200 + round);
        leader.commit(&d).unwrap();
    }
    leader.compact_log().unwrap();
    let jumped = follower.reattach().unwrap();
    assert!(jumped > 0);
    assert_eq!(follower.reattaches(), 2);
    assert_eq!(follower.frontier(), leader.epoch());
    assert_eq!(replica_answers(&follower, &views), answers(&leader));
    follower.verify_all().unwrap();
}

/// A rejected commit counts nothing: the units normalization dropped from
/// a batch whose append failed are counted when — and only when — the
/// retried batch goes through, on the engine and through the ingest front
/// door alike.
#[test]
fn a_rejected_commit_moves_no_totals_and_its_retry_counts_once() {
    // One unit applies; two are droppable (a present insert, an absent
    // delete).
    let batch = UpdateBatch::from_updates(vec![
        Update::insert(NodeId(1), NodeId(2)),
        Update::insert(NodeId(0), NodeId(1)),
        Update::delete(NodeId(2), NodeId(0)),
    ]);
    for through_ingest in [false, true] {
        let (chaos, backend) = backend_pair();
        let mut engine = Engine::new(graph_from(&[0, 0, 0], &[(0, 1)]))
            .with_log(backend)
            .unwrap();
        // Each attempt: the batch as a direct commit, or as one submission.
        let attempt = |engine: Engine| -> (Engine, Result<(), EngineError>) {
            if through_ingest {
                let server = IngestServer::spawn(engine);
                let ticket = server.handle().submit(batch.clone()).unwrap();
                let outcome = ticket.wait().map(|_| ());
                (server.shutdown().unwrap(), outcome)
            } else {
                let mut engine = engine;
                let outcome = engine.commit(&batch).map(|_| ());
                (engine, outcome)
            }
        };

        chaos.fail_next_append(0);
        let (rejected, outcome) = attempt(engine);
        engine = rejected;
        assert!(
            matches!(outcome, Err(EngineError::JournalFailed { .. })),
            "{outcome:?}"
        );
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.totals(), EngineTotals::default());

        engine.heal().unwrap();
        let (engine, outcome) = attempt(engine);
        outcome.unwrap();
        let totals = engine.totals();
        assert_eq!(
            (totals.commits, totals.units_applied, totals.units_dropped),
            (1, 1, 2),
            "through_ingest: {through_ingest}"
        );
    }
}

/// A view whose `apply` waits until the test opens the gate, so no tick
/// can drain the submission queue before the test has seen it fill.
#[derive(Debug, Clone)]
struct GateView(Arc<AtomicBool>);

impl igc_core::IncView for GateView {
    fn name(&self) -> &str {
        "gate"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        while !self.0.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    fn work(&self) -> igc_core::work::WorkStats {
        igc_core::work::WorkStats::new()
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn igc_core::IncView> {
        Box::new(self.clone())
    }
}

/// Submitters that outrun the commit ticks are shed with a precise
/// `Overloaded` (bounded queue + bounded wait), never queued into a wall;
/// everything that *was* accepted still resolves to exactly one receipt.
#[test]
fn overloaded_ingest_sheds_submissions_with_a_precise_error() {
    let gate = Arc::new(AtomicBool::new(false));
    let mut engine = Engine::new(graph_from(&[0; 8], &[]));
    engine.register("gate", |_| GateView(gate.clone())).unwrap();
    let server = IngestServer::spawn(engine);
    let ingest = server.handle();

    // No ticket is waited on yet, so no tick drains the queue (and the gate
    // would hold one that started): at most one tick of 64 plus the
    // 1 024-slot queue is accepted, then a shed.
    let mut tickets = Vec::new();
    let shed = loop {
        assert!(tickets.len() <= 64 + 1024, "the bounded queue never shed");
        let i = tickets.len() as u32;
        let unit = Update::insert(NodeId(i % 8), NodeId(i / 8 % 8));
        match ingest.submit(UpdateBatch::from_updates(vec![unit])) {
            Ok(t) => tickets.push(t),
            Err(e) => break e,
        }
    };
    match shed {
        EngineError::Overloaded { capacity, waited } => {
            assert_eq!(capacity, 1024);
            assert!(waited >= Duration::from_millis(100), "{waited:?}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Open the gate: every accepted submission resolves to one receipt,
    // and the ticks carried each of them exactly once.
    gate.store(true, Ordering::Release);
    let accepted = tickets.len();
    let receipts: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(receipts.iter().map(|r| r.units).sum::<usize>(), accepted);
    let mut ticks: Vec<_> = receipts.iter().map(|r| &*r.commit).collect();
    ticks.dedup_by(|a, b| std::ptr::eq(*a, *b));
    assert_eq!(ticks.iter().map(|c| c.submitted).sum::<usize>(), accepted);
    server.shutdown().unwrap();
}
