//! Durability integration with the four real query classes: write-ahead
//! journaling, mid-stream crash recovery, and background view builds —
//! each verified *bit-identical* against an engine that never crashed (or
//! a view that was registered eagerly at epoch 0).

use igc_engine::{Engine, LifecycleEventKind};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, Label, LabelInterner, NodeId, UpdateBatch};
use igc_iso::{IncIso, MatchKey, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{FileBackend, LogBackend, MemBackend};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use std::sync::{mpsc, Arc};

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    // Interner ids follow first-use order: l0→0, l1→1, l2→2, matching the
    // generator's numeric labels.
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

/// The four views' complete answers, in canonical (sorted) form — the
/// "bit-identical" comparison key for recovery and background builds.
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

fn backend_pair() -> (MemBackend, Arc<dyn LogBackend>) {
    let mem = MemBackend::new();
    let arc: Arc<dyn LogBackend> = Arc::new(mem.clone());
    (mem, arc)
}

#[test]
fn crash_at_every_commit_recovers_all_four_classes_bit_identically() {
    const COMMITS: usize = 6;
    let g = uniform_graph(28, 80, 3, 91);

    // Reference trajectory: never crashes, never logs.
    let mut reference = Engine::new(g.clone());
    register_all(&mut reference);
    let mut reference_answers = Vec::new();
    let mut deltas: Vec<UpdateBatch> = Vec::new();
    for round in 0..COMMITS {
        let delta = random_update_batch(reference.graph(), 10, 0.5, 7000 + round as u64);
        reference.commit(&delta).unwrap();
        deltas.push(delta);
        reference_answers.push(answers(&reference));
    }

    // Crash the logged engine at every possible epoch in turn, over each
    // backend: memory, then real files in a per-test temp directory. Each
    // `open()` is one process's handle on the journal — the recovering side
    // reopens the files from the path alone, as a restarted process would.
    for on_disk in [false, true] {
        for crash_after in 1..=COMMITS {
            let mem = MemBackend::new();
            let dir = std::env::temp_dir().join(format!(
                "igc-durability-test-{}-{crash_after}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || -> Arc<dyn LogBackend> {
                if on_disk {
                    Arc::new(FileBackend::new(&dir).unwrap())
                } else {
                    Arc::new(mem.clone())
                }
            };

            let mut engine = Engine::new(g.clone()).with_log(open()).unwrap();
            engine.set_checkpoint_every(2); // exercise mid-stream checkpoints
            register_all(&mut engine);
            for delta in &deltas[..crash_after] {
                engine.commit(delta).unwrap();
            }
            drop(engine); // crash, mid-stream

            let mut recovered = Engine::recover(open()).unwrap();
            assert_eq!(recovered.epoch(), crash_after as u64);
            register_all(&mut recovered);
            assert_eq!(
                answers(&recovered),
                reference_answers[crash_after - 1],
                "recovered answers at epoch {crash_after} must match the \
                 never-crashed engine (on_disk: {on_disk})"
            );
            recovered.verify_all().unwrap();

            // The recovered engine keeps serving the rest of the stream in
            // lockstep with the reference.
            for (i, delta) in deltas[crash_after..].iter().enumerate() {
                recovered.commit(delta).unwrap();
                assert_eq!(
                    answers(&recovered),
                    reference_answers[crash_after + i],
                    "post-recovery commit {} diverged (on_disk: {on_disk})",
                    crash_after + i
                );
            }
            recovered.verify_all().unwrap();
            drop(recovered);
            if on_disk {
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

#[test]
fn background_registration_matches_eager_registration_for_all_classes() {
    let g = uniform_graph(26, 70, 3, 55);
    let (_, backend) = backend_pair();

    // Eager engine: all four classes registered at epoch 0.
    let mut eager = Engine::new(g.clone());
    register_all(&mut eager);

    // Background engine: starts with *no* views; each class joins in the
    // background mid-stream while commits keep flowing.
    let mut bg_engine = Engine::new(g).with_log(backend).unwrap();
    bg_engine.set_checkpoint_every(3);

    let mut deltas = Vec::new();
    for round in 0..3u64 {
        let delta = random_update_batch(eager.graph(), 8, 0.5, 8800 + round);
        eager.commit(&delta).unwrap();
        bg_engine.commit(&delta).unwrap();
        deltas.push(delta);
    }

    // Spawn all four background builds at epoch 3 …
    let rpq_build = bg_engine
        .register_background("rpq", IncRpq::init(rpq_query()))
        .unwrap();
    let scc_build = bg_engine
        .register_background("scc", IncScc::init())
        .unwrap();
    let kws_build = bg_engine
        .register_background("kws", IncKws::init(kws_query()))
        .unwrap();
    let iso_build = bg_engine
        .register_background("iso", IncIso::init(iso_pattern()))
        .unwrap();

    // … while the commit stream keeps flowing (the builds replay the log,
    // never touching the engine).
    for round in 0..3u64 {
        let delta = random_update_batch(eager.graph(), 8, 0.5, 8900 + round);
        eager.commit(&delta).unwrap();
        let receipt = bg_engine.commit(&delta).unwrap();
        assert_eq!(
            receipt.per_view.len(),
            0,
            "in-flight background builds must not participate in commits"
        );
        deltas.push(delta);
    }
    let spliced_at = bg_engine.epoch();

    // Join: each view is caught up on the log tail and spliced in.
    bg_engine.join_background(rpq_build).unwrap();
    bg_engine.join_background(scc_build).unwrap();
    bg_engine.join_background(kws_build).unwrap();
    bg_engine.join_background(iso_build).unwrap();
    assert_eq!(
        bg_engine
            .events()
            .iter()
            .filter(|e| e.kind == LifecycleEventKind::RegisteredBackground)
            .count(),
        4
    );
    assert!(bg_engine
        .events()
        .iter()
        .filter(|e| e.kind == LifecycleEventKind::RegisteredBackground)
        .all(|e| e.epoch == spliced_at));

    // Post-catch-up answers are bit-identical to eager registration at
    // epoch 0, and stay identical over further commits.
    assert_eq!(answers(&bg_engine), answers(&eager));
    bg_engine.verify_all().unwrap();
    for round in 0..2u64 {
        let delta = random_update_batch(eager.graph(), 8, 0.5, 9100 + round);
        eager.commit(&delta).unwrap();
        bg_engine.commit(&delta).unwrap();
        assert_eq!(answers(&bg_engine), answers(&eager));
    }
    bg_engine.verify_all().unwrap();
}

/// A background build is a follower: a compaction that runs while its
/// builder is still busy drops the history it seeded from, and the join's
/// catch-up re-seeds it instead of stranding it.
#[test]
fn compaction_during_a_background_build_does_not_strand_it() {
    let g = uniform_graph(26, 70, 3, 56);
    let (_, backend) = backend_pair();
    let mut eager = Engine::new(g.clone());
    let twin = eager.register("rpq", IncRpq::init(rpq_query())).unwrap();
    let mut engine = Engine::new(g).with_log(backend).unwrap();
    engine.set_checkpoint_every(3);

    // A slow builder: it has its epoch-0 graph in hand and stays inside
    // `build` until released, while the engine commits past two more
    // checkpoints and compacts.
    let (started_tx, started) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let query = rpq_query();
    let build = engine
        .register_background("rpq", move |g: &DynamicGraph| {
            started_tx.send(()).unwrap();
            released.recv().unwrap();
            IncRpq::new(g, &query)
        })
        .unwrap();
    started.recv().unwrap();
    for round in 0..9u64 {
        let delta = random_update_batch(eager.graph(), 8, 0.5, 9300 + round);
        eager.commit(&delta).unwrap();
        engine.commit(&delta).unwrap();
    }
    let during = engine.compact_log().unwrap();
    release.send(()).unwrap();

    assert!(during.dropped_segments > 0, "the build held nothing back");
    let late = engine.join_background(build).unwrap();
    assert_eq!(
        engine.view(&late).unwrap().sorted_answer(),
        eager.view(&twin).unwrap().sorted_answer()
    );
    engine.verify_all().unwrap();
}

#[test]
fn recovery_after_background_join_spans_the_whole_history() {
    // Splice a background view in, keep committing, crash, recover: the
    // journal must carry the full chain across the splice.
    let g = uniform_graph(20, 50, 3, 17);
    let (_, backend) = backend_pair();
    let mut engine = Engine::new(g).with_log(backend.clone()).unwrap();
    register_all(&mut engine);

    let mut deltas = Vec::new();
    for round in 0..2u64 {
        let delta = random_update_batch(engine.graph(), 6, 0.5, 4400 + round);
        engine.commit(&delta).unwrap();
        deltas.push(delta);
    }
    let build = engine
        .register_background("rpq:late", IncRpq::init(rpq_query()))
        .unwrap();
    let delta = random_update_batch(engine.graph(), 6, 0.5, 4500);
    engine.commit(&delta).unwrap();
    let late = engine.join_background(build).unwrap();
    let late_answer = engine.view(&late).unwrap().sorted_answer();
    let pre_crash = answers(&engine);
    let epoch = engine.epoch();
    drop(engine); // crash

    let mut recovered = Engine::recover(backend).unwrap();
    assert_eq!(recovered.epoch(), epoch);
    register_all(&mut recovered);
    let h = recovered
        .register("rpq:late", IncRpq::init(rpq_query()))
        .unwrap();
    assert_eq!(answers(&recovered), pre_crash);
    assert_eq!(recovered.view(&h).unwrap().sorted_answer(), late_answer);
    recovered.verify_all().unwrap();
}
