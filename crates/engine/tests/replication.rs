//! Replication integration: fault injection (torn tails, forced segment
//! rotation, failed-then-retried appends) and compaction safety
//! (retention pins protect slow followers; the journal stays bounded
//! once pins advance; fresh replicas seed correctly afterwards) — each
//! checked against all four real query classes, bit-identical to the
//! leader.

use igc_engine::{Engine, EngineError, Replica};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{Label, LabelInterner, NodeId};
use igc_iso::{IncIso, MatchKey, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{ChaosBackend, LogBackend, MemBackend};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use std::sync::Arc;

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

/// The four views' complete answers in canonical form — the
/// bit-identical comparison key between leader and follower.
#[derive(Debug, PartialEq, Eq)]
struct Answers {
    rpq: Vec<(NodeId, NodeId)>,
    scc: Vec<Vec<NodeId>>,
    kws: Vec<(NodeId, Vec<u32>)>,
    iso: Vec<MatchKey>,
}

struct ReplicaViews {
    rpq: igc_engine::ViewHandle<IncRpq>,
    scc: igc_engine::ViewHandle<IncScc>,
    kws: igc_engine::ViewHandle<IncKws>,
    iso: igc_engine::ViewHandle<IncIso>,
}

fn register_leader(engine: &mut Engine) {
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine.register("kws", IncKws::init(kws_query())).unwrap();
    engine.register("iso", IncIso::init(iso_pattern())).unwrap();
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

fn leader_answers(engine: &Engine) -> Answers {
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

fn logged_leader(seed: u64) -> (ChaosBackend, Engine) {
    let g = uniform_graph(24, 64, 3, seed);
    let (mem, backend) = backend_pair();
    let mut leader = Engine::new(g).with_log(backend).unwrap();
    leader.set_checkpoint_every(3);
    register_leader(&mut leader);
    (mem, leader)
}

fn assert_converged(leader: &Engine, replica: &mut Replica, views: &ReplicaViews) {
    replica.catch_up().unwrap();
    assert_eq!(replica.frontier(), leader.epoch(), "frontier at the head");
    assert_eq!(
        replica.graph().sorted_edges(),
        leader.graph().sorted_edges(),
        "graphs diverged"
    );
    assert_eq!(
        replica_answers(replica, views),
        leader_answers(leader),
        "view answers diverged"
    );
    replica.verify_all().unwrap();
}

/// A follower tails straight through a torn tail: bytes a crashing
/// leader left half-written are skipped as unacknowledged (no `Corrupt`
/// false positive), and the recovered leader's re-commit reaches the
/// follower on the rotated segment.
#[test]
fn replica_tails_through_a_torn_tail() {
    let (mem, mut leader) = logged_leader(301);
    let mut replica = leader.replica().unwrap();
    let views = register_replica(&mut replica);

    for round in 0..4u64 {
        let delta = random_update_batch(leader.graph(), 8, 0.5, 5100 + round);
        leader.commit(&delta).unwrap();
    }
    // Replica consumes epochs 1..=2 only, then the leader "crashes"
    // mid-append: chop the last record in half.
    // (catch_up drains everything, so emulate the partial consumer by
    // tearing first, catching up after.)
    let tail_seg = mem.segments().unwrap() - 1;
    let full = mem.len(tail_seg).unwrap();
    mem.truncate_segment(tail_seg, full - 7);
    let epoch_before_tear = leader.epoch();
    drop(leader);

    // The follower scans past the torn bytes without a Corrupt error and
    // lands exactly one epoch short (the torn record was epoch 4).
    replica.catch_up().unwrap();
    assert_eq!(replica.frontier(), epoch_before_tear - 1);
    assert_eq!(replica.status().unwrap().lag, 0, "torn bytes are not lag");

    // The leader recovers (sees the same torn tail), re-registers, and
    // re-commits; the follower converges on the re-written history.
    let mut leader = Engine::recover(Arc::new(mem.clone())).unwrap();
    assert_eq!(leader.epoch(), epoch_before_tear - 1);
    register_leader(&mut leader);
    let delta = random_update_batch(leader.graph(), 8, 0.5, 5104);
    leader.commit(&delta).unwrap();
    assert_converged(&leader, &mut replica, &views);
}

/// Forced segment rotation mid-stream (every checkpoint starts a fresh
/// segment) is invisible to a tailing follower.
#[test]
fn replica_tails_across_forced_segment_rotations() {
    let (mem, mut leader) = logged_leader(302);
    let mut replica = leader.replica().unwrap();
    let views = register_replica(&mut replica);

    let before = mem.segments().unwrap();
    for round in 0..8u64 {
        let delta = random_update_batch(leader.graph(), 8, 0.5, 5200 + round);
        leader.commit(&delta).unwrap();
        if round == 3 {
            leader.checkpoint().unwrap(); // explicit forced rotation
        }
        assert_converged(&leader, &mut replica, &views);
    }
    assert!(
        mem.segments().unwrap() >= before + 3,
        "cadence + explicit checkpoints must have rotated segments \
         ({} -> {})",
        before,
        mem.segments().unwrap()
    );
}

/// A failed append (injected mid-write fault) rejects the leader's
/// commit atomically; the retry lands on a rotated segment, and the
/// follower consumes the exact committed history — the partial bytes
/// never surface as data or as corruption.
#[test]
fn replica_survives_a_failed_then_retried_append() {
    let (mem, mut leader) = logged_leader(303);
    let mut replica = leader.replica().unwrap();
    let views = register_replica(&mut replica);

    let delta = random_update_batch(leader.graph(), 8, 0.5, 5300);
    leader.commit(&delta).unwrap();
    assert_converged(&leader, &mut replica, &views);

    // Arm the one-shot fault: the next append stores half its bytes and
    // reports failure. The commit is rejected atomically.
    let epoch_before = leader.epoch();
    let delta = random_update_batch(leader.graph(), 8, 0.5, 5301);
    mem.fail_next_append(20);
    match leader.commit(&delta).unwrap_err() {
        EngineError::RetriesExhausted {
            operation, cause, ..
        } => {
            assert_eq!(operation, "append");
            assert!(cause.contains("injected"), "{cause}")
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(leader.epoch(), epoch_before, "failed commit moved nothing");
    assert!(leader.is_degraded(), "exhausted retries degrade the leader");

    // The follower sees no phantom epoch and no corruption — degraded
    // mode is leader-side only; tailing keeps working.
    assert_eq!(replica.catch_up().unwrap(), 0);
    assert_eq!(replica.frontier(), epoch_before);

    // The leader heals and retries the same batch; the follower converges.
    leader.heal().unwrap();
    leader.commit(&delta).unwrap();
    assert_eq!(leader.epoch(), epoch_before + 1);
    assert_converged(&leader, &mut replica, &views);
    assert_eq!(
        replica.status().unwrap().lag,
        0,
        "retry fully consumed; the torn garbage cost nothing"
    );
}

/// The compaction safety contract, end to end: a pinned slow follower
/// holds history back; once its pin advances the journal shrinks
/// (segment count drops); a fresh replica seeds from the newest
/// checkpoint afterwards; and an unpinned follower that compaction
/// outran gets a precise `FrontierCompacted`, not garbage.
#[test]
fn compaction_respects_pins_then_bounds_the_journal() {
    let (mem, mut leader) = logged_leader(304);

    // An unpinned follower (cross-process shape) that will go dormant.
    let mut dormant = Replica::attach(Arc::new(mem.clone())).unwrap();
    // A pinned slow follower, created at epoch 0 and never caught up.
    let mut slow = leader.replica().unwrap();
    let slow_views = register_replica(&mut slow);
    let pinned_at = slow.frontier();

    for round in 0..9u64 {
        let delta = random_update_batch(leader.graph(), 8, 0.5, 5400 + round);
        leader.commit(&delta).unwrap();
    }
    let segments_before = mem.segments().unwrap() - mem.first_segment().unwrap();
    let bytes_before = leader.log().unwrap().bytes().unwrap();

    // The slow follower's pin protects everything past its frontier.
    let c = leader.compact_log().unwrap();
    assert_eq!(c.pinned_frontier, Some(pinned_at));
    assert!(
        c.base_epoch <= pinned_at,
        "retained base (epoch {}) must not outrun the pin ({})",
        c.base_epoch,
        pinned_at
    );
    // The slow follower still converges — nothing it needed was dropped.
    assert_converged(&leader, &mut slow, &slow_views);

    // Its pin advanced with the catch-up; now compaction can bite.
    let c = leader.compact_log().unwrap();
    assert!(c.dropped_segments > 0, "advanced pin frees history");
    let segments_after = mem.segments().unwrap() - mem.first_segment().unwrap();
    let bytes_after = leader.log().unwrap().bytes().unwrap();
    assert!(
        segments_after < segments_before,
        "retained segment count must drop ({segments_before} -> {segments_after})"
    );
    assert!(bytes_after < bytes_before);
    assert_eq!(bytes_after, bytes_before - c.dropped_bytes);

    // A fresh replica attaches over the compacted log and is immediately
    // bit-identical to the leader.
    let mut fresh = leader.replica().unwrap();
    assert!(fresh.seed_base() >= c.base_epoch);
    let fresh_views = register_replica(&mut fresh);
    assert_converged(&leader, &mut fresh, &fresh_views);

    // The dormant unpinned follower was outrun: its next catch-up names
    // the gap precisely instead of diverging or crying Corrupt.
    let dormant_frontier = dormant.frontier();
    match dormant.catch_up().unwrap_err() {
        EngineError::FrontierCompacted { frontier, oldest } => {
            assert_eq!(frontier, dormant_frontier);
            assert!(oldest > frontier + 1);
        }
        other => panic!("expected FrontierCompacted, got {other:?}"),
    }
    // Re-attaching is the documented recovery: the new follower seeds
    // from the newest checkpoint and serves.
    let mut reattached = Replica::attach(Arc::new(mem.clone())).unwrap();
    let re_views = register_replica(&mut reattached);
    assert_converged(&leader, &mut reattached, &re_views);
}

/// Journal stays bounded across many checkpoint cadences when the
/// leader compacts after each one — the size-bounding claim behind the
/// CI compaction drill.
#[test]
fn periodic_compaction_keeps_retained_segments_bounded() {
    let (mem, mut leader) = logged_leader(305);
    let mut replica = leader.replica().unwrap();
    let views = register_replica(&mut replica);

    let mut retained = Vec::new();
    for cadence in 0..5u64 {
        for round in 0..3u64 {
            let delta = random_update_batch(leader.graph(), 8, 0.5, 5500 + cadence * 10 + round);
            leader.commit(&delta).unwrap();
        }
        // The replica keeps up, so its pin never blocks compaction.
        assert_converged(&leader, &mut replica, &views);
        leader.compact_log().unwrap();
        retained.push(mem.segments().unwrap() - mem.first_segment().unwrap());
    }
    let max_retained = *retained.iter().max().unwrap();
    assert!(
        max_retained <= 2,
        "with an up-to-date pin, at most the newest checkpoint segment \
         and the live tail survive each drill (saw {retained:?})"
    );
    // And historical indices really did advance: compaction dropped
    // whole segments rather than renumbering.
    assert!(mem.first_segment().unwrap() > 0);
}
