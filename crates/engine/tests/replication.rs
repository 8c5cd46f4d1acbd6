//! Replication integration: fault injection (torn tails, forced segment
//! rotation, failed-then-retried appends) and compaction (the journal
//! stays bounded however far a follower lags; a follower whose frontier
//! was dropped re-seeds on its next catch-up; a scan survives a
//! compaction under it; fresh replicas seed correctly afterwards) — each
//! checked against all four real query classes, bit-identical to the
//! leader.

use igc_engine::{Engine, EngineError, Replica};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_log::{ChaosBackend, LogBackend, LogError, MemBackend};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod four_classes;
use four_classes::*;

fn logged_leader(seed: u64) -> (ChaosBackend, Engine) {
    let g = uniform_graph(24, 64, 3, seed);
    let (mem, backend) = backend_pair();
    let mut leader = Engine::new(g).with_log(backend).unwrap();
    leader.set_checkpoint_every(3);
    register_all(&mut leader);
    (mem, leader)
}

/// A follower over `leader`'s journal.
fn follower(leader: &Engine) -> Replica {
    Replica::attach(leader.log().unwrap().backend()).unwrap()
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
        answers(leader),
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
    let mut replica = follower(&leader);
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
    register_all(&mut leader);
    let delta = random_update_batch(leader.graph(), 8, 0.5, 5104);
    leader.commit(&delta).unwrap();
    assert_converged(&leader, &mut replica, &views);
}

/// Forced segment rotation mid-stream (every checkpoint starts a fresh
/// segment) is invisible to a tailing follower.
#[test]
fn replica_tails_across_forced_segment_rotations() {
    let (mem, mut leader) = logged_leader(302);
    let mut replica = follower(&leader);
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
    let mut replica = follower(&leader);
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
        EngineError::JournalFailed { operation, cause } => {
            assert_eq!(operation, "append");
            assert!(cause.contains("injected"), "{cause}")
        }
        other => panic!("expected JournalFailed, got {other:?}"),
    }
    assert_eq!(leader.epoch(), epoch_before, "failed commit moved nothing");
    assert!(leader.is_degraded(), "a failed append degrades the leader");

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

/// The compaction contract, end to end: a follower left at epoch 0 holds
/// nothing back — the first compaction drops segments and the journal
/// shrinks; that follower and a dormant one converge through `catch_up`,
/// each re-seeding once from the retained checkpoint; and a fresh replica
/// seeds past the compacted base.
#[test]
fn compaction_respects_pins_then_bounds_the_journal() {
    let (mem, mut leader) = logged_leader(304);

    // A dormant follower with no views, and a slow one with four, both
    // attached at epoch 0 and never caught up.
    let mut dormant = follower(&leader);
    let mut slow = follower(&leader);
    let slow_views = register_replica(&mut slow);
    assert_eq!(slow.frontier(), 0);

    for round in 0..9u64 {
        let delta = random_update_batch(leader.graph(), 8, 0.5, 5400 + round);
        leader.commit(&delta).unwrap();
    }
    let segments_before = mem.segments().unwrap() - mem.first_segment().unwrap();
    let bytes_before = leader.log().unwrap().bytes().unwrap();

    // Neither follower holds history back.
    let c = leader.compact_log().unwrap();
    assert!(
        c.dropped_segments > 0,
        "a follower at epoch 0 holds nothing back"
    );
    assert!(
        c.base_epoch > 1,
        "the deltas the followers need next are gone"
    );
    let segments_after = mem.segments().unwrap() - mem.first_segment().unwrap();
    let bytes_after = leader.log().unwrap().bytes().unwrap();
    assert!(
        segments_after < segments_before,
        "retained segment count must drop ({segments_before} -> {segments_after})"
    );
    assert!(bytes_after < bytes_before);
    assert_eq!(bytes_after, bytes_before - c.dropped_bytes);

    // Both converge through `catch_up`, each re-seeding once.
    assert_converged(&leader, &mut slow, &slow_views);
    assert_eq!((slow.reattaches(), slow.seed_base()), (1, c.base_epoch));
    assert_eq!(
        dormant.catch_up().unwrap(),
        leader.epoch(),
        "epochs advanced"
    );
    assert_eq!(dormant.reattaches(), 1);
    assert_eq!(
        dormant.graph().sorted_edges(),
        leader.graph().sorted_edges()
    );
    // Caught up, the next round re-seeds nothing.
    assert_eq!(dormant.catch_up().unwrap(), 0);
    assert_eq!(dormant.reattaches(), 1);

    // A fresh replica attaches over the compacted log and is immediately
    // bit-identical to the leader.
    let mut fresh = follower(&leader);
    assert!(fresh.seed_base() >= c.base_epoch);
    let fresh_views = register_replica(&mut fresh);
    assert_converged(&leader, &mut fresh, &fresh_views);
    assert_eq!(fresh.reattaches(), 0);
}

/// A backend that, once armed, runs a compaction's `remove_below(1)`
/// between a scan's listing and its first read — a leader compacting on
/// another thread while a follower scans.
#[derive(Debug)]
struct CompactsUnderTheScan {
    inner: Arc<dyn LogBackend>,
    armed: AtomicBool,
}

impl LogBackend for CompactsUnderTheScan {
    fn segments(&self) -> Result<u32, LogError> {
        self.inner.segments()
    }
    fn first_segment(&self) -> Result<u32, LogError> {
        self.inner.first_segment()
    }
    fn read(&self, segment: u32) -> Result<Vec<u8>, LogError> {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.inner.remove_below(1)?;
        }
        self.inner.read(segment)
    }
    fn append(&self, segment: u32, bytes: &[u8]) -> Result<(), LogError> {
        self.inner.append(segment, bytes)
    }
    fn len(&self, segment: u32) -> Result<u64, LogError> {
        self.inner.len(segment)
    }
}

/// A scan whose listing a compaction outran starts again at the retained
/// log's first checkpoint: the follower, which needed nothing the
/// compaction dropped, consumes its one delta instead of failing on the
/// missing segment 0.
#[test]
fn a_catch_up_survives_a_compaction_between_its_listing_and_its_reads() {
    let mem: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
    let mut leader = Engine::new(uniform_graph(24, 64, 3, 306))
        .with_log(mem.clone())
        .unwrap();
    leader
        .commit(&random_update_batch(leader.graph(), 8, 0.5, 5600))
        .unwrap();
    leader.checkpoint().unwrap(); // epoch 1 leads segment 1
    let racy = Arc::new(CompactsUnderTheScan {
        inner: mem.clone(),
        armed: AtomicBool::new(false),
    });
    let mut replica = Replica::attach(racy.clone()).unwrap();
    assert_eq!(replica.frontier(), 1);
    leader
        .commit(&random_update_batch(leader.graph(), 8, 0.5, 5601))
        .unwrap();

    racy.armed.store(true, Ordering::Release);
    assert_eq!(replica.catch_up(), Ok(1));
    assert_eq!(mem.first_segment().unwrap(), 1, "the compaction ran");
    assert_eq!(replica.reattaches(), 0, "nothing the follower needed went");
    assert_eq!(
        replica.graph().sorted_edges(),
        leader.graph().sorted_edges()
    );
}

/// Journal stays bounded across many checkpoint cadences when the
/// leader compacts after each one — the size-bounding claim behind the
/// CI compaction drill.
#[test]
fn periodic_compaction_keeps_retained_segments_bounded() {
    let (mem, mut leader) = logged_leader(305);
    let mut replica = follower(&leader);
    let views = register_replica(&mut replica);

    let mut retained = Vec::new();
    for cadence in 0..5u64 {
        for round in 0..3u64 {
            let delta = random_update_batch(leader.graph(), 8, 0.5, 5500 + cadence * 10 + round);
            leader.commit(&delta).unwrap();
        }
        assert_converged(&leader, &mut replica, &views);
        leader.compact_log().unwrap();
        retained.push(mem.segments().unwrap() - mem.first_segment().unwrap());
    }
    let max_retained = *retained.iter().max().unwrap();
    assert!(
        max_retained <= 2,
        "at most the newest checkpoint segment and the live tail survive \
         each drill (saw {retained:?})"
    );
    // And historical indices really did advance: compaction dropped
    // whole segments rather than renumbering.
    assert!(mem.first_segment().unwrap() > 0);
    // A follower that keeps up never needs a dropped delta.
    assert_eq!(replica.reattaches(), 0);
}
