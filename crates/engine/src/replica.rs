//! Log-shipped read replicas: follower engines that tail a leader's
//! commit log and serve reads at their own replay frontier.
//!
//! A follower is an [`Engine`] whose deltas come from the log instead of
//! from clients: a [`Replica`] is that engine (with no log of its own), a
//! [`Replayer`] over the leader's log, its retention pin and seed base.
//! Each replayed delta lands through the engine's one commit stage, so a
//! follower publishes versions, keeps totals and journals events exactly
//! as a leader does, and `Replica` derefs to the engine for every read.
//!
//! A follower seeds from the **newest checkpoint** (never genesis — that
//! is the whole point of the checkpoint cadence), replays normalized
//! deltas in epoch order, and advances a *frontier*: the last epoch it
//! has fully consumed, its engine's [`Engine::epoch`]. Reads are always
//! internally consistent — graph and every view agree on the frontier
//! epoch — they are just possibly *stale*, which [`ReplicaStatus`]
//! quantifies and [`Replica::ensure_fresh`] gates on.
//!
//! Two attachment modes:
//!
//! * [`Engine::replica`] — in-process follower (typically over a shared
//!   [`MemBackend`](igc_log::MemBackend)). The leader registers a
//!   [`RetentionPin`] for it, so [`Engine::compact_log`] never drops the
//!   history this follower still needs; the pin advances lock-free on
//!   every catch-up round and releases automatically when the replica is
//!   dropped.
//! * [`Replica::attach`] — cross-process follower (typically over a
//!   [`FileBackend`](igc_log::FileBackend) pointed at the leader's log
//!   directory). Unpinned: if it falls behind a compaction its next
//!   catch-up is [`EngineError::FrontierCompacted`] and it must
//!   [re-attach](Replica::reattach).
//!
//! Tail the log from a worker thread with [`Replica::tail`], or drive
//! [`Replica::catch_up`] by hand. Torn tails, segment rotation and
//! mid-stream checkpoints are all handled by the scan layer underneath —
//! a replica simply never observes them.
//!
//! **Self-healing**: a [`Replica::tail`] loop that finds its frontier
//! compacted away [re-attaches](Replica::reattach) — the follower
//! re-seeds from the newest checkpoint and catches its views up with one
//! synthesized diff batch instead of being rebuilt from scratch. Any
//! other error, a transient read fault included, ends the tail the first
//! time it happens; the caller tails again once the fault has cleared.
//! [`Replica::catch_up`] driven by hand does not re-attach either: it
//! reports the precise error.
//!
//! A [background view build](crate::Engine::register_background) is a
//! pinned `Replica` too — one view, caught up on a worker thread, moved
//! into the engine's registry at join time.
//!
//! ```
//! use igc_engine::{Engine, Replica};
//! use igc_graph::{graph::graph_from, NodeId, Update, UpdateBatch};
//! use igc_log::MemBackend;
//! use std::sync::Arc;
//!
//! let backend = Arc::new(MemBackend::new());
//! let mut leader = Engine::new(graph_from(&[0, 0, 0], &[(0, 1)]))
//!     .with_log(backend.clone())
//!     .unwrap();
//!
//! // A pinned in-process follower, serving reads at its own frontier.
//! let mut replica = leader.replica().unwrap();
//! leader
//!     .commit(&UpdateBatch::from_updates(vec![Update::insert(
//!         NodeId(1),
//!         NodeId(2),
//!     )]))
//!     .unwrap();
//!
//! assert_eq!(replica.status().unwrap().lag, 1); // behind by one commit
//! replica.catch_up().unwrap();
//! let status = replica.ensure_fresh(0).unwrap(); // now current
//! assert_eq!(status.frontier_epoch, leader.epoch());
//! // The follower's reads are its engine's.
//! assert!(replica.graph().contains_edge(NodeId(1), NodeId(2)));
//! assert_eq!(replica.totals().commits, 1);
//! ```

use crate::engine::Engine;
use crate::error::EngineError;
use crate::lifecycle::{ViewHandle, ViewId};
use crate::registry::Registered;
use igc_core::IncView;
use igc_graph::{DynamicGraph, Update, UpdateBatch};
use igc_log::{LogBackend, LogError, Replayer, RetentionPin};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a replica stands relative to its leader's log, as of one scan.
///
/// `lag` is measured in *epochs* (commits), not bytes: it is exactly the
/// number of committed deltas the replica has not yet consumed. A replica
/// that has consumed everything the log holds reports `lag == 0` — the
/// leader may of course commit again a microsecond later; freshness is
/// always relative to the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The replica's replay frontier: the last epoch it has fully
    /// consumed (graph and all views agree on this epoch).
    pub frontier_epoch: u64,
    /// The leader's last journaled epoch at scan time.
    pub leader_epoch: u64,
    /// `leader_epoch - frontier_epoch` (saturating): deltas still to
    /// replay.
    pub lag: u64,
}

/// A follower tailing a leader's commit log: an [`Engine`] the log feeds,
/// which a `Replica` derefs to for every read — views, snapshots, events,
/// totals. Its replayed deltas land through the engine's one commit stage.
/// There is no `DerefMut`, so the engine's writes (`commit`, `deregister`,
/// the setters) are out of reach on a follower. See the [crate docs](crate)
/// for the replication model and an example.
pub struct Replica {
    /// The follower's engine: no log, fed only by [`Replica::catch_up`]
    /// and [`Replica::reattach`].
    engine: Engine,
    replayer: Replayer,
    /// The leader-registered retention pin, for followers created via
    /// [`Engine::replica`]; `None` for unpinned cross-process attachments.
    pin: Option<RetentionPin>,
    /// Epoch of the checkpoint this replica seeded from.
    seed_base: u64,
    /// Times this replica re-seeded from a newer checkpoint
    /// ([`Replica::reattach`], manual calls included).
    reattaches: u64,
}

impl Deref for Replica {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("frontier", &self.frontier())
            .field("seed_base", &self.seed_base)
            .field("views", &self.view_count())
            .field("pinned", &self.pin.is_some())
            .finish()
    }
}

impl Replica {
    /// Attach a follower to a log backend (typically a
    /// [`FileBackend`](igc_log::FileBackend) over the leader's log
    /// directory, from another process). Seeds from the **newest
    /// checkpoint** plus the delta tail — a late joiner never replays
    /// from genesis. The follower is *unpinned*: the leader's compaction
    /// does not know about it, so a long-dormant follower can be cut off
    /// ([`EngineError::FrontierCompacted`] on its next catch-up) and
    /// must [re-attach](Replica::reattach). In-process followers should prefer
    /// [`Engine::replica`], which pins.
    pub fn attach(backend: Arc<dyn LogBackend>) -> Result<Self, EngineError> {
        Self::attach_pinned(backend, None)
    }

    /// Shared attachment path; `pin` present = leader-registered
    /// follower ([`Engine::replica`]).
    pub(crate) fn attach_pinned(
        backend: Arc<dyn LogBackend>,
        pin: Option<RetentionPin>,
    ) -> Result<Self, EngineError> {
        let replayer = Replayer::new(backend);
        let replayed = replayer.latest()?;
        if let Some(pin) = &pin {
            pin.advance(replayed.graph.epoch());
        }
        Ok(Replica {
            engine: Engine::new(replayed.graph),
            replayer,
            seed_base: replayed.base_epoch,
            pin,
            reattaches: 0,
        })
    }

    /// Times this replica has re-seeded from a newer checkpoint
    /// ([`Replica::reattach`] — automatic or manual).
    pub fn reattaches(&self) -> u64 {
        self.reattaches
    }

    /// [`Engine::register`] on the follower's engine: the view is built
    /// from the graph at the replay frontier, then maintained by every
    /// later catch-up round.
    pub fn register<V: IncView, F: FnOnce(&DynamicGraph) -> V>(
        &mut self,
        label: impl Into<Arc<str>>,
        init: F,
    ) -> Result<ViewHandle<V>, EngineError> {
        self.engine.register(label, init)
    }

    /// Drain everything the log currently holds past this replica's
    /// frontier: each delta lands through the engine's commit stage —
    /// graph, fan-out to every active view, a published version — then
    /// the retention pin (if pinned) advances. Returns the number of
    /// deltas consumed — `0` when already at the head.
    ///
    /// Safe to call repeatedly while the leader keeps committing; each
    /// call consumes whatever is complete at scan time (a record the
    /// leader is mid-appending shows up as a torn tail this scan ignores
    /// and the next one sees whole). A view whose `apply` panics is
    /// quarantined at the offending epoch and skipped from then on; the
    /// replica itself keeps tailing.
    ///
    /// Errors: [`EngineError::FrontierCompacted`] when the log's oldest
    /// retained delta is already past `frontier + 1` (unpinned follower
    /// outrun by compaction); [`EngineError::LogCorrupt`] /
    /// [`EngineError::EpochGap`] on genuine log damage.
    pub fn catch_up(&mut self) -> Result<u64, EngineError> {
        let engine = &mut self.engine;
        let applied = self
            .replayer
            .catch_up(engine.epoch(), |delta| engine.replay(delta, None));
        let applied = Self::map_catch_up_error(applied)?;
        self.advance_pin();
        Ok(applied)
    }

    /// Move the retention pin (if pinned) up to the frontier.
    fn advance_pin(&self) {
        if let Some(pin) = &self.pin {
            pin.advance(self.frontier());
        }
    }

    /// Translate a raw catch-up error to the engine surface. The chain
    /// itself never runs backwards, so a gap with `found ≥ expected`
    /// means the tail we needed was compacted away underneath an
    /// unpinned follower: a delta past the one expected, or a checkpoint
    /// at or past it, which follows the expected delta in append order.
    fn map_catch_up_error(r: Result<u64, LogError>) -> Result<u64, EngineError> {
        match r {
            Ok(n) => Ok(n),
            Err(LogError::EpochGap { expected, found }) if found >= expected => {
                Err(EngineError::FrontierCompacted {
                    frontier: expected.saturating_sub(1),
                    oldest: found,
                })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// One catch-up round of [`Replica::tail`]: a compacted-away
    /// frontier triggers [`Replica::reattach`], and any other error
    /// surfaces. A reattach skips the individual deltas of the compacted
    /// window: the follower's receipts, totals and views see their net
    /// diff as one delta.
    fn tail_round(&mut self) -> Result<u64, EngineError> {
        loop {
            match self.catch_up() {
                // Re-seed from the newest checkpoint and go round again:
                // the reattach leaves the frontier at the head, so the
                // next round normally drains clean.
                Err(EngineError::FrontierCompacted { .. }) => self.reattach()?,
                done => return done,
            };
        }
    }

    /// Re-seed this replica from the **newest checkpoint** plus the delta
    /// tail — recovery from [`EngineError::FrontierCompacted`] *without*
    /// rebuilding the views from scratch. The replica computes the
    /// edge-set diff between its stale graph and the fresh head,
    /// synthesizes it as one normalized ΔG batch (deletes for edges only
    /// the stale graph had, labelled inserts for edges only the head
    /// has), and lands that batch through the engine's commit stage with
    /// the re-seeded graph as post-state — by the views' confluence
    /// contract (the same one that makes ingest coalescing
    /// answer-identical), their answers land exactly where replaying the
    /// compacted window one delta at a time would have put them. The
    /// window counts as one delta in [`Engine::totals`], and its version
    /// publishes at the head's epoch. Quarantined views stay quarantined.
    ///
    /// Returns the number of epochs the frontier jumped. Counted in
    /// [`Replica::reattaches`]; [`Replica::tail`] calls this
    /// automatically.
    pub fn reattach(&mut self) -> Result<u64, EngineError> {
        let replayed = self.replayer.latest()?;
        let jumped = replayed.graph.epoch().saturating_sub(self.frontier());
        let delta = Self::diff(self.engine.graph(), &replayed.graph);
        self.engine.replay(delta, Some(replayed.graph));
        self.seed_base = replayed.base_epoch;
        self.advance_pin();
        self.reattaches += 1;
        Ok(jumped)
    }

    /// The normalized batch that turns `old` into `new`: deletes for the
    /// edges only `old` has, in ascending order, then labelled inserts for
    /// the edges only `new` has, in ascending order — one merge of the two
    /// sorted edge lists.
    fn diff(old: &DynamicGraph, new: &DynamicGraph) -> UpdateBatch {
        let (old_edges, new_edges) = (old.sorted_edges(), new.sorted_edges());
        let (mut deletes, mut inserts) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < old_edges.len() && j < new_edges.len() {
            match old_edges[i].cmp(&new_edges[j]) {
                std::cmp::Ordering::Less => {
                    deletes.push(old_edges[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    inserts.push(new_edges[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            }
        }
        deletes.extend_from_slice(&old_edges[i..]);
        inserts.extend_from_slice(&new_edges[j..]);
        let deletes = deletes.into_iter().map(|(a, b)| Update::delete(a, b));
        let inserts = inserts.into_iter().map(|e| Self::labeled_insert(e, new));
        UpdateBatch::from_updates(deletes.chain(inserts).collect())
    }

    /// A synthesized insert carrying the head graph's endpoint labels, so
    /// a reattach that materializes fresh nodes labels them exactly as
    /// the replayed history did.
    fn labeled_insert(
        (from, to): (igc_graph::NodeId, igc_graph::NodeId),
        g: &DynamicGraph,
    ) -> Update {
        Update::insert_labeled(from, to, Some(g.label(from)), Some(g.label(to)))
    }

    /// Tail the log until `stop` is raised: repeatedly
    /// [`catch_up`](Replica::catch_up), sleeping `poll` between rounds,
    /// with one final drain after the stop signal (so everything the
    /// leader journaled *before* raising `stop` is consumed). Returns
    /// the total deltas applied. Designed to run on a worker thread:
    ///
    /// ```no_run
    /// # use igc_engine::Replica;
    /// # use std::sync::atomic::AtomicBool;
    /// # use std::sync::Arc;
    /// # use std::time::Duration;
    /// # let replica: Replica = unimplemented!();
    /// let stop = Arc::new(AtomicBool::new(false));
    /// let flag = stop.clone();
    /// let mut replica = replica;
    /// let worker = std::thread::spawn(move || {
    ///     replica.tail(&flag, Duration::from_millis(1)).map(|n| (replica, n))
    /// });
    /// // … leader commits …
    /// stop.store(true, std::sync::atomic::Ordering::Release);
    /// let (replica, applied) = worker.join().unwrap().unwrap();
    /// ```
    /// The loop self-heals one way: a compacted-away frontier re-attaches
    /// from the newest checkpoint ([`Replica::reattach`]). Any other
    /// error, a transient read fault included, ends the tail the first
    /// time it happens; call `tail` (or [`Replica::catch_up`]) again once
    /// the fault has cleared.
    pub fn tail(&mut self, stop: &AtomicBool, poll: Duration) -> Result<u64, EngineError> {
        let mut total = 0;
        loop {
            total += self.tail_round()?;
            if stop.load(Ordering::Acquire) {
                total += self.tail_round()?;
                return Ok(total);
            }
            std::thread::sleep(poll);
        }
    }

    /// Scan the log once and report this replica's position relative to
    /// the leader's journaled head.
    pub fn status(&self) -> Result<ReplicaStatus, EngineError> {
        let summary = self.replayer.summary()?;
        let frontier_epoch = self.frontier();
        Ok(ReplicaStatus {
            frontier_epoch,
            leader_epoch: summary.last_epoch,
            lag: summary.last_epoch.saturating_sub(frontier_epoch),
        })
    }

    /// [`status`](Replica::status), gated: errors with
    /// [`EngineError::ReplicaLagging`] when the lag exceeds `max_lag`
    /// epochs — the bounded-staleness read contract (`max_lag == 0`
    /// demands the replica has consumed everything journaled at scan
    /// time).
    pub fn ensure_fresh(&self, max_lag: u64) -> Result<ReplicaStatus, EngineError> {
        let status = self.status()?;
        if status.lag > max_lag {
            return Err(EngineError::ReplicaLagging {
                frontier: status.frontier_epoch,
                leader_epoch: status.leader_epoch,
                lag: status.lag,
            });
        }
        Ok(status)
    }

    /// The replay frontier: the last epoch this replica has fully
    /// consumed ([`Engine::epoch`] of its engine).
    pub fn frontier(&self) -> u64 {
        self.engine.epoch()
    }

    /// Epoch of the checkpoint this replica seeded from at attach time —
    /// a late joiner's base is the newest checkpoint, never genesis.
    pub fn seed_base(&self) -> u64 {
        self.seed_base
    }

    /// Whether this follower holds a leader-side retention pin (created
    /// via [`Engine::replica`]).
    pub fn is_pinned(&self) -> bool {
        self.pin.is_some()
    }

    /// End this follower and hand back the entry behind `id` — the view
    /// with its health, as the catch-up rounds left it. How a
    /// [background build](crate::Engine::join_background) moves its view
    /// into the engine's registry.
    pub(crate) fn into_entry(mut self, id: ViewId) -> Result<Registered, EngineError> {
        self.engine.views.remove(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{LifecycleEventKind, ViewState};
    use igc_graph::{graph::graph_from, NodeId, Update, UpdateBatch};
    use igc_log::{CommitLog, MemBackend};

    /// A minimal follower-side view: counts edges incrementally, recounts
    /// from scratch for the audit, and can be armed to panic.
    #[derive(Clone, Debug)]
    struct EdgeCount {
        edges: i64,
        panic_at: Option<u64>,
    }

    impl EdgeCount {
        fn new(g: &DynamicGraph) -> Self {
            EdgeCount {
                edges: g.edge_count() as i64,
                panic_at: None,
            }
        }
    }

    impl IncView for EdgeCount {
        fn name(&self) -> &str {
            "edge-count"
        }
        fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
            if self.panic_at == Some(g.epoch()) {
                panic!("armed at epoch {}", g.epoch());
            }
            for u in delta.iter() {
                self.edges += if u.is_insert() { 1 } else { -1 };
            }
        }
        fn work(&self) -> igc_core::WorkStats {
            igc_core::WorkStats::new()
        }
        fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
            if self.edges == g.edge_count() as i64 {
                Ok(())
            } else {
                Err(format!("have {}, graph has {}", self.edges, g.edge_count()))
            }
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    fn scripted_log() -> (Arc<dyn LogBackend>, DynamicGraph) {
        let arc: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 1, 2, 0], &[(0, 1)]);
        log.append_checkpoint(&g).unwrap();
        for i in 0..4u32 {
            let b =
                UpdateBatch::from_updates(vec![Update::insert(NodeId(i % 4), NodeId((i + 2) % 4))]);
            g.apply_batch(&b);
            log.append_delta(g.epoch(), &b).unwrap();
            if i == 1 {
                log.append_checkpoint(&g).unwrap();
            }
        }
        (arc, g)
    }

    #[test]
    fn attach_seeds_from_the_newest_checkpoint_not_genesis() {
        let (arc, g) = scripted_log();
        let replica = Replica::attach(arc).unwrap();
        assert_eq!(replica.frontier(), g.epoch());
        assert_eq!(replica.seed_base(), 2, "mid-stream checkpoint is the base");
        assert!(!replica.is_pinned());
        assert_eq!(replica.graph().sorted_edges(), g.sorted_edges());
    }

    #[test]
    fn attach_to_an_empty_backend_is_a_log_error() {
        let empty: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        assert!(matches!(
            Replica::attach(empty).unwrap_err(),
            EngineError::LogCorrupt { .. }
        ));
    }

    #[test]
    fn catch_up_maintains_registered_views_and_status_tracks_lag() {
        let (arc, _) = scripted_log();
        let mut log = CommitLog::open(arc.clone()).unwrap();
        let mut replica = Replica::attach(arc).unwrap();
        let h = replica.register("edges", EdgeCount::new).unwrap();
        assert_eq!(
            replica.register("edges", EdgeCount::new).unwrap_err(),
            EngineError::DuplicateLabel {
                label: Arc::from("edges")
            }
        );
        replica.verify_all().unwrap();

        // Leader appends two more commits; replica lags by exactly those.
        let mut g = log.replayer().latest().unwrap().graph;
        for (from, to) in [(1u32, 0u32), (2, 3)] {
            let b = UpdateBatch::from_updates(vec![Update::insert(NodeId(from), NodeId(to))]);
            g.apply_batch(&b);
            log.append_delta(g.epoch(), &b).unwrap();
        }
        let status = replica.status().unwrap();
        assert_eq!(status.lag, 2);
        assert!(matches!(
            replica.ensure_fresh(1).unwrap_err(),
            EngineError::ReplicaLagging { lag: 2, .. }
        ));
        assert_eq!(replica.catch_up().unwrap(), 2);
        let status = replica.ensure_fresh(0).unwrap();
        assert_eq!(status.frontier_epoch, g.epoch());
        assert_eq!(status.lag, 0);
        assert_eq!(replica.view(&h).unwrap().edges, g.edge_count() as i64);
        replica.verify_all().unwrap();
        // Nothing new: catch_up is a cheap no-op.
        assert_eq!(replica.catch_up().unwrap(), 0);
    }

    #[test]
    fn a_panicking_view_is_quarantined_and_the_replica_keeps_tailing() {
        let (arc, _) = scripted_log();
        let mut log = CommitLog::open(arc.clone()).unwrap();
        let mut replica = Replica::attach(arc).unwrap();
        let healthy = replica.register("healthy", EdgeCount::new).unwrap();
        let doomed = replica
            .register("doomed", |g: &DynamicGraph| {
                let mut v = EdgeCount::new(g);
                v.panic_at = Some(6); // the second of the two new commits
                v
            })
            .unwrap();

        let mut g = log.replayer().latest().unwrap().graph;
        for (from, to) in [(1u32, 0u32), (2, 3)] {
            let b = UpdateBatch::from_updates(vec![Update::insert(NodeId(from), NodeId(to))]);
            g.apply_batch(&b);
            log.append_delta(g.epoch(), &b).unwrap();
        }
        assert_eq!(replica.catch_up().unwrap(), 2, "tailing survived the panic");
        assert_eq!(replica.frontier(), g.epoch());
        assert!(replica.view(&healthy).is_ok());
        match replica.view(&doomed).unwrap_err() {
            EngineError::ViewQuarantined { epoch, cause, .. } => {
                assert_eq!(epoch, 6);
                assert!(cause.contains("armed at epoch 6"), "{cause}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(matches!(
            replica.state(doomed).unwrap(),
            ViewState::Quarantined { .. }
        ));
        // The audit skips the quarantined view and passes on the healthy.
        replica.verify_all().unwrap();
        // The follower is an engine: its journal, totals and published
        // versions saw the two replayed deltas as commits.
        let last = replica.events().last().unwrap();
        assert_eq!(
            (last.kind, &*last.label, last.epoch),
            (LifecycleEventKind::Quarantined, "doomed", 6)
        );
        assert_eq!(replica.totals().commits, 2);
        let pinned = replica.snapshot_at(replica.frontier()).unwrap();
        assert_eq!(pinned.epoch(), g.epoch());
    }

    #[test]
    fn tail_drains_until_stopped() {
        let (arc, _) = scripted_log();
        let mut log = CommitLog::open(arc.clone()).unwrap();
        let mut replica = Replica::attach(arc).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let worker = std::thread::spawn(move || {
            replica
                .tail(&flag, Duration::from_millis(1))
                .map(|applied| (replica, applied))
        });

        let mut g = log.replayer().latest().unwrap().graph;
        for (from, to) in [(1u32, 0u32), (2, 3), (3, 0), (1, 2), (2, 1)] {
            let b = UpdateBatch::from_updates(vec![Update::insert(NodeId(from), NodeId(to))]);
            g.apply_batch(&b);
            log.append_delta(g.epoch(), &b).unwrap();
        }
        stop.store(true, Ordering::Release);
        let (replica, applied) = worker.join().unwrap().unwrap();
        assert_eq!(applied, 5, "the final drain catches every pre-stop commit");
        assert_eq!(replica.frontier(), g.epoch());
        assert_eq!(replica.graph().sorted_edges(), g.sorted_edges());
    }

    #[test]
    fn reattach_diff_by_merge_equals_the_filtered_diff() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        use igc_graph::Label;
        let old = uniform_graph(60, 240, 3, 9);
        let mut new = old.clone();
        for seed in 0..4 {
            new.apply_batch(&random_update_batch(&new, 30, 0.5, seed));
        }
        // Fresh nodes on both sides of an edge, one past a gap.
        let n = new.node_count() as u32;
        new.apply_batch(&UpdateBatch::from_updates(vec![
            Update::insert_labeled(NodeId(3), NodeId(n), None, Some(Label(2))),
            Update::insert_labeled(NodeId(n + 2), NodeId(5), Some(Label(1)), None),
        ]));
        // The diff by filtering: each sorted list, by membership in the
        // other graph.
        let deletes = old
            .sorted_edges()
            .into_iter()
            .filter(|&(a, b)| !new.contains_edge(a, b))
            .map(|(a, b)| Update::delete(a, b));
        let inserts = new
            .sorted_edges()
            .into_iter()
            .filter(|&(a, b)| !old.contains_edge(a, b))
            .map(|e| Replica::labeled_insert(e, &new));
        let filtered = UpdateBatch::from_updates(deletes.chain(inserts).collect());
        let merged = Replica::diff(&old, &new);
        assert!(merged.deletions().count() > 0 && merged.insertions().count() > 2);
        assert_eq!(merged, filtered);
        let mut replayed = old.clone();
        replayed.apply_batch(&merged);
        assert_eq!(replayed.sorted_edges(), new.sorted_edges());
        let labels = |g: &DynamicGraph| g.nodes().map(|v| g.label(v)).collect::<Vec<_>>();
        assert_eq!(labels(&replayed), labels(&new));
    }
}
