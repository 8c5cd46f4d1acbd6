//! MVCC snapshot reads: epoch-pinned, immutable published versions of the
//! engine's graph + view answers, served lock-free to any number of reader
//! threads while commits keep flowing.
//!
//! # Shape
//!
//! The engine owns an [`Arc<SnapshotStore>`]. After every non-noop commit
//! (and after lifecycle events: register, deregister, quarantine) it
//! *publishes* a version: the graph behind its existing `Arc` plus one
//! answer cell per registry slot, each cell the copy the view made of
//! itself through [`IncView::clone_view`] — the state its read API serves,
//! shared behind `Arc`s, and none of the auxiliary state it keeps to
//! maintain that answer. A reader calls [`SnapshotStore::snapshot`]
//! (newest) or [`SnapshotStore::snapshot_at`] (a specific epoch) and gets
//! a [`Snapshot`]: a pin on that version. Every read through the pin —
//! [`Snapshot::graph`], [`Snapshot::view`] — is a plain pointer deref with
//! no lock, no channel, and no coordination with the committer.
//!
//! # Who owns what, and the version window
//!
//! The engine owns every view uniquely and always mutates it in place; a
//! version shares only the graph and each view's *answer* state with it.
//! The store holds the newest version strongly and every older epoch as a
//! [`Weak`] entry, so a version lives exactly as long as it is the newest
//! or a live [`Snapshot`] holds it. A commit opens by releasing the newest,
//! which in the common no-pins case hands unique ownership of the graph and
//! every answer back — the commit then copies nothing and MVCC costs a few
//! `Arc` bumps per view. While a pin *is* live, the first write to a shared
//! piece copies that piece once, and the pieces are small: `Arc::make_mut`
//! on the graph bumps one handle per adjacency list and copies no edge,
//! after which each list the commit writes is copied alone
//! ([`DynamicGraph`] documents the costs); inside each view the same call
//! copies the container of its answer state. A pin costs what the commit
//! touched plus those handles, never the auxiliary state, and the pinned
//! reader keeps serving its frozen state, unaffected. The thread that drops
//! the last `Snapshot` of an older version frees it at once, outside the
//! store's mutex: what only that version holds (its copied lists, its
//! answer copies) is never the committer's to free. So the window is
//! *distinct pinned epochs + 1*.
//!
//! # Retirement
//!
//! [`SnapshotStore::snapshot_at`] can only serve epochs still retained:
//! asking for an epoch no pin holds any more returns
//! [`EngineError::EpochRetired`]; asking for an epoch newer than anything
//! published returns [`EngineError::SnapshotUnavailable`]. Taking the
//! newest snapshot briefly waits out an in-flight publish (bounded; a
//! committer that died mid-publish surfaces as `SnapshotUnavailable`
//! instead of a hang).

use crate::error::EngineError;
use crate::lifecycle::{ViewHandle, ViewId};
use crate::registry::{downcast, resolve, Found};
use igc_core::{panic_cause, IncView};
use igc_graph::DynamicGraph;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// How long [`SnapshotStore::snapshot`] will wait for an in-flight publish
/// to settle before reporting [`EngineError::SnapshotUnavailable`]. A
/// publish is a map insert under the store mutex — microseconds — so this
/// bound only ever fires if the committing thread died inside the window.
const PUBLISH_WAIT: Duration = Duration::from_secs(5);

/// One view's frozen answer state inside a published version.
pub(crate) enum CellState {
    /// The view's [`IncView::clone_view`] copy as of the publishing commit.
    Active(Arc<dyn IncView>),
    /// The slot was quarantined when this version published; reads surface
    /// the quarantine exactly like the live engine does.
    Quarantined {
        /// Graph epoch of the commit whose `apply` panicked.
        epoch: u64,
        /// The rendered panic payload.
        cause: String,
    },
}

impl CellState {
    /// The cell of an active view: its [`IncView::clone_view`] copy.
    /// `clone_view` is view code, so it is fenced like `apply`: a panic
    /// comes back as `Err(cause)` for the caller to quarantine.
    pub(crate) fn publish(view: &dyn IncView) -> Result<CellState, String> {
        catch_unwind(AssertUnwindSafe(|| view.clone_view()))
            .map(|copy| CellState::Active(Arc::from(copy)))
            .map_err(|payload| format!("clone_view panicked: {}", panic_cause(payload.as_ref())))
    }
}

/// One registry slot as captured by a published version: identity
/// (index + generation, so stale handles stay stale against snapshots
/// too), label, and the frozen answer state.
pub(crate) struct SnapCell {
    pub(crate) index: u32,
    pub(crate) generation: u32,
    pub(crate) label: Arc<str>,
    pub(crate) state: CellState,
}

/// An immutable published version: the graph at one epoch plus the answer
/// cells of every then-occupied registry slot.
struct VersionData {
    epoch: u64,
    graph: Arc<DynamicGraph>,
    cells: Vec<SnapCell>,
}

struct StoreInner {
    /// Published versions by epoch, held weakly: live while `newest` or a
    /// [`Snapshot`] holds them; [`SnapshotStore::begin_commit`] prunes.
    versions: BTreeMap<u64, Weak<VersionData>>,
    /// The store's one strong reference. `None` between `begin_commit` and
    /// its publish, when newest-snapshot requests wait on [`Condvar`].
    newest: Option<Arc<VersionData>>,
    /// The newest published epoch.
    head: u64,
}

impl StoreInner {
    /// The epochs whose version is live, oldest first.
    fn live(&self) -> impl Iterator<Item = u64> + '_ {
        let live = |(&e, v): (&u64, &Weak<VersionData>)| (v.strong_count() > 0).then_some(e);
        self.versions.iter().filter_map(live)
    }

    /// The oldest live epoch, else the head.
    fn oldest(&self) -> u64 {
        self.live().next().unwrap_or(self.head)
    }
}

/// The engine's epoch-versioned answer store — see [`Snapshot`] and the
/// crate-level docs for the pin / ownership / retirement contract.
///
/// The store itself is only ever touched at version granularity (take a
/// snapshot, publish a version); all data reads go through [`Snapshot`]
/// pins and never contend on the store's mutex.
pub struct SnapshotStore {
    inner: Mutex<StoreInner>,
    published: Condvar,
    /// Cumulative wall-clock the committer has spent inside
    /// [`begin_commit`](Self::begin_commit), building a version's cells
    /// (every view's `clone_view`) and [`publish`](Self::publish) — directly
    /// measurable against total commit latency (the bench harness's
    /// publish-overhead figure).
    publish_nanos: AtomicU64,
}

impl SnapshotStore {
    pub(crate) fn new() -> Self {
        SnapshotStore {
            inner: Mutex::new(StoreInner {
                versions: BTreeMap::new(),
                newest: None,
                head: 0,
            }),
            published: Condvar::new(),
            publish_nanos: AtomicU64::new(0),
        }
    }

    /// The store mutex guards no invariant a panic could tear (publish
    /// replaces whole `Arc`s), so a poisoned lock is simply recovered —
    /// the engine's no-panic contract extends to snapshot serving.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait, bounded by [`PUBLISH_WAIT`], until no publish is in flight.
    fn settled<'a>(&self, inner: MutexGuard<'a, StoreInner>) -> MutexGuard<'a, StoreInner> {
        self.published
            .wait_timeout_while(inner, PUBLISH_WAIT, |i| i.newest.is_none())
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Open the publish window for a commit: release the newest version —
    /// with no pins that hands unique ownership of the graph and every
    /// answer back to the engine, so the commit copies nothing — which
    /// marks the store mid-publish, so newest-snapshot requests wait for
    /// this commit's publish. A pinned version is freed by its last pin.
    pub(crate) fn begin_commit(&self) {
        let start = Instant::now();
        let mut inner = self.lock();
        inner.versions.retain(|_, v| v.strong_count() > 0);
        let newest = inner.newest.take();
        drop(inner);
        drop(newest); // outside the lock: a reader pinning never waits on it
        self.publish_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Publish a version at `epoch` (replacing any existing entry — how
    /// lifecycle events republish the current epoch) and close the
    /// publish window. `started` is when the caller began building `cells`,
    /// so [`publish_elapsed`](Self::publish_elapsed) counts their
    /// construction too.
    pub(crate) fn publish(
        &self,
        epoch: u64,
        graph: Arc<DynamicGraph>,
        cells: Vec<SnapCell>,
        started: Instant,
    ) {
        let version = Arc::new(VersionData {
            epoch,
            graph,
            cells,
        });
        let mut inner = self.lock();
        inner.versions.insert(epoch, Arc::downgrade(&version));
        let superseded = inner.newest.replace(version);
        inner.head = inner.head.max(epoch);
        drop(inner);
        self.published.notify_all();
        drop(superseded); // a lifecycle republish's old head, unlocked too
        self.publish_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Pin the newest published version. Waits out an in-flight publish
    /// (bounded by an internal few-second cap; only a committer that died
    /// mid-window can exhaust it, surfacing as
    /// [`EngineError::SnapshotUnavailable`] rather than a hang).
    pub fn snapshot(&self) -> Result<Snapshot, EngineError> {
        let inner = self.settled(self.lock());
        let (newest, head) = (inner.newest.clone(), inner.head);
        newest
            .map(|data| Snapshot { data })
            .ok_or(EngineError::SnapshotUnavailable { epoch: head, head })
    }

    /// Pin the version published at exactly `epoch`.
    ///
    /// A *retained* epoch pins instantly — even while a later commit is
    /// mid-publish (pinned history never moves). An epoch at or below the
    /// head that no pin holds any more is retired:
    /// [`EngineError::EpochRetired`]. An epoch beyond the head has not been
    /// published: [`EngineError::SnapshotUnavailable`] (after waiting out
    /// an in-flight publish that might be exactly this epoch).
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot, EngineError> {
        let live = |inner: &StoreInner| inner.versions.get(&epoch).and_then(Weak::upgrade);
        let inner = self.lock();
        if let Some(data) = live(&inner) {
            return Ok(Snapshot { data });
        }
        // Not retained. If a publish is in flight it may be publishing
        // this very epoch — wait it out before judging.
        let inner = self.settled(inner);
        if let Some(data) = live(&inner) {
            return Ok(Snapshot { data });
        }
        if epoch > inner.head {
            Err(EngineError::SnapshotUnavailable {
                epoch,
                head: inner.head,
            })
        } else {
            let oldest = inner.oldest();
            Err(EngineError::EpochRetired { epoch, oldest })
        }
    }

    /// The newest published epoch.
    pub fn head(&self) -> u64 {
        self.lock().head
    }

    /// How many versions the store currently retains (the version
    /// window): distinct pinned epochs + 1 for the newest. It shrinks the
    /// moment a retired epoch's last pin drops, with no commit between.
    pub fn window(&self) -> usize {
        self.lock().live().count()
    }

    /// The oldest retained epoch (equals [`head`](Self::head) when the
    /// window is 1).
    pub fn oldest(&self) -> u64 {
        self.lock().oldest()
    }

    /// Cumulative wall-clock the committer has spent on MVCC bookkeeping
    /// across every commit so far: releasing the newest version, building
    /// each version's cells (one [`IncView::clone_view`] per active view)
    /// and publication. A retired version is freed by the thread dropping
    /// its last pin, so its free is never counted here. It *excludes* what
    /// a live pin makes a commit copy — the graph's list handles and
    /// written lists, and inside each view its answer state — which is
    /// attributed where it happens: `graph_elapsed` and the view's own
    /// fan-out slot in the [`CommitReceipt`] (no pins → no copies).
    ///
    /// [`CommitReceipt`]: crate::CommitReceipt
    pub fn publish_elapsed(&self) -> Duration {
        Duration::from_nanos(self.publish_nanos.load(Ordering::Relaxed))
    }

    /// Approximate heap retention of the version window, counted in graph
    /// copies and view cells actually *owned* by live versions (entries
    /// whose `Arc` is shared with a newer version or the live engine are
    /// not double-counted). Feeds the bench harness's window-memory
    /// series.
    pub fn retained_stats(&self) -> SnapshotStoreStats {
        let inner = self.lock();
        let live: Vec<_> = inner.versions.values().filter_map(Weak::upgrade).collect();
        // Unlocked before `live` drops: if a pin dropped meanwhile, this frees it.
        drop(inner);
        let mut distinct_graphs: Vec<*const DynamicGraph> = Vec::new();
        let mut distinct_cells: Vec<*const ()> = Vec::new();
        for v in &live {
            let g = Arc::as_ptr(&v.graph);
            if !distinct_graphs.contains(&g) {
                distinct_graphs.push(g);
            }
            for c in &v.cells {
                if let CellState::Active(view) = &c.state {
                    let p = Arc::as_ptr(view).cast::<()>();
                    if !distinct_cells.contains(&p) {
                        distinct_cells.push(p);
                    }
                }
            }
        }
        SnapshotStoreStats {
            versions: live.len(),
            distinct_graphs: distinct_graphs.len(),
            distinct_view_cells: distinct_cells.len(),
        }
    }
}

/// What [`SnapshotStore::retained_stats`] reports: the shape of the
/// retained version window, deduplicated by actual storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStoreStats {
    /// Live version count (the window): the newest plus each pinned epoch.
    pub versions: usize,
    /// Distinct graph versions across the window (shared `Arc`s count
    /// once). A distinct version is not a whole copy: it has its own
    /// list handles, and shares with its neighbours every
    /// adjacency list, the labels and the label index that no commit
    /// between them wrote.
    pub distinct_graphs: usize,
    /// Distinct view-answer allocations across the window.
    pub distinct_view_cells: usize,
}

/// A pinned, immutable version of the engine at one epoch: the graph plus
/// every registered view's answers, bit-identical to a frozen engine at
/// that epoch. Reads are lock-free `Arc` derefs; the pin releases on drop,
/// and dropping the last pin of a superseded version frees it right there.
///
/// Cloning a `Snapshot` is cheap and pins the same version.
#[derive(Clone)]
pub struct Snapshot {
    data: Arc<VersionData>,
}

impl Snapshot {
    /// The epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.data.epoch
    }

    /// The graph exactly as it stood at the pinned epoch.
    pub fn graph(&self) -> &DynamicGraph {
        &self.data.graph
    }

    /// How many view cells this version captured (occupied registry slots
    /// at publish time, quarantined ones included).
    pub fn view_count(&self) -> usize {
        self.data.cells.len()
    }

    /// Resolve a registry label to the [`ViewId`] it had at the pinned
    /// epoch — the label-based entry point for readers that never held a
    /// typed handle.
    pub fn find(&self, label: &str) -> Option<ViewId> {
        self.data
            .cells
            .iter()
            .find(|c| &*c.label == label)
            .map(|c| ViewId {
                index: c.index,
                generation: c.generation,
            })
    }

    /// The cell behind `id` as [`resolve`] wants it.
    fn found(&self, id: ViewId) -> Option<Found<'_>> {
        let cell = self
            .data
            .cells
            .iter()
            .find(|c| c.index == id.index && c.generation == id.generation)?;
        let slot = match &cell.state {
            CellState::Active(view) => Ok(view.as_ref()),
            CellState::Quarantined { epoch, cause } => Err((*epoch, cause.as_str())),
        };
        Some((&cell.label, slot))
    }

    /// Read a view's frozen answers through its typed handle, exactly like
    /// [`Engine::view`](crate::Engine::view) but against the pinned epoch —
    /// a leader's or a follower's.
    ///
    /// The same error contract as the live reader applies, through the
    /// same code: a handle whose view was not registered at the pinned
    /// epoch (or was deregistered before it) is
    /// [`EngineError::StaleHandle`]; a view that was quarantined when the
    /// version published is [`EngineError::ViewQuarantined`]; a type
    /// mismatch is [`EngineError::WrongViewType`].
    pub fn view<V: IncView>(&self, handle: &ViewHandle<V>) -> Result<&V, EngineError> {
        downcast(resolve(self.found(handle.id), handle.id)?)
    }

    /// Read a view's frozen answers untyped, by [`ViewId`].
    pub fn view_dyn(&self, id: ViewId) -> Result<&dyn IncView, EngineError> {
        Ok(resolve(self.found(id), id)?.1)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.data.epoch)
            .field("views", &self.data.cells.len())
            .field("edges", &self.data.graph.edge_count())
            .finish()
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SnapshotStore")
            .field("head", &inner.head)
            .field("window", &inner.live().count())
            .field("publishing", &inner.newest.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_core::WorkStats;
    use igc_graph::graph::graph_from;
    use igc_graph::UpdateBatch;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicBool;
    use std::thread::{self, ThreadId};

    #[derive(Clone, Debug)]
    struct Tally {
        n: u64,
    }

    impl IncView for Tally {
        fn name(&self) -> &str {
            "tally"
        }
        fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
            self.n += 1;
        }
        fn work(&self) -> WorkStats {
            WorkStats::new()
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    fn cells(n: u64) -> Vec<SnapCell> {
        vec![SnapCell {
            index: 0,
            generation: 0,
            label: Arc::from("tally"),
            state: CellState::Active(Arc::new(Tally { n })),
        }]
    }

    fn graph() -> Arc<DynamicGraph> {
        Arc::new(graph_from(&[0, 0], &[(0, 1)]))
    }

    fn handle() -> ViewHandle<Tally> {
        ViewHandle::new(ViewId {
            index: 0,
            generation: 0,
        })
    }

    #[test]
    fn pinned_version_survives_gc_and_serves_frozen_answers() {
        let store = SnapshotStore::new();
        store.publish(1, graph(), cells(1), Instant::now());
        let pinned = store.snapshot().unwrap();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.view(&handle()).unwrap().n, 1);

        // Two commits flow past; the pin keeps serving epoch 1 while the
        // unpinned epoch 2 is retired.
        store.begin_commit();
        store.publish(2, graph(), cells(2), Instant::now());
        store.begin_commit();
        store.publish(3, graph(), cells(3), Instant::now());

        assert_eq!(pinned.view(&handle()).unwrap().n, 1, "frozen at epoch 1");
        assert_eq!(store.head(), 3);
        assert_eq!(store.window(), 2, "pinned epoch 1 + head, epoch 2 retired");
        assert!(matches!(
            store.snapshot_at(2),
            Err(EngineError::EpochRetired {
                epoch: 2,
                oldest: 1
            })
        ));

        // Dropping the pin retires epoch 1 at once.
        drop(pinned);
        assert_eq!(store.window(), 1);
        store.begin_commit();
        store.publish(4, graph(), cells(4), Instant::now());
        assert_eq!(store.window(), 1);
        assert_eq!(store.oldest(), 4);
    }

    /// A view that notes, when it is freed, on which thread and whether the
    /// store's mutex was free to take.
    struct FreedUnlocked {
        store: Arc<SnapshotStore>,
        seen: Freed,
    }

    /// Where a [`FreedUnlocked`] was freed, and whether the mutex was free.
    type Freed = Arc<Mutex<Option<(ThreadId, bool)>>>;

    impl Drop for FreedUnlocked {
        fn drop(&mut self) {
            let unlocked = self.store.inner.try_lock().is_ok();
            *self.seen.lock().unwrap() = Some((thread::current().id(), unlocked));
        }
    }

    impl IncView for FreedUnlocked {
        fn name(&self) -> &str {
            "freed-unlocked"
        }
        fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {}
        fn work(&self) -> WorkStats {
            WorkStats::new()
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            unreachable!("published by hand below")
        }
    }

    /// A store whose epoch-1 version holds a [`FreedUnlocked`] probe.
    fn probed() -> (Arc<SnapshotStore>, Freed) {
        let store = Arc::new(SnapshotStore::new());
        let seen = Arc::new(Mutex::new(None));
        let cell = SnapCell {
            index: 0,
            generation: 0,
            label: Arc::from("probe"),
            state: CellState::Active(Arc::new(FreedUnlocked {
                store: Arc::clone(&store),
                seen: Arc::clone(&seen),
            })),
        };
        store.publish(1, graph(), vec![cell], Instant::now());
        (store, seen)
    }

    #[test]
    fn retired_versions_are_freed_outside_the_store_mutex() {
        let (store, seen) = probed();
        assert_eq!(*seen.lock().unwrap(), None, "retained while it is the head");
        store.begin_commit();
        assert_eq!(*seen.lock().unwrap(), Some((thread::current().id(), true)));
    }

    #[test]
    fn the_last_pin_frees_a_retired_version_on_its_own_thread() {
        let (store, seen) = probed();
        let pin = store.snapshot().unwrap();
        store.begin_commit();
        store.publish(2, graph(), cells(2), Instant::now());
        assert_eq!(*seen.lock().unwrap(), None, "the commit frees nothing");
        let reader = thread::spawn(move || {
            drop(pin);
            thread::current().id()
        });
        let reader = reader.join().unwrap();
        assert_eq!(*seen.lock().unwrap(), Some((reader, true)));
    }

    #[test]
    fn an_epoch_retires_the_moment_its_last_pin_drops() {
        let store = SnapshotStore::new();
        store.publish(1, graph(), cells(1), Instant::now());
        let (pin, twin) = (store.snapshot().unwrap(), store.snapshot_at(1).unwrap());
        store.begin_commit();
        store.publish(2, graph(), cells(2), Instant::now());
        drop(pin);
        assert_eq!(store.window(), 2, "the twin still pins epoch 1");
        assert_eq!(store.snapshot_at(1).unwrap().view(&handle()).unwrap().n, 1);
        drop(twin);
        assert_eq!((store.window(), store.oldest()), (1, 2));
        assert!(matches!(
            store.snapshot_at(1),
            Err(EngineError::EpochRetired {
                epoch: 1,
                oldest: 2
            })
        ));
    }

    /// Two readers pin epochs near the head, each its own parity, and drop
    /// them while 200 commits land, each waiting for a pin after it: a pin
    /// reads its own epoch, a failure is a retirement, and an epoch below
    /// the head whose pin a reader just dropped is retired at once.
    #[test]
    fn readers_pinning_and_dropping_held_epochs_race_commits_safely() {
        let store = SnapshotStore::new();
        store.publish(0, graph(), cells(0), Instant::now());
        let (stop, pins) = (AtomicBool::new(false), AtomicU64::new(0));
        thread::scope(|scope| {
            let readers: Vec<_> = (0..2u64)
                .map(|parity| {
                    let (store, stop, pins) = (&store, &stop, &pins);
                    scope.spawn(move || {
                        let (mut held, mut pinned) = (VecDeque::new(), 0);
                        for i in 0u64.. {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let epoch = store.head().saturating_sub(i % 4);
                            if epoch % 2 != parity {
                                continue;
                            }
                            match store.snapshot_at(epoch) {
                                Ok(pin) => {
                                    assert_eq!(pin.epoch(), epoch);
                                    assert_eq!(pin.view(&handle()).unwrap().n, epoch);
                                    held.push_back(pin);
                                    pinned += 1;
                                    pins.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(EngineError::EpochRetired { .. }) => {}
                                Err(other) => panic!("pinning epoch {epoch}: {other}"),
                            }
                            if held.len() > 2 {
                                let gone = held.pop_front().map_or(0, |pin| pin.epoch());
                                if gone < store.head() && held.iter().all(|p| p.epoch() != gone) {
                                    let retired = store.snapshot_at(gone);
                                    assert!(
                                        matches!(retired, Err(EngineError::EpochRetired { .. })),
                                        "epoch {gone} outlived its last pin"
                                    );
                                }
                            }
                        }
                        pinned
                    })
                })
                .collect();
            for epoch in 1..=200 {
                store.begin_commit();
                store.publish(epoch, graph(), cells(epoch), Instant::now());
                // The reader of this epoch's parity pins the head at least.
                let seen = pins.load(Ordering::Relaxed);
                while pins.load(Ordering::Relaxed) == seen
                    && !readers.iter().any(|r| r.is_finished())
                {
                    thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                assert!(reader.join().unwrap() > 0);
            }
        });
        assert_eq!(store.window(), 1, "every reader's pins dropped");
    }

    #[test]
    fn snapshot_at_distinguishes_retired_from_future() {
        let store = SnapshotStore::new();
        store.publish(5, graph(), cells(5), Instant::now());
        assert_eq!(store.snapshot_at(5).unwrap().epoch(), 5);
        assert!(matches!(
            store.snapshot_at(9),
            Err(EngineError::SnapshotUnavailable { epoch: 9, head: 5 })
        ));
        store.begin_commit();
        store.publish(6, graph(), cells(6), Instant::now());
        assert!(matches!(
            store.snapshot_at(5),
            Err(EngineError::EpochRetired {
                epoch: 5,
                oldest: 6
            })
        ));
    }

    #[test]
    fn newest_snapshot_waits_out_an_in_flight_publish() {
        let store = Arc::new(SnapshotStore::new());
        store.publish(1, graph(), cells(1), Instant::now());
        store.begin_commit();
        // Mid-publish: a reader on another thread must block until the
        // commit publishes, then pin the *new* head — not the torn state.
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.snapshot().map(|s| s.epoch()))
        };
        std::thread::sleep(Duration::from_millis(20));
        store.publish(2, graph(), cells(2), Instant::now());
        assert_eq!(reader.join().unwrap().unwrap(), 2);
    }

    #[test]
    fn retained_pin_serves_instantly_even_mid_publish() {
        let store = SnapshotStore::new();
        store.publish(1, graph(), cells(1), Instant::now());
        let pin = store.snapshot().unwrap();
        store.begin_commit();
        // Epoch 1 is pinned, so it outlived the commit and is served without
        // waiting on the open publish window.
        assert_eq!(store.snapshot_at(1).unwrap().epoch(), 1);
        drop(pin);
        store.publish(2, graph(), cells(2), Instant::now());
    }

    /// A second view type — reading a `Tally` slot as one is the
    /// wrong-type row below — whose `apply` panics, for the quarantined row.
    #[derive(Clone, Debug)]
    struct Other;

    impl IncView for Other {
        fn name(&self) -> &str {
            "other"
        }
        fn apply(&mut self, _g: &DynamicGraph, _d: &UpdateBatch) {
            panic!("deliberate");
        }
        fn work(&self) -> WorkStats {
            WorkStats::new()
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    /// The read contract, once, on every reader: the live engine, a pinned
    /// engine snapshot, a replica and a replica snapshot answer the same
    /// table of handles with *equal* results.
    #[test]
    fn snapshot_reads_enforce_the_live_engine_error_contract() {
        use crate::{Engine, Replica};
        use igc_graph::{NodeId, Update};
        use igc_log::{LogBackend, MemBackend};

        let backend: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        let mut engine = Engine::new(graph_from(&[0, 0], &[]))
            .with_log(backend.clone())
            .unwrap();
        let mut replica = Replica::attach(backend).unwrap();
        // The same registrations in the same order: the same ids on both.
        let tally = engine
            .register("tally", |_: &DynamicGraph| Tally { n: 0 })
            .unwrap();
        let hurt = engine.register("hurt", |_: &DynamicGraph| Other).unwrap();
        let on_replica = replica.register("tally", |_: &DynamicGraph| Tally { n: 0 });
        assert_eq!(on_replica.unwrap(), tally);
        assert_eq!(
            replica.register("hurt", |_: &DynamicGraph| Other).unwrap(),
            hurt
        );
        crate::engine::tests::quiet_panics(|| {
            let edge = Update::insert(NodeId(0), NodeId(1));
            engine
                .commit(&UpdateBatch::from_updates(vec![edge]))
                .unwrap();
            replica.catch_up().unwrap();
        });
        let pinned = engine.snapshot().unwrap();
        let frozen = replica.snapshot().unwrap();

        let stale_generation: ViewHandle<Tally> = ViewHandle::new(ViewId {
            index: 0,
            generation: 9,
        });
        let stale_index: ViewHandle<Tally> = ViewHandle::new(ViewId {
            index: 7,
            generation: 0,
        });
        let wrong_type: ViewHandle<Other> = ViewHandle::new(tally.id());
        macro_rules! table {
            ($reader:expr) => {
                [
                    $reader.view(&tally).map(|t| t.n),
                    $reader.view(&stale_generation).map(|t| t.n),
                    $reader.view(&stale_index).map(|t| t.n),
                    $reader.view(&hurt).map(|_| 0),
                    $reader.view(&wrong_type).map(|_| 0),
                ]
            };
        }
        let quarantined = EngineError::ViewQuarantined {
            label: Arc::from("hurt"),
            epoch: 1,
            cause: "deliberate".into(),
        };
        let expected = [
            Ok(1),
            Err(EngineError::StaleHandle {
                index: 0,
                generation: 9,
            }),
            Err(EngineError::StaleHandle {
                index: 7,
                generation: 0,
            }),
            Err(quarantined.clone()),
            Err(EngineError::WrongViewType {
                label: Arc::from("tally"),
                expected: std::any::type_name::<Other>(),
            }),
        ];
        assert_eq!(table!(engine), expected);
        assert_eq!(table!(pinned), expected);
        assert_eq!(table!(replica), expected);
        // The handles `Replica::register` returned read its snapshot too.
        assert_eq!(table!(frozen), expected);

        // Label lookup and untyped reads, on both kinds of snapshot.
        for snap in [&pinned, &frozen] {
            assert_eq!(snap.find("tally"), Some(tally.id()));
            assert_eq!(snap.view_dyn(tally.id()).unwrap().name(), "tally");
            assert!(snap.find("absent").is_none());
            assert_eq!(snap.view_dyn(hurt.id()).err(), Some(quarantined.clone()));
        }
    }

    #[test]
    fn retained_stats_deduplicate_shared_storage() {
        let store = SnapshotStore::new();
        let g = graph();
        let shared: Arc<dyn IncView> = Arc::new(Tally { n: 1 });
        let cell = |state| {
            vec![SnapCell {
                index: 0,
                generation: 0,
                label: Arc::from("tally"),
                state,
            }]
        };
        store.publish(
            1,
            Arc::clone(&g),
            cell(CellState::Active(Arc::clone(&shared))),
            Instant::now(),
        );
        let _pin = store.snapshot().unwrap();
        store.begin_commit();
        // Same graph + same view Arc republished: retention counts them once.
        store.publish(2, g, cell(CellState::Active(shared)), Instant::now());
        let stats = store.retained_stats();
        assert_eq!(stats.versions, 2);
        assert_eq!(stats.distinct_graphs, 1);
        assert_eq!(stats.distinct_view_cells, 1);
    }
}
