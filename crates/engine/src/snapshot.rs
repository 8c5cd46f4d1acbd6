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
//! # Who owns what, garbage collection, and the version window
//!
//! The engine owns every view uniquely and always mutates it in place; a
//! version shares only the graph and each view's *answer* state with it.
//! At the start of the next commit the engine first GCs every version no
//! live [`Snapshot`] pins (a version is pinned iff readers still hold its
//! `Arc`), which in the common no-pins case hands unique ownership of the
//! graph and every answer back — the commit then copies nothing and MVCC
//! costs a few `Arc` bumps per view. While a pin *is* live, the first
//! write to a shared piece copies that piece once, and the pieces are
//! small: `Arc::make_mut` on the graph bumps one handle per adjacency list
//! and copies no edge, after which each list the commit writes is copied
//! alone ([`DynamicGraph`] documents the costs); inside each view
//! the same call copies the container of its answer state. A pin costs
//! what the commit touched plus those handles, never the auxiliary state,
//! and the pinned reader keeps serving its frozen state, unaffected.
//! Dropping the last `Snapshot` of a version makes it collectable at the
//! next commit, so the retained window is bounded by *distinct pinned
//! epochs + 1* (the newest version is always kept) — never unbounded
//! growth. Collected versions are freed after the store's lock is
//! released, so a reader taking a pin does not wait for the free.
//!
//! # Retirement
//!
//! [`SnapshotStore::snapshot_at`] can only serve epochs still retained:
//! asking for an epoch the GC already dropped returns
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Published versions by epoch. Values are `Arc`s: the map holds one
    /// reference, every live [`Snapshot`] of the version holds another —
    /// so `strong_count > 1` *is* the pin test, exact under the mutex.
    versions: BTreeMap<u64, Arc<VersionData>>,
    /// The newest published epoch.
    head: u64,
    /// True between [`SnapshotStore::begin_commit`] and the matching
    /// publish: the previous head may already be GC'd and the new one not
    /// yet in, so newest-snapshot requests briefly wait on [`Condvar`].
    publishing: bool,
}

/// The engine's epoch-versioned answer store — see [`Snapshot`] and the
/// crate-level docs for the pin / ownership / GC contract.
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
                head: 0,
                publishing: false,
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

    /// Open the publish window for a commit: GC every unpinned version
    /// (including, crucially, the unpinned newest — that is what hands
    /// unique ownership of the graph and every view's answer state back to
    /// the engine so the commit copies nothing), then mark the store mid-publish so
    /// newest-snapshot requests wait for the commit's own publish instead
    /// of pinning a version about to be superseded.
    pub(crate) fn begin_commit(&self) {
        let start = Instant::now();
        let mut inner = self.lock();
        inner.publishing = true;
        let mut dead = Vec::new();
        inner.versions.retain(|_, v| {
            let pinned = Arc::strong_count(v) > 1;
            if !pinned {
                dead.push(Arc::clone(v));
            }
            pinned
        });
        drop(inner);
        // Freed outside the lock: a reader pinning a retained epoch does not
        // wait for the slabs and answers of the retired ones to be released.
        drop(dead);
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
        let mut inner = self.lock();
        inner.versions.insert(
            epoch,
            Arc::new(VersionData {
                epoch,
                graph,
                cells,
            }),
        );
        inner.head = inner.head.max(epoch);
        inner.publishing = false;
        drop(inner);
        self.published.notify_all();
        self.publish_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Pin the newest published version. Waits out an in-flight publish
    /// (bounded by an internal few-second cap; only a committer that died
    /// mid-window can exhaust it, surfacing as
    /// [`EngineError::SnapshotUnavailable`] rather than a hang).
    pub fn snapshot(&self) -> Result<Snapshot, EngineError> {
        let inner = self.lock();
        let (inner, _timeout) = self
            .published
            .wait_timeout_while(inner, PUBLISH_WAIT, |i| i.publishing)
            .unwrap_or_else(PoisonError::into_inner);
        let head = inner.head;
        match inner.versions.get(&head) {
            Some(v) if !inner.publishing => Ok(Snapshot {
                data: Arc::clone(v),
            }),
            _ => Err(EngineError::SnapshotUnavailable { epoch: head, head }),
        }
    }

    /// Pin the version published at exactly `epoch`.
    ///
    /// A *retained* epoch pins instantly — even while a later commit is
    /// mid-publish (pinned history never moves). A missing epoch at or
    /// below the head was GC'd: [`EngineError::EpochRetired`]. An epoch
    /// beyond the head has not been published:
    /// [`EngineError::SnapshotUnavailable`] (after waiting out an
    /// in-flight publish that might be exactly this epoch).
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot, EngineError> {
        let inner = self.lock();
        if let Some(v) = inner.versions.get(&epoch) {
            return Ok(Snapshot {
                data: Arc::clone(v),
            });
        }
        // Not retained. If a publish is in flight it may be publishing
        // this very epoch — wait it out before judging.
        let (inner, _timeout) = self
            .published
            .wait_timeout_while(inner, PUBLISH_WAIT, |i| i.publishing)
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = inner.versions.get(&epoch) {
            return Ok(Snapshot {
                data: Arc::clone(v),
            });
        }
        if epoch > inner.head {
            Err(EngineError::SnapshotUnavailable {
                epoch,
                head: inner.head,
            })
        } else {
            let oldest = inner.versions.keys().next().copied().unwrap_or(inner.head);
            Err(EngineError::EpochRetired { epoch, oldest })
        }
    }

    /// The newest published epoch.
    pub fn head(&self) -> u64 {
        self.lock().head
    }

    /// How many versions the store currently retains (the version
    /// window). Bounded by distinct pinned epochs + 1; collapses back to
    /// 1 at the first commit after all pins drop.
    pub fn window(&self) -> usize {
        self.lock().versions.len()
    }

    /// The oldest retained epoch (equals [`head`](Self::head) when the
    /// window is 1).
    pub fn oldest(&self) -> u64 {
        let inner = self.lock();
        inner.versions.keys().next().copied().unwrap_or(inner.head)
    }

    /// Cumulative wall-clock the committer has spent on MVCC bookkeeping
    /// across every commit so far: version GC, building each version's
    /// cells (one [`IncView::clone_view`] per active view) and publication.
    /// It *excludes* what a live pin makes a commit copy — the graph's
    /// list handles and written lists, and inside each view its answer
    /// state — which is attributed where it
    /// happens: `graph_elapsed` and the view's own fan-out slot in the
    /// [`CommitReceipt`] (no pins → no copies).
    ///
    /// [`CommitReceipt`]: crate::CommitReceipt
    pub fn publish_elapsed(&self) -> Duration {
        Duration::from_nanos(self.publish_nanos.load(Ordering::Relaxed))
    }

    /// Approximate heap retention of the version window, counted in graph
    /// copies and view cells actually *owned* by old versions (entries
    /// whose `Arc` is shared with a newer version or the live engine are
    /// not double-counted). Feeds the bench harness's window-memory
    /// series.
    pub fn retained_stats(&self) -> SnapshotStoreStats {
        let inner = self.lock();
        let mut distinct_graphs: Vec<*const DynamicGraph> = Vec::new();
        let mut distinct_cells: Vec<*const ()> = Vec::new();
        for v in inner.versions.values() {
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
            versions: inner.versions.len(),
            distinct_graphs: distinct_graphs.len(),
            distinct_view_cells: distinct_cells.len(),
        }
    }
}

/// What [`SnapshotStore::retained_stats`] reports: the shape of the
/// retained version window, deduplicated by actual storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStoreStats {
    /// Retained version count (the window).
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
/// making the version collectable at the next commit.
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
            .field("window", &inner.versions.len())
            .field("publishing", &inner.publishing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_core::WorkStats;
    use igc_graph::graph::graph_from;
    use igc_graph::UpdateBatch;

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
        // unpinned epoch 2 is collected.
        store.begin_commit();
        store.publish(2, graph(), cells(2), Instant::now());
        store.begin_commit();
        store.publish(3, graph(), cells(3), Instant::now());

        assert_eq!(pinned.view(&handle()).unwrap().n, 1, "frozen at epoch 1");
        assert_eq!(store.head(), 3);
        assert_eq!(store.window(), 2, "pinned epoch 1 + head, epoch 2 GC'd");
        assert!(matches!(
            store.snapshot_at(2),
            Err(EngineError::EpochRetired {
                epoch: 2,
                oldest: 1
            })
        ));

        // Dropping the pin makes epoch 1 collectable at the next commit.
        drop(pinned);
        store.begin_commit();
        store.publish(4, graph(), cells(4), Instant::now());
        assert_eq!(store.window(), 1);
        assert_eq!(store.oldest(), 4);
    }

    /// A view that notes, when it is freed, whether the store's mutex was
    /// free to take.
    struct FreedUnlocked {
        store: Arc<SnapshotStore>,
        seen: Arc<Mutex<Option<bool>>>,
    }

    impl Drop for FreedUnlocked {
        fn drop(&mut self) {
            let unlocked = self.store.inner.try_lock().is_ok();
            *self.seen.lock().unwrap() = Some(unlocked);
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

    #[test]
    fn retired_versions_are_freed_outside_the_store_mutex() {
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
        assert_eq!(*seen.lock().unwrap(), None, "retained while it is the head");
        store.begin_commit();
        assert_eq!(*seen.lock().unwrap(), Some(true));
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
        // Epoch 1 is pinned, so it survived the GC and is served without
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
