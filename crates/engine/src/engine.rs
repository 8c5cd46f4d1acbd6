//! The engine proper: view lifecycle over the shared [`Registry`]
//! (registration, deregistration, quarantine), the fallible ΔG commit
//! pipeline and the one stage every delta lands through — a leader's
//! commits and a follower's replayed deltas alike — MVCC publication and
//! accounting. The durability layer (journaling, checkpoints, recovery,
//! degraded mode) is `durability.rs`; background registration is
//! `background.rs`.

use crate::durability::DegradedState;
use crate::error::EngineError;
use crate::lifecycle::{LifecycleEvent, LifecycleEventKind, ViewHandle, ViewId, ViewState};
use crate::receipt::{CommitReceipt, EngineTotals, ViewCommitStats, ViewTotals};
use crate::registry::{downcast, ApplyRecord, Registry};
use crate::snapshot::{Snapshot, SnapshotStore};
use igc_core::{IncView, WorkStats};
use igc_graph::{DynamicGraph, UpdateBatch};
use igc_log::CommitLog;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Bound, in node ids past the current node count, on how large an id a
/// commit may reference. Ids are dense, so inserting an edge at id `k`
/// materializes every node up to `k`; the bound turns a fat-fingered
/// `NodeId(u32::MAX)` into [`EngineError::NodeOutOfBounds`] instead of a
/// multi-gigabyte allocation.
pub const MAX_FRESH_NODES: u32 = 1 << 20;

/// Default checkpoint cadence of a logged engine: a full graph snapshot
/// is journaled after every this-many logged commits, bounding the delta
/// tail a recovery (or a background build) must replay. See
/// [`Engine::set_checkpoint_every`].
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

/// How [`Engine::commit`] fans a normalized delta out to the registered
/// views (step 3 of the pipeline). Views are independent given the
/// post-commit graph, so the fan-out parallelizes without any coordination
/// beyond a shared read-only graph borrow.
///
/// Everything *observable* is mode-independent: view answers, receipts
/// (ordering, work attribution, outcomes — wall-clock durations aside) and
/// the quarantine/lifecycle journal are bit-identical between modes,
/// because helpers only run `apply` and the engine merges their results in
/// slot order after joining every helper. Both modes run one fan-out
/// function; parallel mode only gives it scoped helper threads, spawned
/// and joined inside each commit. One view carries most of a typical
/// commit, so the helpers rarely pay for their spawn — see the README's
/// engine section for the measured ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Fan out on the committing thread, in slot order — the default, and
    /// byte-for-byte the pre-[`CommitMode`] behavior.
    #[default]
    Sequential,
    /// Fan out on `threads` threads: the committing thread plus
    /// `threads − 1` scoped helpers, all pulling views from one shared
    /// queue, so load balances itself — a thread that drew a cheap view
    /// just pulls the next one. `threads == 0` means
    /// [`std::thread::available_parallelism`], read once by
    /// [`Engine::set_commit_mode`]; `1` is sequential fan-out.
    Parallel {
        /// Fan-out thread count (`0` = available parallelism).
        threads: usize,
    },
}

/// Step 1 of a commit, detached from steps 2–4: the batch has been
/// admission-checked, normalized against the graph it will apply to, and
/// (on a logged engine) journaled write-ahead — but the graph and the
/// views have not been touched. Produced by [`Engine::prepare`], consumed
/// by [`Engine::apply_prepared`]; [`Engine::commit`] is exactly the two
/// back to back.
///
/// The split lets a caller time or inspect the two halves of a commit on
/// their own. A `PreparedCommit` is pinned to the epoch it was normalized
/// at — applying it after any other commit landed is an
/// [`EngineError::EpochGap`].
///
/// On a logged engine the journal may run one record ahead of the graph
/// while a `PreparedCommit` is outstanding; that is ordinary redo
/// semantics — if the process dies there, [`Engine::recover`] replays the
/// record and the commit is complete. Dropping a prepared commit without
/// applying it leaves that redo record behind: the *live* engine will
/// reject the next prepare with an epoch-chain error, and recovery is the
/// (lossless) way back.
#[derive(Debug)]
pub struct PreparedCommit {
    delta: UpdateBatch,
    submitted: usize,
    prepare_elapsed: Duration,
    base_epoch: u64,
    /// Journal retries absorbed while preparing this commit (append +
    /// any policy-driven barrier), surfaced in the receipt.
    log_retries: u64,
}

impl PreparedCommit {
    /// Whether normalization dropped every unit — applying this commit
    /// will bump nothing and touch no view ([`CommitReceipt::is_noop`]).
    pub fn is_noop(&self) -> bool {
        self.delta.is_empty()
    }
}

/// The multi-view incremental engine: owns the shared [`DynamicGraph`] and
/// a registry of type-erased [`IncView`]s, and funnels every update through
/// one normalize → apply → fan-out commit pipeline. See the
/// [crate docs](crate) for the pipeline and an example.
///
/// Every public entry point taking user input is fallible
/// ([`EngineError`]); nothing a caller passes in can panic the engine, and
/// a view whose `apply` panics is quarantined instead of poisoning its
/// neighbours.
pub struct Engine {
    /// The shared graph, behind an `Arc` so each published MVCC version
    /// holds it without a copy; [`Engine::apply_prepared`] mutates it via
    /// [`Arc::make_mut`], which copies only while a pinned version still
    /// holds the handle.
    pub(crate) graph: Arc<DynamicGraph>,
    pub(crate) views: Registry,
    /// Final cumulative totals of deregistered views, in retirement order.
    retired: Vec<ViewTotals>,
    events: Vec<LifecycleEvent>,
    totals: EngineTotals,
    /// Fan-out thread count, resolved from the [`CommitMode`] by
    /// [`Engine::set_commit_mode`] (1 = sequential).
    threads: usize,
    /// The attached commit log, if any ([`Engine::with_log`] /
    /// [`Engine::recover`]); commits journal through it write-ahead.
    pub(crate) log: Option<CommitLog>,
    /// Checkpoint cadence in logged commits (0 = only explicit
    /// [`Engine::checkpoint`] calls).
    pub(crate) checkpoint_every: u64,
    /// Logged commits since the last checkpoint record.
    pub(crate) logged_since_checkpoint: u64,
    /// Labels reserved by in-flight background builds: the `Weak` is dead
    /// once the corresponding [`BackgroundBuild`](crate::BackgroundBuild)
    /// handle is gone, so abandoned builds free their label automatically.
    pub(crate) reserved: Vec<(Arc<str>, Weak<()>)>,
    /// The MVCC snapshot store: epoch-tagged published versions of the
    /// graph + view answers, pinned by [`Snapshot`] handles and served
    /// lock-free to reader threads. Behind an `Arc` so the ingest front
    /// door can hand out snapshot access while the engine sits behind its
    /// lock.
    snapshots: Arc<SnapshotStore>,
    /// `Some` while the engine is in degraded read-only mode (journal
    /// retries exhausted, or unsettled sync debt); cleared by
    /// [`Engine::heal`].
    pub(crate) degraded: Option<DegradedState>,
    /// Completed degraded windows (entered *and* healed).
    pub(crate) degraded_windows: u64,
    /// Total wall-clock time spent degraded across completed windows.
    pub(crate) degraded_elapsed: Duration,
}

impl Engine {
    /// An engine serving queries over `graph`.
    pub fn new(graph: DynamicGraph) -> Self {
        let mut engine = Engine {
            graph: Arc::new(graph),
            views: Registry::default(),
            retired: Vec::new(),
            events: Vec::new(),
            totals: EngineTotals::default(),
            threads: 1,
            log: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            logged_since_checkpoint: 0,
            reserved: Vec::new(),
            snapshots: Arc::new(SnapshotStore::new()),
            degraded: None,
            degraded_windows: 0,
            degraded_elapsed: Duration::ZERO,
        };
        // Publish the initial version so epoch-0 (or, after recovery, the
        // recovered-epoch) snapshots exist before the first commit.
        engine.publish_version();
        engine
    }

    /// The shared graph, as of [`Engine::epoch`]: the graph
    /// [`Engine::register`] builds a joining view from.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The graph's current epoch (update transactions applied, including
    /// any from before the engine took ownership).
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Switch the commit fan-out mode (default [`CommitMode::Sequential`]).
    /// Takes effect from the next commit;
    /// safe to toggle between commits at any time (answers, receipts and
    /// journals do not depend on the mode). `Parallel { threads: 0 }` reads
    /// [`std::thread::available_parallelism`] here, once, not per commit.
    pub fn set_commit_mode(&mut self, mode: CommitMode) {
        self.threads = match mode {
            CommitMode::Sequential => 1,
            CommitMode::Parallel { threads: 0 } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            CommitMode::Parallel { threads } => threads,
        };
    }

    // ------------------------------------------------------------------
    // Registration and lifecycle
    // ------------------------------------------------------------------

    /// Register a view under a registry label: build its initial state
    /// from the engine's **current** graph via a deferred constructor (any
    /// `FnOnce(&DynamicGraph) -> V` closure, or a ready-made one like
    /// `IncRpq::init`), so views can join at any epoch. The freshly built
    /// view is consistent as of this call and is maintained incrementally
    /// from the next commit on. A view built elsewhere registers as
    /// `|_| view`, and must then already be consistent with
    /// [`Engine::graph`]. One label per live view; one query class can
    /// serve several tenants (`"rpq:alice"`, `"rpq:bob"`).
    ///
    /// The duplicate-label check runs *before* the build, so a rejected
    /// registration ([`EngineError::DuplicateLabel`]) never pays for one; a
    /// panicking builder yields [`EngineError::InitPanicked`] and
    /// registers nothing.
    ///
    /// # Determinism and the epoch contract
    ///
    /// A builder must be a **deterministic function of the graph state** it
    /// is handed (plus its own captured query): two calls on graphs with the
    /// same nodes, labels and edge set must produce views with identical
    /// answers. The durability layer leans on this twice —
    ///
    /// * *recovery* ([`Engine::recover`]): a crashed engine's graph is
    ///   replayed from the commit log and views are re-initialized from it;
    ///   determinism is what makes the recovered answers bit-identical to
    ///   the lost ones;
    /// * *background builds* ([`Engine::register_background`]): the builder
    ///   runs against a **checkpointed** graph at some epoch `e ≤ now` on a
    ///   worker thread, and the view is then caught up by replaying the
    ///   logged deltas `e+1, e+2, …` — the incremental-maintenance invariant
    ///   (`init at e` + suffix ≡ `init at e'` + shorter suffix) only holds
    ///   for deterministic builders.
    ///
    /// Builders that consult ambient state (clocks, randomness, I/O) break
    /// both equivalences silently; don't.
    pub fn register<V: IncView, F: FnOnce(&DynamicGraph) -> V>(
        &mut self,
        label: impl Into<Arc<str>>,
        init: F,
    ) -> Result<ViewHandle<V>, EngineError> {
        let label: Arc<str> = label.into();
        if self.label_occupied(&label) {
            return Err(EngineError::DuplicateLabel { label });
        }
        let view = Registry::build(&label, init, &self.graph)?;
        self.insert(label, view, LifecycleEventKind::Registered)
    }

    /// The same as [`Engine::register`]; kept only because the benchmark
    /// calls it.
    pub fn register_lazy<V: IncView, F: FnOnce(&DynamicGraph) -> V>(
        &mut self,
        label: impl Into<Arc<str>>,
        init: F,
    ) -> Result<ViewHandle<V>, EngineError> {
        self.register(label, init)
    }

    /// Deregister a view: tombstone its slot (bumping the generation, so
    /// every outstanding handle to it goes stale), free the label and the
    /// slot for reuse, and move the view's cumulative totals to
    /// [`Engine::retired`]. Returns those final totals. Works on
    /// quarantined views too — deregistration is the quarantine exit.
    pub fn deregister(&mut self, id: impl Into<ViewId>) -> Result<ViewTotals, EngineError> {
        let totals = self.views.remove(id.into())?.totals;
        self.retired.push(totals.clone());
        self.events.push(LifecycleEvent {
            epoch: self.graph.epoch(),
            kind: LifecycleEventKind::Deregistered,
            label: totals.label.clone(),
        });
        // Republish the current epoch without the tombstoned slot, so
        // snapshots taken from now on reflect the deregistration (pinned
        // older versions keep serving the departed view, as MVCC demands).
        self.publish_version();
        Ok(totals)
    }

    pub(crate) fn label_occupied(&self, label: &str) -> bool {
        self.views.find(label).is_some()
            // Labels reserved by live background builds count as occupied;
            // a dead token means the build handle was dropped (abandoned)
            // or already joined, freeing the label.
            || self
                .reserved
                .iter()
                .any(|(l, token)| token.strong_count() > 0 && &**l == label)
    }

    /// Splice a built view into the registry as a `V`, journal the
    /// lifecycle event and republish.
    pub(crate) fn insert<V>(
        &mut self,
        label: Arc<str>,
        view: Box<dyn IncView>,
        kind: LifecycleEventKind,
    ) -> Result<ViewHandle<V>, EngineError> {
        if self.label_occupied(&label) {
            return Err(EngineError::DuplicateLabel { label });
        }
        let id = self.views.insert(label.clone(), view);
        self.events.push(LifecycleEvent {
            epoch: self.graph.epoch(),
            kind,
            label,
        });
        // Republish the current epoch with the new view included, so a
        // snapshot taken right after registration already serves it.
        self.publish_version();
        Ok(ViewHandle::new(id))
    }

    // ------------------------------------------------------------------
    // Lookup and typed access
    // ------------------------------------------------------------------

    /// Number of currently registered (live) views, quarantined included.
    pub fn view_count(&self) -> usize {
        self.views.entries().count()
    }

    /// Registry labels of live views, in slot order. Borrows from the
    /// registry — no per-call allocation (collect if you need a `Vec`).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.views.entries().map(|r| &*r.totals.label)
    }

    /// Look up a live view's id by registry label.
    pub fn find(&self, label: &str) -> Option<ViewId> {
        self.views.find(label)
    }

    /// Upgrade an untyped [`ViewId`] (e.g. from [`Engine::find`]) to a
    /// typed [`ViewHandle`], checking that the slot really holds a `V`.
    /// Works on quarantined views (so a recovery path can hold a typed
    /// handle to deregister).
    pub fn typed<V: IncView>(&self, id: ViewId) -> Result<ViewHandle<V>, EngineError> {
        let r = self.views.occupied(id)?;
        downcast::<V>((&r.totals.label, r.view.as_ref())).map(|_| ViewHandle::new(id))
    }

    /// The view behind a typed handle — the snapshot-read path
    /// (`engine.view(&rpq_handle)?.sorted_answer()`). Errors if the handle
    /// is stale ([`EngineError::StaleHandle`]), the view is quarantined
    /// ([`EngineError::ViewQuarantined`] — a panicked view's state is not
    /// served) or it is not a `V` ([`EngineError::WrongViewType`]) — the
    /// contract every reader shares ([`Snapshot::view`], and a
    /// [`Replica`](crate::Replica), which reads through its engine).
    pub fn view<V: IncView>(&self, h: &ViewHandle<V>) -> Result<&V, EngineError> {
        downcast(self.views.active(h.id)?)
    }

    /// The view behind an untyped id, type-erased. Same error conditions
    /// as [`Engine::view`], the type check aside.
    pub fn view_dyn(&self, id: impl Into<ViewId>) -> Result<&dyn IncView, EngineError> {
        Ok(self.views.active(id.into())?.1)
    }

    /// A live view's health: [`ViewState::Active`] or
    /// [`ViewState::Quarantined`] with the panic's epoch and cause.
    pub fn state(&self, id: impl Into<ViewId>) -> Result<&ViewState, EngineError> {
        Ok(&self.views.occupied(id.into())?.state)
    }

    // ------------------------------------------------------------------
    // The commit pipeline
    // ------------------------------------------------------------------

    /// Commit a batch update: normalize it once against the current graph,
    /// apply ΔG to the graph exactly once (bumping the epoch), then
    /// propagate the normalized delta to every live active view — on this
    /// thread in slot order, or with scoped helper threads under
    /// [`CommitMode::Parallel`] (see [`Engine::set_commit_mode`]; receipts
    /// and journals are bit-identical either way).
    ///
    /// `batch` may be arbitrary — denormalized, with duplicates,
    /// insert/delete pairs of the same edge, deletions of absent edges and
    /// insertions of present edges. Normalization happens here so no caller
    /// and no view ever re-does it. A batch that normalizes to nothing
    /// leaves the graph, the epoch and every view untouched
    /// ([`CommitReceipt::is_noop`]).
    ///
    /// Fault isolation: a view whose `apply` panics is caught, marked
    /// [`ViewState::Quarantined`] at this commit's epoch, reported in the
    /// receipt ([`ViewOutcome::Quarantined`]) and the lifecycle journal,
    /// and *skipped* by later commits — the graph, the other views and the
    /// engine stay fully serviceable.
    ///
    /// The only rejected input is a batch whose *insertions* reference node
    /// ids beyond the admissible range ([`EngineError::NodeOutOfBounds`]);
    /// such a batch is rejected atomically, before the graph or any view
    /// sees it. Deletions are exempt: they never materialize nodes, and a
    /// delete aimed past the graph is just a no-op normalization drops.
    ///
    /// [`ViewOutcome::Quarantined`]: crate::ViewOutcome::Quarantined
    pub fn commit(&mut self, batch: &UpdateBatch) -> Result<CommitReceipt, EngineError> {
        let prepared = self.prepare(batch)?;
        let (receipt, _) = self.apply_prepared(prepared, None)?;
        Ok(receipt)
    }

    /// Admission check shared by [`Engine::prepare`] and the ingest
    /// server (which validates each submission *before* coalescing it, so
    /// one fat-fingered batch is rejected alone instead of poisoning a
    /// whole commit tick).
    pub(crate) fn admit(&self, batch: &UpdateBatch) -> Result<(), EngineError> {
        let limit = self.graph.node_count() as u64 + MAX_FRESH_NODES as u64;
        for u in batch.iter() {
            if !u.is_insert() {
                continue;
            }
            let (from, to) = u.edge();
            let worst = from.max(to);
            if worst.0 as u64 >= limit {
                return Err(EngineError::NodeOutOfBounds { node: worst, limit });
            }
        }
        Ok(())
    }

    /// Step 1 of [`Engine::commit`], detachable: admission-check and
    /// normalize `batch` against the current graph, and — on a logged
    /// engine, for a non-no-op delta — journal it write-ahead (cadence
    /// checkpoint first, then the delta chained to exactly the epoch
    /// applying it will produce). The graph and the views are untouched;
    /// consume the result with [`Engine::apply_prepared`].
    ///
    /// A failed append rejects the commit atomically; a successful one
    /// guarantees recovery can replay this commit even if the process
    /// dies before (or during) the apply. The cadence checkpoint
    /// snapshots the *pre*-commit graph and goes down first, so either
    /// failure leaves the engine untouched.
    pub fn prepare(&mut self, batch: &UpdateBatch) -> Result<PreparedCommit, EngineError> {
        if let Some(e) = self.degraded_error() {
            return Err(e);
        }
        self.admit(batch)?;
        let start = Instant::now();
        let submitted = batch.len();
        let delta = batch.normalize_against(&self.graph);
        let log_retries = if delta.is_empty() {
            0
        } else {
            self.journal(&delta)?
        };
        Ok(PreparedCommit {
            delta,
            submitted,
            prepare_elapsed: start.elapsed(),
            base_epoch: self.graph.epoch(),
            log_retries,
        })
    }

    /// Steps 2–4 of [`Engine::commit`]: apply a [`PreparedCommit`]'s
    /// delta to the graph (bumping the epoch), fan it out to every live
    /// active view, merge the records into the receipt and publish — the
    /// one stage a follower's replayed deltas land through too.
    ///
    /// When `next` is given, the *following* commit is prepared after this
    /// one has fully landed — exactly [`Engine::prepare`] called next — and
    /// its outcome returned. Errors from preparing `next` belong to the
    /// next commit and are returned in the nested `Result`, never
    /// conflated with this commit's.
    ///
    /// Errors with [`EngineError::EpochGap`] if another commit landed
    /// since [`Engine::prepare`] (the delta was normalized against a
    /// graph that no longer exists; nothing is applied).
    pub fn apply_prepared(
        &mut self,
        prepared: PreparedCommit,
        next: Option<&UpdateBatch>,
    ) -> Result<(CommitReceipt, Option<Result<PreparedCommit, EngineError>>), EngineError> {
        if prepared.base_epoch != self.graph.epoch() {
            return Err(EngineError::EpochGap {
                expected: prepared.base_epoch,
                found: self.graph.epoch(),
            });
        }
        Ok((self.land(prepared, None), next.map(|b| self.prepare(b))))
    }

    /// A delta from the log landing on a follower — one replayed delta, or
    /// a reattach's net diff with the re-seeded graph it leads to: the
    /// leader already normalized and journaled it.
    pub(crate) fn replay(&mut self, delta: UpdateBatch, reseeded: Option<DynamicGraph>) {
        let prepared = PreparedCommit {
            submitted: delta.len(),
            delta,
            prepare_elapsed: Duration::ZERO,
            base_epoch: self.graph.epoch(),
            log_retries: 0,
        };
        self.land(prepared, reseeded);
    }

    /// The one stage every delta lands through — a client commit, a
    /// coalesced tick, a replayed or a reattach delta: open the publish
    /// window, step the graph (apply the delta, or swap in `reseeded`), fan
    /// out and merge in slot order for both commit modes, publish. A no-op
    /// delta with no graph to swap in skips the stage.
    fn land(&mut self, prepared: PreparedCommit, reseeded: Option<DynamicGraph>) -> CommitReceipt {
        let apply_start = Instant::now();
        let PreparedCommit {
            delta,
            submitted,
            prepare_elapsed,
            log_retries,
            ..
        } = prepared;
        // Counted here, not in `prepare`: past this point the commit can
        // no longer fail, so a rejected (and later retried) batch never
        // counts its drops twice.
        self.totals.units_dropped += (submitted - delta.len()) as u64;
        let mut receipt = CommitReceipt {
            epoch: self.graph.epoch(),
            submitted,
            applied: delta.len(),
            dropped: submitted - delta.len(),
            graph_elapsed: Duration::ZERO,
            elapsed: Duration::ZERO,
            per_view: Vec::new(),
            skipped_quarantined: 0,
            work: WorkStats::new(),
            log_retries,
        };
        if !delta.is_empty() || reseeded.is_some() {
            // Open the MVCC publish window: GC every version no live snapshot
            // pins. Crucially that includes the unpinned newest version, which
            // returns unique ownership of the graph and of every view's shared
            // answer state to the engine — so with no pins outstanding nothing
            // is copied. From here to the publish at the end of this block
            // there is no early return and no unfenced view code, so the
            // window always closes.
            self.snapshots.begin_commit();
            let graph_start = Instant::now();
            match reseeded {
                // Ref count is 1 on the quiescent path (the pre-commit GC
                // above just dropped the published version's handle), so
                // this mutates in place; if a pinned snapshot still holds a
                // graph handle, make_mut falls back to a clone (list handles
                // only; each list is copied when first written) instead of
                // blocking or panicking — the pinned reader keeps its frozen
                // graph.
                None => Arc::make_mut(&mut self.graph).apply_batch(&delta),
                Some(g) => self.graph = Arc::new(g),
            }
            receipt.graph_elapsed = graph_start.elapsed();
            receipt.epoch = self.graph.epoch();

            receipt.skipped_quarantined = self.views.quarantined();
            let records = self.views.fan_out(&self.graph, &delta, self.threads);

            // Merge in slot order — registry accounting, quarantine journal and
            // receipt entries are produced here and only here.
            (receipt.per_view, receipt.work) = self.merge(records, receipt.epoch);

            self.totals.commits += 1;
            self.totals.units_applied += receipt.applied as u64;
            self.totals.work += receipt.work;

            // Close the MVCC publish window: publish this epoch's version —
            // the graph behind its existing `Arc` plus one answer cell per
            // slot (quarantines from this very commit included). A view the
            // publish itself had to quarantine says so in its receipt entry.
            for failed in self.publish_version() {
                if let Some(v) = receipt
                    .per_view
                    .iter_mut()
                    .find(|v| v.label == failed.label)
                {
                    v.outcome = failed.outcome;
                }
            }
        }
        // A no-op's normalization was paid for too: its wall-clock is
        // accounted even though no commit (epoch bump, fan-out) happened.
        receipt.elapsed = prepare_elapsed + apply_start.elapsed();
        self.totals.elapsed += receipt.elapsed;
        receipt
    }

    // ------------------------------------------------------------------
    // Audits
    // ------------------------------------------------------------------

    /// Audit every live *active* view against a from-scratch batch
    /// recomputation on the current graph (quarantined views are known-bad
    /// and skipped). Returns [`EngineError::ViewsDiverged`] listing every
    /// divergence; a panicking audit counts as a divergence, never an
    /// unwind. Expensive; meant for tests and canary commits, not the
    /// serving path.
    pub fn verify_all(&self) -> Result<(), EngineError> {
        self.views.audit_all(&self.graph)
    }

    /// Audit a single view. Errors with [`EngineError::StaleHandle`],
    /// [`EngineError::ViewQuarantined`], or a one-entry
    /// [`EngineError::ViewsDiverged`].
    pub fn verify(&self, id: impl Into<ViewId>) -> Result<(), EngineError> {
        self.views.audit(id.into(), &self.graph)
    }

    // ------------------------------------------------------------------
    // MVCC snapshot reads
    // ------------------------------------------------------------------

    /// Publish the engine's current state as the version at the current
    /// epoch: the graph behind its `Arc` plus the registry's cells
    /// ([`Registry::cells`]: per occupied slot a quarantine record, or the
    /// copy the view makes of itself — reader-visible state only, a few
    /// `Arc` bumps for the built-in classes). Runs at the end of every
    /// non-noop commit and after every lifecycle event, replacing the
    /// entry at this epoch if one exists.
    ///
    /// A view whose `clone_view` panicked is published as quarantined,
    /// quarantined here, and returned so a commit can say so in its
    /// receipt — the publish window always closes.
    fn publish_version(&mut self) -> Vec<ViewCommitStats> {
        let start = Instant::now();
        let epoch = self.graph.epoch();
        let (cells, failed) = self.views.cells(epoch);
        self.snapshots
            .publish(epoch, Arc::clone(&self.graph), cells, start);
        self.merge(failed, epoch).0
    }

    /// Fold fan-out (or publish) records into the registry, journaling a
    /// lifecycle event for every view they quarantine.
    fn merge(
        &mut self,
        records: Vec<ApplyRecord>,
        epoch: u64,
    ) -> (Vec<ViewCommitStats>, WorkStats) {
        let (per_view, work) = self.views.merge(records, epoch);
        for v in per_view.iter().filter(|v| !v.applied()) {
            self.events.push(LifecycleEvent {
                epoch,
                kind: LifecycleEventKind::Quarantined,
                label: v.label.clone(),
            });
        }
        (per_view, work)
    }

    /// Pin the newest published version: the graph and every view's
    /// answers exactly as the last commit (or lifecycle event) left them,
    /// served lock-free for as long as the [`Snapshot`] lives. Commits
    /// keep flowing while pins are held; a commit that finds one copies
    /// the graph and each view's answer state before writing to them, so
    /// the pin's answers never move.
    ///
    /// **Degraded mode does not gate this**: a degraded engine rejects
    /// commits, but snapshot creation and pinned reads keep working —
    /// exactly like every other read path.
    pub fn snapshot(&self) -> Result<Snapshot, EngineError> {
        self.snapshots.snapshot()
    }

    /// Pin the version published at exactly `epoch`. Retired epochs (GC'd
    /// because no live pin held them) are [`EngineError::EpochRetired`];
    /// epochs beyond the newest published version are
    /// [`EngineError::SnapshotUnavailable`]. Never gated on degraded mode.
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot, EngineError> {
        self.snapshots.snapshot_at(epoch)
    }

    /// The engine's snapshot store — a cloneable `Arc` read front door.
    /// The ingest server hands a clone to every [`Ingest`](crate::Ingest)
    /// handle so readers pin versions without taking the engine lock a
    /// running tick holds; benches use it for window accounting
    /// ([`SnapshotStore::window`], [`SnapshotStore::retained_stats`]).
    pub fn snapshot_store(&self) -> &Arc<SnapshotStore> {
        &self.snapshots
    }

    // ------------------------------------------------------------------
    // Cumulative accounting
    // ------------------------------------------------------------------

    /// Cumulative accounting across every commit so far: effective
    /// commits, units applied and dropped, view work, wall-clock.
    pub fn totals(&self) -> EngineTotals {
        self.totals
    }

    /// Cumulative accounting for one live view.
    pub fn view_totals(&self, id: impl Into<ViewId>) -> Result<ViewTotals, EngineError> {
        Ok(self.views.occupied(id.into())?.totals.clone())
    }

    /// Cumulative accounting for every live view, in slot order.
    pub fn all_view_totals(&self) -> Vec<ViewTotals> {
        self.views.entries().map(|r| r.totals.clone()).collect()
    }

    /// Final cumulative totals of deregistered views, in retirement order —
    /// [`Engine::deregister`] tombstones the slot but keeps the numbers.
    pub fn retired(&self) -> &[ViewTotals] {
        &self.retired
    }

    /// The lifecycle journal: every registration (direct and background),
    /// deregistration and quarantine, each stamped with the graph epoch it
    /// happened at, in order.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("graph", &self.graph)
            .field("epoch", &self.graph.epoch())
            .field("views", &self.labels().collect::<Vec<_>>())
            .field("commits", &self.totals.commits)
            .field("threads", &self.threads)
            .field("logged", &self.log.is_some())
            .field("degraded", &self.degraded.is_some())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::{NodeId, Update};

    /// Toy view: maintains the edge count, with a work counter per batch
    /// unit.
    #[derive(Clone, Debug)]
    struct EdgeCount {
        name: &'static str,
        count: usize,
        work: WorkStats,
    }

    impl EdgeCount {
        fn new(name: &'static str, g: &DynamicGraph) -> Self {
            EdgeCount {
                name,
                count: g.edge_count(),
                work: WorkStats::new(),
            }
        }
    }

    impl IncView for EdgeCount {
        fn name(&self) -> &str {
            self.name
        }
        fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
            self.count = g.edge_count();
            self.work.aux_touched += delta.len() as u64;
        }
        fn work(&self) -> WorkStats {
            self.work
        }
        fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
            if self.count == g.edge_count() {
                Ok(())
            } else {
                Err(format!("{} vs {}", self.count, g.edge_count()))
            }
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    /// Toy view that panics on its `n`-th apply (1-based), healthy before.
    #[derive(Clone, Debug)]
    struct PanicOn {
        n: u64,
        seen: u64,
        work: WorkStats,
    }

    impl PanicOn {
        fn nth(n: u64) -> Self {
            PanicOn {
                n,
                seen: 0,
                work: WorkStats::new(),
            }
        }
    }

    impl IncView for PanicOn {
        fn name(&self) -> &str {
            "panicky"
        }
        fn apply(&mut self, _g: &DynamicGraph, delta: &UpdateBatch) {
            self.seen += 1;
            self.work.aux_touched += 1;
            if self.seen == self.n {
                panic!("deliberate canary failure on apply #{}", self.seen);
            }
            self.work.aux_touched += delta.len() as u64;
        }
        fn work(&self) -> WorkStats {
            self.work
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    fn delta(updates: Vec<Update>) -> UpdateBatch {
        UpdateBatch::from_updates(updates)
    }

    /// Run `f` with the default panic hook silenced, so deliberate canary
    /// panics do not clutter test output. The hook is global process
    /// state: a mutex serializes concurrent users, and a drop guard
    /// restores the previous hook even if `f` itself panics (a failing
    /// assertion inside `f` must not mute every later test's diagnostics).
    pub(crate) fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
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

    #[test]
    fn commit_normalizes_once_and_fans_out() {
        let g = graph_from(&[0, 0, 0], &[(0, 1)]);
        let mut engine = Engine::new(g);
        let a = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let b = engine
            .register("b", |g| EdgeCount::new("ignored", g))
            .unwrap();

        let receipt = engine
            .commit(&delta(vec![
                Update::insert(NodeId(1), NodeId(2)),
                Update::insert(NodeId(1), NodeId(2)), // duplicate
                Update::delete(NodeId(2), NodeId(0)), // absent
                Update::insert(NodeId(0), NodeId(1)), // present
            ]))
            .unwrap();
        assert_eq!(receipt.submitted, 4);
        assert_eq!(receipt.applied, 1);
        assert_eq!(receipt.dropped, 3);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.per_view.len(), 2);
        assert_eq!(receipt.skipped_quarantined, 0);
        // Each view saw the *normalized* delta: one unit of work apiece.
        for v in &receipt.per_view {
            assert_eq!(v.work.aux_touched, 1);
            assert!(v.applied());
        }
        assert_eq!(receipt.work.aux_touched, 2);
        assert!(!receipt.is_noop());
        assert_eq!(engine.view(&a).unwrap().count, 2);
        assert_eq!(engine.view(&b).unwrap().count, 2);
        assert!(engine.verify_all().is_ok());
    }

    #[test]
    fn noop_commit_leaves_everything_untouched() {
        let g = graph_from(&[0, 0], &[(0, 1)]);
        let mut engine = Engine::new(g);
        engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let receipt = engine
            .commit(&delta(vec![
                Update::insert(NodeId(0), NodeId(1)), // present
                Update::delete(NodeId(1), NodeId(0)), // absent
            ]))
            .unwrap();
        assert!(receipt.is_noop());
        assert_eq!(receipt.epoch, 0, "no-op commit does not bump the epoch");
        assert_eq!(receipt.dropped, 2);
        assert!(receipt.per_view.is_empty());
        assert_eq!(engine.totals().commits, 0);
        assert_eq!(engine.totals().units_dropped, 2);
    }

    #[test]
    fn accounting_accumulates_across_commits() {
        let g = graph_from(&[0, 0, 0, 0], &[]);
        let mut engine = Engine::new(g);
        let id = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        engine
            .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap();
        engine
            .commit(&delta(vec![
                Update::insert(NodeId(1), NodeId(2)),
                Update::insert(NodeId(2), NodeId(3)),
            ]))
            .unwrap();
        assert_eq!(engine.totals().commits, 2);
        assert_eq!(engine.totals().units_applied, 3);
        assert_eq!(engine.epoch(), 2);
        let totals = engine.view_totals(id).unwrap();
        assert_eq!(totals.commits, 2);
        assert_eq!(totals.work.aux_touched, 3);
        assert_eq!(engine.totals().work.aux_touched, 3);
        assert_eq!(engine.all_view_totals().len(), 1);
    }

    #[test]
    fn registry_lookup_and_labels() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        let a = engine
            .register("alpha", |g| EdgeCount::new("alpha", g))
            .unwrap();
        let b = engine
            .register("beta", |g| EdgeCount::new("alpha", g))
            .unwrap();
        assert_eq!(engine.view_count(), 2);
        assert_eq!(engine.labels().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        assert_eq!(engine.find("alpha"), Some(a.id()));
        assert_eq!(engine.find("beta"), Some(b.id()));
        assert_eq!(engine.find("gamma"), None);
        assert_eq!(a.index(), 0);
        assert_eq!(a.generation(), 0);
        assert_eq!(
            engine.view_dyn(b).unwrap().name(),
            "alpha",
            "label ≠ IncView::name"
        );
        // find → typed round-trips to a working typed handle.
        let again: ViewHandle<EdgeCount> = engine.typed(engine.find("beta").unwrap()).unwrap();
        assert_eq!(again, b);
        assert!(engine.view(&again).is_ok());
    }

    // ------------------------------------------------------------------
    // One test per EngineError variant
    // ------------------------------------------------------------------

    #[test]
    fn error_duplicate_label() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        engine
            .register("dup", |g| EdgeCount::new("dup", g))
            .unwrap();
        let err = engine
            .register("dup", |g| EdgeCount::new("dup", g))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::DuplicateLabel {
                label: Arc::from("dup")
            }
        );
        assert!(err.to_string().contains("dup"));
        // The engine is not poisoned: a different label still registers.
        assert!(engine.register("ok", |g| EdgeCount::new("ok", g)).is_ok());
    }

    #[test]
    fn error_stale_handle_after_deregister_and_slot_reuse() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        let a = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let totals = engine.deregister(a).unwrap();
        assert_eq!(&*totals.label, "a");
        assert_eq!(
            engine.view(&a).unwrap_err(),
            EngineError::StaleHandle {
                index: 0,
                generation: 0
            }
        );
        // The slot is reused by the next registration under a bumped
        // generation: same index, the stale handle still misses.
        let b = engine.register("b", |g| EdgeCount::new("b", g)).unwrap();
        assert_eq!(b.index(), a.index());
        assert_eq!(b.generation(), 1);
        assert!(engine.view(&a).is_err());
        assert!(engine.view(&b).is_ok());
        assert!(engine.state(a).is_err());
        assert!(engine.deregister(a).is_err());
        assert!(engine.view_totals(a).is_err());
        // The deregistered view's totals stay queryable.
        assert_eq!(&*engine.retired()[0].label, "a");
        // The old label is free again.
        assert!(engine.register("a", |g| EdgeCount::new("a", g)).is_ok());
    }

    #[test]
    fn error_wrong_view_type() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        let a = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let err = engine.typed::<PanicOn>(a.id()).unwrap_err();
        match err {
            EngineError::WrongViewType { label, expected } => {
                assert_eq!(&*label, "a");
                assert!(expected.contains("PanicOn"));
            }
            other => panic!("expected WrongViewType, got {other:?}"),
        }
    }

    #[test]
    fn error_view_quarantined_on_access() {
        quiet_panics(|| {
            let mut engine = Engine::new(graph_from(&[0, 0], &[]));
            let p = engine.register("panicky", |_| PanicOn::nth(1)).unwrap();
            engine
                .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
                .unwrap();
            let err = engine.view(&p).unwrap_err();
            match err {
                EngineError::ViewQuarantined {
                    label,
                    epoch,
                    cause,
                } => {
                    assert_eq!(&*label, "panicky");
                    assert_eq!(epoch, 1);
                    assert!(cause.contains("deliberate canary failure"));
                }
                other => panic!("expected ViewQuarantined, got {other:?}"),
            }
            assert!(engine.view_dyn(p).is_err());
            assert!(engine.verify(p).is_err());
        });
    }

    #[test]
    fn error_views_diverged() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        engine
            .register("healthy", |g| EdgeCount::new("healthy", g))
            .unwrap();
        // A view constructed against the *wrong* state diverges immediately.
        let stale = engine
            .register("stale", |_| EdgeCount {
                name: "stale",
                count: 99,
                work: WorkStats::new(),
            })
            .unwrap();
        let err = engine.verify_all().unwrap_err();
        match &err {
            EngineError::ViewsDiverged { failures } => {
                assert_eq!(failures.len(), 1);
                assert_eq!(&*failures[0].label, "stale");
            }
            other => panic!("expected ViewsDiverged, got {other:?}"),
        }
        // Single-view verify agrees, and the healthy one passes.
        assert!(engine.verify(stale).is_err());
        assert!(engine.verify(engine.find("healthy").unwrap()).is_ok());
    }

    #[test]
    fn error_node_out_of_bounds() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let err = engine
            .commit(&delta(vec![Update::insert(NodeId(0), NodeId(u32::MAX))]))
            .unwrap_err();
        match err {
            EngineError::NodeOutOfBounds { node, limit } => {
                assert_eq!(node, NodeId(u32::MAX));
                assert_eq!(limit, 2 + MAX_FRESH_NODES as u64);
            }
            other => panic!("expected NodeOutOfBounds, got {other:?}"),
        }
        // Atomic rejection: nothing moved, and the engine still commits.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.totals().commits, 0);
        assert!(engine.verify_all().is_ok());
        // Deletions are exempt: they never materialize nodes, so a stale
        // client deleting far past the graph is a normalization no-op, not
        // a rejected batch.
        let receipt = engine
            .commit(&delta(vec![Update::delete(NodeId(0), NodeId(u32::MAX))]))
            .unwrap();
        assert!(receipt.is_noop());
        // A modest gap-jumping insert is inside the bound.
        assert!(engine
            .commit(&delta(vec![Update::insert(NodeId(0), NodeId(10))]))
            .is_ok());
    }

    #[test]
    fn error_init_panicked() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        let err = quiet_panics(|| {
            engine
                .register("doomed", |_g: &DynamicGraph| -> EdgeCount {
                    panic!("builder exploded")
                })
                .unwrap_err()
        });
        match err {
            EngineError::InitPanicked { label, cause } => {
                assert_eq!(&*label, "doomed");
                assert!(cause.contains("builder exploded"));
            }
            other => panic!("expected InitPanicked, got {other:?}"),
        }
        // Nothing was registered; the label is still free.
        assert_eq!(engine.view_count(), 0);
        assert!(engine
            .register("doomed", |g: &DynamicGraph| EdgeCount::new("doomed", g))
            .is_ok());
    }

    // ------------------------------------------------------------------
    // Quarantine and lifecycle behaviour
    // ------------------------------------------------------------------

    #[test]
    fn quarantined_view_is_skipped_while_others_keep_committing() {
        quiet_panics(|| {
            let mut engine = Engine::new(graph_from(&[0, 0, 0, 0], &[]));
            let healthy = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
            let p = engine.register("panicky", |_| PanicOn::nth(2)).unwrap();

            let r1 = engine
                .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
                .unwrap();
            assert!(r1.per_view.iter().all(|v| v.applied()));

            // Commit 2: the canary panics mid-fan-out; the commit succeeds.
            let r2 = engine
                .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
                .unwrap();
            assert_eq!(r2.per_view.len(), 2);
            let quarantined: Vec<_> = r2.newly_quarantined().collect();
            assert_eq!(quarantined.len(), 1);
            assert_eq!(&*quarantined[0].label, "panicky");
            assert!(matches!(
                engine.state(p).unwrap(),
                ViewState::Quarantined { epoch: 2, .. }
            ));

            // Commit 3: the canary is skipped, the healthy view keeps going.
            let r3 = engine
                .commit(&delta(vec![Update::insert(NodeId(2), NodeId(3))]))
                .unwrap();
            assert_eq!(r3.per_view.len(), 1);
            assert_eq!(r3.skipped_quarantined, 1);
            assert_eq!(engine.view(&healthy).unwrap().count, 3);
            assert!(
                engine.verify_all().is_ok(),
                "audit skips the quarantined view"
            );

            // Recovery: deregister, lazily register a replacement, audit.
            engine.deregister(p).unwrap();
            let replacement = engine
                .register("panicky", |g: &DynamicGraph| EdgeCount::new("panicky", g))
                .unwrap();
            let r4 = engine
                .commit(&delta(vec![Update::insert(NodeId(3), NodeId(0))]))
                .unwrap();
            assert_eq!(r4.per_view.len(), 2);
            assert_eq!(r4.skipped_quarantined, 0);
            assert_eq!(engine.view(&replacement).unwrap().count, 4);
            assert!(engine.verify_all().is_ok());
        });
    }

    /// A maximally hostile view: `apply` panics, and afterwards even
    /// `work()` panics (its state is wrecked). The engine must fence both.
    /// Wrecks sharing a `rendezvous` record the thread each `apply` runs on
    /// and wait there (up to 10 s) until two have entered, so those two run
    /// on two threads.
    #[derive(Clone, Debug)]
    struct PoisonedWork {
        wrecked: bool,
        rendezvous: Option<Arc<std::sync::Mutex<Vec<String>>>>,
    }

    impl IncView for PoisonedWork {
        fn name(&self) -> &str {
            "poisoned"
        }
        fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
            self.wrecked = true;
            if let Some(entered) = &self.rendezvous {
                let me = std::thread::current().name().unwrap_or("").to_owned();
                entered.lock().unwrap().push(me);
                let deadline = Instant::now() + Duration::from_secs(10);
                while entered.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            panic!("apply wrecked the state");
        }
        fn work(&self) -> WorkStats {
            if self.wrecked {
                panic!("work() on wrecked state");
            }
            WorkStats::new()
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn post_panic_work_read_is_fenced_too() {
        for mode in [CommitMode::Sequential, CommitMode::Parallel { threads: 2 }] {
            quiet_panics(|| {
                let mut engine = Engine::new(graph_from(&[0, 0], &[]));
                engine.set_commit_mode(mode);
                let healthy = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
                // Under `Parallel` a second wreck meets the first inside
                // `apply`, so one of them runs on the scoped helper: its
                // panics must stop at the helper's fence, never reach this
                // thread through the scope's join.
                let parallel = mode != CommitMode::Sequential;
                let entered = parallel.then(|| Arc::new(std::sync::Mutex::new(Vec::new())));
                let wreck = || PoisonedWork {
                    wrecked: false,
                    rendezvous: entered.clone(),
                };
                let p = engine.register("poisoned", |_| wreck()).unwrap();
                if parallel {
                    engine.register("poisoned-2", |_| wreck()).unwrap();
                }
                let receipt = engine
                    .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
                    .unwrap();
                // The wreck is quarantined with zero work attributed; the
                // commit (and the healthy view) survived both panics.
                let q: Vec<_> = receipt.newly_quarantined().collect();
                assert_eq!(q.len(), 1 + usize::from(parallel), "{mode:?}");
                assert!(q.iter().all(|v| v.work.total() == 0), "{mode:?}");
                if let Some(entered) = entered {
                    let on = entered.lock().unwrap().clone();
                    assert!(on.iter().any(|t| t == "igc-fan-out"), "{on:?}");
                }
                assert!(matches!(
                    engine.state(p).unwrap(),
                    ViewState::Quarantined { .. }
                ));
                assert_eq!(engine.view(&healthy).unwrap().count, 1);
                assert!(engine.verify_all().is_ok());
            });
        }
    }

    #[test]
    fn lazy_view_matches_eager_view_bit_for_bit() {
        let g = graph_from(&[0, 0, 0, 0], &[(0, 1)]);
        let mut engine = Engine::new(g);
        let eager = engine
            .register("eager", |g| EdgeCount::new("eager", g))
            .unwrap();

        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        // Join mid-stream: built from the *current* graph (2 edges).
        let lazy = engine
            .register("lazy", |g: &DynamicGraph| EdgeCount::new("lazy", g))
            .unwrap();
        assert_eq!(engine.view(&lazy).unwrap().count, 2);

        // Same commit suffix ⇒ identical answers.
        engine
            .commit(&delta(vec![
                Update::insert(NodeId(2), NodeId(3)),
                Update::delete(NodeId(0), NodeId(1)),
            ]))
            .unwrap();
        assert_eq!(
            engine.view(&eager).unwrap().count,
            engine.view(&lazy).unwrap().count
        );
        assert!(engine.verify_all().is_ok());
        // The latecomer only paid for the commits it saw.
        assert_eq!(engine.view_totals(lazy).unwrap().commits, 1);
        assert_eq!(engine.view_totals(eager).unwrap().commits, 2);
    }

    #[test]
    fn lifecycle_events_journal_everything_in_order() {
        quiet_panics(|| {
            let mut engine = Engine::new(graph_from(&[0, 0, 0], &[]));
            let a = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
            engine.register("panicky", |_| PanicOn::nth(1)).unwrap();
            engine
                .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
                .unwrap();
            engine.deregister(a).unwrap();
            engine
                .register("late", |g: &DynamicGraph| EdgeCount::new("late", g))
                .unwrap();

            let got: Vec<(u64, &'static str, &str)> = engine
                .events()
                .iter()
                .map(|e| (e.epoch, e.kind.tag(), &*e.label))
                .collect();
            assert_eq!(
                got,
                vec![
                    (0, "registered", "a"),
                    (0, "registered", "panicky"),
                    (1, "quarantined", "panicky"),
                    (1, "deregistered", "a"),
                    (1, "registered", "late"),
                ]
            );
        });
    }

    #[test]
    fn handles_are_copy_send_and_hashable() {
        fn assert_send_sync<T: Send + Sync + Copy + std::hash::Hash>() {}
        assert_send_sync::<ViewHandle<EdgeCount>>();
        assert_send_sync::<ViewId>();
    }

    // ------------------------------------------------------------------
    // Parallel fan-out
    // ------------------------------------------------------------------

    /// Build an engine with `n` edge-count views and run the same 3-commit
    /// script, returning the receipts.
    fn run_script(mode: CommitMode, views: usize) -> (Engine, Vec<CommitReceipt>) {
        let g = graph_from(&[0, 0, 0, 0], &[(0, 1)]);
        let mut engine = Engine::new(g);
        engine.set_commit_mode(mode);
        for i in 0..views {
            engine
                .register(format!("v{i}"), |g| EdgeCount::new("v", g))
                .unwrap();
        }
        let script = [
            delta(vec![
                Update::insert(NodeId(1), NodeId(2)),
                Update::insert(NodeId(2), NodeId(3)),
            ]),
            delta(vec![
                Update::delete(NodeId(0), NodeId(1)),
                Update::insert(NodeId(3), NodeId(0)),
            ]),
            delta(vec![Update::insert(NodeId(0), NodeId(2))]),
        ];
        let receipts = script.iter().map(|d| engine.commit(d).unwrap()).collect();
        (engine, receipts)
    }

    #[test]
    fn parallel_commit_matches_sequential_bit_for_bit() {
        let (seq_engine, seq) = run_script(CommitMode::Sequential, 5);
        for threads in [1usize, 2, 3, 8] {
            let (par_engine, par) = run_script(CommitMode::Parallel { threads }, 5);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.applied, b.applied);
                assert_eq!(a.dropped, b.dropped);
                assert_eq!(a.skipped_quarantined, b.skipped_quarantined);
                assert_eq!(a.work, b.work);
                assert_eq!(a.per_view.len(), b.per_view.len());
                for (x, y) in a.per_view.iter().zip(&b.per_view) {
                    assert_eq!(x.label, y.label, "slot order must be preserved");
                    assert_eq!(x.work, y.work);
                    assert_eq!(x.outcome, y.outcome);
                }
            }
            assert_eq!(seq_engine.totals().work, par_engine.totals().work);
            assert!(par_engine.verify_all().is_ok());
        }
    }

    #[test]
    fn parallel_zero_threads_means_available_parallelism() {
        let (engine, receipts) = run_script(CommitMode::Parallel { threads: 0 }, 4);
        assert_eq!(receipts.len(), 3);
        assert!(engine.verify_all().is_ok());
    }

    #[test]
    fn parallel_worker_panic_quarantines_like_sequential() {
        quiet_panics(|| {
            let run = |mode: CommitMode| {
                let g = graph_from(&[0, 0, 0, 0], &[]);
                let mut engine = Engine::new(g);
                engine.set_commit_mode(mode);
                engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
                engine.register("panicky", |_| PanicOn::nth(2)).unwrap();
                engine.register("b", |g| EdgeCount::new("b", g)).unwrap();
                let r1 = engine
                    .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
                    .unwrap();
                let r2 = engine
                    .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
                    .unwrap();
                let r3 = engine
                    .commit(&delta(vec![Update::insert(NodeId(2), NodeId(3))]))
                    .unwrap();
                (engine, r1, r2, r3)
            };
            let (se, s1, s2, s3) = run(CommitMode::Sequential);
            let (pe, p1, p2, p3) = run(CommitMode::Parallel { threads: 3 });
            assert!(s1.per_view.iter().all(|v| v.applied()));
            assert!(p1.per_view.iter().all(|v| v.applied()));
            for (a, b) in [(&s2, &p2), (&s3, &p3)] {
                assert_eq!(a.skipped_quarantined, b.skipped_quarantined);
                let qa: Vec<_> = a.newly_quarantined().map(|v| v.label.clone()).collect();
                let qb: Vec<_> = b.newly_quarantined().map(|v| v.label.clone()).collect();
                assert_eq!(qa, qb);
            }
            assert_eq!(s2.newly_quarantined().count(), 1);
            assert_eq!(s3.skipped_quarantined, 1);
            // Identical quarantine journals (same kinds, labels, epochs).
            let journal = |e: &Engine| {
                e.events()
                    .iter()
                    .map(|ev| (ev.epoch, ev.kind, ev.label.to_string()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(journal(&se), journal(&pe));
            // Healthy views keep serving in both modes.
            assert!(se.verify_all().is_ok());
            assert!(pe.verify_all().is_ok());
        });
    }

    #[test]
    fn parallel_mode_with_more_threads_than_views_is_clamped() {
        let (engine, receipts) = run_script(CommitMode::Parallel { threads: 64 }, 2);
        assert_eq!(receipts[0].per_view.len(), 2);
        assert!(engine.verify_all().is_ok());
    }

    // ------------------------------------------------------------------
    // Durability: journaling, checkpoints, recovery, background builds
    // ------------------------------------------------------------------

    use igc_log::MemBackend;

    fn mem_backend() -> (MemBackend, Arc<dyn igc_log::LogBackend>) {
        let mem = MemBackend::new();
        let arc: Arc<dyn igc_log::LogBackend> = Arc::new(mem.clone());
        (mem, arc)
    }

    #[test]
    fn logged_commits_journal_write_ahead_and_noops_do_not() {
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 0, 0], &[(0, 1)]))
            .with_log(backend.clone())
            .unwrap();
        engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        let log = engine.log().expect("log attached");
        assert_eq!(log.checkpoints(), 1, "initial checkpoint at attach");
        assert_eq!(log.last_epoch(), Some(0));

        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        // A no-op batch journals nothing (it does not bump the epoch).
        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        let log = engine.log().unwrap();
        assert_eq!(log.deltas(), 1);
        assert_eq!(log.last_epoch(), Some(1));

        // The journaled delta is the *normalized* one.
        let summary = log.replayer().summary().unwrap();
        assert_eq!(summary.units, 1);
    }

    #[test]
    fn with_log_refuses_a_backend_with_history() {
        let (_, backend) = mem_backend();
        let _logged = Engine::new(graph_from(&[0, 0], &[]))
            .with_log(backend.clone())
            .unwrap();
        let err = Engine::new(graph_from(&[0, 0], &[]))
            .with_log(backend)
            .unwrap_err();
        assert!(matches!(err, EngineError::LogCorrupt { .. }), "{err:?}");
    }

    #[test]
    fn recover_rebuilds_graph_and_resumes_journaling() {
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 1, 2], &[(0, 1)]))
            .with_log(backend.clone())
            .unwrap();
        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        engine
            .commit(&delta(vec![
                Update::delete(NodeId(0), NodeId(1)),
                Update::insert(NodeId(2), NodeId(0)),
            ]))
            .unwrap();
        let edges = engine.graph().sorted_edges();
        let epoch = engine.epoch();
        drop(engine); // crash

        let mut recovered = Engine::recover(backend.clone()).unwrap();
        assert_eq!(recovered.epoch(), epoch);
        assert_eq!(recovered.graph().sorted_edges(), edges);
        assert_eq!(recovered.graph().label(NodeId(1)), igc_graph::Label(1));
        // Views re-join lazily from the recovered graph and the engine
        // keeps committing + journaling on the same chain.
        let h = recovered
            .register("a", |g: &DynamicGraph| EdgeCount::new("a", g))
            .unwrap();
        recovered
            .commit(&delta(vec![Update::insert(NodeId(0), NodeId(2))]))
            .unwrap();
        assert_eq!(recovered.view(&h).unwrap().count, 3);
        assert_eq!(recovered.log().unwrap().last_epoch(), Some(epoch + 1));
        assert!(recovered.verify_all().is_ok());
        // And a second crash/recovery still works, now spanning records
        // journaled by both engines.
        let edges = recovered.graph().sorted_edges();
        drop(recovered);
        let twice = Engine::recover(backend).unwrap();
        assert_eq!(twice.epoch(), epoch + 1);
        assert_eq!(twice.graph().sorted_edges(), edges);
    }

    #[test]
    fn checkpoint_cadence_bounds_the_replay_tail() {
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 0, 0, 0], &[]))
            .with_log(backend.clone())
            .unwrap();
        engine.set_checkpoint_every(3);
        for i in 0..8u32 {
            let (a, b) = (NodeId(i % 4), NodeId((i + 1) % 4));
            let batch = if engine.graph().contains_edge(a, b) {
                delta(vec![Update::delete(a, b)])
            } else {
                delta(vec![Update::insert(a, b)])
            };
            engine.commit(&batch).unwrap();
        }
        // Cadence 3 over 8 commits: automatic checkpoints before commits
        // 4 and 7 (pre-commit snapshots at epochs 3 and 6), plus the
        // attach-time one.
        let log = engine.log().unwrap();
        assert_eq!(log.checkpoints(), 3);
        assert_eq!(log.deltas(), 8);
        // Replaying the latest state starts from the newest checkpoint:
        // at most `cadence` deltas of tail.
        let replayed = log.replayer().latest().unwrap();
        assert_eq!(replayed.base_epoch, 6);
        assert!(replayed.deltas_applied <= 3);
        assert_eq!(replayed.graph.epoch(), 8);

        // Explicit checkpoint resets the cadence counter.
        engine.checkpoint().unwrap();
        assert_eq!(engine.log().unwrap().checkpoints(), 4);
        assert_eq!(engine.log().unwrap().last_checkpoint(), Some(8));
    }

    #[test]
    fn crash_loop_does_not_starve_the_checkpoint_cadence() {
        // A process that crashes more often than it checkpoints must not
        // reset the cadence counter on every recovery, or the replay tail
        // grows without bound across restarts. Script: cadence 3, two
        // commits per "process lifetime", repeated crash/recover cycles —
        // checkpoints must keep appearing roughly every 3 deltas.
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 0, 0, 0], &[]))
            .with_log(backend.clone())
            .unwrap();
        engine.set_checkpoint_every(3);
        let mut commit_round = 0u32;
        let mut commit_two = |engine: &mut Engine| {
            for _ in 0..2 {
                let (a, b) = (NodeId(commit_round % 4), NodeId((commit_round + 1) % 4));
                let batch = if engine.graph().contains_edge(a, b) {
                    delta(vec![Update::delete(a, b)])
                } else {
                    delta(vec![Update::insert(a, b)])
                };
                engine.commit(&batch).unwrap();
                commit_round += 1;
            }
        };
        commit_two(&mut engine);
        for _ in 0..3 {
            drop(engine); // crash after only 2 commits — under the cadence
            engine = Engine::recover(backend.clone()).unwrap();
            engine.set_checkpoint_every(3);
            commit_two(&mut engine);
        }
        // 8 deltas at cadence 3 ⇒ the initial checkpoint plus at least
        // two automatic ones; without the recovery-time counter seeding,
        // the count stays stuck at 1 forever.
        let log = engine.log().unwrap();
        assert_eq!(log.deltas(), 8);
        assert!(
            log.checkpoints() >= 3,
            "cadence starved across crash loop: only {} checkpoint(s) after {} deltas",
            log.checkpoints(),
            log.deltas()
        );
        // And the bounded tail is what recovery actually enjoys.
        let replayed = log.replayer().latest().unwrap();
        assert!(
            replayed.deltas_applied <= 3,
            "replay tail {} exceeds the cadence",
            replayed.deltas_applied
        );
    }

    #[test]
    fn recovered_engine_starts_from_default_settings() {
        // The journal holds deltas and checkpoints, not settings: whatever
        // the crashed engine ran with, the recovered one starts from the
        // defaults until its caller re-applies them.
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0; 40], &[]))
            .with_log(backend.clone())
            .unwrap();
        engine.set_checkpoint_every(1_000);
        engine
            .set_durability(igc_log::DurabilityMode::GroupCommit {
                max_batch: 4,
                max_delay: std::time::Duration::from_secs(1),
            })
            .unwrap();
        engine.set_commit_mode(CommitMode::Parallel { threads: 2 });
        let ring = |i: u32| Update::insert(NodeId(i % 40), NodeId((i + 1) % 40));
        for i in 0..5 {
            engine.commit(&delta(vec![ring(i)])).unwrap();
        }
        drop(engine); // crash
        let mut recovered = Engine::recover(backend).unwrap();
        assert_eq!(
            recovered.log().unwrap().durability(),
            igc_log::DurabilityMode::None
        );
        assert_eq!(recovered.threads, 1, "CommitMode::Sequential");
        // The default cadence, seeded with the 5-delta tail: one checkpoint
        // in the next 32 commits (the crashed engine's 1 000 would add
        // none).
        let before = recovered.log().unwrap().checkpoints();
        for i in 5..37 {
            recovered.commit(&delta(vec![ring(i)])).unwrap();
        }
        assert_eq!(recovered.log().unwrap().checkpoints(), before + 1);
    }

    #[test]
    fn durability_operations_without_a_log_are_precise_errors() {
        let mut engine = Engine::new(graph_from(&[0, 0], &[]));
        assert_eq!(
            engine.checkpoint().unwrap_err(),
            EngineError::NoLog {
                operation: "checkpoint"
            }
        );
        let err = engine
            .register_background("bg", |g: &DynamicGraph| EdgeCount::new("bg", g))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NoLog {
                operation: "register_background"
            }
        );
        assert!(engine.log().is_none());
    }

    #[test]
    fn background_build_joins_without_blocking_commits() {
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 0, 0, 0], &[(0, 1)]))
            .with_log(backend)
            .unwrap();
        let eager = engine
            .register("eager", |g| EdgeCount::new("eager", g))
            .unwrap();
        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();

        let build = engine
            .register_background("bg", |g: &DynamicGraph| EdgeCount::new("bg", g))
            .unwrap();
        assert_eq!(build.label(), "bg");
        // The label is reserved while the build is in flight …
        let dup = engine
            .register("bg", |g| EdgeCount::new("dup", g))
            .unwrap_err();
        assert!(matches!(dup, EngineError::DuplicateLabel { .. }));
        // … and commits keep flowing meanwhile (the worker reads the log,
        // never the engine).
        engine
            .commit(&delta(vec![Update::insert(NodeId(2), NodeId(3))]))
            .unwrap();
        engine
            .commit(&delta(vec![Update::delete(NodeId(0), NodeId(1))]))
            .unwrap();

        let bg = engine.join_background(build).unwrap();
        // Caught up exactly: same answer as the eager view that saw every
        // commit live.
        assert_eq!(
            engine.view(&bg).unwrap().count,
            engine.view(&eager).unwrap().count
        );
        assert!(engine.verify_all().is_ok());
        // The splice is journaled with its own lifecycle kind at the
        // current epoch.
        let last = engine.events().last().unwrap();
        assert_eq!(last.kind, LifecycleEventKind::RegisteredBackground);
        assert_eq!(last.epoch, 3);
        assert_eq!(&*last.label, "bg");
        // The label is live now; the reservation is gone.
        assert!(engine.find("bg").is_some());

        // And the joined view is maintained incrementally from here on.
        engine
            .commit(&delta(vec![Update::insert(NodeId(3), NodeId(0))]))
            .unwrap();
        assert_eq!(engine.view(&bg).unwrap().count, 3);
    }

    #[test]
    fn abandoned_background_build_frees_its_label() {
        let (_, backend) = mem_backend();
        let mut engine = Engine::new(graph_from(&[0, 0], &[]))
            .with_log(backend)
            .unwrap();
        let build = engine
            .register_background("bg", |g: &DynamicGraph| EdgeCount::new("bg", g))
            .unwrap();
        drop(build); // abandon
                     // The reservation token is dead: the label registers again.
        assert!(engine
            .register("bg", |g: &DynamicGraph| EdgeCount::new("bg", g))
            .is_ok());
    }

    #[test]
    fn background_build_with_panicking_init_reports_and_registers_nothing() {
        quiet_panics(|| {
            let (_, backend) = mem_backend();
            let mut engine = Engine::new(graph_from(&[0, 0], &[]))
                .with_log(backend)
                .unwrap();
            let build = engine
                .register_background("doomed", |_g: &DynamicGraph| -> EdgeCount {
                    panic!("background builder exploded")
                })
                .unwrap();
            let err = engine.join_background(build).unwrap_err();
            match err {
                EngineError::InitPanicked { label, cause } => {
                    assert_eq!(&*label, "doomed");
                    assert!(cause.contains("background builder exploded"), "{cause}");
                }
                other => panic!("expected InitPanicked, got {other:?}"),
            }
            assert_eq!(engine.view_count(), 0);
            // Failure freed the label.
            assert!(engine
                .register("doomed", |g: &DynamicGraph| EdgeCount::new("doomed", g))
                .is_ok());
        });
    }

    #[test]
    fn failed_log_append_rejects_the_commit_atomically_and_degrades() {
        let chaos = igc_log::ChaosBackend::new(Arc::new(MemBackend::new()));
        let backend: Arc<dyn igc_log::LogBackend> = Arc::new(chaos.clone());
        let mut engine = Engine::new(graph_from(&[0, 0, 0], &[]))
            .with_log(backend)
            .unwrap();
        let h = engine.register("a", |g| EdgeCount::new("a", g)).unwrap();
        engine
            .commit(&delta(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap();
        assert!(!engine.is_degraded());

        // Disk dies: the write-ahead append fails, so the commit is
        // rejected before the graph or any view saw it — and with no
        // retry budget left, the engine degrades to read-only.
        chaos.fail_next_append(0);
        let err = engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::RetriesExhausted {
                    operation: "append",
                    attempts: 1,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(engine.epoch(), 1, "graph untouched");
        assert_eq!(engine.totals().commits, 1, "commit counters untouched");
        assert_eq!(engine.view(&h).unwrap().count, 1, "views untouched");
        assert!(engine.verify_all().is_ok());
        assert!(engine.is_degraded());

        // Degraded mode fails further write attempts *fast* — the dead
        // journal is not hammered again — while reads keep serving.
        let err = engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Degraded { since_epoch: 1, .. }),
            "{err:?}"
        );
        assert!(matches!(
            engine.checkpoint().unwrap_err(),
            EngineError::Degraded { .. }
        ));
        assert_eq!(engine.view(&h).unwrap().count, 1, "reads still serve");

        // Disk back: heal re-probes the journal, and committing resumes
        // on the same epoch chain — the log replays to exactly the
        // engine's state.
        engine.heal().unwrap();
        assert!(!engine.is_degraded());
        assert_eq!(engine.degraded_windows(), 1);
        engine
            .commit(&delta(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        assert_eq!(engine.epoch(), 2);
        let replayed = engine.log().unwrap().replayer().latest().unwrap();
        assert_eq!(replayed.graph.epoch(), 2);
        assert_eq!(replayed.graph.sorted_edges(), engine.graph().sorted_edges());
        // heal() on a healthy engine is an idempotent no-op.
        engine.heal().unwrap();
        assert_eq!(engine.degraded_windows(), 1);
    }
}
