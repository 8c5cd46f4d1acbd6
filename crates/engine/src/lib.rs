#![warn(missing_docs)]

//! The multi-view incremental engine: one shared dynamic graph, one ΔG
//! commit pipeline, many registered query views — with a full view
//! lifecycle and per-view fault isolation.
//!
//! The paper's four incremental algorithms each maintain *one* standing
//! query over a graph the caller updates by hand. A serving system inverts
//! that shape: it owns the graph, accepts arbitrary (possibly denormalized)
//! update batches from clients, and fans each committed ΔG out to *every*
//! registered view — the incremental-view-maintenance architecture of
//! Szárnyas's property-graph IVM work, with Fan–Hu–Tian algorithms as the
//! per-view maintenance procedures. Incremental maintenance only pays off
//! when views are *long-lived*, so the registry is built for long lives:
//! views join at any epoch ([`Engine::register`] builds their initial
//! state from the current graph — Liu's initialization-from-current-state
//! dual of maintenance), leave at any epoch ([`Engine::deregister`], with
//! totals retained), and fail alone (a panicking `apply` quarantines that
//! view, not the engine).
//!
//! [`Engine::commit`] is the whole pipeline:
//!
//! 1. **normalize once** —
//!    [`UpdateBatch::normalize_against`](igc_graph::UpdateBatch::normalize_against)
//!    drops no-op deletions/insertions, dedupes, and cancels insert/delete
//!    pairs, so clients never have to pre-filter;
//! 2. **apply ΔG to the graph exactly once**, bumping the graph
//!    [epoch](igc_graph::DynamicGraph::epoch);
//! 3. **propagate** the normalized delta to every live active
//!    [`IncView`](igc_core::IncView), on the committing thread in slot
//!    order — timing each view, attributing its
//!    [`WorkStats`](igc_core::WorkStats) delta, and catching panics
//!    (quarantine instead of unwind);
//! 4. return a [`CommitReceipt`] with per-view outcomes and commit-wide
//!    totals, labels shared as `Arc<str>` (no per-commit string cloning).
//!
//! Every entry point taking user input returns `Result<_, `[`EngineError`]`>`
//! — duplicate labels, stale handles, wrong-type downcasts, out-of-range
//! node ids, quarantined-view access and commit-log failures are all
//! errors, never panics.
//!
//! **Durability** (the `igc_log` integration): [`Engine::with_log`]
//! attaches a commit log — every successful commit then journals its
//! normalized delta *write-ahead* (appended, epoch-chained, before the
//! graph or any view is touched), with periodic graph checkpoints
//! ([`Engine::set_checkpoint_every`]) bounding the replay tail.
//! [`Engine::recover`] rebuilds a crashed engine's graph bit-for-bit from
//! `latest checkpoint + tail replay`, ready for views to re-join via
//! [`Engine::register`]. And [`Engine::register_background`] builds
//! a joining view's initial state *off the commit path* — a worker runs a
//! pinned [`Replica`] holding just that view while commits keep flowing —
//! then [`Engine::join_background`] catches it up on the log tail and
//! moves the view into the registry, answer-identical to a view registered
//! before those commits.
//!
//! **Ingest** ([`ingest` module](IngestServer)): the async front door
//! for heavy write traffic. [`IngestServer::spawn`] puts the engine behind
//! a lock; concurrent clients clone an [`Ingest`] handle, queue batches,
//! and await [`IngestTicket`]s for their receipts. The waiting client runs
//! the commit tick on its own thread (no ingest thread exists): a tick
//! coalesces up to 64 queued submissions into one normalized mega-batch
//! (order-faithful normalization makes that bit-identical to
//! per-submission commits) and commits it with [`Engine::commit`], so a
//! wave submitted and then awaited always commits as one tick, and
//! [`DurabilityMode`](igc_log::DurabilityMode) group-commit batches
//! fsyncs across a tick's records — one barrier instead of one per
//! submission ([`Engine::set_durability`]).
//!
//! **MVCC snapshot reads** ([`snapshot` module](SnapshotStore)):
//! [`Engine::snapshot`] pins the newest published version — the graph and
//! every view's answers exactly as the last commit left them — as a
//! [`Snapshot`] handle served *lock-free* to any number of reader threads
//! while commits keep flowing ([`Engine::snapshot_at`] pins a specific
//! retained epoch). The engine owns its views and mutates them in place;
//! a version holds the copy each view publishes of itself
//! ([`IncView::clone_view`](igc_core::IncView::clone_view) — the answer
//! behind `Arc`s, none of the auxiliary state), so publishing is a few
//! `Arc` bumps per view, a held pin costs per commit the graph's edge
//! set and list handles, the adjacency lists the commit writes and each
//! answer's container, and a pre-commit GC drops every unpinned
//! version, so with no pins nothing is copied and the retained window
//! stays ≤ distinct pinned epochs + 1.
//! Through the ingest front door, [`Ingest::snapshot`] pins versions
//! without taking the engine lock a running tick holds; degraded read-only
//! mode never gates snapshot creation or pinned reads.
//!
//! **One engine, one read path**: a [`Replica`] derefs to the [`Engine`]
//! the log feeds, whose replayed deltas land through a leader's commit
//! stage, and a [`Snapshot`] resolves handles through the registry's read
//! function. So a [`ViewHandle`] reads a leader, a follower and a snapshot
//! of either ([`Engine::view`], [`Snapshot::view`]) under one contract:
//! [`EngineError::StaleHandle`], [`EngineError::ViewQuarantined`],
//! [`EngineError::WrongViewType`].
//!
//! **Replication** ([`replica` module](Replica)): [`Engine::replica`]
//! creates a log-shipped read [`Replica`] — a follower engine with its
//! own graph and views that tails the journal ([`Replica::catch_up`] /
//! [`Replica::tail`]), reports its staleness ([`Replica::status`],
//! [`Replica::ensure_fresh`]), and holds a retention pin so
//! [`Engine::compact_log`] — which drops whole log segments behind the
//! newest checkpoint — never cuts off a live follower's catch-up window.
//! Journal I/O is tried once. A failed append or barrier rejects the
//! commit and degrades the writer until [`Engine::heal`] succeeds; a
//! follower's read error surfaces from [`Replica::catch_up`] /
//! [`Replica::tail`]. A caller that wants another attempt makes it.
//!
//! ```
//! use igc_engine::Engine;
//! use igc_graph::{graph::graph_from, NodeId, Update, UpdateBatch};
//!
//! let mut engine = Engine::new(graph_from(&[0, 0, 0], &[(0, 1)]));
//! // (register views here — see `Engine::register`)
//! let receipt = engine
//!     .commit(&UpdateBatch::from_updates(vec![
//!         Update::insert(NodeId(1), NodeId(2)),
//!         Update::insert(NodeId(1), NodeId(2)), // duplicate: normalized away
//!         Update::delete(NodeId(2), NodeId(0)), // absent edge: normalized away
//!     ]))
//!     .unwrap();
//! assert_eq!(receipt.applied, 1);
//! assert_eq!(receipt.dropped, 2);
//! assert_eq!(engine.epoch(), 1);
//! ```

mod background;
mod durability;
mod engine;
mod error;
mod ingest;
mod lifecycle;
mod receipt;
mod registry;
mod replica;
mod snapshot;

pub use background::BackgroundBuild;
pub use engine::{CommitMode, Engine, PreparedCommit, DEFAULT_CHECKPOINT_EVERY, MAX_FRESH_NODES};
pub use error::{Divergence, EngineError};
pub use ingest::{Ingest, IngestReceipt, IngestServer, IngestTicket};
pub use lifecycle::{LifecycleEvent, LifecycleEventKind, ViewHandle, ViewId, ViewState};
pub use receipt::{CommitReceipt, EngineTotals, ViewCommitStats, ViewOutcome, ViewTotals};
pub use replica::{Replica, ReplicaStatus};
pub use snapshot::{Snapshot, SnapshotStore, SnapshotStoreStats};
