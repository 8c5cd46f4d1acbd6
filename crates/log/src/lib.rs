#![warn(missing_docs)]

//! Durable commit log for the multi-view engine: an append-only,
//! epoch-stamped journal of *normalized* ΔG batches with periodic full
//! graph checkpoints, and the replay machinery that turns `latest
//! checkpoint ≤ e` + tail into the graph at any logged epoch `e`.
//!
//! The paper's premise is that the change stream, not the graph, is the
//! unit of work; this crate makes that stream *durable*. Three layers:
//!
//! * **Codec** ([`codec`], [`record`]) — a hand-rolled binary wire format
//!   (no serde in the build environment): length-prefixed, CRC-32-sealed
//!   records in headered segments. Two record kinds: a committed
//!   normalized [`UpdateBatch`](igc_graph::UpdateBatch) stamped with its
//!   post-commit epoch, and a full
//!   [`DynamicGraph`](igc_graph::DynamicGraph) checkpoint snapshot.
//!   Decoding distinguishes a *torn tail* (crash mid-append; skipped) from
//!   *corruption* (checksum/structure failure; a hard error).
//! * **Backends** ([`backend`]) — object-safe segment storage:
//!   [`FileBackend`] (a directory of `segment-NNNNN.igclog` files) for
//!   deployment, [`MemBackend`] (shared, clonable) for tests and
//!   benchmarks. One writer and concurrent readers share a backend behind
//!   an `Arc`; appends are single atomic calls.
//! * **Log + replay** ([`CommitLog`], [`Replayer`]) — the append side
//!   enforces the epoch chain (`checkpoint e₀, delta e₀+1, e₀+2, …`) so
//!   anything accepted is replayable by construction; the read side
//!   rebuilds the graph at any epoch and catches lagging consumers up to
//!   the head ([`Replayer::catch_up`]) — the seam behind the engine's
//!   crash recovery and its log-shipped followers (read replicas, and the
//!   background view builds that are one).
//! * **Durability policy** ([`DurabilityMode`], [`CommitLog::sync`]) —
//!   when appends reach durable storage: never (page cache), per record,
//!   or batched group-commit barriers — one backend `sync` covering every
//!   record appended since the last barrier, issued when the window's
//!   `max_batch`/`max_delay` closes.
//! * **Fault injection** ([`chaos`]) — a fault-injection wrapper over any
//!   backend ([`ChaosBackend`]: one-shot torn appends and failed reads and
//!   syncs, armed by whoever drives it, plus read-side corruption and
//!   truncation). A failed append or barrier is tried once: the error
//!   surfaces to the caller, and a failed *policy-driven* barrier becomes
//!   *sync debt* ([`CommitLog::sync_debt`]) rather than failing an
//!   already-stored append. Nothing here retries; a caller that wants
//!   another attempt makes it.
//! * **Compaction** ([`CommitLog::compact`], [`RetentionPin`]) — every
//!   checkpoint starts a fresh segment, so whole segments behind the
//!   newest checkpoint can be dropped once no registered follower
//!   ([`CommitLog::register_pin`]) still needs them; the journal stays
//!   bounded under a steady checkpoint cadence while every live
//!   follower's catch-up window survives.
//!
//! ```
//! use igc_log::{CommitLog, MemBackend, Replayer};
//! use igc_graph::{graph::graph_from, NodeId, Update, UpdateBatch};
//! use std::sync::Arc;
//!
//! let backend = Arc::new(MemBackend::new());
//! let mut log = CommitLog::create(backend.clone()).unwrap();
//!
//! let mut g = graph_from(&[0, 0, 0], &[(0, 1)]);
//! log.append_checkpoint(&g).unwrap(); // replay base at epoch 0
//!
//! let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(1), NodeId(2))]);
//! g.apply_batch(&delta); // epoch 1
//! log.append_delta(g.epoch(), &delta).unwrap();
//!
//! // A crash later, the graph comes back bit-identical:
//! let replayed = Replayer::new(backend).latest().unwrap();
//! assert_eq!(replayed.graph.epoch(), 1);
//! assert_eq!(replayed.graph.sorted_edges(), g.sorted_edges());
//! ```

pub mod backend;
pub mod chaos;
pub mod codec;
pub mod error;
mod log;
pub mod record;
mod replay;

pub use backend::{FileBackend, LogBackend, MemBackend};
pub use chaos::{ChaosBackend, ChaosStats};
pub use error::LogError;
pub use log::{CommitLog, Compaction, DurabilityMode, RetentionPin, DEFAULT_SEGMENT_BYTES};
pub use record::Record;
pub use replay::{LogSummary, Replayed, Replayer};
