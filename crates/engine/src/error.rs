//! The engine's error surface: every fallible public entry point returns
//! [`EngineError`] — no `panic!`/`assert!` is reachable from user input.

use igc_graph::NodeId;
use std::fmt;
use std::sync::Arc;

/// One view's divergence from from-scratch recomputation, as reported by
/// [`Engine::verify_all`](crate::Engine::verify_all) inside
/// [`EngineError::ViewsDiverged`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverged view's registry label.
    pub label: Arc<str>,
    /// The view's own diagnosis (or the rendered panic cause, when the
    /// audit itself panicked).
    pub diagnosis: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.diagnosis)
    }
}

/// Everything that can go wrong at the engine's public API on user input.
///
/// Each variant corresponds to one rejected input class; none of them
/// poison the engine — after any `Err` the engine remains fully usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A `register*` call reused a label that is currently occupied.
    /// (Labels of *deregistered* views become available again.)
    DuplicateLabel {
        /// The label already in the registry.
        label: Arc<str>,
    },
    /// A handle referenced a slot that no longer holds the view it was
    /// issued for: the view was deregistered (and the slot possibly reused
    /// by a later registration, which bumped the slot's generation).
    StaleHandle {
        /// The handle's slot index.
        index: u32,
        /// The handle's generation (≠ the slot's current generation).
        generation: u32,
    },
    /// A typed accessor named a concrete view type that is not what the
    /// slot actually holds.
    WrongViewType {
        /// The view's registry label.
        label: Arc<str>,
        /// The concrete type the caller asked for.
        expected: &'static str,
    },
    /// The view is quarantined: a past `apply` panicked, the engine caught
    /// it, and the view has been fenced off since. Deregister it (and, if
    /// wanted, register a replacement built from the current graph).
    ViewQuarantined {
        /// The quarantined view's registry label.
        label: Arc<str>,
        /// Graph epoch of the commit whose `apply` panicked.
        epoch: u64,
        /// The rendered panic payload.
        cause: String,
    },
    /// `verify_all` (or `verify`) found views whose maintained answers
    /// diverge from from-scratch recomputation on the current graph.
    ViewsDiverged {
        /// One entry per diverged view, in slot order.
        failures: Vec<Divergence>,
    },
    /// A commit *insertion* referenced a node id far beyond the current
    /// graph, which would force allocation of the whole id gap (ids are
    /// dense). Deletions are exempt — they never materialize nodes, and a
    /// delete aimed past the graph is a no-op normalization drops. The
    /// bound is `node_count + `[`MAX_FRESH_NODES`](crate::MAX_FRESH_NODES).
    NodeOutOfBounds {
        /// The offending node id.
        node: NodeId,
        /// The first id past the admissible range at commit time.
        limit: u64,
    },
    /// A registration's builder panicked (or a background build's
    /// worker died); nothing was registered.
    InitPanicked {
        /// The label the view would have been registered under.
        label: Arc<str>,
        /// The rendered panic payload.
        cause: String,
    },
    /// The attached commit log failed — an I/O error, checksum mismatch
    /// or structural violation (the rendered
    /// [`LogError`](igc_log::LogError)). On the commit path this rejects
    /// the commit *atomically*: the append happens before the graph or
    /// any view is touched, so nothing moved.
    LogCorrupt {
        /// The rendered underlying log error.
        cause: String,
    },
    /// Replay or catch-up hit an epoch discontinuity: the log (or the
    /// state being caught up) skipped epochs, so the chain of commits
    /// cannot be reconstructed faithfully.
    EpochGap {
        /// The epoch the chain required next.
        expected: u64,
        /// The epoch actually found.
        found: u64,
    },
    /// A durability operation (checkpointing, background registration,
    /// …) was invoked on an engine without an attached commit log — see
    /// [`Engine::with_log`](crate::Engine::with_log) /
    /// [`Engine::recover`](crate::Engine::recover).
    NoLog {
        /// The rejected operation.
        operation: &'static str,
    },
    /// A freshness-gated replica read
    /// ([`Replica::ensure_fresh`](crate::Replica::ensure_fresh)) found
    /// the replica's replay frontier too far behind the leader's log
    /// head. Not a fault — the follower just has catching up to do
    /// ([`Replica::catch_up`](crate::Replica::catch_up)).
    ReplicaLagging {
        /// The replica's replay frontier (last consumed epoch).
        frontier: u64,
        /// The leader's last journaled epoch.
        leader_epoch: u64,
        /// `leader_epoch - frontier`, the lag that exceeded the bound.
        lag: u64,
    },
    /// A replica fell so far behind that
    /// [`CommitLog::compact`](igc_log::CommitLog::compact) dropped the
    /// deltas it still needed — possible only for *unpinned* followers
    /// ([`Replica::attach`](crate::Replica::attach)); followers created
    /// via [`Engine::replica`](crate::Engine::replica) hold a retention
    /// pin that prevents this. The replica cannot replay the missing
    /// deltas; [`Replica::reattach`](crate::Replica::reattach) re-seeds it
    /// from the newest checkpoint and lands the net diff as one delta
    /// ([`Replica::tail`](crate::Replica::tail) does so itself).
    FrontierCompacted {
        /// The replica's replay frontier (last consumed epoch).
        frontier: u64,
        /// The oldest delta epoch the log still retains.
        oldest: u64,
    },
    /// A submission was handed to an [`Ingest`](crate::Ingest) handle whose
    /// server has already shut down — its queue is closed and the engine
    /// is gone. Spawn a fresh [`IngestServer`](crate::IngestServer) and
    /// resubmit.
    IngestClosed,
    /// An awaited [`IngestTicket`](crate::IngestTicket) will never resolve:
    /// a commit tick panicked and the ingest server discarded the engine
    /// with the submission uncommitted. The update batch was **not**
    /// applied.
    SubmissionDropped,
    /// A journal operation failed with an I/O error. The failing commit
    /// was rejected atomically (write-ahead ordering: nothing moved), and
    /// the engine entered degraded read-only mode — see
    /// [`EngineError::Degraded`] and [`Engine::heal`](crate::Engine::heal).
    JournalFailed {
        /// The journal operation that failed (`"append"` or `"sync"`).
        operation: &'static str,
        /// The rendered I/O error.
        cause: String,
    },
    /// The engine is in **degraded read-only mode**: a past journal
    /// append or durability barrier failed, so accepting new commits
    /// could silently diverge the log from the graph. Reads, view queries
    /// and replica tailing all keep working; commits and checkpoints fail
    /// fast with this error until [`Engine::heal`](crate::Engine::heal)
    /// re-probes the journal and succeeds.
    Degraded {
        /// Graph epoch at which the engine entered degraded mode.
        since_epoch: u64,
        /// The rendered journal failure that triggered degradation.
        cause: String,
    },
    /// An [`Ingest::submit`](crate::Ingest::submit) found the bounded
    /// submission queue full and could not enqueue within its 100 ms
    /// wait — the overload-shedding contract: the batch was **not** accepted, so
    /// the caller can retry later or route elsewhere.
    Overloaded {
        /// The queue bound (1 024 submissions).
        capacity: usize,
        /// How long the submitter waited for a slot before giving up.
        waited: std::time::Duration,
    },
    /// A [`snapshot_at`](crate::SnapshotStore::snapshot_at) asked for an
    /// epoch the version GC already retired: no live
    /// [`Snapshot`](crate::Snapshot) pinned it, so the store dropped it
    /// at a later commit. Only epochs ≥ the oldest retained version (or
    /// ones still pinned by a live snapshot) can be served.
    EpochRetired {
        /// The requested epoch.
        epoch: u64,
        /// The oldest epoch the store still retains.
        oldest: u64,
    },
    /// A snapshot could not be taken: the requested epoch lies beyond
    /// every published version (the future), or the store's publish
    /// window did not settle within its wait bound (the committer died
    /// mid-publish). Nothing is pinned; retry after the next commit.
    SnapshotUnavailable {
        /// The requested epoch.
        epoch: u64,
        /// The newest published epoch at the time of the request.
        head: u64,
    },
}

impl From<igc_log::LogError> for EngineError {
    /// Epoch discontinuities keep their precise shape; every other log
    /// failure (I/O, corruption, empty/non-empty backend misuse) is
    /// surfaced as [`EngineError::LogCorrupt`] with the rendered cause.
    fn from(e: igc_log::LogError) -> Self {
        match e {
            igc_log::LogError::EpochGap { expected, found } => {
                EngineError::EpochGap { expected, found }
            }
            other => EngineError::LogCorrupt {
                cause: other.to_string(),
            },
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DuplicateLabel { label } => {
                write!(f, "view label {label:?} already registered")
            }
            EngineError::StaleHandle { index, generation } => write!(
                f,
                "stale view handle (slot {index}, generation {generation}): \
                 the view was deregistered"
            ),
            EngineError::WrongViewType { label, expected } => {
                write!(f, "view {label:?} is not a {expected}")
            }
            EngineError::ViewQuarantined {
                label,
                epoch,
                cause,
            } => write!(
                f,
                "view {label:?} quarantined at epoch {epoch} (apply panicked: {cause})"
            ),
            EngineError::ViewsDiverged { failures } => {
                write!(
                    f,
                    "{} view(s) diverged from recomputation: ",
                    failures.len()
                )?;
                for (i, d) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            EngineError::NodeOutOfBounds { node, limit } => write!(
                f,
                "update references node {node:?} beyond the admissible id range \
                 (< {limit} = node count + MAX_FRESH_NODES)"
            ),
            EngineError::InitPanicked { label, cause } => write!(
                f,
                "lazy registration of {label:?} failed: view builder panicked: {cause}"
            ),
            EngineError::LogCorrupt { cause } => {
                write!(f, "commit log failed: {cause}")
            }
            EngineError::EpochGap { expected, found } => write!(
                f,
                "commit log epoch gap: expected epoch {expected}, found {found}"
            ),
            EngineError::NoLog { operation } => write!(
                f,
                "{operation} requires a commit log: attach one with Engine::with_log \
                 or recover with Engine::recover"
            ),
            EngineError::ReplicaLagging {
                frontier,
                leader_epoch,
                lag,
            } => write!(
                f,
                "replica lagging: frontier epoch {frontier} is {lag} epoch(s) behind \
                 the leader (epoch {leader_epoch}); catch_up before reading"
            ),
            EngineError::FrontierCompacted { frontier, oldest } => write!(
                f,
                "replica frontier (epoch {frontier}) predates the oldest retained \
                 delta (epoch {oldest}): the history it needs was compacted away; \
                 attach a fresh replica"
            ),
            EngineError::IngestClosed => write!(
                f,
                "ingest server is shut down: the submission was not accepted; \
                 spawn a fresh IngestServer and resubmit"
            ),
            EngineError::SubmissionDropped => write!(
                f,
                "ingest submission dropped before commit: a commit tick panicked \
                 with the batch still queued or in flight; the batch was not applied"
            ),
            EngineError::JournalFailed { operation, cause } => write!(
                f,
                "journal {operation} failed: {cause}; \
                 the engine is degraded read-only until Engine::heal succeeds"
            ),
            EngineError::Degraded { since_epoch, cause } => write!(
                f,
                "engine degraded read-only since epoch {since_epoch} ({cause}); \
                 reads keep working, commits are rejected until Engine::heal succeeds"
            ),
            EngineError::Overloaded { capacity, waited } => write!(
                f,
                "ingest overloaded: submission queue full (capacity {capacity}) \
                 for {waited:?}; the batch was not accepted — retry later"
            ),
            EngineError::EpochRetired { epoch, oldest } => write!(
                f,
                "snapshot epoch {epoch} retired: no live pin held it, so version \
                 GC dropped it (oldest retained epoch is {oldest})"
            ),
            EngineError::SnapshotUnavailable { epoch, head } => write!(
                f,
                "snapshot at epoch {epoch} unavailable: newest published version \
                 is epoch {head}; retry after the next commit publishes"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::NodeId;

    /// Satellite of the durability PR: one *table-driven* Display
    /// round-trip covering **every** variant (PR 3 added per-variant
    /// construction tests; this one pins the messages). Each row is a
    /// constructed error plus the fragments its rendered message must
    /// contain — always including the offending label/epoch/limit, so a
    /// production log line is actionable without a debugger.
    ///
    /// Keep this table in sync with the enum: the `match` below has no
    /// wildcard arm, so adding a variant without a row fails to compile.
    #[test]
    fn every_variant_displays_its_offending_details() {
        let label: Arc<str> = Arc::from("rpq:tenant-7");
        let table: Vec<(EngineError, Vec<&str>)> = vec![
            (
                EngineError::DuplicateLabel {
                    label: label.clone(),
                },
                vec!["rpq:tenant-7", "already registered"],
            ),
            (
                EngineError::StaleHandle {
                    index: 3,
                    generation: 9,
                },
                vec!["slot 3", "generation 9", "deregistered"],
            ),
            (
                EngineError::WrongViewType {
                    label: label.clone(),
                    expected: "igc_rpq::inc::IncRpq",
                },
                vec!["rpq:tenant-7", "igc_rpq::inc::IncRpq"],
            ),
            (
                EngineError::ViewQuarantined {
                    label: label.clone(),
                    epoch: 41,
                    cause: "index out of bounds".into(),
                },
                vec!["rpq:tenant-7", "epoch 41", "index out of bounds"],
            ),
            (
                EngineError::ViewsDiverged {
                    failures: vec![
                        Divergence {
                            label: label.clone(),
                            diagnosis: "17 extra pairs".into(),
                        },
                        Divergence {
                            label: Arc::from("scc"),
                            diagnosis: "component split missed".into(),
                        },
                    ],
                },
                vec![
                    "2 view(s) diverged",
                    "rpq:tenant-7: 17 extra pairs",
                    "scc: component split missed",
                ],
            ),
            (
                EngineError::NodeOutOfBounds {
                    node: NodeId(1_048_999),
                    limit: 1_048_578,
                },
                vec!["n1048999", "1048578", "MAX_FRESH_NODES"],
            ),
            (
                EngineError::InitPanicked {
                    label: label.clone(),
                    cause: "builder exploded".into(),
                },
                vec!["rpq:tenant-7", "builder exploded"],
            ),
            (
                EngineError::LogCorrupt {
                    cause: "log corrupt at segment 2 offset 88: checksum mismatch".into(),
                },
                vec!["commit log failed", "segment 2 offset 88", "checksum"],
            ),
            (
                EngineError::EpochGap {
                    expected: 12,
                    found: 15,
                },
                vec!["expected epoch 12", "found 15"],
            ),
            (
                EngineError::NoLog {
                    operation: "register_background",
                },
                vec!["register_background", "Engine::with_log", "Engine::recover"],
            ),
            (
                EngineError::ReplicaLagging {
                    frontier: 90,
                    leader_epoch: 97,
                    lag: 7,
                },
                vec!["frontier epoch 90", "7 epoch(s) behind", "epoch 97"],
            ),
            (
                EngineError::FrontierCompacted {
                    frontier: 12,
                    oldest: 33,
                },
                vec!["epoch 12", "epoch 33", "compacted away", "fresh replica"],
            ),
            (
                EngineError::IngestClosed,
                vec!["shut down", "not accepted", "resubmit"],
            ),
            (
                EngineError::SubmissionDropped,
                vec!["dropped before commit", "still queued", "not applied"],
            ),
            (
                EngineError::JournalFailed {
                    operation: "append",
                    cause: "log I/O failed during append of segment 3: disk on fire".into(),
                },
                vec![
                    "journal append failed: log I/O failed",
                    "disk on fire",
                    "Engine::heal",
                ],
            ),
            (
                EngineError::Degraded {
                    since_epoch: 57,
                    cause: "unsettled sync debt".into(),
                },
                vec![
                    "degraded read-only since epoch 57",
                    "unsettled sync debt",
                    "Engine::heal",
                ],
            ),
            (
                EngineError::Overloaded {
                    capacity: 1024,
                    waited: std::time::Duration::from_millis(100),
                },
                vec!["queue full (capacity 1024)", "100ms", "not accepted"],
            ),
            (
                EngineError::EpochRetired {
                    epoch: 14,
                    oldest: 21,
                },
                vec!["epoch 14 retired", "GC", "oldest retained epoch is 21"],
            ),
            (
                EngineError::SnapshotUnavailable {
                    epoch: 99,
                    head: 42,
                },
                vec![
                    "epoch 99 unavailable",
                    "epoch 42",
                    "retry after the next commit",
                ],
            ),
        ];
        for (err, fragments) in &table {
            // Exhaustiveness guard: every variant must appear in the table
            // exactly as constructed above. A new variant added to the
            // enum makes this match non-exhaustive → compile error here.
            match err {
                EngineError::DuplicateLabel { .. }
                | EngineError::StaleHandle { .. }
                | EngineError::WrongViewType { .. }
                | EngineError::ViewQuarantined { .. }
                | EngineError::ViewsDiverged { .. }
                | EngineError::NodeOutOfBounds { .. }
                | EngineError::InitPanicked { .. }
                | EngineError::LogCorrupt { .. }
                | EngineError::EpochGap { .. }
                | EngineError::NoLog { .. }
                | EngineError::ReplicaLagging { .. }
                | EngineError::FrontierCompacted { .. }
                | EngineError::IngestClosed
                | EngineError::SubmissionDropped
                | EngineError::JournalFailed { .. }
                | EngineError::Degraded { .. }
                | EngineError::Overloaded { .. }
                | EngineError::EpochRetired { .. }
                | EngineError::SnapshotUnavailable { .. } => {}
            }
            let rendered = err.to_string();
            for fragment in fragments {
                assert!(
                    rendered.contains(fragment),
                    "{err:?} renders as {rendered:?}, missing {fragment:?}"
                );
            }
        }
        // Cheap coverage check in the other direction: 19 variants, 19 rows.
        assert_eq!(table.len(), 19);
    }

    #[test]
    fn log_errors_convert_with_precision() {
        assert_eq!(
            EngineError::from(igc_log::LogError::EpochGap {
                expected: 4,
                found: 9
            }),
            EngineError::EpochGap {
                expected: 4,
                found: 9
            }
        );
        let converted = EngineError::from(igc_log::LogError::Corrupt {
            segment: 1,
            offset: 64,
            reason: "bad magic".into(),
        });
        match &converted {
            EngineError::LogCorrupt { cause } => {
                assert!(cause.contains("segment 1"), "{cause}");
                assert!(cause.contains("bad magic"), "{cause}");
            }
            other => panic!("expected LogCorrupt, got {other:?}"),
        }
    }
}
