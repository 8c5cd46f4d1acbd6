//! The engine's durability layer: write-ahead journaling, checkpoints,
//! crash recovery, pinned replicas, log compaction, and the degraded
//! read-only mode a dead journal puts the engine in. One `impl Engine`
//! block; the commit pipeline (`engine.rs`) calls [`Engine::journal`].

use crate::engine::Engine;
use crate::error::EngineError;
use crate::replica::Replica;
use igc_graph::UpdateBatch;
use igc_log::{
    CommitLog, Compaction, DurabilityMode, LogBackend, LogError, RetentionPin, RetryPolicy,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why (and since when) the engine is in degraded read-only mode.
pub(crate) struct DegradedState {
    /// Graph epoch when the engine degraded.
    since_epoch: u64,
    /// Rendered journal failure that triggered it.
    cause: String,
    /// When degradation began, for the windows' wall-clock accounting.
    entered_at: Instant,
}

/// The attached log, or [`EngineError::NoLog`] naming the operation that
/// needed one. Takes the field, not the engine, so the graph stays
/// borrowable beside it.
fn attached_mut<'a>(
    log: &'a mut Option<CommitLog>,
    operation: &'static str,
) -> Result<&'a mut CommitLog, EngineError> {
    log.as_mut().ok_or(EngineError::NoLog { operation })
}

impl Engine {
    /// Attach a durable commit log on an **empty** backend: every
    /// subsequent successful commit journals its normalized delta
    /// *write-ahead* — the record is appended (and its epoch chained)
    /// before the graph or any view is touched, so a failed append
    /// rejects the commit atomically and the log never lags the engine.
    /// An initial checkpoint of the current graph is written immediately
    /// as the replay base.
    ///
    /// Errors with [`EngineError::LogCorrupt`] when the backend already
    /// holds history (recover from it instead — [`Engine::recover`]) or
    /// the initial checkpoint cannot be written.
    pub fn with_log(mut self, backend: Arc<dyn LogBackend>) -> Result<Self, EngineError> {
        let mut log = CommitLog::create(backend)?;
        log.append_checkpoint(&self.graph)?;
        self.log = Some(log);
        self.logged_since_checkpoint = 0;
        Ok(self)
    }

    /// Rebuild an engine from a logged history: open the backend,
    /// validate checksums and the epoch chain, restore the latest
    /// checkpoint and replay the delta tail — yielding a graph
    /// bit-identical (edges, labels, epoch) to the crashed engine's at
    /// its last *journaled* commit. The log stays attached, so commits
    /// resume journaling exactly where the old engine stopped.
    ///
    /// Views are **not** resurrected — the journal records deltas, not
    /// view state. Re-register them (typically via
    /// [`Engine::register`], whose builder runs against the
    /// recovered graph): the combination "replayed graph + from-scratch
    /// init" reproduces each view's answers exactly, since every builder
    /// is a deterministic function of the graph ([`Engine::register`]).
    ///
    /// Settings are **not** resurrected either — the journal holds none.
    /// The recovered engine starts from the defaults: checkpoint cadence
    /// [`DEFAULT_CHECKPOINT_EVERY`], [`DurabilityMode::None`],
    /// [`RetryPolicy::none`] and [`CommitMode::Sequential`]. A caller that
    /// ran with others re-applies them ([`Engine::set_checkpoint_every`],
    /// [`Engine::set_durability`], [`Engine::set_retry_policy`],
    /// [`Engine::set_commit_mode`]) before its first commit, or a crashed
    /// `GroupCommit` engine resumes un-synced.
    ///
    /// [`DEFAULT_CHECKPOINT_EVERY`]: crate::DEFAULT_CHECKPOINT_EVERY
    /// [`CommitMode::Sequential`]: crate::CommitMode::Sequential
    pub fn recover(backend: Arc<dyn LogBackend>) -> Result<Self, EngineError> {
        let log = CommitLog::open(backend)?;
        let replayed = log.replayer().latest()?;
        let mut engine = Engine::new(replayed.graph);
        // Seed the cadence counter with the existing tail (one delta per
        // epoch past the last checkpoint): a process that crashes and
        // recovers more often than it checkpoints must not reset the
        // counter each time, or no checkpoint is ever written again and
        // the replay tail grows without bound across restarts.
        engine.logged_since_checkpoint = log
            .last_epoch()
            .unwrap_or(0)
            .saturating_sub(log.last_checkpoint().unwrap_or(0));
        engine.log = Some(log);
        Ok(engine)
    }

    /// The attached commit log, if any — for stats
    /// ([`CommitLog::deltas`], [`CommitLog::bytes`], …) and for taking a
    /// [`Replayer`](igc_log::Replayer) over its backend.
    pub fn log(&self) -> Option<&CommitLog> {
        self.log.as_ref()
    }

    /// Journal a checkpoint of the current graph right now
    /// ([`EngineError::NoLog`] without an attached log). Also resets the
    /// cadence counter.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        if let Some(e) = self.degraded_error() {
            return Err(e);
        }
        let log = attached_mut(&mut self.log, "checkpoint")?;
        log.append_checkpoint(&self.graph)?;
        self.logged_since_checkpoint = 0;
        Ok(())
    }

    /// Set the checkpoint cadence: a graph snapshot is journaled after
    /// every `n` logged commits (default [`DEFAULT_CHECKPOINT_EVERY`]),
    /// bounding recovery's replay tail at the cost of snapshot bytes.
    /// `0` disables automatic checkpoints ([`Engine::checkpoint`] still
    /// works). No-op without a log.
    ///
    /// [`DEFAULT_CHECKPOINT_EVERY`]: crate::DEFAULT_CHECKPOINT_EVERY
    pub fn set_checkpoint_every(&mut self, n: u64) {
        self.checkpoint_every = n;
    }

    /// The write-ahead half of [`Engine::prepare`]: journal a non-empty
    /// normalized `delta` — the cadence checkpoint first if one is due,
    /// then the delta chained to exactly the epoch applying it will
    /// produce — and return the journal retries absorbed. `Ok(0)` on an
    /// engine without a log.
    pub(crate) fn journal(&mut self, delta: &UpdateBatch) -> Result<u64, EngineError> {
        let Some(log) = &mut self.log else {
            return Ok(0);
        };
        let retries_before = log.append_retries() + log.sync_retries();
        let mut journaled = Ok(());
        if self.checkpoint_every > 0 && self.logged_since_checkpoint >= self.checkpoint_every {
            journaled = log.append_checkpoint(&self.graph);
            if journaled.is_ok() {
                self.logged_since_checkpoint = 0;
            }
        }
        let journaled = journaled.and_then(|()| log.append_delta(self.graph.epoch() + 1, delta));
        let log_retries = (log.append_retries() + log.sync_retries()) - retries_before;
        // A policy-driven barrier that failed did NOT fail the append (the
        // record is stored; failing it would make a correct caller retry
        // and double-append the epoch — see CommitLog::sync_debt). But it
        // leaves acknowledged records non-durable, so no *further* commit
        // may proceed until Engine::heal settles the debt.
        let debt = log.sync_debt().map(|d| format!("unsettled sync debt: {d}"));
        // Write-ahead ordering rejects a failed commit atomically (the
        // chain never advanced).
        journaled.map_err(|e| self.journal_failed("append", e))?;
        self.logged_since_checkpoint += 1;
        if let Some(cause) = debt {
            self.enter_degraded(cause);
        }
        Ok(log_retries)
    }

    /// Create a **pinned** read replica over this engine's commit log
    /// ([`EngineError::NoLog`] without one): a follower engine, with its
    /// own graph and views, that the journal feeds and that serves reads at
    /// its replay frontier — see [`Replica`] for the model. The replica
    /// seeds from the newest checkpoint plus the delta tail, so it is
    /// current as of this call.
    ///
    /// The engine registers a [`RetentionPin`](igc_log::RetentionPin)
    /// for it: [`Engine::compact_log`] will never drop the history this
    /// follower still needs, however far it falls behind, and dropping
    /// the replica releases the pin automatically. For followers in
    /// *other* processes (over a shared
    /// [`FileBackend`](igc_log::FileBackend) directory), use
    /// [`Replica::attach`] — unpinned, at the cost of
    /// [`EngineError::FrontierCompacted`] if compaction outruns them.
    pub fn replica(&mut self) -> Result<Replica, EngineError> {
        let (backend, pin) = self.pin_log("replica")?;
        Replica::attach_pinned(backend, Some(pin))
    }

    /// What an in-process follower attaches with
    /// ([`Replica::attach_pinned`]): the log's backend and a fresh
    /// retention pin at the newest checkpoint — exactly the seed base the
    /// attach will replay from. `&mut self` serializes this against
    /// compact_log, so the pin can never race a compaction.
    pub(crate) fn pin_log(
        &mut self,
        operation: &'static str,
    ) -> Result<(Arc<dyn LogBackend>, RetentionPin), EngineError> {
        let log = attached_mut(&mut self.log, operation)?;
        let pin = log.register_pin(log.last_checkpoint().unwrap_or(0));
        Ok((log.backend(), pin))
    }

    /// Compact the commit log ([`EngineError::NoLog`] without one): drop
    /// every whole segment behind the newest checkpoint that all
    /// registered (live) replicas have already consumed past — see
    /// [`CommitLog::compact`]. Bounds journal growth under a steady
    /// checkpoint cadence; safe to call at any time (a call that can
    /// drop nothing is a successful no-op).
    pub fn compact_log(&mut self) -> Result<Compaction, EngineError> {
        let log = attached_mut(&mut self.log, "compact_log")?;
        Ok(log.compact()?)
    }

    /// Set the attached log's [`DurabilityMode`] — when journal appends
    /// reach durable storage: never beyond the page cache
    /// ([`DurabilityMode::None`], the default), one fsync barrier per
    /// record ([`DurabilityMode::EveryAppend`]), or batched group-commit
    /// barriers ([`DurabilityMode::GroupCommit`]: one fsync covering every
    /// record since the last barrier, issued when the window's
    /// `max_batch`/`max_delay` closes). Takes effect from the next append;
    /// [`EngineError::NoLog`] without an attached log.
    pub fn set_durability(&mut self, mode: DurabilityMode) -> Result<(), EngineError> {
        let log = attached_mut(&mut self.log, "set_durability")?;
        log.set_durability(mode);
        Ok(())
    }

    /// Force a durability barrier right now: fsync every journal record
    /// appended since the last barrier (a no-op when nothing is pending).
    /// The explicit flush for quiesce points — e.g. the ingest server
    /// calls this before parking on an empty queue, so "queue drained"
    /// always implies "everything accepted is durable" under group
    /// commit. [`EngineError::NoLog`] without an attached log.
    pub fn sync_log(&mut self) -> Result<(), EngineError> {
        let log = attached_mut(&mut self.log, "sync_log")?;
        // A failed explicit barrier means records we acknowledged may not
        // be durable: stop taking new commits until healed.
        log.sync().map_err(|e| self.journal_failed("sync", e))
    }

    /// What a failed journal write becomes. A transient error that
    /// survived the whole retry budget means the device is genuinely down:
    /// degrade to read-only instead of grinding every later commit against
    /// a dead journal.
    fn journal_failed(&mut self, operation: &'static str, e: LogError) -> EngineError {
        if !RetryPolicy::is_transient(&e) {
            return e.into();
        }
        let cause = e.to_string();
        self.enter_degraded(cause.clone());
        let policy = self.log.as_ref().map(CommitLog::retry_policy);
        EngineError::RetriesExhausted {
            operation,
            attempts: policy.unwrap_or_default().attempts(),
            cause,
        }
    }

    /// Set the attached log's [`RetryPolicy`]: bounded exponential-backoff
    /// retry for transient journal I/O failures on the append and sync
    /// paths. The default is [`RetryPolicy::none`] — fail on the first
    /// error. Retries a commit absorbed are reported in its receipt
    /// ([`CommitReceipt::log_retries`]).
    /// [`EngineError::NoLog`] without an attached log.
    ///
    /// [`CommitReceipt::log_retries`]: crate::CommitReceipt::log_retries
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> Result<(), EngineError> {
        let log = attached_mut(&mut self.log, "set_retry_policy")?;
        log.set_retry_policy(policy);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Degraded read-only mode
    // ------------------------------------------------------------------

    /// Whether the engine is in degraded read-only mode: a journal append
    /// or durability barrier exhausted its retry budget (or left
    /// unsettled sync debt), so commits and checkpoints fail fast with
    /// [`EngineError::Degraded`] until [`Engine::heal`] succeeds. Reads,
    /// view queries, audits and replica tailing are unaffected.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The [`EngineError::Degraded`] a commit would be rejected with
    /// right now, or `None` when healthy. Used by the ingest server to
    /// fail submissions fast instead of queueing them into a wall.
    pub fn degraded_error(&self) -> Option<EngineError> {
        self.degraded.as_ref().map(|d| EngineError::Degraded {
            since_epoch: d.since_epoch,
            cause: d.cause.clone(),
        })
    }

    /// Completed degraded windows: times the engine entered degraded
    /// mode *and* was subsequently healed.
    pub fn degraded_windows(&self) -> u64 {
        self.degraded_windows
    }

    /// Total wall-clock time spent degraded across completed windows
    /// (the current window, if any, is not included until healed).
    pub fn degraded_elapsed(&self) -> Duration {
        self.degraded_elapsed
    }

    /// Leave degraded mode by re-probing the journal: settle any
    /// outstanding sync debt with a durability barrier, then append a
    /// fresh checkpoint of the current graph. Both must succeed —
    /// the checkpoint doubles as the write probe *and* restores a clean
    /// replay base on the same epoch chain (failed appends never advanced
    /// the chain, and the log rotates past its own garbage, so healing
    /// resumes journaling exactly where the last acknowledged commit
    /// stopped).
    ///
    /// On success the engine is read-write again and the window is
    /// accounted ([`Engine::degraded_windows`],
    /// [`Engine::degraded_elapsed`]). On failure the engine stays
    /// degraded and the journal error is returned — call again once the
    /// fault has actually cleared (the probe itself runs under the log's
    /// [`RetryPolicy`]). Healthy engines return `Ok(())` immediately;
    /// [`EngineError::NoLog`] without an attached log.
    pub fn heal(&mut self) -> Result<(), EngineError> {
        if self.degraded.is_none() {
            return Ok(());
        }
        let log = attached_mut(&mut self.log, "heal")?;
        // Settle sync debt first: acknowledged records must be durable
        // before we declare the journal healthy again.
        log.sync()?;
        log.append_checkpoint(&self.graph)?;
        self.logged_since_checkpoint = 0;
        if let Some(d) = self.degraded.take() {
            self.degraded_windows += 1;
            self.degraded_elapsed += d.entered_at.elapsed();
        }
        Ok(())
    }

    /// Flip into degraded read-only mode (no-op if already degraded — the
    /// first cause wins, since later failures are its consequences).
    pub(crate) fn enter_degraded(&mut self, cause: String) {
        if self.degraded.is_none() {
            self.degraded = Some(DegradedState {
                since_epoch: self.graph.epoch(),
                cause,
                entered_at: Instant::now(),
            });
        }
    }
}
