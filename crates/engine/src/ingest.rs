//! The async ingest front door: many concurrent submitters, one coalesced
//! ΔG per commit tick, and no thread of its own — the submitter that
//! waits runs the tick.
//!
//! The paper's economics make batching the highest-leverage throughput
//! win available: incremental maintenance cost scales with the *net*
//! delta, not with how many submissions carried it, and
//! [`UpdateBatch::normalize_against`] is order-faithful
//! (last-update-per-edge), so concatenating pending submissions in
//! arrival order and normalizing **once** is semantics-preserving —
//! bit-identical graph and view answers to committing each submission on
//! its own (property-tested in `tests/engine_consistency.rs`).
//!
//! Shape: [`IngestServer::spawn`] puts the [`Engine`] behind a lock and
//! hands out clonable [`Ingest`] handles. [`Ingest::submit`] only queues
//! an [`UpdateBatch`] and returns an [`IngestTicket`] the submitter can
//! await for its [`IngestReceipt`] (assigned epoch + the shared
//! [`CommitReceipt`] of the tick that carried it). [`IngestTicket::wait`]
//! runs the ticks: while its receipt has not arrived, it takes the engine
//! lock and, on the caller's thread, drains up to 64 queued submissions,
//! coalesces them into one mega-batch, commits it with
//! [`Engine::commit`] and resolves every ticket it carried. A submission
//! leaves the queue only under the engine lock and is resolved before
//! that lock is released, so a client that submits a wave (of up to 64)
//! and then waits gets exactly one tick for it: tick boundaries follow
//! from the inputs, never from when some thread happens to wake up.
//! A queued submission commits when some ticket is waited on, or at
//! [`IngestServer::shutdown`] or drop; a queue nobody waits on fills up
//! and then sheds.
//!
//! Durability composes: [`IngestServer::set_durability`] flips the
//! engine log's [`DurabilityMode`] mid-run, and a tick that leaves the
//! queue empty issues an explicit [`Engine::sync_log`] barrier (as does
//! shutdown), so "queue drained" always implies "everything accepted is
//! durable" under group commit.
//!
//! Overload and fault propagation: the submission queue is **bounded**
//! (1 024 submissions) — a submitter that cannot enqueue within 100 ms
//! is shed with [`EngineError::Overloaded`] instead of growing the queue
//! without limit. And when the engine is in degraded read-only mode (a
//! journal write failed — see [`Engine::heal`]), submissions are rejected
//! at admission with [`EngineError::Degraded`] through their tickets,
//! so callers observe the outage instead of queueing into a wall.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::receipt::CommitReceipt;
use crate::snapshot::{Snapshot, SnapshotStore};
use igc_graph::UpdateBatch;
use igc_log::DurabilityMode;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One client submission: the batch plus the channel its receipt goes
/// back on.
struct Submission {
    batch: UpdateBatch,
    reply: Sender<Result<IngestReceipt, EngineError>>,
}

/// Most submissions coalesced into one commit tick.
const MAX_COALESCE: usize = 64;
/// Bound on the submission queue: past it, [`Ingest::submit`] waits up to
/// [`SUBMIT_TIMEOUT`] for a slot, then sheds the submission with
/// [`EngineError::Overloaded`] — backpressure instead of unbounded memory
/// growth when submitters outrun the ticks.
const MAX_QUEUE: usize = 1024;
/// How long [`Ingest::submit`] waits for a queue slot before shedding.
const SUBMIT_TIMEOUT: Duration = Duration::from_millis(100);

/// What a server, its handles and their tickets share.
struct Door {
    /// `None` once the server has shut down.
    engine: Mutex<Option<Engine>>,
    /// Submissions waiting for a tick; `None` once the server has shut
    /// down. Locked after `engine` whenever both are held.
    queue: Mutex<Option<VecDeque<Submission>>>,
    /// The engine's store, so handles pin versions without the engine
    /// lock, and after the engine is gone.
    snapshots: Arc<SnapshotStore>,
}

impl Door {
    /// The engine lock. A tick that panicked left the engine in an
    /// unknown state: it is discarded with the queue, and the server
    /// counts as shut down.
    fn engine(&self) -> MutexGuard<'_, Option<Engine>> {
        self.engine.lock().unwrap_or_else(|poisoned| {
            let mut engine = poisoned.into_inner();
            *engine = None;
            *self.queue() = None;
            engine
        })
    }

    fn queue(&self) -> MutexGuard<'_, Option<VecDeque<Submission>>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One commit tick on the caller's thread: commit up to
    /// [`MAX_COALESCE`] queued submissions as one batch, then the quiesce
    /// barrier if that left the queue empty. `false` once shut down.
    fn tick(&self) -> bool {
        let mut engine = self.engine();
        let Some(engine) = engine.as_mut() else {
            return false;
        };
        // The queue lock is dropped before the commit: submitters keep
        // enqueueing while it runs.
        let group: Vec<Submission> = match self.queue().as_mut() {
            Some(queue) => queue.drain(..queue.len().min(MAX_COALESCE)).collect(),
            None => Vec::new(),
        };
        commit(engine, group);
        if self.queue().as_ref().is_none_or(VecDeque::is_empty) {
            barrier(engine);
        }
        true
    }

    /// Close the queue (later submissions get
    /// [`EngineError::IngestClosed`]), commit what it held, run the final
    /// barrier, and take the engine — all under the engine lock, so no
    /// waiter ever finds its submission neither queued nor resolved.
    fn close(&self) -> Option<Engine> {
        let mut slot = self.engine();
        let mut queued = self.queue().take().unwrap_or_default();
        let engine = slot.as_mut()?;
        while !queued.is_empty() {
            commit(engine, queued.drain(..queued.len().min(MAX_COALESCE)));
        }
        barrier(engine);
        slot.take()
    }
}

impl std::fmt::Debug for Door {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Door").finish_non_exhaustive()
    }
}

/// Commit one tick's group. Each submission is admission-checked on its
/// own, so one out-of-bounds batch is rejected alone instead of poisoning
/// the tick, and a degraded engine fails the ticket at admission
/// ([`EngineError::Degraded`]) instead of queueing it into a wall. The
/// rest are coalesced in arrival order, so the order-faithful
/// normalization sees exactly the sequential history, and every ticket
/// the commit carried is resolved with its outcome.
fn commit(engine: &mut Engine, group: impl IntoIterator<Item = Submission>) {
    let mut mega = UpdateBatch::new();
    let mut waiters = Vec::new();
    for sub in group {
        match engine
            .degraded_error()
            .map_or_else(|| engine.admit(&sub.batch), Err)
        {
            Ok(()) => {
                for u in sub.batch.iter() {
                    mega.push(*u);
                }
                waiters.push((sub.batch.len(), sub.reply));
            }
            Err(e) => {
                let _ = sub.reply.send(Err(e));
            }
        }
    }
    if waiters.is_empty() {
        return;
    }
    let outcome = engine.commit(&mega).map(Arc::new);
    let coalesced = waiters.len();
    for (units, reply) in waiters {
        let _ = reply.send(match &outcome {
            Ok(commit) => Ok(IngestReceipt {
                epoch: commit.epoch,
                units,
                coalesced,
                commit: Arc::clone(commit),
            }),
            Err(e) => Err(e.clone()),
        });
    }
}

/// Make everything committed so far durable. A failed barrier degrades
/// the engine, so the next tick rejects at admission.
fn barrier(engine: &mut Engine) {
    if engine.log().is_some_and(|l| l.unsynced_appends() > 0) {
        let _ = engine.sync_log();
    }
}

/// What a submitter gets back for one accepted submission, once the tick
/// that carried it commits.
#[derive(Debug, Clone)]
pub struct IngestReceipt {
    /// Graph epoch assigned to the commit tick this submission rode in
    /// (all submissions of one tick share it).
    pub epoch: u64,
    /// Unit count of *this* submission as submitted (pre-normalization —
    /// the tick's shared receipt holds the post-normalization totals).
    pub units: usize,
    /// How many submissions were coalesced into the tick.
    pub coalesced: usize,
    /// The full receipt of the carrying commit, shared by every
    /// submitter of the tick.
    pub commit: Arc<CommitReceipt>,
}

/// A clonable submission handle to an [`IngestServer`]. Cheap to clone
/// (one `Arc`); any number of threads can submit concurrently.
#[derive(Clone, Debug)]
pub struct Ingest {
    door: Arc<Door>,
}

impl Ingest {
    /// Queue a batch for a later commit tick (run by whoever next waits
    /// on a ticket). Returns with a ticket to await — immediately while
    /// the bounded queue has room, after a bounded wait otherwise. Errors
    /// with [`EngineError::Overloaded`] when no slot of the
    /// 1 024-submission queue frees up within 100 ms (the shed contract:
    /// the batch was *not* accepted, retry later), and with
    /// [`EngineError::IngestClosed`] once the server has shut down.
    pub fn submit(&self, batch: UpdateBatch) -> Result<IngestTicket, EngineError> {
        let (reply, rx) = mpsc::channel();
        let sub = Submission { batch, reply };
        let start = Instant::now();
        loop {
            match self.door.queue().as_mut() {
                None => return Err(EngineError::IngestClosed),
                Some(queue) if queue.len() < MAX_QUEUE => {
                    queue.push_back(sub);
                    let door = Arc::clone(&self.door);
                    return Ok(IngestTicket { rx, door });
                }
                Some(_) => {}
            }
            let waited = start.elapsed();
            if waited >= SUBMIT_TIMEOUT {
                return Err(EngineError::Overloaded {
                    capacity: MAX_QUEUE,
                    waited,
                });
            }
            // Brief nap, bounded by the remaining budget: the queue
            // drains a tick at a time, not per record, so busy-spinning
            // would only steal the waiters' CPU.
            std::thread::sleep(Duration::from_micros(200).min(SUBMIT_TIMEOUT - waited));
        }
    }

    /// Pin the newest published MVCC version as a [`Snapshot`] — the
    /// graph and every view's answers exactly as the most recently
    /// *published* commit tick left them — without contending with a
    /// running tick (the pin is a short store lock, never the engine lock
    /// or the queue). Snapshots keep serving while the engine is
    /// in degraded read-only mode ([`Ingest::submit`] would be shed with
    /// [`EngineError::Degraded`], but reads stay up). Errors with
    /// [`EngineError::SnapshotUnavailable`] only if a publish stalls past
    /// its internal wait — see [`Engine::snapshot`] for the full
    /// contract.
    pub fn snapshot(&self) -> Result<Snapshot, EngineError> {
        self.door.snapshots.snapshot()
    }

    /// Pin the retained version at exactly `epoch` — see
    /// [`Engine::snapshot_at`] for the retention contract
    /// ([`EngineError::EpochRetired`] when GC already dropped it,
    /// [`EngineError::SnapshotUnavailable`] when it has not been
    /// published yet).
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot, EngineError> {
        self.door.snapshots.snapshot_at(epoch)
    }
}

/// The awaitable half of one submission: resolves to the submission's
/// [`IngestReceipt`] once its tick commits, to the error that rejected
/// it (e.g. [`EngineError::NodeOutOfBounds`] at admission, or a log
/// failure at its tick's commit), or to
/// [`EngineError::SubmissionDropped`] if a tick panicked and took the
/// engine with it.
#[derive(Debug)]
pub struct IngestTicket {
    rx: Receiver<Result<IngestReceipt, EngineError>>,
    door: Arc<Door>,
}

impl IngestTicket {
    /// Block until the submission's tick commits (or fails). While its
    /// receipt has not arrived, the caller runs commit ticks itself — the
    /// first of them carries every submission queued before it (up to
    /// 64), this one included.
    pub fn wait(self) -> Result<IngestReceipt, EngineError> {
        loop {
            match self.rx.try_recv() {
                Ok(result) => return result,
                Err(TryRecvError::Empty) if self.door.tick() => {}
                // Shut down since the last look: the final drain resolved
                // every queued ticket before it let go of the engine.
                Err(_) => {
                    return self
                        .rx
                        .try_recv()
                        .unwrap_or(Err(EngineError::SubmissionDropped))
                }
            }
        }
    }
}

/// The owner of the front door: takes the [`Engine`] at
/// [`IngestServer::spawn`] and gives it back at
/// [`IngestServer::shutdown`] (after committing every already-queued
/// submission and issuing a final durability barrier). Dropping the
/// server without calling `shutdown` also drains the queue — the engine
/// is then discarded.
#[derive(Debug)]
pub struct IngestServer {
    /// The handle [`IngestServer::handle`] clones.
    ingest: Ingest,
}

impl IngestServer {
    /// Put the engine behind the front door. Starts no thread: commit
    /// ticks run on the threads that wait on tickets.
    pub fn spawn(engine: Engine) -> Self {
        let door = Door {
            snapshots: Arc::clone(engine.snapshot_store()),
            engine: Mutex::new(Some(engine)),
            queue: Mutex::new(Some(VecDeque::new())),
        };
        IngestServer {
            ingest: Ingest {
                door: Arc::new(door),
            },
        }
    }

    /// A fresh submission handle (clone it freely across threads).
    pub fn handle(&self) -> Ingest {
        self.ingest.clone()
    }

    /// Flip the engine log's [`DurabilityMode`] mid-run. Applied under the
    /// engine lock, so the switch lands between two ticks (submissions
    /// still queued commit under the new mode); on an engine without a
    /// log it is a no-op — no log, nothing to make durable. Errors with
    /// [`EngineError::IngestClosed`] if the server is gone.
    pub fn set_durability(&self, mode: DurabilityMode) -> Result<(), EngineError> {
        let mut engine = self.ingest.door.engine();
        let engine = engine.as_mut().ok_or(EngineError::IngestClosed)?;
        let _ = engine.set_durability(mode);
        Ok(())
    }

    /// Close the front door and take the engine back: already-queued
    /// submissions are committed and their tickets resolved first
    /// (submissions arriving *after* this call fail with
    /// [`EngineError::IngestClosed`]), then a final
    /// [`Engine::sync_log`] barrier runs. Errors with
    /// [`EngineError::IngestClosed`] only if a tick panicked — then the
    /// engine is lost with it.
    pub fn shutdown(self) -> Result<Engine, EngineError> {
        self.ingest.door.close().ok_or(EngineError::IngestClosed)
    }
}

impl Drop for IngestServer {
    /// Best-effort orderly stop: commit the queue, run the final
    /// durability barrier and discard the engine. Use
    /// [`IngestServer::shutdown`] to get the engine back instead.
    fn drop(&mut self) {
        self.ingest.door.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::{NodeId, Update};

    fn batch(updates: Vec<Update>) -> UpdateBatch {
        UpdateBatch::from_updates(updates)
    }

    #[test]
    fn submissions_commit_and_tickets_resolve() {
        let engine = Engine::new(graph_from(&[0, 0, 0, 0], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        let t1 = ingest
            .submit(batch(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap();
        let t2 = ingest
            .submit(batch(vec![Update::insert(NodeId(1), NodeId(2))]))
            .unwrap();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert!(r1.epoch >= 1 && r2.epoch >= r1.epoch);
        assert_eq!(r1.units, 1);
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.graph().edge_count(), 2);
        assert_eq!(engine.totals().units_applied, 2);
    }

    #[test]
    fn coalescing_merges_pending_submissions_into_one_tick() {
        // Nothing commits before a ticket is waited on, so the first wait
        // carries all eight submissions in one tick.
        let engine = Engine::new(graph_from(&[0; 16], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        let tickets: Vec<IngestTicket> = (0..8u32)
            .map(|i| {
                ingest
                    .submit(batch(vec![Update::insert(NodeId(i), NodeId(i + 1))]))
                    .unwrap()
            })
            .collect();
        let receipts: Vec<IngestReceipt> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.graph().edge_count(), 8);
        assert_eq!(engine.epoch(), 1, "one tick");
        assert_eq!(receipts[0].commit.applied, 8);
        for r in &receipts {
            assert_eq!(r.coalesced, 8);
            assert_eq!(r.epoch, 1);
            assert_eq!(r.units, 1);
            assert!(Arc::ptr_eq(&r.commit, &receipts[0].commit));
        }
    }

    #[test]
    fn out_of_bounds_submission_is_rejected_alone() {
        let engine = Engine::new(graph_from(&[0, 0], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        let bad = ingest
            .submit(batch(vec![Update::insert(NodeId(0), NodeId(u32::MAX))]))
            .unwrap();
        let good = ingest
            .submit(batch(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap();
        assert!(matches!(
            bad.wait(),
            Err(EngineError::NodeOutOfBounds { .. })
        ));
        assert!(good.wait().is_ok(), "good submission must not be poisoned");
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.graph().edge_count(), 1);
    }

    #[test]
    fn closed_server_errors_are_precise() {
        let engine = Engine::new(graph_from(&[0, 0], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        let _engine = server.shutdown().unwrap();
        // The server is gone: submit fails with IngestClosed.
        let err = ingest
            .submit(batch(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap_err();
        assert_eq!(err, EngineError::IngestClosed);
    }

    #[test]
    fn shutdown_drains_already_queued_submissions() {
        let engine = Engine::new(graph_from(&[0; 32], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        let tickets: Vec<IngestTicket> = (0..16u32)
            .map(|i| {
                ingest
                    .submit(batch(vec![Update::insert(NodeId(i), NodeId(i + 1))]))
                    .unwrap()
            })
            .collect();
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.graph().edge_count(), 16, "queued work was drained");
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn snapshots_pin_published_versions_while_ticks_run() {
        let engine = Engine::new(graph_from(&[0; 8], &[]));
        let server = IngestServer::spawn(engine);
        let ingest = server.handle();
        // Before any commit the initial (epoch-0) version is published.
        let s0 = ingest.snapshot().unwrap();
        assert_eq!(s0.epoch(), 0);
        assert_eq!(s0.graph().edge_count(), 0);
        // Commit through the front door, then pin the result: the pinned
        // epoch-0 snapshot must keep serving the pre-commit graph.
        let r = ingest
            .submit(batch(vec![Update::insert(NodeId(0), NodeId(1))]))
            .unwrap()
            .wait()
            .unwrap();
        let s1 = ingest.snapshot_at(r.epoch).unwrap();
        assert_eq!(s1.graph().edge_count(), 1);
        assert_eq!(s0.graph().edge_count(), 0, "pinned snapshot is frozen");
        drop(server);
        // Handles keep serving pinned reads even after the server is gone.
        assert_eq!(s1.epoch(), r.epoch);
    }
}
