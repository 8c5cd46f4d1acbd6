//! The async ingest front door: many concurrent submitters, one
//! commit-tick loop, one coalesced ΔG per tick.
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
//! Shape: [`IngestServer::spawn`] moves the [`Engine`] onto a dedicated
//! commit-tick thread and hands out clonable [`Ingest`] handles. Each
//! [`Ingest::submit`] enqueues an [`UpdateBatch`] and returns an
//! [`IngestTicket`] the submitter can await for its [`IngestReceipt`]
//! (assigned epoch + the shared [`CommitReceipt`] of the tick that
//! carried it). The tick loop drains everything pending (up to 64
//! submissions), coalesces it into one mega-batch, and commits it with
//! [`Engine::commit`].
//!
//! Durability composes: [`IngestServer::set_durability`] flips the
//! engine log's [`DurabilityMode`] mid-run, and the loop issues an
//! explicit [`Engine::sync_log`] barrier whenever it is about to park on
//! an empty queue (and once more at shutdown), so "queue drained" always
//! implies "everything accepted is durable" under group commit.
//!
//! Overload and fault propagation: the submission queue is **bounded**
//! (1 024 submissions) — a submitter that cannot enqueue within 100 ms
//! is shed with [`EngineError::Overloaded`] instead of growing the queue
//! without limit. And when the engine is in degraded read-only mode (journal
//! retries exhausted — see [`Engine::heal`]), submissions are rejected
//! at admission with [`EngineError::Degraded`] through their tickets,
//! so callers observe the outage instead of queueing into a wall.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::receipt::CommitReceipt;
use crate::snapshot::{Snapshot, SnapshotStore};
use igc_graph::UpdateBatch;
use igc_log::DurabilityMode;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What flows from handles to the server thread.
enum Msg {
    Submit(Submission),
    SetDurability(DurabilityMode),
    Shutdown,
}

/// One client submission: the batch plus the channel its receipt goes
/// back on.
struct Submission {
    batch: UpdateBatch,
    reply: Sender<Result<IngestReceipt, EngineError>>,
}

/// A submission waiting for its tick to commit (its batch has already
/// been folded into the tick's mega-batch).
struct Waiter {
    units: usize,
    reply: Sender<Result<IngestReceipt, EngineError>>,
}

/// Most submissions coalesced into one commit tick.
const MAX_COALESCE: usize = 64;
/// Bound on the submission queue: past it, [`Ingest::submit`] waits up to
/// [`SUBMIT_TIMEOUT`] for a slot, then sheds the submission with
/// [`EngineError::Overloaded`] — backpressure instead of unbounded memory
/// growth when submitters outrun the commit loop.
const MAX_QUEUE: usize = 1024;
/// How long [`Ingest::submit`] waits for a queue slot before shedding.
const SUBMIT_TIMEOUT: Duration = Duration::from_millis(100);

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

/// A clonable submission handle to a running [`IngestServer`]. Cheap to
/// clone (one channel sender); any number of threads can submit
/// concurrently.
#[derive(Clone)]
pub struct Ingest {
    tx: SyncSender<Msg>,
    snapshots: Arc<SnapshotStore>,
}

impl Ingest {
    /// Enqueue a batch for the next commit tick. Returns with a ticket
    /// to await — immediately while the bounded queue has room, after a
    /// bounded wait otherwise. Errors with [`EngineError::Overloaded`]
    /// when no slot of the 1 024-submission queue frees up within 100 ms
    /// (the shed contract: the batch
    /// was *not* accepted, retry later), and with
    /// [`EngineError::IngestClosed`] if the server is gone.
    pub fn submit(&self, batch: UpdateBatch) -> Result<IngestTicket, EngineError> {
        let (reply, rx) = mpsc::channel();
        let mut msg = Msg::Submit(Submission { batch, reply });
        let start = Instant::now();
        loop {
            match self.tx.try_send(msg) {
                Ok(()) => return Ok(IngestTicket { rx }),
                Err(TrySendError::Disconnected(_)) => return Err(EngineError::IngestClosed),
                Err(TrySendError::Full(back)) => {
                    let waited = start.elapsed();
                    if waited >= SUBMIT_TIMEOUT {
                        return Err(EngineError::Overloaded {
                            capacity: MAX_QUEUE,
                            waited,
                        });
                    }
                    msg = back;
                    // Brief nap, bounded by the remaining budget: the
                    // commit loop drains in ticks, not per record, so
                    // busy-spinning would only steal its CPU.
                    std::thread::sleep(Duration::from_micros(200).min(SUBMIT_TIMEOUT - waited));
                }
            }
        }
    }

    /// Pin the newest published MVCC version as a [`Snapshot`] — the
    /// graph and every view's answers exactly as the most recently
    /// *published* commit tick left them — without stopping or even
    /// contending with the commit-tick thread (the pin is a short store
    /// lock, never the queue). Snapshots keep serving while the engine is
    /// in degraded read-only mode ([`Ingest::submit`] would be shed with
    /// [`EngineError::Degraded`], but reads stay up). Errors with
    /// [`EngineError::SnapshotUnavailable`] only if a publish stalls past
    /// its internal wait — see [`Engine::snapshot`] for the full
    /// contract.
    pub fn snapshot(&self) -> Result<Snapshot, EngineError> {
        self.snapshots.snapshot()
    }

    /// Pin the retained version at exactly `epoch` — see
    /// [`Engine::snapshot_at`] for the retention contract
    /// ([`EngineError::EpochRetired`] when GC already dropped it,
    /// [`EngineError::SnapshotUnavailable`] when it has not been
    /// published yet).
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot, EngineError> {
        self.snapshots.snapshot_at(epoch)
    }
}

impl std::fmt::Debug for Ingest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingest").finish_non_exhaustive()
    }
}

/// The awaitable half of one submission: resolves to the submission's
/// [`IngestReceipt`] once its tick commits, to the error that rejected
/// it (e.g. [`EngineError::NodeOutOfBounds`] at admission, or a log
/// failure at its tick's commit), or to
/// [`EngineError::SubmissionDropped`] if the server shut down with the
/// submission still queued.
#[derive(Debug)]
pub struct IngestTicket {
    rx: Receiver<Result<IngestReceipt, EngineError>>,
}

impl IngestTicket {
    /// Block until the submission's tick commits (or fails).
    pub fn wait(self) -> Result<IngestReceipt, EngineError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(EngineError::SubmissionDropped),
        }
    }
}

/// The commit-tick loop's owner: moves the [`Engine`] onto a dedicated
/// thread at [`IngestServer::spawn`] and gives it back at
/// [`IngestServer::shutdown`] (after draining every already-queued
/// submission and issuing a final durability barrier). Dropping the
/// server without calling `shutdown` also drains and joins — the engine
/// is then simply discarded with the thread.
#[derive(Debug)]
pub struct IngestServer {
    /// The handle [`IngestServer::handle`] clones; its sender doubles as
    /// the control channel.
    ingest: Ingest,
    thread: Option<JoinHandle<Engine>>,
}

impl IngestServer {
    /// Spawn the commit-tick loop. (In the vanishingly unlikely case the
    /// OS refuses the thread, the server is closed from birth: every
    /// submit fails with [`EngineError::IngestClosed`].)
    pub fn spawn(engine: Engine) -> Self {
        let (tx, rx) = mpsc::sync_channel(MAX_QUEUE);
        // The snapshot store is shared by `Arc`, so handles keep pinning
        // versions after the engine itself moves onto the tick thread.
        let snapshots = Arc::clone(engine.snapshot_store());
        let thread = std::thread::Builder::new()
            .name("igc-ingest".into())
            .spawn(move || Self::serve(engine, &rx))
            .ok();
        IngestServer {
            ingest: Ingest { tx, snapshots },
            thread,
        }
    }

    /// A fresh submission handle (clone it freely across threads).
    pub fn handle(&self) -> Ingest {
        self.ingest.clone()
    }

    /// Flip the engine log's [`DurabilityMode`] mid-run. Applied by the
    /// tick loop in queue order, so the switch lands on a clean tick
    /// boundary; on an engine without a log it is a no-op. Errors with
    /// [`EngineError::IngestClosed`] if the server is gone.
    pub fn set_durability(&self, mode: DurabilityMode) -> Result<(), EngineError> {
        self.ingest
            .tx
            .send(Msg::SetDurability(mode))
            .map_err(|_| EngineError::IngestClosed)
    }

    /// Stop the loop and take the engine back: already-queued
    /// submissions are committed and their tickets resolved first
    /// (submissions arriving *after* this call resolve as
    /// [`EngineError::SubmissionDropped`]), then a final
    /// [`Engine::sync_log`] barrier runs. Errors with
    /// [`EngineError::IngestClosed`] only if the server thread died —
    /// then the engine is lost with it.
    pub fn shutdown(mut self) -> Result<Engine, EngineError> {
        let _ = self.ingest.tx.send(Msg::Shutdown);
        match self.thread.take() {
            Some(h) => h.join().map_err(|_| EngineError::IngestClosed),
            None => Err(EngineError::IngestClosed),
        }
    }

    /// The tick loop. One iteration = gather a group (blocking only on an
    /// empty queue), commit it as one coalesced batch, resolve its waiters.
    fn serve(mut engine: Engine, rx: &Receiver<Msg>) -> Engine {
        let mut closing = false;
        while !closing {
            let mut group: Vec<Submission> = Vec::new();
            let first = match rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(mpsc::TryRecvError::Empty) => {
                    // About to park: close any open group-commit window so
                    // everything accepted so far is durable while we idle.
                    if engine.log().is_some_and(|l| l.unsynced_appends() > 0) {
                        let _ = engine.sync_log();
                    }
                    rx.recv().ok()
                }
                Err(mpsc::TryRecvError::Disconnected) => None,
            };
            match first {
                Some(msg) => Self::accept(msg, &mut engine, &mut group, &mut closing),
                None => closing = true,
            }
            while group.len() < MAX_COALESCE && !closing {
                match rx.try_recv() {
                    Ok(msg) => Self::accept(msg, &mut engine, &mut group, &mut closing),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        closing = true;
                        break;
                    }
                }
            }
            if !group.is_empty() {
                let (mega, waiters) = Self::bundle(group);
                match engine.commit(&mega) {
                    Ok(receipt) => Self::resolve(waiters, &receipt),
                    Err(e) => Self::reject(waiters, &e),
                }
            }
        }
        // Final barrier: everything accepted is durable before the engine
        // is handed back (or discarded).
        if engine.log().is_some() {
            let _ = engine.sync_log();
        }
        engine
    }

    /// Route one queue message. Submissions are admission-checked *here*,
    /// per submission, so one out-of-bounds batch is rejected alone
    /// instead of poisoning the whole coalesced tick. Submissions
    /// arriving after shutdown began are dropped (their tickets resolve
    /// as [`EngineError::SubmissionDropped`] when the reply sender goes).
    fn accept(msg: Msg, engine: &mut Engine, group: &mut Vec<Submission>, closing: &mut bool) {
        match msg {
            Msg::Submit(sub) => {
                if *closing {
                    return;
                }
                // A degraded engine rejects every commit anyway: fail the
                // ticket here, at admission, instead of queueing the
                // submission into a wall ([`EngineError::Degraded`]
                // propagates through the ticket like any admission error).
                if let Some(e) = engine.degraded_error() {
                    let _ = sub.reply.send(Err(e));
                    return;
                }
                match engine.admit(&sub.batch) {
                    Ok(()) => group.push(sub),
                    Err(e) => {
                        let _ = sub.reply.send(Err(e));
                    }
                }
            }
            Msg::SetDurability(mode) => {
                // No-op (not an error) on an engine without a log: the
                // knob is durability *policy*, and no log means there is
                // nothing to make durable.
                let _ = engine.set_durability(mode);
            }
            Msg::Shutdown => *closing = true,
        }
    }

    /// Coalesce a group into one mega-batch (arrival order, so the
    /// order-faithful normalization sees exactly the sequential history)
    /// plus the waiters to resolve when its tick commits.
    fn bundle(group: Vec<Submission>) -> (UpdateBatch, Vec<Waiter>) {
        let mut mega = UpdateBatch::new();
        let mut waiters = Vec::with_capacity(group.len());
        for sub in group {
            for u in sub.batch.iter() {
                mega.push(*u);
            }
            waiters.push(Waiter {
                units: sub.batch.len(),
                reply: sub.reply,
            });
        }
        (mega, waiters)
    }

    fn resolve(waiters: Vec<Waiter>, receipt: &CommitReceipt) {
        let commit = Arc::new(receipt.clone());
        let coalesced = waiters.len();
        for w in waiters {
            let _ = w.reply.send(Ok(IngestReceipt {
                epoch: commit.epoch,
                units: w.units,
                coalesced,
                commit: Arc::clone(&commit),
            }));
        }
    }

    fn reject(waiters: Vec<Waiter>, e: &EngineError) {
        for w in waiters {
            let _ = w.reply.send(Err(e.clone()));
        }
    }
}

impl Drop for IngestServer {
    /// Best-effort orderly stop: request shutdown (drains the queue,
    /// final durability barrier) and join, discarding the engine. Use
    /// [`IngestServer::shutdown`] to get the engine back instead.
    fn drop(&mut self) {
        let _ = self.ingest.tx.send(Msg::Shutdown);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
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
        // max_coalesce is plenty and the server can't start a tick while
        // we hold the queue: submit everything first, then watch the
        // receipts — at least the later ones must share a tick (the first
        // may slip into its own tick if the loop wakes early, so assert
        // on totals, not an exact grouping).
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
        let max_epoch = receipts.iter().map(|r| r.epoch).max().unwrap();
        assert!(
            max_epoch <= 8,
            "8 submissions must take at most 8 ticks, took {max_epoch}"
        );
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.graph().edge_count(), 8);
        assert_eq!(engine.epoch(), max_epoch);
        // Every receipt's shared commit receipt covers its submission.
        for r in receipts {
            assert!(r.coalesced >= 1);
            assert!(r.commit.applied >= r.units);
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
    fn snapshots_pin_published_versions_while_the_tick_thread_runs() {
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
