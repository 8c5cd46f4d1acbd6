//! The persistent commit worker pool: long-lived parked threads fed
//! fan-out tasks over a channel (a scoped spawn per commit measured 0.75×
//! at 2 threads on spawn overhead alone).
//!
//! Ownership model: the engine cannot lend `&mut` borrows of registry
//! slots to threads that outlive the commit, so [`dispatch`] *takes* each
//! view's `Box` out of its slot (leaving an [`InFlightView`] placeholder)
//! and the worker sends it back inside its [`PoolRecord`].
//! [`InFlight::collect`] puts every returned view back before the commit's
//! merge step; a view that never comes back (its worker died) leaves the
//! placeholder in the slot and gets a failed record, so the merge
//! quarantines it.
//!
//! Panic safety: [`drive_apply`] fences every view-code surface
//! (`apply_caught`, the post-panic `work()` read, and an outer
//! `catch_unwind`), so a panicking view quarantines without killing its
//! worker. Workers only die on faults outside view code; the pool
//! detects that via the reply channel disconnecting and via
//! [`WorkerPool::submit`] failing once every worker is gone (the shared
//! task receiver drops with the last worker), in which case the task
//! runs inline — parallel mode degrades to sequential, never to a lost
//! commit.

use crate::registry::Registry;
use igc_core::{panic_cause, IncView, IncrementalAlgorithm, WorkStats};
use igc_graph::{DynamicGraph, UpdateBatch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One fan-out unit: a view taken out of its registry slot plus the
/// shared read-only inputs, and the channel its result goes back on.
pub(crate) struct PoolTask {
    pub slot: usize,
    pub view: Box<dyn IncView>,
    /// The post-commit graph.
    pub graph: Arc<DynamicGraph>,
    /// The commit's normalized delta.
    pub delta: Arc<UpdateBatch>,
    pub reply: Sender<PoolRecord>,
}

/// What one view's `apply` produced during fan-out, before
/// [`Registry::merge`] folds it into registry state and receipt (in slot
/// order, identically for both commit modes).
pub(crate) struct ApplyRecord {
    pub slot: usize,
    pub elapsed: Duration,
    pub work: WorkStats,
    pub result: Result<(), String>,
}

impl ApplyRecord {
    /// The record of a view that failed outside its own `apply` (lost with
    /// a dead worker, or its `clone_view` panicked): no work, quarantine
    /// for `cause`.
    pub(crate) fn failed(slot: usize, cause: String) -> Self {
        ApplyRecord {
            slot,
            elapsed: Duration::ZERO,
            work: WorkStats::new(),
            result: Err(cause),
        }
    }
}

/// What a worker produced for one task: the view handed back plus the
/// record [`drive_apply`] made of its `apply`.
pub(crate) struct PoolRecord {
    pub view: Box<dyn IncView>,
    pub applied: ApplyRecord,
}

/// Drive one view's `apply` against the post-commit graph and snapshot
/// its cost — the single per-view runner behind sequential fan-out,
/// pool workers, and the inline dead-pool fallback.
///
/// Fully fenced: [`IncView::apply_caught`] converts an `apply` panic
/// into `Err`, the post-panic `work()` read is fenced per the quarantine
/// contract, and the outer `catch_unwind` covers the remaining view-code
/// surface (a `work()` that panics even *before* `apply`), so no view
/// can unwind a commit — or kill a pool worker.
pub(crate) fn drive_apply(
    slot: usize,
    view: &mut dyn IncView,
    graph: &DynamicGraph,
    delta: &UpdateBatch,
) -> ApplyRecord {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let before = view.work();
        let result = view.apply_caught(graph, delta);
        // After a panicking apply the view's state may be arbitrarily
        // inconsistent, so even this one post-mortem work() read is
        // fenced: if it panics too, attribute zero work rather than
        // unwind out of the commit.
        let work = match &result {
            Ok(()) => view.work().since(&before),
            Err(_) => catch_unwind(AssertUnwindSafe(|| view.work()))
                .map_or(WorkStats::new(), |after| after.since(&before)),
        };
        (work, result)
    }));
    let elapsed = start.elapsed();
    let (work, result) = match outcome {
        Ok(pair) => pair,
        Err(payload) => (WorkStats::new(), Err(panic_cause(payload.as_ref()))),
    };
    ApplyRecord {
        slot,
        elapsed,
        work,
        result,
    }
}

/// Placeholder parked in a registry slot while its real view is out on a
/// worker. Never runs: the engine swaps the real view back before the
/// commit's merge, and a slot whose view was *lost* (worker died) is
/// quarantined in that same merge — and quarantined slots are skipped by
/// every later fan-out, audit, and read (reads surface the quarantine
/// error, never this stub).
#[derive(Clone, Debug)]
pub(crate) struct InFlightView;

impl IncrementalAlgorithm for InFlightView {
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {}
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn reset_work(&mut self) {}
}

impl IncView for InFlightView {
    fn name(&self) -> &str {
        "in-flight"
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Err("view lost in flight (its commit worker died)".into())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(InFlightView)
    }
}

/// A long-lived pool of parked commit workers sharing one task channel.
///
/// The pool deliberately does **not** keep its own clone of the task
/// receiver: the workers hold the only references (behind an
/// `Arc<Mutex<_>>`), so when the last worker exits the receiver drops and
/// [`WorkerPool::submit`] starts failing — handing each task back to the
/// caller for inline execution instead of queueing it into a void.
pub(crate) struct WorkerPool {
    tx: Option<Sender<PoolTask>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawn `size` parked workers (clamped to ≥ 1 requested; fewer may
    /// actually start if the OS refuses threads — the pool still works
    /// with however many came up, and with zero it degrades to inline
    /// execution via failing `submit`s).
    pub fn new(size: usize) -> Self {
        let (tx, rx) = mpsc::channel::<PoolTask>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..size.max(1))
            .filter_map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("igc-commit-{i}"))
                    .spawn(move || Self::worker_loop(&rx))
                    .ok()
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            size,
        }
    }

    /// The worker body: pull the next task (blocking while parked), run
    /// it through the shared fenced runner, send the record back.
    fn worker_loop(rx: &Arc<Mutex<Receiver<PoolTask>>>) {
        loop {
            // Lock only around the blocking recv — idle workers queue on
            // the mutex, exactly one wakes per task. A poisoned mutex
            // (another worker panicked while holding it) is recovered:
            // the receiver has no invariant a panic could have torn.
            let task = {
                let guard = match rx.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                match guard.recv() {
                    Ok(t) => t,
                    Err(_) => break, // pool dropped its sender: shut down
                }
            };
            let mut task = task;
            let applied = drive_apply(task.slot, task.view.as_mut(), &task.graph, &task.delta);
            // A failed send means the commit already gave up on this
            // record (reply receiver dropped); nothing to do with it.
            let _ = task.reply.send(PoolRecord {
                view: task.view,
                applied,
            });
        }
    }

    /// The size this pool was built for (the engine rebuilds on a
    /// resolved-thread-count change, so this doubles as the cache key).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether any worker has exited (panic outside the fences, or spawn
    /// failure at construction left the pool short). The engine rebuilds
    /// a wounded pool before the next parallel commit to restore
    /// capacity.
    pub fn wounded(&self) -> bool {
        self.workers.is_empty() || self.workers.iter().any(JoinHandle::is_finished)
    }

    /// Hand a task to the pool. Fails — returning the task intact — only
    /// when every worker is gone (the shared receiver dropped with the
    /// last one); the caller then runs it inline.
    pub fn submit(&self, task: PoolTask) -> Result<(), PoolTask> {
        match &self.tx {
            Some(tx) => tx.send(task).map_err(|e| e.0),
            None => Err(task),
        }
    }
}

impl Drop for WorkerPool {
    /// Close the task channel, then join every worker: no task ever runs
    /// against an engine that has moved on, and process exit never races
    /// a half-finished apply. A worker that panicked is already
    /// accounted for (its views were quarantined when their records went
    /// missing), so join errors are ignored.
    fn drop(&mut self) {
        self.tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A parallel fan-out between [`dispatch`] and [`InFlight::collect`]: the
/// committing thread is free to prepare the next commit meanwhile.
pub(crate) struct InFlight {
    replies: Receiver<PoolRecord>,
    /// Slots whose view is out on a worker.
    outstanding: Vec<usize>,
    /// Records of the tasks the pool refused, already run inline.
    records: Vec<ApplyRecord>,
}

/// Take each active view of `views` out of its slot (leaving an
/// [`InFlightView`] placeholder) and hand it to `pool`. A pool whose
/// workers are all gone — or no pool at all — fails the send and hands the
/// task back: it runs inline, so a wounded pool degrades to sequential
/// fan-out instead of losing commits.
pub(crate) fn dispatch(
    pool: Option<&WorkerPool>,
    views: &mut Registry,
    graph: &Arc<DynamicGraph>,
    delta: &Arc<UpdateBatch>,
) -> InFlight {
    let (reply, replies) = mpsc::channel();
    let mut outstanding = Vec::new();
    let mut records = Vec::new();
    for (slot, view) in views.active_views_mut() {
        let task = PoolTask {
            slot,
            view: std::mem::replace(view, Box::new(InFlightView)),
            graph: Arc::clone(graph),
            delta: Arc::clone(delta),
            reply: reply.clone(),
        };
        let submitted = match pool {
            Some(pool) => pool.submit(task),
            None => Err(task),
        };
        match submitted {
            Ok(()) => outstanding.push(slot),
            Err(mut task) => {
                records.push(drive_apply(slot, task.view.as_mut(), graph, delta));
                *view = task.view;
            }
        }
    }
    // `reply` drops here: once every worker-held clone is gone too (task
    // finished or worker died), `collect`'s recv disconnects instead of
    // hanging forever.
    InFlight {
        replies,
        outstanding,
        records,
    }
}

impl InFlight {
    /// Wait for every dispatched record, putting each view back in its
    /// slot, and return all records in slot order. Disconnection with
    /// tasks still outstanding means worker death ate them: their slots
    /// keep the placeholder and get a failed record, which the merge
    /// quarantines exactly like a panicked view.
    pub(crate) fn collect(mut self, views: &mut Registry) -> Vec<ApplyRecord> {
        while !self.outstanding.is_empty() {
            let Ok(rec) = self.replies.recv() else {
                break;
            };
            self.outstanding.retain(|&s| s != rec.applied.slot);
            views.put_back(rec.applied.slot, rec.view);
            self.records.push(rec.applied);
        }
        let died = "commit worker died mid-apply (view state lost in flight)";
        self.records.extend(
            self.outstanding
                .into_iter()
                .map(|slot| ApplyRecord::failed(slot, died.into())),
        );
        self.records.sort_unstable_by_key(|rec| rec.slot);
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal counting view for pool plumbing tests.
    #[derive(Clone, Debug)]
    struct Count {
        applies: u64,
        work: WorkStats,
        panic_now: bool,
    }

    impl Count {
        fn new() -> Self {
            Count {
                applies: 0,
                work: WorkStats::new(),
                panic_now: false,
            }
        }
    }

    impl IncrementalAlgorithm for Count {
        fn apply(&mut self, _g: &DynamicGraph, delta: &UpdateBatch) {
            self.applies += 1;
            self.work.aux_touched += delta.len() as u64;
            if self.panic_now {
                panic!("deliberate pool canary");
            }
        }
        fn work(&self) -> WorkStats {
            self.work
        }
        fn reset_work(&mut self) {
            self.work.reset();
        }
    }

    impl IncView for Count {
        fn name(&self) -> &str {
            "count"
        }
        fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
            Ok(())
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    fn inputs() -> (Arc<DynamicGraph>, Arc<UpdateBatch>) {
        use igc_graph::{graph::graph_from, NodeId, Update};
        let g = graph_from(&[0, 0], &[]);
        let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]);
        (Arc::new(g), Arc::new(delta))
    }

    #[test]
    fn tasks_round_trip_views_through_workers() {
        let pool = WorkerPool::new(2);
        let (graph, delta) = inputs();
        let (reply_tx, reply_rx) = mpsc::channel();
        for slot in 0..4 {
            pool.submit(PoolTask {
                slot,
                view: Box::new(Count::new()),
                graph: Arc::clone(&graph),
                delta: Arc::clone(&delta),
                reply: reply_tx.clone(),
            })
            .unwrap_or_else(|_| panic!("fresh pool refused a task"));
        }
        drop(reply_tx);
        let mut records: Vec<PoolRecord> = reply_rx.iter().collect();
        records.sort_unstable_by_key(|r| r.applied.slot);
        assert_eq!(records.len(), 4);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.applied.slot, i);
            assert!(rec.applied.result.is_ok());
            assert_eq!(rec.applied.work.aux_touched, 1);
            let back = rec.view.downcast_ref::<Count>().unwrap();
            assert_eq!(back.applies, 1, "the same view instance came back");
        }
        assert!(!pool.wounded());
    }

    #[test]
    fn panicking_view_fails_its_record_not_its_worker() {
        let pool = WorkerPool::new(1);
        let (graph, delta) = inputs();
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut canary = Count::new();
        canary.panic_now = true;
        crate::engine::tests::quiet_panics(|| {
            pool.submit(PoolTask {
                slot: 0,
                view: Box::new(canary),
                graph: Arc::clone(&graph),
                delta: Arc::clone(&delta),
                reply: reply_tx.clone(),
            })
            .unwrap_or_else(|_| panic!("fresh pool refused a task"));
            let rec = reply_rx.recv().unwrap().applied;
            assert_eq!(rec.slot, 0);
            let err = rec.result.unwrap_err();
            assert!(err.contains("deliberate pool canary"), "{err}");
            // The worker survived the fenced panic: it still takes work.
            pool.submit(PoolTask {
                slot: 1,
                view: Box::new(Count::new()),
                graph,
                delta,
                reply: reply_tx,
            })
            .unwrap_or_else(|_| panic!("worker died on a fenced panic"));
            let rec = reply_rx.recv().unwrap();
            assert!(rec.applied.result.is_ok());
            assert!(!pool.wounded());
        });
    }

    #[test]
    fn drop_joins_idle_workers() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        drop(pool); // must not hang: closing the channel unparks everyone
    }
}
