//! The view registry every [`Engine`](crate::Engine) — a leader, or the
//! one inside a [`Replica`](crate::Replica) — holds: generation-checked
//! slots of type-erased [`IncView`]s with their health and accounting.
//!
//! Everything that runs view code behind a fence, and everything that
//! turns a [`ViewId`] into a view, happens here and only here — building
//! from a deferred constructor, fan-out and quarantine, audits, a
//! version's cells, and the read contract ([`resolve`] + [`downcast`],
//! which a pinned [`Snapshot`](crate::Snapshot) goes through as well) — so
//! a handle means the same on the live engine, on a follower and on a
//! snapshot of either.

use crate::error::{Divergence, EngineError};
use crate::lifecycle::{ViewId, ViewState};
use crate::receipt::{ViewCommitStats, ViewOutcome, ViewTotals};
use crate::snapshot::{CellState, SnapCell};
use igc_core::{panic_cause, IncView, WorkStats};
use igc_graph::{DynamicGraph, UpdateBatch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What one view's `apply` produced during fan-out, before
/// [`Registry::merge`] folds it into registry state and receipt (in slot
/// order, identically for every fan-out width).
pub(crate) struct ApplyRecord {
    pub slot: usize,
    pub elapsed: Duration,
    pub work: WorkStats,
    pub result: Result<(), String>,
}

impl ApplyRecord {
    /// The record of a view that failed outside its own `apply` (lost with
    /// a helper thread that died, or its `clone_view` panicked): no work,
    /// quarantine for `cause`.
    pub(crate) fn failed(slot: usize, cause: String) -> Self {
        ApplyRecord {
            slot,
            elapsed: Duration::ZERO,
            work: WorkStats::new(),
            result: Err(cause),
        }
    }
}

/// Drive one view's `apply` against the post-commit graph and snapshot
/// its cost — the single per-view runner behind every fan-out, on the
/// committing thread and on its helpers alike.
///
/// Fully fenced: the inner `catch_unwind` converts an `apply` panic into
/// `Err`, the post-panic `work()` read is fenced per the [quarantine
/// contract](IncView#quarantine-contract), and the outer `catch_unwind`
/// covers the remaining view-code surface (a `work()` that panics even
/// *before* `apply`), so no view can unwind a commit — or kill a fan-out
/// helper. The same contract makes `AssertUnwindSafe` sound: a view that
/// panicked is never used again.
pub(crate) fn drive_apply(
    slot: usize,
    view: &mut dyn IncView,
    graph: &DynamicGraph,
    delta: &UpdateBatch,
) -> ApplyRecord {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let before = view.work();
        let result = catch_unwind(AssertUnwindSafe(|| view.apply(graph, delta)))
            .map_err(|payload| panic_cause(payload.as_ref()));
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

/// A registered view plus its health and cumulative accounting
/// (`totals.label` is its registry label).
///
/// The registry owns the view outright and always mutates it in place,
/// pinned or not: what an MVCC version serves is the copy
/// [`IncView::clone_view`] hands out at publish time ([`Registry::cells`]),
/// never this allocation.
pub(crate) struct Registered {
    pub(crate) view: Box<dyn IncView>,
    pub(crate) state: ViewState,
    pub(crate) totals: ViewTotals,
}

impl Registered {
    /// This entry as a reader finds it.
    fn found(&self) -> Found<'_> {
        let slot = match &self.state {
            ViewState::Active => Ok(self.view.as_ref()),
            ViewState::Quarantined { epoch, cause } => Err((*epoch, cause.as_str())),
        };
        (&self.totals.label, slot)
    }
}

/// One registry slot: its current generation plus the view occupying it
/// (`None` = tombstone, reusable by a later registration).
struct Slot {
    generation: u32,
    entry: Option<Registered>,
}

/// What sits behind a [`ViewId`] on any reader — live registry or published
/// version: the label, and either the view or the `(epoch, cause)` of its
/// quarantine.
pub(crate) type Found<'a> = (&'a Arc<str>, Result<&'a dyn IncView, (u64, &'a str)>);

fn stale(id: ViewId) -> EngineError {
    EngineError::StaleHandle {
        index: id.index,
        generation: id.generation,
    }
}

/// The read contract, stated once for the live engine and its snapshots: nothing behind `id` (never registered, deregistered,
/// or the slot has moved on to another generation) is
/// [`EngineError::StaleHandle`]; a quarantined view is
/// [`EngineError::ViewQuarantined`] — a panicked view's state is not
/// served. Labels are cloned and errors built on the failing branch only.
pub(crate) fn resolve(
    found: Option<Found<'_>>,
    id: ViewId,
) -> Result<(&Arc<str>, &dyn IncView), EngineError> {
    match found.ok_or_else(|| stale(id))? {
        (label, Ok(view)) => Ok((label, view)),
        (label, Err((epoch, cause))) => Err(EngineError::ViewQuarantined {
            label: label.clone(),
            epoch,
            cause: cause.to_owned(),
        }),
    }
}

/// The typed half of the read contract: the view as a `V`, or
/// [`EngineError::WrongViewType`].
pub(crate) fn downcast<'a, V: IncView>(
    (label, view): (&'a Arc<str>, &'a dyn IncView),
) -> Result<&'a V, EngineError> {
    view.downcast_ref()
        .ok_or_else(|| EngineError::WrongViewType {
            label: label.clone(),
            expected: std::any::type_name::<V>(),
        })
}

/// Generation-checked slots of registered views; see the
/// [module docs](self).
#[derive(Default)]
pub(crate) struct Registry {
    slots: Vec<Slot>,
    /// Tombstoned slot indices available for reuse, LIFO.
    free: Vec<u32>,
}

impl Registry {
    /// Run a deferred view constructor against `g`. A panicking builder
    /// yields [`EngineError::InitPanicked`] instead of unwinding.
    pub(crate) fn build<V: IncView>(
        label: &Arc<str>,
        init: impl FnOnce(&DynamicGraph) -> V,
        g: &DynamicGraph,
    ) -> Result<Box<dyn IncView>, EngineError> {
        match catch_unwind(AssertUnwindSafe(move || init(g))) {
            Ok(view) => Ok(Box::new(view)),
            Err(payload) => Err(EngineError::InitPanicked {
                label: label.clone(),
                cause: panic_cause(payload.as_ref()),
            }),
        }
    }

    /// Put `view` in a slot under `label`, which the caller has checked is
    /// free ([`Registry::find`] — before paying for the view's build).
    /// A tombstoned slot is reused when one is free — its generation was
    /// bumped when its last tenant left, so handles to that tenant stay
    /// stale; otherwise a fresh slot is appended.
    pub(crate) fn insert(&mut self, label: Arc<str>, view: Box<dyn IncView>) -> ViewId {
        debug_assert!(self.find(&label).is_none());
        let entry = Some(Registered {
            view,
            state: ViewState::Active,
            totals: ViewTotals {
                label,
                commits: 0,
                elapsed: Duration::ZERO,
                work: WorkStats::new(),
            },
        });
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].entry = entry;
                i
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    entry,
                });
                (self.slots.len() - 1) as u32
            }
        };
        ViewId {
            index,
            generation: self.slots[index as usize].generation,
        }
    }

    /// Tombstone the slot behind `id` (bumping its generation, so every
    /// outstanding handle to it goes stale) and hand its tenant back.
    pub(crate) fn remove(&mut self, id: ViewId) -> Result<Registered, EngineError> {
        let slot = self
            .slots
            .get_mut(id.index())
            .filter(|s| s.generation == id.generation)
            .ok_or_else(|| stale(id))?;
        let r = slot.entry.take().ok_or_else(|| stale(id))?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        Ok(r)
    }

    /// Live entries (quarantined included), in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Registered> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// Look up a live view's id by registry label.
    pub(crate) fn find(&self, label: &str) -> Option<ViewId> {
        self.slots.iter().enumerate().find_map(|(i, s)| {
            let r = s.entry.as_ref()?;
            (&*r.totals.label == label).then_some(ViewId {
                index: i as u32,
                generation: s.generation,
            })
        })
    }

    fn get(&self, id: ViewId) -> Option<&Registered> {
        self.slots
            .get(id.index())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.entry.as_ref())
    }

    /// The entry behind `id`, quarantined or not.
    pub(crate) fn occupied(&self, id: ViewId) -> Result<&Registered, EngineError> {
        self.get(id).ok_or_else(|| stale(id))
    }

    /// The active view behind `id`, with its label: [`resolve`] on this
    /// registry.
    pub(crate) fn active(&self, id: ViewId) -> Result<(&Arc<str>, &dyn IncView), EngineError> {
        resolve(self.get(id).map(Registered::found), id)
    }

    /// Views a fan-out will skip because an earlier one quarantined them.
    pub(crate) fn quarantined(&self) -> usize {
        self.entries().filter(|r| !r.state.is_active()).count()
    }

    /// Drive every active view's `apply` on `threads` threads: this one
    /// plus up to `threads − 1` scoped helpers, all pulling `(slot, view)`
    /// pairs from one shared queue; `g` already reflects `delta`. With
    /// `threads ≤ 1`, one active view, or no helper the OS would start,
    /// this thread drains the queue alone, in slot order.
    ///
    /// Returns one record per active view, in slot order; nothing is
    /// recorded yet — [`Registry::merge`] does that. [`drive_apply`] fences
    /// every view-code surface, so a helper only dies on a fault outside
    /// view code: it is joined by hand (its panic never reaches this
    /// thread), and each view it pulled stays in its slot with a failed
    /// record, which the merge quarantines.
    pub(crate) fn fan_out(
        &mut self,
        g: &DynamicGraph,
        delta: &UpdateBatch,
        threads: usize,
    ) -> Vec<ApplyRecord> {
        let active: Vec<(usize, &mut Box<dyn IncView>)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                let r = s.entry.as_mut().filter(|r| r.state.is_active())?;
                Some((i, &mut r.view))
            })
            .collect();
        let slots: Vec<usize> = active.iter().map(|&(slot, _)| slot).collect();
        let helpers = threads.min(active.len()).saturating_sub(1);
        // Advancing the iterator is the only thing done under the lock, and
        // it leaves the queue valid at every step: a poisoned lock is safe
        // to keep draining.
        let queue = Mutex::new(active.into_iter());
        let drain = || {
            let mut records = Vec::new();
            loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((slot, view)) = next else {
                    return records;
                };
                records.push(drive_apply(slot, view.as_mut(), g, delta));
            }
        };
        let mut records = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..helpers)
                .filter_map(|_| {
                    std::thread::Builder::new()
                        .name("igc-fan-out".into())
                        .spawn_scoped(s, drain)
                        .ok()
                })
                .collect();
            let mut records = drain();
            for helper in spawned {
                if let Ok(mut theirs) = helper.join() {
                    records.append(&mut theirs);
                }
            }
            records
        });
        if records.len() < slots.len() {
            let lost = "fan-out helper died mid-apply (the view's state is suspect)";
            for &slot in &slots {
                if !records.iter().any(|r| r.slot == slot) {
                    records.push(ApplyRecord::failed(slot, lost.into()));
                }
            }
        }
        records.sort_unstable_by_key(|r| r.slot);
        records
    }

    /// Fold a fan-out's records (in slot order) into the registry:
    /// accounting for every view that ran, quarantine at `epoch` for each
    /// whose `apply` panicked. Returns the per-view receipt entries and
    /// the work they sum to.
    pub(crate) fn merge(
        &mut self,
        records: Vec<ApplyRecord>,
        epoch: u64,
    ) -> (Vec<ViewCommitStats>, WorkStats) {
        let mut per_view = Vec::with_capacity(records.len());
        let mut total = WorkStats::new();
        for rec in records {
            let Some(r) = self.slots.get_mut(rec.slot).and_then(|s| s.entry.as_mut()) else {
                continue;
            };
            r.totals.elapsed += rec.elapsed;
            r.totals.work += rec.work;
            total += rec.work;
            let outcome = match rec.result {
                Ok(()) => {
                    r.totals.commits += 1;
                    ViewOutcome::Applied
                }
                Err(cause) => {
                    r.state = ViewState::Quarantined {
                        epoch,
                        cause: cause.clone(),
                    };
                    ViewOutcome::Quarantined { cause }
                }
            };
            per_view.push(ViewCommitStats {
                label: r.totals.label.clone(),
                elapsed: rec.elapsed,
                work: rec.work,
                outcome,
            });
        }
        (per_view, total)
    }

    /// Audit every active view against a from-scratch batch recomputation
    /// on `g` (quarantined views are known-bad and skipped):
    /// [`EngineError::ViewsDiverged`] listing every divergence.
    pub(crate) fn audit_all(&self, g: &DynamicGraph) -> Result<(), EngineError> {
        let failures: Vec<Divergence> = self
            .entries()
            .filter(|r| r.state.is_active())
            .filter_map(|r| audit(&r.totals.label, r.view.as_ref(), g))
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(EngineError::ViewsDiverged { failures })
        }
    }

    /// Audit one view: the read contract's errors, or a one-entry
    /// [`EngineError::ViewsDiverged`].
    pub(crate) fn audit(&self, id: ViewId, g: &DynamicGraph) -> Result<(), EngineError> {
        let (label, view) = self.active(id)?;
        match audit(label, view, g) {
            None => Ok(()),
            Some(d) => Err(EngineError::ViewsDiverged { failures: vec![d] }),
        }
    }

    /// The cells of a version published at `epoch`: one per occupied slot —
    /// a quarantine record, or the copy the view makes of itself
    /// ([`IncView::clone_view`], fenced by [`CellState::publish`]). A view
    /// whose `clone_view` panics gets a cell quarantined at `epoch` and a
    /// failed record, for [`Registry::merge`].
    pub(crate) fn cells(&self, epoch: u64) -> (Vec<SnapCell>, Vec<ApplyRecord>) {
        let mut failed = Vec::new();
        let mut cells = Vec::with_capacity(self.slots.len());
        for (slot, s) in self.slots.iter().enumerate() {
            let Some(r) = s.entry.as_ref() else {
                continue;
            };
            let state = match r.found().1 {
                Ok(view) => CellState::publish(view).unwrap_or_else(|cause| {
                    failed.push(ApplyRecord::failed(slot, cause.clone()));
                    CellState::Quarantined { epoch, cause }
                }),
                Err((epoch, cause)) => CellState::Quarantined {
                    epoch,
                    cause: cause.to_owned(),
                },
            };
            cells.push(SnapCell {
                index: slot as u32,
                generation: s.generation,
                label: Arc::clone(&r.totals.label),
                state,
            });
        }
        (cells, failed)
    }
}

/// One fenced audit: a divergence, a panic counted as one, or `None`.
fn audit(label: &Arc<str>, view: &dyn IncView, g: &DynamicGraph) -> Option<Divergence> {
    let diagnosis = match catch_unwind(AssertUnwindSafe(|| view.verify_against_batch(g))) {
        Ok(Ok(())) => return None,
        Ok(Err(diagnosis)) => diagnosis,
        Err(payload) => format!("audit panicked: {}", panic_cause(payload.as_ref())),
    };
    Some(Divergence {
        label: label.clone(),
        diagnosis,
    })
}
