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
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one view's `apply` cost and how it ended, before
/// [`Registered::fold`] books it into the view's accounting.
struct ApplyRecord {
    elapsed: Duration,
    work: WorkStats,
    result: Result<(), String>,
}

impl ApplyRecord {
    /// The record of a view whose `clone_view` panicked at publish: no
    /// work, quarantine for `cause`.
    fn failed(cause: String) -> Self {
        ApplyRecord {
            elapsed: Duration::ZERO,
            work: WorkStats::new(),
            result: Err(cause),
        }
    }
}

/// Drive one view's `apply` against the post-commit graph and snapshot
/// its cost.
///
/// Fully fenced: the inner `catch_unwind` converts an `apply` panic into
/// `Err`, the post-panic `work()` read is fenced per the [quarantine
/// contract](IncView#quarantine-contract), and the outer `catch_unwind`
/// covers the remaining view-code surface (a `work()` that panics even
/// *before* `apply`), so no view can unwind a commit. The same contract
/// makes `AssertUnwindSafe` sound: a view that panicked is never used
/// again.
fn drive_apply(view: &mut dyn IncView, graph: &DynamicGraph, delta: &UpdateBatch) -> ApplyRecord {
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

    /// Book `rec` into this view's accounting — quarantined at `epoch` if
    /// it failed — and return its receipt entry.
    fn fold(&mut self, rec: ApplyRecord, epoch: u64) -> ViewCommitStats {
        self.totals.elapsed += rec.elapsed;
        self.totals.work += rec.work;
        let outcome = match rec.result {
            Ok(()) => {
                self.totals.commits += 1;
                ViewOutcome::Applied
            }
            Err(cause) => {
                self.state = ViewState::Quarantined {
                    epoch,
                    cause: cause.clone(),
                };
                ViewOutcome::Quarantined { cause }
            }
        };
        ViewCommitStats {
            label: self.totals.label.clone(),
            elapsed: rec.elapsed,
            work: rec.work,
            outcome,
        }
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

    /// Drive every active view's `apply` on this thread, in slot order;
    /// `g` already reflects `delta`. Each record is folded into its view as
    /// it is produced — quarantine at `epoch` for a view whose `apply`
    /// panicked. Returns the per-view receipt entries and the work they
    /// sum to.
    pub(crate) fn fan_out(
        &mut self,
        g: &DynamicGraph,
        delta: &UpdateBatch,
        epoch: u64,
    ) -> (Vec<ViewCommitStats>, WorkStats) {
        let mut per_view = Vec::with_capacity(self.slots.len());
        let mut total = WorkStats::new();
        for r in self.slots.iter_mut().filter_map(|s| s.entry.as_mut()) {
            if r.state.is_active() {
                let rec = drive_apply(r.view.as_mut(), g, delta);
                total += rec.work;
                per_view.push(r.fold(rec, epoch));
            }
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
    /// whose `clone_view` panics gets a cell quarantined at `epoch`, is
    /// quarantined itself, and gets a receipt entry saying so.
    pub(crate) fn cells(&mut self, epoch: u64) -> (Vec<SnapCell>, Vec<ViewCommitStats>) {
        let mut failed = Vec::new();
        let mut cells = Vec::with_capacity(self.slots.len());
        for (slot, s) in self.slots.iter_mut().enumerate() {
            let Some(r) = s.entry.as_mut() else {
                continue;
            };
            let state = match r.found().1 {
                Ok(view) => CellState::publish(view),
                Err((epoch, cause)) => Ok(CellState::Quarantined {
                    epoch,
                    cause: cause.to_owned(),
                }),
            };
            let state = state.unwrap_or_else(|cause| {
                failed.push(r.fold(ApplyRecord::failed(cause.clone()), epoch));
                CellState::Quarantined { epoch, cause }
            });
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
