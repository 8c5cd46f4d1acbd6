//! Background view construction: the handle returned by
//! [`Engine::register_background`](crate::Engine::register_background).
//!
//! A background build runs a view's expensive initial construction *off
//! the commit path*, and it is nothing but a [`Replica`] with one view: a
//! worker thread attaches a follower to the engine's commit log (newest
//! checkpoint + tail), registers the view on it, and catches it up on the
//! commits that kept flowing meanwhile. The engine thread finally drains
//! the last sliver of tail and moves the view out of the follower's
//! registry into its own —
//! [`Engine::join_background`](crate::Engine::join_background). Being a
//! follower, the build survives an
//! [`Engine::compact_log`](crate::Engine::compact_log) the way every
//! follower does — its next catch-up re-seeds it — and a log failure
//! reaches the caller as the error a `Replica` reports.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::lifecycle::{LifecycleEventKind, ViewHandle, ViewId, ViewState};
use crate::replica::Replica;
use igc_core::{panic_cause, IncView};
use igc_graph::DynamicGraph;
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::JoinHandle;

/// An in-flight background view build. Commits keep flowing while it
/// runs; hand it back to [`Engine::join_background`] to splice the view
/// in (blocking only for the initial build if it is still running, plus a
/// final catch-up over whatever tail remains — typically a few records).
///
/// The target label stays **reserved** while this handle is alive: other
/// registrations of the same label fail with
/// [`EngineError::DuplicateLabel`](crate::EngineError::DuplicateLabel).
/// Dropping the handle without joining abandons the build and frees the
/// label; the detached worker finishes its (read-only) replay and exits.
///
/// [`Engine::join_background`]: crate::Engine::join_background
pub struct BackgroundBuild<V> {
    label: Arc<str>,
    /// Reservation token: the engine holds a `Weak` to it, so the label
    /// frees itself when this handle (or the join that consumed it) drops.
    _token: Arc<()>,
    /// The worker's follower, and where in its registry the view sits.
    handle: JoinHandle<Result<(Replica, ViewId), EngineError>>,
    _view: PhantomData<fn() -> V>,
}

impl<V> BackgroundBuild<V> {
    /// The registry label the finished view will occupy.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True once the worker has finished its build and initial catch-up —
    /// [`Engine::join_background`](crate::Engine::join_background) will
    /// not block on the build itself.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

impl<V> std::fmt::Debug for BackgroundBuild<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackgroundBuild")
            .field("label", &self.label)
            .field("finished", &self.handle.is_finished())
            .field("view", &std::any::type_name::<V>())
            .finish()
    }
}

impl Engine {
    /// Register a view in the **background**: the payoff of the commit
    /// log. Where [`Engine::register`] builds the view's initial
    /// state from the live graph *on the calling thread* (blocking the
    /// commit path for the whole build), this spawns a worker that
    /// attaches a follower to the journal (latest checkpoint + tail),
    /// runs the builder on the follower's graph, and catches the fresh
    /// view up on whatever commits landed meanwhile — the engine keeps
    /// committing (and journaling, and compacting) throughout. Finish with [`Engine::join_background`], which drains
    /// the final sliver of tail and atomically splices the view into the
    /// registry; its answers are then bit-identical to a view registered
    /// at the start and driven through the same commits.
    ///
    /// `label` is *reserved* while the returned [`BackgroundBuild`] is
    /// alive (duplicate registrations fail); dropping the handle abandons
    /// the build and frees the label. Requires an attached log
    /// ([`EngineError::NoLog`]); the duplicate-label check runs before
    /// the worker spawns.
    pub fn register_background<V, F>(
        &mut self,
        label: impl Into<Arc<str>>,
        init: F,
    ) -> Result<BackgroundBuild<V>, EngineError>
    where
        V: IncView,
        F: FnOnce(&DynamicGraph) -> V + Send + 'static,
    {
        let label: Arc<str> = label.into();
        if self.label_occupied(&label) {
            return Err(EngineError::DuplicateLabel { label });
        }
        let operation = "register_background";
        let backend = self
            .log()
            .ok_or(EngineError::NoLog { operation })?
            .backend();
        let token = Arc::new(());
        // Opportunistic pruning keeps the reservation list bounded by the
        // number of *live* builds.
        self.reserved.retain(|(_, t)| t.strong_count() > 0);
        self.reserved.push((label.clone(), Arc::downgrade(&token)));
        let worker_label = label.clone();
        let handle = std::thread::spawn(move || {
            let mut follower = Replica::attach(backend)?;
            let id = follower.register(worker_label, init)?.id();
            // First catch-up round on the worker: drain the commits that
            // landed while the initial build ran, off the commit path.
            follower.catch_up()?;
            Ok((follower, id))
        });
        Ok(BackgroundBuild {
            label,
            _token: token,
            handle,
            _view: PhantomData,
        })
    }

    /// Complete a background registration: wait for the worker's build
    /// (instant if [`BackgroundBuild::is_finished`]), replay the few
    /// records that arrived since its last catch-up round — nothing can
    /// interleave here, commits need this same `&mut self` — and move the
    /// view out of the follower into the registry under its reserved
    /// label, journaled as [`LifecycleEventKind::RegisteredBackground`].
    ///
    /// A builder or a catch-up `apply` that panicked surfaces as
    /// [`EngineError::InitPanicked`]; a log failure as the error
    /// [`Replica::catch_up`] reports. Nothing is registered and the label
    /// is freed either way.
    pub fn join_background<V: IncView>(
        &mut self,
        build: BackgroundBuild<V>,
    ) -> Result<ViewHandle<V>, EngineError> {
        let BackgroundBuild {
            label,
            handle,
            _token: reservation,
            ..
        } = build;
        let init_panicked = |cause| EngineError::InitPanicked {
            label: label.clone(),
            cause,
        };
        // The worker runs view code only behind the registry's fences, so
        // a panic of the thread itself is a bug — reported, not unwound.
        let (mut follower, id) = handle
            .join()
            .map_err(|payload| init_panicked(panic_cause(payload.as_ref())))??;
        follower.catch_up()?;
        if follower.frontier() != self.graph.epoch() {
            // The log and the engine disagree on the current epoch — only
            // possible if the journal was tampered with underneath us.
            return Err(EngineError::EpochGap {
                expected: self.graph.epoch(),
                found: follower.frontier(),
            });
        }
        let entry = follower.into_entry(id)?;
        if let ViewState::Quarantined { cause, .. } = entry.state {
            return Err(init_panicked(cause));
        }
        drop(reservation); // the label is this view's from here on
        self.insert(label, entry.view, LifecycleEventKind::RegisteredBackground)
    }
}
