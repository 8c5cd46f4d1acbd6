//! Background view construction: the handle returned by
//! [`Engine::register_background`](crate::Engine::register_background).
//!
//! A background build runs a view's expensive initial construction *off
//! the commit path*: a worker thread replays the engine's commit log into
//! a private graph (latest checkpoint + tail), builds the view from that
//! graph, then keeps catching it up by replaying log records appended by
//! commits that kept flowing meanwhile. The engine thread finally drains
//! the last sliver of tail and splices the view into the registry —
//! [`Engine::join_background`](crate::Engine::join_background).

use crate::durability::attached;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::lifecycle::{LifecycleEventKind, ViewHandle};
use igc_core::{panic_cause, IncView, IncrementalAlgorithm, ViewInit};
use igc_graph::DynamicGraph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a background worker hands back: its replayed graph (proof of the
/// epoch it reached) plus the built, caught-up view. `Err` carries a
/// rendered cause (log failure or a panicking builder).
pub(crate) type BuildResult<V> = Result<(DynamicGraph, V), String>;

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
    handle: JoinHandle<BuildResult<V>>,
}

impl<V> BackgroundBuild<V> {
    pub(crate) fn new(label: Arc<str>, token: Arc<()>, handle: JoinHandle<BuildResult<V>>) -> Self {
        BackgroundBuild {
            label,
            _token: token,
            handle,
        }
    }

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

    pub(crate) fn into_parts(self) -> (Arc<str>, JoinHandle<BuildResult<V>>) {
        (self.label, self.handle)
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
    /// log. Where [`Engine::register_lazy`] builds the view's initial
    /// state from the live graph *on the calling thread* (blocking the
    /// commit path for the whole build), this spawns a worker that
    /// replays the journal into a private graph (latest checkpoint +
    /// tail), runs the [`ViewInit`] there, and catches the fresh view up
    /// by replaying whatever commits landed meanwhile — the engine keeps
    /// committing (and journaling) throughout. Finish with
    /// [`Engine::join_background`], which drains the final sliver of tail
    /// and atomically splices the view into the registry; its answers are
    /// then bit-identical to an eager registration driven through the
    /// same commits.
    ///
    /// `label` is *reserved* while the returned [`BackgroundBuild`] is
    /// alive (duplicate registrations fail); dropping the handle abandons
    /// the build and frees the label. Requires an attached log
    /// ([`EngineError::NoLog`]); the duplicate-label check runs before
    /// the worker spawns.
    pub fn register_background<I>(
        &mut self,
        label: impl Into<Arc<str>>,
        init: I,
    ) -> Result<BackgroundBuild<I::View>, EngineError>
    where
        I: ViewInit + Send + 'static,
    {
        let label: Arc<str> = label.into();
        if self.label_occupied(&label) {
            return Err(EngineError::DuplicateLabel { label });
        }
        let log = attached(&self.log, "register_background")?;
        let replayer = log.replayer();
        let token = Arc::new(());
        // Opportunistic pruning keeps the reservation list bounded by the
        // number of *live* builds.
        self.reserved.retain(|(_, t)| t.strong_count() > 0);
        self.reserved.push((label.clone(), Arc::downgrade(&token)));
        let handle = std::thread::spawn(move || {
            let mut replayed = replayer.latest().map_err(|e| e.to_string())?;
            let mut view = catch_unwind(AssertUnwindSafe(|| init.build(&replayed.graph)))
                .map_err(|payload| panic_cause(payload.as_ref()))?;
            // First catch-up round on the worker: drain the commits that
            // landed while the initial build ran, off the commit path.
            replayer
                .catch_up(&mut replayed.graph, |g, delta| view.apply(g, delta))
                .map_err(|e| e.to_string())?;
            Ok((replayed.graph, view))
        });
        Ok(BackgroundBuild::new(label, token, handle))
    }

    /// Complete a background registration: wait for the worker's build
    /// (instant if [`BackgroundBuild::is_finished`]), replay the few
    /// records that arrived since its last catch-up round — nothing can
    /// interleave here, commits need this same `&mut self` — and splice
    /// the view into the registry under its reserved label, journaled as
    /// [`LifecycleEventKind::RegisteredBackground`].
    ///
    /// A worker that failed (log error, panicking builder or panicking
    /// catch-up `apply`) surfaces as [`EngineError::InitPanicked`] with
    /// nothing registered; the label is freed either way.
    pub fn join_background<V: IncView>(
        &mut self,
        build: BackgroundBuild<V>,
    ) -> Result<ViewHandle<V>, EngineError> {
        let (label, handle) = build.into_parts();
        let built = handle
            .join()
            .unwrap_or_else(|payload| Err(panic_cause(payload.as_ref())));
        let (mut g, mut view) = match built {
            Ok(pair) => pair,
            Err(cause) => return Err(EngineError::InitPanicked { label, cause }),
        };
        let log = attached(&self.log, "join_background")?;
        // Final catch-up, fenced like any other view code: a panicking
        // `apply` here must reject the registration, not unwind the
        // engine.
        let replayer = log.replayer();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            replayer.catch_up(&mut g, |g_now, delta| view.apply(g_now, delta))
        }));
        match caught {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(e.into()),
            Err(payload) => {
                return Err(EngineError::InitPanicked {
                    label,
                    cause: panic_cause(payload.as_ref()),
                })
            }
        }
        if g.epoch() != self.graph.epoch() {
            // The log and the engine disagree on the current epoch — only
            // possible if the journal was tampered with underneath us.
            return Err(EngineError::EpochGap {
                expected: self.graph.epoch(),
                found: g.epoch(),
            });
        }
        self.insert(
            label,
            Box::new(view),
            LifecycleEventKind::RegisteredBackground,
        )
    }
}
