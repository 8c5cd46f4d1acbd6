//! View lifecycle surface: typed handles with generations, per-view health
//! state, and the engine's lifecycle event log.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// Untyped identity of a registered view: a registry slot index plus the
/// generation the slot had when the view was registered.
///
/// Slots are reused after [`deregister`](crate::Engine::deregister) (each
/// reuse bumps the generation), so an id can go *stale* but can never
/// silently alias a later tenant of the same slot: every accessor checks
/// the generation and returns
/// [`EngineError::StaleHandle`](crate::EngineError::StaleHandle) on
/// mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl ViewId {
    /// The registry slot index. Quarantined and deregistered slots keep
    /// their index, so two live views never share one.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The slot generation this id was issued under.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Typed handle to a registered view: a [`ViewId`] that additionally
/// remembers the concrete view type `V`, so
/// [`Engine::view`](crate::Engine::view),
/// and [`Snapshot::view`](crate::Snapshot::view) — on a leader and on a
/// follower alike — return `&V` without any caller-side downcasting.
///
/// Handles are `Copy` and independent of `V`'s own traits (the type only
/// rides along in `PhantomData`). Like [`ViewId`], a handle goes stale once
/// its view is deregistered — generation checks make slot reuse safe.
pub struct ViewHandle<V> {
    pub(crate) id: ViewId,
    _view: PhantomData<fn() -> V>,
}

impl<V> ViewHandle<V> {
    pub(crate) fn new(id: ViewId) -> Self {
        ViewHandle {
            id,
            _view: PhantomData,
        }
    }

    /// The untyped identity of this handle (what label-based lookup
    /// returns, and what [`Engine::deregister`](crate::Engine::deregister)
    /// accepts).
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The registry slot index.
    pub fn index(&self) -> usize {
        self.id.index()
    }

    /// The slot generation this handle was issued under.
    pub fn generation(&self) -> u32 {
        self.id.generation
    }
}

// Manual impls: derives would needlessly bound `V`.
impl<V> Clone for ViewHandle<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for ViewHandle<V> {}
impl<V> PartialEq for ViewHandle<V> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<V> Eq for ViewHandle<V> {}
impl<V> std::hash::Hash for ViewHandle<V> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}
impl<V> fmt::Debug for ViewHandle<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewHandle")
            .field("index", &self.id.index)
            .field("generation", &self.id.generation)
            .field("view", &std::any::type_name::<V>())
            .finish()
    }
}

impl<V> From<ViewHandle<V>> for ViewId {
    fn from(h: ViewHandle<V>) -> ViewId {
        h.id
    }
}

/// A registered view's health, per
/// [`Engine::state`](crate::Engine::state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewState {
    /// Healthy: participates in commits, audits and accessors.
    Active,
    /// Fenced off after a panicking `apply`: skipped by every later commit
    /// and audit, accessors return
    /// [`EngineError::ViewQuarantined`](crate::EngineError::ViewQuarantined).
    /// The only way out is [`deregister`](crate::Engine::deregister).
    Quarantined {
        /// Graph epoch of the commit whose `apply` panicked.
        epoch: u64,
        /// The rendered panic payload.
        cause: String,
    },
}

impl ViewState {
    /// True for [`ViewState::Active`].
    pub fn is_active(&self) -> bool {
        matches!(self, ViewState::Active)
    }
}

/// What happened in a [`LifecycleEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEventKind {
    /// A registration ([`register`](crate::Engine::register)): the view's
    /// initial state was built from the engine's graph at this epoch.
    Registered,
    /// A background registration completed
    /// ([`join_background`](crate::Engine::join_background)): the view's
    /// initial state was built off the commit path from a checkpointed
    /// graph, caught up by log-tail replay, and spliced in at this epoch.
    RegisteredBackground,
    /// A deregistration; the slot became reusable and the view's
    /// cumulative totals moved to [`Engine::retired`](crate::Engine::retired).
    Deregistered,
    /// A commit caught this view's panicking `apply` and quarantined it.
    Quarantined,
}

impl LifecycleEventKind {
    /// A stable lowercase tag (`"registered"`, `"registered_background"`,
    /// `"deregistered"`, `"quarantined"`) for logs and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            LifecycleEventKind::Registered => "registered",
            LifecycleEventKind::RegisteredBackground => "registered_background",
            LifecycleEventKind::Deregistered => "deregistered",
            LifecycleEventKind::Quarantined => "quarantined",
        }
    }
}

/// One entry of the engine's lifecycle journal
/// ([`Engine::events`](crate::Engine::events)): which view changed state,
/// how, and at which graph epoch.
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    /// Graph epoch at the time of the event.
    pub epoch: u64,
    /// What happened.
    pub kind: LifecycleEventKind,
    /// The affected view's registry label (shared, not cloned, with the
    /// registry).
    pub label: Arc<str>,
}
