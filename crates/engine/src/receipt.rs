//! What a commit reports back: per-view and commit-wide cost accounting,
//! including quarantine outcomes.

use igc_core::WorkStats;
use std::sync::Arc;
use std::time::Duration;

/// How one view's `apply` ended during a commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewOutcome {
    /// The view processed the delta normally.
    Applied,
    /// The view's `apply` panicked; the engine caught it and quarantined
    /// the view as of this commit's epoch. Later commits skip it.
    Quarantined {
        /// The rendered panic payload.
        cause: String,
    },
}

/// Per-view cost of one commit, as recorded in a [`CommitReceipt`].
///
/// Only views whose `apply` actually ran appear (already-quarantined views
/// are skipped and counted in
/// [`CommitReceipt::skipped_quarantined`]); a view quarantined *by* this
/// commit appears with [`ViewOutcome::Quarantined`] and the cost it
/// incurred before panicking.
#[derive(Debug, Clone)]
pub struct ViewCommitStats {
    /// The view's registry label (shared with the registry — cloning a
    /// receipt bumps a refcount instead of copying strings).
    pub label: Arc<str>,
    /// Wall-clock time of this view's `apply`.
    pub elapsed: Duration,
    /// Work counters this view accumulated during this commit.
    pub work: WorkStats,
    /// How the `apply` ended.
    pub outcome: ViewOutcome,
}

impl ViewCommitStats {
    /// True when this view processed the delta normally.
    pub fn applied(&self) -> bool {
        self.outcome == ViewOutcome::Applied
    }
}

/// The result of one [`Engine::commit`](crate::Engine::commit): what was
/// applied, at which graph version, and what it cost — per view and in
/// total.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// Graph epoch after this commit. An all-no-op batch does not advance
    /// the epoch; the receipt then reports the current (unchanged) one.
    pub epoch: u64,
    /// Unit updates in the batch as submitted.
    pub submitted: usize,
    /// Unit updates that survived normalization and were applied.
    pub applied: usize,
    /// Unit updates normalization dropped (duplicates, cancelled
    /// insert/delete pairs, deletes of absent edges, inserts of present
    /// edges).
    pub dropped: usize,
    /// Wall-clock time to apply ΔG to the shared graph.
    pub graph_elapsed: Duration,
    /// Total wall-clock commit time: normalization + graph apply + every
    /// view's apply.
    pub elapsed: Duration,
    /// Per-view cost, in slot order, for the views that ran.
    pub per_view: Vec<ViewCommitStats>,
    /// Views this commit skipped because they were already quarantined by
    /// an earlier commit. (Zero for no-op commits, where nothing fans
    /// out.)
    pub skipped_quarantined: usize,
    /// Sum of all views' work during this commit (including partial work
    /// of a view quarantined by this commit).
    pub work: WorkStats,
    /// Always `0`: kept only because the benchmark's traced run reads it.
    pub log_retries: u64,
}

impl CommitReceipt {
    /// True when normalization left nothing to do: the graph and every view
    /// are untouched.
    pub fn is_noop(&self) -> bool {
        self.applied == 0
    }

    /// Views quarantined *by* this commit (their `apply` panicked here).
    pub fn newly_quarantined(&self) -> impl Iterator<Item = &ViewCommitStats> {
        self.per_view.iter().filter(|v| !v.applied())
    }
}

/// Cumulative per-view accounting across every commit of an engine.
#[derive(Debug, Clone)]
pub struct ViewTotals {
    /// The view's registry label.
    pub label: Arc<str>,
    /// Commits this view has processed (registration-time onwards;
    /// all-no-op commits and skipped/panicked applies are not counted).
    pub commits: u64,
    /// Total wall-clock time spent in this view's `apply`.
    pub elapsed: Duration,
    /// Total work attributed to this view by the engine's commits.
    pub work: WorkStats,
}

/// Cumulative accounting across every commit of an engine
/// ([`Engine::totals`](crate::Engine::totals)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Effective (non-no-op) commits processed.
    pub commits: u64,
    /// Unit updates applied across all commits (post-normalization).
    pub units_applied: u64,
    /// Unit updates dropped by normalization across all commits that went
    /// through (a rejected commit counts nothing).
    pub units_dropped: u64,
    /// Total view work across all commits, retired views included.
    pub work: WorkStats,
    /// Total wall-clock time spent committing, including the
    /// normalization cost of batches that turned out to be no-ops.
    pub elapsed: Duration,
}
