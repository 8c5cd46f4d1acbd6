//! The one contract every maintained query implements: the paper's
//! incremental algorithm `T_Δ`, taking `(Q, G, Q(G), ΔG)` to `ΔO`
//! (Section 2.2), declared once as [`IncView`].
//!
//! A view class writes one `impl` with five methods: `apply` and `work`
//! are `T_Δ` itself, and `name`, `clone_view` and `verify_against_batch`
//! are what a registry needs to hold heterogeneous algorithms behind
//! `Box<dyn IncView>`, publish them and audit them. Statically dispatched
//! users (the paper experiments, the `Inc*ⁿ` one-by-one drivers, `DynScc`)
//! call the same methods on the concrete type, and
//! `view.downcast_ref::<IncRpq>()` (inherent on `dyn IncView`) gets the
//! concrete type back from an erased one.

use crate::work::WorkStats;
use igc_graph::{DynamicGraph, UpdateBatch};
use std::any::Any;

/// A standing query maintained incrementally over a shared dynamic graph:
/// an incremental algorithm `T_Δ` for some query class (Section 2.2), plus
/// what a registry needs to hold it type-erased, publish it and audit it.
///
/// # Contract
///
/// The view is constructed from an initial graph (running its batch
/// counterpart once to build `Q(G)` and the auxiliary structures). To
/// process a batch `ΔG`:
///
/// 1. the **caller** applies `ΔG` to the graph (`g.apply_batch(delta)`),
/// 2. then calls [`IncView::apply`] with the *post-update* graph and the
///    batch.
///
/// `delta` must be normalized: the paper assumes w.l.o.g. that no edge is
/// both inserted and deleted in one batch, deletions reference present
/// edges, and insertions reference absent ones. Arbitrary batches can be
/// made to satisfy all three with one
/// [`UpdateBatch::normalize_against`] call against the pre-update graph
/// (the generator produces such batches directly; the engine's commit
/// pipeline normalizes once on behalf of every registered view, so the
/// precondition holds for every `apply` it fans out).
///
/// The trait is object-safe on purpose: an engine holds
/// `Box<dyn IncView>`s of heterogeneous query classes (RPQ, SCC, KWS, ISO,
/// …) in one registry.
///
/// # Supertraits
///
/// [`Any`] lets a registry hand the concrete type back (`downcast_ref`
/// upcasts to `dyn Any`) and makes every view `'static`. `Send` lets the
/// engine's commit pipeline fan a normalized delta out to views on worker
/// threads (each view is touched by exactly one thread per commit, against
/// a shared `&DynamicGraph`); `Sync` lets an MVCC snapshot serve a view's
/// published copy ([`clone_view`](IncView::clone_view)) to any number of
/// reader threads concurrently. Views built from ordinary owned data
/// satisfy both for free; a view holding `Rc`/`Cell`/raw-pointer state must
/// be refactored (or wrapped) before it can register.
///
/// # Quarantine contract
///
/// A view's `apply` may panic (a bug, an unmaintainable corner case, a
/// poisoned auxiliary structure). The engine drives fan-out inside
/// [`std::panic::catch_unwind`], which converts the panic into an `Err`
/// instead of unwinding through the commit pipeline. The contract is:
///
/// * after a panicking `apply`, the view's *logical* state (its answer and
///   auxiliary structures) may be arbitrarily inconsistent, but reading it
///   must remain memory-safe — the ordinary guarantee of safe Rust, so any
///   view written without `unsafe` state manipulation satisfies it for
///   free;
/// * the engine never calls `apply`, `verify_against_batch` or hands out
///   accessors for a quarantined view again; only deregistration (which
///   drops it) is permitted, so the inconsistency is never observed;
/// * `work()` may still be read once, immediately after the panic, to
///   attribute the partial work the view performed before failing; the
///   engine fences that read too — if `work()` also panics, the view is
///   quarantined with zero work attributed instead of unwinding.
///
/// The contract holds unchanged under parallel fan-out: a panic on a worker
/// thread is caught on that worker, the commit joins every worker before
/// journaling, and the quarantine record is identical to what a sequential
/// commit would have produced.
pub trait IncView: Any + Send + Sync {
    /// A stable human-readable identifier for registry listings, receipts
    /// and logs (e.g. `"rpq"`, `"scc:communities"`).
    fn name(&self) -> &str;

    /// Process a batch update; `g` already reflects `delta`.
    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch);

    /// Work accumulated since construction. A caller measuring one stretch
    /// reads it before and after: `v.work().since(&before)`.
    fn work(&self) -> WorkStats;

    /// The copy of this view that readers are served: what its read API
    /// answers, and nothing the view keeps only to *maintain* that answer.
    ///
    /// **Who calls it, when.** The engine owns every view uniquely and
    /// mutates it in place. Each time it publishes an MVCC version — at the
    /// end of every non-noop commit and after every lifecycle event — it
    /// calls `clone_view` once per active view and puts the copy in the
    /// version; replicas do the same per snapshot. It therefore runs on the
    /// commit hot path whether or not anyone holds a pin: **keep it O(1)**.
    /// Put the state the read accessors serve behind `Arc`s, bump those
    /// here, and unshare with [`Arc::make_mut`](std::sync::Arc::make_mut)
    /// once per `apply` (not per operation) — then a held pin costs one
    /// copy of the answer per commit, and no pin costs nothing.
    ///
    /// **What the copy must carry.** Every read accessor answers
    /// identically on copy and original at the moment of the call, and the
    /// two are independent from then on: mutating either never shows in the
    /// other. `work()` travels with the copy.
    ///
    /// **What it need not carry.** Auxiliary state — the paper's `pmark`
    /// markings, match indexes, scratch buffers. The copy must still be a
    /// valid view: if it is ever handed an `apply(g, Δ)` it rebuilds what it
    /// left out from `g` (which already reflects Δ) and carries on.
    /// `verify_against_batch` on a copy audits what the copy has.
    ///
    /// **`Clone` vs `clone_view`.** `Clone` (where a view derives it) stays
    /// the full, writable twin, auxiliary state included; `clone_view` is
    /// the cheap published one. For a view with no auxiliary state worth
    /// withholding they coincide: `Box::new(self.clone())`.
    ///
    /// A panic here is fenced like one in `apply`: the view is quarantined
    /// and published as such.
    fn clone_view(&self) -> Box<dyn IncView>;

    /// Consistency audit: recompute the view's answer from scratch on `g`
    /// (the batch counterpart the incrementalization was derived from) and
    /// compare. Returns `Err` with a human-readable diagnosis on
    /// divergence. Expensive — intended for tests, canaries and the
    /// engine's `verify_all`, not the hot commit path.
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String>;
}

impl dyn IncView {
    /// The concrete view behind a type-erased one, or `None` when it is not
    /// a `V` — how a registry serves typed reads
    /// (`view.downcast_ref::<IncRpq>()`).
    pub fn downcast_ref<V: IncView>(&self) -> Option<&V> {
        (self as &dyn Any).downcast_ref()
    }
}

/// Render a panic payload (as caught by [`std::panic::catch_unwind`]) into
/// a human-readable cause for quarantine records and error messages.
///
/// `panic!("…")` payloads are `&str` or `String`; anything else (a custom
/// `panic_any` payload) is reported by its opaque presence only.
pub fn panic_cause(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Drive an incremental algorithm one unit update at a time — the paper's
/// `Inc*ⁿ` baselines, which forgo the batch-grouping optimisations. Returns
/// the graph fully updated, with `alg` having processed each unit as a
/// singleton batch.
pub fn apply_one_by_one<A: IncView + ?Sized>(
    alg: &mut A,
    g: &mut DynamicGraph,
    delta: &UpdateBatch,
) {
    for u in delta.iter() {
        let single = UpdateBatch::from_updates(vec![*u]);
        g.apply_batch(&single);
        alg.apply(g, &single);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::{NodeId, Update};

    /// A toy incremental algorithm: maintains the edge count.
    #[derive(Clone)]
    struct EdgeCounter {
        count: usize,
        work: WorkStats,
    }

    impl IncView for EdgeCounter {
        fn name(&self) -> &str {
            "edge-counter"
        }
        fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
            self.count = g.edge_count();
            self.work.aux_touched += delta.len() as u64;
        }
        fn work(&self) -> WorkStats {
            self.work
        }
        fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
            if self.count == g.edge_count() {
                Ok(())
            } else {
                Err(format!(
                    "edge-counter: maintained {} ≠ actual {}",
                    self.count,
                    g.edge_count()
                ))
            }
        }
        fn clone_view(&self) -> Box<dyn IncView> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn inc_view_is_object_safe() {
        let mut g = graph_from(&[0, 0], &[]);
        let mut view: Box<dyn IncView> = Box::new(EdgeCounter {
            count: 0,
            work: WorkStats::new(),
        });
        let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&delta);
        view.apply(&g, &delta);
        assert_eq!(view.name(), "edge-counter");
        assert_eq!(view.downcast_ref::<EdgeCounter>().map(|c| c.count), Some(1));
        assert!(view.verify_against_batch(&g).is_ok());
        g.apply(&Update::insert(NodeId(1), NodeId(0)));
        let err = view.verify_against_batch(&g).unwrap_err();
        assert!(err.contains("edge-counter"), "diagnosis names the view");
    }

    #[test]
    fn one_by_one_processes_each_unit() {
        let mut g = graph_from(&[0, 0, 0], &[]);
        let mut alg = EdgeCounter {
            count: 0,
            work: WorkStats::new(),
        };
        let delta = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::insert(NodeId(1), NodeId(2)),
        ]);
        apply_one_by_one(&mut alg, &mut g, &delta);
        assert_eq!(alg.count, 2);
        assert_eq!(g.edge_count(), 2);
    }
}
