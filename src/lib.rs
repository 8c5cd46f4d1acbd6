#![warn(missing_docs)]

//! # incgraph — Incremental Graph Computations: Doable and Undoable
//!
//! A reproduction of Fan, Hu and Tian (SIGMOD 2017): batch and incremental
//! algorithms for four graph query classes, together with the paper's two
//! effectiveness characterisations — *localizability* and *relative
//! boundedness* — made executable.
//!
//! | Query class | Batch algorithm | Incremental | Guarantee |
//! |---|---|---|---|
//! | Regular path queries ([`rpq`]) | NFA-product traversal | `IncRpq` | bounded relative to `RPQ_NFA` |
//! | Strongly connected components ([`scc`]) | Tarjan | `IncScc` | bounded relative to Tarjan |
//! | Keyword search ([`kws`]) | kdist-list BFS (BLINKS-style) | `IncKws` | localizable (radius `2b`) |
//! | Subgraph isomorphism ([`iso`]) | VF2 | `IncIso` | localizable (radius `d_Q`) |
//! | Delta-rule (Datalog) views ([`rules`]) | naive fixpoint | `IncRules` | bounded by affected facts (support counting + derivation ranks) |
//!
//! The incremental problems for all four classes are *unbounded* in the
//! classical sense (Theorem 1); [`core`] contains the Δ-reduction machinery
//! and gadget families behind those impossibility results.
//!
//! ## Quickstart
//!
//! ```
//! use incgraph::prelude::*;
//!
//! // A small labelled digraph: person(0) → person(1) → city(2)
//! let mut interner = LabelInterner::new();
//! let person = interner.intern("person");
//! let city = interner.intern("city");
//! let mut g = DynamicGraph::new();
//! let v0 = g.add_node(person);
//! let v1 = g.add_node(person);
//! let v2 = g.add_node(city);
//! g.insert_edge(v0, v1);
//! g.insert_edge(v1, v2);
//!
//! // Regular path query: person · person · city
//! let q = Regex::parse("person.person.city", &mut interner).unwrap();
//! let mut rpq = IncRpq::new(&g, &q);
//! assert!(rpq.contains_pair(v0, v2));
//!
//! // Delete the middle edge incrementally; the match disappears.
//! let delta = UpdateBatch::from_updates(vec![Update::delete(v1, v2)]);
//! g.apply_batch(&delta);
//! rpq.apply(&g, &delta);
//! assert!(!rpq.contains_pair(v0, v2));
//! ```
//!
//! ## The multi-view engine
//!
//! For *many* standing queries over *one* shared graph, hand the graph to
//! an [`engine::Engine`]: it owns the ΔG commit pipeline (normalize once →
//! apply to the graph once → fan out to every registered view) so callers
//! never pre-filter batches or coordinate the apply order by hand.
//! Registration returns a *typed handle* (`ViewHandle<IncRpq>` below), so
//! snapshot reads need no downcasting; views can also join lazily at any
//! epoch, be deregistered, and are quarantined — not the whole engine — if
//! their `apply` panics. Every user-input path returns
//! `Result<_, EngineError>`. For serving readers while commits flow,
//! [`Engine::snapshot`](engine::Engine::snapshot) pins the newest published
//! version — graph plus every view's answers — as an immutable
//! [`Snapshot`](engine::Snapshot) handle any number of threads can read
//! lock-free (see the `snapshot_readers` example).
//!
//! ```
//! use incgraph::prelude::*;
//!
//! # fn main() -> Result<(), EngineError> {
//! let mut interner = LabelInterner::new();
//! let person = interner.intern("person");
//! let mut g = DynamicGraph::new();
//! let v0 = g.add_node(person);
//! let v1 = g.add_node(person);
//! g.insert_edge(v0, v1);
//!
//! let mut engine = Engine::new(g);
//! let q = Regex::parse("person.person", &mut interner).unwrap();
//! let rpq = engine.register("rpq", IncRpq::init(q.clone()))?;
//! let scc = engine.register("scc", IncScc::init())?;
//!
//! // An arbitrary (even denormalized) batch: one commit updates the graph
//! // and every view, and reports what it cost.
//! let receipt = engine.commit(&UpdateBatch::from_updates(vec![
//!     Update::insert(v1, v0),
//!     Update::insert(v1, v0), // duplicate — normalized away
//! ]))?;
//! assert_eq!((receipt.applied, receipt.dropped, receipt.epoch), (1, 1, 1));
//! assert!(engine.view(&rpq)?.contains_pair(v1, v0));
//! assert!(engine.view(&scc)?.same_scc(v0, v1));
//!
//! // A view can join mid-stream: its initial state is built from the
//! // engine's *current* graph, then maintained incrementally like the rest.
//! let late = engine.register("rpq:late", IncRpq::init(q.clone()))?;
//! assert!(engine.view(&late)?.contains_pair(v1, v0));
//! engine.verify_all()?;
//!
//! // And leave again, with its cumulative totals retained.
//! engine.deregister(late)?;
//! assert!(engine.view(&late).is_err(), "handles go stale on deregistration");
//! # Ok(())
//! # }
//! ```

pub use igc_core as core;
pub use igc_engine as engine;
pub use igc_graph as graph;
pub use igc_iso as iso;
pub use igc_kws as kws;
pub use igc_log as log;
pub use igc_nfa as nfa;
pub use igc_rpq as rpq;
pub use igc_rules as rules;
pub use igc_scc as scc;

/// The most commonly used types, re-exported for glob import.
///
/// The one view trait is here: [`IncView`](igc_core::IncView) carries
/// `name`, `apply`, `work`, `clone_view` and `verify_against_batch`, and a
/// custom view implements those five in one `impl`. Registering the
/// built-in views needs no import: `Engine::register` accepts plain
/// `FnOnce(&DynamicGraph) -> V` closures and the `Inc*::init` constructors
/// directly.
pub mod prelude {
    pub use igc_core::work::WorkStats;
    pub use igc_core::IncView;
    pub use igc_engine::{
        BackgroundBuild, CommitMode, CommitReceipt, Engine, EngineError, EngineTotals, Ingest,
        IngestReceipt, IngestServer, IngestTicket, LifecycleEvent, LifecycleEventKind,
        PreparedCommit, Replica, ReplicaStatus, Snapshot, SnapshotStore, SnapshotStoreStats,
        ViewCommitStats, ViewHandle, ViewId, ViewOutcome, ViewState, ViewTotals,
    };
    pub use igc_graph::{DynamicGraph, Edge, Label, LabelInterner, NodeId, Update, UpdateBatch};
    pub use igc_iso::{IncIso, Pattern};
    pub use igc_kws::{IncKws, KwsQuery};
    pub use igc_log::{
        ChaosBackend, ChaosStats, CommitLog, Compaction, DurabilityMode, FileBackend, LogBackend,
        LogError, MemBackend, Replayer, RetentionPin,
    };
    pub use igc_nfa::{Nfa, Regex};
    pub use igc_rpq::IncRpq;
    pub use igc_rules::{v, Atom, Fact, IncRules, PredId, Program, RuleError, RuleSet};
    pub use igc_scc::IncScc;
}
