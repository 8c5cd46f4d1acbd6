#![warn(missing_docs)]

//! The incremental-computation framework of *Incremental Graph Computations:
//! Doable and Undoable* (Fan, Hu, Tian; SIGMOD 2017).
//!
//! This crate holds everything that is shared between the four query classes
//! and everything that makes the paper's *theory* executable:
//!
//! * [`bucket`] — the bucket queue the unit-weight settles of IncKWS and
//!   IncRPQ pop in heap order,
//! * [`work`] — work counters ([`work::WorkStats`]) and change metrics
//!   ([`work::ChangeMetrics`]) with which the localizability and relative
//!   boundedness claims are verified empirically,
//! * [`incremental`] — the uniform contract every incremental algorithm in
//!   the workspace implements,
//! * [`ssrp`] — single-source reachability to all vertices, the anchor
//!   problem of the paper's Δ-reductions (unbounded under deletions,
//!   bounded under insertions \[38\]),
//! * [`reductions`] — the Δ-reduction from SSRP to RPQ used in the proof of
//!   Theorem 1, as executable `(f, fi, fo)` functions,
//! * [`gadgets`] — the two-cycle instance family of Fig. 9 behind the
//!   insertion lower bound, for the "undoable" demonstration experiments.

pub mod bucket;
pub mod gadgets;
pub mod incremental;
pub mod reductions;
pub mod ssrp;
pub mod work;

pub use bucket::BucketQueue;
pub use incremental::{panic_cause, IncView};
pub use ssrp::Ssrp;
pub use work::{ChangeMetrics, WorkStats};
