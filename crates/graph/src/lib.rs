#![warn(missing_docs)]

//! Dynamic labelled directed graphs — the substrate shared by every query
//! class in the paper *Incremental Graph Computations: Doable and Undoable*
//! (Fan, Hu, Tian; SIGMOD 2017).
//!
//! The paper's data model (Section 2) is a directed graph `G = (V, E, l)`
//! where every node carries a label, and updates `ΔG` are sequences of unit
//! edge insertions (possibly introducing new nodes) and edge deletions.
//!
//! This crate provides:
//!
//! * [`DynamicGraph`] — an adjacency-list graph whose clones share storage,
//!   with membership by one scan of the shorter adjacency list and unit
//!   and batch updates,
//! * [`Update`] / [`UpdateBatch`] — the paper's update model, with the
//!   w.l.o.g. normalisation that a batch never both inserts and deletes the
//!   same edge,
//! * [`neighborhood`] — `d`-hop undirected balls `G_d(v)` and their unions
//!   over a batch, the locality radius used by Section 4,
//! * [`generator`] — seeded synthetic graph and workload generators standing
//!   in for the paper's DBpedia / LiveJournal / synthetic datasets,
//! * [`traversal`] — BFS/DFS and bounded shortest-distance helpers,
//! * [`fxhash`] — a small Fx-style hasher for hot integer-keyed maps.

pub mod fxhash;
pub mod generator;
pub mod graph;
pub mod label;
pub mod neighborhood;
pub mod node;
pub mod traversal;
pub mod update;

pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::{DynamicGraph, Edge};
pub use label::{Label, LabelInterner};
pub use neighborhood::{ball_nodes, batch_ball_nodes, induced_subgraph, Neighborhood};
pub use node::NodeId;
pub use update::{Update, UpdateBatch};
