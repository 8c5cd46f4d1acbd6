#![warn(missing_docs)]

//! Regular path queries (RPQ) — Section 5.2 of the paper.
//!
//! A match of `Q` in `G` is a pair `(u, v)` such that some path from `u` to
//! `v` spells a word of `L(Q)` in node labels (the label of `u` included).
//! The incremental problem is **unbounded** (Theorem 1, by Δ-reduction from
//! SSRP) but **relatively bounded** (Theorem 4): IncRPQ incrementalizes the
//! batch algorithm `RPQ_NFA` with cost `O(|AFF| log |AFF|)` in the changes
//! to the data that algorithm inspects — its product-graph markings.
//!
//! * [`batch`] — `RPQ_NFA`: translate `Q` to a small ε-free NFA, then
//!   traverse the intersection (product) graph of `G` and `M_Q`,
//! * [`marking`] — the auxiliary markings `pmarkᵉ`: a well-founded rank
//!   (`dist`) and every lower-ranked support (`mpre`) per reached
//!   configuration,
//! * [`inc`] — [`IncRpq`]: affected-marking identification (`identAff`),
//!   potential recomputation, insertion seeding, and a shared
//!   priority-queue settle phase mirroring the structure of `IncKWS`. Only
//!   markings that lose their last lower-ranked support or are newly
//!   reached are settled; ranks are never lowered to track distances.

pub mod batch;
pub mod inc;
pub mod marking;

pub use inc::IncRpq;
pub use marking::{MarkEntry, MarkKey, Markings, RpqDelta};
