#![warn(missing_docs)]

//! Strongly connected components — batch Tarjan, the relatively bounded
//! incremental algorithm IncSCC (Section 5.3 of the paper), and a dynamic
//! baseline DynSCC.
//!
//! * [`tarjan`](mod@tarjan) — iterative Tarjan with `num`/`lowlink` values, reverse
//!   topological emission order and DFS edge classification,
//! * [`condensation`] — the contracted graph `Gc` with multi-edge counters
//!   and topological ranks (`r(v) > r(v')` along every edge),
//! * [`inc`] — [`IncScc`]: unit insertions (bidirectional bounded search +
//!   cycle merge + `reallocRank`), unit deletions (component split with rank
//!   gap-filling), and grouped batch updates; merges and splits are made in
//!   place, so they cost the smaller side and the larger keeps its id, and
//!   an intra-component deletion is answered by a per-component spanning-
//!   tree certificate ([`SccDelta`] says where each batch's deletions went),
//! * [`dynscc`] — [`DynScc`]: a certificate-maintaining dynamic SCC baseline
//!   in the spirit of the paper's combination of Haeupler et al. \[26\] and
//!   Łącki \[32\]; it pays certificate upkeep even when the output is stable,
//!   which is exactly the behaviour the paper measures against.

mod cert;
pub mod condensation;
pub mod dynscc;
pub mod inc;
pub mod tarjan;

pub use cert::SccDelta;
pub use condensation::{Condensation, SccId};
pub use dynscc::DynScc;
pub use inc::IncScc;
pub use tarjan::{tarjan, tarjan_restricted, EdgeKind, LocalIndex, RestrictedScc, SccResult};
