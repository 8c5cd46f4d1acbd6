#![warn(missing_docs)]

//! Experiment harness reproducing the paper's evaluation (Section 6).
//!
//! Every panel of Figure 8 plus the in-text experiments (unit updates,
//! ρ-sensitivity, rule maintenance, optimisation ratios) has one code path
//! here, and it is the only place the paper's kernels are timed:
//!
//! * [`workloads`] — datasets (seeded stand-ins for DBpedia /
//!   LiveJournal / the synthetic generator) and the query generators the
//!   paper sweeps (KWS `(m, b)`, RPQ `|Q|`, ISO `(|V_Q|, |E_Q|, d_Q)`),
//! * [`harness`] — timing and table formatting,
//! * [`experiments`] — one function per figure; the `experiments` binary
//!   drives them and prints paper-style series.
//!
//! This crate is the paper reproduction and nothing else: it does not
//! depend on `igc_engine` or `igc_log`, and engine timing (commit, recovery,
//! ingest, snapshots) has one home — the stand-alone `benchmark/` package
//! declared by `BENCHMARK.json`. The rule-view workloads
//! ([`workloads::WindowedStream`], the attack-graph program) feed the
//! `rules` series, which measures the fifth view class the way Fig. 8
//! measures the other four.
//!
//! Absolute times differ from the paper (different hardware, scaled-down
//! graphs); the comparisons of interest are the *shapes*: who wins, where
//! the crossover sits, how the algorithms scale with `|ΔG|`, `|Q|`, `|G|`.

pub mod experiments;
pub mod harness;
pub mod workloads;
