//! Parallel fan-out equivalence: sequential and parallel commits over the
//! same random batch stream must yield bit-identical view answers, receipts
//! (modulo wall-clock latency), and quarantine/lifecycle journals — with
//! all four paper query classes registered, plus a canary view that panics
//! mid-parallel-fan-out.

mod common;

use common::quiet_panics;
use igc_core::{IncView, WorkStats};
use igc_engine::{CommitMode, CommitReceipt, Engine};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, Label, LabelInterner, UpdateBatch};
use igc_iso::{IncIso, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

/// A canary that panics on its `n`-th apply, healthy otherwise.
#[derive(Clone)]
struct Grenade {
    n: u64,
    seen: u64,
}

impl IncView for Grenade {
    fn name(&self) -> &str {
        "grenade"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.seen += 1;
        if self.seen == self.n {
            panic!("grenade: deliberate failure on apply #{}", self.seen);
        }
    }
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }
}

/// Build an engine over the given graph with all four classes plus the
/// grenade registered, in a fixed slot order.
fn build(g: &DynamicGraph, mode: CommitMode) -> Engine {
    let mut engine = Engine::new(g.clone());
    engine.set_commit_mode(mode);
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine
        .register(
            "kws",
            IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
        )
        .unwrap();
    engine
        .register(
            "iso",
            IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
        )
        .unwrap();
    engine
        .register("grenade", |_| Grenade { n: 3, seen: 0 })
        .unwrap();
    engine
}

/// Everything observable about a receipt except wall-clock durations:
/// `(epoch, submitted, applied, dropped, skipped_quarantined,
/// [(label, work, applied?)])`.
type ReceiptFacts = (u64, usize, usize, usize, usize, Vec<(String, u64, bool)>);

fn receipt_facts(r: &CommitReceipt) -> ReceiptFacts {
    (
        r.epoch,
        r.submitted,
        r.applied,
        r.dropped,
        r.skipped_quarantined,
        r.per_view
            .iter()
            .map(|v| (v.label.to_string(), v.work.total(), v.applied()))
            .collect(),
    )
}

#[test]
fn parallel_and_sequential_streams_are_bit_identical() {
    quiet_panics(|| {
        let g = uniform_graph(40, 140, 3, 77);
        let mut seq = build(&g, CommitMode::Sequential);
        let mut par = build(&g, CommitMode::Parallel { threads: 3 });

        for round in 0..6u64 {
            // The same random batch goes to both engines; both stay in
            // lockstep, so generating against either graph is equivalent.
            let delta = random_update_batch(seq.graph(), 12, 0.5, 4000 + round);
            let rs = seq.commit(&delta).unwrap();
            let rp = par.commit(&delta).unwrap();
            assert_eq!(
                receipt_facts(&rs),
                receipt_facts(&rp),
                "receipts diverged at round {round}"
            );
        }

        // The grenade panicked on commit 3 in both engines, mid-fan-out.
        let quarantines = |e: &Engine| {
            e.events()
                .iter()
                .map(|ev| (ev.epoch, ev.kind, ev.label.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(quarantines(&seq), quarantines(&par));
        assert_eq!(
            seq.events()
                .iter()
                .filter(|e| e.kind == igc_engine::LifecycleEventKind::Quarantined)
                .count(),
            1
        );

        // Bit-identical view answers across modes.
        let seq_rpq: &IncRpq = seq
            .view_dyn(seq.find("rpq").unwrap())
            .unwrap()
            .downcast_ref()
            .unwrap();
        let par_rpq: &IncRpq = par
            .view_dyn(par.find("rpq").unwrap())
            .unwrap()
            .downcast_ref()
            .unwrap();
        assert_eq!(seq_rpq.sorted_answer(), par_rpq.sorted_answer());
        assert_eq!(seq_rpq.marking_signature(), par_rpq.marking_signature());

        let seq_scc: &IncScc = seq
            .view_dyn(seq.find("scc").unwrap())
            .unwrap()
            .downcast_ref()
            .unwrap();
        let par_scc: &IncScc = par
            .view_dyn(par.find("scc").unwrap())
            .unwrap()
            .downcast_ref()
            .unwrap();
        assert_eq!(seq_scc.components(), par_scc.components());

        // Both engines audit clean against from-scratch recomputation.
        seq.verify_all().unwrap();
        par.verify_all().unwrap();

        // Cumulative accounting (work, commits) agrees; only wall-clock may
        // differ.
        let (s, p) = (seq.totals(), par.totals());
        assert_eq!(s.work, p.work);
        assert_eq!(s.commits, p.commits);
        assert_eq!(s.units_applied, p.units_applied);
    });
}

#[test]
fn mode_can_flip_between_commits_without_observable_effect() {
    let g = uniform_graph(30, 90, 3, 11);
    let mut fixed = build(&g, CommitMode::Sequential);
    let mut flippy = build(&g, CommitMode::Sequential);
    for round in 0..4u64 {
        let delta = random_update_batch(fixed.graph(), 10, 0.5, 8000 + round);
        // Alternate the flippy engine's mode every commit.
        flippy.set_commit_mode(if round % 2 == 0 {
            CommitMode::Parallel { threads: 2 }
        } else {
            CommitMode::Sequential
        });
        let rf = fixed.commit(&delta).unwrap();
        let rl = flippy.commit(&delta).unwrap();
        assert_eq!(receipt_facts(&rf), receipt_facts(&rl));
    }
    fixed.verify_all().unwrap();
    flippy.verify_all().unwrap();
}
