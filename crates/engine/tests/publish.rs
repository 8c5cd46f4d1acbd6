//! Publishing an MVCC version asks every active view for its `clone_view`
//! copy: exactly once per publish, never on a no-op commit, pinned or not,
//! in either commit mode — and a copy that panics quarantines its view
//! instead of stranding the publish window.

mod common;

use common::quiet_panics;
use igc_core::{IncView, WorkStats};
use igc_engine::{CommitMode, Engine, EngineError, ViewOutcome, ViewState};
use igc_graph::graph::graph_from;
use igc_graph::{DynamicGraph, NodeId, Update, UpdateBatch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts its `clone_view` calls (shared with every copy), and panics on
/// the `panic_on`-th.
struct Probe {
    applies: u64,
    clones: Arc<AtomicUsize>,
    panic_on: Option<usize>,
}

impl Probe {
    fn new(panic_on: Option<usize>) -> (Self, Arc<AtomicUsize>) {
        let clones = Arc::new(AtomicUsize::new(0));
        let probe = Probe {
            applies: 0,
            clones: Arc::clone(&clones),
            panic_on,
        };
        (probe, clones)
    }
}

impl IncView for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.applies += 1;
    }
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        let call = self.clones.fetch_add(1, Ordering::Relaxed) + 1;
        if Some(call) == self.panic_on {
            panic!("probe: deliberate failure on clone_view #{call}");
        }
        Box::new(Probe {
            applies: self.applies,
            clones: Arc::clone(&self.clones),
            panic_on: self.panic_on,
        })
    }
}

fn insert(u: u32, v: u32) -> UpdateBatch {
    UpdateBatch::from_updates(vec![Update::insert(NodeId(u), NodeId(v))])
}

#[test]
fn clone_view_runs_once_per_active_view_per_publish() {
    for mode in [CommitMode::Sequential, CommitMode::Parallel { threads: 2 }] {
        for pinned in [false, true] {
            let what = format!("{mode:?}, pinned: {pinned}");
            let mut engine = Engine::new(graph_from(&[0; 4], &[(0, 1)]));
            engine.set_commit_mode(mode);
            let (a, a_clones) = Probe::new(None);
            let (b, b_clones) = Probe::new(None);
            let count = || {
                (
                    a_clones.load(Ordering::Relaxed),
                    b_clones.load(Ordering::Relaxed),
                )
            };

            // Lifecycle events publish: every active view, once.
            let a = engine.register("a", |_| a).unwrap();
            assert_eq!(count(), (1, 0), "{what}");
            let b = engine.register("b", |_| b).unwrap();
            assert_eq!(count(), (2, 1), "{what}");

            let pin = pinned.then(|| engine.snapshot().unwrap());

            // A commit publishes once; a no-op commit publishes nothing.
            for round in 1..=3 {
                let receipt = engine.commit(&insert(round, 0)).unwrap();
                assert!(!receipt.is_noop());
                assert_eq!(count(), (2 + round as usize, 1 + round as usize), "{what}");
                let receipt = engine.commit(&insert(round, 0)).unwrap();
                assert!(receipt.is_noop());
                assert_eq!(count(), (2 + round as usize, 1 + round as usize), "{what}");
            }
            assert_eq!(engine.view(&a).unwrap().applies, 3, "{what}");

            // The pin still serves the copies of its own epoch.
            if let Some(pin) = &pin {
                assert_eq!(pin.view(&a).unwrap().applies, 0, "{what}");
                assert_eq!(pin.view(&b).unwrap().applies, 0, "{what}");
            }

            // A departed view is not asked again.
            engine.deregister(b).unwrap();
            assert_eq!(count(), (6, 4), "{what}");
        }
    }
}

#[test]
fn a_panicking_clone_view_quarantines_the_view_and_closes_the_publish_window() {
    let mut engine = Engine::new(graph_from(&[0; 3], &[(0, 1)]));
    let (healthy, _) = Probe::new(None);
    let healthy = engine.register("healthy", |_| healthy).unwrap();
    // Call #1 is the registration's own publish; #2 is the first commit's.
    let (doomed, _) = Probe::new(Some(2));
    let doomed = engine.register("doomed", |_| doomed).unwrap();

    let receipt = quiet_panics(|| engine.commit(&insert(1, 2))).expect("the commit itself lands");
    assert_eq!(receipt.epoch, 1);
    let entry = |label: &str| {
        receipt
            .per_view
            .iter()
            .find(|v| &*v.label == label)
            .unwrap()
    };
    assert_eq!(entry("healthy").outcome, ViewOutcome::Applied);
    match &entry("doomed").outcome {
        ViewOutcome::Quarantined { cause } => {
            assert!(cause.contains("clone_view"), "{cause}");
            assert!(cause.contains("deliberate failure"), "{cause}");
        }
        other => panic!("expected a quarantine, got {other:?}"),
    }
    match engine.state(doomed).unwrap() {
        ViewState::Quarantined { epoch, cause } => {
            assert_eq!(*epoch, 1);
            assert!(cause.contains("clone_view"), "{cause}");
        }
        ViewState::Active => panic!("the view must be quarantined"),
    }

    // The window closed: the newest snapshot is there at once (a stranded
    // window would make this wait out the store's multi-second cap and
    // fail), serves the healthy view, and reports the quarantine.
    let asked = Instant::now();
    let snap = engine.snapshot().expect("publish window closed");
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert_eq!(snap.epoch(), 1);
    assert_eq!(snap.view(&healthy).unwrap().applies, 1);
    assert!(matches!(
        snap.view(&doomed),
        Err(EngineError::ViewQuarantined { epoch: 1, .. })
    ));

    // And the engine keeps committing and publishing around it.
    let receipt = engine.commit(&insert(2, 0)).unwrap();
    assert_eq!(receipt.skipped_quarantined, 1);
    assert_eq!(
        engine.snapshot().unwrap().view(&healthy).unwrap().applies,
        2
    );
}
