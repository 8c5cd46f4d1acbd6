//! MVCC snapshot reads: epoch-pinned, lock-free query serving while
//! commits flow.
//!
//! One writer thread drives commits through an [`Engine`] while a pool of
//! reader threads continuously pins [`Snapshot`]s from the shared
//! [`SnapshotStore`] and answers queries from them — no lock is held while
//! reading, and no reader ever blocks a commit. Three properties are on
//! display:
//!
//! 1. **Pinned epochs are frozen.** A snapshot taken before the churn
//!    starts still serves the *original* graph and answers after dozens of
//!    commits have been published.
//! 2. **Readers never observe torn state.** Every snapshot is an atomically
//!    published (graph, all-views) pair at one epoch.
//! 3. **Retirement is pin-driven.** The version window grows only while
//!    snapshots hold pins; the moment they drop it is back to 1, and the
//!    thread that drops a version's last pin frees it.
//!
//! It ends with what a pin costs: the median commit time over a short tail
//! of commits with the pins still held (readers stopped, so the number is
//! the copy and not the contention), the same after they are dropped, and
//! the ratio.
//!
//! ```text
//! cargo run --release --example snapshot_readers
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use igc_graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;

const READERS: usize = 4;
const COMMITS: usize = 24;
/// Commits per timed tail (pins held, then pins dropped).
const TAIL: usize = 16;

/// One commit of a messy client batch; with `pins`, the newest version is
/// pinned after it and the oldest of more than three pins released.
fn churn(
    engine: &mut Engine,
    seed: u64,
    pins: Option<&mut Vec<Snapshot>>,
) -> Result<CommitReceipt, EngineError> {
    let delta = random_update_batch(engine.graph(), 18, 0.5, seed);
    let receipt = engine.commit(&delta)?;
    if let Some(pins) = pins {
        pins.push(engine.snapshot()?);
        if pins.len() > 3 {
            pins.remove(0); // oldest pin drops → its version is freed here
        }
    }
    Ok(receipt)
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() -> Result<(), EngineError> {
    // The shared graph and a four-class standing-query mix.
    let g = uniform_graph(300, 900, 4, 20170517);
    let mut engine = Engine::new(g);

    let mut it = LabelInterner::new();
    for i in 0..4 {
        it.intern(&format!("l{i}"));
    }
    let q = Regex::parse("l0.(l1+l2)*.l3", &mut it).unwrap();
    let rpq = engine.register("rpq", IncRpq::init(q))?;
    let scc = engine.register("scc", IncScc::init())?;
    let kws = engine.register(
        "kws",
        IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
    )?;
    engine.register(
        "iso",
        IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
    )?;

    // A long-lived pin at the pre-churn epoch: whatever the writer does,
    // this handle keeps serving the world exactly as it was.
    let frozen = engine.snapshot()?;
    let frozen_edges = frozen.graph().edge_count();
    let frozen_sccs = frozen.view(&scc)?.scc_count();
    println!(
        "frozen pin: epoch {}, {} edges, {} SCCs, {} kws roots",
        frozen.epoch(),
        frozen_edges,
        frozen_sccs,
        frozen.view(&kws)?.match_count()
    );

    // Reader pool: each thread pins the newest published version, answers
    // queries from it lock-free, drops the pin, repeats. The store handle
    // is just an `Arc` — readers share it with the writer without any
    // channel or lock discipline of their own.
    let store = Arc::clone(engine.snapshot_store());
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            thread::spawn(move || {
                let mut last_epoch = 0;
                while !stop.load(Ordering::Relaxed) {
                    let s = store.snapshot().expect("snapshots stay up");
                    // Snapshots are immutable: epochs only move forward.
                    assert!(s.epoch() >= last_epoch);
                    last_epoch = s.epoch();
                    let scc_id = s.find("scc").expect("scc view is published");
                    let scc = s.view_dyn(scc_id).expect("published views serve");
                    std::hint::black_box((scc.work(), s.graph().edge_count()));
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // The writer: 24 commits of messy client batches, with a sliding
    // window of pinned snapshots, so every commit finds its predecessor
    // pinned and copies what it is about to change.
    let mut pinned: Vec<Snapshot> = Vec::new();
    for i in 0..COMMITS {
        let receipt = churn(&mut engine, 9_000 + i as u64, Some(&mut pinned))?;
        if i % 8 == 7 {
            let stats = engine.snapshot_store().retained_stats();
            println!(
                "commit {:>2}: epoch {}, window {} versions ({} graphs, {} view cells)",
                i, receipt.epoch, stats.versions, stats.distinct_graphs, stats.distinct_view_cells
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread exits cleanly");
    }
    println!(
        "readers: {} lock-free reads across {} threads while {} commits flowed",
        reads.load(Ordering::Relaxed),
        READERS,
        COMMITS
    );

    // Property 1: the frozen pin still serves the pre-churn world,
    // bit-identical — same graph, same answers.
    assert_eq!(frozen.graph().edge_count(), frozen_edges);
    assert_eq!(frozen.view(&scc)?.scc_count(), frozen_sccs);
    println!(
        "frozen pin after churn: still epoch {}, {} edges, {} SCCs",
        frozen.epoch(),
        frozen.graph().edge_count(),
        frozen.view(&scc)?.scc_count()
    );
    let now = engine.snapshot()?;
    println!(
        "head snapshot:          epoch {}, {} edges, {} SCCs",
        now.epoch(),
        now.graph().edge_count(),
        now.view(&scc)?.scc_count()
    );
    // Typed reads work on snapshots exactly like on the engine.
    let answers_then = frozen.view(&rpq)?.answer().len();
    let answers_now = now.view(&rpq)?.answer().len();
    println!("rpq answers: {answers_then} at the pin, {answers_now} at head");

    // The price of a pin: a tail of commits with the pins still held …
    let mut held = Vec::with_capacity(TAIL);
    for i in 0..TAIL {
        held.push(churn(&mut engine, 20_000 + i as u64, Some(&mut pinned))?.elapsed);
    }

    // … and, Property 3, the same after every pin is dropped: the drops
    // collapse the version window to the head at once, and none of the
    // commits copies anything.
    drop((frozen, now, pinned));
    assert_eq!(engine.snapshot_store().window(), 1);
    let mut free = Vec::with_capacity(TAIL);
    for i in 0..TAIL {
        free.push(churn(&mut engine, 30_000 + i as u64, None)?.elapsed);
        assert_eq!(engine.snapshot_store().window(), 1);
    }
    let (held, free) = (median(held), median(free));
    println!(
        "commit p50 over {TAIL} commits: {held:.1?} with pins held, {free:.1?} after dropping them \
         — a pin costs {:.2}×",
        held.as_secs_f64() / free.as_secs_f64()
    );

    // Pinning a retired epoch is an error, not a panic.
    match engine.snapshot_at(0) {
        Err(EngineError::EpochRetired { epoch, oldest }) => {
            println!("snapshot_at(0): epoch {epoch} retired (oldest retained: {oldest})");
        }
        other => panic!("expected EpochRetired, got {:?}", other.map(|s| s.epoch())),
    }

    engine.verify_all()?;
    println!("final audit ✓");
    Ok(())
}
