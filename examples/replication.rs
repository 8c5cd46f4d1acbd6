//! Log-shipped read replicas end to end: a leader journals commits, a
//! follower on a worker thread tails the journal and serves reads at its
//! own frontier, and periodic compaction keeps the journal bounded
//! without waiting for any follower.
//!
//! The script:
//!
//! 1. a leader engine over a generator-built graph attaches an in-memory
//!    commit log (checkpoint cadence 4) and registers an SCC view;
//! 2. `Replica::attach` over the leader's log backend attaches a follower
//!    with its own SCC view; a worker thread drives its `tail` poll loop
//!    while the leader commits — log shipping through the shared backend,
//!    no other coordination;
//! 3. the main thread watches `ReplicaStatus` converge and uses
//!    `ensure_fresh` to gate a read on bounded staleness;
//! 4. after the churn, leader and follower answers are asserted
//!    bit-identical;
//! 5. `Engine::compact_log` drops every log segment behind the newest
//!    checkpoint, and a **fresh** replica attaches to the compacted
//!    journal, seeding from the checkpoint — late joiners stay cheap no
//!    matter how long the leader has been running.
//!
//! ```text
//! cargo run --release --example replication
//! ```

use igc_graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), EngineError> {
    // 1. A logged leader with one SCC view.
    let backend = MemBackend::new();
    let g = uniform_graph(400, 1600, 3, 2017);
    let mut leader = Engine::new(g).with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)?;
    leader.set_checkpoint_every(4);
    let leader_scc = leader.register("scc", IncScc::init())?;
    println!(
        "leader up: |V| = {}, |E| = {}, epoch {}",
        leader.graph().node_count(),
        leader.graph().edge_count(),
        leader.epoch()
    );

    // 2. A follower with its own SCC view, tailing on a worker.
    let mut replica = Replica::attach(Arc::new(backend.clone()))?;
    let replica_scc = replica.register("scc", IncScc::init())?;
    println!(
        "replica attached: seeded from checkpoint epoch {}",
        replica.seed_base()
    );

    let stop = AtomicBool::new(false);
    let replica = std::thread::scope(|s| -> Result<Replica, EngineError> {
        let stop = &stop;
        let tailer = s.spawn(move || {
            let mut replica = replica;
            let applied = replica.tail(stop, Duration::from_millis(1))?;
            Ok::<_, EngineError>((replica, applied))
        });

        // The leader churns; the follower drains each epoch as it lands.
        for round in 0..12u64 {
            let delta = random_update_batch(leader.graph(), 40, 0.5, 900 + round);
            let receipt = leader.commit(&delta)?;
            println!(
                "leader commit: epoch {} ({} applied, {} dropped)",
                receipt.epoch, receipt.applied, receipt.dropped
            );
        }
        stop.store(true, Ordering::Release);
        let (replica, applied) = tailer.join().expect("tailing thread")?;
        println!("tail loop drained {applied} epochs, then stopped");

        // 3. Lag observability: the follower reports its staleness, and
        // `ensure_fresh` turns a staleness budget into a hard gate.
        let status = replica.status()?;
        println!(
            "replica status: frontier {} / leader {} (lag {})",
            status.frontier_epoch, status.leader_epoch, status.lag
        );
        replica.ensure_fresh(0)?;
        Ok(replica)
    })?;

    // 4. Reads at the frontier are bit-identical to the leader.
    let leader_components = leader.view(&leader_scc)?.components();
    let replica_components = replica.view(&replica_scc)?.components();
    assert_eq!(leader_components, replica_components);
    println!(
        "leader and replica agree: {} strongly connected components",
        replica_components.len()
    );

    // 5. Compaction: the whole history behind the newest checkpoint goes.
    let before = leader.log().expect("log attached").bytes()?;
    let compaction = leader.compact_log()?;
    let after = leader.log().expect("log attached").bytes()?;
    println!(
        "compacted: dropped {} segment(s) / {} bytes (journal {} → {} bytes), \
         retained base epoch {}",
        compaction.dropped_segments, compaction.dropped_bytes, before, after, compaction.base_epoch
    );

    // A fresh replica seeds from the newest checkpoint of the compacted
    // journal — it never needed the dropped history.
    let mut late = Replica::attach(Arc::new(backend))?;
    let late_scc = late.register("scc", IncScc::init())?;
    late.catch_up()?;
    assert_eq!(late.view(&late_scc)?.components(), leader_components);
    println!(
        "late joiner seeded at epoch {} and agrees with the leader at epoch {}",
        late.seed_base(),
        leader.epoch()
    );
    Ok(())
}
