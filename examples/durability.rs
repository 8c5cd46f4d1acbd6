//! Durability end to end: write-ahead journaling, a crash, recovery by
//! replay, and a background view build — the `igc_log` layer in its
//! intended shape.
//!
//! The script:
//!
//! 1. an engine over a generator-built graph attaches a file-backed
//!    commit log (checkpoint cadence 4) and registers RPQ + SCC views;
//! 2. a churn loop commits messy batches — every normalized delta is
//!    journaled *before* the graph moves;
//! 3. a KWS view joins **in the background**: its initial state is built
//!    from the journal on a worker thread while commits keep flowing,
//!    then it is caught up on the log tail and spliced in;
//! 4. the engine is dropped cold — a simulated crash mid-stream;
//! 5. `Engine::recover` rebuilds the graph from `latest checkpoint +
//!    tail replay`, the views re-join lazily, and the example asserts the
//!    recovered answers are **bit-identical** to the pre-crash ones
//!    before serving more commits.
//!
//! ```text
//! cargo run --release --example durability
//! ```

use igc_graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;
use std::sync::Arc;

fn rpq_query() -> Regex {
    let mut interner = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut interner).unwrap()
}

fn kws_query() -> KwsQuery {
    KwsQuery::new(vec![Label(1), Label(2)], 2)
}

fn main() -> Result<(), EngineError> {
    let log_dir =
        std::env::temp_dir().join(format!("igc-durability-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let backend: Arc<dyn LogBackend> =
        Arc::new(FileBackend::new(&log_dir).expect("create log directory"));

    // 1. A logged engine with two views.
    let g = uniform_graph(400, 1600, 3, 2017);
    let mut engine = Engine::new(g).with_log(backend.clone())?;
    engine.set_checkpoint_every(4);
    let rpq = engine.register("rpq", IncRpq::init(rpq_query()))?;
    engine.register("scc", IncScc::init())?;
    println!(
        "engine up: |V| = {}, |E| = {}, journal at {}",
        engine.graph().node_count(),
        engine.graph().edge_count(),
        log_dir.display()
    );

    // 2. Churn — every commit journals write-ahead.
    for round in 0..6u64 {
        let delta = random_update_batch(engine.graph(), 40, 0.5, 900 + round);
        let receipt = engine.commit(&delta)?;
        println!(
            "epoch {:>2}: applied {:>2} units in {:?}",
            receipt.epoch, receipt.applied, receipt.elapsed
        );
    }

    // 3. A KWS view joins in the background: built from the journal on a
    //    worker thread, commits keep flowing meanwhile.
    let build = engine.register_background("kws", IncKws::init(kws_query()))?;
    for round in 0..4u64 {
        let delta = random_update_batch(engine.graph(), 40, 0.5, 950 + round);
        engine.commit(&delta)?;
    }
    let kws = engine.join_background(build)?;
    println!(
        "background kws joined at epoch {} (kdist entries for {} nodes); \
         commits never waited on its build",
        engine.epoch(),
        engine.view(&kws)?.answer_signature().len()
    );
    engine.verify_all()?;

    // 4. Crash: drop the engine cold. The journal is all that survives.
    let pre_crash_epoch = engine.epoch();
    let pre_crash_rpq = engine.view(&rpq)?.sorted_answer();
    let log = engine.log().expect("log attached");
    println!(
        "crashing at epoch {pre_crash_epoch}: journal holds {} deltas + {} checkpoints ({} bytes)",
        log.deltas(),
        log.checkpoints(),
        log.bytes().expect("log size")
    );
    drop(engine);

    // 5. Recover purely from the journal; views re-join lazily.
    let mut engine = Engine::recover(backend)?;
    assert_eq!(
        engine.epoch(),
        pre_crash_epoch,
        "recovered at the crash epoch"
    );
    let rpq = engine.register("rpq", IncRpq::init(rpq_query()))?;
    engine.register("scc", IncScc::init())?;
    engine.register("kws", IncKws::init(kws_query()))?;
    assert_eq!(
        engine.view(&rpq)?.sorted_answer(),
        pre_crash_rpq,
        "recovered RPQ answers are bit-identical to the pre-crash view"
    );
    engine.verify_all()?;
    println!(
        "recovered at epoch {}: all views audit clean, answers bit-identical",
        engine.epoch()
    );

    // … and the recovered engine keeps serving (and journaling).
    for round in 0..3u64 {
        let delta = random_update_batch(engine.graph(), 40, 0.5, 990 + round);
        engine.commit(&delta)?;
    }
    engine.verify_all()?;
    println!(
        "post-recovery serving: epoch {}, journal now {} deltas",
        engine.epoch(),
        engine.log().expect("log attached").deltas()
    );

    let _ = std::fs::remove_dir_all(&log_dir);
    println!("ok");
    Ok(())
}
