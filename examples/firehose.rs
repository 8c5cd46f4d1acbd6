//! The async ingest front door under fire: many concurrent submitters,
//! group-commit durability, a mid-run durability flip, and a full audit.
//!
//! The script:
//!
//! 1. an engine over a generator-built graph attaches a file-backed
//!    commit log, registers RPQ + SCC views (parallel fan-out), and goes
//!    behind an [`IngestServer`] — no thread of its own: a submitter that
//!    waits on its ticket runs the commit tick;
//! 2. durability starts in **group commit** — one fsync barrier covers a
//!    whole tick's records instead of one per submission;
//! 3. N submitter threads clone the [`Ingest`] handle and firehose
//!    denormalized batches at it, each awaiting its [`IngestTicket`] for
//!    the epoch and tick receipt its submission rode in;
//! 4. mid-run, durability flips to **every-append** (and the submitters
//!    never notice — only barrier placement changes);
//! 5. shutdown returns the engine; the example audits every view against
//!    from-scratch recomputation and replays the journal into a fresh
//!    engine to prove the coalesced ticks journaled whole.
//!
//! ```text
//! cargo run --release --example firehose
//! ```

use igc_graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SUBMITTERS: u64 = 6;
const PER_SUBMITTER: u64 = 40;
const UNITS_PER_BATCH: usize = 12;

fn rpq_query() -> Regex {
    let mut interner = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut interner).unwrap()
}

fn main() -> Result<(), EngineError> {
    let log_dir = std::env::temp_dir().join(format!("igc-firehose-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let backend: Arc<dyn LogBackend> =
        Arc::new(FileBackend::new(&log_dir).expect("create log directory"));

    // 1. A logged engine with two views, handed to the front door.
    let g = uniform_graph(400, 1600, 3, 2017);
    let mut engine = Engine::new(g).with_log(backend.clone())?;
    engine.set_checkpoint_every(32);
    engine.set_commit_mode(CommitMode::Parallel { threads: 0 });
    engine.register("rpq", IncRpq::init(rpq_query()))?;
    engine.register("scc", IncScc::init())?;
    let seed_graph = engine.graph().clone();
    println!(
        "engine up: |V| = {}, |E| = {}, journal at {}",
        seed_graph.node_count(),
        seed_graph.edge_count(),
        log_dir.display()
    );

    let server = IngestServer::spawn(engine);
    // 2. Group commit: one barrier per tick (or per 5 ms, whichever
    //    comes first), not one per submission.
    server.set_durability(DurabilityMode::GroupCommit {
        max_batch: 32,
        max_delay: Duration::from_millis(5),
    })?;

    // 3. The firehose: submitters burst batches generated against the
    //    seed graph (they race, so they cannot see a current one — the
    //    engine's single normalization pass is what keeps that safe).
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let ingest = server.handle();
            let g = seed_graph.clone();
            std::thread::spawn(move || {
                let tickets: Vec<_> = (0..PER_SUBMITTER)
                    .map(|i| {
                        let delta = random_update_batch(&g, UNITS_PER_BATCH, 0.6, s * 10_000 + i);
                        ingest.submit(delta).expect("server is up")
                    })
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().expect("submission committed"))
                    .collect::<Vec<IngestReceipt>>()
            })
        })
        .collect();

    // 4. Flip durability to every-append while the firehose is running.
    server.set_durability(DurabilityMode::EveryAppend)?;

    let receipts: Vec<IngestReceipt> = submitters
        .into_iter()
        .flat_map(|t| t.join().expect("submitter thread clean"))
        .collect();

    // 5. Shut down, audit, and replay.
    let engine = server.shutdown()?;
    let total: usize = receipts.iter().map(|r| r.units).sum();
    let max_coalesced = receipts.iter().map(|r| r.coalesced).max().unwrap_or(0);
    let log = engine.log().expect("log attached");
    println!(
        "drained: {} submissions ({} units) in {} commits over {} epochs; \
         widest tick coalesced {} submissions; {} appends / {} fsync barriers",
        receipts.len(),
        total,
        engine.totals().commits,
        engine.epoch(),
        max_coalesced,
        log.deltas() + log.checkpoints(),
        log.syncs(),
    );
    assert_eq!(receipts.len(), (SUBMITTERS * PER_SUBMITTER) as usize);
    assert_eq!(total, receipts.len() * UNITS_PER_BATCH);
    assert_eq!(
        log.unsynced_appends(),
        0,
        "shutdown leaves a barriered tail"
    );

    engine.verify_all()?;
    println!("verify_all: every view matches from-scratch recomputation");

    let recovered = Engine::recover(backend)?;
    assert_eq!(recovered.epoch(), engine.epoch());
    assert_eq!(
        recovered.graph().sorted_edges(),
        engine.graph().sorted_edges(),
        "journal replay is bit-identical — coalesced ticks journaled whole"
    );
    println!(
        "journal replay: bit-identical graph at epoch {}",
        recovered.epoch()
    );

    let _ = std::fs::remove_dir_all(&log_dir);
    println!("ok");
    Ok(())
}
