//! Ingest front-door integration: genuinely concurrent submitters over one
//! [`IngestServer`], with the invariants the async path must preserve:
//!
//! - every accepted submission resolves to exactly one receipt, and the
//!   tick receipts conserve unit totals (nothing dropped, nothing applied
//!   twice, no matter how submissions were coalesced);
//! - the post-shutdown engine's views pass `verify_all`, and a fresh
//!   engine recovered from the WAL lands bit-identical to it — coalesced
//!   ticks journal as whole records;
//! - flipping the durability mode mid-run (through the server, between
//!   in-flight submissions) never perturbs results;
//! - a closed-loop wave (submit every submission, then wait) commits as
//!   exactly one tick, so views fed the whole wave book exactly the work
//!   the tick's receipt reports — the cross-check the benchmark runs.

use igc_core::IncView;
use igc_engine::{Engine, EngineError, IngestServer};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{Label, LabelInterner, Update, UpdateBatch};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{DurabilityMode, LogBackend, MemBackend};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use std::sync::Arc;
use std::time::Duration;

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

/// An engine over a seeded random graph with an RPQ and an SCC view.
fn seeded_engine(seed: u64) -> Engine {
    let g = uniform_graph(64, 160, 3, seed);
    let mut engine = Engine::new(g);
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine
}

/// Deterministic per-submitter batch stream: submitter `s`'s `i`-th batch
/// over the seed graph (mixed inserts/deletes, denormalized as ever).
fn stream_batch(g: &igc_graph::DynamicGraph, s: u64, i: u64) -> UpdateBatch {
    random_update_batch(g, 6, 0.7, 0xF00D + s * 1000 + i)
}

#[test]
fn concurrent_submitters_conserve_units_and_recover_bit_identically() {
    const SUBMITTERS: u64 = 8;
    const PER_SUBMITTER: u64 = 12;

    let backend = MemBackend::new();
    let mut engine = seeded_engine(7)
        .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
        .unwrap();
    engine.set_checkpoint_every(5);
    let seed_graph = engine.graph().clone();

    let server = IngestServer::spawn(engine);

    // Batches are generated against the *seed* graph (submitters race, so
    // they cannot see a current graph) — updates may be no-ops by commit
    // time; normalization handles that, receipts must still conserve.
    let workers: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let ingest = server.handle();
            let g = seed_graph.clone();
            std::thread::spawn(move || {
                // Burst-submit the whole stream, then await every ticket:
                // the firehose shape that makes ticks coalesce.
                let tickets: Vec<_> = (0..PER_SUBMITTER)
                    .map(|i| {
                        let batch = stream_batch(&g, s, i);
                        let units = batch.len();
                        (ingest.submit(batch).expect("server is up"), units)
                    })
                    .collect();
                tickets
                    .into_iter()
                    .map(|(ticket, units)| {
                        let receipt = ticket.wait().expect("submission committed");
                        assert_eq!(receipt.units, units, "receipt echoes this submission");
                        assert!(receipt.coalesced >= 1);
                        receipt
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let receipts: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("submitter thread clean"))
        .collect();
    let engine = server.shutdown().expect("server returns the engine");

    // One receipt per submission, and per-submission units sum to the
    // total submitted.
    assert_eq!(receipts.len(), (SUBMITTERS * PER_SUBMITTER) as usize);
    let total_units: usize = receipts.iter().map(|r| r.units).sum();
    assert_eq!(total_units, (SUBMITTERS * PER_SUBMITTER * 6) as usize);

    // Group by carrying tick (the shared `Arc<CommitReceipt>` — epochs
    // cannot key this, no-op ticks reuse the previous epoch): each tick's
    // commit receipt must account for exactly its members' units, and its
    // `coalesced` count must equal the group size.
    let mut by_tick: std::collections::HashMap<usize, Vec<&igc_engine::IngestReceipt>> =
        std::collections::HashMap::new();
    for r in &receipts {
        by_tick
            .entry(Arc::as_ptr(&r.commit) as usize)
            .or_default()
            .push(r);
    }
    for members in by_tick.values() {
        let tick_units: usize = members.iter().map(|r| r.units).sum();
        let commit = &members[0].commit;
        assert_eq!(
            commit.submitted, tick_units,
            "the tick's mega-batch is exactly its members, concatenated"
        );
        for r in members {
            assert_eq!(r.coalesced, members.len());
            assert_eq!(r.epoch, members[0].epoch, "one tick, one epoch");
        }
    }
    // Coalescing happened at all (8 racing submitters against a commit
    // tick must collide at least once).
    assert!(
        by_tick.len() < receipts.len(),
        "at least one tick carried more than one submission"
    );

    // The engine the server hands back is coherent…
    engine.verify_all().expect("views match recomputation");
    assert_eq!(
        engine.epoch(),
        receipts.iter().map(|r| r.epoch).max().unwrap()
    );

    // …and the WAL tells the same story: recovery lands bit-identical,
    // which also proves every tick journaled as one whole record.
    let recovered = Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>).unwrap();
    assert_eq!(recovered.epoch(), engine.epoch());
    assert_eq!(
        recovered.graph().sorted_edges(),
        engine.graph().sorted_edges()
    );
    assert_eq!(recovered.graph().node_count(), engine.graph().node_count());
}

#[test]
fn durability_flip_mid_run_keeps_results_and_journal_coherent() {
    let backend = MemBackend::new();
    let engine = seeded_engine(11)
        .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
        .unwrap();
    let seed_graph = engine.graph().clone();

    let server = IngestServer::spawn(engine);
    let ingest = server.handle();

    let mut tickets = Vec::new();
    for i in 0..6u64 {
        tickets.push(ingest.submit(stream_batch(&seed_graph, 0, i)).unwrap());
    }
    // Flip to group-commit while submissions are in flight, then back to
    // every-append: observable results must not change, only barrier
    // placement.
    server
        .set_durability(DurabilityMode::GroupCommit {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        })
        .unwrap();
    for i in 6..12u64 {
        tickets.push(ingest.submit(stream_batch(&seed_graph, 0, i)).unwrap());
    }
    server.set_durability(DurabilityMode::EveryAppend).unwrap();
    for i in 12..18u64 {
        tickets.push(ingest.submit(stream_batch(&seed_graph, 0, i)).unwrap());
    }

    for t in tickets {
        t.wait().expect("every submission commits across the flips");
    }
    let engine = server.shutdown().unwrap();
    engine.verify_all().unwrap();
    assert_eq!(
        engine.log().unwrap().unsynced_appends(),
        0,
        "shutdown leaves no unbarriered tail"
    );

    // The journal replays to the same frontier regardless of how barriers
    // were batched along the way.
    let recovered = Engine::recover(Arc::new(backend) as Arc<dyn LogBackend>).unwrap();
    assert_eq!(recovered.epoch(), engine.epoch());
    assert_eq!(
        recovered.graph().sorted_edges(),
        engine.graph().sorted_edges()
    );
}

#[test]
fn dropped_server_resolves_outstanding_tickets_with_precise_errors() {
    let server = IngestServer::spawn(seeded_engine(3));
    let ingest = server.handle();
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.epoch(), 0, "nothing was submitted");

    // Submitting through a handle that outlived its server fails fast
    // with the dedicated error, not a hang.
    let err = ingest
        .submit(UpdateBatch::new())
        .expect_err("closed server rejects");
    assert!(matches!(err, EngineError::IngestClosed));
}

#[test]
fn a_closed_loop_wave_is_one_tick_and_books_its_shadows_work() {
    const WAVES: u64 = 20;
    const SUBMISSIONS: usize = 32;
    const UNITS: usize = 4;

    let g = uniform_graph(64, 160, 3, 13);
    let kws = KwsQuery::new(vec![Label(1), Label(2)], 2);
    let mut engine = Engine::new(g.clone());
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine.register("kws", IncKws::init(kws.clone())).unwrap();
    // The shadows: the same views, fed each whole wave in one apply.
    let mut shadow_graph = g;
    let mut shadows: Vec<Box<dyn IncView>> = vec![
        Box::new(IncRpq::new(&shadow_graph, &rpq_query())),
        Box::new(IncScc::new(&shadow_graph)),
        Box::new(IncKws::new(&shadow_graph, kws)),
    ];

    let server = IngestServer::spawn(engine);
    let ingest = server.handle();
    for w in 0..WAVES {
        let wave = random_update_batch(&shadow_graph, SUBMISSIONS * UNITS, 0.6, 0xBEEF + w);
        let units: Vec<Update> = wave.iter().copied().collect();
        let tickets: Vec<_> = units
            .chunks(UNITS)
            .map(|c| {
                ingest
                    .submit(UpdateBatch::from_updates(c.to_vec()))
                    .unwrap()
            })
            .collect();
        let receipts: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let commit = &receipts[0].commit;
        for r in &receipts {
            assert!(Arc::ptr_eq(&r.commit, commit), "wave {w} took two ticks");
            assert_eq!(r.coalesced, SUBMISSIONS);
        }
        assert_eq!(commit.submitted, SUBMISSIONS * UNITS);

        let delta = wave.normalize_against(&shadow_graph);
        shadow_graph.apply_batch(&delta);
        assert_eq!(commit.per_view.len(), shadows.len());
        for (view, booked) in shadows.iter_mut().zip(&commit.per_view) {
            let before = view.work();
            view.apply(&shadow_graph, &delta);
            assert_eq!(
                view.work().since(&before),
                booked.work,
                "wave {w}: {} booked other work than its shadow",
                booked.label
            );
        }
    }
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.epoch(), WAVES);
    assert_eq!(engine.graph().sorted_edges(), shadow_graph.sorted_edges());
    engine.verify_all().unwrap();
}
