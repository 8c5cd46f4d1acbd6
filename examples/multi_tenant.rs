//! Multi-tenant serving: one shared dynamic graph, one commit pipeline,
//! many registered standing queries — the engine v2 in its intended shape,
//! lifecycle included.
//!
//! Six views (two RPQ tenants, SCC, two KWS tenants, ISO) are registered on
//! one generator-built graph; a churn loop submits deliberately *messy*
//! batches (duplicates, inserts of present edges, deletes of absent ones).
//! Mid-run the lifecycle kicks in: one tenant is deregistered (its totals
//! retire, its slot is reused), a replacement tenant joins *lazily* (its
//! initial state built from the live graph, then maintained incrementally),
//! and a deliberately buggy view is quarantined by the engine while every
//! other view keeps serving. After each lifecycle event the example
//! self-verifies with `verify_all` — every surviving view must match
//! from-scratch recomputation.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use igc_graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;

/// A deliberately buggy tenant view: panics on its 3rd commit, to
/// demonstrate per-view quarantine (the engine catches the panic, fences
/// this view off, and keeps serving the others).
#[derive(Clone)]
struct FlakyTenant {
    applies: u64,
}

impl IncView for FlakyTenant {
    fn name(&self) -> &str {
        "flaky"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.applies += 1;
        if self.applies == 3 {
            panic!("flaky tenant bug: unhandled corner case");
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

fn main() -> Result<(), EngineError> {
    // The shared graph: a uniform random digraph over a 4-symbol alphabet.
    let g = uniform_graph(400, 1200, 4, 20170514);
    println!(
        "shared graph: {} nodes, {} edges, epoch {}",
        g.node_count(),
        g.edge_count(),
        g.epoch()
    );

    let mut engine = Engine::new(g);

    // One shared interner, pre-loaded in id order so `lN` ↔ `Label(N)`
    // matches the generator's numeric labels for every tenant's query.
    let mut it = LabelInterner::new();
    for i in 0..4 {
        it.intern(&format!("l{i}"));
    }

    // Tenant "alice": a reachability-style RPQ. Registration hands back a
    // *typed* handle — snapshot reads below need no downcasting.
    let q_alice = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
    let alice = engine.register("rpq:alice", IncRpq::init(q_alice))?;

    // Tenant "bob": a different RPQ over the same graph.
    let q_bob = Regex::parse("l1.l0*.l3", &mut it).unwrap();
    let bob = engine.register("rpq:bob", IncRpq::init(q_bob))?;

    // A shared SCC view (e.g. for cycle-aware ranking downstream).
    let scc = engine.register("scc", IncScc::init())?;

    // Two KWS tenants with different bounds.
    let near = engine.register(
        "kws:near",
        IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 1)),
    )?;
    engine.register(
        "kws:far",
        IncKws::init(KwsQuery::new(vec![Label(1), Label(3)], 3)),
    )?;

    // A motif-watch ISO view, and the buggy tenant that will blow up later.
    let iso = engine.register(
        "iso",
        IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
    )?;
    engine.register("flaky", |_| FlakyTenant { applies: 0 })?;

    // Duplicate labels are an error, not a panic — the engine shrugs it off.
    let dup = engine.register("rpq:alice", IncScc::init());
    println!("re-registering rpq:alice: {}", dup.unwrap_err());
    println!(
        "registered views: {:?}\n",
        engine.labels().collect::<Vec<_>>()
    );

    // Churn: 8 commits of denormalized client batches, with lifecycle
    // events woven in between.
    for round in 0..8u64 {
        // Lifecycle, phase 1 (before commit 4): tenant "kws:far" leaves.
        // Its slot is tombstoned (handles go stale), its totals retire.
        if round == 4 {
            let far = engine.find("kws:far").expect("kws:far is live");
            let totals = engine.deregister(far)?;
            println!(
                "[lifecycle] deregistered {:?} after {} commits ({} total ops)",
                totals.label,
                totals.commits,
                totals.work.total()
            );
            engine.verify_all()?;
            println!("[lifecycle] audit after deregistration ✓");
        }

        // Lifecycle, phase 2 (before commit 6): a replacement tenant joins
        // *lazily* — its initial state is built from the engine's current
        // graph, then maintained incrementally like the rest.
        if round == 6 {
            let farther = engine.register(
                "kws:farther",
                IncKws::init(KwsQuery::new(vec![Label(1), Label(3)], 2)),
            )?;
            println!(
                "[lifecycle] lazily registered \"kws:farther\" at epoch {} \
                 ({} roots already matched)",
                engine.epoch(),
                engine.view(&farther)?.match_count()
            );
            engine.verify_all()?;
            println!("[lifecycle] audit after lazy registration ✓");
        }

        // Lifecycle, phase 2½ (before commit 5): flip the commit fan-out
        // to two worker threads. The mode is purely a latency knob —
        // answers, receipts and journals are bit-identical either way, and
        // the audits below keep proving it.
        if round == 5 {
            let mode = CommitMode::Parallel { threads: 2 };
            engine.set_commit_mode(mode);
            println!("[lifecycle] switched fan-out to {mode:?}");
        }

        let clean = random_update_batch(engine.graph(), 40, 0.5, 7000 + round);
        // Clients are messy: every unit arrives twice, plus two no-ops.
        let mut messy: Vec<Update> = Vec::new();
        for u in clean.iter() {
            messy.push(*u);
            messy.push(*u);
        }
        let present = engine.graph().sorted_edges()[round as usize];
        messy.push(Update::insert(present.0, present.1)); // already present
        messy.push(Update::delete(NodeId(0), NodeId(0))); // never present

        // Round 2 (epoch 3) trips the flaky tenant's bug — its 3rd apply.
        // Silence the default panic hook for that one commit so the
        // deliberate panic does not splatter a backtrace over the demo
        // output; every other round keeps full diagnostics.
        let batch = UpdateBatch::from_updates(messy);
        let receipt = if round == 2 {
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let r = engine.commit(&batch);
            std::panic::set_hook(prev_hook);
            r?
        } else {
            engine.commit(&batch)?
        };

        println!(
            "commit @epoch {}: {} submitted → {} applied ({} dropped) in {:.3?} \
             (graph {:.3?})",
            receipt.epoch,
            receipt.submitted,
            receipt.applied,
            receipt.dropped,
            receipt.elapsed,
            receipt.graph_elapsed,
        );
        for v in &receipt.per_view {
            println!(
                "    {:<12} {:>9.3?}  work {{nodes {}, edges {}, aux {}, queue {}}}",
                v.label,
                v.elapsed,
                v.work.nodes_visited,
                v.work.edges_traversed,
                v.work.aux_touched,
                v.work.queue_ops
            );
        }
        if receipt.skipped_quarantined > 0 {
            println!(
                "    ({} quarantined view(s) skipped)",
                receipt.skipped_quarantined
            );
        }

        // Lifecycle, phase 3: quarantine recovery. The panicking view was
        // fenced off by the commit above — prove the rest of the engine is
        // healthy, then swap the wreck for a lazily built replacement.
        for q in receipt.newly_quarantined() {
            let cause = match &q.outcome {
                ViewOutcome::Quarantined { cause } => cause.as_str(),
                ViewOutcome::Applied => unreachable!("newly_quarantined filters these"),
            };
            println!(
                "[lifecycle] view {:?} quarantined at epoch {}: {}",
                q.label, receipt.epoch, cause
            );
            engine.verify_all()?;
            println!("[lifecycle] audit after quarantine: all surviving views ✓");

            let wreck = engine.find("flaky").expect("quarantined but still live");
            engine.deregister(wreck)?;
            engine.register("flaky:v2", IncScc::init())?;
            engine.verify_all()?;
            println!("[lifecycle] replaced it lazily (\"flaky:v2\"); audit ✓");
        }

        if round % 3 == 2 {
            match engine.verify_all() {
                Ok(()) => println!("    audit: all {} views consistent ✓", engine.view_count()),
                Err(failures) => panic!("audit failed: {failures}"),
            }
        }
    }

    // Final audit + typed snapshot reads through the handles.
    engine.verify_all()?;
    println!(
        "\nfinal answers: rpq:alice {} pairs | rpq:bob {} pairs | scc {} components \
         | kws:near {} roots | iso {} matches",
        engine.view(&alice)?.answer().len(),
        engine.view(&bob)?.answer().len(),
        engine.view(&scc)?.scc_count(),
        engine.view(&near)?.match_count(),
        engine.view(&iso)?.match_count()
    );

    let totals = engine.totals();
    println!(
        "\nengine totals: {} commits, {} units applied, {} dropped by \
         normalization, {:.3?} total",
        totals.commits, totals.units_applied, totals.units_dropped, totals.elapsed
    );
    for t in engine.all_view_totals() {
        println!(
            "    {:<12} {} commits, {:>9.3?}, {} total ops",
            t.label,
            t.commits,
            t.elapsed,
            t.work.total()
        );
    }
    for t in engine.retired() {
        println!(
            "    {:<12} {} commits, {:>9.3?}, {} total ops (retired)",
            t.label,
            t.commits,
            t.elapsed,
            t.work.total()
        );
    }

    println!("\nlifecycle journal:");
    for e in engine.events() {
        println!("    epoch {:>2}  {:<16} {}", e.epoch, e.kind.tag(), e.label);
    }
    Ok(())
}
