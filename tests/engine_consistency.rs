//! Cross-view consistency properties for the engine.
//!
//! Three properties live here:
//!
//! 1. all five query classes (rpq, scc, kws, iso, and the delta-rule
//!    views of `igc_rules`) registered on one engine, driven by
//!    *arbitrary* (denormalized) commits — duplicates, insert/delete pairs,
//!    no-op updates, self-loops, fresh nodes — must agree with from-scratch
//!    batch recomputation after every commit;
//! 2. the same under a randomly interleaved *lifecycle*: commits,
//!    deregistrations and lazy registrations across the 5 view classes,
//!    with every surviving view audited after every commit (lazy-joined
//!    views must match from-scratch recomputation exactly, from their very
//!    first commit);
//! 3. *crash replay*: a write-ahead-logged engine driven through random
//!    commit/lifecycle interleavings, crashed (dropped) at a random epoch
//!    and rebuilt with `Engine::recover` must serve answers bit-identical
//!    to a twin engine that never crashed — for all five view classes,
//!    both right after recovery and across the remaining commit stream;
//! 4. *replication*: log-shipped followers attaching at random epochs
//!    (one pinned via `Engine::replica`, one unpinned via
//!    `Replica::attach`) and catching up after every commit must serve
//!    all five classes bit-identical to the leader *and* to a
//!    never-replicated twin at every compared frontier — including a
//!    fresh follower joining after the log has been compacted;
//! 5. *coalescing*: random submission streams grouped into arbitrary
//!    commit ticks (each tick concatenating its submissions in arrival
//!    order, exactly like the ingest front door) and driven through the
//!    chained `prepare`/`apply_prepared` path on a WAL-logged engine
//!    fanning out on two threads must answer bit-identical to a twin that
//!    commits every submission individually — for all five view classes, with a
//!    deliberately panicking canary view quarantined on both sides, and
//!    with recovery from the journal landing on the same frontier;
//! 6. *crash mid-tick*: a torn WAL append inside a coalesced tick must
//!    fail that commit atomically; recovery lands on a clean epoch
//!    boundary (never a partially applied mega-batch) and retrying the
//!    tick lands it exactly once, converging back to the per-submission
//!    twin.

use incgraph::graph::graph::graph_from;
use incgraph::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The five classes' canonical answers, as one comparison key for the
/// crash-replay property: (rpq pairs, scc components, kws signature, iso
/// matches, rule facts with their support counts).
type ClassAnswers = (
    Vec<(NodeId, NodeId)>,
    Vec<Vec<NodeId>>,
    Vec<(NodeId, Vec<u32>)>,
    Vec<incgraph::iso::MatchKey>,
    Vec<(Fact, u32)>,
);

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    // Interner ids follow first-use order: l0→0, l1→1, l2→2, matching the
    // `i % 3` node labels below.
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

/// The delta-rule program for the fifth class: executability anchored at
/// label-1 nodes, propagated along edges — recursive, so random deletion
/// streams exercise the support-counting + over-delete/re-derive repair
/// machinery (cycles reachable from an anchor have cyclic support).
fn rules_program() -> Program {
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec", 1).unwrap();
    rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))])
        .unwrap();
    rs.rule(
        exec,
        &[v(1)],
        vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
    )
    .unwrap();
    rs.compile().unwrap()
}

/// A rule view's bit-identity key: every derived fact *and* its exact
/// support count, sorted.
fn rules_answer(view: &IncRules) -> Vec<(Fact, u32)> {
    view.sorted_facts()
        .into_iter()
        .map(|f| (f, view.support(f.pred, f.args())))
        .collect()
}

/// Build an engine over the given graph with all five classes registered.
fn engine_with_views(g: DynamicGraph) -> Engine {
    let mut engine = Engine::new(g);
    engine
        .register(IncRpq::new(engine.graph(), &rpq_query()))
        .unwrap();
    engine.register(IncScc::new(engine.graph())).unwrap();
    engine
        .register(IncKws::new(
            engine.graph(),
            KwsQuery::new(vec![Label(1), Label(2)], 2),
        ))
        .unwrap();
    engine
        .register(IncIso::new(
            engine.graph(),
            Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ))
        .unwrap();
    engine
        .register(IncRules::new(engine.graph(), rules_program()))
        .unwrap();
    engine
}

fn batch_from_raw(raw: &[(bool, u32, u32)]) -> UpdateBatch {
    raw.iter()
        .map(|&(ins, a, b)| {
            if ins {
                Update::insert(NodeId(a), NodeId(b))
            } else {
                Update::delete(NodeId(a), NodeId(b))
            }
        })
        .collect()
}

/// Concatenate a tick group's submissions in arrival order — exactly what
/// the ingest loop's coalescer does before the engine normalizes once.
fn coalesce(group: &[UpdateBatch]) -> UpdateBatch {
    group.iter().flat_map(|b| b.iter().copied()).collect()
}

/// Split per-client submissions into tick groups: bit `i % 64` of `mask`
/// decides whether submission `i` starts a new tick.
fn split_groups(batches: &[UpdateBatch], mask: u64) -> Vec<Vec<UpdateBatch>> {
    let mut groups: Vec<Vec<UpdateBatch>> = vec![Vec::new()];
    for (i, b) in batches.iter().enumerate() {
        if i > 0 && (mask >> (i % 64)) & 1 == 1 {
            groups.push(Vec::new());
        }
        groups.last_mut().unwrap().push(b.clone());
    }
    groups
}

/// Canonical five-class answers under the default registration labels
/// (the names `engine_with_views` registers under).
fn five_class_answers(e: &Engine) -> ClassAnswers {
    let rpq: ViewHandle<IncRpq> = e.typed(e.find("rpq").unwrap()).unwrap();
    let scc: ViewHandle<IncScc> = e.typed(e.find("scc").unwrap()).unwrap();
    let kws: ViewHandle<IncKws> = e.typed(e.find("kws").unwrap()).unwrap();
    let iso: ViewHandle<IncIso> = e.typed(e.find("iso").unwrap()).unwrap();
    let rules: ViewHandle<IncRules> = e.typed(e.find("rules").unwrap()).unwrap();
    (
        e.view(&rpq).unwrap().sorted_answer(),
        e.view(&scc).unwrap().components(),
        e.view(&kws).unwrap().answer_signature(),
        e.view(&iso).unwrap().sorted_matches(),
        rules_answer(e.view(&rules).unwrap()),
    )
}

/// Re-register the five classes under their default labels from the
/// engine's *current* graph — the post-recovery re-join step.
fn register_five_lazily(engine: &mut Engine) {
    engine
        .register_lazy("rpq", IncRpq::init(rpq_query()))
        .unwrap();
    engine.register_lazy("scc", IncScc::init()).unwrap();
    engine
        .register_lazy(
            "kws",
            IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
        )
        .unwrap();
    engine
        .register_lazy(
            "iso",
            IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
        )
        .unwrap();
    engine
        .register_lazy("rules", IncRules::init(rules_program()))
        .unwrap();
}

/// A deliberately faulty view: panics on its first apply and is
/// quarantined by the engine. Rides on both engines in the coalescing
/// property so bit-identity is pinned *under quarantine* too.
#[derive(Debug, Default, Clone)]
struct Canary {
    applies: u64,
}

impl IncrementalAlgorithm for Canary {
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.applies += 1;
        if self.applies == 1 {
            panic!("deliberate canary failure");
        }
    }
    fn work(&self) -> WorkStats {
        WorkStats::default()
    }
    fn reset_work(&mut self) {}
}

impl IncView for Canary {
    fn name(&self) -> &str {
        "canary"
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }
}

/// Run `f` with panic messages suppressed — the canary's deliberate panics
/// (caught and quarantined by the engine) would otherwise spam the test
/// output. The hook is process-global, so swaps are serialized.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::panic::PanicHookInfo;
    use std::sync::{Mutex, MutexGuard};
    type PrevHook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send>;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    struct Restore<'a> {
        prev: Option<PrevHook>,
        _serialize: MutexGuard<'a, ()>,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = Restore {
        _serialize: HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner()),
        prev: Some(std::panic::take_hook()),
    };
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    drop(guard);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_views_agree_with_batch_recomputation_after_every_commit(
        (n, edges, commits) in (8u32..18).prop_flat_map(|n| (
            Just(n),
            // Initial edges: arbitrary ordered pairs, duplicates allowed
            // (the graph's edge set dedupes).
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..40,
            ),
            // 1–4 commits of raw unit updates. Ids range past n so
            // insertions create fresh (default-labelled) nodes; nothing
            // forbids duplicates, insert/delete pairs, no-ops or
            // self-loops — that is the point.
            proptest::collection::vec(
                proptest::collection::vec(
                    (any::<bool>(), 0..n + 3, 0..n + 3),
                    1..14,
                ),
                1..5,
            ),
        ))
    ) {
        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);
        let mut engine = engine_with_views(g);

        let mut last_epoch = engine.epoch();
        for (round, raw) in commits.iter().enumerate() {
            let batch = batch_from_raw(raw);
            let receipt = engine.commit(&batch).unwrap();

            // Receipt arithmetic is conserved; the epoch advances exactly
            // when something was applied.
            prop_assert_eq!(receipt.submitted, raw.len());
            prop_assert_eq!(receipt.applied + receipt.dropped, receipt.submitted);
            if receipt.is_noop() {
                prop_assert_eq!(receipt.epoch, last_epoch);
            } else {
                prop_assert_eq!(receipt.epoch, last_epoch + 1);
                prop_assert_eq!(receipt.per_view.len(), 5);
            }
            last_epoch = receipt.epoch;

            // The heart of the property: every registered view equals its
            // from-scratch batch recomputation on the current graph.
            if let Err(failures) = engine.verify_all() {
                panic!("commit {round}: views diverged from batch recomputation: {failures}");
            }
        }
    }

    #[test]
    fn lifecycle_interleavings_keep_every_surviving_view_consistent(
        (n, edges, rounds) in (8u32..16).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            // 3–7 rounds; each round: a lifecycle op (0 = none,
            // 1 = deregister, 2 = lazy-register), a pick that selects the
            // op's target (view slot / class), and a raw commit batch.
            proptest::collection::vec(
                (
                    0u32..3,
                    0u32..64,
                    proptest::collection::vec(
                        (any::<bool>(), 0..n + 3, 0..n + 3),
                        1..10,
                    ),
                ),
                3..8,
            ),
        ))
    ) {
        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);
        let mut engine = engine_with_views(g);
        // Shadow roster of live labels, kept in sync with the registry.
        let mut live: Vec<String> =
            engine.labels().map(str::to_owned).collect();
        let mut fresh = 0u32;

        for (round, (op, pick, raw)) in rounds.iter().enumerate() {
            match op {
                // Deregister a pseudo-randomly picked live view; its label
                // frees up, its handle goes stale, its totals retire.
                1 if !live.is_empty() => {
                    let victim = live.remove((*pick as usize) % live.len());
                    let id = engine.find(&victim).expect("live view findable");
                    let retired_before = engine.retired().len();
                    let totals = engine.deregister(id).unwrap();
                    prop_assert_eq!(&*totals.label, victim.as_str());
                    prop_assert_eq!(engine.retired().len(), retired_before + 1);
                    prop_assert!(engine.find(&victim).is_none());
                    prop_assert!(engine.view_dyn(id).is_err(), "stale after deregister");
                }
                // Lazily register a fresh view of a pseudo-randomly picked
                // class: its initial state is built from the *current*
                // graph, mid-stream.
                2 => {
                    fresh += 1;
                    let label = match pick % 5 {
                        0 => {
                            let l = format!("rpq:g{fresh}");
                            engine.register_lazy(l.as_str(), IncRpq::init(rpq_query())).unwrap();
                            l
                        }
                        1 => {
                            let l = format!("scc:g{fresh}");
                            engine.register_lazy(l.as_str(), IncScc::init()).unwrap();
                            l
                        }
                        2 => {
                            let l = format!("kws:g{fresh}");
                            engine.register_lazy(
                                l.as_str(),
                                IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
                            ).unwrap();
                            l
                        }
                        3 => {
                            let l = format!("iso:g{fresh}");
                            engine.register_lazy(
                                l.as_str(),
                                IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
                            ).unwrap();
                            l
                        }
                        _ => {
                            let l = format!("rules:g{fresh}");
                            engine.register_lazy(l.as_str(), IncRules::init(rules_program())).unwrap();
                            l
                        }
                    };
                    live.push(label.clone());
                    // A lazy joiner is consistent immediately, before its
                    // first commit: exact match with from-scratch state.
                    let id = engine.find(&label).expect("lazy view findable");
                    prop_assert!(engine.verify(id).is_ok(), "lazy view consistent at join");
                }
                _ => {}
            }
            prop_assert_eq!(engine.view_count(), live.len());

            let receipt = engine.commit(&batch_from_raw(raw)).unwrap();
            prop_assert_eq!(receipt.applied + receipt.dropped, receipt.submitted);
            if !receipt.is_noop() {
                prop_assert_eq!(receipt.per_view.len(), live.len());
                prop_assert_eq!(receipt.skipped_quarantined, 0);
            }

            // Audit every surviving view after every commit — lazy joiners
            // included, against from-scratch recomputation.
            if let Err(failures) = engine.verify_all() {
                panic!("round {round}: surviving views diverged: {failures}");
            }
            let mut roster: Vec<&str> = live.iter().map(String::as_str).collect();
            roster.sort_unstable();
            let mut got: Vec<&str> = engine.labels().collect();
            got.sort_unstable();
            prop_assert_eq!(got, roster, "registry roster matches shadow roster");
        }
    }

    #[test]
    fn crash_replay_recovers_all_five_classes_bit_identically(
        (n, edges, rounds, crash_pick) in (8u32..16).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            // Each round: a lifecycle op (0 = none, 1 = deregister,
            // 2 = lazy-register), its target pick, and a raw commit batch
            // — the same op/commit alphabet as the lifecycle property.
            proptest::collection::vec(
                (
                    0u32..3,
                    0u32..64,
                    proptest::collection::vec(
                        (any::<bool>(), 0..n + 3, 0..n + 3),
                        1..10,
                    ),
                ),
                3..7,
            ),
            any::<u32>(),
        ))
    ) {
        // The canonical answers of the five classes under their
        // post-crash labels — the bit-identity comparison key.
        fn class_answers(engine: &Engine) -> Result<ClassAnswers, EngineError> {
            let rpq: ViewHandle<IncRpq> =
                engine.typed(engine.find("post:rpq").expect("post:rpq live"))?;
            let scc: ViewHandle<IncScc> =
                engine.typed(engine.find("post:scc").expect("post:scc live"))?;
            let kws: ViewHandle<IncKws> =
                engine.typed(engine.find("post:kws").expect("post:kws live"))?;
            let iso: ViewHandle<IncIso> =
                engine.typed(engine.find("post:iso").expect("post:iso live"))?;
            let rules: ViewHandle<IncRules> =
                engine.typed(engine.find("post:rules").expect("post:rules live"))?;
            Ok((
                engine.view(&rpq)?.sorted_answer(),
                engine.view(&scc)?.components(),
                engine.view(&kws)?.answer_signature(),
                engine.view(&iso)?.sorted_matches(),
                rules_answer(engine.view(&rules)?),
            ))
        }
        /// Register the five classes under `post:` labels (used on both
        /// engines right after the crash point, so both build from what
        /// each believes the graph is — the recovered one from replay).
        fn register_post(engine: &mut Engine) {
            engine.register_lazy("post:rpq", IncRpq::init(rpq_query())).unwrap();
            engine.register_lazy("post:scc", IncScc::init()).unwrap();
            engine.register_lazy(
                "post:kws",
                IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
            ).unwrap();
            engine.register_lazy(
                "post:iso",
                IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
            ).unwrap();
            engine.register_lazy("post:rules", IncRules::init(rules_program())).unwrap();
        }

        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);

        // Twin trajectories over one script: `durable` journals through a
        // shared in-memory backend and will crash; `twin` never crashes.
        let backend = MemBackend::new();
        let mut durable = Some(
            Engine::new(g.clone())
                .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                .unwrap(),
        );
        durable.as_mut().unwrap().set_checkpoint_every(2);
        let mut twin = Engine::new(g);
        for e in [durable.as_mut().unwrap(), &mut twin] {
            e.register(IncRpq::new(e.graph(), &rpq_query())).unwrap();
            e.register(IncScc::new(e.graph())).unwrap();
            e.register(IncRules::new(e.graph(), rules_program())).unwrap();
        }
        let mut live: Vec<String> = vec!["rpq".into(), "scc".into(), "rules".into()];
        let mut fresh = 0u32;

        let crash_round = (crash_pick as usize) % rounds.len();
        let mut recovered: Option<Engine> = None;
        for (round, (op, pick, raw)) in rounds.iter().enumerate() {
            if recovered.is_none() {
                // Pre-crash phase: identical lifecycle script on both.
                match op {
                    1 if !live.is_empty() => {
                        let victim = live.remove((*pick as usize) % live.len());
                        for e in [durable.as_mut().unwrap(), &mut twin] {
                            let id = e.find(&victim).expect("live view findable");
                            e.deregister(id).unwrap();
                        }
                    }
                    2 => {
                        fresh += 1;
                        let label = format!("rpq:g{fresh}");
                        for e in [durable.as_mut().unwrap(), &mut twin] {
                            e.register_lazy(label.as_str(), IncRpq::init(rpq_query())).unwrap();
                        }
                        live.push(label);
                    }
                    _ => {}
                }
            }
            let batch = batch_from_raw(raw);
            let receipt_twin = twin.commit(&batch).unwrap();
            match (&mut recovered, &mut durable) {
                (Some(r), _) => {
                    // Post-crash phase: the recovered engine serves the
                    // same stream with answers bit-identical to the twin.
                    let receipt = r.commit(&batch).unwrap();
                    prop_assert_eq!(receipt.epoch, receipt_twin.epoch);
                    prop_assert_eq!(class_answers(r).unwrap(), class_answers(&twin).unwrap());
                }
                (None, Some(d)) => {
                    d.commit(&batch).unwrap();
                }
                (None, None) => unreachable!("durable lives until the crash"),
            }

            if recovered.is_none() && round == crash_round {
                // CRASH: drop the logged engine mid-stream, then rebuild
                // it purely from the journal.
                let epoch = durable.as_ref().unwrap().epoch();
                durable = None;
                let mut r = Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                    .unwrap();
                prop_assert_eq!(r.epoch(), epoch, "recovered at the crash epoch");
                prop_assert_eq!(
                    r.graph().sorted_edges(),
                    twin.graph().sorted_edges(),
                    "replayed edge set matches the never-crashed graph"
                );
                prop_assert_eq!(r.graph().node_count(), twin.graph().node_count());
                // Both engines get fresh `post:` views of all 4 classes —
                // the recovered one builds them from the replayed graph.
                register_post(&mut r);
                register_post(&mut twin);
                prop_assert_eq!(
                    class_answers(&r).unwrap(),
                    class_answers(&twin).unwrap(),
                    "post-recovery answers match immediately"
                );
                recovered = Some(r);
            }
        }
        // Final audits: every recovered view also agrees with from-scratch
        // recomputation on its own graph.
        let r = recovered.expect("crash point inside the script");
        if let Err(failures) = r.verify_all() {
            panic!("recovered views diverged from recomputation: {failures}");
        }
    }

    #[test]
    fn replicas_joining_at_random_epochs_converge_bit_identically(
        (n, edges, rounds, picks) in (8u32..16).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            // 4–7 rounds of raw (denormalized) commit batches.
            proptest::collection::vec(
                proptest::collection::vec(
                    (any::<bool>(), 0..n + 3, 0..n + 3),
                    1..10,
                ),
                4..8,
            ),
            // Two join epochs, one per follower, reduced mod the round
            // count below.
            (any::<u32>(), any::<u32>()),
        ))
    ) {
        // A follower's five typed handles, for reading its answers.
        struct FollowerViews {
            rpq: ViewHandle<IncRpq>,
            scc: ViewHandle<IncScc>,
            kws: ViewHandle<IncKws>,
            iso: ViewHandle<IncIso>,
            rules: ViewHandle<IncRules>,
        }
        fn register_follower(r: &mut Replica) -> FollowerViews {
            FollowerViews {
                rpq: r.register("rpq", IncRpq::init(rpq_query())).unwrap(),
                scc: r.register("scc", IncScc::init()).unwrap(),
                kws: r
                    .register("kws", IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)))
                    .unwrap(),
                iso: r
                    .register(
                        "iso",
                        IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
                    )
                    .unwrap(),
                rules: r.register("rules", IncRules::init(rules_program())).unwrap(),
            }
        }
        fn follower_answers(r: &Replica, v: &FollowerViews) -> ClassAnswers {
            (
                r.view(&v.rpq).unwrap().sorted_answer(),
                r.view(&v.scc).unwrap().components(),
                r.view(&v.kws).unwrap().answer_signature(),
                r.view(&v.iso).unwrap().sorted_matches(),
                rules_answer(r.view(&v.rules).unwrap()),
            )
        }
        fn leader_answers(e: &Engine) -> ClassAnswers {
            five_class_answers(e)
        }
        /// One follower's full convergence check against both references.
        fn assert_converged(r: &mut Replica, v: &FollowerViews, leader: &Engine, twin: &Engine) {
            r.catch_up().unwrap();
            prop_assert_eq!(r.frontier(), leader.epoch(), "follower at the head");
            prop_assert_eq!(r.status().unwrap().lag, 0);
            prop_assert_eq!(
                r.graph().sorted_edges(),
                leader.graph().sorted_edges(),
                "follower graph matches the leader"
            );
            let got = follower_answers(r, v);
            prop_assert_eq!(&got, &leader_answers(leader), "follower == leader");
            prop_assert_eq!(&got, &leader_answers(twin), "follower == never-replicated twin");
            r.verify_all().unwrap();
        }

        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);

        let backend = MemBackend::new();
        let mut leader = engine_with_views(g.clone());
        leader = leader
            .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
            .unwrap();
        leader.set_checkpoint_every(2);
        let mut twin = engine_with_views(g);

        let join_a = (picks.0 as usize) % rounds.len();
        let join_b = (picks.1 as usize) % rounds.len();
        let mut follower_a: Option<(Replica, FollowerViews)> = None; // pinned
        let mut follower_b: Option<(Replica, FollowerViews)> = None; // unpinned

        for (round, raw) in rounds.iter().enumerate() {
            // Followers join *before* this round's commit, at whatever
            // epoch the leader happens to be at.
            if round == join_a {
                let mut r = leader.replica().unwrap();
                prop_assert!(r.is_pinned());
                let v = register_follower(&mut r);
                assert_converged(&mut r, &v, &leader, &twin);
                follower_a = Some((r, v));
            }
            if round == join_b {
                let mut r =
                    Replica::attach(Arc::new(backend.clone()) as Arc<dyn LogBackend>).unwrap();
                prop_assert!(!r.is_pinned());
                let v = register_follower(&mut r);
                assert_converged(&mut r, &v, &leader, &twin);
                follower_b = Some((r, v));
            }

            let batch = batch_from_raw(raw);
            let receipt = leader.commit(&batch).unwrap();
            let receipt_twin = twin.commit(&batch).unwrap();
            prop_assert_eq!(receipt.epoch, receipt_twin.epoch, "twin trajectories agree");

            for (r, v) in [&mut follower_a, &mut follower_b].into_iter().flatten() {
                assert_converged(r, v, &leader, &twin);
            }
        }

        // Both followers are at the head, so compaction may drop every
        // segment behind the newest checkpoint — and a *fresh* follower
        // joining the compacted log must still converge bit-identically.
        let c = leader.compact_log().unwrap();
        let mut late = leader.replica().unwrap();
        prop_assert!(
            late.seed_base() >= c.base_epoch,
            "post-compaction joiner seeds at or past the retained base"
        );
        let v = register_follower(&mut late);
        assert_converged(&mut late, &v, &leader, &twin);
    }

    #[test]
    fn coalesced_ticks_match_per_submission_commits_bit_identically(
        (n, edges, subs, mask) in (8u32..14).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            // 4–10 client submissions of raw unit updates — the streams the
            // ingest front door would coalesce. Duplicates, insert/delete
            // pairs, no-ops and fresh nodes all allowed, as ever.
            proptest::collection::vec(
                proptest::collection::vec(
                    (any::<bool>(), 0..n + 3, 0..n + 3),
                    1..8,
                ),
                4..11,
            ),
            any::<u64>(),
        ))
    ) {
        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);

        // A: WAL-logged, fanning out on two threads, commits coalesced
        // mega-batches through the chained prepare/apply_prepared driver
        // (each apply prepares tick n+1 once tick n has landed). B: a twin
        // that never coalesces — one plain commit per submission.
        let backend = MemBackend::new();
        let mut a = {
            let mut a = engine_with_views(g.clone())
                .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                .unwrap();
            a.set_checkpoint_every(3);
            a.set_commit_mode(CommitMode::Parallel { threads: 2 });
            a
        };
        let mut b = engine_with_views(g);
        // A canary that panics on its first apply rides on both engines:
        // coalescing equality must hold under a quarantined view too.
        a.register(Canary::default()).unwrap();
        b.register(Canary::default()).unwrap();

        let batches: Vec<UpdateBatch> = subs.iter().map(|raw| batch_from_raw(raw)).collect();
        let groups = split_groups(&batches, mask);
        let megas: Vec<UpdateBatch> = groups.iter().map(|g| coalesce(g)).collect();

        let (ticks_a, commits_b) = quiet_panics(|| {
            // Chained driver: prepare tick 0, then every apply also
            // prepares the next tick.
            let mut ticks_a = 0u64;
            let mut staged = a.prepare(&megas[0]).unwrap();
            for next in megas.iter().skip(1) {
                let (receipt, piped) = a.apply_prepared(staged, Some(next)).unwrap();
                ticks_a += u64::from(!receipt.is_noop());
                staged = piped.expect("the next prepare was requested").unwrap();
            }
            let (receipt, tail) = a.apply_prepared(staged, None).unwrap();
            ticks_a += u64::from(!receipt.is_noop());
            prop_assert!(tail.is_none(), "no prepare requested on the last tick");

            // Twin: one commit per submission, same arrival order.
            let mut commits_b = 0u64;
            for sub in &batches {
                commits_b += u64::from(!b.commit(sub).unwrap().is_noop());
            }
            (ticks_a, commits_b)
        });

        // The heart of the property: identical graphs and bit-identical
        // answers for all five classes, despite different tick boundaries
        // (epochs legitimately differ — one bump per non-noop tick vs one
        // per non-noop submission).
        prop_assert_eq!(a.epoch(), ticks_a);
        prop_assert_eq!(b.epoch(), commits_b);
        prop_assert_eq!(a.graph().sorted_edges(), b.graph().sorted_edges());
        prop_assert_eq!(a.graph().node_count(), b.graph().node_count());
        prop_assert_eq!(five_class_answers(&a), five_class_answers(&b));
        a.verify_all().unwrap();
        b.verify_all().unwrap();

        // The canary quarantined at each engine's first non-noop commit.
        // (A whole tick can normalize to a no-op even when its member
        // submissions don't — e.g. an insert/delete pair coalesced away —
        // so each side is gated on its own non-noop count.)
        for (e, nonnoop) in [(&a, ticks_a), (&b, commits_b)] {
            if nonnoop > 0 {
                let canary = e.find("canary").expect("canary stays registered");
                prop_assert!(
                    matches!(e.state(canary).unwrap(), ViewState::Quarantined { .. }),
                    "canary quarantined after the first non-noop commit"
                );
            }
        }

        // The journal recorded whole mega-batches: recovery lands on A's
        // exact frontier — no re-split or torn ticks.
        let r = Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>).unwrap();
        prop_assert_eq!(r.epoch(), a.epoch());
        prop_assert_eq!(r.graph().sorted_edges(), a.graph().sorted_edges());
        prop_assert_eq!(r.graph().node_count(), a.graph().node_count());
    }

    #[test]
    fn crash_mid_tick_recovers_to_a_clean_epoch_boundary(
        (n, edges, subs, mask, (crash_pick, keep)) in (8u32..14).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            proptest::collection::vec(
                proptest::collection::vec(
                    (any::<bool>(), 0..n + 3, 0..n + 3),
                    1..8,
                ),
                4..9,
            ),
            any::<u64>(),
            // Crash-tick pick, and how many bytes of the torn record the
            // fault keeps: 0 (nothing hit the backend) up past
            // whole-record size (fully written but never acknowledged).
            (any::<u32>(), 0usize..64),
        ))
    ) {
        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);

        let backend = ChaosBackend::new(Arc::new(MemBackend::new()), FaultPlan::none());
        let mut a = engine_with_views(g.clone())
            .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
            .unwrap();
        a.set_checkpoint_every(2);
        let mut b = engine_with_views(g);

        let batches: Vec<UpdateBatch> = subs.iter().map(|raw| batch_from_raw(raw)).collect();
        let groups = split_groups(&batches, mask);
        let megas: Vec<UpdateBatch> = groups.iter().map(|g| coalesce(g)).collect();

        let crash_group = (crash_pick as usize) % megas.len();
        // The injector arms at the chosen tick but only fires on the first
        // *append* — no-op ticks never touch the log and slide through.
        let mut armed = false;
        for (k, mega) in megas.iter().enumerate() {
            if k == crash_group {
                backend.fail_next_append(keep);
                armed = true;
            }
            let epoch_before = a.epoch();
            match a.commit(mega) {
                Ok(receipt) => {
                    if armed {
                        prop_assert!(
                            receipt.is_noop(),
                            "an armed fault must fail the first real append"
                        );
                    }
                }
                Err(_) => {
                    prop_assert!(armed, "only the injected tear may fail a commit");
                    armed = false;
                    // All-or-nothing: the torn tick moved nothing — not the
                    // graph, not the epoch, not a single view.
                    prop_assert_eq!(a.epoch(), epoch_before);
                    // CRASH: drop the wounded engine, rebuild from the
                    // journal alone. Recovery must land on an epoch
                    // *boundary*: either the record never became durable
                    // (torn tail, skipped) or — when the fault kept every
                    // byte — it is replayed whole. A partially applied
                    // mega-batch is impossible either way.
                    let mut r =
                        Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                            .unwrap();
                    prop_assert!(
                        r.epoch() == epoch_before || r.epoch() == epoch_before + 1,
                        "recovered epoch {} is a clean boundary around pre-tick epoch {}",
                        r.epoch(),
                        epoch_before
                    );
                    r.set_checkpoint_every(2);
                    register_five_lazily(&mut r);
                    // Retrying the whole tick is idempotent under
                    // normalization: it lands exactly once whether or not
                    // the replay already carried it.
                    r.commit(mega).unwrap();
                    prop_assert_eq!(
                        r.epoch(),
                        epoch_before + 1,
                        "the torn tick lands exactly once after retry"
                    );
                    a = r;
                }
            }
            for sub in &groups[k] {
                b.commit(sub).unwrap();
            }
            prop_assert_eq!(a.graph().sorted_edges(), b.graph().sorted_edges());
        }

        prop_assert_eq!(a.graph().node_count(), b.graph().node_count());
        prop_assert_eq!(five_class_answers(&a), five_class_answers(&b));
        a.verify_all().unwrap();
        b.verify_all().unwrap();

        // And the journal is still coherent end-to-end: a second recovery
        // (over the rotated-past torn bytes) reaches the same frontier.
        let r2 = Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>).unwrap();
        prop_assert_eq!(r2.epoch(), a.epoch());
        prop_assert_eq!(r2.graph().sorted_edges(), a.graph().sorted_edges());
    }

    #[test]
    fn pinned_snapshots_stay_bit_identical_while_commits_and_lifecycle_flow(
        (n, edges, rounds, crash_pick) in (8u32..14).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n).prop_filter("no initial self-loops", |(a, b)| a != b),
                10..30,
            ),
            // ≥ 8 rounds; each: a lifecycle op on *extra* views (0 = none,
            // 1 = deregister, 2 = lazy-register — the five core classes
            // stay registered so their labels resolve in every snapshot),
            // its target pick, a raw commit batch, and whether a reader
            // pins a snapshot right after the commit.
            proptest::collection::vec(
                (
                    0u32..3,
                    0u32..64,
                    proptest::collection::vec(
                        (any::<bool>(), 0..n + 3, 0..n + 3),
                        1..8,
                    ),
                    any::<bool>(),
                ),
                8..12,
            ),
            any::<u32>(),
        ))
    ) {
        /// The five classes' answers as served by a pinned snapshot —
        /// label-resolved and downcast, so the key is comparable with
        /// `five_class_answers` on a live engine.
        fn snap_answers(s: &Snapshot) -> ClassAnswers {
            fn get<'a, V: IncView>(s: &'a Snapshot, label: &str) -> &'a V {
                s.view_dyn(s.find(label).expect("core label published"))
                    .expect("core view active in snapshot")
                    .downcast_ref::<V>()
                    .expect("published cell has the registered type")
            }
            (
                get::<IncRpq>(s, "rpq").sorted_answer(),
                get::<IncScc>(s, "scc").components(),
                get::<IncKws>(s, "kws").answer_signature(),
                get::<IncIso>(s, "iso").sorted_matches(),
                rules_answer(get::<IncRules>(s, "rules")),
            )
        }

        let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let g = graph_from(&labels, &edges);

        // The serving engine journals through a WAL (it will crash at a
        // random round and recover); the twin never snapshots, never
        // crashes — it is the frozen reference a pin is compared against:
        // its answers *at the pinned epoch* are captured at pin time and
        // must keep matching the snapshot forever after.
        let backend = MemBackend::new();
        let mut engine = Some(
            engine_with_views(g.clone())
                .with_log(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                .unwrap(),
        );
        engine.as_mut().unwrap().set_checkpoint_every(3);
        let mut twin = engine_with_views(g);

        let crash_round = (crash_pick as usize) % rounds.len();
        let mut extra: Vec<String> = Vec::new();
        let mut fresh = 0u32;
        // Every pin ever taken: (snapshot, frozen expectation at its epoch).
        let mut pins: Vec<(Snapshot, ClassAnswers, Vec<Edge>)> = Vec::new();

        for (round, (op, pick, raw, pin)) in rounds.iter().enumerate() {
            let e = engine.as_mut().unwrap();
            // Lifecycle churn on extra views, mirrored on the twin so the
            // two engines stay structurally identical.
            match op {
                1 if !extra.is_empty() => {
                    let victim = extra.remove((*pick as usize) % extra.len());
                    for e in [&mut *e, &mut twin] {
                        let id = e.find(&victim).expect("extra view live");
                        e.deregister(id).unwrap();
                    }
                }
                2 => {
                    fresh += 1;
                    let label = format!("rpq:extra{fresh}");
                    for e in [&mut *e, &mut twin] {
                        e.register_lazy(label.as_str(), IncRpq::init(rpq_query())).unwrap();
                    }
                    extra.push(label);
                }
                _ => {}
            }

            let batch = batch_from_raw(raw);
            let receipt = e.commit(&batch).unwrap();
            let receipt_twin = twin.commit(&batch).unwrap();
            prop_assert_eq!(receipt.epoch, receipt_twin.epoch);

            if *pin || round == 0 {
                // A reader pins the newest published version; the frozen
                // expectation comes from the *twin* at this very epoch.
                let s = e.snapshot().unwrap();
                prop_assert_eq!(s.epoch(), e.epoch(), "head snapshot pins the commit frontier");
                let expected = five_class_answers(&twin);
                prop_assert_eq!(
                    &snap_answers(&s),
                    &expected,
                    "snapshot serves the twin's answers at pin time"
                );
                // Pinning the same epoch explicitly lands on the same data.
                let again = e.snapshot_at(s.epoch()).unwrap();
                prop_assert_eq!(again.epoch(), s.epoch());
                pins.push((s, expected, twin.graph().sorted_edges()));
            }

            // The heart of the property: *every* pin ever taken still
            // serves its frozen answers and graph, no matter how many
            // commits and lifecycle events have flowed since.
            for (s, expected, frozen_edges) in &pins {
                prop_assert_eq!(&snap_answers(s), expected, "pinned answers frozen");
                prop_assert_eq!(&s.graph().sorted_edges(), frozen_edges, "pinned graph frozen");
            }
            // GC keeps the version window bounded by the live pins:
            // retained versions ≤ distinct pinned epochs + the head.
            let mut pinned_epochs: Vec<u64> = pins.iter().map(|(s, _, _)| s.epoch()).collect();
            pinned_epochs.sort_unstable();
            pinned_epochs.dedup();
            prop_assert!(
                e.snapshot_store().window() <= pinned_epochs.len() + 1,
                "version window {} exceeds pins {} + 1",
                e.snapshot_store().window(),
                pinned_epochs.len()
            );

            if round == crash_round {
                // CRASH: the serving engine dies. Pinned snapshots are
                // self-contained Arcs — they must keep serving unchanged —
                // and the recovered engine publishes fresh versions.
                drop(engine.take());
                for (s, expected, _) in &pins {
                    prop_assert_eq!(&snap_answers(s), expected, "pins outlive the engine");
                }
                let mut r = Engine::recover(Arc::new(backend.clone()) as Arc<dyn LogBackend>)
                    .unwrap();
                prop_assert_eq!(r.epoch(), twin.epoch(), "recovered at the crash frontier");
                r.set_checkpoint_every(3);
                register_five_lazily(&mut r);
                for label in &extra {
                    r.register_lazy(label.as_str(), IncRpq::init(rpq_query())).unwrap();
                }
                // Re-registration republished: a fresh pin on the recovered
                // engine serves the twin's current answers immediately.
                let s = r.snapshot().unwrap();
                prop_assert_eq!(
                    snap_answers(&s),
                    five_class_answers(&twin),
                    "post-recovery snapshot matches the never-crashed twin"
                );
                engine = Some(r);
            }
        }

        // Epochs no pin held are gone (EpochRetired), future epochs are
        // not yet published (SnapshotUnavailable) — the error contract at
        // the window's two edges.
        let e = engine.as_ref().unwrap();
        let future = e.snapshot_store().head() + 1;
        prop_assert!(matches!(
            e.snapshot_at(future),
            Err(EngineError::SnapshotUnavailable { .. })
        ));
        let oldest = e.snapshot_store().oldest();
        if oldest > 0 {
            prop_assert!(matches!(
                e.snapshot_at(oldest - 1),
                Err(EngineError::EpochRetired { .. })
            ));
        }
        // Dropping every pin lets the next commit's GC shrink the window
        // to the head version alone.
        pins.clear();
        let e = engine.as_mut().unwrap();
        e.commit(&UpdateBatch::from_updates(vec![Update::insert(
            NodeId(0),
            NodeId(n),
        )]))
        .unwrap();
        prop_assert_eq!(e.snapshot_store().window(), 1, "no pins → head-only window");
    }
}
