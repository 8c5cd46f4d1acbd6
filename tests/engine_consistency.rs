//! One seeded simulation holds the engine to one executable specification:
//! the paper's oracle (§2.2), stated once per epoch. The graph at epoch `e`
//! is the fold of the normalized deltas up to `e`, and every answer at `e`
//! is batch recomputation on it. [`Model`] holds that, the label roster and
//! the live pins, and is checked after every action.
//!
//! A `u64` seed draws an action list ([`generate`]); [`Sim`] drives one
//! journaled engine, its followers and its pins through it. A failure is
//! shrunk ([`minimise`]) and printed with its seed as a Rust literal, which
//! [`replay`] reproduces. The seven properties this file held, and the
//! seeded fault storm `crates/engine/tests/chaos.rs` held, keep their
//! names: each is the simulation on its own 16 seeds, drawing only the
//! action kinds it drove, and asserting they and its events fired. What
//! checks each:
//!
//! 1. `all_views_agree_with_batch_recomputation_after_every_commit`:
//!    [`Sim::check`] after each `Commit` of raw units (duplicates, pairs,
//!    no-ops, self-loops, fresh nodes); [`Sim::landed`] checks its receipt.
//! 2. `lifecycle_interleavings_keep_every_surviving_view_consistent`:
//!    `Register` and `Deregister` keep the roster equal to the model's, and
//!    a dropped handle stale.
//! 3. `crash_replay_recovers_all_five_classes_bit_identically`: `Crash`
//!    recovers at the frontier; every surface shows one answer per epoch.
//! 4. `replicas_joining_at_random_epochs_converge_bit_identically`: `Attach`
//!    and `CatchUp` followers show the model at their frontier, and seed
//!    past a `Compact`ed base.
//! 5. `coalesced_ticks_match_per_submission_commits_bit_identically`:
//!    `Ticks` chain `apply_prepared`, beside canaries quarantined at their
//!    first commit that is not a no-op.
//! 6. `crash_mid_tick_recovers_to_a_clean_epoch_boundary`: a torn tick moves
//!    nothing, recovery lands before it, and committing it again lands it
//!    exactly once.
//! 7. `pinned_snapshots_stay_bit_identical_while_commits_and_lifecycle_flow`:
//!    every `Pin` keeps showing its epoch, a commit keeps the pinned versions
//!    and the head, an `Unpin` of an epoch's last pin retires it at once,
//!    and `snapshot_at` errs at the window's edges.
//! 8. `seeded_chaos_storms_lose_no_acked_commit`: a `Fault` arms torn
//!    appends and failed syncs ahead of a commit, under each `Durability`
//!    mode. Degraded, the engine shows the model and rejects a commit
//!    without moving; [`Sim::fault`] heals it, commits again, and ends
//!    healthy once every fault fired. A `ReadFault` under a follower is
//!    surfaced by `catch_up` with the frontier unmoved, and the next
//!    `catch_up` converges.
//!
//! The simulation is the one fault scheduler: `ChaosBackend` only fires the
//! one-shots an action arms, so the seed decides when every fault fires.

use incgraph::graph::graph::graph_from;
use incgraph::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Duration;
use Action::*;
use Barrier::*;
use Class::*;
use EngineError::SnapshotUnavailable;
use EngineError::{Degraded, EpochRetired, JournalFailed};
use Hit::*;
use U::*;

/// Seeds per tier-1 run of the whole mix, and of each cut-down mix; and
/// actions per seed.
const SEEDS: u64 = 64;
const FOCUSED: u64 = 16;
const ACTIONS: usize = 72;
/// The base graph is a ring of 10 nodes labelled `i % 3`; fresh nodes grow
/// it up to `MAX_NODES`.
const BASE_NODES: u32 = 10;
const MAX_NODES: u32 = 24;

/// One raw unit: an insert, an insert that labels fresh endpoints, a delete.
#[derive(Debug, Clone, Copy, PartialEq)]
enum U {
    I(u32, u32),
    L(u32, u32, u32, u32),
    D(u32, u32),
}

/// The five view classes, and two canaries that panic at their first
/// commit that is not a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Rpq,
    Scc,
    Kws,
    Iso,
    Rules,
    PanicInApply,
    PanicInClone,
}

const CORE: [Class; 5] = [Rpq, Scc, Kws, Iso, Rules];

/// The journal's durability mode, by name ([`Barrier::mode`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Barrier {
    Never,
    EveryAppend,
    GroupCommit,
}

impl Barrier {
    fn mode(self) -> DurabilityMode {
        match self {
            Never => DurabilityMode::None,
            EveryAppend => DurabilityMode::EveryAppend,
            GroupCommit => DurabilityMode::GroupCommit {
                max_batch: 4,
                max_delay: Duration::from_secs(3600),
            },
        }
    }
}

/// One armed one-shot: an append torn after `keep` bytes, or a failed sync.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hit {
    Torn(usize),
    NoSync,
}

/// One step of a history. Any subsequence of a history is a history:
/// picks are taken modulo what exists, and an action with nothing to act
/// on does nothing.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    Commit(Vec<U>),
    /// Ticks chained through `apply_prepared`.
    Ticks(Vec<Vec<U>>),
    Register(Class),
    Deregister(usize),
    Checkpoint,
    Compact,
    /// Drop the engine and recover it; first, with `(keep, tick)`, commit
    /// `tick` into an append torn after `keep` bytes.
    Crash(Option<(usize, Vec<U>)>),
    /// A follower over the journal (`Replica::attach`).
    Attach,
    CatchUp(usize),
    /// Pin the head, or `Some(k)`: a held epoch, with `snapshot_at`; for
    /// `k % 4 == 3` while a follower lives, a follower's frontier.
    Pin(Option<usize>),
    Unpin(usize),
    Durability(Barrier),
    /// Arm the hits, in order, then commit the units through them.
    Fault(Vec<Hit>, Vec<U>),
    /// Fail a follower's next read.
    ReadFault(usize),
}

/// The action kinds, and the chance in 100 that a draw is of each.
/// `Retry` is a retired kind (the journal no longer retries): a draw of it
/// takes its flag and is dropped, so every other action of a seed is drawn
/// as before. It stays in the cut-down mixes that drew it, for the same
/// reason, and is never counted as fired.
const MIX: [(&str, u32); 15] = [
    ("Commit", 26),
    ("Ticks", 7),
    ("Register", 6),
    ("Deregister", 6),
    ("Checkpoint", 3),
    ("Compact", 4),
    ("Retry", 4),
    ("Crash", 7),
    ("Attach", 5),
    ("CatchUp", 8),
    ("Pin", 8),
    ("Unpin", 5),
    ("Durability", 3),
    ("Fault", 5),
    ("ReadFault", 3),
];

/// What the seeds must exercise beside each action kind: each surface
/// check, and the events the action kinds exist for.
const EVENTS: &str = "engine_check follower_check pin_check quarantine torn_tick \
    stored_torn_append compaction_drop reattach snapshot_at follower_pin unpin_retired";
/// What the fault kinds exist for: a degraded engine, refused and granted
/// heals, sync debt, surfaced read faults, and faults under each
/// durability mode.
const FAULT_EVENTS: &str = "degraded heal_refused healed sync_debt read_surfaced \
    faults_under_Never faults_under_EveryAppend faults_under_GroupCommit";

type Stats = BTreeMap<String, u64>;

fn bump(stats: &mut Stats, what: &str) {
    *stats.entry(what.to_owned()).or_default() += 1;
}

/// The action list seed `seed` draws.
fn generate(seed: u64) -> Vec<Action> {
    generate_of(seed, &MIX.map(|m| m.0))
}

fn kind_of(mut roll: u32) -> &'static str {
    for (kind, weight) in MIX {
        match roll.checked_sub(weight) {
            Some(rest) => roll = rest,
            None => return kind,
        }
    }
    unreachable!("the weights sum to 100")
}

/// The action list seed `seed` draws from the mix cut down to `kinds`: a
/// draw of another kind is drawn again.
fn generate_of(seed: u64, kinds: &[&str]) -> Vec<Action> {
    let rng = &mut StdRng::seed_from_u64(seed);
    // A bound on the node count, so ids reach a few past it (fresh nodes),
    // and deletes of the edges inserted so far, so deletes hit.
    let (mut nodes, mut deletes) = (BASE_NODES, Vec::new());
    let mut batch = |rng: &mut StdRng| {
        let mut units = Vec::new();
        for _ in 0..rng.gen_range(1u32..14) {
            let ids = 0..(nodes + 3).min(MAX_NODES);
            let (a, b) = (rng.gen_range(ids.clone()), rng.gen_range(ids));
            let unit = match rng.gen_range(0u32..8) {
                0..=2 => I(a, b),
                3 => L(a, b, rng.gen_range(0u32..3), rng.gen_range(0u32..3)),
                4..=6 if !deletes.is_empty() => deletes[rng.gen_range(0..deletes.len())],
                _ => D(a, b),
            };
            let inverse = match unit {
                I(a, b) | L(a, b, ..) => {
                    nodes = nodes.max(a.max(b) + 1);
                    deletes.push(D(a, b));
                    D(a, b)
                }
                D(a, b) => I(a, b),
            };
            units.push(unit);
            units.extend(rng.gen_bool(0.1).then_some(unit));
            units.extend(rng.gen_bool(0.1).then_some(inverse));
        }
        units
    };
    let mut action = |rng: &mut StdRng| loop {
        let (pick, kind) = (rng.gen_range(0usize..64), kind_of(rng.gen_range(0u32..100)));
        if !kinds.contains(&kind) {
            continue;
        }
        return Some(match kind {
            "Commit" => Commit(batch(rng)),
            "Ticks" => {
                let ticks = rng.gen_range(1usize..4);
                let ticks = Ticks((0..ticks).map(|_| batch(rng)).collect());
                // Ticks once carried a commit-mode flag: drawing it keeps every seed's history.
                let _: bool = rng.gen();
                ticks
            }
            "Register" if pick % 4 == 0 => Register([PanicInApply, PanicInClone][pick / 4 % 2]),
            "Register" => Register(CORE[pick % 5]),
            "Deregister" => Deregister(pick),
            "Checkpoint" => Checkpoint,
            "Compact" => Compact,
            "Retry" => {
                let _: bool = rng.gen();
                return None;
            }
            "Crash" if rng.gen_bool(0.6) => Crash(Some((rng.gen_range(0usize..64), batch(rng)))),
            "Crash" => Crash(None),
            "Attach" => {
                // Attach once carried a pinned flag: drawing it keeps every seed's history.
                let _: bool = rng.gen();
                Attach
            }
            "CatchUp" => CatchUp(pick),
            "Pin" => Pin(rng.gen_bool(0.5).then_some(pick)),
            "Unpin" => Unpin(pick),
            "Durability" => Durability([Never, EveryAppend, GroupCommit][pick % 3]),
            "Fault" => {
                let hits = (0..rng.gen_range(1u32..5)).map(|_| match rng.gen_bool(0.6) {
                    true => Torn(rng.gen_range(0usize..64)),
                    false => NoSync,
                });
                Fault(hits.collect(), batch(rng))
            }
            _ => ReadFault(pick),
        });
    };
    (0..ACTIONS).filter_map(|_| action(rng)).collect()
}

fn batch_of(units: &[U]) -> UpdateBatch {
    let (n, l) = (NodeId, |l| Some(Label(l)));
    let update = |&u: &U| match u {
        I(a, b) => Update::insert(n(a), n(b)),
        L(a, b, la, lb) => Update::insert_labeled(n(a), n(b), l(la), l(lb)),
        D(a, b) => Update::delete(n(a), n(b)),
    };
    units.iter().map(update).collect()
}

fn rpq_query() -> Regex {
    // Interner ids follow first use: l0 → 0, l1 → 1, l2 → 2, the base labels.
    Regex::parse("l0.(l1+l2)*.l2", &mut LabelInterner::new()).unwrap()
}

/// `exec` anchored at label-1 nodes and carried along edges: recursive, so
/// deletes exercise over-delete and re-derive, and over a self-loop a fact
/// derives itself.
fn rules_program() -> Program {
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec", 1).unwrap();
    let anchor = vec![Atom::has_label(v(0), Label(1))];
    let step = vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))];
    rs.rule(exec, &[v(0)], anchor).unwrap();
    rs.rule(exec, &[v(1)], step).unwrap();
    rs.compile().unwrap()
}

/// A view that panics at its first commit that is not a no-op: in `apply`,
/// or (`.0`) in the `clone_view` of the publish after it. `.1` counts its
/// applies.
#[derive(Clone)]
struct Canary(bool, u32);

impl IncView for Canary {
    fn name(&self) -> &str {
        "canary"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        self.1 += 1;
        assert!(self.0, "canary: deliberate panic in apply");
    }
    fn work(&self) -> WorkStats {
        WorkStats::default()
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        assert!(self.1 == 0, "canary: deliberate panic in clone_view");
        Box::new(self.clone())
    }
}

/// Where views register: the engine, or a follower.
trait Host {
    fn add<V: IncView>(&mut self, label: &str, init: impl FnOnce(&DynamicGraph) -> V);
}

impl Host for Engine {
    fn add<V: IncView>(&mut self, label: &str, init: impl FnOnce(&DynamicGraph) -> V) {
        self.register(label, init).expect("register");
    }
}

impl Host for Replica {
    fn add<V: IncView>(&mut self, label: &str, init: impl FnOnce(&DynamicGraph) -> V) {
        self.register(label, init).expect("register on a follower");
    }
}

fn register(host: &mut impl Host, label: &str, class: Class) {
    let kws = KwsQuery::new(vec![Label(1), Label(2)], 2);
    let path = Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]);
    match class {
        Rpq => host.add(label, IncRpq::init(rpq_query())),
        Scc => host.add(label, IncScc::init()),
        Kws => host.add(label, IncKws::init(kws)),
        Iso => host.add(label, IncIso::init(path)),
        Rules => host.add(label, IncRules::init(rules_program())),
        _ => host.add(label, |_: &DynamicGraph| Canary(class == PanicInClone, 0)),
    }
}

/// A view's answer key: its canonical answer, with support counts for rules.
fn answer(view: &dyn IncView, class: Class) -> String {
    fn as_<V: IncView>(view: &dyn IncView) -> &V {
        view.downcast_ref().expect("the registered type")
    }
    match class {
        Rpq => format!("{:?}", as_::<IncRpq>(view).sorted_answer()),
        Scc => format!("{:?}", as_::<IncScc>(view).components()),
        Kws => format!("{:?}", as_::<IncKws>(view).answer_signature()),
        Iso => format!("{:?}", as_::<IncIso>(view).sorted_matches()),
        _ => {
            let r = as_::<IncRules>(view);
            let facts = r.sorted_facts().into_iter();
            let supported: Vec<_> = facts.map(|f| (f, r.support(f.pred, f.args()))).collect();
            format!("{supported:?}")
        }
    }
}

type Roster = Vec<(String, Class)>;

/// The five classes under their class names: the start of every roster,
/// and every follower's.
fn core_roster() -> Roster {
    CORE.map(|c| (format!("{c:?}"), c)).to_vec()
}

/// The specification, per epoch.
#[derive(Default)]
struct Model {
    /// `graphs[e]`: the fold of the normalized deltas up to epoch `e`.
    graphs: Vec<DynamicGraph>,
    /// A class's answer key at an epoch, as the first surface showed it.
    answers: HashMap<(u64, Class), String>,
    /// The labels live on the engine; the quarantined canaries among them.
    roster: Roster,
    quarantined: Vec<String>,
    /// Per epoch of the version store: its last publication and roster.
    published: BTreeMap<u64, (u64, Roster)>,
    publications: u64,
    /// The live pins, with their roster and their publication on the
    /// engine (`None`: a follower's).
    pins: Vec<(Snapshot, Roster, Option<u64>)>,
}

impl Model {
    fn epoch(&self) -> u64 {
        self.graphs.len() as u64 - 1
    }

    fn graph(&self) -> &DynamicGraph {
        self.graphs.last().expect("the base graph")
    }

    /// A raw batch, and its delta against the head.
    fn normalize(&self, units: &[U]) -> (UpdateBatch, UpdateBatch) {
        let batch = batch_of(units);
        let delta = batch.normalize_against(self.graph());
        (batch, delta)
    }

    fn advance(&mut self, delta: &UpdateBatch) {
        let mut g = self.graph().clone();
        g.apply_batch(delta);
        self.graphs.push(g);
        self.republish();
    }

    fn republish(&mut self) {
        self.publications += 1;
        let publication = (self.publications, self.roster.clone());
        self.published.insert(self.epoch(), publication);
    }

    fn is_canary(&self, label: &str) -> bool {
        let class = self.roster.iter().find(|(l, _)| l == label).map(|c| c.1);
        matches!(class, Some(PanicInApply | PanicInClone))
    }

    /// The epochs whose last publication a pin holds: what a commit keeps.
    fn held(&self) -> Vec<u64> {
        let last = |p: &&(Snapshot, Roster, Option<u64>)| {
            p.2.is_some() && p.2 == self.published.get(&p.0.epoch()).map(|q| q.0)
        };
        let mut held: Vec<u64> = self.pins.iter().filter(last).map(|p| p.0.epoch()).collect();
        held.sort_unstable();
        held.dedup();
        held
    }

    /// A published version shows the model graph at its epoch, and each
    /// view of `roster` the answers the engine's live views, checked against
    /// batch recomputation, showed at that epoch.
    fn check(&mut self, what: &str, snap: &Snapshot, roster: &Roster) {
        let e = snap.epoch();
        let (shown, g) = (snap.graph(), &self.graphs[e as usize]);
        let labels = |g: &DynamicGraph| g.nodes().map(|v| g.label(v)).collect::<Vec<_>>();
        let edges = (shown.sorted_edges(), g.sorted_edges());
        assert!(edges.0 == edges.1, "{what}: edges at {e}");
        assert!(labels(shown) == labels(g), "{what}: labels at {e}");
        for (label, class) in roster.iter().filter(|(_, c)| CORE.contains(c)) {
            let view = snap.find(label).map(|id| snap.view_dyn(id));
            let view = match view {
                Some(Ok(view)) => view,
                other => panic!("{what}: {label} at {e}: {:?}", other.map(|v| v.err())),
            };
            self.agree(&format!("{what}: {label} at {e}"), e, *class, view);
        }
    }

    /// `view` shows the answer every surface showed for `class` at epoch `e`.
    fn agree(&mut self, what: &str, e: u64, class: Class, view: &dyn IncView) {
        let key = answer(view, class);
        let first = self.answers.entry((e, class)).or_insert(key.clone());
        assert!(key == *first, "{what}: surfaces differ");
    }
}

/// One journaled engine, its followers and the model it is held to.
struct Sim {
    backend: ChaosBackend,
    engine: Engine,
    followers: Vec<Replica>,
    durability: Barrier,
    compacted_base: u64,
    /// The publication the engine's views were last verified at.
    verified: u64,
    model: Model,
    stats: Stats,
}

impl Sim {
    fn new() -> Sim {
        let labels: Vec<u32> = (0..BASE_NODES).map(|i| i % 3).collect();
        let ring: Vec<(u32, u32)> = (0..BASE_NODES).map(|i| (i, (i + 1) % BASE_NODES)).collect();
        let base = graph_from(&labels, &ring);
        let backend = ChaosBackend::new(Arc::new(MemBackend::new()));
        let engine = Engine::new(base.clone()).with_log(Arc::new(backend.clone()));
        let mut sim = Sim {
            backend,
            engine: engine.expect("an empty journal"),
            followers: Vec::new(),
            durability: Never,
            compacted_base: 0,
            verified: 0,
            model: Model {
                graphs: vec![base],
                roster: core_roster(),
                ..Model::default()
            },
            stats: Stats::new(),
        };
        sim.settle();
        sim
    }

    /// Apply the settings and register the roster on a new or recovered
    /// engine: the journal holds neither.
    fn settle(&mut self) {
        self.configure();
        for (label, class) in &self.model.roster {
            register(&mut self.engine, label, *class);
        }
        self.model.quarantined.clear();
        self.model.published.clear();
        self.model.republish();
    }

    /// Apply the settings the actions flip.
    fn configure(&mut self) {
        let e = &mut self.engine;
        e.set_checkpoint_every(3);
        e.set_durability(self.durability.mode()).expect("a journal");
    }

    fn step(&mut self, action: &Action) {
        let kind = format!("{action:?}");
        bump(&mut self.stats, kind.split('(').next().unwrap_or(""));
        match action {
            Commit(units) => {
                let (batch, delta) = self.model.normalize(units);
                let receipt = self.engine.commit(&batch).expect("commit");
                self.landed(&receipt, units.len(), &delta);
            }
            Ticks(ticks) => self.ticks(ticks),
            Register(class) => {
                let label = format!("{class:?}:{}", self.model.publications);
                register(&mut self.engine, &label, *class);
                self.model.roster.push((label, *class));
                self.model.republish();
            }
            Deregister(pick) => self.deregister(*pick),
            Checkpoint => self.engine.checkpoint().expect("checkpoint"),
            Compact => {
                let c = self.engine.compact_log().expect("compaction");
                assert!(c.base_epoch >= self.compacted_base, "the base moved back");
                self.compacted_base = c.base_epoch;
                if c.dropped_segments > 0 {
                    bump(&mut self.stats, "compaction_drop");
                }
            }
            Crash(torn) => self.crash(torn.as_ref()),
            Attach => self.attach(),
            CatchUp(pick) => self.catch_up(*pick),
            Pin(at) => self.pin(*at),
            Unpin(pick) => self.unpin(*pick),
            Durability(barrier) => {
                self.durability = *barrier;
                self.configure();
            }
            Fault(hits, units) => self.fault(hits, units),
            ReadFault(pick) => self.read_fault(*pick),
        }
        self.check();
    }

    /// Check a receipt against the model's `delta`, then advance the model.
    fn landed(&mut self, r: &CommitReceipt, n: usize, delta: &UpdateBatch) {
        let m = &mut self.model;
        let active = m.roster.len() - m.quarantined.len();
        assert_eq!((r.submitted, r.applied), (n, delta.len()), "receipt");
        assert_eq!(r.applied + r.dropped, r.submitted, "receipt arithmetic");
        if delta.is_empty() {
            return assert_eq!(r.epoch, m.epoch(), "a no-op keeps the epoch");
        }
        assert_eq!(r.epoch, m.epoch() + 1, "a commit advances the epoch by one");
        assert_eq!(r.per_view.len(), active, "per_view holds the active views");
        assert_eq!(r.skipped_quarantined, m.quarantined.len());
        for v in &r.per_view {
            let canary = m.is_canary(&v.label);
            assert!(v.applied() != canary, "{}: quarantined", v.label);
            if canary {
                m.quarantined.push(v.label.to_string());
                bump(&mut self.stats, "quarantine");
            }
        }
        m.advance(delta);
        // A commit retires every version no pin holds.
        let window = self.engine.snapshot_store().window();
        assert_eq!(window, m.held().len() + 1, "window: the pins and the head");
    }

    fn ticks(&mut self, ticks: &[Vec<U>]) {
        let batches: Vec<UpdateBatch> = ticks.iter().map(|t| batch_of(t)).collect();
        let Some(first) = batches.first() else { return };
        let mut staged = self.engine.prepare(first).expect("prepare");
        for (i, tick) in ticks.iter().enumerate() {
            let delta = batches[i].normalize_against(self.model.graph());
            let next = batches.get(i + 1);
            let (receipt, piped) = self.engine.apply_prepared(staged, next).expect("apply");
            self.landed(&receipt, tick.len(), &delta);
            match piped {
                Some(prepared) => staged = prepared.expect("the next tick prepares"),
                None => return assert!(next.is_none(), "a requested prepare is returned"),
            }
        }
    }

    fn deregister(&mut self, pick: usize) {
        let (e, roster) = (&mut self.engine, &mut self.model.roster);
        let Some(i) = pick.checked_rem(roster.len()) else {
            return;
        };
        let (label, _) = roster.remove(i);
        let id = e.find(&label).expect("a roster label resolves");
        let retired = e.retired().len();
        let totals = e.deregister(id).expect("deregister");
        assert_eq!((&*totals.label, e.retired().len()), (&*label, retired + 1));
        assert!(e.find(&label).is_none(), "{label} still resolves");
        assert!(e.view_dyn(id).is_err(), "{label}: a handle not stale");
        self.model.quarantined.retain(|l| *l != label);
        self.model.republish();
    }

    fn crash(&mut self, torn: Option<&(usize, Vec<U>)>) {
        // The tick a torn append failed, committed again after the recovery.
        let mut failed = None;
        if let Some((keep, units)) = torn {
            let (batch, delta) = self.model.normalize(units);
            // A no-op never appends, and would leave the fault armed.
            if !delta.is_empty() {
                self.backend.fail_next_append(*keep);
                match self.engine.commit(&batch) {
                    // The torn append stored every byte.
                    Ok(r) => {
                        bump(&mut self.stats, "stored_torn_append");
                        self.landed(&r, units.len(), &delta);
                    }
                    Err(_) => {
                        bump(&mut self.stats, "torn_tick");
                        // A torn tick is atomic: the engine still shows the model.
                        self.check();
                        failed = Some(units);
                    }
                }
            }
        }
        // The process dies; followers and pins outlive it.
        let frontier = self.model.epoch();
        self.engine = Engine::new(DynamicGraph::new());
        let recovered = Engine::recover(Arc::new(self.backend.clone()));
        self.engine = recovered.unwrap_or_else(|e| panic!("recovery at {frontier}: {e}"));
        // A failed tick left nothing recovery replays.
        assert_eq!(self.engine.epoch(), frontier, "recovered off the frontier");
        self.settle();
        if let Some(units) = failed {
            let (batch, delta) = self.model.normalize(units);
            let receipt = self.engine.commit(&batch).expect("the tick, again");
            self.landed(&receipt, units.len(), &delta);
            assert_eq!(self.engine.epoch(), frontier + 1, "landed not once");
        }
    }

    /// Arm `hits` and commit `units` through them. Degraded, the engine
    /// shows the model and a commit moves nothing; it heals until healthy,
    /// and commits again after a rejection. The action ends healthy, once
    /// every hit fired.
    fn fault(&mut self, hits: &[Hit], units: &[U]) {
        let fired = |s: ChaosStats| s.append_faults + s.sync_faults;
        let all = fired(self.backend.stats()) + hits.len() as u64;
        for hit in hits {
            match *hit {
                Torn(keep) => self.backend.fail_next_append(keep),
                NoSync => self.backend.fail_next_sync(),
            }
        }
        let under = format!("faults_under_{:?}", self.durability);
        bump(&mut self.stats, &under);
        let (batch, delta) = self.model.normalize(units);
        let mut landed = false;
        // Every round fires a hit, lands the commit, heals, or settles.
        for _ in 0..2 * hits.len() + 4 {
            let totals = self.engine.totals();
            if self.engine.is_degraded() {
                bump(&mut self.stats, "degraded");
                // Reads serve the last healthy epoch: the model's.
                self.check();
                if !landed {
                    let err = self.engine.commit(&batch).expect_err("a degraded commit");
                    assert!(matches!(err, Degraded { .. }), "{err}");
                    self.unmoved(totals);
                }
                let healed = self.engine.heal().is_ok();
                bump(&mut self.stats, ["heal_refused", "healed"][healed as usize]);
            } else if !landed {
                match self.engine.commit(&batch) {
                    Ok(r) => {
                        landed = true;
                        self.landed(&r, units.len(), &delta);
                        if self.engine.is_degraded() {
                            bump(&mut self.stats, "sync_debt");
                        }
                    }
                    Err(JournalFailed { .. }) => self.unmoved(totals),
                    Err(err) => panic!("a fault surfaced as {err}"),
                }
            } else if fired(self.backend.stats()) < all {
                // Hits the commit left armed fire on a checkpoint's append
                // and on a barrier; a failed barrier degrades.
                let _ = self.engine.checkpoint();
                let _ = self.engine.sync_log();
            } else if self.engine.log().and_then(CommitLog::sync_debt).is_some() {
                self.engine.sync_log().expect("a barrier, no fault armed");
            } else {
                return;
            }
        }
        panic!("{hits:?} did not settle");
    }

    /// A rejected commit moved nothing: not the totals, the epoch or the
    /// graph.
    fn unmoved(&self, totals: EngineTotals) {
        let (e, m) = (&self.engine, &self.model);
        let shown = (e.totals(), e.epoch(), e.graph().sorted_edges());
        let model = (totals, m.epoch(), m.graph().sorted_edges());
        assert!(shown == model, "a rejected commit moved");
    }

    /// Fail a follower's next read: `catch_up` surfaces it and leaves the
    /// frontier, and the next `catch_up` converges.
    fn read_fault(&mut self, pick: usize) {
        let Some(i) = pick.checked_rem(self.followers.len()) else {
            return;
        };
        let (r, reads) = (&mut self.followers[i], self.backend.stats().read_faults);
        self.backend.fail_next_read();
        let frontier = r.frontier();
        let surfaced = r.catch_up();
        assert!(
            matches!(surfaced, Err(JournalFailed { .. })),
            "{surfaced:?}"
        );
        assert_eq!(r.frontier(), frontier, "a failed catch-up moved");
        bump(&mut self.stats, "read_surfaced");
        let fired = self.backend.stats().read_faults - reads;
        assert_eq!(fired, 1, "the read fault fired");
        self.catch_up(i);
    }

    fn attach(&mut self) {
        let mut r = Replica::attach(Arc::new(self.backend.clone())).expect("attach");
        let (base, head) = (self.compacted_base, self.model.epoch());
        assert!(r.seed_base() >= base, "a joiner seeds past the base");
        assert_eq!(r.frontier(), head, "a joiner starts at the head");
        for (label, class) in core_roster() {
            register(&mut r, &label, class);
        }
        r.verify_all().expect("a joiner is batch recomputation");
        self.followers.push(r);
    }

    fn catch_up(&mut self, pick: usize) {
        let Some(i) = pick.checked_rem(self.followers.len()) else {
            return;
        };
        let r = &mut self.followers[i];
        let (frontier, reattaches) = (r.frontier(), r.reattaches());
        let advanced = r.catch_up().expect("catch-up");
        for _ in reattaches..r.reattaches() {
            bump(&mut self.stats, "reattach");
        }
        let head = self.model.epoch();
        assert_eq!(
            advanced,
            head - frontier,
            "the epochs the frontier advanced"
        );
        assert_eq!(r.frontier(), head, "caught up to the frontier");
        assert_eq!(r.status().expect("status").lag, 0);
        r.verify_all().expect("a follower is batch recomputation");
    }

    fn pin(&mut self, at: Option<usize>) {
        // A follower's version, held across its later catch-ups,
        // reattaches, crashes and compactions.
        let follower = at.filter(|k| k % 4 == 3).map(|k| k / 4);
        if let Some(i) = follower.and_then(|i| i.checked_rem(self.followers.len())) {
            let r = &self.followers[i];
            let snap = r
                .snapshot_at(r.frontier())
                .expect("a follower's frontier pins");
            self.model.check("new follower pin", &snap, &core_roster());
            self.model.pins.push((snap, core_roster(), None));
            return bump(&mut self.stats, "follower_pin");
        }
        let snap = match at {
            None => self.engine.snapshot().expect("snapshot"),
            Some(k) => {
                let mut held = self.model.held();
                held.push(self.model.epoch());
                held.dedup();
                bump(&mut self.stats, "snapshot_at");
                let at = held[k % held.len()];
                self.engine.snapshot_at(at).expect("a held epoch pins")
            }
        };
        let (publication, roster) = self.model.published[&snap.epoch()].clone();
        self.model.check("new pin", &snap, &roster);
        self.model.pins.push((snap, roster, Some(publication)));
    }

    /// Dropping the last pin of an epoch below the head retires it at once,
    /// with no commit between: the window is the pins and the head.
    fn unpin(&mut self, pick: usize) {
        let m = &mut self.model;
        let Some(i) = pick.checked_rem(m.pins.len()) else {
            return;
        };
        let was_held = m.held();
        let epoch = m.pins.remove(i).0.epoch();
        let (held, head) = (m.held(), m.epoch());
        if was_held.contains(&epoch) && !held.contains(&epoch) && epoch != head {
            let retired = self.engine.snapshot_at(epoch);
            assert!(
                matches!(retired, Err(EpochRetired { .. })),
                "unpinned {epoch} retires"
            );
            bump(&mut self.stats, "unpin_retired");
        }
        let window = self.engine.snapshot_store().window();
        let pinned = held.iter().filter(|&&e| e != head).count();
        assert_eq!(window, pinned + 1, "window at unpin: the pins and the head");
    }

    /// Every surface against the model: the engine, each follower, each pin.
    fn check(&mut self) {
        let (e, m) = (&self.engine, &mut self.model);
        let live: BTreeSet<&str> = e.labels().collect();
        let shadow: BTreeSet<&str> = m.roster.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(live, shadow, "the registry roster is the shadow roster");
        assert_eq!(e.view_count(), m.roster.len());
        for (label, _) in m.roster.iter().filter(|(l, _)| m.is_canary(l)) {
            let state = e.state(e.find(label).expect("a roster label resolves"));
            let quarantined = m.quarantined.contains(label);
            assert_eq!(!state.expect("state").is_active(), quarantined, "{label}");
        }
        // After every change the live views meet batch recomputation and
        // the answers of every surface at this epoch; the published version
        // meets the model after every action.
        if std::mem::replace(&mut self.verified, m.publications) != m.publications {
            let at = m.epoch();
            let edges = (e.graph().sorted_edges(), m.graph().sorted_edges());
            assert!(edges.0 == edges.1, "engine: edges at {at}");
            let audit = e.verify_all();
            audit.unwrap_or_else(|err| panic!("engine at {at}: {err}"));
            for (label, class) in m.roster.clone().into_iter().filter(|l| CORE.contains(&l.1)) {
                let live = e.view_dyn(e.find(&label).expect("a roster label resolves"));
                let what = format!("engine: {label} at {at}");
                m.agree(&what, at, class, live.expect("active"));
            }
        }
        let published = e.snapshot().expect("the head");
        m.check("engine", &published, &m.roster.clone());
        bump(&mut self.stats, "engine_check");

        let store = e.snapshot_store();
        let (head, oldest) = (store.head(), store.oldest());
        assert_eq!(head, m.epoch(), "the store publishes every epoch");
        let future = e.snapshot_at(head + 1);
        assert!(matches!(future, Err(SnapshotUnavailable { .. })));
        let gone = e.snapshot_at(oldest.wrapping_sub(1));
        assert!(oldest == 0 || matches!(gone, Err(EpochRetired { .. })));

        for r in &self.followers {
            let published = r.snapshot().expect("a follower's head");
            m.check("follower", &published, &core_roster());
            bump(&mut self.stats, "follower_check");
        }
        for pin in std::mem::take(&mut m.pins) {
            m.check("pin", &pin.0, &pin.1);
            m.pins.push(pin);
            bump(&mut self.stats, "pin_check");
        }
    }
}

thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });

/// Run one history; `Err` names the first action whose check failed.
fn run(actions: &[Action]) -> Result<Stats, String> {
    // Silence the panics of a history, which `run` reports; every one of
    // them, the canaries' included, happens on its thread.
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                default(info);
            }
        }));
    });
    let at = Cell::new(0);
    QUIET.set(true);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Sim::new();
        sim.check();
        for (i, action) in actions.iter().enumerate() {
            at.set(i);
            sim.step(action);
        }
        let s = sim.backend.stats();
        let faults = [
            ("append_faults", s.append_faults),
            ("sync_faults", s.sync_faults),
            ("read_faults", s.read_faults),
        ];
        for (what, n) in faults.into_iter().filter(|f| f.1 > 0) {
            sim.stats.insert(what.to_owned(), n);
        }
        sim.stats
    }));
    QUIET.set(false);
    outcome.map_err(|payload| {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        let text = text.or(payload.downcast_ref::<&str>().copied());
        let text = text.unwrap_or("?");
        format!("action {} of {}: {text}", at.get(), actions.len())
    })
}

/// Reproduce a printed case.
fn replay(actions: &[Action]) {
    if let Err(failure) = run(actions) {
        panic!("{failure}");
    }
}

/// Delta debugging (Zeller and Hildebrandt) over complements: the result
/// still `fails`, and without any one of its elements it passes.
fn ddmin<T: Clone>(mut case: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut parts = 2;
    while !case.is_empty() {
        let chunk = case.len().div_ceil(parts);
        let smaller = (0..case.len()).step_by(chunk).find_map(|start| {
            let end = (start + chunk).min(case.len());
            let rest: Vec<T> = case[..start].iter().chain(&case[end..]).cloned().collect();
            fails(&rest).then_some(rest)
        });
        match smaller {
            Some(rest) => (case, parts) = (rest, (parts - 1).max(2)),
            None if chunk == 1 => break,
            None => parts = (parts * 2).min(case.len()),
        }
    }
    case
}

/// The unit lists an action carries.
fn lists(action: &mut Action) -> Vec<&mut Vec<U>> {
    match action {
        Commit(units) | Crash(Some((_, units))) | Fault(_, units) => vec![units],
        Ticks(ticks) => ticks.iter_mut().collect(),
        _ => Vec::new(),
    }
}

/// Shrink a failing history: [`ddmin`] over its actions, then over each of
/// their hit and unit lists, then over its actions again.
fn minimise(history: Vec<Action>) -> Vec<Action> {
    let fails = |case: &[Action]| run(case).is_err();
    let mut case = ddmin(history, fails);
    for i in 0..case.len() {
        if let Fault(hits, units) = case[i].clone() {
            let hits = ddmin(hits, |hits| {
                let mut trial = case.clone();
                trial[i] = Fault(hits.to_vec(), units.clone());
                fails(&trial)
            });
            case[i] = Fault(hits, units);
        }
        for j in 0..lists(&mut case[i]).len() {
            let units = lists(&mut case[i])[j].clone();
            let shrunk = ddmin(units, |units| {
                let mut trial = case.clone();
                *lists(&mut trial[i])[j] = units.to_vec();
                fails(&trial)
            });
            *lists(&mut case[i])[j] = shrunk;
        }
    }
    ddmin(case, fails)
}

/// A case as a Rust literal: `Debug` writes each `Vec` as `[..]`.
fn literal(actions: &[Action]) -> String {
    format!("{actions:?}").replace('[', "vec![")
}

/// A case written as a literal, with its source text.
macro_rules! case {
    ($($action:expr),* $(,)?) => {
        (stringify!($($action),*), vec![$($action),*])
    };
}

/// `literal(actions)` prints `text`, up to whitespace and trailing commas.
fn prints_as(actions: &[Action], text: &str) {
    let squeeze = |s: &str| {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        s.replace(",]", "]").replace(",)", ")")
    };
    let (printed, written) = (literal(actions), format!("vec![{text}]"));
    assert_eq!(squeeze(&printed), squeeze(&written));
}

/// Run the histories `seeds` draw from `kinds`, and sum their stats. A
/// failing seed panics with its minimised case.
fn simulate(seeds: Range<u64>, kinds: &[&str]) -> Stats {
    // Two workers, one per core, each running every other seed.
    let (first, end) = (seeds.start, seeds.end);
    let draw = |s| generate_of(s, kinds);
    let runs = |from| (from..end).step_by(2).map(|s| (s, run(&draw(s))));
    let mut runs: Vec<_> = std::thread::scope(|scope| {
        let workers =
            [first, first + 1].map(|from| scope.spawn(move || runs(from).collect::<Vec<_>>()));
        workers.map(|w| w.join().expect("a worker")).concat()
    });
    runs.sort_by_key(|r| r.0);
    let mut total = Stats::new();
    for (seed, outcome) in runs {
        let stats = outcome.unwrap_or_else(|failure| {
            let minimal = minimise(draw(seed));
            let (n, again) = (minimal.len(), run(&minimal).err().unwrap_or_default());
            let case = literal(&minimal);
            panic!("seed {seed} of {kinds:?}: {failure}\n{n} actions ({again}):\n{case}")
        });
        for (what, n) in stats {
            *total.entry(what).or_default() += n;
        }
    }
    total
}

/// [`simulate`] on the `k`th block of seeds, drawing only `kinds`: each
/// kind fired, and each of `events`.
fn focused(k: u64, kinds: &[&str], events: &str) {
    let total = simulate(k * 1000..k * 1000 + FOCUSED, kinds);
    fired(&total, &drawn(kinds));
    fired(&total, events);
}

/// The kinds of `kinds` a history can hold: all but the retired `Retry`.
fn drawn(kinds: &[&str]) -> String {
    let kinds: Vec<&str> = kinds.iter().copied().filter(|k| *k != "Retry").collect();
    kinds.join(" ")
}

/// Every one of `what` fired in `total`.
fn fired(total: &Stats, what: &str) {
    for what in what.split_whitespace() {
        assert!(total.contains_key(what), "no {what}: {total:?}");
    }
}

#[test]
fn simulated_histories_hold_every_surface_to_batch_recomputation() {
    let total = simulate(0..SEEDS, &MIX.map(|m| m.0));
    let actions: u64 = MIX.iter().map(|m| total.get(m.0).unwrap_or(&0)).sum();
    assert!(actions >= 4000, "{actions} actions: {total:?}");
    fired(&total, &drawn(&MIX.map(|m| m.0)));
    fired(&total, EVENTS);
    fired(&total, FAULT_EVENTS);
    // At least the faults the seeded storm this run replaced fired.
    let faults = |what| total.get(what).copied().unwrap_or(0);
    let storm = (faults("append_faults"), faults("sync_faults"));
    assert!(storm.0 >= 38 && storm.1 >= 11, "{total:?}");
    fired(&total, "read_faults");
}

// The seven properties this file held before the simulation, and the seeded
// fault storm of `crates/engine/tests/chaos.rs`, each now the simulation on
// its own seeds, drawing only the kinds the property drove.

#[test]
fn all_views_agree_with_batch_recomputation_after_every_commit() {
    focused(1, &["Commit"], "engine_check");
}

#[test]
fn lifecycle_interleavings_keep_every_surviving_view_consistent() {
    focused(2, &["Commit", "Register", "Deregister"], "quarantine");
}

#[test]
fn crash_replay_recovers_all_five_classes_bit_identically() {
    let kinds = ["Commit", "Ticks", "Checkpoint", "Compact", "Crash"];
    focused(3, &kinds, "compaction_drop torn_tick");
}

#[test]
fn replicas_joining_at_random_epochs_converge_bit_identically() {
    let kinds = ["Commit", "Checkpoint", "Compact", "Attach", "CatchUp"];
    focused(4, &kinds, "follower_check compaction_drop reattach");
}

#[test]
fn coalesced_ticks_match_per_submission_commits_bit_identically() {
    let kinds = ["Commit", "Ticks", "Register"];
    focused(5, &kinds, "quarantine");
}

#[test]
fn crash_mid_tick_recovers_to_a_clean_epoch_boundary() {
    let kinds = ["Commit", "Checkpoint", "Retry", "Crash"];
    focused(6, &kinds, "torn_tick stored_torn_append");
}

#[test]
fn pinned_snapshots_stay_bit_identical_while_commits_and_lifecycle_flow() {
    let kinds = ["Commit", "Register", "Deregister", "Pin", "Unpin"];
    focused(7, &kinds, "pin_check snapshot_at quarantine unpin_retired");
}

#[test]
fn seeded_chaos_storms_lose_no_acked_commit() {
    let storm = ["Commit", "Retry", "Durability", "Fault", "ReadFault"];
    let kinds = [&storm[..], &["Attach", "CatchUp", "Crash"]].concat();
    focused(8, &kinds, FAULT_EVENTS);
}

#[test]
fn ddmin_returns_the_two_actions_a_failure_needs() {
    let (text, pair) = case![
        Crash(Some((99, vec![L(3, 3, 1, 2)]))),
        Ticks(vec![vec![I(0, 1), D(0, 1)], vec![]])
    ];
    let mut history = generate(7);
    history.insert(9, pair[0].clone());
    history.insert(50, pair[1].clone());
    let minimal = ddmin(history, |case| pair.iter().all(|a| case.contains(a)));
    assert_eq!(minimal, pair);
    prints_as(&minimal, text);
    replay(&pair);
}

#[test]
fn ddmin_shrinks_a_storm_to_the_fault_action_a_failure_needs() {
    let (text, fault) = case![Fault(
        vec![Torn(5), NoSync, Torn(40)],
        vec![I(2, 7), D(2, 7)]
    )];
    let mut history = generate(9);
    history.retain(|a| !matches!(a, Fault(..)));
    history.insert(40, fault[0].clone());
    // A synthetic failure: a fault action that arms a failed sync.
    let no_sync = |a: &Action| matches!(a, Fault(hits, _) if hits.contains(&NoSync));
    let minimal = ddmin(history, |case| case.iter().any(no_sync));
    assert_eq!(minimal, fault);
    prints_as(&minimal, text);
    replay(&minimal);
}

/// The minimised cases of five historical bugs, re-introduced one at a
/// time, of three the simulation found, and of a version that outlived
/// its last pin.
#[test]
fn replayed_cases_stay_green() {
    let cases = [
        // `IncKws` seeds a keyword-labelled fresh node at distance 0.
        case![Ticks(vec![vec![L(16, 7, 1, 2)], vec![], vec![]])],
        // An append after a failed one rotates past its torn bytes. (The
        // engine no longer reaches this: every failed append degrades it,
        // and heal's checkpoint rotates. `log.rs` holds it.)
        case![
            Fault(vec![Torn(50), Torn(31)], vec![]),
            Commit(vec![I(3, 11)]),
            Attach
        ],
        // A merge moves condensation edges with their multiplicity.
        case![
            Crash(Some((8, vec![I(0, 6)]))),
            Commit(vec![I(14, 3)]),
            Commit(vec![I(18, 23), I(3, 12), I(12, 18)]),
            Crash(Some((50, vec![I(12, 23), I(19, 18)]))),
            Commit(vec![D(2, 3), I(18, 14)]),
            Commit(vec![L(7, 19, 1, 2)])
        ],
        // A panicking `clone_view` quarantines its view.
        case![Register(PanicInClone), Commit(vec![L(1, 7, 2, 1)])],
        // A retracted fact that derives itself is queued once.
        case![
            Commit(vec![I(5, 12), I(21, 11), I(11, 11)]),
            Commit(vec![I(12, 18), L(18, 21, 1, 2)]),
            Commit(vec![D(18, 21)])
        ],
        // A failed append that stored every byte is appended, once.
        case![Crash(Some((52, vec![I(21, 12)])))],
        // A checkpoint where a follower's next delta was is a compaction gap,
        // and the reattach tells the views of the nodes the window added.
        case![
            Commit(vec![I(4, 2)]),
            Commit(vec![I(8, 5)]),
            Attach,
            Commit(vec![I(15, 18)]),
            Commit(vec![D(15, 18)]),
            Compact,
            CatchUp(27)
        ],
        // The last unpin of an epoch below the head retires it at once.
        case![Pin(None), Commit(vec![I(21, 22)]), Unpin(55)],
    ];
    for (i, (text, case)) in cases.into_iter().enumerate() {
        prints_as(&case, text);
        run(&case).unwrap_or_else(|failure| panic!("case {i}: {failure}"));
    }
}
