//! Deterministic inputs: everything the engine is fed — base graph, queries,
//! the whole update stream, lookup keys — is a pure function of `--seed`,
//! generated before any timing starts. The engine sees only these inputs.
//!
//! The generator also keeps the *model*: a plain edge set folded over the
//! raw (un-normalized) units in submission order. That fold is the spec the
//! audits compare the engine's graph against; it shares no code with
//! `UpdateBatch::normalize_against`.

use igc_graph::{DynamicGraph, Edge, FxHashSet, Label, NodeId, Update, UpdateBatch};
use igc_iso::Pattern;
use igc_kws::KwsQuery;
use igc_nfa::Regex;
use igc_rules::{v, Atom, PredId, Program, RuleSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The four workloads. Later issues refer to them by these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyViews,
    ChurnStorm,
    PinnedServing,
    DurableRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyViews,
        Workload::ChurnStorm,
        Workload::PinnedServing,
        Workload::DurableRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyViews => "steady_views",
            Workload::ChurnStorm => "churn_storm",
            Workload::PinnedServing => "pinned_serving",
            Workload::DurableRecover => "durable_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Units submitted per commit on `steady_views` / `pinned_serving`.
pub const STEADY_UNITS: usize = 256;
/// Units submitted per commit on `churn_storm`.
pub const STORM_UNITS: usize = 2048;
/// Submissions per closed-loop wave on `durable_recover`.
pub const WAVE_SUBMISSIONS: usize = 32;
/// Units per submission on `durable_recover`.
pub const SUBMISSION_UNITS: usize = 4;

/// Everything that fixes the amount of work in one round. Two instances
/// exist: [`Sizes::FULL`] (what `BENCHMARK.json` runs) and [`Sizes::SMOKE`]
/// (the crate's own tests). A duration argument scales the number of
/// rounds, never these.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of the preferential-attachment base graph.
    pub nodes: usize,
    /// Attachment edges per new node.
    pub out_per_node: usize,
    /// Zipf label alphabet.
    pub labels: u32,
    /// Cohorts alive in the sliding window (already in the base graph).
    pub window: usize,
    /// Timed 256-unit commits per round (`steady_views`, `pinned_serving`).
    pub steady_commits: usize,
    /// Timed 2048-unit commits per round (`churn_storm`).
    pub storm_commits: usize,
    /// Timed waves per round (`durable_recover`).
    pub waves: usize,
    /// Read transactions per round.
    pub reads: usize,
    /// Edges the storm may delete and re-insert.
    pub storm_pool: usize,
    /// Samples a pooled p99 must have beyond it (so n ≥ 100 × this). The
    /// smoke size sets 0: it exercises code paths, not statistics.
    pub tail_beyond: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        nodes: 6_000,
        out_per_node: 8,
        labels: 100,
        window: 48,
        steady_commits: 64,
        storm_commits: 60,
        waves: 40,
        reads: 200,
        storm_pool: 12_000,
        tail_beyond: 10,
    };

    pub const SMOKE: Sizes = Sizes {
        nodes: 1_500,
        out_per_node: 4,
        labels: 24,
        window: 6,
        steady_commits: 6,
        storm_commits: 3,
        waves: 3,
        reads: 8,
        storm_pool: 4_500,
        tail_beyond: 0,
    };

    /// Timed commits (or waves) per round on `w`.
    pub fn commits_per_round(&self, w: Workload) -> usize {
        match w {
            Workload::SteadyViews | Workload::PinnedServing => self.steady_commits,
            Workload::ChurnStorm => self.storm_commits,
            Workload::DurableRecover => self.waves,
        }
    }
}

/// The five standing queries, one per view class.
#[derive(Clone, Debug)]
pub struct Queries {
    pub rpq: Regex,
    pub kws: KwsQuery,
    pub iso: Pattern,
    pub rules: Program,
    /// `exec_code/1` of the rules program — the predicate reads look up.
    pub rules_pred: PredId,
}

/// The labels the RPQ `anchor·(a+b)*·target` can read, in that order. An
/// edge matters to the RPQ only if both its endpoints carry one of them.
const RPQ_ALPHABET: [Label; 4] = [Label(12), Label(0), Label(1), Label(2)];

/// Node roles of the rules program, as labels of the Zipf alphabet.
const ENTRY: Label = Label(3);
const VULN: Label = Label(1);
const CRITICAL: Label = Label(5);

/// The base graph is a fixed dataset: its seed is a constant, and `--seed`
/// drives the window and the update stream. Per-class cost depends on
/// which hubs carry which labels, so a graph re-drawn per seed would make
/// runs with different seeds measure different systems.
pub const DATASET_SEED: u64 = 20_170_514;

impl Queries {
    /// The fixed queries: an anchored RPQ `l12·(l0+l1)*·l2`, a
    /// three-keyword KWS with bound 2, a three-node ISO path motif, and an
    /// anchored reachability program (entry points spread through
    /// vulnerable hosts to critical ones).
    pub fn fixed() -> Queries {
        let sym = |l: Label| Regex::symbol(l);
        let [anchor, star_a, star_b, target] = RPQ_ALPHABET;
        let rpq = sym(anchor)
            .then(sym(star_a).or(sym(star_b)).star())
            .then(sym(target));
        let kws = KwsQuery::new(vec![Label(0), Label(1), Label(2)], 2);
        let iso = Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]);

        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec_code", 1).expect("fresh predicate");
        let goal = rs.predicate("goal_reached", 1).expect("fresh predicate");
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ENTRY)])
            .expect("valid rule");
        for target in [VULN, CRITICAL] {
            rs.rule(
                exec,
                &[v(1)],
                vec![
                    Atom::pred(exec, &[v(0)]),
                    Atom::edge(v(0), v(1)),
                    Atom::has_label(v(1), target),
                ],
            )
            .expect("valid rule");
        }
        rs.rule(
            goal,
            &[v(0)],
            vec![Atom::pred(exec, &[v(0)]), Atom::has_label(v(0), CRITICAL)],
        )
        .expect("valid rule");
        let rules = rs.compile().expect("stratifiable program");
        Queries {
            rpq,
            kws,
            iso,
            rules,
            rules_pred: exec,
        }
    }
}

/// 64-bit finalizer (splitmix64's) — the mixing step of every hash here.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn edge_hash((u, w): Edge) -> u64 {
    mix64(((u.0 as u64) << 32 | w.0 as u64) ^ 0x9e37_79b9_7f4a_7c15)
}

/// Order-independent hash of an edge set: the wrapping sum of the edges'
/// hashes, so the model updates it in O(1) per unit and the audit
/// recomputes it from the engine's graph in one pass.
pub fn graph_hash(g: &DynamicGraph) -> u64 {
    g.edges().fold(0u64, |h, e| h.wrapping_add(edge_hash(e)))
}

/// The spec the engine's graph is audited against: an edge set folded over
/// raw units in order (insert adds, delete removes; no normalization).
#[derive(Clone, Debug, Default)]
struct Model {
    edges: FxHashSet<Edge>,
    hash: u64,
}

impl Model {
    fn from_graph(g: &DynamicGraph) -> Model {
        Model {
            edges: g.edges().collect(),
            hash: graph_hash(g),
        }
    }

    fn contains(&self, e: Edge) -> bool {
        self.edges.contains(&e)
    }

    fn apply(&mut self, u: &Update) {
        let e = u.edge();
        if u.is_insert() {
            if self.edges.insert(e) {
                self.hash = self.hash.wrapping_add(edge_hash(e));
            }
        } else if self.edges.remove(&e) {
            self.hash = self.hash.wrapping_sub(edge_hash(e));
        }
    }

    fn fold(&mut self, batch: &[Update]) {
        for u in batch {
            self.apply(u);
        }
    }
}

/// What the model looks like after a round's last commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelMark {
    pub hash: u64,
    pub edges: usize,
}

/// One round's timed commits (each a raw, un-normalized batch; on
/// `durable_recover` each is a wave the runner cuts into submissions) and
/// the model state they must leave behind.
#[derive(Clone, Debug)]
pub struct RoundInput {
    pub commits: Vec<UpdateBatch>,
    pub after: ModelMark,
}

/// Everything one run feeds the engine.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub base: DynamicGraph,
    pub queries: Queries,
    pub warmup: Vec<UpdateBatch>,
    pub after_warmup: ModelMark,
    pub rounds: Vec<RoundInput>,
    /// Hash of the base graph and every unit of the stream, in order.
    pub stream_hash: u64,
    /// Units in the timed stream (warm-up excluded).
    pub stream_units: usize,
}

/// Zipf sampler over `n` labels (rank `r` has weight `1 / (r + 1)`).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: u32) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> Label {
        let x: f64 = rng.gen();
        let r = self.cumulative.partition_point(|&c| c < x);
        Label(r.min(self.cumulative.len() - 1) as u32)
    }
}

/// Preferential-attachment digraph: heavy-tailed degrees, random edge
/// directions (hence a giant SCC), Zipf node labels.
fn preferential_graph(sizes: &Sizes, rng: &mut StdRng) -> DynamicGraph {
    let zipf = Zipf::new(sizes.labels);
    let mut g = DynamicGraph::with_capacity(sizes.nodes, sizes.nodes * sizes.out_per_node);
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * sizes.nodes * sizes.out_per_node);
    let first = g.add_node(zipf.sample(rng));
    endpoints.push(first);
    for _ in 1..sizes.nodes {
        let node = g.add_node(zipf.sample(rng));
        for _ in 0..sizes.out_per_node {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t == node {
                continue;
            }
            let (a, b) = if rng.gen_bool(0.5) {
                (node, t)
            } else {
                (t, node)
            };
            if g.insert_edge(a, b) {
                endpoints.push(a);
                endpoints.push(b);
            }
        }
        endpoints.push(node);
    }
    g
}

/// The sliding-window stream: every commit retracts the oldest edges of
/// the window and inserts as many fresh ones, plus ~10 % units that
/// normalization must drop (duplicates, deletes of absent edges, inserts
/// of present ones, insert/delete pairs).
struct Window {
    nodes: u32,
    /// Degree-proportional endpoint pool (the base graph's edge endpoints).
    hubs: Vec<NodeId>,
    /// The preferential-attachment edges; the window never deletes them.
    backbone: Vec<Edge>,
    /// Window edges, oldest first.
    live: VecDeque<Edge>,
    /// How many edges the window holds between batches.
    target: usize,
}

impl Window {
    /// A fresh edge absent from `model`: uniform source, target uniform or
    /// degree-proportional with equal odds.
    fn fresh_edge(&self, model: &Model, rng: &mut StdRng) -> Edge {
        loop {
            let u = NodeId(rng.gen_range(0..self.nodes));
            let w = if rng.gen_bool(0.5) {
                NodeId(rng.gen_range(0..self.nodes))
            } else {
                self.hubs[rng.gen_range(0..self.hubs.len())]
            };
            if u != w && !model.contains((u, w)) {
                return (u, w);
            }
        }
    }

    /// Fill the window to its target, straight into the base graph.
    fn fill(&mut self, g: &mut DynamicGraph, model: &mut Model, rng: &mut StdRng) {
        while self.live.len() < self.target {
            let e = self.fresh_edge(model, rng);
            model.apply(&Update::insert(e.0, e.1));
            g.insert_edge(e.0, e.1);
            self.live.push_back(e);
        }
    }

    /// The next raw batch of `units` units, folded into `model`.
    fn next_batch(&mut self, model: &mut Model, units: usize, rng: &mut StdRng) -> UpdateBatch {
        let cohort = (units - units / 10) / 2;
        let mut batch: Vec<Update> = Vec::with_capacity(units);
        // Retract a cohort, plus whatever earlier insert/delete pairs left
        // behind when they netted to an insert: the window (and |G|, and
        // every answer size with it) must not creep upwards over a run.
        for _ in 0..cohort + self.live.len().saturating_sub(self.target) {
            let (u, w) = self.live.pop_front().expect("window outlives a cohort");
            batch.push(Update::delete(u, w));
        }
        // Fresh edges this batch inserts (cohort and pairs alike).
        let mut staged: Vec<Edge> = Vec::with_capacity(cohort + units / 10);
        let mut staged_set: FxHashSet<Edge> = FxHashSet::default();
        while staged.len() < cohort {
            let e = self.fresh_edge(model, rng);
            if staged_set.insert(e) {
                staged.push(e);
                batch.push(Update::insert(e.0, e.1));
            }
        }
        while batch.len() < units {
            let u = match rng.gen_range(0..4u32) {
                // duplicate of one of this batch's own inserts
                0 => {
                    let (a, b) = staged[rng.gen_range(0..cohort)];
                    Update::insert(a, b)
                }
                // delete of an edge that is not there
                1 => {
                    let (a, b) = self.fresh_edge(model, rng);
                    if staged_set.contains(&(a, b)) {
                        continue;
                    }
                    Update::delete(a, b)
                }
                // insert of an edge that is already there (and stays)
                2 => {
                    let (a, b) = self.backbone[rng.gen_range(0..self.backbone.len())];
                    Update::insert(a, b)
                }
                // insert + delete of one fresh edge: cancels when the
                // shuffle keeps that order, nets to an insert otherwise
                _ => {
                    let (a, b) = self.fresh_edge(model, rng);
                    if batch.len() + 2 > units || !staged_set.insert((a, b)) {
                        continue;
                    }
                    staged.push((a, b));
                    batch.push(Update::insert(a, b));
                    Update::delete(a, b)
                }
            };
            batch.push(u);
        }
        // Fisher–Yates: the engine must honour submission order, so the
        // order is part of the input.
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.gen_range(0..=i));
        }
        model.fold(&batch);
        // What this batch net-inserted joins the window, to be retracted
        // in its turn.
        self.live
            .extend(staged.into_iter().filter(|&e| model.contains(e)));
        UpdateBatch::from_updates(batch)
    }
}

/// The deletion storm: 2048-unit commits in cycles of three — two
/// *fracture* commits (70 % deletes) and one *re-fuse* commit (90 %
/// inserts) that puts back what the cycle removed, so |G| stays level
/// (a cycle deletes 3012 edges and inserts 3012; 40 units a commit are
/// noise).
/// Deletes aim at a pool of structurally important edges: fans of the
/// highest-degree hubs, edges out of rule entry points, and a backbone
/// sample of everything else.
struct Storm {
    live: Vec<Edge>,
    removed: VecDeque<Edge>,
}

impl Storm {
    fn new(g: &DynamicGraph, pool: usize, rng: &mut StdRng) -> Storm {
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_by_key(|&n| (std::cmp::Reverse(g.out_degree(n) + g.in_degree(n)), n));
        let mut chosen: FxHashSet<Edge> = FxHashSet::default();
        let mut live: Vec<Edge> = Vec::with_capacity(pool);
        // The storm spares edges the RPQ can traverse: it is the workload
        // on which `IncRpq` must *not* dominate, so that an RPQ-only change
        // predicts no movement here.
        let rpq_reads = |n: NodeId| RPQ_ALPHABET.contains(&g.label(n));
        let mut take = |e: Edge, live: &mut Vec<Edge>| {
            if live.len() < pool && !(rpq_reads(e.0) && rpq_reads(e.1)) && chosen.insert(e) {
                live.push(e);
            }
        };
        // A third: hub fans.
        for &hub in &by_degree {
            if live.len() >= pool / 3 {
                break;
            }
            for &w in g.successors(hub) {
                take((hub, w), &mut live);
            }
            for &u in g.predecessors(hub) {
                take((u, hub), &mut live);
            }
        }
        // A third: rule premises (edges leaving entry points).
        let entries: Vec<NodeId> = g.nodes_with_label(ENTRY).to_vec();
        'premises: for &e in &entries {
            for &w in g.successors(e) {
                if live.len() >= 2 * pool / 3 {
                    break 'premises;
                }
                take((e, w), &mut live);
            }
        }
        // The rest: a seeded sample of all edges (the backbone).
        let all = g.sorted_edges();
        for _ in 0..all.len() * 4 {
            take(all[rng.gen_range(0..all.len())], &mut live);
        }
        assert!(
            live.len() >= 4_000,
            "storm pool too small for a cycle: {}",
            live.len()
        );
        Storm {
            live,
            removed: VecDeque::new(),
        }
    }

    fn next_batch(&mut self, index: usize, model: &mut Model, rng: &mut StdRng) -> UpdateBatch {
        let refuse = index % 3 == 2;
        let (deletes, inserts) = if refuse { (184, 1824) } else { (1414, 594) };
        let mut batch: Vec<Update> = Vec::with_capacity(STORM_UNITS);
        let mut deleted: Vec<Edge> = Vec::with_capacity(deletes);
        for _ in 0..deletes.min(self.live.len()) {
            let e = self.live.swap_remove(rng.gen_range(0..self.live.len()));
            deleted.push(e);
            batch.push(Update::delete(e.0, e.1));
        }
        let mut inserted: Vec<Edge> = Vec::with_capacity(inserts);
        for _ in 0..inserts {
            // Oldest removed edge first; while the removed queue is still
            // short (the first cycle) the commit simply carries fewer
            // inserts and more noise.
            let Some(e) = self.removed.pop_front() else {
                break;
            };
            inserted.push(e);
            batch.push(Update::insert(e.0, e.1));
        }
        while batch.len() < STORM_UNITS {
            // Noise normalization must drop: repeats of this batch's own
            // units, and deletes of edges already gone.
            let u = match rng.gen_range(0..3u32) {
                0 if !deleted.is_empty() => {
                    let (a, b) = deleted[rng.gen_range(0..deleted.len())];
                    Update::delete(a, b)
                }
                1 if !inserted.is_empty() => {
                    let (a, b) = inserted[rng.gen_range(0..inserted.len())];
                    Update::insert(a, b)
                }
                _ if !self.removed.is_empty() => {
                    let (a, b) = self.removed[rng.gen_range(0..self.removed.len())];
                    Update::delete(a, b)
                }
                _ => {
                    let (a, b) = self.live[rng.gen_range(0..self.live.len())];
                    Update::insert(a, b)
                }
            };
            batch.push(u);
        }
        self.removed.extend(deleted);
        self.live.extend(inserted);
        model.fold(&batch);
        UpdateBatch::from_updates(batch)
    }
}

fn mark(model: &Model) -> ModelMark {
    ModelMark {
        hash: model.hash,
        edges: model.edges.len(),
    }
}

/// FNV-style running hash over the stream, unit by unit.
struct StreamHash(u64);

impl StreamHash {
    fn feed(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn batch(&mut self, b: &UpdateBatch) {
        self.feed(b.len() as u64);
        for u in b.iter() {
            let (a, c) = u.edge();
            self.feed((u.is_insert() as u64) << 63 | (a.0 as u64) << 32 | c.0 as u64);
        }
    }
}

/// Generate one run's inputs. Same `(workload, seed, sizes, rounds)` ⇒
/// identical `Inputs`, bit for bit.
pub fn generate(workload: Workload, seed: u64, sizes: &Sizes, rounds: usize) -> Inputs {
    let mut dataset_rng = StdRng::seed_from_u64(DATASET_SEED);
    let mut base = preferential_graph(sizes, &mut dataset_rng);
    // The storm's pool is part of the dataset too (chosen before the
    // seeded window exists): the seed decides the order edges fall in, not
    // which edges are at stake.
    let mut storm = match workload {
        Workload::ChurnStorm => Some(Storm::new(&base, sizes.storm_pool, &mut dataset_rng)),
        _ => None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = base.sorted_edges();
    let mut model = Model::from_graph(&base);
    // The window is seeded the same whatever the workload: `pinned_serving`
    // must see `steady_views`' exact stream, and the other two the same
    // base graph.
    let steady_cohort = (STEADY_UNITS - STEADY_UNITS / 10) / 2;
    let mut window = Window {
        nodes: sizes.nodes as u32,
        hubs: backbone.iter().flat_map(|&(a, b)| [a, b]).collect(),
        backbone,
        live: VecDeque::new(),
        target: sizes.window * steady_cohort,
    };
    window.fill(&mut base, &mut model, &mut rng);

    let mut hash = StreamHash(seed);
    hash.feed(base.node_count() as u64);
    hash.feed(graph_hash(&base));
    for n in base.nodes() {
        hash.feed(base.label(n).0 as u64);
    }

    let units = match workload {
        Workload::DurableRecover => WAVE_SUBMISSIONS * SUBMISSION_UNITS,
        _ => STEADY_UNITS,
    };
    let mut index = 0usize;
    let mut next = |model: &mut Model, rng: &mut StdRng| -> UpdateBatch {
        let b = match &mut storm {
            Some(s) => s.next_batch(index, model, rng),
            None => window.next_batch(model, units, rng),
        };
        index += 1;
        b
    };

    let per_round = sizes.commits_per_round(workload);
    // A quarter round of untimed commits (whole storm cycles on
    // `churn_storm`) fills caches and scratch buffers before round 1.
    let warmup: Vec<UpdateBatch> = (0..(per_round / 4).max(3))
        .map(|_| next(&mut model, &mut rng))
        .collect();
    let after_warmup = mark(&model);
    let mut stream_units = 0usize;
    let rounds: Vec<RoundInput> = (0..rounds)
        .map(|_| {
            let commits: Vec<UpdateBatch> =
                (0..per_round).map(|_| next(&mut model, &mut rng)).collect();
            stream_units += commits.iter().map(UpdateBatch::len).sum::<usize>();
            RoundInput {
                commits,
                after: mark(&model),
            }
        })
        .collect();
    for b in warmup
        .iter()
        .chain(rounds.iter().flat_map(|r| r.commits.iter()))
    {
        hash.batch(b);
    }
    Inputs {
        base,
        queries: Queries::fixed(),
        warmup,
        after_warmup,
        rounds,
        stream_hash: hash.0,
        stream_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_hash() {
        for w in Workload::ALL {
            let a = generate(w, 7, &Sizes::SMOKE, 3);
            let b = generate(w, 7, &Sizes::SMOKE, 3);
            let c = generate(w, 8, &Sizes::SMOKE, 3);
            assert_eq!(a.stream_hash, b.stream_hash, "{}", w.name());
            assert_eq!(a.stream_units, b.stream_units);
            assert_eq!(
                a.rounds.last().unwrap().after,
                b.rounds.last().unwrap().after
            );
            assert_ne!(a.stream_hash, c.stream_hash, "{}", w.name());
        }
    }

    #[test]
    fn pinned_serving_replays_steady_views_stream() {
        let a = generate(Workload::SteadyViews, 11, &Sizes::SMOKE, 2);
        let b = generate(Workload::PinnedServing, 11, &Sizes::SMOKE, 2);
        assert_eq!(a.stream_hash, b.stream_hash);
    }

    #[test]
    fn model_matches_sequential_application_and_stays_level() {
        for w in Workload::ALL {
            let inputs = generate(w, 3, &Sizes::SMOKE, 4);
            let mut g = inputs.base.clone();
            let start = g.edge_count();
            for b in inputs.warmup.iter() {
                g.apply_batch(&b.normalize_against(&g));
            }
            assert_eq!(graph_hash(&g), inputs.after_warmup.hash);
            for r in &inputs.rounds {
                for b in &r.commits {
                    assert_eq!(
                        b.len(),
                        match w {
                            Workload::ChurnStorm => STORM_UNITS,
                            Workload::DurableRecover => WAVE_SUBMISSIONS * SUBMISSION_UNITS,
                            _ => STEADY_UNITS,
                        }
                    );
                    g.apply_batch(&b.normalize_against(&g));
                }
                assert_eq!(graph_hash(&g), r.after.hash, "{}", w.name());
                assert_eq!(g.edge_count(), r.after.edges);
            }
            let end = g.edge_count() as f64;
            assert!(
                (end / start as f64 - 1.0).abs() < 0.25,
                "{}: {start} -> {end}",
                w.name()
            );
        }
    }

    #[test]
    fn stream_carries_noops_for_normalization_to_drop() {
        let inputs = generate(Workload::SteadyViews, 5, &Sizes::SMOKE, 2);
        let mut g = inputs.base.clone();
        for b in &inputs.warmup {
            g.apply_batch(&b.normalize_against(&g));
        }
        let (mut submitted, mut applied) = (0usize, 0usize);
        for b in inputs.rounds.iter().flat_map(|r| r.commits.iter()) {
            let d = b.normalize_against(&g);
            submitted += b.len();
            applied += d.len();
            g.apply_batch(&d);
        }
        let dropped = 1.0 - applied as f64 / submitted as f64;
        assert!((0.04..0.20).contains(&dropped), "dropped share {dropped}");
    }
}
