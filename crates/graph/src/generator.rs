//! Seeded synthetic graph and workload generators.
//!
//! These stand in for the paper's datasets (Section 6): DBpedia (495 labels,
//! edge/node ratio ≈ 9.4), LiveJournal (100 labels, ratio ≈ 14, heavy-tailed
//! degrees with a giant strongly connected component) and their synthetic
//! generator (alphabet of 100 symbols, |E| = 2|V|). All generators are
//! deterministic given a seed, so experiments are reproducible.

use crate::fxhash::FxHashSet;
use crate::graph::{DynamicGraph, Edge};
use crate::label::Label;
use crate::node::NodeId;
use crate::update::{Update, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Zipfian label sampler: label id `r` (rank) has probability
/// `∝ 1/(r+1)`. Real-graph label frequencies are heavy-tailed — on DBpedia
/// a handful of types (person, place, work, …) cover most nodes — and
/// uniform labels would make every label-anchored query unrealistically
/// selective.
#[derive(Debug, Clone)]
pub struct ZipfLabels {
    cumulative: Vec<f64>,
}

impl ZipfLabels {
    /// A sampler over `alphabet` labels.
    pub fn new(alphabet: usize) -> Self {
        assert!(alphabet >= 1);
        let mut cumulative = Vec::with_capacity(alphabet);
        let mut acc = 0.0;
        for r in 0..alphabet {
            acc += 1.0 / (r as f64 + 1.0);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfLabels { cumulative }
    }

    /// Draw one label.
    pub fn sample(&self, rng: &mut StdRng) -> Label {
        let x: f64 = rng.gen();
        let idx = self
            .cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1);
        Label(idx as u32)
    }

    /// The expected fraction of nodes carrying label `r`.
    pub fn frequency(&self, r: usize) -> f64 {
        let prev = if r == 0 { 0.0 } else { self.cumulative[r - 1] };
        self.cumulative[r] - prev
    }
}

/// A uniform random digraph: `nodes` nodes, `edges` distinct random edges
/// (no self-loops), labels drawn Zipfian from an alphabet of `labels`
/// symbols. The DBpedia stand-in.
pub fn uniform_graph(nodes: usize, edges: usize, labels: usize, seed: u64) -> DynamicGraph {
    assert!(nodes >= 2, "need at least two nodes");
    assert!(labels >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfLabels::new(labels);
    let mut g = DynamicGraph::with_capacity(nodes, edges);
    for _ in 0..nodes {
        let l = zipf.sample(&mut rng);
        g.add_node(l);
    }
    let max_edges = nodes * (nodes - 1);
    let target = edges.min(max_edges);
    while g.edge_count() < target {
        let u = NodeId(rng.gen_range(0..nodes as u32));
        let v = NodeId(rng.gen_range(0..nodes as u32));
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

/// A preferential-attachment digraph with heavy-tailed degrees and a giant
/// strongly connected component — the LiveJournal stand-in.
///
/// Each new node attaches `out_per_node` edges to endpoints chosen
/// preferentially by current degree; each edge's direction is random, which
/// creates the cycles needed for large sccs.
pub fn preferential_graph(
    nodes: usize,
    out_per_node: usize,
    labels: usize,
    seed: u64,
) -> DynamicGraph {
    assert!(nodes >= 2);
    assert!(labels >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfLabels::new(labels);
    let mut g = DynamicGraph::with_capacity(nodes, nodes * out_per_node);
    // Repeated-endpoints list: each node appears once per incident edge, so
    // sampling uniformly from it is degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * nodes * out_per_node);
    let first = g.add_node(zipf.sample(&mut rng));
    endpoints.push(first);
    for _ in 1..nodes {
        let v = g.add_node(zipf.sample(&mut rng));
        for _ in 0..out_per_node {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t == v {
                continue;
            }
            let (a, b) = if rng.gen_bool(0.5) { (v, t) } else { (t, v) };
            if g.insert_edge(a, b) {
                endpoints.push(a);
                endpoints.push(b);
            }
        }
        endpoints.push(v);
    }
    g
}

/// Preset scales mirroring the paper's three datasets (seeded stand-ins;
/// see README, "Workspace layout").
/// `scale = 1.0` is the laptop-sized "full" dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Uniform random graph, 495 labels, edge/node ratio ≈ 9.4 (DBpedia-like).
    DbpediaLike,
    /// Preferential-attachment graph, 100 labels, ratio ≈ 14 (LiveJournal-like).
    LivejournalLike,
    /// Uniform random graph, 100 labels, |E| = 2|V| (the paper's generator).
    Synthetic,
}

impl Dataset {
    /// Generate the dataset at the given scale (1.0 = full laptop size).
    pub fn generate(self, scale: f64, seed: u64) -> DynamicGraph {
        let s = |base: usize| ((base as f64 * scale).round() as usize).max(16);
        match self {
            Dataset::DbpediaLike => uniform_graph(s(30_000), s(280_000), 495, seed),
            Dataset::LivejournalLike => preferential_graph(s(30_000), 14, 100, seed),
            Dataset::Synthetic => uniform_graph(s(50_000), s(100_000), 100, seed),
        }
    }

    /// The label alphabet size of this dataset.
    pub fn alphabet(self) -> usize {
        match self {
            Dataset::DbpediaLike => 495,
            Dataset::LivejournalLike | Dataset::Synthetic => 100,
        }
    }
}

/// A random batch update of `count` unit updates against `g`, with insertion
/// fraction `rho_insert` (the paper's ρ = insertions : deletions is 1, i.e.
/// `rho_insert = 0.5`, unless stated otherwise).
///
/// Deletions sample distinct existing edges; insertions sample distinct
/// absent edges between existing nodes (labels unchanged, matching the
/// paper's "size of the data graphs remains stable" setup). The batch is
/// normalized by construction: no edge appears twice.
pub fn random_update_batch(
    g: &DynamicGraph,
    count: usize,
    rho_insert: f64,
    seed: u64,
) -> UpdateBatch {
    assert!((0.0..=1.0).contains(&rho_insert));
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    assert!(n >= 2);
    let existing: Vec<Edge> = g.sorted_edges();
    let n_ins = (count as f64 * rho_insert).round() as usize;
    let n_del = (count - n_ins).min(existing.len());

    let mut chosen_del: FxHashSet<usize> = FxHashSet::default();
    let mut updates = Vec::with_capacity(count);
    let mut deleted: FxHashSet<Edge> = FxHashSet::default();
    while chosen_del.len() < n_del {
        let i = rng.gen_range(0..existing.len());
        if chosen_del.insert(i) {
            let (u, v) = existing[i];
            deleted.insert((u, v));
            updates.push(Update::delete(u, v));
        }
    }

    let mut inserted: FxHashSet<Edge> = FxHashSet::default();
    let mut attempts = 0usize;
    while inserted.len() < n_ins && attempts < n_ins * 100 + 1000 {
        attempts += 1;
        let u = NodeId(rng.gen_range(0..n));
        let v = NodeId(rng.gen_range(0..n));
        if u == v || g.contains_edge(u, v) || deleted.contains(&(u, v)) {
            continue;
        }
        if inserted.insert((u, v)) {
            updates.push(Update::insert(u, v));
        }
    }
    UpdateBatch::from_updates(updates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_graph_hits_requested_size() {
        let g = uniform_graph(100, 400, 10, 1);
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.edge_count(), 400);
    }

    #[test]
    fn uniform_graph_is_deterministic() {
        let a = uniform_graph(50, 120, 5, 7);
        let b = uniform_graph(50, 120, 5, 7);
        assert_eq!(a.sorted_edges(), b.sorted_edges());
        let c = uniform_graph(50, 120, 5, 8);
        assert_ne!(a.sorted_edges(), c.sorted_edges());
    }

    #[test]
    fn uniform_graph_labels_in_alphabet() {
        let g = uniform_graph(200, 300, 7, 3);
        for v in g.nodes() {
            assert!(g.label(v).0 < 7);
        }
    }

    #[test]
    fn labels_are_zipf_distributed() {
        let g = uniform_graph(5000, 5001, 50, 4);
        let count0 = g.nodes_with_label(Label(0)).len() as f64;
        let count9 = g.nodes_with_label(Label(9)).len() as f64;
        // rank 0 is ~10× more frequent than rank 9 (1/1 vs 1/10).
        assert!(
            count0 > 4.0 * count9,
            "rank 0: {count0}, rank 9: {count9} — expected heavy head"
        );
    }

    #[test]
    fn zipf_frequencies_sum_to_one() {
        let z = ZipfLabels::new(20);
        let total: f64 = (0..20).map(|r| z.frequency(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.frequency(0) > z.frequency(1));
    }

    #[test]
    fn preferential_graph_has_heavy_tail() {
        let g = preferential_graph(2000, 4, 10, 11);
        let max_deg = g
            .nodes()
            .map(|v| g.out_degree(v) + g.in_degree(v))
            .max()
            .unwrap();
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max_deg as f64 > 4.0 * avg,
            "expected hub nodes: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn dataset_presets_scale() {
        let small = Dataset::Synthetic.generate(0.01, 5);
        let larger = Dataset::Synthetic.generate(0.02, 5);
        assert!(larger.node_count() > small.node_count());
        assert_eq!(Dataset::DbpediaLike.alphabet(), 495);
    }

    #[test]
    fn update_batch_respects_rho_and_normalization() {
        let g = uniform_graph(100, 500, 5, 2);
        let b = random_update_batch(&g, 100, 0.5, 3);
        let ins = b.insertions().count();
        let del = b.deletions().count();
        assert_eq!(ins + del, b.len());
        assert_eq!(ins, 50);
        assert_eq!(del, 50);
        // normalized() is a no-op on generator output
        assert_eq!(b.normalized(), b);
        // deletions reference existing edges; insertions absent ones
        for u in b.iter() {
            let (x, y) = u.edge();
            if u.is_insert() {
                assert!(!g.contains_edge(x, y));
            } else {
                assert!(g.contains_edge(x, y));
            }
        }
    }

    #[test]
    fn update_batch_pure_deletions() {
        let g = uniform_graph(50, 200, 5, 2);
        let b = random_update_batch(&g, 30, 0.0, 4);
        assert_eq!(b.deletions().count(), 30);
        assert_eq!(b.insertions().count(), 0);
    }

    #[test]
    fn update_batch_applies_cleanly() {
        let mut g = uniform_graph(80, 300, 5, 2);
        let before = g.edge_count();
        let b = random_update_batch(&g, 40, 0.5, 9);
        g.apply_batch(&b);
        // ρ = 0.5 keeps |E| stable
        assert_eq!(g.edge_count(), before);
    }
}
