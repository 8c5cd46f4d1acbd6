//! The five views as the benchmark holds them: typed handles into an engine,
//! borrowed views for lookups (live, pinned or shadow), seeded lookup keys,
//! and the stand-alone shadow layers of the traced run.

use crate::gen::{mix64, Queries};
use igc_core::{ChangeMetrics, IncView};
use igc_engine::{Engine, EngineError, Snapshot, ViewHandle};
use igc_graph::{DynamicGraph, NodeId};
use igc_iso::{IncIso, MatchKey};
use igc_kws::IncKws;
use igc_rpq::IncRpq;
use igc_rules::{IncRules, PredId};
use igc_scc::IncScc;
use rand::rngs::StdRng;
use rand::Rng;

/// View classes in registration (slot) order.
pub const CLASSES: [&str; 5] = ["rpq", "scc", "kws", "iso", "rules"];

/// Typed handles of the five views of one engine.
#[derive(Clone, Copy, Debug)]
pub struct Handles {
    pub rpq: ViewHandle<IncRpq>,
    pub scc: ViewHandle<IncScc>,
    pub kws: ViewHandle<IncKws>,
    pub iso: ViewHandle<IncIso>,
    pub rules: ViewHandle<IncRules>,
}

impl Handles {
    /// Register all five views lazily (each builds its initial state from
    /// the engine's current graph). `each` sees every class's build time.
    pub fn register(
        engine: &mut Engine,
        q: &Queries,
        mut each: impl FnMut(&'static str, std::time::Duration),
    ) -> Result<Handles, EngineError> {
        let mut timed = |class: &'static str, t: std::time::Instant| each(class, t.elapsed());
        let t = std::time::Instant::now();
        let rpq = engine.register_lazy("rpq", IncRpq::init(q.rpq.clone()))?;
        timed("rpq", t);
        let t = std::time::Instant::now();
        let scc = engine.register_lazy("scc", IncScc::init())?;
        timed("scc", t);
        let t = std::time::Instant::now();
        let kws = engine.register_lazy("kws", IncKws::init(q.kws.clone()))?;
        timed("kws", t);
        let t = std::time::Instant::now();
        let iso = engine.register_lazy("iso", IncIso::init(q.iso.clone()))?;
        timed("iso", t);
        let t = std::time::Instant::now();
        let rules = engine.register_lazy("rules", IncRules::init(q.rules.clone()))?;
        timed("rules", t);
        Ok(Handles {
            rpq,
            scc,
            kws,
            iso,
            rules,
        })
    }

    /// The live views of `engine`.
    pub fn live<'a>(&self, engine: &'a Engine) -> Result<ViewRefs<'a>, EngineError> {
        Ok(ViewRefs {
            rpq: engine.view(&self.rpq)?,
            scc: engine.view(&self.scc)?,
            kws: engine.view(&self.kws)?,
            iso: engine.view(&self.iso)?,
            rules: engine.view(&self.rules)?,
        })
    }

    /// The frozen views of a pinned snapshot — the "resolve the five typed
    /// handles" step of a read transaction.
    pub fn pinned<'a>(&self, snap: &'a Snapshot) -> Result<ViewRefs<'a>, EngineError> {
        Ok(ViewRefs {
            rpq: snap.view(&self.rpq)?,
            scc: snap.view(&self.scc)?,
            kws: snap.view(&self.kws)?,
            iso: snap.view(&self.iso)?,
            rules: snap.view(&self.rules)?,
        })
    }

    /// Untyped ids in [`CLASSES`] order.
    pub fn ids(&self) -> [igc_engine::ViewId; 5] {
        [
            self.rpq.id(),
            self.scc.id(),
            self.kws.id(),
            self.iso.id(),
            self.rules.id(),
        ]
    }
}

/// Five borrowed views, wherever they live.
#[derive(Clone, Copy)]
pub struct ViewRefs<'a> {
    pub rpq: &'a IncRpq,
    pub scc: &'a IncScc,
    pub kws: &'a IncKws,
    pub iso: &'a IncIso,
    pub rules: &'a IncRules,
}

impl ViewRefs<'_> {
    /// Answer sizes per class — a cheap digest two engines at the same
    /// epoch must agree on.
    pub fn sizes(&self) -> [usize; 5] {
        [
            self.rpq.answer().len(),
            self.scc.scc_count(),
            self.kws.match_count(),
            self.iso.match_count(),
            self.rules.derived_count(),
        ]
    }
}

/// Lookups per view in one read transaction.
pub const LOOKUPS_PER_VIEW: usize = 64;

/// Up to this many current answers per view are kept as hit candidates.
const POOL: usize = 1024;

/// Current answers to draw hit keys from, collected once per read block.
pub struct Pools {
    rpq: Vec<(NodeId, NodeId)>,
    kws: Vec<NodeId>,
    iso: Vec<MatchKey>,
    rules: Vec<NodeId>,
}

impl Pools {
    pub fn collect(v: &ViewRefs, pred: PredId) -> Pools {
        let mut rpq: Vec<(NodeId, NodeId)> = v.rpq.answer().iter().copied().take(POOL).collect();
        rpq.sort_unstable();
        let mut kws = v.kws.roots();
        kws.truncate(POOL);
        let mut iso = v.iso.sorted_matches();
        iso.truncate(POOL);
        let rules = v
            .rules
            .facts_of(pred)
            .iter()
            .take(POOL)
            .map(|f| f.args()[0])
            .collect();
        Pools {
            rpq,
            kws,
            iso,
            rules,
        }
    }
}

/// The point lookups of one read transaction: per view, half drawn from
/// current answers (hits) and half at random (almost always misses). SCC
/// pairs are all random — on these graphs membership in the giant
/// component already splits them.
pub struct Keys {
    rpq: Vec<(NodeId, NodeId)>,
    scc: Vec<(NodeId, NodeId)>,
    kws: Vec<NodeId>,
    iso: Vec<MatchKey>,
    rules: Vec<NodeId>,
}

impl Keys {
    pub fn draw(pools: &Pools, nodes: u32, rng: &mut StdRng) -> Keys {
        let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..nodes));
        fn mixed<T: Clone>(
            pool: &[T],
            rng: &mut StdRng,
            mut miss: impl FnMut(&mut StdRng) -> T,
        ) -> Vec<T> {
            (0..LOOKUPS_PER_VIEW)
                .map(|i| {
                    if i % 2 == 0 && !pool.is_empty() {
                        pool[rng.gen_range(0..pool.len())].clone()
                    } else {
                        miss(rng)
                    }
                })
                .collect()
        }
        Keys {
            rpq: mixed(&pools.rpq, rng, |r| (node(r), node(r))),
            scc: (0..LOOKUPS_PER_VIEW)
                .map(|_| (node(rng), node(rng)))
                .collect(),
            kws: mixed(&pools.kws, rng, node),
            iso: mixed(&pools.iso, rng, |r| {
                let (a, b, c) = (node(r), node(r), node(r));
                MatchKey {
                    nodes: vec![a, b, c],
                    edges: vec![(a, b), (b, c)],
                }
            }),
            rules: mixed(&pools.rules, rng, node),
        }
    }

    /// Run every lookup against `v` and fold the results (order-sensitive,
    /// so a single flipped answer changes the sum).
    pub fn checksum(&self, v: &ViewRefs, pred: PredId) -> u64 {
        let mut acc = 0u64;
        let mut fold = |hit: bool| acc = mix64(acc ^ hit as u64).wrapping_add(1);
        for &(a, b) in &self.rpq {
            fold(v.rpq.contains_pair(a, b));
        }
        for &(a, b) in &self.scc {
            fold(v.scc.same_scc(a, b));
        }
        for &n in &self.kws {
            fold(v.kws.is_match_root(n));
        }
        for k in &self.iso {
            fold(v.iso.contains(k));
        }
        for &n in &self.rules {
            fold(v.rules.holds(pred, &[n]));
        }
        acc
    }
}

/// Stand-alone instances of every view class, fed the same normalized
/// deltas as the engine's — the traced run's way of timing each layer from
/// outside, around its public `apply`.
pub struct ShadowViews {
    pub rpq: IncRpq,
    pub scc: IncScc,
    pub kws: IncKws,
    pub iso: IncIso,
    pub rules: IncRules,
    /// `IncRules` reports cumulative change metrics; the others per apply.
    rules_affected_before: u64,
}

impl ShadowViews {
    pub fn new(g: &DynamicGraph, q: &Queries) -> ShadowViews {
        ShadowViews {
            rpq: IncRpq::new(g, &q.rpq),
            scc: IncScc::new(g),
            kws: IncKws::new(g, q.kws.clone()),
            iso: IncIso::new(g, q.iso.clone()),
            rules: IncRules::new(g, q.rules.clone()),
            rules_affected_before: 0,
        }
    }

    pub fn refs(&self) -> ViewRefs<'_> {
        ViewRefs {
            rpq: &self.rpq,
            scc: &self.scc,
            kws: &self.kws,
            iso: &self.iso,
            rules: &self.rules,
        }
    }

    /// The views as trait objects, in [`CLASSES`] order.
    pub fn each_mut(&mut self) -> [&mut dyn IncView; 5] {
        [
            &mut self.rpq,
            &mut self.scc,
            &mut self.kws,
            &mut self.iso,
            &mut self.rules,
        ]
    }

    /// |AFF| of the apply that just ran, in [`CLASSES`] order.
    pub fn last_affected(&mut self) -> [u64; 5] {
        let rules_total = self.rules.metrics().affected;
        let rules = rules_total - self.rules_affected_before;
        self.rules_affected_before = rules_total;
        let aff = |m: ChangeMetrics| m.affected;
        [
            aff(self.rpq.last_metrics()),
            aff(self.scc.last_metrics()),
            aff(self.kws.last_metrics()),
            aff(self.iso.last_metrics()),
            rules,
        ]
    }
}
