//! The harness `chaos.rs` and `replication.rs` share: the four real query
//! classes registered on an engine or a follower, their answers in
//! canonical form, and a chaos-wrapped in-memory journal.

use igc_engine::{Engine, Replica, ViewHandle};
use igc_graph::{Label, LabelInterner, NodeId};
use igc_iso::{IncIso, MatchKey, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_log::{ChaosBackend, LogBackend, MemBackend};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;
use std::sync::Arc;

pub fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

pub fn kws_query() -> KwsQuery {
    KwsQuery::new(vec![Label(1), Label(2)], 2)
}

pub fn iso_pattern() -> Pattern {
    Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])
}

pub fn register_all(engine: &mut Engine) {
    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine.register("kws", IncKws::init(kws_query())).unwrap();
    engine.register("iso", IncIso::init(iso_pattern())).unwrap();
}

/// The four views' complete answers in canonical form — the bit-identical
/// comparison key between a faulted engine and its twin, or a leader and
/// its follower.
#[derive(Debug, PartialEq, Eq)]
pub struct Answers {
    pub rpq: Vec<(NodeId, NodeId)>,
    pub scc: Vec<Vec<NodeId>>,
    pub kws: Vec<(NodeId, Vec<u32>)>,
    pub iso: Vec<MatchKey>,
}

pub fn answers(engine: &Engine) -> Answers {
    let rpq: &IncRpq = engine
        .view(&engine.typed(engine.find("rpq").unwrap()).unwrap())
        .unwrap();
    let scc: &IncScc = engine
        .view(&engine.typed(engine.find("scc").unwrap()).unwrap())
        .unwrap();
    let kws: &IncKws = engine
        .view(&engine.typed(engine.find("kws").unwrap()).unwrap())
        .unwrap();
    let iso: &IncIso = engine
        .view(&engine.typed(engine.find("iso").unwrap()).unwrap())
        .unwrap();
    Answers {
        rpq: rpq.sorted_answer(),
        scc: scc.components(),
        kws: kws.answer_signature(),
        iso: iso.sorted_matches(),
    }
}

pub struct ReplicaViews {
    pub rpq: ViewHandle<IncRpq>,
    pub scc: ViewHandle<IncScc>,
    pub kws: ViewHandle<IncKws>,
    pub iso: ViewHandle<IncIso>,
}

pub fn register_replica(replica: &mut Replica) -> ReplicaViews {
    ReplicaViews {
        rpq: replica.register("rpq", IncRpq::init(rpq_query())).unwrap(),
        scc: replica.register("scc", IncScc::init()).unwrap(),
        kws: replica.register("kws", IncKws::init(kws_query())).unwrap(),
        iso: replica
            .register("iso", IncIso::init(iso_pattern()))
            .unwrap(),
    }
}

pub fn replica_answers(replica: &Replica, views: &ReplicaViews) -> Answers {
    Answers {
        rpq: replica.view(&views.rpq).unwrap().sorted_answer(),
        scc: replica.view(&views.scc).unwrap().components(),
        kws: replica.view(&views.kws).unwrap().answer_signature(),
        iso: replica.view(&views.iso).unwrap().sorted_matches(),
    }
}

pub fn backend_pair() -> (ChaosBackend, Arc<dyn LogBackend>) {
    let chaos = ChaosBackend::new(Arc::new(MemBackend::new()));
    let arc: Arc<dyn LogBackend> = Arc::new(chaos.clone());
    (chaos, arc)
}
