//! An attack graph maintained as a declarative rule view — the `igc_rules`
//! fifth view class on a security scenario.
//!
//! The script:
//!
//! 1. a network of hosts (entry points, vulnerable services, critical
//!    assets, hardened bystanders) is loaded into an engine, and an
//!    attack-reachability Datalog program is registered as an `IncRules`
//!    view: code execution spreads from internet-facing entry points along
//!    network edges into vulnerable or critical hosts;
//! 2. a scan adds lateral-movement edges — `goal_reached` facts light up
//!    incrementally as attack paths to critical assets appear;
//! 3. firewall rules retract edges; the deletion machinery (support
//!    counting + repair) withdraws exactly the derivations that died,
//!    including mutually-supporting lateral-movement cycles;
//! 4. every commit is audited against the from-scratch naive fixpoint
//!    oracle via `verify_all`.
//!
//! ```text
//! cargo run --release --example attack_graph
//! ```

use incgraph::prelude::*;

const ENTRY: Label = Label(1); // internet-facing
const VULN: Label = Label(2); // unpatched service
const CRITICAL: Label = Label(3); // crown-jewel asset
const HARDENED: Label = Label(4); // patched, not exploitable

/// exec(h)  ⇐ has_label(h, ENTRY)
/// exec(y)  ⇐ exec(x) ∧ edge(x, y) ∧ has_label(y, VULN)
/// exec(y)  ⇐ exec(x) ∧ edge(x, y) ∧ has_label(y, CRITICAL)
/// goal(h)  ⇐ exec(h) ∧ has_label(h, CRITICAL)
fn attack_program() -> (Program, PredId, PredId) {
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
    (rs.compile().expect("stratifiable program"), exec, goal)
}

fn main() -> Result<(), EngineError> {
    // 1. The network: 0 is the internet-facing bastion; 1–3 run unpatched
    //    services; 4 is the database (critical); 5 is a hardened jump box.
    let mut g = DynamicGraph::new();
    let hosts: Vec<NodeId> = [ENTRY, VULN, VULN, VULN, CRITICAL, HARDENED]
        .iter()
        .map(|&l| g.add_node(l))
        .collect();
    g.insert_edge(hosts[0], hosts[1]); // bastion → app server
    g.insert_edge(hosts[1], hosts[2]); // app server → worker
    g.insert_edge(hosts[5], hosts[4]); // jump box → database (admin path)

    let (program, exec, goal) = attack_program();
    let mut engine = Engine::new(g);
    let rules = engine.register("rules", IncRules::init(program))?;
    println!(
        "initial compromise: {} hosts executable, goal reached: {}",
        engine.view(&rules)?.facts_of(exec).len(),
        engine.view(&rules)?.holds(goal, &[hosts[4]]),
    );
    assert!(!engine.view(&rules)?.holds(goal, &[hosts[4]]));

    // 2. A scan finds lateral movement: worker ⇄ app server (a support
    //    cycle) and worker → database. The attack path lights up.
    engine.commit(&UpdateBatch::from_updates(vec![
        Update::insert(hosts[2], hosts[1]),
        Update::insert(hosts[2], hosts[3]),
        Update::insert(hosts[3], hosts[4]),
    ]))?;
    let view = engine.view(&rules)?;
    println!(
        "after lateral movement: exec on {:?}, goal reached: {}",
        view.facts_of(exec).len(),
        view.holds(goal, &[hosts[4]])
    );
    assert!(view.holds(goal, &[hosts[4]]));
    // The app server is executable two ways (bastion, worker): support 2.
    assert_eq!(view.support(exec, &[hosts[1]]), 2);

    // 3. Firewall: cut the bastion's only edge. Every exec fact beyond the
    //    bastion dies — including the 1⇄2 cycle, which still "supports
    //    itself" by counting alone and needs the repair phase to fall.
    engine.commit(&UpdateBatch::from_updates(vec![Update::delete(
        hosts[0], hosts[1],
    )]))?;
    let view = engine.view(&rules)?;
    let delta = view.last_delta();
    println!(
        "after firewall rule: exec on {} hosts, goal reached: {}; \
         maintenance: {} removed, {} over-deleted, {} re-derived",
        view.facts_of(exec).len(),
        view.holds(goal, &[hosts[4]]),
        delta.facts_removed,
        delta.overdeleted,
        delta.rederived,
    );
    assert!(!view.holds(goal, &[hosts[4]]));
    assert_eq!(view.facts_of(exec).len(), 1, "only the bastion itself");
    assert!(delta.repairs > 0, "the support cycle forced a repair");

    // 4. Audit everything against the naive fixpoint oracle.
    engine.verify_all()?;
    println!("verify_all: rule view bit-identical to the from-scratch oracle");
    Ok(())
}
