//! A full Charging Spoofing Attack campaign on a 100-node network.
//!
//! Derives the TIDE instance (key nodes, time windows), plans with CSA,
//! executes the attack in the simulated world, and prints what the paper's
//! evaluation headlines: how many key nodes were exhausted, and at what cost.
//!
//! Run with: `cargo run --release --example attack_campaign`

#![forbid(unsafe_code)]

use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::core::csa;
use wrsn::core::tide::TideInstance;
use wrsn::scenario::Scenario;

fn main() {
    let scenario = Scenario::paper_scale(100, 7);
    let mut world = scenario.build();

    // What the attacker sees before it starts.
    let census = TideInstance::from_world(&world, &scenario.tide_config());
    println!(
        "network: {} nodes, {} key nodes (total weight {:.1})",
        world.network().node_count(),
        census.victim_count(),
        census.total_weight()
    );
    let plan = csa::plan(&census);
    println!(
        "CSA static plan: {} victims, utility {:.1}, energy {:.0} kJ of {:.0} kJ budget",
        plan.len(),
        census.utility(&plan),
        census.energy_cost(&plan) / 1e3,
        census.budget_j / 1e3
    );
    for (k, stop) in plan.stops().iter().take(5).enumerate() {
        let v = &census.victims[stop.victim];
        println!(
            "  stop {k}: node {} (weight {:.1}) — window [{:.0}, {:.0}] s, begin {:.0} s, masquerade {:.0} s",
            v.node, v.weight, v.window.open_s, v.window.close_s, stop.begin_s, v.service_s
        );
    }
    if plan.len() > 5 {
        println!("  … and {} more stops", plan.len() - 5);
    }

    // Execute adaptively (replanning after each kill).
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    let report = world.run(&mut policy).expect("run");
    let outcome = evaluate_attack(&world, &policy);

    println!(
        "\nafter {:.1} simulated hours:",
        report.final_time_s / 3600.0
    );
    println!(
        "  targeted {} victims, exhausted {} ({:.0} %)",
        outcome.targeted,
        outcome.exhausted,
        outcome.exhausted_ratio * 100.0
    );
    println!(
        "  key nodes exhausted under a masquerade: {:.0} % of the census (paper headline: ≥80 %)",
        outcome.covered_exhausted_ratio * 100.0
    );
    println!(
        "  key nodes dead for any reason: {:.0} % of the census",
        outcome.key_node_exhausted_ratio * 100.0
    );
    println!(
        "  charger spent {:.0} kJ; delivered {:.2} J to victims across {} fake sessions",
        report.charger_energy_used_j / 1e3,
        report.total_delivered_j,
        report.sessions
    );
    println!(
        "  network: {}/{} nodes alive, sink reachability {:.0} %",
        report.alive_nodes,
        report.alive_nodes + report.dead_nodes,
        report.final_health.sink_reachability * 100.0
    );
    if let Some(t) = report.network_lifetime_s {
        println!("  network lifetime ended at {:.1} h", t / 3600.0);
    }
}
