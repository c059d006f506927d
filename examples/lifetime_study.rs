//! Network lifetime under different chargers — benign and malicious.
//!
//! Runs the same 60-node network under every benign policy (NJNP, periodic
//! TSP, EDF), no charger at all, and the Charging Spoofing Attack, and
//! prints lifetime, survivors and delivered energy side by side.
//!
//! Run with: `cargo run --release --example lifetime_study`

#![forbid(unsafe_code)]

use wrsn::charge::{EarliestDeadlineFirst, Njnp, PeriodicTsp};
use wrsn::core::attack::CsaAttackPolicy;
use wrsn::scenario::Scenario;
use wrsn::sim::{ChargerPolicy, IdlePolicy, SimReport};

fn show(report: &SimReport) {
    println!(
        "{:<16} alive {:>3}/{:<3}  lifetime {:>8}  delivered {:>9.1} J  charger spent {:>8.0} J",
        report.policy_name,
        report.alive_nodes,
        report.alive_nodes + report.dead_nodes,
        report
            .network_lifetime_s
            .map(|t| format!("{:.1} h", t / 3600.0))
            .unwrap_or_else(|| "survived".to_string()),
        report.total_delivered_j,
        report.charger_energy_used_j,
    );
}

fn main() {
    let scenario = Scenario::paper_scale(60, 21);
    println!(
        "60 nodes, {:.0}×{:.0} m field, {:.0} kJ charger budget, {:.0} h horizon\n",
        scenario.field_side_m,
        scenario.field_side_m,
        scenario.mc_energy_j / 1e3,
        scenario.horizon_s / 3600.0
    );

    let depot = scenario.sink();
    let mut policies: Vec<Box<dyn ChargerPolicy>> = vec![
        Box::new(IdlePolicy),
        Box::new(Njnp::new()),
        Box::new(PeriodicTsp::new(depot, 50_000.0)),
        Box::new(EarliestDeadlineFirst::new()),
        Box::new(CsaAttackPolicy::new(scenario.tide_config())),
    ];

    for policy in policies.iter_mut() {
        let mut world = scenario.build();
        let report = world.run(policy.as_mut()).expect("run");
        show(&report);
    }

    println!(
        "\nBenign chargers extend lifetime; the spoofing charger radiates like one\n\
         while the network dies faster than with no charger at all (key nodes first)."
    );
}
