//! Why doesn't anyone notice? The detection study.
//!
//! Runs five charger behaviours on identical 80-node worlds — honest NJNP,
//! the window-aware CSA, a window-oblivious eager spoofer, a selective-
//! neglect attacker, and an absent charger — then audits each run with the
//! live detector suite *and* the forensic extensions, printing who gets
//! caught by what.
//!
//! Run with: `cargo run --release --example detection_study`

#![forbid(unsafe_code)]

use wrsn::core::attack::{CsaAttackPolicy, EagerSpoofPolicy, SelectiveNeglectPolicy};
use wrsn::core::detect::{self, Detector, FairnessAudit, PostMortemAudit};
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::{IdlePolicy, World};

fn detectors() -> Vec<Box<dyn Detector>> {
    let mut suite = detect::standard_detectors();
    suite.push(Box::new(FairnessAudit::default()));
    suite.push(Box::new(PostMortemAudit::default()));
    suite
}

const SHORT_NAMES: [&str; 5] = ["traject", "rf", "energy", "fairness", "mortem"];

fn audit(label: &str, world: &World, victims: &[NodeId]) {
    print!("{label:<18}");
    for detector in detectors() {
        let report = detector.analyze(world);
        match report.detection_ratio(victims) {
            Some(ratio) => print!("  {:>7.1} %", ratio * 100.0),
            None => print!("  {:>9}", "n/a"),
        }
    }
    println!();
}

fn main() {
    // Depot-provisioned worlds: honest behaviours are judged adequately
    // resourced, so their audit rows measure detector quality, not budget
    // starvation.
    let scenario = Scenario::paper_scale(80, 11).with_depot();

    // Honest charging.
    let mut honest = scenario.build();
    honest.run(&mut wrsn::charge::Njnp::new()).expect("run");
    let honest_served: Vec<NodeId> = honest.trace().sessions().iter().map(|s| s.node).collect();

    // The window-aware attack.
    let mut csa_world = scenario.build();
    let mut csa_policy = CsaAttackPolicy::new(scenario.tide_config());
    csa_world.run(&mut csa_policy).expect("run");
    let csa_victims: Vec<NodeId> = csa_policy.targets().iter().map(|&(n, _)| n).collect();

    // The naive spoofer: fakes a charge the moment anyone asks.
    let mut eager_world = scenario.build();
    let mut eager = EagerSpoofPolicy::new(3_000.0);
    eager_world.run(&mut eager).expect("run");
    let eager_victims: Vec<NodeId> = eager_world
        .trace()
        .sessions()
        .iter()
        .map(|s| s.node)
        .collect();

    // The no-hardware attacker: just never visits its victims.
    let mut neglect_world = scenario.build();
    let mut neglect = SelectiveNeglectPolicy::new();
    neglect_world.run(&mut neglect).expect("run");
    let neglect_victims = neglect.census();

    // No charger at all.
    let mut absent = scenario.build();
    absent.run(&mut IdlePolicy).expect("run");
    let everyone: Vec<NodeId> = absent.network().ids().collect();

    print!("{:<18}", "behaviour");
    for name in SHORT_NAMES {
        print!("  {name:>9}");
    }
    println!("\n{}", "-".repeat(18 + 11 * SHORT_NAMES.len()));
    audit("honest-njnp", &honest, &honest_served);
    audit("csa", &csa_world, &csa_victims);
    audit("eager-spoof", &eager_world, &eager_victims);
    audit("selective-neglect", &neglect_world, &neglect_victims);
    audit("absent", &absent, &everyone);

    println!(
        "\nCSA exhausted {}/{} victims; every live audit reads 0 %. Only the\n\
         post-mortem forensic sees it — one alarm per victim, each at the\n\
         moment that victim dies.",
        csa_victims
            .iter()
            .filter(|n| csa_world
                .network()
                .node(**n)
                .map(|x| !x.is_alive())
                .unwrap_or(false))
            .count(),
        csa_victims.len(),
    );
}
