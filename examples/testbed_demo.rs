//! The emulated benchtop, end to end: the Section-II measurement campaigns
//! and the 8-mote attack experiment, printed the way a lab notebook would.
//!
//! Run with: `cargo run --release --example testbed_demo`

#![forbid(unsafe_code)]

use wrsn::testbed::{measure, run_bench_experiment, TestbedParams};

fn main() {
    let params = TestbedParams::default();

    println!("== measurement 1: two-wave superposition (the attack's physics) ==");
    for (dphi, label) in [(0.0, "in phase"), (std::f64::consts::PI, "antiphase")] {
        let (p1, p2, together, naive) = measure::superposition_check(&params, dphi);
        println!(
            "  {label:<9} P1 = {p1:.2} W, P2 = {p2:.2} W → together {together:.2} W (naive sum: {naive:.2} W)"
        );
    }

    println!("\n== measurement 2: charging power vs distance, model fit ==");
    let distances: Vec<f64> = (2..=20).map(|k| k as f64 * 0.1).collect();
    let (series, fit) = measure::distance_campaign(&params, &distances);
    for (d, _, measured) in series.samples.iter().step_by(4) {
        println!("  d = {d:.1} m → {measured:.3} W");
    }
    println!(
        "  fit: P(d) = {:.3}/(d + {:.3})²   (R² = {:.3})",
        fit.alpha, fit.beta, fit.r_squared
    );

    println!("\n== measurement 3: how precise must the cancellation be? ==");
    for (pe, ae, residual) in
        measure::cancellation_robustness_campaign(&params, &[0.0, 0.05, 0.2], &[0.02])
    {
        println!(
            "  phase err {pe:.2} rad, amp err {:.0} % → {:.2} % of honest power leaks",
            ae * 100.0,
            residual * 100.0
        );
    }

    println!("\n== the 8-mote experiment: honest charging vs the spoofing charger ==");
    let outcome = run_bench_experiment(&params, 120_000.0);
    println!(
        "  {:<6} {:>4} {:>20} {:>20} {:>12} {:>8}",
        "mote", "key", "honest delivered (J)", "attack delivered (J)", "death (h)", "flagged"
    );
    for row in &outcome.rows {
        println!(
            "  {:<6} {:>4} {:>20.1} {:>20.1} {:>12} {:>8}",
            row.node.to_string(),
            if row.is_key { "yes" } else { "no" },
            row.honest_delivered_j,
            row.attack_delivered_j,
            row.attack_death_s
                .map(|t| format!("{:.1}", t / 3600.0))
                .unwrap_or_else(|| "alive".into()),
            if row.flagged { "YES" } else { "no" },
        );
    }
    println!(
        "\n  honest run: {}/8 motes alive; attack run: {}/8 alive, {}/{} targeted victims exhausted, detection ratio {:.0} %",
        outcome.honest.alive_nodes,
        outcome.attack.alive_nodes,
        outcome.outcome.exhausted,
        outcome.outcome.targeted,
        outcome.detection_ratio * 100.0
    );
}
