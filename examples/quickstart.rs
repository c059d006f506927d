//! Quickstart: the physics of charging spoofing in twenty lines.
//!
//! Builds the attack's physical primitive — two transmit antennas tuned so
//! their fields cancel at a victim — and shows that the victim harvests
//! nothing while both antennas radiate at full power.
//!
//! Run with: `cargo run --example quickstart`

#![forbid(unsafe_code)]

use wrsn::em::{superposition, CancelController, Transmitter};

fn main() {
    // A benign charger parked one metre from a sensor node.
    let primary = Transmitter::powercast().at(0.0, 0.0);
    let victim = (1.0, 0.0);
    let honest_w = primary.solo_power_at(victim);
    println!("honest charging power at 1 m:    {:.4} W", honest_w);

    // The attacker adds a second antenna 30 cm to the side and tunes its
    // phase and power so the two arrivals cancel at the victim.
    let helper = Transmitter::powercast().at(0.3, 0.0);
    let controller = CancelController::new(&primary, &helper);
    let solution = controller.solve(victim);
    println!(
        "helper tuned to phase {:.3} rad at {:.0} % power",
        solution.helper_phase,
        solution.helper_power_factor * 100.0
    );
    println!(
        "spoofed charging power at 1 m:   {:.3e} W  ({:.4} % of honest)",
        solution.residual_power_w,
        100.0 * solution.residual_power_w / honest_w
    );

    // The same law, stated as waves: |a·e^{jφ} + a·e^{j(φ+π)}|² = 0.
    let w1 = primary.wave_at(victim);
    let w2 = controller.cancelling_wave(victim);
    println!(
        "coherent sum of the two waves:   {:.3e} W (naive sum would be {:.4} W)",
        superposition::received_power(&[w1, w2]),
        superposition::incoherent_power(&[w1, w2])
    );

    // Imperfect attackers still suppress almost everything.
    for (pe, ae) in [(0.05, 0.02), (0.1, 0.05), (0.3, 0.1)] {
        let residual = controller.residual_with_errors(victim, pe, ae);
        println!(
            "with {pe:.2} rad / {:.0} % tuning error: {:.2} % of honest power leaks through",
            ae * 100.0,
            100.0 * residual / honest_w
        );
    }

    println!("\nThe node believes it is being charged. It is being murdered.");
}
