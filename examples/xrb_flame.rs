//! X-ray-burst-like helium burning in a thin accreted layer — the other
//! science driver the paper's introduction motivates (refs [7][8]): a hot
//! helium layer on a neutron-star-like surface ignites via the T⁴⁰-
//! sensitive triple-alpha reaction.
//!
//! This example burns a vertical column of the layer zone-by-zone and
//! prints the ignition front developing, plus the §V stability criterion
//! (zone width vs. the critical width) at the flame.
//!
//! ```sh
//! cargo run --release --example xrb_flame
//! ```

use exastro::castro::critical_zone_width;
use exastro::microphysics::{BurnerConfig, Network, StellarEos};

fn main() {
    let net = Network::triple_alpha();
    let eos = StellarEos;
    let burner = BurnerConfig::default().build(&net, &eos);

    // A column through the accreted helium layer: density falls with
    // height; the base is hottest.
    let nz = 16;
    let rho_base = 2e6;
    let t_base = 2.8e8;
    let mut column: Vec<(f64, f64, Vec<f64>)> = (0..nz)
        .map(|k| {
            let f = k as f64 / nz as f64;
            let rho = rho_base * (-3.0 * f).exp();
            let t = t_base * (1.0 - 0.5 * f);
            (rho, t, vec![1.0, 0.0, 0.0]) // pure helium
        })
        .collect();

    println!(
        "XRB helium layer: {nz} zones, base rho = {rho_base:.1e} g/cc, base T = {t_base:.1e} K"
    );
    println!(
        "triple-alpha log-sensitivity at the base: d ln ε / d ln T ≈ {:.0}\n",
        exastro::microphysics::Rate::TripleAlpha.log_slope(t_base / 1e9)
    );

    let dt = 5.0; // seconds per report interval
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "t [s]", "T_base [K]", "X(he4)", "X(c12)"
    );
    let mut t_elapsed = 0.0;
    for _ in 0..12 {
        for (k, (rho, t, x)) in column.iter_mut().enumerate() {
            let out = burner
                .burn_zone(k as u64, *rho, *t, x, dt)
                .expect("burn failed")
                .outcome;
            *t = out.t;
            *x = out.x;
        }
        t_elapsed += dt;
        let (rho0, t0, x0) = &column[0];
        println!(
            "{:>8.1} {:>12.4e} {:>10.4} {:>10.4}",
            t_elapsed, t0, x0[0], x0[1]
        );
        if *t0 > 1.5e9 {
            println!("\n*** runaway at the layer base (t = {t_elapsed:.1} s) ***");
            // Evaluate the resolvability criterion at the runaway onset
            // (T = 10⁹ K, fresh fuel), not the burned-out end state.
            let crit = critical_zone_width(*rho0, 1e9, &[1.0, 0.0, 0.0], &eos, &net);
            println!(
                "critical zone width for resolved burning at onset: {:.2e} cm",
                crit
            );
            println!("(the paper's X-ray-burst simulations need sub-km zones for this reason)");
            break;
        }
    }
    // Show the vertical structure of the runaway.
    println!("\nfinal column (bottom → top):");
    println!("{:>4} {:>10} {:>12} {:>8}", "k", "rho", "T [K]", "X(he4)");
    for (k, (rho, t, x)) in column.iter().enumerate().step_by(3) {
        println!("{k:>4} {rho:>10.2e} {t:>12.3e} {:>8.4}", x[0]);
    }
}
