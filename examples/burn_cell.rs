//! Single-zone burner demonstration (the Microphysics `burn_cell` unit
//! test): integrate the 13-isotope alpha chain at white-dwarf detonation
//! conditions with the VODE-style BDF integrator and watch the runaway.
//!
//! ```sh
//! cargo run --release --example burn_cell
//! ```

use exastro::microphysics::{BurnerConfig, Network, StellarEos};

fn main() {
    let net = Network::aprox13();
    let eos = StellarEos;

    // 50/50 carbon/oxygen fuel at near-detonation conditions.
    let rho = 5e7;
    let t0 = 2.8e9;
    let mut x = vec![0.0; net.nspec()];
    x[net.index_of("c12")] = 0.5;
    x[net.index_of("o16")] = 0.5;

    println!("aprox13 burn at rho = {rho:.1e} g/cc, T0 = {t0:.1e} K");
    println!(
        "Jacobian: {}×{}, {:.0}% structurally empty (the §VI sparse-solve target)\n",
        net.nspec() + 1,
        net.nspec() + 1,
        net.sparsity().empty_fraction() * 100.0
    );

    let burner = BurnerConfig::default().build(&net, &eos);
    let mut t = t0;
    let mut elapsed = 0.0f64;
    let mut dt = 1e-9;
    println!(
        "{:>12} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "time [s]", "T [K]", "X(c12)", "X(o16)", "X(si28)", "X(ni56)", "steps"
    );
    for _ in 0..14 {
        let out = burner
            .burn_zone(0, rho, t, &x, dt)
            .expect("burn failed")
            .outcome;
        elapsed += dt;
        t = out.t;
        x = out.x.clone();
        println!(
            "{:>12.3e} {:>10.3e} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8}",
            elapsed,
            t,
            x[net.index_of("c12")],
            x[net.index_of("o16")],
            x[net.index_of("si28")],
            x[net.index_of("ni56")],
            out.stats.steps
        );
        dt *= 2.5;
        if t > 6e9 {
            break;
        }
    }

    // Every Newton system above was solved on the network's declared
    // sparsity pattern, factored symbolically once when the burner was
    // built. What that buys over dense LU (Newton cycle time, in-burn solve
    // time, ΔT between the two) is measured by the `burner` bench.
    let mut x0 = vec![0.0; net.nspec()];
    x0[net.index_of("c12")] = 0.5;
    x0[net.index_of("o16")] = 0.5;
    let rec = burner.burn_zone(0, rho, t0, &x0, 1e-7).unwrap();
    let stats = rec.outcome.stats;
    println!(
        "\nfirst 1e-7 s again: {} BDF steps, {} rejected, {} Jacobians, {} Newton iterations, \
         {:.1} µs in sparse-LU factor+solve (rung: {})",
        stats.steps,
        stats.rejected,
        stats.jac_evals,
        stats.newton_iters,
        stats.solve_ns as f64 * 1e-3,
        rec.rung
    );
    println!("dense vs sparse: cargo bench -p exastro-bench --bench burner");
}
