//! The MAESTROeX reacting-bubble problem (§IV-B): a hot spot in a
//! white-dwarf-like plane-parallel atmosphere ignites carbon and rises.
//!
//! ```sh
//! cargo run --release --example reacting_bubble
//! ```

use exastro::amr::{BoxArray, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab};
use exastro::maestro::{bubble_diagnostics, bubble_maestro, init_bubble, BubbleParams, LmLayout};
use exastro::microphysics::{Network, StellarEos};

fn main() {
    let n = 24;
    let geom = Geometry::new(
        IndexBox::cube(n),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        exastro::amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 12, 4);
    let dm = DistributionMapping::new(&ba, 1, DistStrategy::Sfc);

    let eos = StellarEos;
    let net = Network::cburn2();
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let params = BubbleParams::default();
    let base = init_bubble(&mut state, &geom, &layout, &eos, &net, &params);
    println!(
        "reacting bubble: {n}³ zones, atmosphere rho = {:.1e}..{:.1e} g/cc (hydrostatic residual {:.1e})",
        base.rho0.last().unwrap(),
        base.rho0[0],
        base.hydrostatic_residual()
    );
    let maestro = bubble_maestro(&eos, &net, base);

    println!(
        "\n{:>6} {:>10} {:>11} {:>10} {:>11} {:>9} {:>8}",
        "step", "t [s]", "T_max [K]", "X(ash)max", "height [cm]", "w_max", "MG cyc"
    );
    let mut t = 0.0;
    for step in 0..12 {
        let dt = maestro.estimate_dt(&state, &geom).min(4e-3);
        let stats = maestro
            .advance(&mut state, &geom, dt)
            .expect("bubble step failed");
        t += dt;
        let d = bubble_diagnostics(&state, &geom, &layout, params.t_ambient);
        println!(
            "{:>6} {:>10.4} {:>11.3e} {:>10.3e} {:>11.3e} {:>9.2e} {:>8}",
            step,
            t,
            d.max_temp,
            d.max_ash,
            d.bubble_height,
            d.max_w,
            stats.projection.as_ref().map(|p| p.cycles).unwrap_or(0)
        );
    }
    println!("\nThe low-Mach timestep here is set by the fluid velocity;");
    println!(
        "a compressible code would be limited to dt ≈ {:.1e} s by the sound speed.",
        geom.min_dx() / 5e8
    );
}
