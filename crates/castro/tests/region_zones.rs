//! The region table's `zones` column for one Castro step: the zones every
//! hydro kernel, the CFL estimate, the ghost fills and the gravity source
//! report to their regions, recorded once and held as constants. A change
//! to how the kernels loop over rows must leave this column as it was.
//!
//! Lives in its own test binary because it resets and reads process-global
//! state (the region table).

use exastro_amr::{BoxArray, Geometry, MultiFab};
use exastro_castro::{init_sedov, Castro, Floors, Gravity, GravityMode, SedovParams};
use exastro_microphysics::{GammaLaw, Network};
use exastro_telemetry::Telemetry;

#[test]
fn a_sedov_step_and_a_monopole_source_report_their_zones() {
    Telemetry::reset();
    let (eos, net) = (GammaLaw::monatomic(), Network::cburn2());
    let geom = Geometry::cube(16, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, castro.layout.ncomp(), 2);
    assert_eq!(state.nfabs(), 8);
    let params = SedovParams::default();
    init_sedov(&mut state, &geom, &castro.layout, &eos, &params);
    let dt = {
        let _r = Telemetry::region("estimate_dt");
        castro.estimate_dt(&state, &geom)
    };
    castro.advance_level(&mut state, &geom, dt).unwrap();
    let gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 64,
    };
    let field = gravity.solve(&state, &geom);
    {
        let _r = Telemetry::region("apply_source");
        Gravity::apply_source(&mut state, &field, dt, &castro.ex);
    }
    let mut zones: Vec<(String, u64)> = Telemetry::region_rows()
        .0
        .into_iter()
        .filter(|(_, s)| s.zones > 0)
        .map(|(path, s)| (path, s.zones))
        .collect();
    zones.sort();
    println!("{zones:#?}");
    let want: Vec<(String, u64)> = ZONES.iter().map(|&(p, z)| (p.to_string(), z)).collect();
    assert_eq!(zones, want);
}

/// Recorded while the hydro kernels, the CFL estimate and the gravity
/// source still ran through `ExecSpace`'s launch methods. A sweep of one 8³
/// box reports 512 primitives, 2·128 ghost-slab primitives, 576 faces and
/// 512 updates: 1 856 zones, 44 544 for three sweeps of eight boxes.
const ZONES: &[(&str, u64)] = &[
    ("apply_source", 4096),
    ("castro_advance/hydro", 44544),
    ("castro_advance/hydro/fill_boundary", 3072),
    ("estimate_dt", 4096),
];
