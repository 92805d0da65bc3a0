//! Quickstart: run a small Sedov–Taylor blast wave with Castro and compare
//! the measured shock radius against the analytic similarity solution.
//!
//! ```sh
//! cargo run --release --example quickstart
//! # with telemetry: a Chrome trace (load in Perfetto / chrome://tracing)
//! # and a per-step metrics stream (one JSON object per line):
//! cargo run --release --example quickstart -- --trace out.json --metrics steps.jsonl
//! ```

use exastro::amr::{BcSpec, BoxArray, DistributionMapping, Geometry, MultiFab};
use exastro::castro::{
    init_sedov, measure_shock_radius, sedov_shock_radius, BurnOptions, Castro, Floors, Gravity,
    GravityMode, Hydro, SedovParams, StateLayout,
};
use exastro::microphysics::{GammaLaw, Network};
use exastro::parallel::WorkerPool;
use exastro::telemetry::{JsonlSink, Telemetry};
use std::sync::Arc;

/// `--trace <path> --metrics <path> --graph-trace <path>` (all optional,
/// any order).
struct Cli {
    trace: Option<String>,
    metrics: Option<String>,
    graph_trace: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        trace: None,
        metrics: None,
        graph_trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => cli.trace = Some(args.next().expect("--trace needs a path")),
            "--metrics" => cli.metrics = Some(args.next().expect("--metrics needs a path")),
            "--graph-trace" => {
                cli.graph_trace = Some(args.next().expect("--graph-trace needs a path"))
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: quickstart [--trace out.json] \
                     [--metrics steps.jsonl] [--graph-trace graphs.json]"
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    if cli.trace.is_some() || cli.metrics.is_some() {
        Telemetry::enable();
    }
    if cli.graph_trace.is_some() {
        // Per-task timestamps for every hydro sweep graph, which the trace
        // also draws as task spans and dependency arrows (implies plain
        // tracing: the stamps are taken on the trace buffer's clock).
        Telemetry::enable_graph_trace();
    }
    // A 48³ periodic unit box, decomposed into 24³ grids.
    let n = 48;
    let geom = Geometry::cube(n, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), 24, 8);
    let dm = DistributionMapping::all_local(&ba);

    // Gamma-law gas with a trivial 2-species composition.
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);

    let params = SedovParams::default();
    init_sedov(&mut state, &geom, &layout, &eos, &params);

    let mut castro = Castro::new(&eos, &net);
    castro.hydro = Hydro {
        cfl: 0.4,
        floors: Floors::dimensionless(),
        ..Default::default()
    };
    castro.bc = BcSpec::outflow();
    // Switch on the optional physics (monopole gravity, reactions) so their
    // regions appear in the end-of-run report too.
    // The burn thresholds are zeroed because this setup is dimensionless;
    // the cold gas burns at negligible rates but still exercises the
    // integrator.
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        ..Default::default()
    };
    castro.burn = Some(BurnOptions {
        min_temp: 0.0,
        min_dens: 0.0,
        ..Default::default()
    });
    if let Some(path) = &cli.metrics {
        let sink = JsonlSink::create(path).expect("create metrics file");
        castro.telemetry.attach_sink(Arc::new(sink));
    }

    let mass0 = castro.total_mass(&state, &geom);
    let energy0 = castro.total_energy(&state, &geom);
    println!("Sedov blast: {n}³ zones, E = {}", params.energy);
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>8}",
        "step", "t", "R_measured", "R_analytic", "ratio"
    );

    // QUICKSTART_STEPS trims the run for CI smoke tests.
    let nsteps: usize = std::env::var("QUICKSTART_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let mut t = 0.0;
    for step in 0..nsteps {
        let dt = castro.estimate_dt(&state, &geom).min(0.005);
        // The transactional advance emits one StepMetrics record per
        // accepted step when a metrics sink is attached.
        castro.advance_level_safe(&mut state, &geom, dt).unwrap();
        t += dt;
        if step % 10 == 9 {
            let r_meas = measure_shock_radius(&state, &geom, &params);
            let r_true = sedov_shock_radius(&params, t);
            println!(
                "{:>6} {:>10.4} {:>12.4} {:>12.4} {:>8.3}",
                step + 1,
                t,
                r_meas,
                r_true,
                r_meas / r_true
            );
        }
    }
    let mass1 = castro.total_mass(&state, &geom);
    let energy1 = castro.total_energy(&state, &geom);
    println!("mass   drift: {:+.3e} (relative)", mass1 / mass0 - 1.0);
    println!("energy drift: {:+.3e} (relative)", energy1 / energy0 - 1.0);

    // Per-region wall time and zone counts collected by the telemetry layer
    // during the run.
    print!("\n{}", Telemetry::region_report());
    println!("pool: {}\n", WorkerPool::global().stats());

    castro.telemetry.flush().expect("metrics stream IO");
    if let Some(path) = &cli.trace {
        match Telemetry::write_trace(path) {
            Ok(p) => println!("trace written to {} (open in Perfetto)", p.display()),
            Err(e) => eprintln!("trace not written: {e}"),
        }
    }
    if let Some(path) = &cli.metrics {
        println!("step metrics written to {path} (JSON Lines)");
    }
    if let Some(path) = &cli.graph_trace {
        write_graph_summary(path);
    }
}

/// Summarize every recorded sweep graph (critical path, slack, measured
/// overlap efficiency), reconcile the measurement against the machine
/// model's predicted hidden fraction, and write the
/// `exastro.graphtrace.v1` artifact.
fn write_graph_summary(path: &str) {
    use exastro::machine::hydro_overlap;
    use exastro::telemetry::graphtrace;

    // The same overlap model the fig2 overlapped series prices, for the
    // 24-wide boxes this example decomposes into.
    let model = hydro_overlap(24);
    let mut summaries: Vec<graphtrace::GraphSummary> = graphtrace::take()
        .iter()
        .map(graphtrace::summarize)
        .collect();
    for s in &mut summaries {
        let predicted = model.predicted_hidden_fraction(s.compute_us, s.comm_us);
        s.reconcile(predicted);
    }
    let measured = graphtrace::overall_efficiency(&summaries);
    let graphs = summaries.len();
    let max_workers = summaries.iter().map(|s| s.workers).max().unwrap_or(0);
    match graphtrace::write_summaries(path, &summaries) {
        Ok(p) => println!(
            "graph summary ({graphs} graph(s), {max_workers} worker(s)) written to {}",
            p.display()
        ),
        Err(e) => eprintln!("graph summary not written: {e}"),
    }
    // Comm-time-weighted aggregate of the model's per-graph prediction,
    // directly comparable to the measured overall efficiency.
    let total_comm: f64 = summaries.iter().map(|s| s.comm_us).sum();
    let predicted = (total_comm > 0.0).then(|| {
        summaries
            .iter()
            .map(|s| model.predicted_hidden_fraction(s.compute_us, s.comm_us) * s.comm_us)
            .sum::<f64>()
            / total_comm
    });
    if let (Some(m), Some(p)) = (measured, predicted) {
        println!(
            "overlap efficiency: measured {m:.3} vs modeled {p:.3} (drift {:+.3}; \
             a serial pool measures ~0)",
            m - p
        );
    }
}
