//! # exastro-bench
//!
//! Benchmark and figure-regeneration harnesses. Each Criterion bench under
//! `benches/` regenerates one table or figure from *Preparing Nuclear
//! Astrophysics for Exascale* (printing the series the paper plots) and
//! then times a representative kernel. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured comparisons.

#![forbid(unsafe_code)]

use exastro_amr::{BcSpec, BoxArray, DistributionMapping, Geometry, MultiFab};
use exastro_castro::{Castro, Floors, Hydro, KernelStructure, StateLayout};
use exastro_microphysics::{CBurn2, GammaLaw, Network};
use exastro_parallel::Real;
use exastro_telemetry::json;
use std::io::Write;
use std::path::PathBuf;

/// Where a number in a `BENCH_*.json` artifact comes from, written as its
/// `"source"` field: `"modeled"` if `exastro-machine` alone produced it,
/// `"measured"` if anything observed on the host did — a wall clock, or a
/// count of what a real run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A machine-model prediction.
    Modeled,
    /// An observation of a run on this host.
    Measured,
}

impl Source {
    /// The artifact spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Modeled => "modeled",
            Source::Measured => "measured",
        }
    }
}

/// One machine-readable data point destined for a `BENCH_*.json` artifact:
/// a node count mapped to its absolute throughput and parallel efficiency.
#[derive(Clone, Debug)]
pub struct BenchPoint {
    /// Row label (series name for figures, row name for tables).
    pub label: String,
    /// Simulated node count.
    pub nodes: usize,
    /// Absolute throughput in zones/µs.
    pub zones_per_us: f64,
    /// Efficiency normalized to the ideal 1-node scaling (1.0 = perfect).
    pub efficiency: f64,
    /// Where the numbers come from.
    pub source: Source,
}

impl BenchPoint {
    /// A point the machine model predicted.
    pub fn modeled(label: &str, nodes: usize, zones_per_us: f64, efficiency: f64) -> Self {
        Self::with_source(label, nodes, zones_per_us, efficiency, Source::Modeled)
    }

    /// A point measured on the host.
    pub fn measured(label: &str, nodes: usize, zones_per_us: f64, efficiency: f64) -> Self {
        Self::with_source(label, nodes, zones_per_us, efficiency, Source::Measured)
    }

    fn with_source(
        label: &str,
        nodes: usize,
        zones_per_us: f64,
        efficiency: f64,
        source: Source,
    ) -> Self {
        Self {
            label: label.to_string(),
            nodes,
            zones_per_us,
            efficiency,
            source,
        }
    }
}

/// Serialize `points` and write `BENCH_{name}.json` at the workspace root
/// (benches run with the crate directory as cwd, so we walk up two levels).
/// Returns the path written. Serialization is hand-rolled: the container
/// has no serde, and the schema is five fields.
pub fn write_bench_json(name: &str, points: &[BenchPoint]) -> std::io::Result<PathBuf> {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let path = root.join(format!("BENCH_{name}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json::escape(name)));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"nodes\": {}, \"zones_per_us\": {}, \"efficiency\": {}, \"source\": \"{}\"}}{sep}\n",
            json::escape(&p.label),
            p.nodes,
            json::num(p.zones_per_us),
            json::num(p.efficiency),
            p.source.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

/// One named scalar measurement destined for a `BENCH_*.json` artifact —
/// the schema for benches whose results are not scaling curves (solver
/// timings, speedups, agreement errors).
#[derive(Clone, Debug)]
pub struct MetricPoint {
    /// Metric name, e.g. `aprox13/newton_solve_speedup`.
    pub label: String,
    /// The measured value.
    pub value: f64,
    /// Unit string, e.g. `ns`, `x`, `K`.
    pub unit: String,
    /// Where the value comes from.
    pub source: Source,
}

impl MetricPoint {
    /// A value the machine model predicted.
    pub fn modeled(label: &str, value: f64, unit: &str) -> Self {
        Self::with_source(label, value, unit, Source::Modeled)
    }

    /// A value measured on the host.
    pub fn measured(label: &str, value: f64, unit: &str) -> Self {
        Self::with_source(label, value, unit, Source::Measured)
    }

    fn with_source(label: &str, value: f64, unit: &str, source: Source) -> Self {
        Self {
            label: label.to_string(),
            value,
            unit: unit.to_string(),
            source,
        }
    }
}

/// Serialize scalar `metrics` and write `BENCH_{name}.json` at the
/// workspace root. Same hand-rolled serialization rationale as
/// [`write_bench_json`].
pub fn write_metrics_json(name: &str, metrics: &[MetricPoint]) -> std::io::Result<PathBuf> {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let path = root.join(format!("BENCH_{name}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json::escape(name)));
    out.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"source\": \"{}\"}}{sep}\n",
            json::escape(&m.label),
            json::num(m.value),
            json::escape(&m.unit),
            m.source.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

/// Build a ready-to-run Sedov state for kernel benchmarking.
pub fn sedov_fixture(n: i32, max_grid: i32) -> (Geometry, MultiFab, StateLayout, GammaLaw, CBurn2) {
    let geom = Geometry::cube(n, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), max_grid, 8);
    let dm = DistributionMapping::all_local(&ba);
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    exastro_castro::init_sedov(
        &mut state,
        &geom,
        &layout,
        &eos,
        &exastro_castro::SedovParams::default(),
    );
    (geom, state, layout, eos, net)
}

/// A Castro driver configured for dimensionless benchmark problems.
pub fn bench_castro<'a>(
    eos: &'a GammaLaw,
    net: &'a CBurn2,
    structure: KernelStructure,
) -> Castro<'a> {
    let mut c = Castro::new(eos, net);
    c.hydro = Hydro {
        cfl: 0.4,
        structure,
        floors: Floors::dimensionless(),
    };
    c.bc = BcSpec::outflow();
    c
}

/// Wall-clock zones/µs of `f` advancing `zones` zones.
pub fn measure_throughput<F: FnMut()>(zones: i64, mut f: F) -> Real {
    let start = std::time::Instant::now();
    f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    zones as Real / us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_lands_at_workspace_root_and_parses() {
        let pts = vec![
            BenchPoint::modeled("canonical", 1, 130.0, 1.0),
            BenchPoint::measured("canonical", 512, 42000.0, 0.63),
        ];
        let path = write_bench_json("selftest", &pts).unwrap();
        assert!(path.ends_with("BENCH_selftest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"nodes\": 512"));
        assert!(text.contains("\"zones_per_us\": 42000"));
        assert!(
            text.contains("\"source\": \"modeled\"") && text.contains("\"source\": \"measured\"")
        );
        // Same number of opening and closing braces -> structurally sane.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced JSON: {text}"
        );
        // Non-finite values must degrade to null, not invalid tokens.
        let bad = vec![BenchPoint::modeled("x", 1, f64::NAN, f64::INFINITY)];
        let p2 = write_bench_json("selftest", &bad).unwrap();
        let t2 = std::fs::read_to_string(&p2).unwrap();
        assert!(t2.contains("\"zones_per_us\": null"));
        assert!(!t2.contains("NaN") && !t2.contains("inf"));
        std::fs::remove_file(p2).unwrap();
    }

    #[test]
    fn metrics_json_round_trips_structurally() {
        let ms = vec![
            MetricPoint::measured("aprox13/newton_solve_speedup", 2.5, "x"),
            MetricPoint::modeled("aprox13/delta_t", f64::NAN, "K"),
        ];
        let path = write_metrics_json("metrics_selftest", &ms).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"label\": \"aprox13/newton_solve_speedup\""));
        assert!(text.contains("\"value\": 2.5"));
        assert!(text.contains("\"unit\": \"x\""));
        assert!(text.contains("\"value\": null"));
        assert!(text.contains("\"unit\": \"K\", \"source\": \"modeled\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        std::fs::remove_file(path).unwrap();
    }
}
