//! Output checks. Every seed is checked against seed-independent
//! invariants (conservation, the analytic Sedov radius, ΣX = 1, every job
//! complete); seeds recorded in `reference.json` are also compared scalar
//! by scalar, within tolerances loose enough to survive a legitimate
//! floating-point reordering.

use crate::json::Json;
use crate::workloads::Scalar;

const REFERENCE: &str = include_str!("../reference.json");

/// Failed checks, as messages; empty when the outputs are correct.
pub fn check_outputs(workload: &str, seed: u64, outputs: &[Scalar]) -> Vec<String> {
    let reference = Json::parse(REFERENCE).unwrap_or(Json::Null);
    let recorded = reference.at(&[&seed.to_string(), workload]);
    let mut bad = Vec::new();
    for s in outputs {
        if !s.value.is_finite() {
            bad.push(format!("{}: not finite", s.name));
            continue;
        }
        if let Some((lo, hi)) = s.range {
            if s.value < lo || s.value > hi {
                bad.push(format!(
                    "{} = {:e} outside [{lo:e}, {hi:e}]",
                    s.name, s.value
                ));
            }
        }
        let want = recorded.and_then(|r| r.get(s.name)).and_then(Json::num);
        if let (Some(tol), Some(want)) = (s.ref_tol, want) {
            if (s.value - want).abs() > tol * want.abs() {
                bad.push(format!(
                    "{} = {:e}, reference {want:e} (rel tol {tol:e})",
                    s.name, s.value
                ));
            }
        }
    }
    bad
}

pub fn outputs_json(outputs: &[Scalar]) -> Json {
    Json::obj(outputs.iter().map(|s| (s.name, Json::Num(s.value))))
}
