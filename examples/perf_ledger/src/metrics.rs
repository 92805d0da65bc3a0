//! The metrics the benchmark declares — the same names, units and
//! directions as `BENCHMARK.json` (`--selfcheck` holds the two together) —
//! and the small statistics they are built from.

/// `(name, unit, better, bound)`: what a user of the suite sees.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("zones_per_us", "zones/us", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`, `<layer>.<metric>` with layer = crate name.
/// Every traced run reports all of them; a layer the workload bypasses
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("parallel.graph_us_per_task", "us", "lower"),
    ("parallel.pool_region_us", "us", "lower"),
    ("parallel.pooled_region_frac", "fraction", "higher"),
    ("parallel.regions_per_op", "count", "lower"),
    ("parallel.arena_hit_rate", "fraction", "higher"),
    ("parallel.arena_peak_mb", "MB", "lower"),
    ("amr.fill_boundary_ms", "ms", "lower"),
    ("amr.post_wait_ms", "ms", "lower"),
    ("amr.fill_physical_bc_ms", "ms", "lower"),
    ("amr.clone_ms", "ms", "lower"),
    ("amr.reduce_ms", "ms", "lower"),
    ("amr.msgs_per_op", "count", "lower"),
    ("amr.net_bytes_per_op", "bytes", "lower"),
    ("amr.local_mb_per_op", "MB", "lower"),
    ("amr.exchange_gb_per_s", "GB/s", "higher"),
    ("castro.step_ms_p50", "ms", "lower"),
    ("castro.step_ms_p80", "ms", "lower"),
    ("castro.hydro_advance_ms", "ms", "lower"),
    ("castro.hydro_ns_per_zone", "ns", "lower"),
    ("castro.estimate_dt_ms", "ms", "lower"),
    ("castro.gravity_ms", "ms", "lower"),
    ("castro.sync_temperature_ms", "ms", "lower"),
    ("castro.validate_ms", "ms", "lower"),
    ("castro.step_rejections", "count", "lower"),
    ("castro.unattributed_frac", "fraction", "lower"),
    ("microphysics.burn_state_ms", "ms", "lower"),
    ("microphysics.burn_us_per_zone", "us", "lower"),
    ("microphysics.us_per_bdf_step", "us", "lower"),
    ("microphysics.bdf_steps_per_zone", "count", "lower"),
    ("microphysics.newton_iters_per_step", "count", "lower"),
    ("microphysics.max_over_mean_steps", "ratio", "lower"),
    ("microphysics.zones_burned_per_op", "count", "lower"),
    ("microphysics.zones_skipped_frac", "fraction", "higher"),
    ("microphysics.retries_per_kzone", "count", "lower"),
    ("microphysics.recovered_frac", "fraction", "lower"),
    ("solvers.project_ms", "ms", "lower"),
    ("solvers.vcycles_per_op", "count", "lower"),
    ("solvers.ms_per_vcycle", "ms", "lower"),
    ("solvers.allreduces_per_op", "count", "lower"),
    ("solvers.residual_reduction", "ratio", "lower"),
    ("solvers.converged_frac", "fraction", "higher"),
    ("maestro.step_ms_p50", "ms", "lower"),
    ("maestro.step_ms_p80", "ms", "lower"),
    ("maestro.step_noburn_ms", "ms", "lower"),
    ("maestro.react_share", "fraction", "lower"),
    ("maestro.enforce_density_ms", "ms", "lower"),
    ("maestro.estimate_dt_ms", "ms", "lower"),
    ("maestro.unattributed_frac", "fraction", "lower"),
    ("resilience.ckpt_write_ms", "ms", "lower"),
    ("resilience.ckpt_restore_ms", "ms", "lower"),
    ("resilience.ckpt_verify_ms", "ms", "lower"),
    ("resilience.digest_ms", "ms", "lower"),
    ("resilience.ckpt_mb", "MB", "lower"),
    ("resilience.ckpt_write_mb_per_s", "MB/s", "higher"),
    ("machine.simulate_step_us", "us", "lower"),
    ("machine.lease_release_us", "us", "lower"),
    ("service.tick_ms_p50", "ms", "lower"),
    ("service.tick_ms_p80", "ms", "lower"),
    ("service.submit_us", "us", "lower"),
    ("service.report_ms", "ms", "lower"),
    ("service.jobs_per_s", "1/s", "higher"),
    ("service.high_job_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.rank_utilization", "fraction", "higher"),
    ("service.preemptions", "count", "lower"),
    ("service.ticks_per_job", "count", "lower"),
    ("service.failed_jobs", "count", "lower"),
    ("telemetry.enabled_overhead_frac", "fraction", "lower"),
    ("ledger.trace_overhead_frac", "fraction", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.round_spread", "fraction", "lower"),
];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the mean of the middle pair for even counts.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
