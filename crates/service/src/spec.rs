//! Job specifications: what a tenant submits to the service.

use exastro_microphysics::{Aprox13, BurnFaultConfig, CBurn2, Iso7, Network, TripleAlpha};

/// Service-assigned job identity (dense, monotonically increasing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{:04}", self.0)
    }
}

/// The four simulation scenarios the service knows how to run — the
/// paper's problem suite (§IV): a Sedov-style blast, the MAESTROeX
/// reacting bubble, the white-dwarf collision, and an X-ray-burst
/// helium-flame column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Compressible Sedov-style blast wave (dimensionless, Castro).
    SedovBlast,
    /// Low-Mach reacting bubble in a white-dwarf atmosphere (MAESTROeX).
    ReactingBubble,
    /// Head-on white-dwarf collision (Castro, self-gravity + burning).
    WdCollision,
    /// X-ray-burst helium layer igniting at its base (Castro + burning).
    XrbFlame,
}

impl Scenario {
    /// Stable lowercase name (used in reports and JSONL paths).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::SedovBlast => "sedov_blast",
            Scenario::ReactingBubble => "reacting_bubble",
            Scenario::WdCollision => "wd_collision",
            Scenario::XrbFlame => "xrb_flame",
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which reaction network the job burns with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetChoice {
    /// 2-isotope carbon burning (`C12 → Mg24`).
    CBurn2,
    /// 3-isotope helium burning (`3 He4 → C12`, `C12(α,γ)O16`).
    TripleAlpha,
    /// 7-isotope network through silicon burning.
    Iso7,
    /// 13-isotope α-chain network.
    Aprox13,
}

impl NetChoice {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            NetChoice::CBurn2 => "cburn2",
            NetChoice::TripleAlpha => "triple_alpha",
            NetChoice::Iso7 => "iso7",
            NetChoice::Aprox13 => "aprox13",
        }
    }

    /// Instantiate the network.
    pub fn build(&self) -> Box<dyn Network + Send + Sync> {
        match self {
            NetChoice::CBurn2 => Box::new(CBurn2::new()),
            NetChoice::TripleAlpha => Box::new(TripleAlpha::new()),
            NetChoice::Iso7 => Box::new(Iso7::new()),
            NetChoice::Aprox13 => Box::new(Aprox13::new()),
        }
    }
}

impl std::fmt::Display for NetChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deadline/priority class. Higher classes get a larger fair-share weight
/// and may preempt strictly lower classes when the rank pool is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Throughput work: runs in the gaps, never preempts.
    Batch,
    /// The default class.
    Normal,
    /// Deadline work: may preempt `Batch`/`Normal` victims.
    High,
}

impl PriorityClass {
    /// Fair-share weight (share of the machine under contention).
    pub fn weight(&self) -> f64 {
        match self {
            PriorityClass::Batch => 1.0,
            PriorityClass::Normal => 4.0,
            PriorityClass::High => 16.0,
        }
    }

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            PriorityClass::Batch => "batch",
            PriorityClass::Normal => "normal",
            PriorityClass::High => "high",
        }
    }
}

impl std::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One simulation job, as submitted by a tenant.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which problem to run.
    pub scenario: Scenario,
    /// Which reaction network to burn with (must carry the species the
    /// scenario's initial model needs — validated at submit).
    pub network: NetChoice,
    /// Zones per side of the (cubic) domain.
    pub resolution: i32,
    /// Nodes requested; the job leases `nodes × gpus_per_node` ranks.
    pub nodes: usize,
    /// Steps to advance before the job is complete.
    pub steps: u64,
    /// Deadline/priority class.
    pub priority: PriorityClass,
    /// Soft latency deadline, seconds from submit (finite, ≥ 0); reported
    /// (met or not) in the job record, never enforced by killing.
    pub deadline_s: Option<f64>,
    /// Deterministic burn-fault injection (tests and chaos drills). With
    /// `rungs_to_fail` beyond the retry ladder the job fails
    /// unrecoverably — the service must contain the blast radius.
    pub burn_faults: Option<BurnFaultConfig>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            scenario: Scenario::SedovBlast,
            network: NetChoice::CBurn2,
            resolution: 12,
            nodes: 1,
            steps: 4,
            priority: PriorityClass::Normal,
            deadline_s: None,
            burn_faults: None,
        }
    }
}

impl JobSpec {
    /// Scenario-compatibility and sanity checks, run at submit time.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.resolution < 4 {
            return Err(format!("resolution {} < 4", self.resolution));
        }
        if self.steps == 0 {
            return Err("steps must be >= 1".into());
        }
        if self.nodes == 0 {
            return Err("nodes must be >= 1".into());
        }
        if let Some(d) = self.deadline_s.filter(|d| !(d.is_finite() && *d >= 0.0)) {
            return Err(format!("deadline_s {d} must be finite and >= 0"));
        }
        let net = self.network.build();
        let has = |name: &str| net.species().iter().any(|s| s.name == name);
        match self.scenario {
            Scenario::WdCollision if !has("c12") => {
                Err(format!("wd_collision needs c12; {} lacks it", self.network))
            }
            Scenario::XrbFlame if !has("he4") => {
                Err(format!("xrb_flame needs he4; {} lacks it", self.network))
            }
            _ => Ok(()),
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is full — backpressure; retry later.
    QueueFull {
        /// The configured queue bound the submission ran into.
        bound: usize,
    },
    /// The spec can never run (bad sizes, incompatible network, or a rank
    /// request larger than the whole pool).
    InvalidSpec(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { bound } => {
                write!(f, "admission queue full (bound {bound})")
            }
            SubmitError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_catches_incompatible_networks() {
        let ok = JobSpec::default();
        assert!(ok.validate().is_ok());
        let bad = JobSpec {
            scenario: Scenario::XrbFlame,
            network: NetChoice::CBurn2, // no he4
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let wd = JobSpec {
            scenario: Scenario::WdCollision,
            network: NetChoice::TripleAlpha, // has c12
            ..Default::default()
        };
        assert!(wd.validate().is_ok());
        assert!(JobSpec {
            steps: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn priority_classes_order_and_weight() {
        assert!(PriorityClass::High > PriorityClass::Normal);
        assert!(PriorityClass::Normal > PriorityClass::Batch);
        assert!(PriorityClass::High.weight() > PriorityClass::Normal.weight());
    }
}
