//! Whole-machine failure model: node crashes and stragglers, advancing
//! with simulated time.
//!
//! The resilience stack already prices failures (Young/Daly in
//! `exastro-resilience`) and injects burn-level and file-level faults, but
//! until now the simulated *cluster* was immortal. [`NodeFaultModel`]
//! closes that gap: a deterministic, seeded process model in which each
//! node draws exponential waiting times to its next crash (MTBF-driven,
//! matching the §V sizing where machine MTBF shrinks as `1/N`), and
//! transient stragglers multiply a node's step cost for a bounded window.
//!
//! The model is pure mechanism: it owns no scheduler state and kills no
//! jobs itself. A scheduler advances it with the simulated clock
//! ([`NodeFaultModel::advance`]), receives the ordered [`FaultEvent`]s of
//! the window, applies the kills to its [`crate::RankPool`], and decides
//! what to do about the jobs whose leases died. Determinism is the whole
//! point: a given `(seed, MTBF, horizon)` always produces the same
//! failure schedule, so chaos tests can assert bit-exact recovery.

/// Configuration of the whole-machine failure process. All times are in
/// *simulated* seconds (the same clock [`crate::Machine::simulate_step`]
/// prices). `f64::INFINITY` disables the corresponding process, which is
/// also the [`Default`]: a default-constructed config injects nothing.
#[derive(Clone, Debug)]
pub struct NodeFaultConfig {
    /// Seed of the deterministic failure schedule. Every node derives an
    /// independent stream from this, so schedules are stable under
    /// changes to the node count of *other* nodes' histories.
    pub seed: u64,
    /// Mean time between crashes of a single node, seconds
    /// (exponentially distributed waiting times). `INFINITY` disables
    /// crashes.
    pub node_mtbf_s: f64,
    /// When `Some(t)`, a crashed node returns to service `t` simulated
    /// seconds after it died; `None` means dead nodes never come back
    /// (capacity shrinks for the rest of the run).
    pub repair_s: Option<f64>,
    /// Mean time between straggler onsets per node, seconds. `INFINITY`
    /// disables stragglers.
    pub straggler_mtbf_s: f64,
    /// Step-cost multiplier a straggling node imposes on every rank it
    /// hosts (≥ 1).
    pub straggler_factor: f64,
    /// How long one straggler episode lasts, simulated seconds.
    pub straggler_duration_s: f64,
}

impl Default for NodeFaultConfig {
    fn default() -> Self {
        NodeFaultConfig {
            seed: 0,
            node_mtbf_s: f64::INFINITY,
            repair_s: None,
            straggler_mtbf_s: f64::INFINITY,
            straggler_factor: 4.0,
            straggler_duration_s: 30.0,
        }
    }
}

/// One event in the failure schedule, emitted by
/// [`NodeFaultModel::advance`] in simulated-time order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A node crashed: every rank on it is dead until (and unless) a
    /// matching [`FaultEvent::NodeRepaired`] arrives.
    NodeKilled {
        /// The node that died.
        node: usize,
        /// Simulated time of death, seconds.
        at_s: f64,
    },
    /// A previously crashed node returned to service.
    NodeRepaired {
        /// The node that recovered.
        node: usize,
        /// Simulated time of recovery, seconds.
        at_s: f64,
    },
    /// A node began straggling: its step cost is multiplied by `factor`.
    StragglerBegan {
        /// The slow node.
        node: usize,
        /// The step-cost multiplier now in effect.
        factor: f64,
        /// Simulated onset time, seconds.
        at_s: f64,
    },
    /// A straggler episode ended; the node runs at full speed again.
    StragglerEnded {
        /// The recovered node.
        node: usize,
        /// Simulated end time, seconds.
        at_s: f64,
    },
}

impl FaultEvent {
    /// Simulated time of the event, seconds.
    pub fn at_s(&self) -> f64 {
        match *self {
            FaultEvent::NodeKilled { at_s, .. }
            | FaultEvent::NodeRepaired { at_s, .. }
            | FaultEvent::StragglerBegan { at_s, .. }
            | FaultEvent::StragglerEnded { at_s, .. } => at_s,
        }
    }
}

/// Uniform draw in `[0, 1)` with 53 bits of entropy.
fn u01(state: &mut u64) -> f64 {
    (exastro_parallel::splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential waiting time with mean `mtbf` (infinite when disabled).
fn exp_sample(state: &mut u64, mtbf: f64) -> f64 {
    if !mtbf.is_finite() || mtbf <= 0.0 {
        return f64::INFINITY;
    }
    -mtbf * (1.0 - u01(state)).ln()
}

/// Per-node failure-process state.
#[derive(Clone, Debug)]
struct NodeState {
    rng: u64,
    /// Next crash time (only meaningful while alive).
    crash_at: f64,
    /// `Some(t)` while dead: the repair time (`INFINITY` = never).
    repair_at: Option<f64>,
    /// Next straggler onset (only fires while alive and not straggling).
    straggle_at: f64,
    /// End of the current straggler episode (`None` when healthy).
    straggle_until: Option<f64>,
}

/// The deterministic whole-machine failure process. See the module docs
/// for the contract; the short version: call
/// [`advance`](NodeFaultModel::advance) with the new simulated time and
/// apply the returned events.
#[derive(Clone, Debug)]
pub struct NodeFaultModel {
    cfg: NodeFaultConfig,
    nodes: Vec<NodeState>,
    now_s: f64,
    kills: u64,
}

impl NodeFaultModel {
    /// A failure process over `nodes` nodes with schedule `cfg`.
    pub fn new(cfg: NodeFaultConfig, nodes: usize) -> Self {
        let mut states = Vec::with_capacity(nodes);
        for node in 0..nodes {
            // Independent per-node streams: stable under reseeding of
            // neighbours and under node-count changes.
            let mut rng = cfg.seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let crash_at = exp_sample(&mut rng, cfg.node_mtbf_s);
            let straggle_at = exp_sample(&mut rng, cfg.straggler_mtbf_s);
            states.push(NodeState {
                rng,
                crash_at,
                repair_at: None,
                straggle_at,
                straggle_until: None,
            });
        }
        NodeFaultModel {
            cfg,
            nodes: states,
            now_s: 0.0,
            kills: 0,
        }
    }

    /// The configuration this model runs.
    pub fn config(&self) -> &NodeFaultConfig {
        &self.cfg
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Total node crashes injected so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// True while `node` is crashed.
    pub fn is_dead(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(|n| n.repair_at.is_some())
    }

    /// Step-cost multiplier currently in effect on `node`: the straggler
    /// factor while the node straggles, 1.0 otherwise.
    pub fn slowdown(&self, node: usize) -> f64 {
        match self.nodes.get(node) {
            Some(n) if n.straggle_until.is_some() => self.cfg.straggler_factor,
            _ => 1.0,
        }
    }

    /// Nodes currently straggling (ascending).
    pub fn straggling_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.straggle_until.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// The earliest pending event time across all nodes.
    fn next_event_s(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| match n.repair_at {
                Some(r) => r,
                None => n.crash_at.min(n.straggle_until.unwrap_or(n.straggle_at)),
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Advance the process to simulated time `to_s`, returning every
    /// event in the window `(now, to_s]` in time order. Idempotent for
    /// `to_s <= now`.
    pub fn advance(&mut self, to_s: f64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        while self.next_event_s() <= to_s {
            let t = self.next_event_s();
            // Find the node owning time t.
            let mut fired = false;
            for i in 0..self.nodes.len() {
                let n = &mut self.nodes[i];
                if let Some(repair) = n.repair_at {
                    if repair <= t {
                        n.repair_at = None;
                        n.crash_at = repair + exp_sample(&mut n.rng, self.cfg.node_mtbf_s);
                        n.straggle_at = repair + exp_sample(&mut n.rng, self.cfg.straggler_mtbf_s);
                        events.push(FaultEvent::NodeRepaired {
                            node: i,
                            at_s: repair,
                        });
                        fired = true;
                        break;
                    }
                    continue;
                }
                if let Some(until) = n.straggle_until {
                    if until <= t {
                        n.straggle_until = None;
                        n.straggle_at = until + exp_sample(&mut n.rng, self.cfg.straggler_mtbf_s);
                        events.push(FaultEvent::StragglerEnded {
                            node: i,
                            at_s: until,
                        });
                        fired = true;
                        break;
                    }
                }
                if n.crash_at <= t {
                    let at = n.crash_at;
                    n.repair_at = Some(match self.cfg.repair_s {
                        Some(r) => at + r,
                        None => f64::INFINITY,
                    });
                    // A crash ends any straggler episode with it.
                    n.straggle_until = None;
                    self.kills += 1;
                    events.push(FaultEvent::NodeKilled { node: i, at_s: at });
                    fired = true;
                    break;
                }
                if n.straggle_until.is_none() && n.straggle_at <= t {
                    let at = n.straggle_at;
                    n.straggle_until = Some(at + self.cfg.straggler_duration_s);
                    events.push(FaultEvent::StragglerBegan {
                        node: i,
                        factor: self.cfg.straggler_factor,
                        at_s: at,
                    });
                    fired = true;
                    break;
                }
            }
            debug_assert!(fired, "next_event_s produced a time no process owns");
            if !fired {
                break;
            }
        }
        self.now_s = self.now_s.max(to_s);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_cfg(seed: u64) -> NodeFaultConfig {
        NodeFaultConfig {
            seed,
            node_mtbf_s: 100.0,
            repair_s: Some(50.0),
            straggler_mtbf_s: 80.0,
            straggler_factor: 3.0,
            straggler_duration_s: 25.0,
        }
    }

    #[test]
    fn default_config_injects_nothing() {
        let mut m = NodeFaultModel::new(NodeFaultConfig::default(), 16);
        assert!(m.advance(1e9).is_empty());
        assert_eq!(m.kills(), 0);
        for n in 0..16 {
            assert!(!m.is_dead(n));
            assert_eq!(m.slowdown(n), 1.0);
        }
    }

    #[test]
    fn schedule_is_deterministic_and_time_ordered() {
        let a = NodeFaultModel::new(chaos_cfg(42), 8).advance(500.0);
        let b = NodeFaultModel::new(chaos_cfg(42), 8).advance(500.0);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(!a.is_empty(), "this config must actually fire");
        for w in a.windows(2) {
            assert!(w[0].at_s() <= w[1].at_s(), "events must be time-ordered");
        }
        let c = NodeFaultModel::new(chaos_cfg(43), 8).advance(500.0);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn incremental_advance_matches_one_shot() {
        let mut inc = NodeFaultModel::new(chaos_cfg(7), 6);
        let mut got = Vec::new();
        let mut t = 0.0f64;
        while t < 400.0 {
            t += 13.7;
            got.extend(inc.advance(t.min(400.0)));
        }
        let want = NodeFaultModel::new(chaos_cfg(7), 6).advance(400.0);
        assert_eq!(got, want, "chunked advance must replay the same schedule");
    }

    #[test]
    fn kills_scale_with_mtbf() {
        let harsh = NodeFaultConfig {
            node_mtbf_s: 50.0,
            ..chaos_cfg(9)
        };
        let mild = NodeFaultConfig {
            node_mtbf_s: 5000.0,
            ..chaos_cfg(9)
        };
        let mut mh = NodeFaultModel::new(harsh, 16);
        let mut mm = NodeFaultModel::new(mild, 16);
        mh.advance(1000.0);
        mm.advance(1000.0);
        assert!(
            mh.kills() > 3 * (mm.kills() + 1),
            "harsh {} vs mild {}",
            mh.kills(),
            mm.kills()
        );
    }

    #[test]
    fn dead_nodes_repair_on_schedule() {
        let cfg = NodeFaultConfig {
            node_mtbf_s: 30.0,
            repair_s: Some(10.0),
            straggler_mtbf_s: f64::INFINITY,
            ..Default::default()
        };
        let mut m = NodeFaultModel::new(cfg, 4);
        let events = m.advance(2000.0);
        let mut deaths = 0;
        let mut repairs = 0;
        let mut dead: Vec<Option<f64>> = vec![None; 4];
        for e in events {
            match e {
                FaultEvent::NodeKilled { node, at_s } => {
                    assert!(dead[node].is_none(), "killed while already dead");
                    dead[node] = Some(at_s);
                    deaths += 1;
                }
                FaultEvent::NodeRepaired { node, at_s } => {
                    let died = dead[node].expect("repaired while alive");
                    assert!((at_s - died - 10.0).abs() < 1e-9, "repair_s must be exact");
                    dead[node] = None;
                    repairs += 1;
                }
                _ => {}
            }
        }
        assert!(deaths > 10, "30s MTBF over 2000s must kill often: {deaths}");
        assert!(
            repairs >= deaths - 4,
            "every death (except trailing) repairs"
        );
    }

    #[test]
    fn no_repair_means_dead_forever() {
        let cfg = NodeFaultConfig {
            node_mtbf_s: 20.0,
            repair_s: None,
            ..Default::default()
        };
        let mut m = NodeFaultModel::new(cfg, 3);
        let events = m.advance(10_000.0);
        let deaths = events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeKilled { .. }))
            .count();
        assert_eq!(deaths, 3, "each node dies exactly once, never returns");
        for n in 0..3 {
            assert!(m.is_dead(n));
        }
    }

    #[test]
    fn straggler_windows_slow_then_recover() {
        let cfg = NodeFaultConfig {
            straggler_mtbf_s: 40.0,
            straggler_factor: 5.0,
            straggler_duration_s: 15.0,
            ..Default::default()
        };
        let mut m = NodeFaultModel::new(cfg, 2);
        // Advance until the first onset.
        let mut t = 0.0;
        let mut began = None;
        'outer: while t < 5000.0 {
            t += 1.0;
            for e in m.advance(t) {
                if let FaultEvent::StragglerBegan { node, factor, .. } = e {
                    assert_eq!(factor, 5.0);
                    began = Some((node, t));
                    break 'outer;
                }
            }
        }
        let (node, t0) = began.expect("a straggler must begin");
        assert_eq!(m.slowdown(node), 5.0, "straggling node is slow");
        assert!(!m.is_dead(node), "straggling is not dead");
        assert_eq!(m.straggling_nodes(), vec![node]);
        m.advance(t0 + 16.0);
        assert_eq!(m.slowdown(node), 1.0, "episode must end after duration");
        assert!(m.straggling_nodes().is_empty());
    }

    /// The schedule of crashes, repairs and stragglers on four nodes over
    /// two simulated seconds, advanced in uneven chunks, pinned by count
    /// and by an FNV-1a hash over every event's (variant, node, time bits,
    /// factor bits). A change to the fault model that moves one draw
    /// fails here.
    #[test]
    fn a_crash_repair_straggler_schedule_is_pinned() {
        let cfg = NodeFaultConfig {
            seed: 0x5EED_F00D,
            node_mtbf_s: 0.3,
            repair_s: Some(0.08),
            straggler_mtbf_s: 0.25,
            straggler_factor: 3.5,
            straggler_duration_s: 0.06,
        };
        let mut m = NodeFaultModel::new(cfg, 4);
        let mut events = Vec::new();
        let (mut t, mut k) = (0.0f64, 0);
        while t < 2.0 {
            t = (t + [0.013, 0.2, 0.071, 0.0049][k % 4]).min(2.0);
            k += 1;
            events.extend(m.advance(t));
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut seen = [0usize; 4];
        for e in &events {
            let (variant, node, factor) = match *e {
                FaultEvent::NodeKilled { node, .. } => (0, node, 0.0),
                FaultEvent::NodeRepaired { node, .. } => (1, node, 0.0),
                FaultEvent::StragglerBegan { node, factor, .. } => (2, node, factor),
                FaultEvent::StragglerEnded { node, .. } => (3, node, 0.0),
            };
            seen[variant] += 1;
            for word in [
                variant as u64,
                node as u64,
                e.at_s().to_bits(),
                factor.to_bits(),
            ] {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every process fires: {seen:?}");
        assert_eq!((events.len(), hash), (75, 13_982_728_646_402_738_690));
    }
}
