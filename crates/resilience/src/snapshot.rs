//! The in-memory image of a restartable run: every AMR level's geometry
//! and state, the step counters, and any auxiliary 1-D arrays a solver
//! carries outside its `MultiFab`s (e.g. the MAESTROeX hydrostatic base
//! state).
//!
//! A [`Snapshot`] is everything a driver needs to continue **bit-exactly**:
//! restoring one and re-running the loop must reproduce the uninterrupted
//! run byte for byte (ghost zones are not stored — every solver refills
//! them at the top of a step).

use crate::io::{append_blob, append_le_bytes};
use crate::manifest::crc32_update;
use exastro_amr::{Geometry, MultiFab, Real};

/// Step counters of a run: the quantities outside the field data that the
/// time loop needs to continue.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Clock {
    /// Completed steps.
    pub step: u64,
    /// Simulation time.
    pub time: Real,
    /// Last timestep taken (informational; drivers recompute dt from the
    /// restored state, which is what makes the resume bit-exact).
    pub dt: Real,
}

/// One AMR level of a snapshot.
#[derive(Clone, Debug)]
pub struct LevelSnapshot {
    /// The level geometry.
    pub geom: Geometry,
    /// The level state (valid region only; ghosts refill on resume).
    pub state: MultiFab,
    /// Refinement ratio to the next coarser level (1 at the base).
    pub ratio_to_coarser: i32,
}

/// A complete restartable image of a run.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Levels, coarsest first.
    pub levels: Vec<LevelSnapshot>,
    /// Step counters.
    pub clock: Clock,
    /// Component names (shared by all levels).
    pub variables: Vec<String>,
    /// Named auxiliary 1-D arrays (solver-private state such as the
    /// low-Mach base state). Names must be `[A-Za-z0-9_]+`.
    pub aux: Vec<(String, Vec<Real>)>,
}

impl Snapshot {
    /// A single-level snapshot with no auxiliary arrays.
    pub fn single_level(
        geom: Geometry,
        state: MultiFab,
        clock: Clock,
        variables: Vec<String>,
    ) -> Self {
        Snapshot {
            levels: vec![LevelSnapshot {
                geom,
                state,
                ratio_to_coarser: 1,
            }],
            clock,
            variables,
            aux: Vec::new(),
        }
    }

    /// An auxiliary array by name.
    pub fn aux_array(&self, name: &str) -> Option<&[Real]> {
        self.aux
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Payload bytes of the field data (what a checkpoint must move D2H):
    /// valid zones × components × 8 bytes, over all levels, plus the
    /// auxiliary arrays.
    pub fn payload_bytes(&self) -> u64 {
        let mut b = 0u64;
        for l in &self.levels {
            for i in 0..l.state.nfabs() {
                b += l.state.valid_box(i).num_zones() as u64 * l.state.ncomp() as u64 * 8;
            }
        }
        for (_, v) in &self.aux {
            b += v.len() as u64 * 8;
        }
        b
    }

    /// Order-sensitive digest of the full snapshot contents (field bytes,
    /// aux arrays, and the clock). Two runs are bit-identical iff their
    /// digests match; tests and the restart example compare these.
    pub fn digest(&self) -> u64 {
        let mut st = 0xFFFF_FFFFu32;
        let mut blob = Vec::new();
        for l in &self.levels {
            st = digest_multifab_update(st, &l.state, &mut blob);
        }
        for (name, v) in &self.aux {
            st = crc32_update(st, name.as_bytes());
            blob.clear();
            append_le_bytes(&mut blob, v);
            st = crc32_update(st, &blob);
        }
        st = crc32_update(st, &self.clock.step.to_le_bytes());
        st = crc32_update(st, &self.clock.time.to_bits().to_le_bytes());
        let crc = st ^ 0xFFFF_FFFF;
        // Widen with the zone count so trivially different shapes cannot
        // collide on an empty CRC.
        let zones: u64 = self
            .levels
            .iter()
            .map(|l| l.state.box_array().total_zones() as u64)
            .sum();
        ((crc as u64) << 32) | (zones & 0xFFFF_FFFF)
    }
}

/// Hash each fab's checkpoint blob image — the bytes a checkpoint would
/// store — through `blob`, one fab at a time.
fn digest_multifab_update(mut st: u32, mf: &MultiFab, blob: &mut Vec<u8>) -> u32 {
    for i in 0..mf.nfabs() {
        blob.clear();
        append_blob(mf, i, blob);
        st = crc32_update(st, blob);
    }
    st
}

/// CRC32 digest of one `MultiFab`'s valid data (fab-major, component-major
/// within a fab, little-endian) — the hash used by the restart CI gate.
pub fn digest_multifab(mf: &MultiFab) -> u32 {
    digest_states(std::slice::from_ref(mf))
}

/// Digest of a set of per-level states (for drivers that keep states
/// outside a [`Snapshot`]).
pub fn digest_states(states: &[MultiFab]) -> u32 {
    let mut blob = Vec::new();
    let st = states.iter().fold(0xFFFF_FFFFu32, |st, s| {
        digest_multifab_update(st, s, &mut blob)
    });
    st ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::BoxArray;

    fn small_state(seed: Real) -> (Geometry, MultiFab) {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut mf = MultiFab::local(ba, 2, 1);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                for c in 0..2 {
                    let v = seed + (iv.x() + 10 * iv.y() + 100 * iv.z()) as Real + c as Real * 0.5;
                    mf.fab_mut(i).set(iv, c, v);
                }
            }
        }
        (geom, mf)
    }

    #[test]
    fn digest_is_sensitive_to_state_and_clock() {
        let (geom, mf) = small_state(1.0);
        let snap = Snapshot::single_level(
            geom.clone(),
            mf.clone(),
            Clock {
                step: 3,
                time: 0.25,
                dt: 0.01,
            },
            vec!["a".into(), "b".into()],
        );
        let d0 = snap.digest();
        // Same contents, same digest.
        let snap_same = Snapshot::single_level(
            geom.clone(),
            mf.clone(),
            Clock {
                step: 3,
                time: 0.25,
                dt: 0.01,
            },
            vec!["a".into(), "b".into()],
        );
        assert_eq!(snap_same.digest(), d0);
        // One ULP in one zone changes it.
        let (_, mut mf2) = small_state(1.0);
        let iv = mf2.valid_box(0).lo();
        let v = mf2.fab(0).get(iv, 0);
        mf2.fab_mut(0).set(iv, 0, v + v * f64::EPSILON);
        let snap2 = Snapshot::single_level(
            geom.clone(),
            mf2,
            Clock {
                step: 3,
                time: 0.25,
                dt: 0.01,
            },
            vec!["a".into(), "b".into()],
        );
        assert_ne!(snap2.digest(), d0);
        // A different step count changes it.
        let mut snap3 = snap.clone();
        snap3.clock.step = 4;
        assert_ne!(snap3.digest(), d0);
    }

    #[test]
    fn payload_bytes_counts_valid_zones_only() {
        let (geom, mf) = small_state(0.0);
        let mut snap = Snapshot::single_level(geom, mf, Clock::default(), vec![]);
        // 8³ zones × 2 comps × 8 bytes; ghosts excluded.
        assert_eq!(snap.payload_bytes(), 512 * 2 * 8);
        snap.aux.push(("rho0".into(), vec![0.0; 10]));
        assert_eq!(snap.payload_bytes(), 512 * 2 * 8 + 80);
    }
}
