//! Deterministic fault injection for resilience testing.
//!
//! Three failure classes from the acceptance matrix:
//!
//! * **process death** — [`KillSchedule`] tells a driver loop at which
//!   steps to "die" (tests and the restart example model death as an early
//!   return, then re-enter the loop from the last checkpoint);
//! * **data corruption** — [`flip_bit`] and [`truncate_file`] damage a
//!   checkpoint blob on disk the way bit rot and a crashed writer do;
//! * **torn metadata** — [`tear_rename`] reverts a published checkpoint to
//!   the in-flight temp state a crash between write and rename leaves
//!   behind.
//!
//! All injection is deterministic: tests decide exactly what breaks and
//! when, so recovery behaviour is asserted, not sampled.

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A deterministic schedule of steps at which a run is killed.
///
/// Each scheduled step kills the run at most once: after
/// [`KillSchedule::should_die`] returns `true` for a step, that step is
/// consumed, so the relaunched run survives it (like a transient node
/// failure rather than a deterministic crash bug).
#[derive(Clone, Debug, Default)]
pub struct KillSchedule {
    pending: Vec<u64>,
    killed: u64,
}

impl KillSchedule {
    /// Kill the run at each step in `steps` (each at most once).
    pub fn at_steps(steps: &[u64]) -> Self {
        let mut pending = steps.to_vec();
        pending.sort_unstable();
        KillSchedule { pending, killed: 0 }
    }

    /// A schedule that never kills.
    pub fn none() -> Self {
        KillSchedule::default()
    }

    /// Should the run die at `step`? Consumes the scheduled kill.
    pub fn should_die(&mut self, step: u64) -> bool {
        if let Some(pos) = self.pending.iter().position(|&s| s == step) {
            self.pending.remove(pos);
            self.killed += 1;
            true
        } else {
            false
        }
    }

    /// Kills delivered so far.
    pub fn kills_delivered(&self) -> u64 {
        self.killed
    }

    /// Kills still pending.
    pub fn kills_pending(&self) -> usize {
        self.pending.len()
    }
}

/// Truncate `path` to `len` bytes (a crashed writer's partial blob).
pub fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()
}

/// Flip bit `bit` (0 = LSB) of the byte at `offset` in `path` — silent
/// single-bit corruption. Errors if `offset` is past EOF.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> std::io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if offset >= len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("offset {offset} past EOF ({len})"),
        ));
    }
    f.seek(SeekFrom::Start(offset))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= 1 << (bit & 7);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)?;
    f.sync_all()
}

/// Simulate a crash between checkpoint write and publication: rename the
/// finalized checkpoint directory back to a hidden in-flight name and
/// delete its manifest (the manifest is written last, so an in-flight
/// directory never has one). Returns the torn directory's path.
pub fn tear_rename(checkpoint_dir: &Path) -> std::io::Result<PathBuf> {
    let name = checkpoint_dir
        .file_name()
        .ok_or_else(|| std::io::Error::other("checkpoint path has no name"))?
        .to_string_lossy()
        .into_owned();
    let torn = checkpoint_dir.with_file_name(format!(".tmp-{name}"));
    if torn.exists() {
        fs::remove_dir_all(&torn)?;
    }
    fs::rename(checkpoint_dir, &torn)?;
    let manifest = torn.join(crate::io::MANIFEST_NAME);
    if manifest.exists() {
        fs::remove_file(&manifest)?;
    }
    Ok(torn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_fires_each_step_once() {
        let mut ks = KillSchedule::at_steps(&[3, 7]);
        assert!(!ks.should_die(1));
        assert!(ks.should_die(3));
        assert!(!ks.should_die(3)); // consumed: relaunch survives step 3
        assert!(ks.should_die(7));
        assert_eq!(ks.kills_delivered(), 2);
        assert_eq!(ks.kills_pending(), 0);
        assert!(!KillSchedule::none().should_die(0));
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let p = std::env::temp_dir().join(format!("exastro_flip_{}", std::process::id()));
        fs::write(&p, vec![0u8; 16]).unwrap();
        flip_bit(&p, 5, 2).unwrap();
        let data = fs::read(&p).unwrap();
        assert_eq!(data[5], 0b100);
        assert!(data.iter().enumerate().all(|(i, &b)| (i == 5) == (b != 0)));
        assert!(flip_bit(&p, 16, 0).is_err());
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn truncate_shortens_file() {
        let p = std::env::temp_dir().join(format!("exastro_trunc_{}", std::process::id()));
        fs::write(&p, vec![9u8; 256]).unwrap();
        truncate_file(&p, 100).unwrap();
        assert_eq!(fs::metadata(&p).unwrap().len(), 100);
        let _ = fs::remove_file(&p);
    }
}
