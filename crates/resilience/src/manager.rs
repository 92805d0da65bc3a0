//! The checkpoint manager: durable, integrity-checked, self-pruning
//! checkpoint directories with restart and failure fallback.
//!
//! Write protocol (crash-safe at every point):
//!
//! 1. write the snapshot's files (the format module: one directory per
//!    level, `Aux_*.bin`, `Meta`) into a hidden temp directory
//!    (`.tmp-chkNNNNNNNN`), each fsynced, its [`Manifest`] entry taken
//!    from the bytes in hand;
//! 2. write the CRC32 [`Manifest`] **last** — a checkpoint without a
//!    manifest is by definition incomplete;
//! 3. fsync the directories;
//! 4. atomically `rename` the temp directory to `chkNNNNNNNN` and fsync
//!    the root.
//!
//! A crash before (4) leaves only a `.tmp-*` directory, which readers
//! ignore; a torn or bit-rotted checkpoint fails its manifest and
//! [`CheckpointManager::resume`] falls back to the previous one. A restore
//! reads each file once and checks size and CRC on the very bytes it then
//! decodes — verify what you decode, not verify and then re-open.
//! Writes retry with bounded exponential backoff (transient filesystem
//! failures are injectable through [`CheckpointManager::inject_write_faults`]).
//!
//! Cost accounting: the whole write/read runs under the `io/checkpoint`
//! telemetry region with its byte count recorded. The §III D2H copy a GPU
//! build would add is priced by `exastro-machine`, not here.

use crate::io::{
    check_snapshot, read_snapshot, sync_dir, write_files, write_synced, MANIFEST_NAME,
};
use crate::manifest::Manifest;
use crate::snapshot::Snapshot;
use exastro_telemetry::Telemetry;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Errors from checkpoint management.
#[derive(Debug)]
pub enum Error {
    /// Underlying filesystem error, including a file the manifest lists
    /// that cannot be read.
    Io(std::io::Error),
    /// Malformed checkpoint contents.
    Format(String),
    /// Integrity verification failed (manifest mismatch).
    Corrupt(String),
    /// No (intact) checkpoint exists to restore from.
    NoCheckpoint,
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Error::Format(m) => write!(f, "checkpoint format error: {m}"),
            Error::Corrupt(m) => write!(f, "checkpoint integrity error: {m}"),
            Error::NoCheckpoint => write!(f, "no intact checkpoint available"),
        }
    }
}

impl std::error::Error for Error {}

/// Attempts a checkpoint write makes before it gives up.
const WRITE_ATTEMPTS: u32 = 3;
/// The backoff before retry k is `BASE_BACKOFF × 2^(k-1)`, capped at
/// `MAX_BACKOFF`.
const BASE_BACKOFF: Duration = Duration::from_millis(2);
const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// Aggregate manager statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Checkpoints successfully written.
    pub writes: u64,
    /// Write attempts that failed and were retried (or gave up).
    pub write_failures: u64,
    /// Payload bytes written (sum over successful checkpoints).
    pub bytes_written: u64,
    /// Checkpoints found corrupt during scans/restores.
    pub corrupt_detected: u64,
    /// Snapshots restored.
    pub restores: u64,
    /// Checkpoints removed by retention pruning.
    pub pruned: u64,
}

type WriteFaultFn = Box<dyn FnMut(u64, u32) -> Option<std::io::Error> + Send>;

/// Manages a directory of rotating, integrity-checked checkpoints.
pub struct CheckpointManager {
    root: PathBuf,
    keep: usize,
    write_faults: Mutex<Option<WriteFaultFn>>,
    stats: Mutex<ManagerStats>,
}

impl CheckpointManager {
    /// Create a manager rooted at `root` (created if absent). Defaults:
    /// keep the last 2 checkpoints, 3 write attempts.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, Error> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CheckpointManager {
            root,
            keep: 2,
            write_faults: Mutex::new(None),
            stats: Mutex::new(ManagerStats::default()),
        })
    }

    /// Retain only the newest `k` checkpoints (k ≥ 1).
    pub fn keep_last(mut self, k: usize) -> Self {
        self.keep = k.max(1);
        self
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ManagerStats {
        *self.stats.lock().unwrap()
    }

    /// Inject deterministic write faults: `f(step, attempt)` returning
    /// `Some(err)` makes that write attempt fail before touching disk.
    /// Pass-through (`None`) attempts proceed normally.
    pub fn inject_write_faults(
        &self,
        f: impl FnMut(u64, u32) -> Option<std::io::Error> + Send + 'static,
    ) {
        *self.write_faults.lock().unwrap() = Some(Box::new(f));
    }

    /// Directory name of the checkpoint for `step`.
    pub fn checkpoint_name(step: u64) -> String {
        format!("chk{step:08}")
    }

    /// All complete-looking checkpoints (final-named directories), as
    /// `(step, path)` sorted ascending by step. Integrity is *not* checked
    /// here; use [`CheckpointManager::latest_good`] for that.
    pub fn checkpoints(&self) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        if let Ok(rd) = fs::read_dir(&self.root) {
            for entry in rd.flatten() {
                let p = entry.path();
                if !p.is_dir() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(step) = name.strip_prefix("chk").and_then(|s| s.parse::<u64>().ok()) {
                    out.push((step, p));
                }
            }
        }
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Verify the integrity of the checkpoint at `dir` via its manifest.
    pub fn verify(dir: &Path) -> Result<(), Error> {
        Manifest::load(dir)?.verify(dir)
    }

    /// The newest checkpoint that passes integrity verification, skipping
    /// (and counting) corrupt ones.
    pub fn latest_good(&self) -> Option<(u64, PathBuf)> {
        for (step, path) in self.checkpoints().into_iter().rev() {
            match Self::verify(&path) {
                Ok(()) => return Some((step, path)),
                Err(_) => {
                    self.stats.lock().unwrap().corrupt_detected += 1;
                }
            }
        }
        None
    }

    /// Write `snap` durably, in up to three attempts with bounded
    /// exponential backoff. Returns the final checkpoint path. A snapshot
    /// that could not read back as itself — a variable name count other
    /// than some level's component count, a name that is empty or holds
    /// whitespace, an aux name outside `[A-Za-z0-9_]+` — is an
    /// [`Error::Format`] before anything is written, and is not retried.
    pub fn write(&self, snap: &Snapshot) -> Result<PathBuf, Error> {
        let _r = Telemetry::region("io/checkpoint");
        check_snapshot(snap)?;
        let bytes = snap.payload_bytes();
        let mut backoff = BASE_BACKOFF;
        let mut last_err: Error = Error::NoCheckpoint;
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            let injected = {
                let mut g = self.write_faults.lock().unwrap();
                g.as_mut().and_then(|f| f(snap.clock.step, attempt))
            };
            let result = match injected {
                Some(e) => Err(Error::Io(e)),
                None => self.write_once(snap),
            };
            match result {
                Ok(path) => {
                    let mut st = self.stats.lock().unwrap();
                    st.writes += 1;
                    st.bytes_written += bytes;
                    drop(st);
                    Telemetry::record_bytes(bytes);
                    self.prune();
                    return Ok(path);
                }
                Err(e) => {
                    self.stats.lock().unwrap().write_failures += 1;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn write_once(&self, snap: &Snapshot) -> Result<PathBuf, Error> {
        let name = Self::checkpoint_name(snap.clock.step);
        let tmp = self.root.join(format!(".tmp-{name}"));
        let fin = self.root.join(&name);
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir_all(&tmp)?;
        let entries = write_files(&tmp, snap)?;
        // The manifest is written last: its presence certifies completeness.
        let manifest = Manifest::new(entries);
        write_synced(&tmp.join(MANIFEST_NAME), manifest.to_text().as_bytes())?;
        sync_dir(&tmp);
        if fin.exists() {
            fs::remove_dir_all(&fin)?;
        }
        fs::rename(&tmp, &fin)?;
        sync_dir(&self.root);
        Ok(fin)
    }

    /// Restore the snapshot stored at `dir`. Every file is read once and
    /// checked against the manifest before a byte of it is decoded;
    /// [`Error::Corrupt`] on any mismatch, [`Error::Io`] for a listed file
    /// that cannot be read, [`Error::Format`] for checked contents that do
    /// not decode or that [`CheckpointManager::write`] would have refused.
    pub fn restore(&self, dir: &Path) -> Result<Snapshot, Error> {
        let _r = Telemetry::region("io/checkpoint");
        let snap = read_snapshot(dir)?;
        Telemetry::record_bytes(snap.payload_bytes());
        self.stats.lock().unwrap().restores += 1;
        Ok(snap)
    }

    /// Resume from the newest intact checkpoint, falling back past (and
    /// counting) corrupt ones and ones with a listed file that cannot be
    /// read. [`Error::NoCheckpoint`] if none survives.
    pub fn resume(&self) -> Result<Snapshot, Error> {
        for (_, path) in self.checkpoints().into_iter().rev() {
            match self.restore(&path) {
                Err(Error::Corrupt(_) | Error::Io(_)) => {
                    self.stats.lock().unwrap().corrupt_detected += 1
                }
                other => return other,
            }
        }
        Err(Error::NoCheckpoint)
    }

    /// Drop all but the newest `keep` checkpoints.
    fn prune(&self) {
        let cks = self.checkpoints();
        if cks.len() <= self.keep {
            return;
        }
        let n_drop = cks.len() - self.keep;
        for (_, path) in cks.into_iter().take(n_drop) {
            if fs::remove_dir_all(&path).is_ok() {
                self.stats.lock().unwrap().pruned += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults;
    use crate::snapshot::Clock;
    use exastro_amr::{BoxArray, Geometry, MultiFab, Real};

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exastro_mgr_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn snap_at(step: u64, seed: Real) -> Snapshot {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut mf = MultiFab::local(ba, 2, 1);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                for c in 0..2 {
                    let v = seed + (iv.x() * 3 + iv.y() * 5 + iv.z() * 7 + c as i32) as Real * 0.01;
                    mf.fab_mut(i).set(iv, c, v);
                }
            }
        }
        let mut s = Snapshot::single_level(
            geom,
            mf,
            Clock {
                step,
                time: step as Real * 0.125,
                dt: 0.125,
            },
            vec!["a".into(), "b".into()],
        );
        s.aux
            .push(("rho0".into(), vec![seed, seed * 2.0, seed * 3.0]));
        s
    }

    #[test]
    fn write_restore_roundtrip_is_exact() {
        let root = tmp_root("roundtrip");
        let mgr = CheckpointManager::new(&root).unwrap();
        let snap = snap_at(7, 1.5);
        let path = mgr.write(&snap).unwrap();
        assert!(path.ends_with("chk00000007"));
        let back = mgr.restore(&path).unwrap();
        assert_eq!(back.digest(), snap.digest());
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.variables, snap.variables);
        assert_eq!(back.aux_array("rho0").unwrap(), &[1.5, 3.0, 4.5]);
        let st = mgr.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.restores, 1);
        assert_eq!(st.bytes_written, snap.payload_bytes());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_keeps_last_k() {
        let root = tmp_root("retention");
        let mgr = CheckpointManager::new(&root).unwrap().keep_last(2);
        for step in [1, 2, 3, 4] {
            mgr.write(&snap_at(step, step as Real)).unwrap();
        }
        let cks = mgr.checkpoints();
        let steps: Vec<u64> = cks.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![3, 4]);
        assert_eq!(mgr.stats().pruned, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let root = tmp_root("fallback");
        let mgr = CheckpointManager::new(&root).unwrap().keep_last(3);
        mgr.write(&snap_at(2, 2.0)).unwrap();
        let newest = mgr.write(&snap_at(4, 4.0)).unwrap();
        // Bit-flip one payload blob in the newest checkpoint.
        faults::flip_bit(&newest.join("Level_00/fab_00000.bin"), 64, 3).unwrap();
        let (step, _) = mgr.latest_good().unwrap();
        assert_eq!(step, 2);
        let snap = mgr.resume().unwrap();
        assert_eq!(snap.clock.step, 2);
        assert!(mgr.stats().corrupt_detected >= 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_flipped_manifest_size_falls_back_like_latest_good() {
        // One bit of MANIFEST turns a blob's recorded size 8192 into 8193:
        // damage, not a format fault, so resume passes the checkpoint by
        // exactly as latest_good does.
        let root = tmp_root("sizeflip");
        let mgr = CheckpointManager::new(&root).unwrap().keep_last(3);
        mgr.write(&snap_at(2, 2.0)).unwrap();
        let newest = mgr.write(&snap_at(4, 4.0)).unwrap();
        let manifest = newest.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest).unwrap();
        let at = text.find(" 8192 Level_00/fab_00000.bin").unwrap() + 4;
        faults::flip_bit(&manifest, at as u64, 0).unwrap();
        assert!(fs::read_to_string(&manifest)
            .unwrap()
            .contains(" 8193 Level_00/fab_00000.bin"));
        assert!(matches!(mgr.restore(&newest), Err(Error::Corrupt(_))));
        assert_eq!(mgr.latest_good().unwrap().0, 2);
        assert_eq!(mgr.resume().unwrap().clock.step, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_blob_is_detected() {
        let root = tmp_root("trunc");
        let mgr = CheckpointManager::new(&root).unwrap();
        let p = mgr.write(&snap_at(1, 1.0)).unwrap();
        faults::truncate_file(&p.join("Level_00/fab_00000.bin"), 100).unwrap();
        assert!(matches!(
            CheckpointManager::verify(&p),
            Err(Error::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_rename_leftover_is_invisible_and_manifestless_dir_is_corrupt() {
        let root = tmp_root("torn");
        let mgr = CheckpointManager::new(&root).unwrap().keep_last(3);
        mgr.write(&snap_at(3, 3.0)).unwrap();
        let newest = mgr.write(&snap_at(6, 6.0)).unwrap();
        // Simulate a crash mid-write: the checkpoint reverts to a temp-named
        // directory with no manifest (what a torn rename leaves behind).
        let torn = faults::tear_rename(&newest).unwrap();
        assert!(torn.file_name().unwrap().to_string_lossy().starts_with('.'));
        // Scans ignore the temp leftover entirely.
        assert_eq!(mgr.checkpoints().len(), 1);
        let (step, _) = mgr.latest_good().unwrap();
        assert_eq!(step, 3);
        // A final-named dir with a deleted manifest is detected as corrupt.
        let p6 = root.join(CheckpointManager::checkpoint_name(6));
        fs::rename(&torn, &p6).unwrap();
        assert!(matches!(
            CheckpointManager::verify(&p6),
            Err(Error::Corrupt(_))
        ));
        assert_eq!(mgr.latest_good().unwrap().0, 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn write_faults_retry_with_backoff_then_succeed() {
        let root = tmp_root("retry");
        let mgr = CheckpointManager::new(&root).unwrap();
        // Fail the first two attempts of every write.
        mgr.inject_write_faults(|_step, attempt| {
            (attempt < 2).then(|| std::io::Error::other("injected ENOSPC"))
        });
        let p = mgr.write(&snap_at(5, 5.0)).unwrap();
        CheckpointManager::verify(&p).unwrap();
        let st = mgr.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.write_failures, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let root = tmp_root("giveup");
        let mgr = CheckpointManager::new(&root).unwrap();
        mgr.inject_write_faults(|_, _| Some(std::io::Error::other("disk on fire")));
        assert!(matches!(mgr.write(&snap_at(9, 9.0)), Err(Error::Io(_))));
        assert_eq!(mgr.stats().writes, 0);
        assert_eq!(mgr.stats().write_failures, u64::from(WRITE_ATTEMPTS));
        // No half-written checkpoint became visible.
        assert!(mgr.checkpoints().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    /// No `.tmp-*` or final directory under `root`.
    fn nothing_written(root: &Path) -> bool {
        fs::read_dir(root).unwrap().next().is_none()
    }

    #[test]
    fn a_name_count_other_than_ncomp_is_a_format_error_and_writes_nothing() {
        let root = tmp_root("namecount");
        let mgr = CheckpointManager::new(&root).unwrap();
        for names in [
            vec!["a".to_string()],
            vec!["a".into(), "b".into(), "c".into()],
        ] {
            let mut snap = snap_at(1, 1.0);
            snap.variables = names;
            assert!(matches!(mgr.write(&snap), Err(Error::Format(_))));
        }
        assert!(nothing_written(&root));
        // Rejected once, before the retry loop.
        assert_eq!(mgr.stats().write_failures, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn names_that_would_not_read_back_are_format_errors_in_every_build() {
        let root = tmp_root("badnames");
        let mgr = CheckpointManager::new(&root).unwrap();
        let mut bad = Vec::new();
        for v in ["", "b c"] {
            let mut snap = snap_at(1, 1.0);
            snap.variables[1] = v.into();
            bad.push(snap);
        }
        for aux in ["", "rho 0", "rho/0", "ρ0"] {
            let mut snap = snap_at(1, 1.0);
            snap.aux[0].0 = aux.into();
            bad.push(snap);
        }
        for snap in &bad {
            match mgr.write(snap) {
                Err(Error::Format(_)) => {}
                other => panic!("{:?} / {:?}: {other:?}", snap.variables, snap.aux[0].0),
            }
        }
        assert!(nothing_written(&root));
        assert_eq!(mgr.stats().write_failures, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
