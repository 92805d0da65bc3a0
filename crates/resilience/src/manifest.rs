//! Integrity manifests: a CRC32 + size record for every file of a
//! checkpoint directory, written last so a complete manifest implies a
//! complete checkpoint.
//!
//! The manifest is the corruption detector: a truncated blob changes its
//! size, a bit flip changes its CRC, a torn write leaves no manifest at
//! all. Verification walks every listed file and recomputes both.

use crate::io::Lines;
/// The manifest's file name, also re-exported at the crate root beside the
/// format's other names; kept here for callers of this module's path.
pub use crate::io::MANIFEST_NAME;
use crate::manager::Error;
use std::fs;
use std::path::Path;

const MAGIC: &str = "exastro-manifest-v1";

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte table (the CRC of
/// byte `b` followed by nothing), `TABLES[k][b]` the CRC of `b` followed
/// by `k` zero bytes — so eight input bytes fold into the state with eight
/// independent look-ups instead of sixty-four dependent shift-xor rounds.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut round = 0;
        while round < 8 {
            c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
            round += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming CRC32 update: feed `state = 0xFFFF_FFFF`, then chunks, then
/// XOR the result with `0xFFFF_FFFF`. Chunks may be split and aligned
/// anyhow; the value is that of the bitwise definition (kept as the test
/// reference below).
///
/// Slice-by-8 because this is the checkpoint path's inner loop and the
/// disk does not hide it: measured on the CI host, the bitwise form hashes
/// ~210 MB/s (`resilience.digest_ms` 36–38 for a 7.96 MB state, below the
/// 250–350 MB/s the same state is written *and fsynced* at), this one
/// ~1.7 GB/s on a blob in cache (`digest_ms` ~7 for that state).
/// EXPERIMENTS "Checkpoints at memory speed" has the before/after tables.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// One manifest entry: a file's checkpoint-relative path, size, and CRC32.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path relative to the checkpoint directory (`/`-separated).
    pub rel_path: String,
    /// File size in bytes.
    pub size: u64,
    /// CRC32 of the file contents.
    pub crc: u32,
}

impl ManifestEntry {
    /// The entry of a file at `rel_path` holding exactly `bytes`.
    pub fn of(rel_path: impl Into<String>, bytes: &[u8]) -> Self {
        ManifestEntry {
            rel_path: rel_path.into(),
            size: bytes.len() as u64,
            crc: crc32(bytes),
        }
    }

    /// Read the file from checkpoint directory `dir` and check it against
    /// the recorded size and CRC: the bytes returned are the bytes that
    /// passed. A file that cannot be read is an [`Error::Io`]; a size or
    /// CRC discrepancy is an [`Error::Corrupt`].
    pub fn read_checked(&self, dir: &Path) -> Result<Vec<u8>, Error> {
        let bytes = fs::read(dir.join(&self.rel_path))?;
        let size = bytes.len() as u64;
        if size != self.size {
            return Err(Error::Corrupt(format!(
                "{}: size {} != recorded {}",
                self.rel_path, size, self.size
            )));
        }
        let crc = crc32(&bytes);
        if crc != self.crc {
            return Err(Error::Corrupt(format!(
                "{}: crc {:08x} != recorded {:08x}",
                self.rel_path, crc, self.crc
            )));
        }
        Ok(bytes)
    }
}

/// The integrity manifest of one checkpoint directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Entries, sorted by relative path.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// A manifest of `entries`, sorted by relative path.
    pub fn new(mut entries: Vec<ManifestEntry>) -> Self {
        entries.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Manifest { entries }
    }

    /// Total payload bytes covered by the manifest.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Serialize to the text format stored as `MANIFEST`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(MAGIC);
        s.push('\n');
        s.push_str(&format!("nfiles {}\n", self.entries.len()));
        for e in &self.entries {
            s.push_str(&format!("{:08x} {} {}\n", e.crc, e.size, e.rel_path));
        }
        s
    }

    /// Load the manifest stored inside checkpoint directory `dir`. A
    /// manifest that is absent or does not parse is an [`Error::Corrupt`]:
    /// the manifest is written last, so its state is the checkpoint's.
    pub fn load(dir: &Path) -> Result<Self, Error> {
        let text = fs::read(dir.join(MANIFEST_NAME))
            .map_err(|e| Error::Corrupt(format!("no manifest: {e}")))?;
        let parse = || {
            let mut lines = Lines::new("MANIFEST", &text, MAGIC)?;
            let nfiles: usize = lines.value("nfiles")?;
            let mut entries = Vec::new();
            for _ in 0..nfiles {
                let line = lines.line()?;
                let (crc, size, rel_path) = line
                    .split_once(' ')
                    .and_then(|(crc, rest)| Some((crc, rest.split_once(' ')?)))
                    .map(|(crc, (size, path))| (crc, size, path))
                    .ok_or_else(|| lines.error(format!("bad entry '{line}'")))?;
                entries.push(ManifestEntry {
                    rel_path: rel_path.to_string(),
                    size: lines.parse("size", size)?,
                    crc: u32::from_str_radix(crc, 16)
                        .map_err(|e| lines.error(format!("bad crc '{crc}': {e}")))?,
                });
            }
            Ok(Manifest { entries })
        };
        parse().map_err(|e| match e {
            Error::Format(m) => Error::Corrupt(m),
            e => e,
        })
    }

    /// Verify every listed file of `dir` against its recorded size and CRC.
    /// Returns the first discrepancy.
    pub fn verify(&self, dir: &Path) -> Result<(), Error> {
        self.entries
            .iter()
            .try_for_each(|e| e.read_checked(dir).map(drop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time: what [`crc32_update`] was before
    /// the tables and what it must still compute.
    fn crc32_update_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming equals one-shot.
        let whole = crc32(b"hello, checkpoint");
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, b"hello, ");
        st = crc32_update(st, b"checkpoint");
        assert_eq!(st ^ 0xFFFF_FFFF, whole);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn table_kernel_is_the_bitwise_crc(
            data in prop::collection::vec(0u8..=255, 0..4096usize),
            state in 0u32..=u32::MAX,
        ) {
            let want = crc32_update_bitwise(state, &data);
            prop_assert_eq!(crc32_update(state, &data), want);
            // Streamed in two calls, split anywhere.
            for cut in 0..=data.len() {
                let (a, b) = data.split_at(cut);
                prop_assert_eq!(crc32_update(crc32_update(state, a), b), want);
            }
            // Started at every alignment of the eight-byte stride.
            for off in 0..8.min(data.len() + 1) {
                prop_assert_eq!(
                    crc32_update(state, &data[off..]),
                    crc32_update_bitwise(state, &data[off..])
                );
            }
        }
    }

    fn write_files(dir: &Path, files: &[(&str, Vec<u8>)]) -> Manifest {
        let entries = files.iter().map(|(rel, bytes)| {
            fs::write(dir.join(rel), bytes).unwrap();
            ManifestEntry::of(*rel, bytes)
        });
        Manifest::new(entries.collect())
    }

    #[test]
    fn manifest_roundtrip_and_verify() {
        let dir = std::env::temp_dir().join(format!("exastro_manifest_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("Level_00")).unwrap();
        let m = write_files(
            &dir,
            &[
                ("Meta", b"meta contents".to_vec()),
                ("Level_00/fab_00000.bin", vec![7u8; 4096]),
            ],
        );
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.total_bytes(), 13 + 4096);
        fs::write(dir.join(MANIFEST_NAME), m.to_text()).unwrap();
        let loaded = Manifest::load(&dir).unwrap();
        assert_eq!(loaded, m);
        loaded.verify(&dir).unwrap();
        // A single flipped bit is detected.
        let blob = dir.join("Level_00/fab_00000.bin");
        let mut data = fs::read(&blob).unwrap();
        data[100] ^= 0x10;
        fs::write(&blob, data).unwrap();
        assert!(loaded.verify(&dir).unwrap_err().to_string().contains("crc"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_missing_files_are_detected() {
        let dir = std::env::temp_dir().join(format!("exastro_manifest_tr_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let m = write_files(&dir, &[("a.bin", vec![1u8; 100])]);
        fs::write(dir.join("a.bin"), vec![1u8; 50]).unwrap();
        assert!(m.verify(&dir).unwrap_err().to_string().contains("size"));
        fs::remove_file(dir.join("a.bin")).unwrap();
        assert!(matches!(m.verify(&dir), Err(Error::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
