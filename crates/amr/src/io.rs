//! Checkpoint and plotfile I/O.
//!
//! In the GPU-resident design, writing a checkpoint is one of only two
//! places data crosses back to the host ("When we write a checkpoint file,
//! it involves making a copy to CPU memory, not migrating the data", §III).
//! The format here is a simple self-describing directory — a `Header` text
//! file in the spirit of AMReX plotfiles plus one little-endian binary blob
//! per fab — sufficient for restart round-trips and offline analysis.

use crate::boxarray::BoxArray;
use crate::distribution::DistributionMapping;
use crate::fab::for_each_row;
use crate::geometry::{CoordSys, Geometry};
use crate::multifab::MultiFab;
use exastro_parallel::{IndexBox, IntVect, Real};
use std::fs;
use std::io::Write;
use std::path::Path;

/// I/O errors.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed header or payload.
    Format(String),
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            IoError::Format(m) => write!(f, "checkpoint format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

fn write_box(w: &mut impl Write, b: IndexBox) -> Result<(), IoError> {
    writeln!(
        w,
        "{} {} {} {} {} {}",
        b.lo().x(),
        b.lo().y(),
        b.lo().z(),
        b.hi().x(),
        b.hi().y(),
        b.hi().z()
    )?;
    Ok(())
}

fn parse_box(line: &str) -> Result<IndexBox, IoError> {
    let v: Vec<i32> = line
        .split_whitespace()
        .map(|t| t.parse::<i32>())
        .collect::<Result<_, _>>()
        .map_err(|e| IoError::Format(format!("bad box line '{line}': {e}")))?;
    if v.len() != 6 {
        return Err(IoError::Format(format!("bad box line '{line}'")));
    }
    Ok(IndexBox::new(
        IntVect::new(v[0], v[1], v[2]),
        IntVect::new(v[3], v[4], v[5]),
    ))
}

/// Append `values` to `out` as little-endian `f64`s — the one encoding of
/// every checkpoint payload, field blobs and auxiliary arrays alike.
pub fn append_le_bytes(out: &mut Vec<u8>, values: &[Real]) {
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Append the blob image of fab `i` to `out`: the x-rows of its valid box
/// (ghost zones are not stored), component-major, little-endian `f64`. The
/// bytes a checkpoint stores in `fab_{i:05}.bin` — and the bytes a state
/// digest hashes, so the two cannot disagree about what a state *is*.
pub fn append_blob(state: &MultiFab, i: usize, out: &mut Vec<u8>) {
    let (fab, vb) = (state.fab(i), state.valid_box(i));
    out.reserve(vb.num_zones() as usize * state.ncomp() * 8);
    for c in 0..state.ncomp() {
        for_each_row(vb, |row, n| append_le_bytes(out, fab.row(row, c, n)));
    }
}

/// Decode the blob image `bytes` into the valid box of fab `i`, rejecting
/// a length the header does not imply and any non-finite value.
fn decode_blob(state: &mut MultiFab, i: usize, bytes: &[u8]) -> Result<(), IoError> {
    let (vb, ncomp) = (state.valid_box(i), state.ncomp());
    // The blob length is fully determined by the header: anything else
    // is a truncated or overgrown payload, i.e. a format violation.
    let expect = vb.num_zones() as usize * ncomp * 8;
    if bytes.len() != expect {
        return Err(IoError::Format(format!(
            "fab {i}: blob is {} bytes, header implies {expect}",
            bytes.len()
        )));
    }
    let fab = state.fab_mut(i);
    let mut rows = bytes.chunks_exact(vb.length(0) as usize * 8);
    let mut bad = None;
    for c in 0..ncomp {
        for_each_row(vb, |row, n| {
            let src = rows.next().expect("one row of bytes per row of zones");
            let dst = fab.row_mut(row, c, n);
            for (d, b) in dst.iter_mut().zip(src.chunks_exact(8)) {
                *d = Real::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
            if bad.is_none() {
                if let Some(x) = dst.iter().position(|v| !v.is_finite()) {
                    bad = Some((row + IntVect::new(x as i32, 0, 0), c, dst[x]));
                }
            }
        });
    }
    match bad {
        Some((iv, c, v)) => Err(IoError::Format(format!(
            "fab {i}: non-finite value {v} at {iv:?} comp {c}"
        ))),
        None => Ok(()),
    }
}

/// Create `path` holding exactly `bytes` and fsync it.
pub fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Best-effort directory fsync (Linux allows fsync on a read-only dir fd;
/// elsewhere this is a no-op).
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// One name per component, each non-empty and free of whitespace: the
/// header stores them as one space-separated line, so any other name
/// would not read back as itself.
pub fn check_variable_names<S: AsRef<str>>(names: &[S], ncomp: usize) -> Result<(), IoError> {
    if names.len() != ncomp {
        return Err(IoError::Format(format!(
            "{} variable names for {ncomp} components",
            names.len()
        )));
    }
    match names
        .iter()
        .map(AsRef::as_ref)
        .find(|n| n.is_empty() || n.contains(char::is_whitespace))
    {
        Some(bad) => Err(IoError::Format(format!("variable name {bad:?}"))),
        None => Ok(()),
    }
}

/// Write one level's files into the existing directory `dir`, un-staged:
/// one blob per fab — built in memory, written with one `write_all`,
/// fsynced — then the `Header` (the commit record: a reader never sees a
/// header pointing at absent blobs), then an fsync of `dir` itself.
/// `wrote(name, bytes)` is called for every file with the bytes that went
/// to disk, so a caller that checksums them need not read them back.
///
/// Staging and publication are the caller's (`resilience`'s
/// `CheckpointManager` stages every level in one directory and renames it
/// into place). Names that [`check_variable_names`] rejects are a
/// [`IoError::Format`] before anything is written.
pub fn write_level(
    dir: &Path,
    state: &MultiFab,
    geom: &Geometry,
    time: Real,
    variable_names: &[&str],
    mut wrote: impl FnMut(&str, &[u8]),
) -> Result<(), IoError> {
    check_variable_names(variable_names, state.ncomp())?;
    let mut put = |name: &str, bytes: &[u8]| {
        write_synced(&dir.join(name), bytes).map(|()| wrote(name, bytes))
    };
    let mut blob = Vec::new();
    for i in 0..state.nfabs() {
        blob.clear();
        append_blob(state, i, &mut blob);
        put(&format!("fab_{i:05}.bin"), &blob)?;
    }

    let mut h = Vec::new();
    writeln!(h, "exastro-checkpoint-v1")?;
    writeln!(h, "time {time:e}")?;
    writeln!(h, "ncomp {}", state.ncomp())?;
    writeln!(h, "ngrow {}", state.ngrow())?;
    writeln!(h, "variables {}", variable_names.join(" "))?;
    writeln!(
        h,
        "prob_lo {:e} {:e} {:e}",
        geom.prob_lo()[0],
        geom.prob_lo()[1],
        geom.prob_lo()[2]
    )?;
    writeln!(
        h,
        "prob_hi {:e} {:e} {:e}",
        geom.prob_hi()[0],
        geom.prob_hi()[1],
        geom.prob_hi()[2]
    )?;
    writeln!(
        h,
        "periodic {} {} {}",
        geom.periodic()[0] as u8,
        geom.periodic()[1] as u8,
        geom.periodic()[2] as u8
    )?;
    writeln!(h, "domain")?;
    write_box(&mut h, geom.domain())?;
    writeln!(h, "nfabs {}", state.nfabs())?;
    for i in 0..state.nfabs() {
        write_box(&mut h, state.valid_box(i))?;
    }
    put("Header", &h)?;
    sync_dir(dir);
    Ok(())
}

/// A restored checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// The restored state (ghost zones zeroed; refill after restart).
    pub state: MultiFab,
    /// The restored geometry.
    pub geom: Geometry,
    /// Simulation time at the checkpoint.
    pub time: Real,
    /// Variable names.
    pub variables: Vec<String>,
}

/// Parse a `Header` into a [`Checkpoint`] whose state is allocated and
/// still all zero.
fn parse_header(header: &[u8]) -> Result<Checkpoint, IoError> {
    let header = std::str::from_utf8(header)
        .map_err(|e| IoError::Format(format!("header is not UTF-8: {e}")))?;
    let mut lines = header.lines();
    let mut next = || -> Result<&str, IoError> {
        lines
            .next()
            .ok_or_else(|| IoError::Format("truncated header".into()))
    };
    let magic = next()?;
    if magic != "exastro-checkpoint-v1" {
        return Err(IoError::Format(format!("bad magic '{magic}'")));
    }
    let field = |line: &str, key: &str| -> Result<String, IoError> {
        line.strip_prefix(key)
            .map(|s| s.trim().to_string())
            .ok_or_else(|| IoError::Format(format!("expected '{key}', got '{line}'")))
    };
    let time: Real = field(next()?, "time")?
        .parse()
        .map_err(|e| IoError::Format(format!("bad time: {e}")))?;
    let ncomp: usize = field(next()?, "ncomp")?
        .parse()
        .map_err(|e| IoError::Format(format!("bad ncomp: {e}")))?;
    let ngrow: i32 = field(next()?, "ngrow")?
        .parse()
        .map_err(|e| IoError::Format(format!("bad ngrow: {e}")))?;
    let variables: Vec<String> = field(next()?, "variables")?
        .split_whitespace()
        .map(String::from)
        .collect();
    check_variable_names(&variables, ncomp)?;
    let parse3 = |s: String| -> Result<[Real; 3], IoError> {
        let v: Vec<Real> = s
            .split_whitespace()
            .map(|t| t.parse::<Real>())
            .collect::<Result<_, _>>()
            .map_err(|e| IoError::Format(format!("bad triple: {e}")))?;
        if v.len() != 3 {
            return Err(IoError::Format("bad triple".into()));
        }
        Ok([v[0], v[1], v[2]])
    };
    let prob_lo = parse3(field(next()?, "prob_lo")?)?;
    let prob_hi = parse3(field(next()?, "prob_hi")?)?;
    let per = parse3(field(next()?, "periodic")?)?;
    let _ = field(next()?, "domain")?;
    let domain = parse_box(next()?)?;
    let nfabs: usize = field(next()?, "nfabs")?
        .parse()
        .map_err(|e| IoError::Format(format!("bad nfabs: {e}")))?;
    let mut boxes = Vec::new();
    for _ in 0..nfabs {
        boxes.push(parse_box(next()?)?);
    }
    let geom = Geometry::new(
        domain,
        prob_lo,
        prob_hi,
        [per[0] != 0.0, per[1] != 0.0, per[2] != 0.0],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::from_boxes(boxes);
    let dm = DistributionMapping::all_local(&ba);
    Ok(Checkpoint {
        state: MultiFab::new(ba, dm, ncomp, ngrow),
        geom,
        time,
        variables,
    })
}

/// Decode one level from the files [`write_level`] wrote. `fetch(name)`
/// returns a file's whole contents and is where a caller holding checksums
/// verifies them: the bytes it hands back are the bytes decoded, so nothing
/// can change between the check and the use.
pub fn read_level<E: From<IoError>>(
    mut fetch: impl FnMut(&str) -> Result<Vec<u8>, E>,
) -> Result<Checkpoint, E> {
    let mut ck = parse_header(&fetch("Header")?)?;
    for i in 0..ck.state.nfabs() {
        let blob = fetch(&format!("fab_{i:05}.bin"))?;
        decode_blob(&mut ck.state, i, &blob)?;
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistStrategy;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("exastro_io_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// `write_level` into a fresh directory `dir`.
    fn write_dir(
        dir: &Path,
        state: &MultiFab,
        geom: &Geometry,
        time: Real,
        names: &[&str],
    ) -> Result<(), IoError> {
        fs::create_dir_all(dir)?;
        write_level(dir, state, geom, time, names, |_, _| {})
    }

    /// `read_level` over the files of `dir`.
    fn read_dir(dir: &Path) -> Result<Checkpoint, IoError> {
        read_level(|name| Ok(fs::read(dir.join(name))?))
    }

    #[test]
    fn checkpoint_roundtrip_preserves_everything() {
        let geom = Geometry::cube(16, 2.5, true);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let dm = DistributionMapping::new(&ba, 3, DistStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, 3, 2);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                for c in 0..3 {
                    let v = (iv.x() * 7 + iv.y() * 13 - iv.z() * 3 + c as i32 * 1000) as Real
                        * 1.0e-3
                        + 0.125;
                    mf.fab_mut(i).set(iv, c, v);
                }
            }
        }
        let dir = tmpdir("roundtrip");
        write_dir(&dir, &mf, &geom, 3.75, &["rho", "mx", "eden"]).unwrap();
        let ck = read_dir(&dir).unwrap();
        assert_eq!(ck.time, 3.75);
        assert_eq!(ck.variables, vec!["rho", "mx", "eden"]);
        assert_eq!(ck.geom.domain(), geom.domain());
        assert_eq!(ck.geom.prob_hi(), geom.prob_hi());
        assert_eq!(ck.geom.periodic(), geom.periodic());
        assert_eq!(ck.state.nfabs(), mf.nfabs());
        assert_eq!(ck.state.ncomp(), 3);
        assert_eq!(ck.state.ngrow(), 2);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            assert_eq!(ck.state.valid_box(i), vb);
            for iv in vb.iter() {
                for c in 0..3 {
                    assert_eq!(ck.state.fab(i).get(iv, c), mf.fab(i).get(iv, c));
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = tmpdir("badmagic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("Header"), "not-a-checkpoint\n").unwrap();
        assert!(matches!(read_dir(&dir), Err(IoError::Format(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    fn small_mf() -> (Geometry, MultiFab) {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut mf = MultiFab::local(ba, 1, 0);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                mf.fab_mut(i).set(iv, 0, 1.0 + iv.x() as Real);
            }
        }
        (geom, mf)
    }

    fn small_checkpoint(name: &str) -> std::path::PathBuf {
        let (geom, mf) = small_mf();
        let dir = tmpdir(name);
        write_dir(&dir, &mf, &geom, 0.5, &["rho"]).unwrap();
        dir
    }

    #[test]
    fn write_leaves_no_inflight_directory() {
        // `write_level` stages nothing: the directory holds its files and
        // nothing else, and a rewrite over them reads back as the rewrite.
        let dir = small_checkpoint("unstaged");
        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["Header", "fab_00000.bin"]);
        let ck = read_dir(&dir).unwrap();
        write_dir(&dir, &ck.state, &ck.geom, 1.0, &["rho"]).unwrap();
        assert_eq!(read_dir(&dir).unwrap().time, 1.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_header_is_a_format_error() {
        let dir = small_checkpoint("trunchdr");
        let header = fs::read_to_string(dir.join("Header")).unwrap();
        let cut: String = header.lines().take(3).collect::<Vec<_>>().join("\n");
        fs::write(dir.join("Header"), cut).unwrap();
        match read_dir(&dir) {
            Err(IoError::Format(_)) => {}
            other => panic!("expected Format error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nfabs_mismatch_is_a_format_error() {
        let dir = small_checkpoint("nfabs");
        // Claim one more fab than there are box lines.
        let header = fs::read_to_string(dir.join("Header")).unwrap();
        let bumped = header.replace("nfabs 1", "nfabs 2");
        assert_ne!(bumped, header);
        fs::write(dir.join("Header"), bumped).unwrap();
        assert!(matches!(read_dir(&dir), Err(IoError::Format(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_header_with_one_name_too_many_is_a_format_error() {
        let dir = small_checkpoint("names");
        let header = fs::read_to_string(dir.join("Header")).unwrap();
        let extra = header.replace("variables rho\n", "variables rho mx\n");
        assert_ne!(extra, header);
        fs::write(dir.join("Header"), extra).unwrap();
        match read_dir(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("2 variable names for 1"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_that_would_not_read_back_are_a_format_error_before_any_write() {
        let (geom, mf) = small_mf();
        let dir = tmpdir("badnames");
        for names in [&[][..], &["rho", "mx"], &[""], &["rho x"], &["rho\n"]] {
            match write_dir(&dir, &mf, &geom, 0.0, names) {
                Err(IoError::Format(_)) => {}
                other => panic!("{names:?}: expected Format error, got {other:?}"),
            }
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "{names:?} wrote");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_and_oversized_blobs_are_format_errors() {
        let dir = small_checkpoint("blobsize");
        let blob = dir.join("fab_00000.bin");
        let good = fs::read(&blob).unwrap();
        // Short: a crashed writer's partial blob.
        fs::write(&blob, &good[..good.len() - 8]).unwrap();
        match read_dir(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("bytes"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        // Oversized: stale bytes appended past the real payload.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 16]);
        fs::write(&blob, long).unwrap();
        assert!(matches!(read_dir(&dir), Err(IoError::Format(_))));
        // Restored exactly → reads again.
        fs::write(&blob, good).unwrap();
        read_dir(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_payload_is_a_format_error() {
        let dir = small_checkpoint("nonfinite");
        let blob = dir.join("fab_00000.bin");
        let mut data = fs::read(&blob).unwrap();
        data[0..8].copy_from_slice(&Real::NAN.to_le_bytes());
        fs::write(&blob, data).unwrap();
        match read_dir(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("non-finite"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_payload_is_an_io_error() {
        let dir = small_checkpoint("missing");
        fs::remove_file(dir.join("fab_00000.bin")).unwrap();
        assert!(matches!(read_dir(&dir), Err(IoError::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
