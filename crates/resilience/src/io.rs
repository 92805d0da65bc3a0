//! The on-disk checkpoint format, in one place: file names, the blob
//! encoding, synced writes, the `Header`/`Meta`/`MANIFEST` text files and
//! their one line reader. [`crate::manager`] owns the protocol around it.
//!
//! ```text
//! Level_LL/fab_NNNNN.bin  valid-box x-rows, component-major, LE f64
//! Level_LL/Header         the level's commit record: ncomp, ngrow, names,
//!                         geometry, boxes
//! Aux_<name>.bin          one LE f64 blob per auxiliary array
//! Meta                    the clock as f64 bits, ratios, names, aux lengths
//! MANIFEST                size and CRC32 of every other file, written last
//! ```

use crate::manager::Error;
use crate::manifest::{Manifest, ManifestEntry};
use crate::snapshot::{Clock, LevelSnapshot, Snapshot};
use exastro_amr::{
    for_each_row, BoxArray, CoordSys, DistributionMapping, Geometry, IndexBox, IntVect, MultiFab,
    Real,
};
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::str::FromStr;

/// A level's commit record, inside its [`level_dir`].
pub const HEADER_NAME: &str = "Header";
/// The clock, level ratios, names and aux lengths, at the checkpoint root.
pub const META_NAME: &str = "Meta";
/// The integrity manifest, at the checkpoint root.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The directory of level `l`.
pub fn level_dir(l: usize) -> String {
    format!("Level_{l:02}")
}

/// The blob of fab `i`, inside its [`level_dir`].
pub fn fab_name(i: usize) -> String {
    format!("fab_{i:05}.bin")
}

/// The blob of auxiliary array `name`, at the checkpoint root.
fn aux_name(name: &str) -> String {
    format!("Aux_{name}.bin")
}

const HEADER_MAGIC: &str = "exastro-checkpoint-v1";
const META_MAGIC: &str = "exastro-snapshot-v1";

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

/// Append `values` to `out` as little-endian `f64`s — the one encoding of
/// every checkpoint payload, field blobs and auxiliary arrays alike.
pub(crate) fn append_le_bytes(out: &mut Vec<u8>, values: &[Real]) {
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Append the blob image of fab `i` to `out`: the x-rows of its valid box
/// (ghost zones are not stored), component-major. The bytes a checkpoint
/// stores in [`fab_name`]`(i)` — and the bytes a state digest hashes, so
/// the two cannot disagree about what a state *is*.
pub(crate) fn append_blob(state: &MultiFab, i: usize, out: &mut Vec<u8>) {
    let (fab, vb) = (state.fab(i), state.valid_box(i));
    out.reserve(vb.num_zones() as usize * state.ncomp() * 8);
    for c in 0..state.ncomp() {
        for_each_row(vb, |row, n| append_le_bytes(out, fab.row(row, c, n)));
    }
}

/// Decode the blob image `bytes`, already checked to be the length the
/// header implies, into the valid box of fab `i`, rejecting any non-finite
/// value.
fn decode_blob(state: &mut MultiFab, i: usize, bytes: &[u8]) -> Result<(), Error> {
    let (vb, ncomp) = (state.valid_box(i), state.ncomp());
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
        Some((iv, c, v)) => Err(Error::Format(format!(
            "fab {i}: non-finite value {v} at {iv:?} comp {c}"
        ))),
        None => Ok(()),
    }
}

/// One name per component, each non-empty and free of whitespace: the
/// files store them as one space-separated line, so any other name would
/// not read back as itself.
fn check_variable_names(names: &[String], ncomp: usize) -> Result<(), Error> {
    if names.len() != ncomp {
        return Err(Error::Format(format!(
            "{} variable names for {ncomp} components",
            names.len()
        )));
    }
    match names
        .iter()
        .find(|n| n.is_empty() || n.contains(char::is_whitespace))
    {
        Some(bad) => Err(Error::Format(format!("variable name {bad:?}"))),
        None => Ok(()),
    }
}

/// The levels and names of `snap` are ones its files can store and give
/// back: no level a decode would refuse to allocate ([`level_fault`]), and
/// names that read back as themselves. A write holds a snapshot to this
/// before a byte is written, a restore holds what it decoded.
pub(crate) fn check_snapshot(snap: &Snapshot) -> Result<(), Error> {
    for (l, lev) in snap.levels.iter().enumerate() {
        let s = &lev.state;
        let boxes: Vec<IndexBox> = s.box_array().iter().copied().collect();
        if let Some(m) = level_fault(lev.geom.domain(), &boxes, s.ncomp(), s.ngrow()) {
            return Err(Error::Format(format!("level {l}: {m}")));
        }
        check_variable_names(&snap.variables, s.ncomp())?;
    }
    let ok = |n: &str| !n.is_empty() && n.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    match snap.aux.iter().find(|(n, _)| !ok(n)) {
        Some((n, _)) => Err(Error::Format(format!("aux name {n:?}"))),
        None => Ok(()),
    }
}

/// `items`, space-separated.
fn words<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let words: Vec<String> = items.into_iter().map(|t| t.to_string()).collect();
    words.join(" ")
}

fn box_line(b: IndexBox) -> String {
    let (l, h) = (b.lo(), b.hi());
    words([l.x(), l.y(), l.z(), h.x(), h.y(), h.z()])
}

fn header_text(lev: &LevelSnapshot, snap: &Snapshot) -> String {
    let (g, s, time) = (&lev.geom, &lev.state, snap.clock.time);
    let (ncomp, ngrow, nfabs) = (s.ncomp(), s.ngrow(), s.nfabs());
    let sci = |v: [Real; 3]| words(v.map(|x| format!("{x:e}")));
    let (names, lo, hi) = (words(&snap.variables), sci(g.prob_lo()), sci(g.prob_hi()));
    let (periodic, domain) = (words(g.periodic().map(u8::from)), box_line(g.domain()));
    let mut h = format!(
        "{HEADER_MAGIC}\ntime {time:e}\nncomp {ncomp}\nngrow {ngrow}\nvariables {names}\n\
         prob_lo {lo}\nprob_hi {hi}\nperiodic {periodic}\ndomain\n{domain}\nnfabs {nfabs}\n"
    );
    for i in 0..nfabs {
        h += &box_line(s.valid_box(i));
        h.push('\n');
    }
    h
}

fn meta_text(snap: &Snapshot) -> String {
    let (Clock { step, time, dt }, nlevels) = (snap.clock, snap.levels.len());
    let ratios = words(snap.levels.iter().map(|l| l.ratio_to_coarser));
    let (names, tb, db) = (words(&snap.variables), time.to_bits(), dt.to_bits());
    // Bit-pattern hex alongside the decimal: the decimal is for humans,
    // the bits are what restore parses (exact by construction).
    let mut m = format!(
        "{META_MAGIC}\nstep {step}\ntime {tb:016x} {time:e}\ndt {db:016x} {dt:e}\n\
         nlevels {nlevels}\nratios {ratios}\nvariables {names}\n"
    );
    for (name, v) in &snap.aux {
        m += &format!("aux {name} {}\n", v.len());
    }
    m
}

/// Write every file of `snap` but the manifest into the staging directory
/// `dir`, each built in memory, written once and fsynced, and return their
/// manifest entries, taken from the bytes in hand. Per level the blobs go
/// first, then the `Header` that names them, then an fsync of the level's
/// directory; then the aux blobs and `Meta`.
pub(crate) fn write_files(dir: &Path, snap: &Snapshot) -> Result<Vec<ManifestEntry>, Error> {
    let mut entries = Vec::new();
    let mut put = |rel: String, bytes: &[u8]| {
        write_synced(&dir.join(&rel), bytes).map(|()| entries.push(ManifestEntry::of(rel, bytes)))
    };
    let mut blob = Vec::new();
    for (l, lev) in snap.levels.iter().enumerate() {
        let level = level_dir(l);
        fs::create_dir(dir.join(&level))?;
        for i in 0..lev.state.nfabs() {
            blob.clear();
            append_blob(&lev.state, i, &mut blob);
            put(format!("{level}/{}", fab_name(i)), &blob)?;
        }
        let header = header_text(lev, snap);
        put(format!("{level}/{HEADER_NAME}"), header.as_bytes())?;
        sync_dir(&dir.join(&level));
    }
    for (name, v) in &snap.aux {
        blob.clear();
        append_le_bytes(&mut blob, v);
        put(aux_name(name), &blob)?;
    }
    put(META_NAME.into(), meta_text(snap).as_bytes())?;
    Ok(entries)
}

/// The one reader of the format's text files: a magic first line, then
/// lines taken in order, most of them `key value`.
pub(crate) struct Lines<'a> {
    what: &'static str,
    lines: std::str::Lines<'a>,
}

impl<'a> Lines<'a> {
    /// The lines of `bytes` after the magic line, which must be `magic`.
    pub(crate) fn new(what: &'static str, bytes: &'a [u8], magic: &str) -> Result<Self, Error> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| Error::Format(format!("{what} is not UTF-8: {e}")))?;
        let mut r = Lines {
            what,
            lines: text.lines(),
        };
        match r.line()? {
            m if m == magic => Ok(r),
            m => Err(r.error(format!("bad magic '{m}'"))),
        }
    }

    /// A format error naming this file.
    pub(crate) fn error(&self, msg: String) -> Error {
        Error::Format(format!("{}: {msg}", self.what))
    }

    /// The next line.
    pub(crate) fn line(&mut self) -> Result<&'a str, Error> {
        self.lines
            .next()
            .ok_or_else(|| self.error("truncated".into()))
    }

    /// The value of the next line, which must be `key` or `key value`; an
    /// empty `key` takes the whole line.
    fn field(&mut self, key: &str) -> Result<&'a str, Error> {
        let line = self.line()?;
        match line.split_once(' ') {
            _ if key.is_empty() => Ok(line),
            Some((k, v)) if k == key => Ok(v),
            None if line == key => Ok(""),
            _ => Err(self.error(format!("expected '{key}', got '{line}'"))),
        }
    }

    /// `v`, read as the `what` of this file.
    pub(crate) fn parse<T: FromStr<Err: Display>>(&self, what: &str, v: &str) -> Result<T, Error> {
        v.parse()
            .map_err(|e| self.error(format!("bad {what} '{v}': {e}")))
    }

    /// The value of field `key`, parsed.
    pub(crate) fn value<T: FromStr<Err: Display>>(&mut self, key: &str) -> Result<T, Error> {
        let v = self.field(key)?;
        self.parse(key, v)
    }

    /// The whitespace-separated values of field `key`.
    fn list<T: FromStr<Err: Display>>(&mut self, key: &str) -> Result<Vec<T>, Error> {
        let v = self.field(key)?;
        v.split_whitespace().map(|t| self.parse(key, t)).collect()
    }

    /// Exactly `N` values of field `key`.
    fn array<T: FromStr<Err: Display>, const N: usize>(
        &mut self,
        key: &str,
    ) -> Result<[T; N], Error> {
        let v = self.list(key)?;
        v.try_into()
            .map_err(|v: Vec<T>| self.error(format!("{key}: {} values, want {N}", v.len())))
    }

    /// A box line: `lo.x lo.y lo.z hi.x hi.y hi.z`.
    fn index_box(&mut self) -> Result<IndexBox, Error> {
        let [x0, y0, z0, x1, y1, z1] = self.array("")?;
        Ok(IndexBox::new(
            IntVect::new(x0, y0, z0),
            IntVect::new(x1, y1, z1),
        ))
    }
}

/// The files of one checkpoint directory as its manifest lists them. Each
/// is read once and handed out only after its size and CRC passed, so the
/// bytes decoded are the bytes checked — nothing is re-opened between the
/// check and the use.
struct Files<'a> {
    dir: &'a Path,
    unread: Vec<&'a ManifestEntry>,
}

impl Files<'_> {
    fn entry(&self, rel: &str) -> Result<usize, Error> {
        self.unread
            .iter()
            .position(|e| e.rel_path == rel)
            .ok_or_else(|| Error::Corrupt(format!("{rel}: not in the manifest")))
    }

    /// The checked contents of `rel`.
    fn fetch(&mut self, rel: &str) -> Result<Vec<u8>, Error> {
        let k = self.entry(rel)?;
        self.unread.swap_remove(k).read_checked(self.dir)
    }

    /// `rel` must be as long on disk as its manifest entry records — a
    /// mismatch is damage, [`Error::Corrupt`] — and that must be the
    /// `implied` bytes its header describes, or it is [`Error::Format`].
    /// Checked before a buffer of that size is allocated for it.
    fn expect_size(&self, rel: &str, implied: u128) -> Result<(), Error> {
        let recorded = self.unread[self.entry(rel)?].size;
        let size = fs::metadata(self.dir.join(rel))?.len();
        if size != recorded {
            let m = format!("{rel}: size {size} != recorded {recorded}");
            return Err(Error::Corrupt(m));
        }
        if u128::from(recorded) != implied {
            let m = format!("{rel}: blob is {recorded} bytes, header implies {implied}");
            return Err(Error::Format(m));
        }
        Ok(())
    }
}

/// Every coordinate of a level, grown by its ghost depth, lies strictly
/// inside ±`COORD_LIMIT`, so every extent fits the `i32` index arithmetic.
const COORD_LIMIT: i64 = 1 << 30;

/// Why a level of these boxes cannot be allocated and filled, if it
/// cannot: no component, a negative ghost depth, an empty domain, an empty
/// box or one outside the domain, coordinates out of range, or a ghost
/// depth past some box's smallest extent. The last bounds a level's grown
/// allocation by 27 times the valid bytes its blobs hold.
fn level_fault(domain: IndexBox, boxes: &[IndexBox], ncomp: usize, ngrow: i32) -> Option<String> {
    let g = i64::from(ngrow);
    let in_range = |b: &IndexBox| {
        (0..3).all(|d| {
            i64::from(b.lo()[d]) - g > -COORD_LIMIT && i64::from(b.hi()[d]) + g < COORD_LIMIT
        })
    };
    let thinnest = |b: &IndexBox| (0..3).map(|d| b.length(d)).min().unwrap_or(0);
    if ncomp == 0 || ngrow < 0 {
        Some(format!("ncomp {ncomp}, ngrow {ngrow}"))
    } else if domain.is_empty() || !in_range(&domain) {
        Some(format!("domain {domain:?} with ngrow {ngrow}"))
    } else if let Some(b) = boxes
        .iter()
        .find(|b| b.is_empty() || !domain.contains_box(b))
    {
        Some(format!(
            "box {b:?} is empty or outside the domain {domain:?}"
        ))
    } else {
        boxes
            .iter()
            .find(|b| thinnest(b) < ngrow)
            .map(|b| format!("ngrow {ngrow} exceeds the smallest extent of box {b:?}"))
    }
}

/// Decode level `l`: its `Header` is parsed and held to [`level_fault`],
/// and every blob's implied size to its recorded and on-disk size, before
/// the level's `MultiFab` is allocated; then each blob is fetched, checked
/// and decoded in turn.
fn read_level(files: &mut Files, l: usize) -> Result<(Geometry, MultiFab), Error> {
    let level = level_dir(l);
    let text = files.fetch(&format!("{level}/{HEADER_NAME}"))?;
    let mut h = Lines::new("Header", &text, HEADER_MAGIC)?;
    h.field("time")?;
    let ncomp: usize = h.value("ncomp")?;
    let ngrow: i32 = h.value("ngrow")?;
    check_variable_names(&h.list::<String>("variables")?, ncomp)?;
    let lo: [Real; 3] = h.array("prob_lo")?;
    let hi: [Real; 3] = h.array("prob_hi")?;
    let per: [u8; 3] = h.array("periodic")?;
    h.field("domain")?;
    let domain = h.index_box()?;
    let nfabs: usize = h.value("nfabs")?;
    let boxes = (0..nfabs)
        .map(|_| h.index_box())
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(m) = level_fault(domain, &boxes, ncomp, ngrow) {
        return Err(h.error(m));
    }
    if !(0..3).all(|d| lo[d].is_finite() && hi[d].is_finite() && lo[d] < hi[d]) {
        return Err(h.error(format!("prob_lo {lo:?}, prob_hi {hi:?}")));
    }
    let blob = |i| format!("{level}/{}", fab_name(i));
    for (i, b) in boxes.iter().enumerate() {
        let zones: u128 = (0..3).map(|d| b.length(d) as u128).product();
        files.expect_size(&blob(i), zones.saturating_mul(ncomp as u128 * 8))?;
    }
    let geom = Geometry::new(domain, lo, hi, per.map(|p| p != 0), CoordSys::Cartesian);
    let ba = BoxArray::from_boxes(boxes);
    let dm = DistributionMapping::all_local(&ba);
    let mut state = MultiFab::new(ba, dm, ncomp, ngrow);
    for i in 0..nfabs {
        decode_blob(&mut state, i, &files.fetch(&blob(i))?)?;
    }
    Ok((geom, state))
}

/// Decode the checkpoint at `dir` in one pass: each file is read once,
/// through its manifest entry, and only checked bytes are parsed. The
/// decoded snapshot is held to [`check_snapshot`], as a write is.
pub(crate) fn read_snapshot(dir: &Path) -> Result<Snapshot, Error> {
    let manifest = Manifest::load(dir)?;
    let unread = manifest.entries.iter().collect();
    let mut files = Files { dir, unread };
    let meta = files.fetch(META_NAME)?;
    let mut m = Lines::new("Meta", &meta, META_MAGIC)?;
    let step: u64 = m.value("step")?;
    let mut bits = |key: &str| -> Result<Real, Error> {
        let v = m.field(key)?;
        let hex = v.split(' ').next().unwrap_or_default();
        let bits = u64::from_str_radix(hex, 16);
        bits.map(Real::from_bits)
            .map_err(|e| m.error(format!("bad {key} '{v}': {e}")))
    };
    let (time, dt) = (bits("time")?, bits("dt")?);
    let nlevels: usize = m.value("nlevels")?;
    let ratios: Vec<i32> = m.list("ratios")?;
    if ratios.len() != nlevels {
        return Err(m.error(format!("nlevels {nlevels} but {} ratios", ratios.len())));
    }
    let variables = m.list("variables")?;
    let mut aux = Vec::new();
    while let Some(line) = m.lines.next() {
        let Some((name, len)) = line.strip_prefix("aux ").and_then(|s| s.split_once(' ')) else {
            return Err(m.error(format!("expected 'aux', got '{line}'")));
        };
        let (len, blob) = (
            m.parse::<usize>("aux length", len)?,
            files.fetch(&aux_name(name))?,
        );
        if blob.len() % 8 != 0 || blob.len() / 8 != len {
            let n = blob.len();
            return Err(m.error(format!(
                "aux {name}: blob is {n} bytes, Meta implies {len} values"
            )));
        }
        let v = blob
            .chunks_exact(8)
            .map(|b| Real::from_le_bytes(b.try_into().expect("8 bytes")));
        aux.push((name.to_string(), v.collect()));
    }
    let mut levels = Vec::with_capacity(nlevels);
    for (l, &ratio_to_coarser) in ratios.iter().enumerate() {
        let (geom, state) = read_level(&mut files, l)?;
        levels.push(LevelSnapshot {
            geom,
            state,
            ratio_to_coarser,
        });
    }
    // A manifest may vouch for more than a decode reads; it all has to hold.
    for e in files.unread {
        e.read_checked(dir)?;
    }
    let clock = Clock { step, time, dt };
    let snap = Snapshot {
        levels,
        clock,
        variables,
        aux,
    };
    check_snapshot(&snap)?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CheckpointManager;
    use crate::manifest::crc32;
    use exastro_amr::DistStrategy;
    use std::path::PathBuf;

    fn tmp_root(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exastro_io_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn clock(time: Real) -> Clock {
        Clock {
            step: 1,
            time,
            dt: 0.25,
        }
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

    /// A one-fab, one-component checkpoint under a fresh root; returns the
    /// manager and the checkpoint directory.
    fn small_checkpoint(name: &str) -> (CheckpointManager, PathBuf) {
        let (geom, mf) = small_mf();
        let mgr = CheckpointManager::new(tmp_root(name)).unwrap();
        let snap = Snapshot::single_level(geom, mf, clock(0.5), vec!["rho".into()]);
        let dir = mgr.write(&snap).unwrap();
        (mgr, dir)
    }

    /// Replace file `rel` of checkpoint `dir` with `bytes` and re-sign its
    /// manifest entry, so only the format checks stand between it and a
    /// decode.
    fn resign(dir: &Path, rel: &str, bytes: &[u8]) {
        fs::write(dir.join(rel), bytes).unwrap();
        let mut m = Manifest::load(dir).unwrap();
        let e = m.entries.iter_mut().find(|e| e.rel_path == rel).unwrap();
        e.size = bytes.len() as u64;
        e.crc = crc32(bytes);
        fs::write(dir.join(MANIFEST_NAME), m.to_text()).unwrap();
    }

    /// Rewrite and re-sign level 0's `Header` with `edit`.
    fn edit_header(dir: &Path, edit: impl Fn(&str) -> String) {
        let rel = format!("{}/{HEADER_NAME}", level_dir(0));
        let header = fs::read_to_string(dir.join(&rel)).unwrap();
        let edited = edit(&header);
        assert_ne!(edited, header);
        resign(dir, &rel, edited.as_bytes());
    }

    fn expect_format(mgr: &CheckpointManager, dir: &Path, needle: &str) {
        match mgr.restore(dir) {
            Err(Error::Format(m)) => assert!(m.contains(needle), "{m}"),
            other => panic!("expected a Format error with {needle:?}, got {other:?}"),
        }
        let _ = fs::remove_dir_all(mgr.root());
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
        let mgr = CheckpointManager::new(tmp_root("roundtrip")).unwrap();
        let names = vec!["rho".into(), "mx".into(), "eden".into()];
        let snap = Snapshot::single_level(geom.clone(), mf.clone(), clock(3.75), names);
        let back = mgr.restore(&mgr.write(&snap).unwrap()).unwrap();
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.variables, ["rho", "mx", "eden"]);
        let lev = &back.levels[0];
        assert_eq!(lev.geom.domain(), geom.domain());
        assert_eq!(lev.geom.prob_hi(), geom.prob_hi());
        assert_eq!(lev.geom.periodic(), geom.periodic());
        assert_eq!(lev.state.nfabs(), mf.nfabs());
        assert_eq!(lev.state.ncomp(), 3);
        assert_eq!(lev.state.ngrow(), 2);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            assert_eq!(lev.state.valid_box(i), vb);
            for iv in vb.iter() {
                for c in 0..3 {
                    assert_eq!(lev.state.fab(i).get(iv, c), mf.fab(i).get(iv, c));
                }
            }
        }
        let _ = fs::remove_dir_all(mgr.root());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (mgr, dir) = small_checkpoint("badmagic");
        edit_header(&dir, |_| "not-a-checkpoint\n".into());
        expect_format(&mgr, &dir, "bad magic");
    }

    #[test]
    fn write_leaves_no_inflight_directory() {
        // The staging directory is renamed into place: the root holds the
        // checkpoint and nothing else, the checkpoint its files and nothing
        // else, and a rewrite of the same step reads back as the rewrite.
        let (mgr, dir) = small_checkpoint("unstaged");
        let names = |d: &Path| {
            let mut v: Vec<_> = fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(mgr.root()), [CheckpointManager::checkpoint_name(1)]);
        assert_eq!(names(&dir), ["Level_00", "MANIFEST", "Meta"]);
        assert_eq!(names(&dir.join("Level_00")), ["Header", "fab_00000.bin"]);
        let mut snap = mgr.restore(&dir).unwrap();
        snap.clock.time = 1.0;
        assert_eq!(mgr.write(&snap).unwrap(), dir);
        assert_eq!(names(mgr.root()), [CheckpointManager::checkpoint_name(1)]);
        assert_eq!(mgr.restore(&dir).unwrap().clock.time, 1.0);
        let _ = fs::remove_dir_all(mgr.root());
    }

    #[test]
    fn truncated_header_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("trunchdr");
        edit_header(&dir, |h| h.lines().take(3).collect::<Vec<_>>().join("\n"));
        expect_format(&mgr, &dir, "truncated");
    }

    #[test]
    fn nfabs_mismatch_is_a_format_error() {
        // Claim one more fab than there are box lines.
        let (mgr, dir) = small_checkpoint("nfabs");
        edit_header(&dir, |h| h.replace("nfabs 1", "nfabs 2"));
        expect_format(&mgr, &dir, "truncated");
    }

    #[test]
    fn a_header_with_one_name_too_many_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("names");
        edit_header(&dir, |h| h.replace("variables rho\n", "variables rho mx\n"));
        expect_format(&mgr, &dir, "2 variable names for 1");
    }

    #[test]
    fn names_that_would_not_read_back_are_a_format_error_before_any_write() {
        let (geom, mf) = small_mf();
        let mgr = CheckpointManager::new(tmp_root("badnames")).unwrap();
        for names in [&[][..], &["rho", "mx"], &[""], &["rho x"], &["rho\n"]] {
            let names = names.iter().map(|n| n.to_string()).collect();
            let snap = Snapshot::single_level(geom.clone(), mf.clone(), clock(0.0), names);
            match mgr.write(&snap) {
                Err(Error::Format(_)) => {}
                other => panic!("{:?}: expected Format error, got {other:?}", snap.variables),
            }
            assert_eq!(
                fs::read_dir(mgr.root()).unwrap().count(),
                0,
                "{:?} wrote",
                snap.variables
            );
        }
        let _ = fs::remove_dir_all(mgr.root());
    }

    #[test]
    fn short_and_oversized_blobs_are_format_errors() {
        let (mgr, dir) = small_checkpoint("blobsize");
        let rel = format!("{}/{}", level_dir(0), fab_name(0));
        let good = fs::read(dir.join(&rel)).unwrap();
        // Short: a crashed writer's partial blob, vouched for by its manifest.
        resign(&dir, &rel, &good[..good.len() - 8]);
        match mgr.restore(&dir) {
            Err(Error::Format(m)) => assert!(m.contains("bytes"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        // Oversized: stale bytes appended past the real payload.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 16]);
        resign(&dir, &rel, &long);
        assert!(matches!(mgr.restore(&dir), Err(Error::Format(_))));
        // Restored exactly → reads again.
        resign(&dir, &rel, &good);
        mgr.restore(&dir).unwrap();
        let _ = fs::remove_dir_all(mgr.root());
    }

    #[test]
    fn non_finite_payload_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("nonfinite");
        let rel = format!("{}/{}", level_dir(0), fab_name(0));
        let mut data = fs::read(dir.join(&rel)).unwrap();
        data[0..8].copy_from_slice(&Real::NAN.to_le_bytes());
        resign(&dir, &rel, &data);
        expect_format(&mgr, &dir, "non-finite");
    }

    #[test]
    fn missing_payload_is_an_io_error() {
        let (mgr, dir) = small_checkpoint("missing");
        fs::remove_file(dir.join(level_dir(0)).join(fab_name(0))).unwrap();
        assert!(matches!(mgr.restore(&dir), Err(Error::Io(_))));
        let _ = fs::remove_dir_all(mgr.root());
    }

    // Crafted headers, each signed into the manifest: every one is a
    // `Format` error before the level is allocated, never a panic.

    #[test]
    fn a_negative_ngrow_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("ngrow");
        edit_header(&dir, |h| h.replace("ngrow 0\n", "ngrow -1\n"));
        expect_format(&mgr, &dir, "ngrow -1");
    }

    #[test]
    fn zero_components_are_a_format_error() {
        let (mgr, dir) = small_checkpoint("ncomp0");
        edit_header(&dir, |h| {
            h.replace("ncomp 1\n", "ncomp 0\n")
                .replace("variables rho\n", "variables \n")
        });
        expect_format(&mgr, &dir, "ncomp 0");
    }

    #[test]
    fn an_inverted_box_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("inverted");
        edit_header(&dir, |h| {
            h.replace("nfabs 1\n0 0 0 7 7 7", "nfabs 1\n7 7 7 0 0 0")
        });
        expect_format(&mgr, &dir, "empty or outside the domain");
    }

    #[test]
    fn a_box_outside_the_domain_is_a_format_error() {
        let (mgr, dir) = small_checkpoint("outside");
        edit_header(&dir, |h| {
            h.replace("nfabs 1\n0 0 0 7 7 7", "nfabs 1\n8 0 0 15 7 7")
        });
        expect_format(&mgr, &dir, "empty or outside the domain");
    }

    #[test]
    fn a_box_larger_than_its_blob_is_a_format_error_before_allocation() {
        // 1024³ zones would be an 8 GiB fab: the blob's recorded size
        // refuses it before anything is allocated.
        let (mgr, dir) = small_checkpoint("oversized");
        edit_header(&dir, |h| h.replace("0 0 0 7 7 7", "0 0 0 1023 1023 1023"));
        expect_format(&mgr, &dir, "header implies 8589934592");
    }

    #[test]
    fn a_ghost_depth_past_a_box_extent_is_a_format_error_before_allocation() {
        // 131072 ghost zones around an 8³ box would ask for ~1.4e17 bytes,
        // though the blob, which holds no ghost zones, matches its size.
        let (mgr, dir) = small_checkpoint("deepghosts");
        edit_header(&dir, |h| h.replace("ngrow 0\n", "ngrow 131072\n"));
        expect_format(&mgr, &dir, "ngrow 131072 exceeds the smallest extent");
    }

    #[test]
    fn write_refuses_a_level_restore_would_refuse() {
        let geom = Geometry::cube(8, 1.0, false);
        let mf = MultiFab::local(BoxArray::decompose(geom.domain(), 8, 4), 1, 9);
        let mgr = CheckpointManager::new(tmp_root("deepwrite")).unwrap();
        let snap = Snapshot::single_level(geom, mf, clock(0.0), vec!["rho".into()]);
        match mgr.write(&snap) {
            Err(Error::Format(m)) => assert!(m.contains("ngrow 9 exceeds"), "{m}"),
            other => panic!("expected a Format error, got {other:?}"),
        }
        assert_eq!(fs::read_dir(mgr.root()).unwrap().count(), 0);
        let _ = fs::remove_dir_all(mgr.root());
    }

    #[test]
    fn restore_refuses_what_write_refuses() {
        // `Meta` names two variables for a one-component level.
        let (mgr, dir) = small_checkpoint("metanames");
        let meta = fs::read_to_string(dir.join(META_NAME)).unwrap();
        let two = meta.replace("variables rho\n", "variables rho mx\n");
        assert_ne!(two, meta);
        resign(&dir, META_NAME, two.as_bytes());
        expect_format(&mgr, &dir, "2 variable names for 1");
    }
}
