//! FNV-1a, the one hash every pin digests its bits with. Each pin binary
//! includes this file and uses the part of it that its pins need.
#![allow(dead_code)]

use exastro_amr::MultiFab;

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold the little-endian bytes of `v` into the digest `h`.
pub fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The digest of the bits of every value, in order.
pub fn fnv_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        fnv(&mut h, v.to_bits());
    }
    h
}

/// Valid zones only: fab-major, component-major, zones in x-fastest order.
pub fn fnv_valid(state: &MultiFab) -> u64 {
    fnv_f64s((0..state.nfabs()).flat_map(|i| {
        (0..state.ncomp()).flat_map(move |c| {
            let zones = state.valid_box(i).iter();
            zones.map(move |iv| state.fab(i).get(iv, c))
        })
    }))
}
