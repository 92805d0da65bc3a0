//! The device cost model's numbers, pinned bit for bit: occupancy and
//! kernel time of a V100 and a K20X at three launch sizes and two register
//! demands (one above the 255-register file), an oversubscribed launch,
//! and the §VI hybrid-offload estimate on an outlier field and a uniform
//! one. Every modeled figure and ablation is built from these functions,
//! so a change that moves one of them moves this test first.

use exastro_machine::device::{hybrid_offload_estimate, DeviceConfig, KernelProfile};

/// `(zones, registers, occupancy bits, kernel µs bits)` at cost 1.2/zone.
type Row = (i64, u32, u64, u64);

const V100: [Row; 6] = [
    (1_000, 160, 0x3f98f9c18f9c18fa, 0x4099a00000000000),
    (1_000, 320, 0x3f93e7063e7063e7, 0x40a0141414141414),
    (262_144, 160, 0x3febc37be7ec7a8d, 0x40c79ae147ae147b),
    (262_144, 320, 0x3fe61fc6bcd071a8, 0x40cd9f38d26c059f),
    (2_097_152, 160, 0x3fef66aca8ef2064, 0x40f4dee147ae147a),
    (2_097_152, 320, 0x3fe905d1969e8dd0, 0x40fa30ca63fd9730),
];

const K20X: [Row; 6] = [
    (1_000, 160, 0x3f90c9714fbcda3b, 0x40c46c9249249249),
    (1_000, 320, 0x3f8ac10c9714fbce, 0x40c9a15833a15834),
    (262_144, 160, 0x3fea0a390361d3e8, 0x40eaf715f15f15f1),
    (262_144, 320, 0x3fe4c0256eb1f4dd, 0x40f0eb590feb5910),
    (2_097_152, 160, 0x3fef1c24ddfa308e, 0x41169215f15f15f2),
    (2_097_152, 320, 0x3fe8ca6d60e35eb1, 0x411c52ee5c12ee5c),
];

/// Kernel µs bits of a 128³ launch at (1.2, 160) with 17 GiB resident.
const V100_OVERSUBSCRIBED: u64 = 0x413a169999999999;
const K20X_OVERSUBSCRIBED: u64 = 0x416528f492492493;

fn check(gpu: &DeviceConfig, rows: &[Row], oversubscribed: u64) {
    for &(zones, regs, occ, t) in rows {
        let got_occ = gpu.occupancy(zones, regs);
        let got_t = gpu.kernel_time_us(zones, &KernelProfile::new(1.2, regs), 0);
        assert_eq!(
            got_occ.to_bits(),
            occ,
            "{} occupancy {zones}/{regs}",
            gpu.name
        );
        assert_eq!(got_t.to_bits(), t, "{} kernel µs {zones}/{regs}", gpu.name);
    }
    let t = gpu.kernel_time_us(128 * 128 * 128, &KernelProfile::new(1.2, 160), 17 << 30);
    assert_eq!(t.to_bits(), oversubscribed, "{} oversubscribed", gpu.name);
}

#[test]
fn v100_occupancy_and_kernel_time_are_pinned() {
    check(&DeviceConfig::v100(), &V100, V100_OVERSUBSCRIBED);
}

#[test]
fn k20x_occupancy_and_kernel_time_are_pinned() {
    check(&DeviceConfig::k20x(), &K20X, K20X_OVERSUBSCRIBED);
}

#[test]
fn hybrid_offload_estimate_is_pinned() {
    let gpu = DeviceConfig::v100();
    let mut outliers = vec![1.0; 100_000];
    outliers.extend(vec![1000.0; 100]);
    let (g, h) = hybrid_offload_estimate(&gpu, &outliers, 10.0, 0.05, 320);
    assert_eq!(
        (g.to_bits(), h.to_bits()),
        (0x4146667bcedabf20, 0x413e848000000000)
    );
    let uniform = vec![1.0; 100_000];
    let (g, h) = hybrid_offload_estimate(&gpu, &uniform, 10.0, 0.05, 320);
    assert_eq!(
        (g.to_bits(), h.to_bits()),
        (0x40b6e5358ae0358b, 0x40b6e5358ae0358b)
    );
}
