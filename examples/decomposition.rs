//! Figure 1 of the paper, as a runnable demonstration: one box, three ways
//! to parallelize it — whole box per MPI rank, coarse tiles per OpenMP
//! thread, one zone per GPU thread — plus the register/occupancy economics
//! that drive the choice.
//!
//! ```sh
//! cargo run --release --example decomposition
//! ```

use exastro::amr::{BoxArray, DistStrategy, DistributionMapping, IndexBox, IntVect};
use exastro::machine::DeviceConfig;

fn main() {
    let domain = IndexBox::cube(128);
    println!("domain: {domain:?} ({} zones)\n", domain.num_zones());

    // (Left panel) The MultiFab lives on a collection of boxes; each box
    // is assigned to an MPI rank.
    let ba = BoxArray::decompose(domain, 64, 32);
    let dm = DistributionMapping::new(&ba, 6, DistStrategy::Knapsack);
    println!(
        "-- MPI decomposition: {} boxes over 6 ranks (1 per GPU)",
        ba.len()
    );
    for r in 0..6 {
        let boxes = dm.boxes_on(r);
        let zones: i64 = boxes.iter().map(|&i| ba.get(i).num_zones()).sum();
        println!("   rank {r}: {:2} boxes, {:9} zones", boxes.len(), zones);
    }
    println!("   load imbalance (max/mean): {:.3}\n", dm.imbalance(&ba));

    // (Centre panel) Coarse-grained OpenMP: each thread takes a tile of the
    // box's x extent by 16 × 16, counted by ceiling division per dimension.
    let one_box = ba.get(0);
    let size = one_box.size();
    let tile = IntVect::new(size.x(), 16, 16);
    let ntiles: i32 = (0..3).map(|d| (size[d] + tile[d] - 1) / tile[d]).product();
    let tile_zones: i64 = (0..3).map(|d| tile[d].min(size[d]) as i64).product();
    println!("-- OpenMP tiling of one {size:?} box: {ntiles} tiles of ≤{tile_zones} zones each");
    println!("   (a tile spans the whole box in x to keep stride-1 inner loops)\n");

    // (Right panel) On a GPU every zone is one thread: lo == hi per thread.
    println!(
        "-- GPU threading: {} zones → {} threads; modeled occupancy vs launch size:",
        one_box.num_zones(),
        one_box.num_zones()
    );
    let gpu = DeviceConfig::v100();
    for side in [8, 16, 32, 64, 100, 128] {
        let zones = (side as i64).pow(3);
        let occ = gpu.occupancy(zones, 128);
        println!("   {side:>4}³ zones: occupancy {:5.1}%", occ * 100.0);
    }
    println!("\n-- register pressure (the §IV-B problem):");
    for regs in [128, 255, 320, 510] {
        let occ = gpu.occupancy(100i64.pow(3), regs);
        println!(
            "   {regs:>4} registers/thread: occupancy {:5.1}%{}",
            occ * 100.0,
            if regs > 255 { "  (spilling)" } else { "" }
        );
    }
}
