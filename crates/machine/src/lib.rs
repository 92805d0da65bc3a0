//! # exastro-machine
//!
//! A Summit-like cluster performance simulator: the substitution substrate
//! for the paper's 1–512-node weak-scaling measurements (§IV). Ranks own
//! real `exastro-amr` box decompositions; ghost-exchange and reduction
//! traffic is extracted exactly from those decompositions; and an α–β
//! network model (intra-node NVLink-class transport, shared per-node NIC
//! with fat-tree contention, log-tree collectives) prices it. Absolute
//! throughputs are calibrated to the paper's single-node numbers; the
//! scaling *shapes* are emergent. Its [`device`] module is the one place a
//! GPU is priced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod model;
pub mod ranks;
pub mod workload;

pub use device::{hybrid_offload_estimate, DeviceConfig, KernelProfile};
pub use faults::{FaultEvent, NodeFaultConfig, NodeFaultModel};
pub use fig2::{
    canonical_series, envelope_series, hydro_overlap, overlapped_series, sedov_workload,
    sedov_workload_overlapped, ScalingPoint,
};
pub use fig3::{
    bubble_point, bubble_point_with, bubble_series, bubble_series_overlapped, BubblePoint,
};
pub use model::{
    CpuNodeReference, Machine, NetworkModel, NodeModel, OverlapModel, RankComm, StepTime,
    StepWorkload,
};
pub use ranks::{RankLease, RankPool};
pub use workload::{add_comm, exchange_comm, scale_comm};
