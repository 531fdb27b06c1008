//! Grid environment model: machines, clusters, networks and the cost model
//! used to replay solver executions on the paper's three cluster
//! configurations.
//!
//! The paper evaluates its algorithms on physical testbeds that we cannot
//! reproduce here:
//!
//! * **cluster1** — 20 homogeneous Pentium IV 2.6 GHz machines, 256 MB each,
//!   on a 100 Mb/s LAN,
//! * **cluster2** — 8 heterogeneous machines (P-IV 1.7–2.6 GHz, 512 MB) on a
//!   100 Mb/s LAN,
//! * **cluster3** — 10 heterogeneous machines spread over two sites (7 + 3)
//!   with 100 Mb/s LANs joined by a 20 Mb/s Internet link, optionally loaded
//!   with "perturbing communications" (Table 4).
//!
//! This crate describes those environments as data ([`cluster`]), models link
//! and CPU costs ([`network`], [`perf`]) for the performance replay in
//! `msplit-core`.
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! `msplit-core` (`crates/core/src/lib.rs`), this crate is the environment
//! model around the runtime: link delays from [`network`] are replayed onto
//! live transports, and [`cluster`] speed profiles size the bands
//! heterogeneously: [`Grid::relative_speeds`] feeds the solver's static
//! `relative_speeds` splitting weights.

pub mod cluster;
pub mod machine;
pub mod network;
pub mod perf;

pub use cluster::{Grid, Site};
pub use machine::Machine;
pub use network::{LinkSpec, NetworkModel, PerturbationModel};
pub use perf::CostModel;

/// Errors produced by the grid model.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A processor rank is out of range for the grid.
    UnknownRank { rank: usize, total: usize },
    /// A configuration is structurally invalid (empty site, zero bandwidth…).
    InvalidConfig(String),
    /// A memory requirement exceeds a machine's capacity.
    OutOfMemory {
        rank: usize,
        required_bytes: usize,
        available_bytes: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::UnknownRank { rank, total } => {
                write!(f, "processor rank {rank} out of range (grid has {total})")
            }
            GridError::InvalidConfig(msg) => write!(f, "invalid grid configuration: {msg}"),
            GridError::OutOfMemory {
                rank,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "not enough memory on rank {rank}: required {required_bytes} bytes, available {available_bytes}"
            ),
        }
    }
}

impl std::error::Error for GridError {}
