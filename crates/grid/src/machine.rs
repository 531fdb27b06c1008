//! Individual machine (processor) description.

#[cfg(msplit_serde)]
use serde::{Deserialize, Serialize};

/// A single machine of the grid.
///
/// The paper's testbeds are Pentium IV machines between 1.7 and 2.6 GHz with
/// 256 or 512 MB of memory.  We characterize a machine by a sustained
/// floating-point rate for sparse kernels rather than by its clock rate: a
/// Pentium IV sustains roughly 0.1–0.2 GFLOP/s on irregular sparse
/// factorization workloads, and the rate is assumed proportional to the clock
/// (which is what the paper's heterogeneity discussion relies on).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct Machine {
    /// Human-readable name.
    pub name: String,
    /// Clock rate in GHz (for reporting).
    pub clock_ghz: f64,
    /// Sustained rate for sparse numerical kernels, in GFLOP/s.
    pub sparse_gflops: f64,
    /// Physical memory, in megabytes.
    pub memory_mb: usize,
}

/// Fraction of peak a Pentium-IV-class machine sustains on sparse kernels,
/// relative to one flop per cycle.
const SPARSE_EFFICIENCY: f64 = 0.06;

/// Fraction of the physical memory usable by the solver (the OS, the MPI or
/// Corba runtime and the buffers take the rest).  The paper's cage11 run
/// fails on a 1 GB machine, i.e. the usable fraction is well below 1.
const USABLE_MEMORY_FRACTION: f64 = 0.75;

impl Machine {
    /// Builds a Pentium-IV-class machine from its clock rate and memory.
    pub fn pentium4(name: impl Into<String>, clock_ghz: f64, memory_mb: usize) -> Self {
        Machine {
            name: name.into(),
            clock_ghz,
            sparse_gflops: clock_ghz * SPARSE_EFFICIENCY,
            memory_mb,
        }
    }

    /// Seconds needed to execute `flops` floating point operations of sparse
    /// numerical work on this machine.
    pub fn seconds_for_flops(&self, flops: u64) -> f64 {
        flops as f64 / (self.sparse_gflops * 1e9)
    }

    /// Usable memory in bytes.
    pub fn usable_memory_bytes(&self) -> usize {
        (self.memory_mb as f64 * 1024.0 * 1024.0 * USABLE_MEMORY_FRACTION) as usize
    }

    /// Whether a working set of `bytes` fits in the usable memory.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.usable_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium4_scaling() {
        let fast = Machine::pentium4("fast", 2.6, 256);
        let slow = Machine::pentium4("slow", 1.7, 512);
        assert!(fast.sparse_gflops > slow.sparse_gflops);
    }

    #[test]
    fn seconds_for_flops_is_linear() {
        let m = Machine::pentium4("m", 2.0, 256);
        let t1 = m.seconds_for_flops(1_000_000);
        let t2 = m.seconds_for_flops(2_000_000);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        assert!(t1 > 0.0);
    }

    #[test]
    fn memory_fit_checks() {
        let m = Machine::pentium4("m", 2.6, 256);
        assert!(m.fits(10 * 1024 * 1024));
        assert!(!m.fits(300 * 1024 * 1024));
        // usable memory is strictly less than physical
        assert!(m.usable_memory_bytes() < 256 * 1024 * 1024);
    }

    // Requires a real `serde`/`serde_json` dependency, so it only compiles
    // under the custom `--cfg msplit_serde` flag (see vendor/README.md).
    #[cfg(msplit_serde)]
    #[test]
    fn serde_round_trip() {
        let m = Machine::pentium4("node-3", 2.2, 512);
        let json = serde_json::to_string(&m).unwrap();
        let back: Machine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
