//! Factorization statistics: fill-in, floating-point work, memory and time.
//!
//! The paper's tables report the factorization time separately from the total
//! solve time (Remark 4: factorization happens only once, on smaller
//! matrices, at the first iteration) and the memory footprint decides whether
//! a configuration can run at all (the `nem` — not enough memory — entries of
//! Table 3).  These statistics provide the raw numbers that the grid
//! performance model converts into simulated wall-clock times.

/// Statistics of a direct factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorStats {
    /// Order of the factored matrix.
    pub n: usize,
    /// Nonzeros of the input matrix.
    pub nnz_a: usize,
    /// Nonzeros of the `L` factor (including the unit diagonal).
    pub nnz_l: usize,
    /// Nonzeros of the `U` factor (including the diagonal).
    pub nnz_u: usize,
    /// Floating point operations performed by the factorization.
    pub flops: u64,
    /// Entries of `L` examined by the symbolic reach of a sparse
    /// factorization — an exact, repeatable count of its symbolic work
    /// (`0` for the dense and band kinds, which have no symbolic phase).
    pub symbolic_edges: u64,
    /// Wall-clock seconds spent in the factorization (on the host running the
    /// test/benchmark, not on the modelled grid machine).
    pub factor_seconds: f64,
}

impl FactorStats {
    /// An empty statistics record for order-`n` solvers that do not track
    /// detailed counters.
    pub fn empty(n: usize, nnz_a: usize) -> Self {
        FactorStats {
            n,
            nnz_a,
            nnz_l: 0,
            nnz_u: 0,
            flops: 0,
            symbolic_edges: 0,
            factor_seconds: 0.0,
        }
    }

    /// Total nonzeros stored in the factors.
    pub fn factor_nnz(&self) -> usize {
        self.nnz_l + self.nnz_u
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` (at least 1 for a meaningful
    /// factorization; `1.0` when no factorization has been recorded).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz_a == 0 || self.factor_nnz() == 0 {
            return 1.0;
        }
        self.factor_nnz() as f64 / self.nnz_a as f64
    }

    /// Estimated memory footprint of the stored factors, in bytes
    /// (index + value per entry, plus column pointers).
    pub fn factor_memory_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<usize>() + std::mem::size_of::<f64>();
        self.factor_nnz() * per_entry + 2 * (self.n + 1) * std::mem::size_of::<usize>()
    }

    /// Estimated flops for a pair of triangular solves with these factors
    /// (two operations per stored entry).
    pub fn solve_flops(&self) -> u64 {
        2 * self.factor_nnz() as u64
    }
}

/// Accumulates statistics across the repeated solves of a multisplitting run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Number of triangular-solve calls performed.
    pub solves: usize,
    /// Total flops spent in triangular solves.
    pub solve_flops: u64,
    /// Total wall-clock seconds spent in triangular solves.
    pub solve_seconds: f64,
}

impl SolveStats {
    /// Records one solve.
    pub fn record(&mut self, flops: u64, seconds: f64) {
        self.solves += 1;
        self.solve_flops += flops;
        self.solve_seconds += seconds;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.solve_flops += other.solve_flops;
        self.solve_seconds += other.solve_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_ratio_and_memory() {
        let s = FactorStats {
            n: 10,
            nnz_a: 30,
            nnz_l: 40,
            nnz_u: 50,
            flops: 1000,
            symbolic_edges: 0,
            factor_seconds: 0.5,
        };
        assert_eq!(s.factor_nnz(), 90);
        assert!((s.fill_ratio() - 3.0).abs() < 1e-12);
        assert!(s.factor_memory_bytes() > 90 * 8);
        assert_eq!(s.solve_flops(), 180);
    }

    #[test]
    fn empty_stats_have_unit_fill() {
        let s = FactorStats::empty(5, 10);
        assert_eq!(s.fill_ratio(), 1.0);
        assert_eq!(s.factor_nnz(), 0);
    }

    #[test]
    fn zero_nnz_a_does_not_divide_by_zero() {
        let s = FactorStats {
            n: 0,
            nnz_a: 0,
            nnz_l: 0,
            nnz_u: 0,
            flops: 0,
            symbolic_edges: 0,
            factor_seconds: 0.0,
        };
        assert_eq!(s.fill_ratio(), 1.0);
    }

    #[test]
    fn solve_stats_record_and_merge() {
        let mut a = SolveStats::default();
        a.record(100, 0.01);
        a.record(200, 0.02);
        let mut b = SolveStats::default();
        b.record(50, 0.005);
        a.merge(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.solve_flops, 350);
        assert!((a.solve_seconds - 0.035).abs() < 1e-12);
    }
}
