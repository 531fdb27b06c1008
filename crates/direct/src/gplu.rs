//! Left-looking Gilbert–Peierls sparse LU factorization with partial
//! pivoting.
//!
//! This is the numerical core of the SuperLU stand-in.  For each column `j`
//! of the (column-permuted) matrix the algorithm:
//!
//! 1. finds the nonzero pattern of `L⁻¹ A(:, j)` — the rows reachable from
//!    the pattern of `A(:, j)` in the graph of the finished columns of `L` —
//!    with a search over the *symmetrically pruned* graph
//!    ([`crate::symbolic::PrunedReach`]), split into rows already pivoted
//!    and rows not yet pivoted,
//! 2. performs the numeric sparse triangular solve along the pivoted half,
//! 3. selects the largest entry of the unpivoted half as the pivot (partial
//!    pivoting with an optional diagonal-preference threshold),
//! 4. stores the pivoted half as the column of `U` and the unpivoted half,
//!    scaled by the pivot, as the column of `L`,
//! 5. prunes the columns of `L` that step `j` made prunable.
//!
//! The total cost is proportional to the number of floating-point operations
//! actually performed — the property that makes Gilbert–Peierls the standard
//! kernel for unsymmetric sparse LU (it is the algorithm SuperLU's
//! supernodal code generalizes).  Pruning is what keeps step 1 inside that
//! bound in practice: unpruned, the search re-reads every entry of every
//! reached column and costs three times the arithmetic.
//!
//! # The numeric order is canonical
//!
//! Step 2 applies the updates in ascending **pivot step**, not in the order
//! the search found the rows.  That is a topological order of `L`'s graph —
//! column `k` only holds rows that were unpivoted when it was stored, so
//! every edge runs from a lower step to a higher one — and it makes the
//! column of `U` come out sorted.  Pivot-magnitude ties go to the lowest
//! original row index.  Each `x[r]` therefore receives its updates in an
//! order fixed by the matrix and the pivots alone, and the computed factors
//! do not depend on how the pattern was traversed: a pruned search, an
//! unpruned one, and a column of `L` whose entries pruning has reordered all
//! give the same bits.  [`SparseLu::factorize_reference`] keeps the unpruned,
//! allocating search as the oracle; `tests/kernel_equivalence.rs` holds the
//! production kernel bitwise equal to it.
//!
//! # Pruning and its guard
//!
//! The invariant and the proof are in [`crate::symbolic`].  The numeric side
//! of the contract is here: the update of step 2 still walks the **whole**
//! column of `L`, so every row it writes must be in the pattern, or the
//! scatter vector `x` is left dirty for the next column.  Pruning preserves
//! that only while `struct L(:, j)` contains the unpivoted rows of the
//! columns pruned at step `j`; a step that discards a candidate of `L(:, j)`
//! (exact cancellation, or the drop tolerance) prunes nothing.
//!
//! The column loop allocates nothing per column: the pattern, marks and
//! search stack persist, entries are pushed straight into the factors, and
//! `L` is renumbered into pivot order once, by a counting pass.

use crate::stats::FactorStats;
use crate::symbolic::{reach, FactorColumns, PrunedReach, ReachWorkspace};
use crate::DirectError;
use msplit_sparse::ordering;
use msplit_sparse::{CscMatrix, CsrMatrix, Permutation};

/// Fill-reducing column ordering applied before factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnOrdering {
    /// Keep the natural ordering.
    Natural,
    /// Reverse Cuthill–McKee on the symmetrized pattern (good for banded
    /// matrices such as the paper's generated systems).
    #[default]
    ReverseCuthillMcKee,
    /// Greedy minimum degree on the symmetrized pattern.
    MinimumDegree,
}

/// Configuration of the sparse LU factorization.
#[derive(Debug, Clone)]
pub struct SparseLuConfig {
    /// Fill-reducing column ordering.
    pub ordering: ColumnOrdering,
    /// Partial-pivoting diagonal preference: the diagonal entry is accepted
    /// as pivot when its magnitude is at least `pivot_threshold` times the
    /// largest candidate.  `1.0` is classic partial pivoting, smaller values
    /// preserve more structure (SuperLU's default is 1.0 with optional
    /// threshold pivoting).
    pub pivot_threshold: f64,
    /// Entries with magnitude below `drop_tolerance * column_max` are not
    /// stored in `L`/`U`.  `0.0` disables dropping (exact factorization).
    pub drop_tolerance: f64,
}

impl Default for SparseLuConfig {
    fn default() -> Self {
        SparseLuConfig {
            ordering: ColumnOrdering::ReverseCuthillMcKee,
            pivot_threshold: 1.0,
            drop_tolerance: 0.0,
        }
    }
}

/// Reusable scratch for the in-place triangular solves of
/// [`SparseLu::solve_into`] (and, through the [`crate::api::Factorization`]
/// trait, of every solver kind).
///
/// The sparse solve needs one order-`n` buffer to hold the row-permuted
/// right-hand side while the factors are applied; the dense solve uses the
/// same buffer for its pivot gather.  Allocated once and reused, it makes
/// every steady-state solve allocation-free.
#[derive(Debug, Default, Clone)]
pub struct SolveScratch {
    work: Vec<f64>,
}

impl SolveScratch {
    /// Creates an empty scratch (the buffer grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reusable `f64` buffer, grown to at least `n` entries.
    pub fn buffer(&mut self, n: usize) -> &mut [f64] {
        self.work.resize(n, 0.0);
        &mut self.work[..n]
    }

    /// The raw growable buffer, for kernels that manage sizing themselves
    /// (the dense LU gather workspace).
    pub fn raw(&mut self) -> &mut Vec<f64> {
        &mut self.work
    }
}

/// A computed sparse LU factorization `P A Q = L U`.
///
/// `P` is the row permutation from partial pivoting, `Q` the fill-reducing
/// column permutation.  `L` is unit lower triangular (unit diagonal not
/// stored), `U` upper triangular; both are stored column-wise in pivot-order
/// numbering.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column permutation (new-to-old): column `j` of the factored matrix is
    /// column `col_perm[j]` of the input.
    col_perm: Permutation,
    /// Row permutation: `row_perm[k]` is the original row pivoted at step `k`.
    row_perm: Vec<usize>,
    /// `L` (strictly lower part, unit diagonal implicit), pivot-order rows.
    l: FactorColumns,
    /// `U` (including diagonal as the last entry of each column), pivot-order rows.
    u: FactorColumns,
    stats: FactorStats,
}

impl SparseLu {
    /// Factorizes a square CSR matrix with the default configuration.
    pub fn factorize(a: &CsrMatrix) -> Result<Self, DirectError> {
        Self::factorize_with(a, &SparseLuConfig::default())
    }

    /// Factorizes a square CSR matrix with an explicit configuration.
    ///
    /// Fails with [`DirectError::NonFinite`] on a NaN or infinite entry and
    /// with [`DirectError::Singular`] when a column has no nonzero pivot
    /// candidate.
    pub fn factorize_with(a: &CsrMatrix, config: &SparseLuConfig) -> Result<Self, DirectError> {
        Self::assemble(a, config, |acsc, col_perm| {
            let mut x = vec![0.0f64; acsc.rows()];
            factor_columns(acsc, col_perm, config, &mut x)
        })
    }

    /// The retained reference kernel: the same canonical numeric order as
    /// [`SparseLu::factorize_with`], but an unpruned, allocating
    /// [`crate::symbolic::reach`] per column and a sort per column of `L`.
    /// The production kernel must equal it **bitwise** — factors,
    /// permutations, `nnz_l`/`nnz_u`/`flops` and solutions; only
    /// `symbolic_edges` (the unpruned count here) and the timing differ.
    /// For tests and `perf-report` only.
    #[doc(hidden)]
    pub fn factorize_reference(
        a: &CsrMatrix,
        config: &SparseLuConfig,
    ) -> Result<Self, DirectError> {
        Self::assemble(a, config, |acsc, col_perm| {
            factor_columns_reference(acsc, col_perm, config)
        })
    }

    /// Everything around the column loop: ordering, column access to `A`
    /// and the statistics.
    fn assemble(
        a: &CsrMatrix,
        config: &SparseLuConfig,
        column_loop: impl FnOnce(&CscMatrix, &Permutation) -> Result<RawFactors, DirectError>,
    ) -> Result<Self, DirectError> {
        if !a.is_square() {
            return Err(DirectError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let start = std::time::Instant::now();

        let col_perm = match config.ordering {
            ColumnOrdering::Natural => Permutation::identity(n),
            ColumnOrdering::ReverseCuthillMcKee => ordering::reverse_cuthill_mckee(a),
            ColumnOrdering::MinimumDegree => ordering::minimum_degree(a),
        };

        // Column-oriented access to A with the fill-reducing ordering applied
        // symmetrically (rows keep their original numbering; only the order in
        // which columns are eliminated changes, plus the matching row
        // relabeling is captured by partial pivoting).
        let acsc: CscMatrix = a.to_csc();
        let RawFactors {
            l,
            u,
            row_perm,
            flops,
            symbolic_edges,
        } = column_loop(&acsc, &col_perm)?;

        let stats = FactorStats {
            n,
            nnz_a: a.nnz(),
            nnz_l: l.nnz() + n, // account for the implicit unit diagonal
            nnz_u: u.nnz(),
            flops,
            symbolic_edges,
            factor_seconds: start.elapsed().as_secs_f64(),
        };

        Ok(SparseLu {
            n,
            col_perm,
            row_perm,
            l,
            u,
            stats,
        })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Factorization statistics (fill, flops, timing).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Row permutation chosen by partial pivoting (`row_perm[k]` = original
    /// row pivoted at step `k`).
    pub fn row_permutation(&self) -> &[usize] {
        &self.row_perm
    }

    /// Fill-reducing column permutation (new-to-old).
    pub fn column_permutation(&self) -> &Permutation {
        &self.col_perm
    }

    /// The stored factors `(L, U)` in pivot-order numbering, for the bitwise
    /// equivalence tests.
    #[doc(hidden)]
    pub fn factors(&self) -> (&FactorColumns, &FactorColumns) {
        (&self.l, &self.u)
    }

    /// Solves `A x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DirectError> {
        let mut x = b.to_vec();
        let mut scratch = SolveScratch::new();
        self.solve_into(&mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side, on
    /// exit the solution.  The permutation scratch lives in `scratch` and is
    /// reused across calls, so steady-state solves perform **no heap
    /// allocation** — this is the kernel the multisplitting drivers run once
    /// per outer iteration.
    pub fn solve_into(&self, b: &mut [f64], scratch: &mut SolveScratch) -> Result<(), DirectError> {
        if b.len() != self.n {
            return Err(DirectError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        // y = P b
        let y = scratch.buffer(self.n);
        for (yj, &r) in y.iter_mut().zip(self.row_perm.iter()) {
            *yj = b[r];
        }

        // Forward solve L y = P b (L unit lower triangular, columns in pivot order).
        for j in 0..self.n {
            let yj = y[j];
            if yj == 0.0 {
                continue;
            }
            for (r, v) in self.l.col(j) {
                y[r] -= v * yj;
            }
        }

        // Backward solve U z = y (U columns hold the diagonal as last entry).
        for j in (0..self.n).rev() {
            let rows = self.u.col_rows(j);
            debug_assert_eq!(*rows.last().expect("U column never empty"), j);
            let lo = self.u.col_ptr[j];
            let hi = self.u.col_ptr[j + 1];
            let diag = self.u.values[hi - 1];
            if diag == 0.0 {
                return Err(DirectError::Singular { column: j });
            }
            let zj = y[j] / diag;
            y[j] = zj;
            if zj != 0.0 {
                for idx in lo..hi - 1 {
                    let r = self.u.rows[idx];
                    y[r] -= self.u.values[idx] * zj;
                }
            }
        }

        // Undo the column permutation: x[col_perm[j]] = z[j].
        for j in 0..self.n {
            b[self.col_perm.old_of(j)] = y[j];
        }
        Ok(())
    }

    /// Number of stored nonzeros in `L` plus `U` (including unit diagonal).
    pub fn factor_nnz(&self) -> usize {
        self.stats.nnz_l + self.stats.nnz_u
    }
}

/// What a column loop hands to [`SparseLu::assemble`]: both factors in
/// pivot-order numbering (every column of `L` ascending by row, every column
/// of `U` ascending with the diagonal last), the row permutation and the
/// counters.
struct RawFactors {
    l: FactorColumns,
    u: FactorColumns,
    /// Pivot step → original row.
    row_perm: Vec<usize>,
    flops: u64,
    symbolic_edges: u64,
}

/// Rejects a NaN or infinite entry of `A` (checked while it is scattered).
#[inline]
fn check_finite(v: f64, row: usize, col: usize) -> Result<(), DirectError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(DirectError::NonFinite { row, col })
    }
}

/// Partial pivoting over the not-yet-pivoted rows of a column's pattern:
/// the largest magnitude wins and ties go to the **lowest original row
/// index**, so the choice does not depend on the order of `candidates`.
/// `diag_row`, when it is a candidate, is preferred if its magnitude reaches
/// `threshold` times the largest.  Returns `(pivot_row, largest_magnitude)`,
/// or `None` when every candidate is zero (or there is none).
fn select_pivot(
    x: &[f64],
    candidates: &[usize],
    diag_row: Option<usize>,
    threshold: f64,
) -> Option<(usize, f64)> {
    let mut pivot_row = usize::MAX;
    let mut pivot_mag = 0.0f64;
    for &row in candidates {
        let mag = x[row].abs();
        if mag > pivot_mag || (mag == pivot_mag && row < pivot_row) {
            pivot_mag = mag;
            pivot_row = row;
        }
    }
    if pivot_mag == 0.0 {
        return None;
    }
    if let Some(d) = diag_row {
        if x[d] != 0.0 && x[d].abs() >= threshold * pivot_mag {
            pivot_row = d;
        }
    }
    Some((pivot_row, pivot_mag))
}

/// The numeric sparse triangular solve of one column, in the canonical
/// order: for every pivot step of `pivoted` (ascending), subtracts `x` at
/// that step's pivot row times the whole column of `l` from `x`.  Returns
/// the flops performed.
#[inline]
fn apply_updates(l: &FactorColumns, pivoted: &[usize], row_perm: &[usize], x: &mut [f64]) -> u64 {
    let mut flops = 0;
    for &k in pivoted {
        let xi = x[row_perm[k]];
        if xi == 0.0 {
            continue;
        }
        let range = l.col_range(k);
        flops += 2 * range.len() as u64;
        for (&r, &lv) in l.rows[range.clone()].iter().zip(&l.values[range]) {
            x[r] -= lv * xi;
        }
    }
    flops
}

/// The production column loop: pruned reach, canonical numeric order, no
/// allocation per column (see the module docs).
///
/// `x` is the scatter vector: all-zero and of order `n` on entry, all-zero
/// again on `Ok` — the invariant the pruning guard protects.
fn factor_columns(
    acsc: &CscMatrix,
    col_perm: &Permutation,
    config: &SparseLuConfig,
    x: &mut [f64],
) -> Result<RawFactors, DirectError> {
    let n = acsc.rows();
    let (a_ptr, a_rows, a_vals) = (acsc.col_ptr(), acsc.row_indices(), acsc.values());
    let mut l = FactorColumns::with_capacity(n, acsc.nnz() * 4);
    let mut u = FactorColumns::with_capacity(n, acsc.nnz() * 4);
    let mut pinv = vec![usize::MAX; n];
    let mut row_perm = vec![usize::MAX; n];
    let mut sym = PrunedReach::new(n);
    let mut flops: u64 = 0;

    for j in 0..n {
        let aj = col_perm.old_of(j);

        // Scatter A(:, aj) and seed the pattern with its rows.
        sym.begin_column();
        for idx in a_ptr[aj]..a_ptr[aj + 1] {
            let (r, v) = (a_rows[idx], a_vals[idx]);
            check_finite(v, r, aj)?;
            x[r] = v;
            sym.visit(r, &pinv);
        }
        sym.search(&l, &pinv);

        flops += apply_updates(&l, &sym.pivoted, &row_perm, x);

        let diag_row = (sym.contains(aj) && pinv[aj] == usize::MAX).then_some(aj);
        let Some((pivot_row, pivot_mag)) =
            select_pivot(x, &sym.unpivoted, diag_row, config.pivot_threshold)
        else {
            return Err(DirectError::Singular { column: j });
        };
        let pivot = x[pivot_row];
        pinv[pivot_row] = j;
        row_perm[j] = pivot_row;
        let drop_tol = config.drop_tolerance * pivot_mag;

        // U column: the pivoted half, already ascending, diagonal last.
        for &k in &sym.pivoted {
            let v = std::mem::take(&mut x[row_perm[k]]);
            if v != 0.0 && v.abs() > drop_tol {
                u.push_entry(k, v);
            }
        }
        u.push_entry(j, pivot);
        u.finish_column();

        // L column: the unpivoted half, scaled by the pivot.
        let mut discarded = false;
        for &row in &sym.unpivoted {
            let v = std::mem::take(&mut x[row]);
            if row == pivot_row {
                continue;
            }
            if v == 0.0 {
                discarded = true;
                continue;
            }
            let scaled = v / pivot;
            flops += 1;
            if scaled.abs() > drop_tol {
                l.push_entry(row, scaled);
            } else {
                discarded = true;
            }
        }
        l.finish_column();
        sym.column_finished(&l);

        if !discarded {
            let u_col = u.col_range(j);
            let u_steps = &u.rows[u_col.start..u_col.end - 1];
            sym.prune(&mut l, &pinv, u_steps, pivot_row);
        }
    }

    renumber_rows(&mut l, &pinv);
    Ok(RawFactors {
        l,
        u,
        row_perm,
        flops,
        symbolic_edges: sym.edges,
    })
}

/// Renumbers the rows of `l` from original to pivot-order numbering and
/// leaves every column ascending, with one counting pass: bucket the entries
/// by new row (columns ascending within a row), then deal them back to their
/// columns row by row.
fn renumber_rows(l: &mut FactorColumns, pinv: &[usize]) {
    let n = pinv.len();
    let mut row_ptr = vec![0usize; n + 1];
    for r in &mut l.rows {
        *r = pinv[*r];
        row_ptr[*r + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut fill = row_ptr.clone();
    let mut cols = vec![0usize; l.nnz()];
    let mut vals = vec![0.0f64; l.nnz()];
    for j in 0..l.num_cols() {
        for idx in l.col_range(j) {
            let at = fill[l.rows[idx]];
            cols[at] = j;
            vals[at] = l.values[idx];
            fill[l.rows[idx]] += 1;
        }
    }
    let mut next = l.col_ptr.clone();
    for i in 0..n {
        for at in row_ptr[i]..row_ptr[i + 1] {
            let j = cols[at];
            l.rows[next[j]] = i;
            l.values[next[j]] = vals[at];
            next[j] += 1;
        }
    }
}

/// The reference column loop behind [`SparseLu::factorize_reference`]: the
/// pre-pruning kernel (an allocating, unpruned [`reach`] and fresh `Vec`s per
/// column, a sort per column of `L`) with the canonical numeric order.
fn factor_columns_reference(
    acsc: &CscMatrix,
    col_perm: &Permutation,
    config: &SparseLuConfig,
) -> Result<RawFactors, DirectError> {
    let n = acsc.rows();
    let mut l = FactorColumns::with_capacity(n, acsc.nnz() * 4);
    let mut u = FactorColumns::with_capacity(n, acsc.nnz() * 4);
    let mut pinv = vec![usize::MAX; n];
    let mut row_perm = vec![usize::MAX; n];
    let mut ws = ReachWorkspace::new(n);
    let mut x = vec![0.0f64; n];
    let mut flops: u64 = 0;
    let mut symbolic_edges: u64 = 0;

    for j in 0..n {
        let aj = col_perm.old_of(j);

        let seed_rows: Vec<usize> = acsc.col(aj).map(|(r, _)| r).collect();
        for (r, v) in acsc.col(aj) {
            check_finite(v, r, aj)?;
            x[r] = v;
        }
        let pattern = reach(&l, &pinv, &seed_rows, &mut ws);
        let (mut pivoted, unpivoted): (Vec<usize>, Vec<usize>) = pattern
            .into_iter()
            .partition(|&row| pinv[row] != usize::MAX);
        for step in &mut pivoted {
            *step = pinv[*step];
            symbolic_edges += l.col_rows(*step).len() as u64;
        }
        pivoted.sort_unstable();

        flops += apply_updates(&l, &pivoted, &row_perm, &mut x);

        let diag_row = unpivoted.contains(&aj).then_some(aj);
        let Some((pivot_row, pivot_mag)) =
            select_pivot(&x, &unpivoted, diag_row, config.pivot_threshold)
        else {
            return Err(DirectError::Singular { column: j });
        };
        let pivot = x[pivot_row];
        pinv[pivot_row] = j;
        row_perm[j] = pivot_row;
        let drop_tol = config.drop_tolerance * pivot_mag;

        let mut u_entries: Vec<(usize, f64)> = Vec::new();
        for &k in &pivoted {
            let v = std::mem::take(&mut x[row_perm[k]]);
            if v != 0.0 && v.abs() > drop_tol {
                u_entries.push((k, v));
            }
        }
        u_entries.push((j, pivot));
        u.push_column(u_entries);

        let mut l_entries: Vec<(usize, f64)> = Vec::new();
        for &row in &unpivoted {
            let v = std::mem::take(&mut x[row]);
            if row != pivot_row && v != 0.0 {
                let scaled = v / pivot;
                flops += 1;
                if scaled.abs() > drop_tol {
                    l_entries.push((row, scaled));
                }
            }
        }
        l.push_column(l_entries);
    }

    let mut l_final = FactorColumns::with_capacity(n, l.nnz());
    for j in 0..n {
        let mut col: Vec<(usize, f64)> = l.col(j).map(|(r, v)| (pinv[r], v)).collect();
        col.sort_unstable_by_key(|&(r, _)| r);
        l_final.push_column(col);
    }
    Ok(RawFactors {
        l: l_final,
        u,
        row_perm,
        flops,
        symbolic_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_dense::DenseLu;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    fn check_solve(a: &CsrMatrix, config: &SparseLuConfig, tol: f64) {
        let (x_true, b) = generators::rhs_for_solution(a, |i| ((i % 11) as f64) - 5.0);
        let lu = SparseLu::factorize_with(a, config).unwrap();
        let x = lu.solve(&b).unwrap();
        let err = x
            .iter()
            .zip(x_true.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err < tol, "solution error {err} exceeds {tol}");
    }

    #[test]
    fn solves_small_dense_like_system() {
        let a = CsrMatrix::from_dense(&msplit_dense::DenseMatrix::from_rows(&[
            &[4.0, 1.0, 0.0],
            &[2.0, 5.0, 1.0],
            &[0.0, 1.0, 3.0],
        ]));
        check_solve(&a, &SparseLuConfig::default(), 1e-10);
    }

    #[test]
    fn solves_with_every_ordering() {
        let a = generators::poisson_2d(8);
        for ord in [
            ColumnOrdering::Natural,
            ColumnOrdering::ReverseCuthillMcKee,
            ColumnOrdering::MinimumDegree,
        ] {
            check_solve(
                &a,
                &SparseLuConfig {
                    ordering: ord,
                    ..Default::default()
                },
                1e-9,
            );
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Permuted identity-like system with zero diagonal entries.
        let a = CsrMatrix::from_dense(&msplit_dense::DenseMatrix::from_rows(&[
            &[0.0, 2.0, 0.0],
            &[0.0, 0.0, 3.0],
            &[4.0, 0.0, 0.0],
        ]));
        let lu = SparseLu::factorize_with(
            &a,
            &SparseLuConfig {
                ordering: ColumnOrdering::Natural,
                ..Default::default()
            },
        )
        .unwrap();
        let x = lu.solve(&[2.0, 3.0, 4.0]).unwrap();
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut b = msplit_sparse::TripletBuilder::square(3);
        b.push(0, 0, 1.0).unwrap();
        b.push(1, 1, 1.0).unwrap();
        // row/column 2 is entirely zero
        let a = b.build_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(DirectError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let coo = msplit_sparse::CooMatrix::new(2, 3);
        let a = coo.to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(DirectError::NotSquare { .. })
        ));
    }

    #[test]
    fn agrees_with_dense_lu_on_random_matrix() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 60,
            offdiag_per_row: 8,
            half_bandwidth: 15,
            dominance_margin: 0.05,
            seed: 99,
        });
        let dense = a.to_dense();
        let b: Vec<f64> = (0..60).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let x_sparse = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
        let x_dense = DenseLu::factorize(&dense).unwrap().solve(&b).unwrap();
        for (s, d) in x_sparse.iter().zip(x_dense.iter()) {
            assert!((s - d).abs() < 1e-8);
        }
    }

    #[test]
    fn cage_like_matrix_solves_accurately() {
        let a = generators::cage_like(400, 17);
        check_solve(&a, &SparseLuConfig::default(), 1e-7);
    }

    #[test]
    fn solve_into_matches_solve_and_reuses_scratch() {
        let a = generators::cage_like(150, 3);
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let lu = SparseLu::factorize(&a).unwrap();
        let expected = lu.solve(&b).unwrap();
        let mut scratch = SolveScratch::new();
        for _ in 0..3 {
            let mut x = b.clone();
            lu.solve_into(&mut x, &mut scratch).unwrap();
            assert_eq!(x, expected);
        }
        let mut short = vec![0.0; 10];
        assert!(lu.solve_into(&mut short, &mut scratch).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let a = generators::poisson_2d(10);
        let lu = SparseLu::factorize(&a).unwrap();
        let s = lu.stats();
        assert_eq!(s.n, 100);
        assert_eq!(s.nnz_a, a.nnz());
        assert!(s.nnz_l >= 100); // at least the unit diagonal
        assert!(s.nnz_u >= 100); // at least the diagonal
        assert!(s.flops > 0);
        assert!(s.factor_seconds >= 0.0);
        assert!(s.fill_ratio() >= 1.0);
        assert!(lu.factor_nnz() >= a.nnz());
    }

    #[test]
    fn rcm_ordering_reduces_fill_on_shuffled_banded_matrix() {
        // Permute a banded matrix badly; RCM should recover low fill compared
        // to the natural ordering of the shuffled matrix.
        let base = generators::tridiagonal(200, 4.0, -1.0);
        // apply a deterministic shuffle permutation
        let perm: Vec<usize> = {
            let mut p: Vec<usize> = (0..200).collect();
            // simple multiplicative shuffle (gcd(73, 200) = 1)
            p.iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = (i * 73) % 200);
            p
        };
        let shuffled = base.permute_symmetric(&perm).unwrap();
        let natural = SparseLu::factorize_with(
            &shuffled,
            &SparseLuConfig {
                ordering: ColumnOrdering::Natural,
                ..Default::default()
            },
        )
        .unwrap();
        let rcm = SparseLu::factorize_with(
            &shuffled,
            &SparseLuConfig {
                ordering: ColumnOrdering::ReverseCuthillMcKee,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            rcm.factor_nnz() <= natural.factor_nnz(),
            "RCM fill {} should not exceed natural fill {}",
            rcm.factor_nnz(),
            natural.factor_nnz()
        );
    }

    #[test]
    fn drop_tolerance_produces_sparser_factors() {
        let a = generators::cage_like(300, 5);
        let exact = SparseLu::factorize(&a).unwrap();
        let dropped = SparseLu::factorize_with(
            &a,
            &SparseLuConfig {
                drop_tolerance: 1e-2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(dropped.factor_nnz() <= exact.factor_nnz());
    }

    fn natural() -> SparseLuConfig {
        SparseLuConfig {
            ordering: ColumnOrdering::Natural,
            ..Default::default()
        }
    }

    fn assert_solves_like_dense(a: &CsrMatrix, lu: &SparseLu) {
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        let x = lu.solve(&b).unwrap();
        let x_dense = DenseLu::factorize(&a.to_dense())
            .unwrap()
            .solve(&b)
            .unwrap();
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-12, "sparse {s} vs dense {d}");
        }
    }

    /// Column 1 cancels `L[4,1]` to exactly `0.0` (`1 - 0.5 * 2`), so step 1
    /// discards a candidate while `U[0,1]` and `L[1,0]` are both stored.
    /// Pruning column 0 there would cut row 4 out of the reach of column 2,
    /// whose update still writes `x[4]`.
    fn cancelling_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&msplit_dense::DenseMatrix::from_rows(&[
            &[2.0, 2.0, 1.0, 0.0, 0.0],
            &[1.0, 3.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 4.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 5.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0, 6.0],
        ]))
    }

    #[test]
    fn exact_cancellation_skips_pruning_and_keeps_scatter_vector_clean() {
        let a = cancelling_matrix();
        let mut x = vec![0.0f64; 5];
        let raw =
            factor_columns(&a.to_csc(), &Permutation::identity(5), &natural(), &mut x).unwrap();
        assert!(raw.l.col_rows(1).is_empty(), "L[4,1] must have cancelled");
        assert_eq!(
            raw.l.col_rows(2),
            &[4],
            "row 4 must stay reachable from column 0"
        );
        assert!(
            x.iter().all(|v| v.to_bits() == 0),
            "scatter vector left dirty: {x:?}"
        );

        let lu = SparseLu::factorize_with(&a, &natural()).unwrap();
        assert_solves_like_dense(&a, &lu);
    }

    #[test]
    fn dropped_candidates_skip_pruning_too() {
        // Same structure, but the candidate is discarded by the drop
        // tolerance instead of an exact zero.
        let mut dense = cancelling_matrix().to_dense();
        dense.set(4, 1, 1.0 + 1e-6);
        let a = CsrMatrix::from_dense(&dense);
        let config = SparseLuConfig {
            drop_tolerance: 1e-3,
            ..natural()
        };
        let mut x = vec![0.0f64; 5];
        let raw = factor_columns(&a.to_csc(), &Permutation::identity(5), &config, &mut x).unwrap();
        assert!(
            raw.l.col_rows(1).is_empty(),
            "L[4,1] must have been dropped"
        );
        assert!(
            x.iter().all(|v| v.to_bits() == 0),
            "scatter vector left dirty: {x:?}"
        );
    }

    #[test]
    fn non_finite_entries_are_rejected_with_their_position() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut dense = cancelling_matrix().to_dense();
            dense.set(3, 4, bad);
            let a = CsrMatrix::from_dense(&dense);
            for factorize in [SparseLu::factorize_with, SparseLu::factorize_reference] {
                assert_eq!(
                    factorize(&a, &natural()).err(),
                    Some(DirectError::NonFinite { row: 3, col: 4 })
                );
            }
        }
    }

    #[test]
    fn solve_dimension_mismatch() {
        let a = generators::tridiagonal(5, 4.0, -1.0);
        let lu = SparseLu::factorize(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(DirectError::DimensionMismatch { .. })
        ));
    }
}
