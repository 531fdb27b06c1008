//! Symbolic analysis: reachability in the column graph of a partially built
//! lower-triangular factor, with Eisenstat–Liu symmetric pruning.
//!
//! The Gilbert–Peierls factorization computes one column of `L`/`U` per step
//! by solving a sparse triangular system `L x = A(:, j)` whose nonzero
//! pattern is the set of rows *reachable* from the pattern of `A(:, j)` in
//! the directed graph of `L` (an edge `i → r` for every stored entry
//! `L[r, i]`).  Two implementations of that reach live here:
//!
//! * [`PrunedReach`] — the production one.  It owns every buffer the search
//!   needs (marks, stack, the two halves of the pattern), so a column costs no
//!   allocation, and it walks a **pruned** graph.
//! * [`reach`] — the retained reference: an allocating depth-first search
//!   over the full graph, used only by `SparseLu::factorize_reference`.
//!
//! # The pruning invariant
//!
//! Every finished column `k` of `L` carries a `prune_end[k]`; the search
//! follows only the entries `col_ptr[k]..prune_end[k]`.  A column starts
//! unpruned (`prune_end[k]` is its end).  After step `j` chose pivot row `p`,
//! every unpruned column `k` with a stored `U[k, j]` whose rows include `p` —
//! a symmetric pair `U[k, j]`, `L[j, k]` — is partitioned so its already
//! pivoted rows (now including `p`) come first, and `prune_end[k]` is set
//! behind them.  The entries cut off are rows `r` still unpivoted after step
//! `j`.  They stay reachable: column `j` was updated by column `k` (that is
//! what a stored `U[k, j]` means), so every row of `L(:, k)` is in column
//! `j`'s pattern, and the unpivoted ones became rows of `L(:, j)`; the path
//! `k → p → r` replaces the edge `k → r`.  The reach **set** is therefore
//! exactly the unpruned one, found by reading a fraction of the entries.
//!
//! # When pruning is skipped
//!
//! The argument needs `struct L(:, j) ⊇ unpivoted struct L(:, k)`.  The
//! numeric phase breaks it whenever it discards a candidate of `L(:, j)` —
//! an exact cancellation to `0.0`, or a value under the drop tolerance.  The
//! caller reports that, and no column is pruned at that step (they can still
//! be pruned at a later one).  Without this guard a later numeric update
//! would write to a row the search never reached, and the scatter vector
//! would no longer be all-zero between columns.
//!
//! The numeric phase sorts the pivoted half of the pattern by pivot step,
//! which is a topological order of the graph (see `gplu.rs`), so the
//! production search only has to find the set and is a plain stack traversal;
//! the topological order [`reach`] still returns is not relied upon.

/// Growing compressed-column storage of a triangular factor while it is being
/// built.  Row indices are kept in the *original* row numbering during
/// factorization (the pivot permutation is applied when the factor is
/// finalized).
#[derive(Debug, Clone)]
pub struct FactorColumns {
    /// `col_ptr[j]..col_ptr[j+1]` delimits column `j`.
    pub col_ptr: Vec<usize>,
    /// Row index of every stored entry.
    pub rows: Vec<usize>,
    /// Value of every stored entry.
    pub values: Vec<f64>,
}

impl FactorColumns {
    /// Creates an empty factor with capacity hints.
    pub fn with_capacity(cols_hint: usize, nnz_hint: usize) -> Self {
        let mut col_ptr = Vec::with_capacity(cols_hint + 1);
        col_ptr.push(0);
        FactorColumns {
            col_ptr,
            rows: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
        }
    }

    /// Number of finished columns.
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Appends a column given as `(row, value)` pairs.
    pub fn push_column(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (r, v) in entries {
            self.push_entry(r, v);
        }
        self.finish_column();
    }

    /// Appends one entry to the column under construction.
    #[inline]
    pub fn push_entry(&mut self, row: usize, value: f64) {
        self.rows.push(row);
        self.values.push(value);
    }

    /// Closes the column under construction.
    #[inline]
    pub fn finish_column(&mut self) {
        self.col_ptr.push(self.rows.len());
    }

    /// Index range of column `j` in `rows`/`values`.
    #[inline]
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j]..self.col_ptr[j + 1]
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.rows[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }
}

/// Symbolic state of the production column loop: the pattern of the column
/// being computed, split by whether a row has been pivoted, and the pruning
/// state of every finished column of `L` (see the module docs).
///
/// All buffers are allocated once, at order `n`.
#[derive(Debug)]
pub struct PrunedReach {
    /// Visit marks, one per row; a row is in the pattern when
    /// `mark[row] == stamp`.
    mark: Vec<usize>,
    /// Current stamp (incremented per column).
    stamp: usize,
    /// Pivot steps whose `L` column the search still has to walk.
    stack: Vec<usize>,
    /// The search walks `l.rows[l.col_ptr[k]..prune_end[k]]` of column `k`.
    prune_end: Vec<usize>,
    /// Whether column `k` has been pruned (it is pruned at most once).
    pruned: Vec<bool>,
    /// Pattern rows already pivoted, as **pivot steps**; ascending once
    /// [`PrunedReach::search`] returns.
    pub(crate) pivoted: Vec<usize>,
    /// Pattern rows not yet pivoted (original numbering), in discovery order.
    pub(crate) unpivoted: Vec<usize>,
    /// Entries of `L` examined by every search so far.
    pub(crate) edges: u64,
}

impl PrunedReach {
    /// Creates the state for a factorization of order `n`.
    pub fn new(n: usize) -> Self {
        PrunedReach {
            mark: vec![0; n],
            stamp: 0,
            stack: Vec::with_capacity(n),
            prune_end: Vec::with_capacity(n),
            pruned: Vec::with_capacity(n),
            pivoted: Vec::with_capacity(n),
            unpivoted: Vec::with_capacity(n),
            edges: 0,
        }
    }

    /// Starts the pattern of a new column.
    pub fn begin_column(&mut self) {
        self.stamp += 1;
        self.stack.clear();
        self.pivoted.clear();
        self.unpivoted.clear();
    }

    /// Adds `row` to the pattern unless it is already in it.
    #[inline]
    pub fn visit(&mut self, row: usize, pinv: &[usize]) {
        if self.mark[row] == self.stamp {
            return;
        }
        self.mark[row] = self.stamp;
        match pinv[row] {
            usize::MAX => self.unpivoted.push(row),
            step => {
                self.pivoted.push(step);
                self.stack.push(step);
            }
        }
    }

    /// Whether `row` is in the current pattern.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.mark[row] == self.stamp
    }

    /// Closes the pattern over the pruned graph of `l` from the rows visited
    /// so far and sorts `pivoted` ascending.
    pub fn search(&mut self, l: &FactorColumns, pinv: &[usize]) {
        while let Some(step) = self.stack.pop() {
            let lo = l.col_ptr[step];
            let hi = self.prune_end[step];
            self.edges += (hi - lo) as u64;
            for &row in &l.rows[lo..hi] {
                self.visit(row, pinv);
            }
        }
        self.pivoted.sort_unstable();
    }

    /// Registers the column of `l` just finished (unpruned).
    pub fn column_finished(&mut self, l: &FactorColumns) {
        self.prune_end.push(l.nnz());
        self.pruned.push(false);
    }

    /// Symmetric pruning after a step whose pivot is `pivot_row`: every
    /// unpruned column of `l` listed in `u_steps` (the stored off-diagonal
    /// rows of the `U` column just finished) that contains `pivot_row` is
    /// partitioned, pivoted rows first, and pruned behind them.  `pinv` must
    /// already record the pivot.  The caller must not call this when the
    /// step discarded a candidate of its `L` column.
    pub fn prune(
        &mut self,
        l: &mut FactorColumns,
        pinv: &[usize],
        u_steps: &[usize],
        pivot_row: usize,
    ) {
        for &k in u_steps {
            if self.pruned[k] {
                continue;
            }
            let range = l.col_range(k);
            if !l.rows[range.clone()].contains(&pivot_row) {
                continue;
            }
            let mut end = range.start;
            for idx in range {
                if pinv[l.rows[idx]] != usize::MAX {
                    l.rows.swap(idx, end);
                    l.values.swap(idx, end);
                    end += 1;
                }
            }
            self.prune_end[k] = end;
            self.pruned[k] = true;
        }
    }
}

/// Scratch space reused across [`reach`] calls to avoid per-column
/// allocations.
#[derive(Debug)]
pub struct ReachWorkspace {
    /// Visit marks, one per row; a row is visited when `mark[row] == stamp`.
    mark: Vec<usize>,
    /// Current stamp (incremented per reach call).
    stamp: usize,
    /// Explicit DFS stack of `(row, next_child_offset)` pairs.
    dfs: Vec<(usize, usize)>,
}

impl ReachWorkspace {
    /// Creates a workspace for matrices of order `n`.
    pub fn new(n: usize) -> Self {
        ReachWorkspace {
            mark: vec![0; n],
            stamp: 0,
            dfs: Vec::with_capacity(n),
        }
    }
}

/// Computes the set of rows reachable from `seed_rows` in the graph of the
/// partially built factor `l`, where a row `i` that has already been pivoted
/// (i.e. `pinv[i] != usize::MAX`) links to every row stored in `L`'s column
/// `pinv[i]`.
///
/// The result is returned in **topological order**: for every edge `i → r`,
/// row `i` appears before row `r`.  The numeric phase can therefore apply the
/// updates in a single forward pass over the returned list.
pub fn reach(
    l: &FactorColumns,
    pinv: &[usize],
    seed_rows: &[usize],
    ws: &mut ReachWorkspace,
) -> Vec<usize> {
    ws.stamp += 1;
    let stamp = ws.stamp;
    let mut postorder: Vec<usize> = Vec::new();

    for &seed in seed_rows {
        if ws.mark[seed] == stamp {
            continue;
        }
        ws.dfs.clear();
        ws.dfs.push((seed, 0));
        ws.mark[seed] = stamp;
        while let Some(&mut (row, ref mut child)) = ws.dfs.last_mut() {
            let col = pinv[row];
            let children: &[usize] = if col == usize::MAX {
                &[]
            } else {
                l.col_rows(col)
            };
            if *child < children.len() {
                let next = children[*child];
                *child += 1;
                if ws.mark[next] != stamp {
                    ws.mark[next] = stamp;
                    ws.dfs.push((next, 0));
                }
            } else {
                postorder.push(row);
                ws.dfs.pop();
            }
        }
    }

    // Post-order finishes children before parents; reversing yields a
    // topological order (parents before children).
    postorder.reverse();
    postorder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_columns_push_and_iterate() {
        let mut f = FactorColumns::with_capacity(2, 4);
        f.push_column([(1, 0.5), (3, -0.25)]);
        f.push_column([]);
        assert_eq!(f.num_cols(), 2);
        assert_eq!(f.nnz(), 2);
        let c0: Vec<_> = f.col(0).collect();
        assert_eq!(c0, vec![(1, 0.5), (3, -0.25)]);
        assert!(f.col(1).next().is_none());
        assert_eq!(f.col_rows(0), &[1, 3]);
    }

    #[test]
    fn reach_without_pivoted_rows_is_just_the_seeds() {
        let l = FactorColumns::with_capacity(0, 0);
        let pinv = vec![usize::MAX; 4];
        let mut ws = ReachWorkspace::new(4);
        let r = reach(&l, &pinv, &[2, 0], &mut ws);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&2) && r.contains(&0));
    }

    #[test]
    fn reach_follows_factor_columns_topologically() {
        // L column 0 has entries in rows 1 and 2 (original numbering).
        // Row 0 was pivoted at step 0 (pinv[0] = 0).
        let mut l = FactorColumns::with_capacity(1, 2);
        l.push_column([(1, 0.5), (2, 0.25)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &pinv, &[0], &mut ws);
        // Row 0 must come before rows 1 and 2 it updates.
        assert_eq!(r[0], 0);
        assert_eq!(r.len(), 3);
        assert!(r.contains(&1) && r.contains(&2));
    }

    #[test]
    fn reach_handles_chained_dependencies() {
        // Column 0 updates row 1; column 1 (pivot row 1) updates row 2.
        let mut l = FactorColumns::with_capacity(2, 2);
        l.push_column([(1, 0.5)]);
        l.push_column([(2, 0.5)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        pinv[1] = 1;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &pinv, &[0], &mut ws);
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn reach_deduplicates_across_seeds() {
        let mut l = FactorColumns::with_capacity(1, 1);
        l.push_column([(2, 1.0)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &pinv, &[0, 2], &mut ws);
        assert_eq!(r.len(), 2);
        // topological: 0 before 2
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn pruned_search_splits_the_reach_by_pivot_state() {
        // Column 0 updates rows 1 and 3; column 1 (pivot row 1) updates row 2.
        let mut l = FactorColumns::with_capacity(2, 3);
        let mut sym = PrunedReach::new(4);
        l.push_column([(1, 0.5), (3, 0.25)]);
        sym.column_finished(&l);
        l.push_column([(2, 0.5)]);
        sym.column_finished(&l);
        let mut pinv = vec![usize::MAX; 4];
        pinv[0] = 0;
        pinv[1] = 1;

        sym.begin_column();
        sym.visit(0, &pinv);
        sym.search(&l, &pinv);
        assert_eq!(sym.pivoted, vec![0, 1]);
        let mut unpivoted = sym.unpivoted.clone();
        unpivoted.sort_unstable();
        assert_eq!(unpivoted, vec![2, 3]);
        assert!(sym.contains(3));
        assert_eq!(sym.edges, 3);

        // The same set, in some order, as the unpruned reference.
        let mut reference = reach(&l, &pinv, &[0], &mut ReachWorkspace::new(4));
        reference.sort_unstable();
        assert_eq!(reference, vec![0, 1, 2, 3]);
    }

    #[test]
    fn prune_moves_pivoted_rows_first_and_shortens_the_walk() {
        // L(:,0) = rows {3, 1, 2}; step 1 pivots row 1 and stores U[0,1], so
        // column 0 is pruned behind row 1.  Rows 2 and 3 stay reachable
        // through L(:,1), which the caller guarantees contains them.
        let mut l = FactorColumns::with_capacity(2, 5);
        let mut sym = PrunedReach::new(4);
        l.push_column([(3, 0.3), (1, 0.1), (2, 0.2)]);
        sym.column_finished(&l);
        l.push_column([(2, 0.5), (3, 0.5)]);
        sym.column_finished(&l);
        let mut pinv = vec![usize::MAX; 4];
        pinv[0] = 0;
        pinv[1] = 1;
        sym.prune(&mut l, &pinv, &[0], 1);
        assert_eq!(l.col_rows(0)[0], 1, "the pivoted row leads the column");
        assert_eq!(
            l.col(0).find(|&(r, _)| r == 3),
            Some((3, 0.3)),
            "values move with rows"
        );

        sym.begin_column();
        sym.visit(0, &pinv);
        sym.search(&l, &pinv);
        assert_eq!(sym.pivoted, vec![0, 1]);
        assert_eq!(sym.unpivoted.len(), 2);
        assert_eq!(sym.edges, 1 + 2, "one entry of column 0, two of column 1");

        // A pruned column is never pruned again (row 2 of column 0 is pivoted
        // now and would otherwise move into the walked prefix).
        pinv[2] = 2;
        sym.prune(&mut l, &pinv, &[0, 1], 2);
        assert_eq!(sym.prune_end[0], 1, "column 0 was pruned once, at step 1");
        assert_eq!(l.col_rows(1)[0], 2);
        assert_eq!(sym.prune_end[1], l.col_ptr[1] + 1);
    }

    #[test]
    fn workspace_is_reusable() {
        let l = FactorColumns::with_capacity(0, 0);
        let pinv = vec![usize::MAX; 3];
        let mut ws = ReachWorkspace::new(3);
        let first = reach(&l, &pinv, &[1], &mut ws);
        let second = reach(&l, &pinv, &[1, 2], &mut ws);
        assert_eq!(first, vec![1]);
        assert_eq!(second.len(), 2);
    }
}
