//! Differential property tests for the optimized numeric kernels.
//!
//! The blocked, allocation-free dense LU must be **bitwise identical** to the
//! retained naive reference kernel (same per-element operation order), the
//! pruned, allocation-free sparse LU to the retained unpruned one, and the
//! row-parallel SpMV to the sequential one.  These are the contracts that let
//! the hot paths be rewritten freely without perturbing a single bit of any
//! solver result.

use multisplitting::dense::{DenseLu, DenseMatrix};
use multisplitting::direct::gplu::{ColumnOrdering, SparseLuConfig};
use multisplitting::direct::{DirectError, SparseLu};
use multisplitting::sparse::generators::{self, ConvectionDiffusionConfig, DiagDominantConfig};
use multisplitting::sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// One matrix of the sparse-LU equivalence families.  Orders stay below a few
/// hundred so a proptest case costs milliseconds.
fn sparse_lu_matrix(family: u32, size: usize, seed: u64) -> CsrMatrix {
    match family {
        0 => generators::cage_like(20 + size, seed),
        1 => generators::diag_dominant(&DiagDominantConfig {
            n: 10 + size,
            seed,
            ..Default::default()
        }),
        2 => generators::convection_diffusion(&ConvectionDiffusionConfig {
            k: 3 + size / 16,
            skew: 0.1,
            seed,
            ..Default::default()
        }),
        3 => generators::poisson_2d(3 + size / 16),
        // Zero diagonal: the rows of a diagonally dominant matrix shifted
        // cyclically, so the large entries sit off the diagonal and every
        // pivot is an off-diagonal one.
        _ => {
            let base = generators::diag_dominant(&DiagDominantConfig {
                n: 10 + size,
                half_bandwidth: 3,
                offdiag_per_row: 3,
                seed,
                ..Default::default()
            });
            let n = base.rows();
            let shift = 4 + (seed as usize) % (n - 8);
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in base.iter() {
                coo.push((i + shift) % n, j, v).unwrap();
            }
            coo.to_csr()
        }
    }
}

/// Every ordering × pivot threshold × drop tolerance the kernels are held
/// equal on.
fn sparse_lu_configs() -> Vec<SparseLuConfig> {
    let orderings = [
        ColumnOrdering::Natural,
        ColumnOrdering::ReverseCuthillMcKee,
        ColumnOrdering::MinimumDegree,
    ];
    let mut configs = Vec::new();
    for ordering in orderings {
        for pivot_threshold in [1.0, 0.1, 0.0] {
            for drop_tolerance in [0.0, 1e-2] {
                configs.push(SparseLuConfig {
                    ordering,
                    pivot_threshold,
                    drop_tolerance,
                });
            }
        }
    }
    configs
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Factorizes `a` with both sparse-LU kernels and asserts that factors,
/// permutations, counts and the solution of `a x = b` agree bit for bit;
/// returns the production factorization.
fn assert_sparse_lu_matches_reference(
    a: &CsrMatrix,
    b: &[f64],
    config: &SparseLuConfig,
) -> SparseLu {
    let lu = SparseLu::factorize_with(a, config).unwrap();
    let reference = SparseLu::factorize_reference(a, config).unwrap();

    let ((l, u), (rl, ru)) = (lu.factors(), reference.factors());
    for (got, want) in [(l, rl), (u, ru)] {
        assert_eq!(got.col_ptr, want.col_ptr, "{config:?}");
        assert_eq!(got.rows, want.rows, "{config:?}");
        assert_eq!(bits(&got.values), bits(&want.values), "{config:?}");
    }
    assert_eq!(lu.row_permutation(), reference.row_permutation());
    assert_eq!(
        lu.column_permutation().as_slice(),
        reference.column_permutation().as_slice()
    );
    let (stats, ref_stats) = (lu.stats(), reference.stats());
    assert_eq!(stats.nnz_l, ref_stats.nnz_l);
    assert_eq!(stats.nnz_u, ref_stats.nnz_u);
    assert_eq!(stats.flops, ref_stats.flops);
    assert!(stats.symbolic_edges <= ref_stats.symbolic_edges);
    assert_eq!(
        bits(&lu.solve(b).unwrap()),
        bits(&reference.solve(b).unwrap()),
        "{config:?}"
    );
    lu
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The blocked production kernel and the retained naive reference perform
    // the same floating-point operations in the same per-element order, so
    // factors, permutation, flop count, determinant and solutions must agree
    // bit for bit across random sizes and seeds.  Sizes straddle the panel
    // width (64) so partial panels, exactly-full panels and multi-panel
    // factorizations are all exercised.
    #[test]
    fn blocked_dense_lu_is_bitwise_identical_to_reference(
        n in 1usize..160,
        seed in 0u64..1000,
        rhs_seed in 0u64..50,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        })
        .to_dense();
        let blocked = DenseLu::factorize(&a).unwrap();
        let reference = DenseLu::factorize_reference(&a).unwrap();

        prop_assert_eq!(blocked.packed_factors(), reference.packed_factors());
        prop_assert_eq!(blocked.permutation(), reference.permutation());
        prop_assert_eq!(blocked.flops(), reference.flops());
        prop_assert_eq!(
            blocked.determinant().to_bits(),
            reference.determinant().to_bits()
        );

        let b: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + rhs_seed) % 13) as f64) - 6.0)
            .collect();
        let xb = blocked.solve(&b).unwrap();
        let xr = reference.solve(&b).unwrap();
        prop_assert_eq!(xb, xr);
    }

    // The row-parallel SpMV chunks rows but accumulates every row with the
    // same inlined dot product in the same order: bitwise equality with the
    // sequential kernel, below and above the parallel-dispatch threshold.
    #[test]
    fn par_spmv_matches_spmv_bitwise(
        k in 4usize..64,
        x_seed in 0u64..100,
    ) {
        // poisson_2d(k) has k^2 rows and ~5 k^2 stored entries, crossing
        // PAR_SPMV_MIN_NNZ for the larger k.
        let a = generators::poisson_2d(k);
        let n = a.rows();
        let x: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(31) + x_seed) % 17) as f64 * 0.37 - 2.0)
            .collect();
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![f64::NAN; n];
        a.spmv_into(&x, &mut y_seq).unwrap();
        a.par_spmv_into(&x, &mut y_par).unwrap();
        prop_assert_eq!(y_seq, y_par);
    }

    // In-place solves through the Factorization trait must equal the
    // allocating entry points for every solver kind (this is the path the
    // drivers run every outer iteration).
    #[test]
    fn solve_into_matches_solve_for_all_kinds(
        n in 10usize..120,
        seed in 0u64..200,
    ) {
        use multisplitting::direct::{SolveScratch, SolverKind};
        // Narrow half-bandwidth so the band solver usually accepts the matrix.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            half_bandwidth: 4,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        for kind in SolverKind::all() {
            let factor = match kind.build().factorize(&a) {
                Ok(f) => f,
                // The band solver refuses wide-bandwidth matrices; that's a
                // documented capability limit, not a kernel defect.
                Err(_) => continue,
            };
            let expected = factor.solve(&b).unwrap();
            let mut x = b.clone();
            let mut scratch = SolveScratch::new();
            factor.solve_into(&mut x, &mut scratch).unwrap();
            prop_assert_eq!(&x, &expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The production sparse LU (pruned reach, no allocation per column,
    // counting-pass renumbering) and the retained reference (unpruned
    // allocating reach, sort per column) apply every update in the same
    // canonical order, so factors, permutations, counts and solutions must
    // agree bit for bit — over five matrix families, the three orderings,
    // classic/threshold/diagonal-first pivoting, exact and with dropping
    // (where the pruning guard fires on most columns).
    #[test]
    fn pruned_sparse_lu_is_bitwise_identical_to_reference(
        family in 0u32..5,
        size in 0usize..160,
        seed in 0u64..1000,
    ) {
        let a = sparse_lu_matrix(family, size, seed);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| (((i as u64 + seed) % 13) as f64) - 6.0)
            .collect();
        for config in sparse_lu_configs() {
            let lu = assert_sparse_lu_matches_reference(&a, &b, &config);
            if family == 4 {
                let off_diagonal = (0..a.rows())
                    .filter(|&j| lu.row_permutation()[j] != lu.column_permutation().old_of(j))
                    .count();
                prop_assert!(off_diagonal > 0, "zero-diagonal family pivoted on the diagonal");
            }
        }
    }

    // A structurally singular input (one row emptied) must fail the same way
    // in both kernels: the same error at the same elimination step.
    #[test]
    fn singular_input_fails_identically_in_both_sparse_lu_kernels(
        family in 0u32..4,
        size in 0usize..100,
        seed in 0u64..1000,
    ) {
        let full = sparse_lu_matrix(family, size, seed);
        let n = full.rows();
        let dead_row = (seed as usize * 7 + 3) % n;
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in full.iter() {
            if i != dead_row {
                coo.push(i, j, v).unwrap();
            }
        }
        let a = coo.to_csr();
        for config in sparse_lu_configs() {
            let got = SparseLu::factorize_with(&a, &config).err();
            let want = SparseLu::factorize_reference(&a, &config).err();
            prop_assert!(matches!(got, Some(DirectError::Singular { .. })), "got {got:?}");
            prop_assert_eq!(got, want);
        }
    }
}

/// The hand-made inputs the vendored `proptest` (a range runner without
/// shrinking) would not find: tiny orders, a factor with nothing to search,
/// a full one, pivots that are all off the diagonal, and the two matrices of
/// `gplu.rs`'s pruning-guard tests — an `L` candidate that cancels to exactly
/// `0.0`, and the same one discarded by the drop tolerance.
#[test]
fn sparse_lu_edge_case_table_matches_reference_and_dense() {
    let dense5: Vec<Vec<f64>> = (0..5)
        .map(|i| {
            (0..5)
                .map(|j| match i == j {
                    true => 9.0,
                    false => ((i * 5 + j) % 7) as f64 - 3.5,
                })
                .collect()
        })
        .collect();
    let dense5: Vec<&[f64]> = dense5.iter().map(|r| r.as_slice()).collect();
    let cancelling = DenseMatrix::from_rows(&[
        &[2.0, 2.0, 1.0, 0.0, 0.0],
        &[1.0, 3.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 4.0, 1.0, 0.0],
        &[0.0, 0.0, 0.0, 5.0, 1.0],
        &[1.0, 1.0, 0.0, 0.0, 6.0],
    ]);
    let mut nearly_cancelling = cancelling.clone();
    nearly_cancelling.set(4, 1, 1.0 + 1e-6);
    let cases: Vec<(&str, CsrMatrix, f64)> = vec![
        (
            "n = 1",
            CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[-3.0]])),
            0.0,
        ),
        (
            "diagonal",
            CsrMatrix::from_dense(&generators::tridiagonal(6, 2.5, 0.0).to_dense()),
            0.0,
        ),
        (
            "diagonal with stored zeros",
            generators::tridiagonal(6, 2.5, 0.0),
            0.0,
        ),
        (
            "dense 5x5",
            CsrMatrix::from_dense(&DenseMatrix::from_rows(&dense5)),
            0.0,
        ),
        (
            "permuted identity",
            CsrMatrix::from_dense(&DenseMatrix::from_rows(&[
                &[0.0, 0.0, 1.0, 0.0],
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 0.0, 0.0, 1.0],
                &[0.0, 1.0, 0.0, 0.0],
            ])),
            0.0,
        ),
        (
            "exact cancellation",
            CsrMatrix::from_dense(&cancelling),
            0.0,
        ),
        (
            "dropped candidate",
            CsrMatrix::from_dense(&nearly_cancelling),
            1e-3,
        ),
    ];
    for (name, a, drop_tolerance) in &cases {
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        let x_dense = DenseLu::factorize(&a.to_dense())
            .unwrap()
            .solve(&b)
            .unwrap();
        for ordering in [
            ColumnOrdering::Natural,
            ColumnOrdering::ReverseCuthillMcKee,
            ColumnOrdering::MinimumDegree,
        ] {
            let config = SparseLuConfig {
                ordering,
                drop_tolerance: *drop_tolerance,
                ..Default::default()
            };
            let lu = assert_sparse_lu_matches_reference(a, &b, &config);
            assert!(lu.stats().nnz_u >= a.rows(), "{name}");
            if *drop_tolerance == 0.0 {
                for (s, d) in lu.solve(&b).unwrap().iter().zip(&x_dense) {
                    assert!((s - d).abs() < 1e-12, "{name}: sparse {s} vs dense {d}");
                }
            }
        }
    }
}

/// Pruning is what the rewrite is for: on the `grid_factor` family the search
/// must examine several times fewer entries of `L` than the unpruned one,
/// with the factor unchanged.
#[test]
fn pruning_cuts_symbolic_work_without_changing_the_factor() {
    let a = generators::cage_like(300, 2);
    let b = vec![1.0; a.rows()];
    let config = SparseLuConfig::default();
    let lu = assert_sparse_lu_matches_reference(&a, &b, &config);
    let reference = SparseLu::factorize_reference(&a, &config).unwrap();
    assert!(
        lu.stats().symbolic_edges * 4 < reference.stats().symbolic_edges,
        "pruned {} vs unpruned {}",
        lu.stats().symbolic_edges,
        reference.stats().symbolic_edges
    );
}

/// `factorize_blocks` on the pool against one `factorize` per block in the
/// calling thread: the sparse factors and permutations bit for bit, every
/// kind's counts, and every kind's solutions.
#[test]
fn pooled_factorize_blocks_is_bitwise_the_serial_loop() {
    use multisplitting::core::runtime::factorize_blocks;
    use multisplitting::core::{Decomposition, MultisplittingConfig};
    use multisplitting::direct::{FactorStats, SolverKind};

    // `factor_seconds` is a wall-clock reading; everything else must repeat.
    let counts = |stats: &FactorStats| FactorStats {
        factor_seconds: 0.0,
        ..stats.clone()
    };
    // Narrow half-bandwidth so the band solver accepts every sub-block.
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 240,
        half_bandwidth: 4,
        seed: 3,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    for kind in SolverKind::all() {
        for parts in [1, 2, 3, 8] {
            let (_, blocks) = Decomposition::uniform(&a, &b, parts, 2)
                .unwrap()
                .into_blocks();
            let config = MultisplittingConfig {
                parts,
                solver_kind: kind,
                ..Default::default()
            };
            let pooled = factorize_blocks(&blocks, &config).unwrap();
            assert_eq!(pooled.len(), parts);
            let solver = kind.build();
            for (blk, pooled) in blocks.iter().zip(&pooled) {
                let serial = solver.factorize(&blk.a_sub).unwrap();
                assert_eq!(counts(pooled.stats()), counts(serial.stats()), "{kind:?}");
                if let (Some(lu), Some(reference)) = (pooled.as_sparse_lu(), serial.as_sparse_lu())
                {
                    let ((l, u), (rl, ru)) = (lu.factors(), reference.factors());
                    for (got, want) in [(l, rl), (u, ru)] {
                        assert_eq!(got.col_ptr, want.col_ptr);
                        assert_eq!(got.rows, want.rows);
                        assert_eq!(bits(&got.values), bits(&want.values));
                    }
                    assert_eq!(lu.row_permutation(), reference.row_permutation());
                }
                assert_eq!(
                    bits(&pooled.solve(&blk.b_sub).unwrap()),
                    bits(&serial.solve(&blk.b_sub).unwrap()),
                    "{kind:?} P={parts} part {}",
                    blk.part
                );
            }
        }
    }
}

/// Of several singular blocks, `factorize_blocks` reports the one a serial
/// loop would have stopped at.
#[test]
fn factorize_blocks_reports_the_lowest_singular_block() {
    use multisplitting::core::runtime::factorize_blocks;
    use multisplitting::core::{CoreError, Decomposition, MultisplittingConfig};

    // Eight decoupled 6x6 diagonal blocks; blocks 2 and 5 each lose a row,
    // at different local positions, so their errors differ.
    let n = 48;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        if i == 2 * 6 + 1 || i == 5 * 6 + 4 {
            continue;
        }
        coo.push(i, i, 4.0).unwrap();
        if i % 6 != 0 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
    }
    let a = coo.to_csr();
    let (_, blocks) = Decomposition::uniform(&a, &vec![1.0; n], 8, 0)
        .unwrap()
        .into_blocks();
    let config = MultisplittingConfig {
        parts: 8,
        ..Default::default()
    };
    let solver = config.solver_kind.build();
    let error_of = |l: usize| solver.factorize(&blocks[l].a_sub).err().unwrap();
    assert_ne!(error_of(2), error_of(5));
    match factorize_blocks(&blocks, &config) {
        Err(CoreError::Direct(e)) => assert_eq!(e, error_of(2)),
        other => panic!(
            "expected the error of block 2, got {:?}",
            other.map(|f| f.len())
        ),
    }
}
