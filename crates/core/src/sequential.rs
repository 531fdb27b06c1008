//! Single-threaded reference implementations of the multisplitting iteration.
//!
//! Two forms are provided:
//!
//! * [`solve_sequential`] — the *practical* iteration: one global solution
//!   vector, every band solved in turn with the direct solver, repeated until
//!   the increment drops below the tolerance.  This is exactly what the
//!   threaded synchronous driver computes, minus the threads, and is used as
//!   the ground truth in tests.
//! * [`extended_fixed_point_step`] — one application of the extended mapping
//!   `T : (Rⁿ)^L → (Rⁿ)^L` of Section 3 (equations 2–4), operating on `L`
//!   full-length vectors combined through the weighting matrices `E_lk`.
//!   The theory module uses it to cross-check the spectral-radius analysis.

use crate::decomposition::Decomposition;
use crate::stop::{Stop, StopReason};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_direct::{DirectSolver, SolverKind};
use msplit_sparse::CsrMatrix;

/// Result of a sequential multisplitting solve.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Why and when the iteration stopped: converged, or out of budget.
    pub stop: Stop,
}

/// Solves `A x = b` by the sequential multisplitting-direct iteration.
///
/// Deliberately takes the full flat parameter list: this is the low-level
/// reference entry point; ergonomic construction lives in
/// [`crate::solver::MultisplittingSolver`]'s builder.
#[allow(clippy::too_many_arguments)]
pub fn solve_sequential(
    a: &CsrMatrix,
    b: &[f64],
    parts: usize,
    overlap: usize,
    scheme: WeightingScheme,
    solver_kind: SolverKind,
    tolerance: f64,
    max_iterations: u64,
) -> Result<SequentialOutcome, CoreError> {
    let decomposition = Decomposition::uniform(a, b, parts, overlap)?;
    solve_sequential_decomposed(
        &decomposition,
        scheme,
        solver_kind,
        tolerance,
        max_iterations,
    )
}

/// Sequential solve over an existing decomposition.
pub fn solve_sequential_decomposed(
    decomposition: &Decomposition,
    scheme: WeightingScheme,
    solver_kind: SolverKind,
    tolerance: f64,
    max_iterations: u64,
) -> Result<SequentialOutcome, CoreError> {
    let partition = decomposition.partition();
    let n = decomposition.order();
    let parts = decomposition.num_parts();
    let solver: Box<dyn DirectSolver> = solver_kind.build();

    // Factor every diagonal block once (Remark 4 of the paper).
    let factors = decomposition
        .all_blocks()
        .iter()
        .map(|blk| solver.factorize(&blk.a_sub))
        .collect::<Result<Vec<_>, _>>()?;

    let mut x = vec![0.0f64; n];
    let mut locals: Vec<Vec<f64>> = (0..parts)
        .map(|l| vec![0.0; decomposition.blocks(l).size])
        .collect();
    let mut scratch = msplit_direct::SolveScratch::new();
    let mut iterations = 0u64;
    let mut last_increment = f64::INFINITY;
    let mut reason = StopReason::BudgetExhausted;

    while iterations < max_iterations {
        iterations += 1;
        // Jacobi-style sweep: every band solves against the previous global x,
        // assembling BLoc into the retained per-band buffer and solving it in
        // place (no per-iteration allocation on the solve path).
        for l in 0..parts {
            let blk = decomposition.blocks(l);
            blk.local_rhs_into(&blk.b_sub, &x, &mut locals[l])?;
            factors[l].solve_into(&mut locals[l], &mut scratch)?;
        }
        let x_new = scheme.assemble(partition, &locals);
        last_increment = x
            .iter()
            .zip(x_new.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        x = x_new;
        if last_increment <= tolerance {
            reason = StopReason::Converged;
            break;
        }
    }

    Ok(SequentialOutcome {
        x,
        stop: Stop::new(reason, iterations, last_increment),
    })
}

/// One application of the extended fixed-point mapping `T` of Section 3:
/// given the `L` vectors `x^1, …, x^L`, returns `y^l = F_l(z^l)` with
/// `z^l = Σ_k E_lk x^k`.
///
/// `F_l(z) = M_l⁻¹ N_l z + M_l⁻¹ b` is evaluated without forming `M_l⁻¹`,
/// using the block-diagonal `M_l` of Figure 2 (the diagonal block `ASub` on
/// the band, the diagonal of `A` elsewhere): the band rows of `y^l` solve
/// `ASub · y = b_sub − Dep · z_dep`, and every row outside the band performs
/// a point-Jacobi update `y_i = z_i − ((A z)_i − b_i) / a_ii`.
pub fn extended_fixed_point_step(
    a: &CsrMatrix,
    decomposition: &Decomposition,
    scheme: WeightingScheme,
    solver_kind: SolverKind,
    b: &[f64],
    xs: &[Vec<f64>],
) -> Result<Vec<Vec<f64>>, CoreError> {
    let partition = decomposition.partition();
    let parts = decomposition.num_parts();
    let n = decomposition.order();
    assert_eq!(xs.len(), parts, "one extended vector per part");
    assert_eq!(b.len(), n, "right-hand side must match the system order");
    let solver: Box<dyn DirectSolver> = solver_kind.build();

    // z^l = sum_k E_lk x^k.  With the schemes implemented here the weights do
    // not depend on l (O'Leary-White style) except through the covering
    // structure, so a single combination per index suffices; we still build a
    // per-l copy to follow the paper's formulation.
    let mut ys = Vec::with_capacity(parts);
    for l in 0..parts {
        let blk = decomposition.blocks(l);
        // Combine the L candidate vectors into z^l.
        let mut z = vec![0.0f64; n];
        for (i, zi) in z.iter_mut().enumerate() {
            let weights = scheme.weights_for(partition, i);
            for (part, w) in weights {
                *zi += w * xs[part][i];
            }
        }
        // Band rows: solve ASub * y_band = b_sub - Dep * z_dep.
        let rhs = blk.local_rhs(&z)?;
        let factor = solver.factorize(&blk.a_sub)?;
        let y_band = factor.solve(&rhs)?;
        // Off-band rows of M_l hold only the diagonal of A, so those rows of
        // F_l are point-Jacobi updates of z^l.
        let az = a.spmv(&z)?;
        let diag = a.diagonal();
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            if diag[i] == 0.0 {
                return Err(CoreError::Decomposition(format!(
                    "M_l has a zero diagonal at row {i}; the splitting is singular"
                )));
            }
            y[i] = z[i] - (az[i] - b[i]) / diag[i];
        }
        let range = partition.extended_range(l);
        for (offset_in_band, g) in range.enumerate() {
            y[g] = y_band[offset_in_band];
        }
        ys.push(y);
    }
    Ok(ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn sequential_solve_converges_on_diag_dominant() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 200,
            seed: 3,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let out = solve_sequential(
            &a,
            &b,
            4,
            0,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-10,
            500,
        )
        .unwrap();
        assert!(out.stop.converged(), "did not converge: {out:?}");
        assert!(max_err(&out.x, &x_true) < 1e-7);
        assert!(out.stop.iterations > 1);
    }

    #[test]
    fn overlap_reduces_iteration_count_when_coupling_is_strong() {
        // A matrix with Jacobi radius close to 1 needs many block-Jacobi
        // iterations; overlapping bands (Schwarz) should need fewer.
        let a = generators::spectral_radius_targeted(300, 0.97);
        let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 3) as f64);
        let no_overlap = solve_sequential(
            &a,
            &b,
            3,
            0,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-8,
            5000,
        )
        .unwrap();
        let with_overlap = solve_sequential(
            &a,
            &b,
            3,
            20,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-8,
            5000,
        )
        .unwrap();
        assert!(no_overlap.stop.converged() && with_overlap.stop.converged());
        assert!(
            with_overlap.stop.iterations < no_overlap.stop.iterations,
            "overlap {} vs none {}",
            with_overlap.stop.iterations,
            no_overlap.stop.iterations
        );
    }

    #[test]
    fn every_weighting_scheme_converges_with_overlap() {
        let a = generators::cage_like(240, 8);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.01).cos());
        for scheme in WeightingScheme::all() {
            let out =
                solve_sequential(&a, &b, 3, 5, scheme, SolverKind::SparseLu, 1e-10, 1000).unwrap();
            assert!(out.stop.converged(), "{scheme:?} did not converge");
            assert!(max_err(&out.x, &x_true) < 1e-6, "{scheme:?} inaccurate");
        }
    }

    #[test]
    fn band_and_dense_solvers_give_same_answer() {
        let a = generators::tridiagonal(120, 5.0, -1.0);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 4) as f64);
        for kind in [
            SolverKind::BandLu,
            SolverKind::DenseLu,
            SolverKind::SparseLu,
        ] {
            let out = solve_sequential(&a, &b, 4, 0, WeightingScheme::OwnerTakes, kind, 1e-10, 500)
                .unwrap();
            assert!(out.stop.converged());
            assert!(max_err(&out.x, &x_true) < 1e-7, "{kind:?}");
        }
    }

    #[test]
    fn non_convergent_case_reports_not_converged() {
        // A non diagonally dominant matrix with strong coupling: block Jacobi
        // diverges or stalls; the solver must report convergence failure
        // rather than a wrong answer.
        let mut builder = msplit_sparse::TripletBuilder::square(20);
        for i in 0..20usize {
            builder.push(i, i, 1.0).unwrap();
            if i > 0 {
                builder.push(i, i - 1, 2.0).unwrap();
            }
            if i + 1 < 20 {
                builder.push(i, i + 1, 2.0).unwrap();
            }
        }
        let a = builder.build_csr();
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let out = solve_sequential(
            &a,
            &b,
            4,
            0,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-8,
            50,
        )
        .unwrap();
        assert_eq!(out.stop.reason, StopReason::BudgetExhausted);
        assert_eq!(out.stop.iterations, 50);
    }

    #[test]
    fn single_part_solves_in_one_iteration_plus_confirmation() {
        let a = generators::cage_like(100, 2);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let out = solve_sequential(
            &a,
            &b,
            1,
            0,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-10,
            10,
        )
        .unwrap();
        assert!(out.stop.converged());
        // One part means the direct solver solves exactly; the second sweep
        // only confirms the increment is (near) zero.
        assert!(out.stop.iterations <= 2);
        assert!(max_err(&out.x, &x_true) < 1e-8);
    }

    #[test]
    fn extended_mapping_fixes_the_true_solution() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 60,
            seed: 4,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.2).sin());
        let d = Decomposition::uniform(&a, &b, 3, 2).unwrap();
        let xs = vec![x_true.clone(); 3];
        let ys = extended_fixed_point_step(
            &a,
            &d,
            WeightingScheme::Average,
            SolverKind::SparseLu,
            &b,
            &xs,
        )
        .unwrap();
        for y in &ys {
            assert!(max_err(y, &x_true) < 1e-7);
        }
    }

    #[test]
    fn extended_mapping_contracts_toward_the_solution() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 80,
            seed: 6,
            dominance_margin: 0.5,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 5) as f64);
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let xs = vec![vec![0.0; 80]; 4];
        let ys = extended_fixed_point_step(
            &a,
            &d,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            &b,
            &xs,
        )
        .unwrap();
        let zs = extended_fixed_point_step(
            &a,
            &d,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            &b,
            &ys,
        )
        .unwrap();
        let err0 = max_err(&xs[0], &x_true);
        let err1 = max_err(&ys[0], &x_true);
        let err2 = max_err(&zs[0], &x_true);
        assert!(err1 < err0);
        assert!(err2 < err1);
    }
}
