//! Domain-specific scenario: a 3-D advection–diffusion (pollutant transport)
//! model, the application family the paper's introduction and reference [5]
//! motivate for grid-scale multisplitting solvers.
//!
//! The steady-state transport of a pollutant with diffusion and a constant
//! wind field discretized by finite differences yields a large, sparse,
//! nonsymmetric, diagonally dominant system — exactly the class covered by
//! Proposition 1.
//!
//! Run with:
//! ```text
//! cargo run --release --example pollutant_transport
//! ```

use multisplitting::prelude::*;
use multisplitting::sparse::{properties::MatrixProperties, TripletBuilder};

/// Builds the 7-point upwind discretization of
/// `-div(D grad c) + v · grad c + r c = s` on a `k³` grid.
fn transport_matrix(
    k: usize,
    diffusion: f64,
    wind: [f64; 3],
    reaction: f64,
) -> multisplitting::sparse::CsrMatrix {
    let n = k * k * k;
    let h = 1.0 / (k as f64 + 1.0);
    let idx = |i: usize, j: usize, l: usize| (i * k + j) * k + l;
    let mut builder = TripletBuilder::square(n);
    for i in 0..k {
        for j in 0..k {
            for l in 0..k {
                let row = idx(i, j, l);
                let mut diag = 6.0 * diffusion / (h * h) + reaction;
                // Upwind advection adds |v|/h to the diagonal and couples to
                // the upstream neighbour only, preserving diagonal dominance.
                for (axis, &v) in wind.iter().enumerate() {
                    diag += v.abs() / h;
                    let coord = [i, j, l][axis];
                    let upstream_exists = if v >= 0.0 { coord > 0 } else { coord + 1 < k };
                    if upstream_exists {
                        let mut up = [i, j, l];
                        up[axis] = if v >= 0.0 { coord - 1 } else { coord + 1 };
                        builder
                            .push(row, idx(up[0], up[1], up[2]), -v.abs() / h)
                            .unwrap();
                    }
                }
                // Diffusion stencil.
                let neighbours = [
                    (i.wrapping_sub(1), j, l, i > 0),
                    (i + 1, j, l, i + 1 < k),
                    (i, j.wrapping_sub(1), l, j > 0),
                    (i, j + 1, l, j + 1 < k),
                    (i, j, l.wrapping_sub(1), l > 0),
                    (i, j, l + 1, l + 1 < k),
                ];
                for (ni, nj, nl, ok) in neighbours {
                    if ok {
                        builder
                            .push(row, idx(ni, nj, nl), -diffusion / (h * h))
                            .unwrap();
                    }
                }
                builder.push(row, row, diag).unwrap();
            }
        }
    }
    builder.build_csr()
}

fn main() {
    let k = 24; // 24^3 = 13 824 unknowns
    let a = transport_matrix(k, 1.0, [8.0, 3.0, 0.5], 0.2);
    let n = a.rows();
    // Source term: a localized emission near one corner of the domain.
    let b: Vec<f64> = (0..n)
        .map(|g| {
            let i = g / (k * k);
            let j = (g / k) % k;
            let l = g % k;
            if i < k / 4 && j < k / 4 && l < k / 4 {
                1.0
            } else {
                0.0
            }
        })
        .collect();

    let props = MatrixProperties::analyze(&a);
    println!(
        "transport system: n = {n}, nnz = {}, weakly dominant Z-matrix pattern = {}, rho(|J|) ~= {:.3}",
        props.nnz, props.z_matrix, props.jacobi_radius
    );

    let grid = cluster3();
    let outcome = MultisplittingSolver::builder()
        .parts(grid.num_machines())
        .relative_speeds(grid.relative_speeds())
        .solver_kind(SolverKind::SparseLu)
        .tolerance(1e-8)
        .mode(ExecutionMode::Synchronous)
        .build()
        .solve(&a, &b)
        .expect("solve failed");

    println!(
        "multisplitting-LU: converged = {}, iterations = {}, residual = {:.2e}, wall = {:.2}s",
        outcome.stop.converged(),
        outcome.stop.iterations,
        outcome.residual(&a, &b),
        outcome.wall_seconds
    );
    let max_c = outcome.x.iter().cloned().fold(0.0f64, f64::max);
    println!("peak steady-state concentration = {max_c:.4}");

    // What the same run would cost on the paper's two-site grid.
    let decomposition = MultisplittingSolver::builder()
        .parts(grid.num_machines())
        .relative_speeds(grid.relative_speeds())
        .build()
        .decompose(&a, &b)
        .unwrap();
    let model = CostModel::new(grid);
    let replay = replay_sync(
        &outcome.part_reports,
        &decomposition.send_targets(),
        outcome.stop.iterations,
        &model,
        ProblemScaling::identity(n),
    )
    .unwrap();
    println!(
        "modelled on cluster3: total = {:.2}s (factorization {:.2}s)",
        replay.total_seconds, replay.factor_seconds
    );
}
