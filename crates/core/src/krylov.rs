//! Krylov outer iterations with the multisplitting sweep as a preconditioner.
//!
//! The paper's Algorithm 1 is a pure stationary iteration: every outer step
//! *is* one multisplitting sweep, and on ill-conditioned systems the sweep's
//! contraction factor is close to 1, so the outer-iteration count dominates
//! the solve time no matter how fast the per-sweep kernels are.  This module
//! keeps the sweep — factorize once, triangular-solve many, weighted
//! assembly — but demotes it from *the* iteration to a **preconditioner**
//! `M⁻¹ ≈ A⁻¹` inside an outer Krylov loop:
//!
//! * [`richardson`] — preconditioned Richardson, `x ← x + M⁻¹(b − A x)`,
//!   realized *without* forming the residual so that one inner sweep per
//!   outer step is arithmetically (bitwise) the stationary iteration of
//!   [`crate::sequential::solve_sequential`].  It is the equivalence anchor:
//!   the proof that the preconditioner applies the exact proven sweep.
//! * [`fgmres`] — restarted **flexible** GMRES, FGMRES(m).  Flexible because
//!   the preconditioner application is itself an iteration (k multisplitting
//!   sweeps, later possibly asynchronous) and therefore varies between outer
//!   steps, which ordinary right-preconditioned GMRES does not tolerate; the
//!   flexible variant stores the preconditioned vector `z_j = M⁻¹ v_j` per
//!   Arnoldi step and reconstructs the solution from the `Z` basis.
//!
//! Both drivers are generic over the [`Preconditioner`] trait; the primary
//! implementation [`SweepPreconditioner`] runs `inner_sweeps` multisplitting
//! sweeps against the prepared blocks/factors of a
//! [`crate::prepared::PreparedSystem`].  All workspaces
//! ([`FgmresWorkspace`], [`SweepBuffers`], bundled as [`KrylovWorkspace`])
//! are preallocated at prepare time: warm outer iterations allocate nothing
//! on the solve path (asserted by `tests/zero_alloc.rs`).
//!
//! See `docs/krylov.md` for the method-selection guide and measured
//! iteration counts (the `krylov` table of `BENCH_kernels.json`).

use crate::stop::{Stop, StopReason};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_direct::api::Factorization;
use msplit_direct::SolveScratch;
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};
use rayon::prelude::*;
use std::sync::Arc;

/// An approximate inverse `M⁻¹ ≈ A⁻¹` applied per outer Krylov step.
///
/// Implementations may be iterative (and even vary between applications —
/// the FGMRES driver is flexible precisely to allow that), but must be
/// linear-ish enough to help: the contract is only that `apply` improves
/// `z` toward `A z = r`.
pub trait Preconditioner {
    /// Order of the system the preconditioner acts on.
    fn order(&self) -> usize;

    /// `z ← M⁻¹ r` from a **zero** initial guess (the FGMRES path).
    fn apply(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError> {
        z.fill(0.0);
        self.apply_warm(r, z)
    }

    /// Improves `z` toward `A z = r` starting from the **current** `z`
    /// (the Richardson path: the outer iterate itself is the warm guess).
    fn apply_warm(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError>;
}

/// One band's share of a sweep: its local solution vector, its own
/// triangular-solve scratch, and the error of its last solve, if any.  A
/// band touches nothing outside its lane, which is what lets the bands of
/// one sweep run at the same time.
#[derive(Debug, Default)]
struct Lane {
    local: Vec<f64>,
    scratch: SolveScratch,
    error: Option<CoreError>,
}

impl Lane {
    /// This lane's part of a sweep: `BLoc` against the previous global `z`,
    /// then the triangular solve in place.
    fn solve(
        &mut self,
        partition: &BandPartition,
        blk: &LocalBlocks,
        factor: &dyn Factorization,
        r: &[f64],
        z: &[f64],
    ) {
        let mut run = || -> Result<(), CoreError> {
            blk.local_rhs_into(&r[partition.extended_range(blk.part)], z, &mut self.local)?;
            factor.solve_into(&mut self.local, &mut self.scratch)?;
            Ok(())
        };
        self.error = run().err();
    }
}

impl AsRef<[f64]> for Lane {
    fn as_ref(&self) -> &[f64] {
        &self.local
    }
}

/// Retained buffers of a [`SweepPreconditioner`]: one lane per part (local
/// solution vector plus triangular-solve scratch).  After
/// [`SweepBuffers::prepare`] and one sweep every later sweep reuses them
/// without allocating.
#[derive(Debug, Default)]
pub struct SweepBuffers {
    lanes: Vec<Lane>,
}

impl SweepBuffers {
    /// Empty buffers; call [`SweepBuffers::prepare`] before the first sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-part buffers to match `blocks` (idempotent; only the
    /// first call on a given shape allocates).
    pub fn prepare(&mut self, blocks: &[LocalBlocks]) {
        self.lanes.resize_with(blocks.len(), Lane::default);
        for (lane, blk) in self.lanes.iter_mut().zip(blocks) {
            lane.local
                .reserve(blk.size.saturating_sub(lane.local.capacity()));
        }
    }
}

/// The primary [`Preconditioner`]: `inner_sweeps` multisplitting sweeps over
/// prepared blocks and factorizations.
///
/// One sweep replicates the arithmetic of
/// [`crate::sequential::solve_sequential_decomposed`] exactly — per part
/// `BLoc = r_ext − Dep·z`, triangular solve in place, then the weighted
/// assembly in [`WeightingScheme::weights_for`] order — so a Richardson
/// outer loop over this preconditioner with `inner_sweeps = 1` is bitwise
/// the stationary driver.  The parts of one sweep are independent (each
/// reads the previous `z` and writes its own lane) and run as one parallel
/// loop on the `rayon` pool, on up to as many threads as the machine has
/// cores; which thread solves a part does not change a bit of its result.
/// The weight table is precomputed by the caller (one per prepared system)
/// to keep the apply allocation-free.
pub struct SweepPreconditioner<'a> {
    partition: &'a BandPartition,
    blocks: &'a [LocalBlocks],
    factors: &'a [Arc<dyn Factorization>],
    weight_table: &'a [Vec<(usize, f64)>],
    inner_sweeps: u64,
    bufs: &'a mut SweepBuffers,
}

impl<'a> SweepPreconditioner<'a> {
    /// Binds the preconditioner to prepared state and retained buffers.
    ///
    /// `weight_table` must be `scheme.weight_table(partition)` for the
    /// scheme the blocks were prepared with; `bufs` must outlive every
    /// apply (it is grown here, so later applies allocate nothing).
    pub fn new(
        partition: &'a BandPartition,
        blocks: &'a [LocalBlocks],
        factors: &'a [Arc<dyn Factorization>],
        weight_table: &'a [Vec<(usize, f64)>],
        inner_sweeps: u64,
        bufs: &'a mut SweepBuffers,
    ) -> Self {
        debug_assert_eq!(blocks.len(), factors.len());
        debug_assert_eq!(weight_table.len(), partition.order());
        bufs.prepare(blocks);
        SweepPreconditioner {
            partition,
            blocks,
            factors,
            weight_table,
            inner_sweeps,
            bufs,
        }
    }

    /// One Jacobi-style multisplitting sweep: every part solves against the
    /// previous global `z`, all parts at the same time, then the weighted
    /// assembly overwrites `z`.
    fn sweep(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError> {
        let (partition, blocks, factors, old_z) = (self.partition, self.blocks, self.factors, &*z);
        self.bufs
            .lanes
            .par_iter_mut()
            .enumerate()
            .for_each(|(l, lane)| lane.solve(partition, &blocks[l], &*factors[l], r, old_z));
        self.assemble(z)
    }

    /// [`SweepPreconditioner::sweep`] with the parts one after the other in
    /// the calling thread: the oracle of the bitwise tests.
    fn sweep_serial(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError> {
        for (l, lane) in self.bufs.lanes.iter_mut().enumerate() {
            lane.solve(self.partition, &self.blocks[l], &*self.factors[l], r, z);
        }
        self.assemble(z)
    }

    /// The weighted assembly that ends a sweep, or the error of the lowest
    /// failing part.
    fn assemble(&mut self, z: &mut [f64]) -> Result<(), CoreError> {
        let lanes = &mut self.bufs.lanes;
        if let Some(error) = lanes.iter_mut().find_map(|lane| lane.error.take()) {
            return Err(error);
        }
        WeightingScheme::assemble_into(self.partition, self.weight_table, lanes, z);
        Ok(())
    }
}

impl Preconditioner for SweepPreconditioner<'_> {
    fn order(&self) -> usize {
        self.partition.order()
    }

    fn apply_warm(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError> {
        for _ in 0..self.inner_sweeps {
            self.sweep(r, z)?;
        }
        Ok(())
    }
}

/// A [`SweepPreconditioner`] whose sweeps run serially in the calling thread.
/// Kept only as the reference the pooled sweep is compared against, bit for
/// bit, by `tests/krylov.rs` and the `sweep_apply` row of `perf-report`.
#[doc(hidden)]
pub struct SerialSweepOracle<'a>(pub SweepPreconditioner<'a>);

impl Preconditioner for SerialSweepOracle<'_> {
    fn order(&self) -> usize {
        self.0.order()
    }

    fn apply_warm(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), CoreError> {
        for _ in 0..self.0.inner_sweeps {
            self.0.sweep_serial(r, z)?;
        }
        Ok(())
    }
}

/// Preconditioned Richardson iteration.
///
/// `x` starts from zero and is improved in place by one warm preconditioner
/// application per outer step; the loop stops when the sup-norm increment
/// drops to `tolerance` (the stationary driver's stopping rule) or the budget
/// runs out.  A negative tolerance forces exactly `max_iterations` steps —
/// the same forced-depth convention as the sequential reference, used by the
/// bitwise equivalence proptests.
///
/// `x_prev` is caller-retained scratch of the same length as `x` so that
/// warm outer iterations allocate nothing.
pub fn richardson(
    precond: &mut dyn Preconditioner,
    tolerance: f64,
    max_iterations: u64,
    b: &[f64],
    x: &mut [f64],
    x_prev: &mut [f64],
) -> Result<Stop, CoreError> {
    debug_assert_eq!(x.len(), precond.order());
    debug_assert_eq!(x_prev.len(), x.len());
    x.fill(0.0);
    let mut iterations = 0u64;
    let mut norm = f64::INFINITY;
    while iterations < max_iterations {
        iterations += 1;
        x_prev.copy_from_slice(x);
        precond.apply_warm(b, x)?;
        norm = x
            .iter()
            .zip(x_prev.iter())
            .fold(0.0f64, |m, (a, p)| m.max((a - p).abs()));
        if norm <= tolerance {
            return Ok(Stop::new(StopReason::Converged, iterations, norm));
        }
    }
    Ok(Stop::new(StopReason::BudgetExhausted, iterations, norm))
}

/// Retained buffers of the FGMRES driver: the Arnoldi basis `V` (m+1
/// vectors), the preconditioned basis `Z` (m vectors — the *flexible* part),
/// the Hessenberg columns, the Givens rotations and the small solves.
/// [`FgmresWorkspace::prepare`] grows everything once; warm restarts and
/// outer steps then allocate nothing.
#[derive(Debug, Default)]
pub struct FgmresWorkspace {
    /// Orthonormal Krylov basis `v_0 … v_m`.
    v: Vec<Vec<f64>>,
    /// Preconditioned vectors `z_j = M⁻¹ v_j` (FGMRES stores them because
    /// `M⁻¹` may differ per step; the solution update is `x += Z y`).
    z: Vec<Vec<f64>>,
    /// Hessenberg matrix, column `j` stored at `h[j * (m + 1) ..]`.
    h: Vec<f64>,
    /// Givens cosines/sines of the incremental QR of `H`.
    cs: Vec<f64>,
    sn: Vec<f64>,
    /// Rotated residual vector `g` (its tail entry estimates the residual).
    g: Vec<f64>,
    /// Solution of the small triangular system `H y = g`.
    y: Vec<f64>,
    /// Residual / matvec scratch.
    r: Vec<f64>,
    /// Restart length the buffers are grown for.
    m: usize,
}

impl FgmresWorkspace {
    /// Empty workspace; call [`FgmresWorkspace::prepare`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer for order `n` and restart length `m` (idempotent).
    pub fn prepare(&mut self, n: usize, m: usize) {
        self.m = self.m.max(m);
        let m = self.m;
        self.v.resize_with(m + 1, Vec::new);
        for v in &mut self.v {
            v.resize(n, 0.0);
        }
        self.z.resize_with(m, Vec::new);
        for z in &mut self.z {
            z.resize(n, 0.0);
        }
        self.h.resize((m + 1) * m, 0.0);
        self.cs.resize(m, 0.0);
        self.sn.resize(m, 0.0);
        self.g.resize(m + 1, 0.0);
        self.y.resize(m, 0.0);
        self.r.resize(n, 0.0);
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Restarted flexible GMRES, FGMRES(m), right-preconditioned by `precond`.
///
/// `x` starts from zero.  Each Arnoldi step performs one *cold*
/// preconditioner application (`z_j = M⁻¹ v_j`), one matvec `A z_j`, a
/// modified-Gram-Schmidt orthogonalization and a Givens update; the cycle
/// ends at the restart length (or earlier on a happy breakdown / converged
/// residual estimate), updates `x += Z y` and recomputes the true residual.
/// Convergence is declared when the residual 2-norm drops to
/// `tolerance · ‖b‖₂` (absolute `tolerance` when `b = 0`) — a different
/// metric from the stationary driver's sup-norm increment, chosen because
/// the residual is what GMRES minimizes; see `docs/krylov.md`.
///
/// `max_outer` bounds the **total** Arnoldi steps across restarts, making
/// iteration counts directly comparable with stationary sweep counts.
#[allow(clippy::too_many_arguments)]
pub fn fgmres(
    a: &CsrMatrix,
    precond: &mut dyn Preconditioner,
    restart: usize,
    tolerance: f64,
    max_outer: u64,
    b: &[f64],
    x: &mut [f64],
    ws: &mut FgmresWorkspace,
) -> Result<Stop, CoreError> {
    let n = precond.order();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(b.len(), n);
    assert!(restart > 0, "FGMRES restart length must be positive");
    ws.prepare(n, restart);
    let m = restart;
    let lead = ws.m + 1; // column stride of the Hessenberg storage
    let norm_b = norm2(b);
    let threshold = if norm_b > 0.0 {
        tolerance * norm_b
    } else {
        tolerance
    };

    x.fill(0.0);
    // With x = 0 the initial residual is b itself.
    ws.r.copy_from_slice(b);
    let mut beta = norm_b;
    let mut iterations = 0u64;
    if beta <= threshold {
        return Ok(Stop::new(StopReason::Converged, 0, beta));
    }

    'cycles: while iterations < max_outer {
        // Start a cycle: v_0 = r / beta, g = beta·e_0.
        let inv = 1.0 / beta;
        for (vi, ri) in ws.v[0].iter_mut().zip(ws.r.iter()) {
            *vi = ri * inv;
        }
        ws.g.fill(0.0);
        ws.g[0] = beta;
        let mut steps = 0usize;

        for j in 0..m {
            if iterations >= max_outer {
                break;
            }
            iterations += 1;
            steps = j + 1;
            // Flexible step: z_j = M⁻¹ v_j from a zero guess, w = A z_j.
            let (head, tail) = ws.v.split_at_mut(j + 1);
            let w = &mut tail[0];
            precond.apply(&head[j], &mut ws.z[j])?;
            a.spmv_into(&ws.z[j], w)?;
            // Modified Gram-Schmidt against v_0..=v_j.
            for (i, vi) in head.iter().enumerate() {
                let hij = dot(w, vi);
                ws.h[j * lead + i] = hij;
                for (wk, vk) in w.iter_mut().zip(vi.iter()) {
                    *wk -= hij * vk;
                }
            }
            let h_next = norm2(w);
            ws.h[j * lead + j + 1] = h_next;
            let breakdown = h_next == 0.0;
            if !breakdown {
                let inv = 1.0 / h_next;
                for wk in w.iter_mut() {
                    *wk *= inv;
                }
            }
            // Apply the accumulated Givens rotations to the new column,
            // then zero its subdiagonal with a fresh rotation.
            for i in 0..j {
                let hi = ws.h[j * lead + i];
                let hi1 = ws.h[j * lead + i + 1];
                ws.h[j * lead + i] = ws.cs[i] * hi + ws.sn[i] * hi1;
                ws.h[j * lead + i + 1] = -ws.sn[i] * hi + ws.cs[i] * hi1;
            }
            let hjj = ws.h[j * lead + j];
            let r = (hjj * hjj + h_next * h_next).sqrt();
            let (c, s) = if r == 0.0 {
                (1.0, 0.0)
            } else {
                (hjj / r, h_next / r)
            };
            ws.cs[j] = c;
            ws.sn[j] = s;
            ws.h[j * lead + j] = c * hjj + s * h_next;
            ws.h[j * lead + j + 1] = 0.0;
            let gj = ws.g[j];
            ws.g[j] = c * gj;
            ws.g[j + 1] = -s * gj;
            // |g_{j+1}| estimates the residual 2-norm of the least-squares
            // problem; stop the cycle early when it clears the threshold.
            if breakdown || ws.g[j + 1].abs() <= threshold {
                break;
            }
        }

        if steps == 0 {
            break 'cycles; // budget exhausted before any step of this cycle
        }
        // Solve the small upper-triangular system H y = g …
        for i in (0..steps).rev() {
            let mut acc = ws.g[i];
            for k in (i + 1)..steps {
                acc -= ws.h[k * lead + i] * ws.y[k];
            }
            ws.y[i] = acc / ws.h[i * lead + i];
        }
        // … and reconstruct from the *preconditioned* basis: x += Z y.
        for (yk, zk) in ws.y[..steps].iter().zip(ws.z[..steps].iter()) {
            for (xi, zi) in x.iter_mut().zip(zk.iter()) {
                *xi += yk * zi;
            }
        }
        // True residual for the restart (and the honest convergence test).
        a.spmv_into(x, &mut ws.r)?;
        for (ri, bi) in ws.r.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        beta = norm2(&ws.r);
        if beta <= threshold {
            return Ok(Stop::new(StopReason::Converged, iterations, beta));
        }
    }
    // Every cycle that ended at or below the threshold returned above.
    Ok(Stop::new(StopReason::BudgetExhausted, iterations, beta))
}

/// The complete per-solve scratch of the Krylov drivers, pooled by
/// [`crate::prepared::PreparedSystem`] the same way the stationary driver
/// pools its `IterationWorkspace` sets: acquire on solve entry, release on
/// exit, so warm solves allocate nothing.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    /// Sweep-preconditioner buffers (per-part locals + solve scratch).
    pub sweep: SweepBuffers,
    /// FGMRES basis/rotation buffers (unused by Richardson).
    pub fgmres: FgmresWorkspace,
    /// Outer iterate.
    pub x: Vec<f64>,
    /// Previous outer iterate (Richardson's increment scratch).
    pub x_prev: Vec<f64>,
}

impl KrylovWorkspace {
    /// Empty workspace; grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the outer-iterate buffers (the method-specific buffers grow in
    /// their drivers / the preconditioner constructor).
    pub fn prepare(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.x_prev.resize(n, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::sequential::solve_sequential_decomposed;
    use crate::{runtime, MultisplittingConfig};
    use msplit_direct::SolverKind;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    /// Prepared-like state for driving the preconditioner directly.
    struct Fixture {
        a: CsrMatrix,
        b: Vec<f64>,
        partition: BandPartition,
        blocks: Vec<LocalBlocks>,
        factors: Vec<Arc<dyn Factorization>>,
        table: Vec<Vec<(usize, f64)>>,
    }

    fn fixture(n: usize, parts: usize, overlap: usize, scheme: WeightingScheme) -> Fixture {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed: 7,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);
        let d = Decomposition::uniform(&a, &b, parts, overlap).unwrap();
        let (partition, blocks) = d.into_blocks();
        let config = MultisplittingConfig {
            parts,
            overlap,
            weighting: scheme,
            ..Default::default()
        };
        let factors = runtime::factorize_blocks(&blocks, &config).unwrap();
        let table = scheme.weight_table(&partition);
        Fixture {
            a,
            b,
            partition,
            blocks,
            factors,
            table,
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn richardson_single_sweep_is_bitwise_the_sequential_reference() {
        for scheme in WeightingScheme::all() {
            let f = fixture(120, 3, 2, scheme);
            let d = Decomposition::uniform(&f.a, &f.b, 3, 2).unwrap();
            for depth in [1u64, 2, 5, 17] {
                let reference =
                    solve_sequential_decomposed(&d, scheme, SolverKind::SparseLu, -1.0, depth)
                        .unwrap();
                let mut bufs = SweepBuffers::new();
                let mut pc = SweepPreconditioner::new(
                    &f.partition,
                    &f.blocks,
                    &f.factors,
                    &f.table,
                    1,
                    &mut bufs,
                );
                let mut x = vec![0.0; 120];
                let mut x_prev = vec![0.0; 120];
                let stop = richardson(&mut pc, -1.0, depth, &f.b, &mut x, &mut x_prev).unwrap();
                assert_eq!(stop.iterations, depth);
                for (i, (ours, theirs)) in x.iter().zip(reference.x.iter()).enumerate() {
                    assert_eq!(
                        ours.to_bits(),
                        theirs.to_bits(),
                        "{scheme:?} depth {depth} index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn richardson_with_more_inner_sweeps_still_converges_to_truth() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 150,
            seed: 21,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.1).sin());
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let (partition, blocks) = d.into_blocks();
        let config = MultisplittingConfig {
            parts: 4,
            ..Default::default()
        };
        let factors = runtime::factorize_blocks(&blocks, &config).unwrap();
        let table = config.weighting.weight_table(&partition);
        let mut bufs = SweepBuffers::new();
        let mut pc = SweepPreconditioner::new(&partition, &blocks, &factors, &table, 3, &mut bufs);
        let mut x = vec![0.0; 150];
        let mut x_prev = vec![0.0; 150];
        let stop = richardson(&mut pc, 1e-12, 500, &b, &mut x, &mut x_prev).unwrap();
        assert!(stop.converged());
        assert!(max_err(&x, &x_true) < 1e-8);
    }

    #[test]
    fn fgmres_solves_to_the_requested_residual() {
        let f = fixture(200, 4, 1, WeightingScheme::OwnerTakes);
        let mut bufs = SweepBuffers::new();
        let mut pc =
            SweepPreconditioner::new(&f.partition, &f.blocks, &f.factors, &f.table, 1, &mut bufs);
        let mut x = vec![0.0; 200];
        let mut ws = FgmresWorkspace::new();
        let stop = fgmres(&f.a, &mut pc, 20, 1e-10, 500, &f.b, &mut x, &mut ws).unwrap();
        assert!(stop.converged(), "{stop:?}");
        let ax = f.a.spmv(&x).unwrap();
        let resid =
            f.b.iter()
                .zip(ax.iter())
                .map(|(bi, ai)| (bi - ai) * (bi - ai))
                .sum::<f64>()
                .sqrt();
        let norm_b = f.b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(resid <= 1e-10 * norm_b * 1.01, "residual {resid}");
        // The stop's norm is the absolute residual the tolerance was met on.
        assert!(stop.norm <= 1e-10 * norm_b, "{stop:?}");
        assert!(
            (stop.norm - resid).abs() <= 1e-3 * resid,
            "{stop:?} vs {resid}"
        );
    }

    #[test]
    fn fgmres_restarts_do_not_break_convergence() {
        // A restart length far below the iteration count forces many cycles.
        let f = fixture(160, 4, 0, WeightingScheme::OwnerTakes);
        let mut bufs = SweepBuffers::new();
        let mut pc =
            SweepPreconditioner::new(&f.partition, &f.blocks, &f.factors, &f.table, 1, &mut bufs);
        let mut x = vec![0.0; 160];
        let mut ws = FgmresWorkspace::new();
        let stop = fgmres(&f.a, &mut pc, 3, 1e-10, 2000, &f.b, &mut x, &mut ws).unwrap();
        assert!(stop.converged(), "{stop:?}");
    }

    #[test]
    fn fgmres_zero_rhs_converges_immediately() {
        let f = fixture(60, 2, 0, WeightingScheme::OwnerTakes);
        let zero = vec![0.0; 60];
        let mut bufs = SweepBuffers::new();
        let mut pc =
            SweepPreconditioner::new(&f.partition, &f.blocks, &f.factors, &f.table, 1, &mut bufs);
        let mut x = vec![1.0; 60];
        let mut ws = FgmresWorkspace::new();
        let stop = fgmres(&f.a, &mut pc, 10, 1e-12, 100, &zero, &mut x, &mut ws).unwrap();
        assert!(stop.converged());
        assert_eq!(stop.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fgmres_exhausted_budget_reports_not_converged() {
        let f = fixture(120, 3, 0, WeightingScheme::OwnerTakes);
        let mut bufs = SweepBuffers::new();
        let mut pc =
            SweepPreconditioner::new(&f.partition, &f.blocks, &f.factors, &f.table, 1, &mut bufs);
        let mut x = vec![0.0; 120];
        let mut ws = FgmresWorkspace::new();
        let stop = fgmres(&f.a, &mut pc, 5, 1e-14, 2, &f.b, &mut x, &mut ws).unwrap();
        assert_eq!(stop.iterations, 2);
        assert_eq!(stop.reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn workspace_prepare_is_idempotent() {
        let mut ws = FgmresWorkspace::new();
        ws.prepare(100, 10);
        ws.prepare(100, 10);
        assert_eq!(ws.v.len(), 11);
        assert_eq!(ws.z.len(), 10);
        // A smaller restart must not shrink the buffers (pooled reuse).
        ws.prepare(100, 4);
        assert_eq!(ws.v.len(), 11);
    }
}
