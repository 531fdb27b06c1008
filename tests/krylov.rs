//! Integration suite of the Krylov acceleration layer: method dispatch
//! through the public solver/prepared-system APIs, FGMRES correctness across
//! every inner solver kind, and the convection–diffusion generator that
//! produces the ill-conditioned systems the acceleration is for.
//!
//! The bitwise Richardson ≡ stationary equivalence lives in
//! `tests/driver_equivalence.rs`; the allocation-freedom of warm outer
//! iterations in `tests/zero_alloc.rs`.  This file covers everything else.

use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, ConvectionDiffusionConfig, DiagDominantConfig};
use multisplitting::sparse::CsrMatrix;
use proptest::prelude::*;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv(x).unwrap();
    b.iter()
        .zip(ax.iter())
        .map(|(bi, ai)| (bi - ai) * (bi - ai))
        .sum::<f64>()
        .sqrt()
}

fn config(parts: usize, method: Method) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        tolerance: 1e-10,
        max_iterations: 20_000,
        method,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // FGMRES through the public prepared-system API solves to the requested
    // residual for every inner solver kind, every weighting scheme, with and
    // without overlap.
    #[test]
    fn fgmres_solves_across_solver_kinds_and_schemes(
        n in 80usize..160,
        parts in 2usize..5,
        overlap in 0usize..3,
        kind_idx in 0usize..3,
        scheme_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let kind = [SolverKind::SparseLu, SolverKind::DenseLu, SolverKind::BandLu][kind_idx];
        let scheme = [
            WeightingScheme::OwnerTakes,
            WeightingScheme::Average,
            WeightingScheme::FirstCovering,
        ][scheme_idx];
        // Narrow half-bandwidth so the band solver accepts even the smallest
        // sub-block this strategy can produce.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            half_bandwidth: 4,
            seed,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let cfg = MultisplittingConfig {
            overlap,
            weighting: scheme,
            solver_kind: kind,
            method: Method::Fgmres { restart: 15, inner_sweeps: 1 },
            ..config(parts, Method::Stationary)
        };
        let out = PreparedSystem::prepare(cfg, &a).unwrap().solve(&b).unwrap();
        prop_assert!(out.stop.converged(), "{kind:?}/{scheme:?} did not converge");
        let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(
            residual_norm(&a, &out.x, &b) <= 1e-10 * norm_b * 1.01,
            "residual above the requested bound"
        );
        prop_assert!(max_err(&out.x, &x_true) < 1e-6);
    }

    // Richardson with several inner sweeps agrees with the stationary answer
    // to solver tolerance (more sweeps per step is still the same fixed
    // point) and converges in no more outer steps.
    #[test]
    fn richardson_multi_sweep_reaches_the_stationary_fixed_point(
        n in 60usize..140,
        parts in 2usize..4,
        inner in 2u64..5,
        seed in 0u64..500,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
        let stationary = PreparedSystem::prepare(config(parts, Method::Stationary), &a)
            .unwrap()
            .solve(&b)
            .unwrap();
        let rich = PreparedSystem::prepare(
            config(parts, Method::Richardson { inner_sweeps: inner }),
            &a,
        )
        .unwrap()
        .solve(&b)
        .unwrap();
        prop_assert!(stationary.stop.converged() && rich.stop.converged());
        prop_assert!(max_err(&rich.x, &x_true) < 1e-7);
        prop_assert!(
            rich.stop.iterations <= stationary.stop.iterations,
            "{inner} inner sweeps took more outer steps ({} > {})",
            rich.stop.iterations,
            stationary.stop.iterations
        );
    }

    // The convection–diffusion generator keeps its contract over the whole
    // knob space: irreducibly diagonally dominant (so Proposition 1 applies
    // and every method converges), nonsymmetric for any positive Péclet
    // number, and deterministic.
    #[test]
    fn convection_diffusion_contract_over_the_knob_space(
        k in 4usize..24,
        peclet_permille in 0usize..1000,
        skew_permille in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let cfg = ConvectionDiffusionConfig {
            k,
            peclet: peclet_permille as f64 / 1000.0,
            skew: skew_permille as f64 / 1000.0,
            seed,
        };
        let a = generators::convection_diffusion(&cfg);
        prop_assert_eq!(a.rows(), k * k);
        prop_assert!(multisplitting::sparse::properties::is_weakly_diagonally_dominant(&a));
        prop_assert!(multisplitting::sparse::properties::is_irreducibly_diagonally_dominant(&a));
        if peclet_permille > 0 {
            prop_assert_ne!(a.clone(), a.transpose());
        }
        prop_assert_eq!(a, generators::convection_diffusion(&cfg));
    }

    // Every method solves the ill-conditioned convection–diffusion systems
    // to the same answer; FGMRES never needs more outer iterations than the
    // stationary sweep needs there.
    #[test]
    fn all_methods_agree_on_convection_diffusion(
        k in 8usize..20,
        peclet_permille in 500usize..990,
        seed in 0u64..500,
    ) {
        let a = generators::convection_diffusion(&ConvectionDiffusionConfig {
            k,
            peclet: peclet_permille as f64 / 1000.0,
            skew: 0.1,
            seed,
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        for method in [
            Method::Stationary,
            Method::Richardson { inner_sweeps: 1 },
            Method::Fgmres { restart: 20, inner_sweeps: 1 },
        ] {
            let out = PreparedSystem::prepare(config(3, method), &a)
                .unwrap()
                .solve(&b)
                .unwrap();
            prop_assert!(out.stop.converged(), "{method:?} did not converge");
            prop_assert!(
                max_err(&out.x, &x_true) < 1e-6,
                "{method:?} answer off by {}",
                max_err(&out.x, &x_true)
            );
        }
    }
}

// --- Method dispatch through the one-shot solver API. ---

#[test]
fn solver_builder_dispatches_every_method() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 150,
        seed: 5,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);
    for method in [
        Method::Stationary,
        Method::Richardson { inner_sweeps: 2 },
        Method::Fgmres {
            restart: 25,
            inner_sweeps: 1,
        },
    ] {
        let out = MultisplittingSolver::builder()
            .parts(3)
            .tolerance(1e-10)
            .method(method)
            .build()
            .solve(&a, &b)
            .unwrap();
        assert!(out.stop.converged(), "{method:?}");
        assert!(max_err(&out.x, &x_true) < 1e-7, "{method:?}");
        assert_eq!(out.part_reports.len(), 3, "{method:?}");
    }
}

#[test]
fn krylov_methods_ignore_the_transport_but_keep_the_answer() {
    use multisplitting::comm::tcp::{LoopbackMesh, TcpOptions};
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 120,
        seed: 9,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 4) as f64);
    let solver = MultisplittingSolver::new(config(
        3,
        Method::Fgmres {
            restart: 20,
            inner_sweeps: 1,
        },
    ));
    // The Krylov outer loops are in-process drivers; a transport handed to
    // solve_with_transport is ignored rather than an error, and the answer
    // matches the plain solve bitwise (the same code path runs).
    let plain = solver.solve(&a, &b).unwrap();
    let mesh = LoopbackMesh::new(3, TcpOptions::default()).unwrap();
    let with_transport = solver.solve_with_transport(&a, &b, mesh).unwrap();
    assert!(plain.stop.converged() && with_transport.stop.converged());
    assert_eq!(plain.x, with_transport.x);
    assert_eq!(plain.stop, with_transport.stop);
    assert_eq!(
        plain.stop.norm.to_bits(),
        with_transport.stop.norm.to_bits()
    );
    assert!(max_err(&plain.x, &x_true) < 1e-7);
}

#[test]
fn invalid_method_knobs_are_rejected_at_prepare_time() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 60,
        seed: 1,
        ..Default::default()
    });
    for method in [
        Method::Richardson { inner_sweeps: 0 },
        Method::Fgmres {
            restart: 0,
            inner_sweeps: 1,
        },
        Method::Fgmres {
            restart: 10,
            inner_sweeps: 0,
        },
    ] {
        assert!(
            PreparedSystem::prepare(config(2, method), &a).is_err(),
            "{method:?} must be rejected"
        );
    }
}

#[test]
fn fgmres_outperforms_stationary_on_an_ill_conditioned_system() {
    // The headline claim of the acceleration (gated for real, at n >= 4096,
    // by `perf-report --check`): single-grid-row bands on a refined
    // convection–diffusion mesh push the block-Jacobi spectral radius toward
    // 1, the stationary contraction crawls, and FGMRES over the very same
    // sweep converges in a fraction of the outer iterations.  Péclet 0.9
    // keeps the operator strongly nonsymmetric (so CG-style shortcuts are
    // off the table and the flexible solver is doing real work).
    let a = generators::convection_diffusion(&ConvectionDiffusionConfig {
        k: 48,
        peclet: 0.9,
        skew: 0.0,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
    let stationary = PreparedSystem::prepare(config(48, Method::Stationary), &a)
        .unwrap()
        .solve(&b)
        .unwrap();
    let fgmres = PreparedSystem::prepare(
        config(
            48,
            Method::Fgmres {
                restart: 60,
                inner_sweeps: 1,
            },
        ),
        &a,
    )
    .unwrap()
    .solve(&b)
    .unwrap();
    assert!(stationary.stop.converged() && fgmres.stop.converged());
    assert!(
        fgmres.stop.iterations * 2 <= stationary.stop.iterations,
        "FGMRES took {} outer iterations vs stationary {}",
        fgmres.stop.iterations,
        stationary.stop.iterations
    );
}

#[test]
fn batch_solves_stay_on_the_stationary_lockstep_path() {
    // solve_many is the batched lockstep driver regardless of the configured
    // method — documented behavior; the batch must still be correct.
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 100,
        seed: 3,
        ..Default::default()
    });
    let (x1, b1) = generators::rhs_for_solution(&a, |i| (i % 3) as f64);
    let (x2, b2) = generators::rhs_for_solution(&a, |i| ((i % 5) as f64) - 2.0);
    let prepared = PreparedSystem::prepare(
        config(
            2,
            Method::Fgmres {
                restart: 10,
                inner_sweeps: 1,
            },
        ),
        &a,
    )
    .unwrap();
    let batch = prepared.solve_many(&[b1, b2]).unwrap();
    assert!(batch.stop.converged());
    assert!(max_err(&batch.columns[0], &x1) < 1e-7);
    assert!(max_err(&batch.columns[1], &x2) < 1e-7);
}

// --- The pooled sweep against its serial oracle, bit for bit. ---

mod pooled_sweep {
    use multisplitting::core::krylov::{
        fgmres, richardson, FgmresWorkspace, Preconditioner, SerialSweepOracle, SweepBuffers,
        SweepPreconditioner,
    };
    use multisplitting::core::runtime::factorize_blocks;
    use multisplitting::core::{CoreError, Decomposition};
    use multisplitting::direct::api::Factorization;
    use multisplitting::direct::{DirectError, FactorStats, SolveScratch};
    use multisplitting::prelude::*;
    use multisplitting::sparse::generators::{self, DiagDominantConfig};
    use multisplitting::sparse::{BandPartition, CsrMatrix, LocalBlocks};
    use std::sync::Arc;

    /// What a `SweepPreconditioner` is built from.
    struct Prepared {
        a: CsrMatrix,
        b: Vec<f64>,
        partition: BandPartition,
        blocks: Vec<LocalBlocks>,
        factors: Vec<Arc<dyn Factorization>>,
        table: Vec<Vec<(usize, f64)>>,
    }

    fn prepared(
        parts: usize,
        overlap: usize,
        scheme: WeightingScheme,
        kind: SolverKind,
    ) -> Prepared {
        // Narrow half-bandwidth so the band solver accepts every sub-block.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 168,
            half_bandwidth: 4,
            seed: 11 + parts as u64,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let (partition, blocks) = Decomposition::uniform(&a, &b, parts, overlap)
            .unwrap()
            .into_blocks();
        let config = MultisplittingConfig {
            parts,
            overlap,
            weighting: scheme,
            solver_kind: kind,
            ..Default::default()
        };
        let factors = factorize_blocks(&blocks, &config).unwrap();
        let table = scheme.weight_table(&partition);
        Prepared {
            a,
            b,
            partition,
            blocks,
            factors,
            table,
        }
    }

    /// Runs `solve` over the pooled sweep and over the serial oracle.
    fn pooled_and_serial(
        p: &Prepared,
        sweeps: u64,
        mut solve: impl FnMut(&mut dyn Preconditioner, &mut [f64]) -> Result<Stop, CoreError>,
    ) -> [(Vec<f64>, Result<Stop, CoreError>); 2] {
        let n = p.partition.order();
        let (mut pooled_bufs, mut serial_bufs) = (SweepBuffers::new(), SweepBuffers::new());
        let bind = |bufs| {
            SweepPreconditioner::new(&p.partition, &p.blocks, &p.factors, &p.table, sweeps, bufs)
        };
        let (mut x_pooled, mut x_serial) = (vec![0.0; n], vec![0.0; n]);
        let pooled = solve(&mut bind(&mut pooled_bufs), &mut x_pooled);
        let serial = solve(
            &mut SerialSweepOracle(bind(&mut serial_bufs)),
            &mut x_serial,
        );
        [(x_pooled, pooled), (x_serial, serial)]
    }

    fn assert_same(what: &str, [pooled, serial]: [(Vec<f64>, Result<Stop, CoreError>); 2]) {
        let (pooled_stop, serial_stop) = (pooled.1.unwrap(), serial.1.unwrap());
        assert_eq!(pooled_stop, serial_stop, "{what}");
        assert_eq!(
            pooled_stop.norm.to_bits(),
            serial_stop.norm.to_bits(),
            "{what}"
        );
        for (i, (ours, theirs)) in pooled.0.iter().zip(&serial.0).enumerate() {
            assert_eq!(ours.to_bits(), theirs.to_bits(), "{what} index {i}");
        }
    }

    #[test]
    fn pooled_sweep_is_bitwise_the_serial_sweep() {
        for parts in [1, 2, 3, 8] {
            for overlap in [0, 2] {
                for scheme in WeightingScheme::all() {
                    for kind in [SolverKind::SparseLu, SolverKind::BandLu] {
                        let what = format!("P={parts} overlap={overlap} {scheme:?} {kind:?}");
                        let p = prepared(parts, overlap, scheme, kind);
                        let n = p.partition.order();
                        for sweeps in [1, 2] {
                            let mut x_prev = vec![0.0; n];
                            assert_same(
                                &format!("richardson {what} sweeps={sweeps}"),
                                pooled_and_serial(&p, sweeps, |pc, x| {
                                    richardson(pc, 1e-10, 40, &p.b, x, &mut x_prev)
                                }),
                            );
                            let mut ws = FgmresWorkspace::new();
                            assert_same(
                                &format!("fgmres {what} sweeps={sweeps}"),
                                pooled_and_serial(&p, sweeps, |pc, x| {
                                    fgmres(&p.a, pc, 7, 1e-10, 40, &p.b, x, &mut ws)
                                }),
                            );
                        }
                    }
                }
            }
        }
    }

    /// A factorization whose every solve fails with its own tag.
    struct Failing(usize, FactorStats);

    impl Factorization for Failing {
        fn order(&self) -> usize {
            self.1.n
        }

        fn solve(&self, _b: &[f64]) -> Result<Vec<f64>, DirectError> {
            Err(DirectError::Singular { column: self.0 })
        }

        fn solve_into(
            &self,
            _b: &mut [f64],
            _scratch: &mut SolveScratch,
        ) -> Result<(), DirectError> {
            Err(DirectError::Singular { column: self.0 })
        }

        fn stats(&self) -> &FactorStats {
            &self.1
        }
    }

    #[test]
    fn of_two_failing_bands_the_lower_one_is_reported() {
        let mut p = prepared(8, 2, WeightingScheme::OwnerTakes, SolverKind::SparseLu);
        for l in [2, 5] {
            let stats = p.factors[l].stats().clone();
            p.factors[l] = Arc::new(Failing(l, stats));
        }
        let mut x_prev = vec![0.0; p.partition.order()];
        for (_, outcome) in pooled_and_serial(&p, 1, |pc, x| {
            richardson(pc, 1e-10, 40, &p.b, x, &mut x_prev)
        }) {
            match outcome {
                Err(CoreError::Direct(DirectError::Singular { column: 2 })) => {}
                other => panic!("expected the error of band 2, got {other:?}"),
            }
        }
        // A failed sweep leaves nothing behind: the same buffers serve a
        // healthy system afterwards (the error slot was taken, not kept).
        let healthy = prepared(8, 2, WeightingScheme::OwnerTakes, SolverKind::SparseLu);
        let mut bufs = SweepBuffers::new();
        let mut z = vec![0.0; p.partition.order()];
        SweepPreconditioner::new(&p.partition, &p.blocks, &p.factors, &p.table, 1, &mut bufs)
            .apply(&p.b, &mut z)
            .unwrap_err();
        SweepPreconditioner::new(
            &healthy.partition,
            &healthy.blocks,
            &healthy.factors,
            &healthy.table,
            1,
            &mut bufs,
        )
        .apply(&healthy.b, &mut z)
        .unwrap();
    }
}
